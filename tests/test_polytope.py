import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import right_angle_target, small_complexes
from hicp import build_complex, check_feasibility, complexes, make_angle_data
from hicp import polytope, triangulate
from hicp.complexes import admissible_domains, hat_complex, make_domain
from hicp.errors import CapExceeded, IndexMismatch
from hicp.fixtures import (
    FIXTURES,
    fixture_spec,
    grid_torus_spec,
    reference_pattern,
    triangulated_torus_spec,
)
from hicp.geometry import EUCLIDEAN, HYPERBOLIC, psi_inv_surface
from hicp.polytope import (
    FEASIBLE,
    INFEASIBLE,
    PARTIAL,
    Theta_full,
    domain_inequality,
    domain_slacks,
    single_star_check,
    theta_extended,
)
from hicp.solver import extract_angles


@pytest.fixture(scope="module")
def grid_torus_v1():
    return build_complex(grid_torus_spec(3, v1=(4,)))


class TestMakeAngleData:
    def test_missing_theta_key(self, grid_torus):
        theta = {e: math.pi / 2 for e in grid_torus.e1}
        theta.pop(next(iter(theta)))
        with pytest.raises(IndexMismatch):
            make_angle_data(grid_torus, "euclidean", theta, {})

    def test_extra_theta_key(self, grid_torus):
        theta = {e: math.pi / 2 for e in grid_torus.e1}
        theta[(0, 99)] = 1.0
        with pytest.raises(IndexMismatch):
            make_angle_data(grid_torus, "euclidean", theta, {})

    def test_theta_on_point_vertex(self, grid_torus_v1):
        theta = {e: math.pi / 2 for e in grid_torus_v1.e1}
        with pytest.raises(IndexMismatch):
            make_angle_data(grid_torus_v1, "euclidean", theta,
                            {4: 2 * math.pi, 0: 1.0})

    def test_missing_Theta(self, grid_torus_v1):
        theta = {e: math.pi / 2 for e in grid_torus_v1.e1}
        with pytest.raises(IndexMismatch):
            make_angle_data(grid_torus_v1, "euclidean", theta, {})

    def test_two_keys_of_one_edge(self, grid_torus):
        # (0, 1) and (1, 0) name one edge: neither value may win silently
        theta = {e: math.pi / 2 for e in grid_torus.e1}
        theta[(1, 0)] = 3.0
        with pytest.raises(IndexMismatch, match=r"\(0, 1\) and \(1, 0\)"):
            make_angle_data(grid_torus, "euclidean", theta, {})

    def test_edge_keys_normalized(self, grid_torus):
        theta = {(max(e), min(e)): math.pi / 2 for e in grid_torus.e1}
        t = make_angle_data(grid_torus, "euclidean", theta, {})
        assert set(t.theta) == set(grid_torus.e1)


class TestDerivedValues:
    def test_theta_extended_zero_on_tangency(self, e0_torus):
        theta = {e: 2.0 for e in e0_torus.e1}
        Theta = {k: 5.0 for k in e0_torus.v1}
        t = make_angle_data(e0_torus, "hyperbolic", theta, Theta)
        full = theta_extended(e0_torus, t)
        for e in e0_torus.e0:
            assert full[e] == 0.0
        assert len(full) == len(e0_torus.edges)

    def test_Theta_full_on_point_vertices(self, grid_torus):
        t = right_angle_target(grid_torus)
        full = Theta_full(grid_torus, t)
        # degree-4 vertices, theta = pi/2 everywhere
        for k in grid_torus.vertices:
            assert full[k] == pytest.approx(2 * math.pi, abs=1e-12)


class TestCheckFeasibility:
    def test_grid_right_angles_feasible(self, grid_torus):
        rep = check_feasibility(grid_torus, right_angle_target(grid_torus))
        assert rep.verdict == FEASIBLE
        assert rep.feasible
        assert rep.violations == ()
        assert rep.gauss_bonnet_residual == pytest.approx(0.0, abs=1e-12)

    def test_v1_star_boundary_case(self, grid_torus_v1):
        # theta = pi/2, Theta = 2 pi sits exactly on the open-star
        # inequality of the positive vertex: infeasible, with that star
        # as the witness
        cc = grid_torus_v1
        t = make_angle_data(cc, "euclidean",
                            {e: math.pi / 2 for e in cc.e1},
                            {4: 2 * math.pi})
        rep = check_feasibility(cc, t)
        assert rep.verdict == INFEASIBLE
        conds = {v[0] for v in rep.violations}
        assert conds == {"E4"}
        witnesses = [v[1] for v in rep.violations]
        assert {"domain": [["v", 4]]} in witnesses
        v = next(v for v in rep.violations if v[1] == {"domain": [["v", 4]]})
        assert v[2] == pytest.approx(2 * math.pi, abs=1e-12)
        assert v[3] == pytest.approx(2 * math.pi, abs=1e-12)

    def test_v1_star_strictly_feasible(self, grid_torus_v1):
        cc = grid_torus_v1
        theta = {e: math.pi / 2 for e in cc.e1}
        # shrinking Theta at the positive vertex must be offset on an
        # edge away from it to keep the Euclidean total-angle identity
        theta[(0, 1)] = math.pi / 2 - 0.25
        t = make_angle_data(cc, "euclidean", theta, {4: 2 * math.pi - 0.5})
        rep = check_feasibility(cc, t)
        assert rep.verdict == FEASIBLE

    def test_range_violation(self, grid_torus):
        cc = grid_torus
        theta = {e: math.pi / 2 for e in cc.e1}
        e_bad = min(cc.e1)
        theta[e_bad] = math.pi
        t = make_angle_data(cc, "euclidean", theta, {})
        rep = check_feasibility(cc, t)
        assert rep.verdict == INFEASIBLE
        assert any(v[0] == "E1" and v[1] == {"edge": list(e_bad)}
                   for v in rep.violations)

    def test_euclidean_total_angle(self, tri_torus):
        # torus: the identity forces theta = 2 pi / 3 uniformly here
        cc = tri_torus
        good = make_angle_data(cc, "euclidean",
                               {e: 2 * math.pi / 3 for e in cc.e1}, {})
        rep = check_feasibility(cc, good)
        assert not any(v[0] == "E3" for v in rep.violations)
        bad = right_angle_target(cc)
        rep = check_feasibility(cc, bad)
        assert rep.verdict == INFEASIBLE
        assert any(v[0] == "E3" for v in rep.violations)

    def test_hyperbolic_strict_inequality(self, tri_torus):
        cc = tri_torus
        # equality case is excluded in the hyperbolic condition
        t = make_angle_data(cc, "hyperbolic",
                            {e: 2 * math.pi / 3 for e in cc.e1}, {})
        rep = check_feasibility(cc, t)
        assert rep.verdict == INFEASIBLE
        assert any(v[0] == "H3" for v in rep.violations)
        t2 = make_angle_data(cc, "hyperbolic",
                             {e: 2 * math.pi / 3 + 0.2 for e in cc.e1}, {})
        rep2 = check_feasibility(cc, t2)
        assert not any(v[0] == "H3" for v in rep2.violations)

    def test_partial_verdict_under_small_cap(self, grid_torus):
        rep = check_feasibility(grid_torus, right_angle_target(grid_torus),
                                cap=8)
        assert rep.partial
        assert rep.verdict == PARTIAL
        assert rep.feasible

    def test_rejects_mismatched_complex(self, grid_torus, tri_torus):
        t = right_angle_target(grid_torus)
        with pytest.raises(IndexMismatch):
            check_feasibility(tri_torus, t)


class TestSingleStarCheck:
    def test_flags_boundary_star(self, grid_torus_v1):
        cc = grid_torus_v1
        t = make_angle_data(cc, "euclidean",
                            {e: math.pi / 2 for e in cc.e1},
                            {4: 2 * math.pi})
        bad = single_star_check(cc, t, polytope.angle_arrays(cc, t))
        assert len(bad) == 1
        assert bad[0][1] == {"domain": [["v", 4]]}

    def test_clean_on_feasible_data(self, grid_torus_v1):
        cc = grid_torus_v1
        t = make_angle_data(cc, "euclidean",
                            {e: math.pi / 2 for e in cc.e1},
                            {4: 2 * math.pi - 0.5})
        assert single_star_check(cc, t, polytope.angle_arrays(cc, t)) == []


# ---------------------------------------------------------------------------
# Condition 4 by cell weights against the domain-by-domain evaluation


def reference_target(cc, g):
    """The reference pattern's angles: what ``validate`` checks when its
    input carries no angles."""
    T = triangulate(cc)
    l, r = reference_pattern(T, g)
    return extract_angles(T, psi_inv_surface(T, l, r, g), g)


@st.composite
def complexes_and_angles(draw):
    """A small complex with drawn V1 and E0 sets, and drawn theta on its
    free edges and Theta on its disk vertices (no feasibility asked)."""
    cc = draw(small_complexes())
    angle = st.floats(0.01, math.pi - 0.01)
    theta = {e: draw(angle) for e in sorted(cc.e1)}
    Theta = {k: draw(st.floats(0.01, 2 * math.pi)) for k in sorted(cc.v1)}
    return cc, theta, Theta


# ---------------------------------------------------------------------------
# Star sums by one pass over the edges against a scan per vertex


def _drawn_target(cc, g, seed, lo):
    """theta drawn in (lo, pi - 0.01) and Theta in (0.01, 2 pi): with lo
    near pi most disks break their open-star inequality."""
    rng = random.Random(seed)
    return make_angle_data(
        cc, g, {e: rng.uniform(lo, math.pi - 0.01) for e in sorted(cc.e1)},
        {k: rng.uniform(0.01, 2 * math.pi) for k in sorted(cc.v1)})


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("name", sorted(FIXTURES) + ["tri12"])
def test_star_sums_are_the_scan(name, g):
    # the same terms added in the same order: equal to the last bit
    cc = build_complex(triangulated_torus_spec(12, v1=range(0, 144, 2))
                       if name == "tri12" else fixture_spec(name))
    flagged = 0
    for t in (reference_target(cc, g), _drawn_target(cc, g, 1, 0.01),
              _drawn_target(cc, g, 2, math.pi - 0.3)):
        full = polytope.Theta_full(cc, t)
        assert list(full.items()) == list(
            oracles.Theta_full_by_scan(cc, t).items())
        bad = single_star_check(cc, t, polytope.angle_arrays(cc, t))
        assert bad == oracles.single_star_check_by_scan(cc, t)
        flagged += len(bad)
    # without free edges a star's sum is pi per edge, past any Theta
    assert flagged or not (cc.v1 and cc.e1)


def _assert_slacks_match(cc, t, domains):
    """domain_slacks against domain_sides' lhs - rhs on every domain, and
    its point-star flags against Domain.is_open_star_of."""
    h = hat_complex(cc)
    theta, _star, Theta = polytope.angle_arrays(cc, t)
    rows = oracles.cell_rows(h, [(m.vmask, m.emask, m.fmask) for m in (
        oracles.masked(h, d) for d in domains)])
    slack, point_star = domain_slacks(h, rows, theta, Theta)
    lhs, rhs = polytope.domain_sides(h, rows, theta, Theta)
    assert len(slack) == len(point_star) == len(domains)
    for d, s, p, diff in zip(domains, slack, point_star, lhs - rhs):
        assert abs(s - diff) <= 1e-12, sorted(d.generators)
        star = d.is_open_star_of()
        assert p == (star is not None and star[0] == "v"
                     and star[1] in cc.v0)


def _assert_same_report(cc, t, cap=22):
    got = check_feasibility(cc, t, cap=cap)
    want = oracles.check_feasibility_by_loop(cc, t, cap=cap)
    assert got.to_dict() == want.to_dict()
    return got


SLOW_FIXTURES = ("grid-torus-v1", "e0-torus")  # 199 131 domains each
FIXTURE_CASES = [
    pytest.param(name, g, marks=pytest.mark.slow)
    if name in SLOW_FIXTURES else (name, g)
    for name in sorted(FIXTURES) for g in (EUCLIDEAN, HYPERBOLIC)]


@pytest.fixture(scope="module")
def fixture_complexes():
    return {name: build_complex(fixture_spec(name)) for name in FIXTURES}


class TestDomainSlacks:
    """The cell-weight slack is domain_sides' lhs - rhs."""

    @pytest.mark.parametrize("name, g", FIXTURE_CASES)
    def test_fixture(self, fixture_complexes, name, g):
        # every strict domain within the cap, the partial enumeration
        # above it
        cc = fixture_complexes[name]
        _assert_slacks_match(cc, reference_target(cc, g),
                             list(admissible_domains(hat_complex(cc),
                                                     strict=True)))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(complexes_and_angles(), st.sampled_from([EUCLIDEAN, HYPERBOLIC]))
    def test_drawn(self, drawn, g):
        cc, theta, Theta = drawn
        t = make_angle_data(cc, g, theta, Theta)
        _assert_slacks_match(cc, t, list(admissible_domains(
            hat_complex(cc), strict=True, require_exhaustive=True)))

    def test_puncture(self, grid_torus):
        # the domain of TestBoundary.test_puncture: vertex 4 is outside
        # and its whole link inside
        h = hat_complex(grid_torus)
        gens = [("f", fi) for fi in range(len(grid_torus.faces))]
        gens += [("v", v) for v in grid_torus.vertices if v != 4]
        d = make_domain(h, gens)
        assert ("v", 4) in oracles.boundary(
            h, oracles.masked(h, d), oracles.links_by_scan(h)).punctures
        _assert_slacks_match(grid_torus, right_angle_target(grid_torus),
                             [d])


GRID_TOL = 1e-12 * (1 + 9)  # the condition tolerance on the 3x3 grid


def _shifted_star_target(cc, g, slack):
    """Angle data on the 3x3 grid torus with disk vertex 4 whose open
    star OStar(4) has the condition-4 slack ``slack``: theta = pi/2 + eps
    (eps > 0 keeps the hyperbolic total angle above 2 pi chi), Theta_4
    set to leave ``slack``, and the Euclidean total restored on the edge
    (0, 1) away from vertex 4."""
    eps = 0.0 if g == EUCLIDEAN else 0.05
    theta = {e: math.pi / 2 + eps for e in cc.e1}
    theta[(0, 1)] -= slack / 2
    return make_angle_data(cc, g, theta,
                           {4: 2 * math.pi - 4 * eps - slack})


class TestReportMatchesLoop:
    """check_feasibility against the domain-by-domain loop
    (``oracles.check_feasibility_by_loop``): equal reports, down to the
    witnesses' lhs and rhs and the size."""

    @pytest.mark.parametrize("name, g", FIXTURE_CASES)
    def test_fixture(self, fixture_complexes, name, g):
        cc = fixture_complexes[name]
        _assert_same_report(cc, reference_target(cc, g))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(complexes_and_angles(), st.sampled_from([EUCLIDEAN, HYPERBOLIC]),
           st.sampled_from([22, 10]), st.floats(0.001, 1.0))
    def test_drawn(self, drawn, g, cap, excess):
        cc, theta, Theta = drawn
        if cc.v1:
            # set the largest disk vertex's Theta to meet the total-angle
            # condition (with ``excess`` in the hyperbolic case), so
            # that condition 4 is reached more often
            k = max(cc.v1)
            t = make_angle_data(cc, g, theta, {**Theta, k: 0.0})
            total = sum(2 * math.pi - v for v in Theta_full(cc, t).values())
            Theta[k] = total - 2 * math.pi * cc.chi - (
                0.0 if g == EUCLIDEAN else excess)
        _assert_same_report(cc, make_angle_data(cc, g, theta, Theta), cap)

    @pytest.mark.parametrize("g", [EUCLIDEAN, HYPERBOLIC])
    @pytest.mark.parametrize("slack", [GRID_TOL, GRID_TOL + 1e-13,
                                       GRID_TOL - 1e-13, 1e-10, -1e-10])
    def test_threshold_band(self, g, slack):
        cc = build_complex(grid_torus_spec(3, v1=(4,)))
        t = _shifted_star_target(cc, g, slack)
        h = hat_complex(cc)
        d = make_domain(h, [("v", 4)])
        lhs, rhs = domain_inequality(cc, h, d, theta_extended(cc, t),
                                     Theta_full(cc, t), ())
        assert abs(lhs - rhs - slack) < 1e-14
        rep = _assert_same_report(cc, t)
        assert rep.method == polytope.ENUMERATION
        if abs(slack) == 1e-10:
            flagged = {"domain": [["v", 4]]} in [v[1] for v in
                                                 rep.violations]
            assert flagged == (slack < 0)


def _band_rows(cc, t):
    """The rows check_feasibility's cell weights leave near the
    threshold on the 3x3 grid, and every strict domain's row."""
    h = hat_complex(cc)
    rows, _partial = complexes.domain_generator_sets(h, True)
    theta, _star, Theta = polytope.angle_arrays(cc, t)
    slack, point_star = domain_slacks(h, rows, theta, Theta)
    return rows[~(slack > GRID_TOL + 1e-9 * (1 + np.abs(slack)))
                & ~point_star], rows


class TestDecidesTheBandOnRows:
    """check_feasibility builds no Domain and calls neither
    domain_inequality nor boundary_counts: domain_sides receives exactly
    the rows its cell weights leave near the threshold."""

    @staticmethod
    def _run(monkeypatch, cc, t):
        domain_layer = {f.__code__: f.__name__ for f in (
            complexes.Domain.__init__, complexes.make_domain,
            complexes.row_domain, complexes.boundary_counts,
            polytope.domain_inequality)}
        called, received = [], []
        sides = polytope.domain_sides

        def spy(h, rows, theta, Theta):
            received.append(rows)
            return sides(h, rows, theta, Theta)

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code in domain_layer:
                called.append(domain_layer[frame.f_code])

        monkeypatch.setattr(polytope, "domain_sides", spy)
        sys.setprofile(profile)
        try:
            rep = check_feasibility(cc, t)
        finally:
            sys.setprofile(None)
        monkeypatch.undo()
        band, _rows = _band_rows(cc, t)
        assert len(received) == 1 and np.array_equal(received[0], band)
        assert called == []
        return rep, band

    def test_feasible(self, monkeypatch, fixture_complexes):
        cc = fixture_complexes["grid-torus-v1"]
        rep, band = self._run(monkeypatch, cc,
                              reference_target(cc, EUCLIDEAN))
        assert rep.verdict == FEASIBLE
        assert rep.size["domains"] == 199131
        assert len(band) == 0

    def test_infeasible(self, monkeypatch, fixture_complexes):
        cc = fixture_complexes["grid-torus-v1"]
        t = right_angle_target(cc)  # every open star of a vertex at 0
        rep, band = self._run(monkeypatch, cc, t)
        assert rep.verdict == INFEASIBLE
        assert 0 < len(rep.violations) <= len(band) < 199131 / 100


class TestDomainSidesMatchLoop:
    """domain_sides against the loop form of the inequality
    (``oracles.domain_inequality_by_loop``, Python-int masks and reduce):
    the same lhs and rhs to the last bit."""

    @staticmethod
    def _check(cc, t, rows):
        h = hat_complex(cc)
        theta, _star, Theta = polytope.angle_arrays(cc, t)
        lhs, rhs = polytope.domain_sides(h, rows, theta, Theta)
        theta_ext, ThetaF = theta_extended(cc, t), Theta_full(cc, t)
        assert list(zip(lhs.tolist(), rhs.tolist())) == [
            oracles.domain_inequality_by_loop(
                cc, h, oracles.masked(h, complexes.row_domain(h, row)),
                theta_ext, ThetaF, ())
            for row in rows]

    @pytest.mark.parametrize("g", [EUCLIDEAN, HYPERBOLIC])
    @pytest.mark.parametrize("name", ["grid-torus", "e0-torus"])
    def test_every_strict_domain(self, fixture_complexes, name, g):
        cc = fixture_complexes[name]
        t = reference_target(cc, g)
        rows = _band_rows(cc, t)[1]
        assert len(rows) == (519 if name == "grid-torus" else 199131)
        self._check(cc, t, rows)

    def test_band_of_an_infeasible_target(self, fixture_complexes):
        cc = fixture_complexes["grid-torus-v1"]
        t = right_angle_target(cc)
        band = _band_rows(cc, t)[0]
        assert len(band)
        self._check(cc, t, band)


def test_rejects_a_cap_above_the_mask_width(grid_torus):
    # a generator set of the exhaustive enumeration is one int64 mask
    t = right_angle_target(grid_torus)
    with pytest.raises(CapExceeded, match="cap 63 exceeds 62"):
        check_feasibility(grid_torus, t, cap=complexes.MAX_CAP + 1)
    assert check_feasibility(grid_torus, t, cap=complexes.MAX_CAP).size == {
        "hat_vertices": 18, "domains": 510}


def test_report_is_the_same_under_every_hash_seed():
    # a witness's lhs is a sum over its generators, a frozenset whose
    # order follows PYTHONHASHSEED: summed in that order, the last bits
    # of lhs moved from one process to the next
    code = (
        "import math\n"
        "from hicp import build_complex, check_feasibility, make_angle_data\n"
        "from hicp.fixtures import grid_torus_spec\n"
        "from hicp.polytope import Theta_full\n"
        "cc = build_complex(grid_torus_spec(3, v1=(0, 1, 5, 7)))\n"
        "theta = {e: 1 + 0.1 * (i % 7) for i, e in enumerate(sorted(cc.e1))}\n"
        "Theta = {0: 1.0, 1: 0.8, 5: 1.0, 7: 0.0}\n"
        "t = make_angle_data(cc, 'euclidean', theta, Theta)\n"
        "Theta[7] = (sum(2 * math.pi - v for v in Theta_full(cc, t).values())\n"
        "            - 2 * math.pi * cc.chi)\n"
        "t = make_angle_data(cc, 'euclidean', theta, Theta)\n"
        "print(check_feasibility(cc, t).to_dict())\n")
    reports = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "'violations': [{" in proc.stdout
        reports.add(proc.stdout)
    assert len(reports) == 1
