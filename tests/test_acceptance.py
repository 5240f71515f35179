"""Acceptance gate: eight end-to-end checks covering reconstruction,
identifiability, convexity, the volume gradient identity, curvature
accounting, infeasibility reporting, reference fixtures, and dual
lengths."""

import json
import math
import random
import time

import numpy as np
import pytest

import oracles
from conftest import fan_diagonals, right_angle_target
from hicp import build_complex, cli, triangulate
from hicp import geometry as geo
from hicp.fixtures import FIXTURES, fixture_spec, grid_torus_spec, \
    omega_solve, omega_value, reference_pattern
from hicp.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    psi_inv_surface,
)
from hicp.layout import develop, gauss_bonnet_check
from hicp.polytope import check_feasibility, make_angle_data
from hicp.solver import (
    BOUNDARY,
    CONVERGED,
    INFEASIBLE,
    extract_angles,
    reference_coords,
    solve,
)
from scalar_kernel import (
    CORNERS_OF_EDGE,
    TriangleTags,
    check_er_triangle,
    dual_edge_length,
    psi_inv,
    triangle_angles,
)
from schlaefli import (
    _section_project,
    expand_angles,
    free_angle_indices,
    lobachevsky,
    reduce_angles,
    reference_er_triangle,
    tetra_volume,
)

BOTH = (EUCLIDEAN, HYPERBOLIC)


def sampled_er(T, g, rng):
    l0, r0 = geo.psi_surface(T, reference_coords(T, g), g)
    return cli.sample_er(T, l0, r0, g, rng)


# ---------------------------------------------------------------------------
# 1. Grid-torus reconstruction


class TestGridReconstruction:
    def test_right_angle_grid(self, grid_torus):
        T = triangulate(grid_torus)
        target = right_angle_target(grid_torus)
        t0 = time.perf_counter()
        sol = solve(T, target)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert sol.status == CONVERGED
        assert sol.iterations <= 20

        for e, v in sol.realized_angles.theta.items():
            assert abs(v - math.pi / 2) < 1e-9

        # congruent to the unit-square grid up to one global scale
        length = dict(zip(T.edges,
                          geo.psi_surface(T, sol.coords, EUCLIDEAN)[0]))
        sides = [length[e] for e in sorted(grid_torus.edges)]
        s = sides[0]
        for v in sides:
            assert abs(v - s) < 1e-9 * s
        for d in fan_diagonals(T):
            assert abs(length[d] - s * math.sqrt(2.0)) < 1e-9 * s

        sl = develop(T, sol.coords, EUCLIDEAN)
        from hicp.layout import merge_redundant
        m = merge_redundant(sl)
        for chart in oracles.chart_dict(m).values():
            _c, R = chart["circle"]
            assert abs(R - s * math.sqrt(2.0) / 2) < 1e-9 * s
            zs = [z for _vid, z in chart["verts"]]
            for t in range(4):
                assert abs(abs(zs[(t + 1) % 4] - zs[t]) - s) < 1e-9 * s
            for t in range(2):
                assert abs(abs(zs[t + 2] - zs[t])
                           - s * math.sqrt(2.0)) < 1e-9 * s


# ---------------------------------------------------------------------------
# 2. Round-trip identifiability


class TestRoundtrip:
    def test_twenty_samples_per_fixture(self, tmp_path):
        t0 = time.perf_counter()
        for name, seed in (("tri-torus", 1), ("genus2", 2)):
            out = tmp_path / f"rt-{name}.json"
            rc = cli.main(["roundtrip", "--input", f"fixture:{name}",
                           "--samples", "20", "--seed", str(seed),
                           "--output", str(out)])
            assert rc == 0
            data = json.loads(out.read_text())
            assert data["statuses"] == ["Converged"] * 20
            assert data["max_error"] < 1e-6
        assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. Convexity of the functional


class TestConvexity:
    FIXTURES3 = (("tri-torus", EUCLIDEAN), ("grid-torus", EUCLIDEAN),
                 ("genus2", HYPERBOLIC))

    def test_hessian_structure(self):
        for name, g in self.FIXTURES3:
            T = triangulate(build_complex(fixture_spec(name)))
            rng = random.Random(hash((name, g)) & 0xFFFF)
            for _ in range(10):
                x = psi_inv_surface(T, *sampled_er(T, g, rng), g)
                H = oracles.full_gradient_hessian(T, x, g)
                scale = np.max(np.abs(H))
                assert np.max(np.abs(H - H.T)) < 1e-6 * scale
                Hs = (H + H.T) / 2
                if g == EUCLIDEAN:
                    c = T.gauge
                    c = c / np.linalg.norm(c)
                    assert (np.linalg.norm(Hs @ c)
                            < 1e-6 * np.linalg.norm(Hs))
                    # eigenvalues transverse to the gauge direction
                    u, sv, _vt = np.linalg.svd(np.eye(len(c))
                                               - np.outer(c, c))
                    N = u[:, sv > 0.5]
                    w = np.linalg.eigvalsh(N.T @ Hs @ N)
                else:
                    w = np.linalg.eigvalsh(Hs)
                assert w.min() > 0


# ---------------------------------------------------------------------------
# 4. Schlaefli identity


TAG_CLASSES = (
    TriangleTags((1, 1, 1), (1, 1, 1)),
    TriangleTags((1, 1, 1), (0, 1, 1)),
    TriangleTags((0, 1, 1), (1, 1, 1)),
    TriangleTags((0, 1, 1), (1, 0, 1)),
    TriangleTags((0, 0, 1), (1, 1, 1)),
    TriangleTags((0, 0, 0), (1, 1, 1)),
    TriangleTags((1, 1, 1), (0, 0, 0)),
)


def sample_er_triangle(tags, g, rng):
    l0, r0 = reference_er_triangle(tags, g)
    while True:
        r = tuple(r0[v] * (1 + rng.uniform(-0.08, 0.08))
                  if tags.vc[v] == 1 else 0.0 for v in range(3))
        l = []
        for m in range(3):
            u, v = CORNERS_OF_EDGE[m]
            l.append(r[u] + r[v] if tags.ec[m] == 0
                     else l0[m] * (1 + rng.uniform(-0.08, 0.08)))
        er = (tuple(l), r)
        try:
            check_er_triangle(er, tags, g)
            return er
        except Exception:
            continue


class TestSchlaefli:
    def test_volume_gradient(self):
        h = 1e-5
        for tags in TAG_CLASSES:
            for g in BOTH:
                rng = random.Random(hash((tags.vc, tags.ec, g)) & 0xFFFF)
                free_a, free_b, _da, _db = free_angle_indices(tags, g)
                for _ in range(20):
                    er = sample_er_triangle(tags, g, rng)
                    ta = triangle_angles(er, tags, g)
                    tcs = _section_project(psi_inv(er, tags, g), tags, g)
                    x = reduce_angles(ta, tags, g)
                    fd = np.empty(len(x))
                    want = np.empty(len(x))
                    for i in range(len(x)):
                        xp = x.copy(); xp[i] += h
                        xm = x.copy(); xm[i] -= h
                        fd[i] = (tetra_volume(expand_angles(xp, tags, g),
                                              tags, g)
                                 - tetra_volume(expand_angles(xm, tags, g),
                                                tags, g)) / (2 * h)
                        if i < len(free_a):
                            conj = tcs[0][free_a[i]]
                        else:
                            conj = tcs[1][free_b[i - len(free_a)]]
                        want[i] = -0.5 * conj
                    # relative to the gradient scale: single conjugate
                    # lengths can legitimately pass through zero
                    err = np.max(np.abs(fd - want))
                    assert err < 1e-6 * np.max(np.abs(want))

    def test_ideal_anchor(self):
        tags = TriangleTags((0, 0, 0), (1, 1, 1))
        er = reference_er_triangle(tags, EUCLIDEAN)
        ta = triangle_angles(er, tags, EUCLIDEAN)
        vol = tetra_volume(ta, tags, EUCLIDEAN)
        assert abs(vol - 3 * lobachevsky(math.pi / 3)) < 1e-12
        assert abs(vol - 1.0149416064096537) < 1e-6


# ---------------------------------------------------------------------------
# 5. Gauss-Bonnet on converged solutions


class TestGaussBonnet:
    def test_euclidean_identity(self, grid_torus):
        T = triangulate(grid_torus)
        sol = solve(T, right_angle_target(grid_torus))
        assert sol.status == CONVERGED
        gb = gauss_bonnet_check(develop(T, sol.coords, EUCLIDEAN))
        assert abs(gb["residual"]) < 1e-9

    def test_hyperbolic_area_identity(self, genus2, e0_torus):
        for cc in (genus2, e0_torus):
            T = triangulate(cc)
            l, r = reference_pattern(T, HYPERBOLIC)
            target = extract_angles(T, psi_inv_surface(T, l, r, HYPERBOLIC),
                                    HYPERBOLIC)
            sol = solve(T, target)
            assert sol.status == CONVERGED
            gb = gauss_bonnet_check(develop(T, sol.coords, HYPERBOLIC))
            assert gb["area"] > 0
            assert abs(gb["residual"]) < 1e-8


# ---------------------------------------------------------------------------
# 6. Polytope boundary behavior


class TestPolytopeBoundary:
    def _instance(self):
        spec = grid_torus_spec(3, v1=(4,))
        cc = build_complex(spec)
        t = make_angle_data(cc, EUCLIDEAN,
                            {e: math.pi / 2 for e in cc.e1},
                            {4: 2 * math.pi})
        return spec, cc, t

    def test_validate_reports_star_witness(self, tmp_path):
        spec, cc, t = self._instance()
        rep = check_feasibility(cc, t)
        assert rep.verdict == "Infeasible"
        assert any(v[1] == {"domain": [["v", 4]]} for v in rep.violations)

        doc = {"geometry": "euclidean", "vertices": spec["vertices"],
               "faces": [list(f) for f in spec["faces"]],
               "tangent_edges": [],
               "theta": {f"{e[0]}-{e[1]}": math.pi / 2
                         for e in sorted(cc.e1)},
               "Theta": {"4": 2 * math.pi}}
        p = tmp_path / "boundary.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert cli.main(["validate", "--input", str(p),
                         "--output", str(out)]) == 2
        data = json.loads(out.read_text())
        assert any(v["witness"] == {"domain": [["v", 4]]}
                   for v in data["violations"])

    def test_solve_never_converges(self):
        _spec, cc, t = self._instance()
        sol = solve(triangulate(cc), t)
        assert sol.status in (INFEASIBLE, BOUNDARY)
        assert sol.status != CONVERGED


# ---------------------------------------------------------------------------
# 7. Reference-pattern fixtures


class TestReferenceFixtures:
    def test_omega_closed_forms(self):
        vc, ec = (1, 1, 1, 1), (0, 0, 0, 0)
        assert abs(omega_solve(vc, ec, EUCLIDEAN)
                   - math.sqrt(2.0)) < 1e-12
        x = omega_solve(vc, ec, HYPERBOLIC)
        assert abs(x - oracles.ASINH_SQRT2_10) < 1e-12
        assert abs(omega_value(vc, ec, HYPERBOLIC, x) - 2 * math.pi) < 1e-12

    DEMOS = (("grid-torus", "euclidean"), ("grid-torus-v1", "hyperbolic"),
             ("tri-torus", "euclidean"),
             ("tri-torus-v1", "hyperbolic"), ("genus2", "hyperbolic"),
             ("genus2-mixed", "hyperbolic"), ("dodecahedron", "hyperbolic"),
             ("e0-torus", "hyperbolic"))

    def test_demo_patterns_are_delaunay(self, tmp_path):
        assert {name for name, _g in self.DEMOS} == set(FIXTURES)
        for name, g in self.DEMOS:
            out = tmp_path / f"{name}.json"
            rc = cli.main(["demo", "--input", f"fixture:{name}",
                           "--geometry", g, "--output", str(out)])
            assert rc == 0
            data = json.loads(out.read_text())
            assert all(r["is_delaunay"] for r in data["delaunay"].values())


# ---------------------------------------------------------------------------
# 8. Dual length and intersection-angle checks


class TestDualChecks:
    def test_dual_length_endpoints(self):
        rng = random.Random(9)
        for g in BOTH:
            for _ in range(50):
                R = rng.uniform(0.05, 2.0)
                Rp = rng.uniform(0.05, 2.0)
                assert abs(dual_edge_length(R, Rp, 0.0, g)
                           - (R + Rp)) < 1e-12
                assert abs(dual_edge_length(R, R, math.pi, g)) < 1e-12

    def test_circle_angle_matches_alpha_sums(self):
        combos = (("tri-torus", EUCLIDEAN), ("tri-torus", HYPERBOLIC),
                  ("genus2", EUCLIDEAN), ("genus2", HYPERBOLIC))
        rng = random.Random(17)
        checked = 0
        while checked < 1000:
            for name, g in combos:
                T = triangulate(build_complex(fixture_spec(name)))
                er = oracles.er_dicts(T, *sampled_er(T, g, rng))
                alpha_sum = {e: 0.0 for e in T.edges}
                for tri in oracles.triangles(T):
                    tags = oracles.triangle_tags(T, tri)
                    ta = triangle_angles(oracles.tri_er(T, er, tri), tags, g)
                    i, j, k = tri.verts
                    for m, (u, v) in enumerate(((i, j), (j, k), (k, i))):
                        alpha_sum[tuple(sorted((u, v)))] += ta.alpha[m]
                for e in sorted(T.edges):
                    if not alpha_sum[e] < math.pi - 1e-6:
                        continue  # circles do not properly intersect
                    th = oracles.local_pair_theta(T, er, e, g)
                    assert abs(th - alpha_sum[e]) < 1e-9
                    checked += 1
        assert checked >= 1000
