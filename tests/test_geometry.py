import functools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import scalar_kernel as sk
from conftest import tetrahedron_spec
from hicp import build_complex, cli, triangulate
from hicp import geometry as geo
from hicp.fixtures import (
    FIXTURES,
    fixture_spec,
    reference_pattern,
)
from hicp.solver import reference_coords
from hicp.errors import DomainError, HicpError, InvariantViolation, NotInTE
from hicp.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    in_te,
    project_gauge,
)
from scalar_kernel import (
    CORNERS_OF_EDGE,
    EDGES_AT_CORNER,
    TriangleTags,
    check_er_triangle,
    dual_edge_length,
    edge_length,
    face_circle,
    psi,
    psi_inv,
    tetra_angles,
    triangle_angles,
    vertex_dual_length,
    vertex_radius,
)
from schlaefli import (
    _section_project,
    angles_valid,
    lobachevsky,
    phi_inv,
    reference_angles,
    reference_er_triangle,
    tetra_volume,
)

BOTH = (EUCLIDEAN, HYPERBOLIC)

# one representative per combinatorial class that can occur in a
# triangulated pattern (tangency edges need two positive endpoints)
TAG_CLASSES = (
    TriangleTags((1, 1, 1), (1, 1, 1)),
    TriangleTags((1, 1, 1), (0, 1, 1)),
    TriangleTags((0, 1, 1), (1, 1, 1)),
    TriangleTags((0, 1, 1), (1, 0, 1)),
    TriangleTags((0, 0, 1), (1, 1, 1)),
    TriangleTags((0, 0, 0), (1, 1, 1)),
    TriangleTags((1, 1, 1), (0, 0, 0)),
)


def perturbed_er(tags, g, deltas):
    """Reference edge-radius point of the class, nudged by relative
    amounts deltas[0:3] on radii and deltas[3:6] on free lengths."""
    l0, r0 = reference_er_triangle(tags, g)
    r = tuple(r0[v] * (1 + deltas[v]) if tags.vc[v] == 1 else 0.0
              for v in range(3))
    l = []
    for m in range(3):
        u, v = CORNERS_OF_EDGE[m]
        if tags.ec[m] == 0:
            l.append(r[u] + r[v])
        else:
            l.append(l0[m] * (1 + deltas[3 + m]))
    return tuple(l), r


deltas_st = st.lists(st.floats(-0.08, 0.08, allow_nan=False),
                     min_size=6, max_size=6)


# ---------------------------------------------------------------------------
# Psi and its inverse


class TestPsi:
    @settings(max_examples=80, deadline=None)
    @given(tags=st.sampled_from(TAG_CLASSES), g=st.sampled_from(BOTH),
           deltas=deltas_st)
    def test_psi_inv_roundtrip(self, tags, g, deltas):
        er = perturbed_er(tags, g, deltas)
        try:
            tc = psi_inv(er, tags, g)
        except (InvariantViolation, DomainError):
            assume(False)
        l3, r3 = psi(tc, tags, g)
        assert l3 == pytest.approx(er[0], rel=1e-12, abs=1e-12)
        assert r3 == pytest.approx(er[1], rel=1e-12, abs=1e-12)

    def test_reference_points_are_admissible(self):
        for tags in TAG_CLASSES:
            for g in BOTH:
                er = reference_er_triangle(tags, g)
                check_er_triangle(er, tags, g)
                ta = triangle_angles(er, tags, g)
                assert angles_valid(ta, tags, g)

    def test_hyperbolic_lengths_match_oracle(self):
        for a, bu, bv in ((0.3, 0.8, 1.1), (-0.2, 0.5, 0.5),
                          (1.0, 1.4, 0.7)):
            l = edge_length(HYPERBOLIC, 1, 1, 1, a, bu, bv)
            assert l == pytest.approx(oracles.hyp_v1v1_length(a, bu, bv),
                                      rel=1e-14)
            l = edge_length(HYPERBOLIC, 1, 0, 1, a, bu, bv)
            assert l == pytest.approx(oracles.hyp_v0v1_length(a, bv),
                                      rel=1e-14)
            l = edge_length(HYPERBOLIC, 1, 0, 0, a, bu, bv)
            assert l == pytest.approx(oracles.hyp_v0v0_length(a), rel=1e-14)
            assert vertex_radius(HYPERBOLIC, 1, bu) == pytest.approx(
                oracles.hyp_radius(bu), rel=1e-14)

    def test_short_hyperbolic_lengths_keep_their_digits(self):
        # l = acosh(x) near x = 1 multiplies the rounding of x by about
        # 1 / (l tanh l), up to 1e-12 relative on these samples; the asinh
        # form keeps both kernels within a few ulp of mpmath
        rng = random.Random(8)
        n = 400
        dd = [(rng.uniform(-3, 3), rng.uniform(0.2, 6), rng.uniform(0.2, 6))
              for _ in range(n)]
        mixed = [(rng.uniform(-6, 0), rng.uniform(0.2, 6)) for _ in range(n)]
        want = ([oracles.hyp_v1v1_length(*p) for p in dd]
                + [oracles.hyp_v0v1_length(*p) for p in mixed])
        scalar = ([edge_length(HYPERBOLIC, 1, 1, 1, *p) for p in dd]
                  + [edge_length(HYPERBOLIC, 1, 0, 1, a, 0.0, b)
                     for a, b in mixed])
        x = np.array([[a, a, a, bu, bv, bv] for a, bu, bv in dd]
                     + [[a, a, a, 0.0, b, b] for a, b in mixed])
        vc = np.array([[1, 1, 1]] * n + [[0, 1, 1]] * n)
        l, _r, _fails = geo.psi_rows(
            x, geo.row_classes(vc, np.ones_like(vc)), HYPERBOLIC)
        assert scalar == pytest.approx(want, rel=2e-15, abs=0)
        assert list(l[:, 0]) == pytest.approx(want, rel=2e-15, abs=0)

    def test_point_vertex_radius_is_zero(self):
        assert vertex_radius(EUCLIDEAN, 0, 123.0) == 0.0
        assert vertex_radius(HYPERBOLIC, 0, 123.0) == 0.0

    def test_hyperbolic_b_must_be_positive(self):
        with pytest.raises(DomainError):
            vertex_radius(HYPERBOLIC, 1, -0.5)


class TestCheckErTriangle:
    tags = TriangleTags((1, 1, 1), (1, 1, 1))

    def test_triangle_inequality(self):
        with pytest.raises(InvariantViolation):
            check_er_triangle(((5.0, 1.0, 1.0), (0.4, 0.4, 0.4)),
                              self.tags, EUCLIDEAN)

    def test_nonpositive_length(self):
        with pytest.raises(InvariantViolation):
            check_er_triangle(((0.0, 1.0, 1.0), (0.1, 0.1, 0.1)),
                              self.tags, EUCLIDEAN)

    def test_overlapping_circles(self):
        # free edge must keep its endpoint circles disjoint
        with pytest.raises(InvariantViolation):
            check_er_triangle(((2.0, 2.5, 2.5), (1.2, 1.2, 1.2)),
                              self.tags, EUCLIDEAN)

    def test_tangency_length_pinned(self):
        tags = TriangleTags((1, 1, 1), (0, 1, 1))
        with pytest.raises(InvariantViolation):
            check_er_triangle(((2.1, 2.5, 2.5), (1.0, 1.0, 1.0)),
                              tags, EUCLIDEAN)

    def test_radius_class_consistency(self):
        with pytest.raises(InvariantViolation):
            check_er_triangle(((2.5, 2.5, 2.5), (1.0, 1.0, 0.0)),
                              self.tags, EUCLIDEAN)
        with pytest.raises(InvariantViolation):
            check_er_triangle(((2.5, 2.5, 2.5), (1.0, 1.0, 0.3)),
                              TriangleTags((1, 1, 0), (1, 1, 1)), EUCLIDEAN)


# ---------------------------------------------------------------------------
# Face circles and decorated angles


class TestFaceCircle:
    def test_equilateral_pinned(self):
        er = ((2.5, 2.5, 2.5), (1.0, 1.0, 1.0))
        tags = TriangleTags((1, 1, 1), (1, 1, 1))
        fc = face_circle(er, EUCLIDEAN)
        assert fc.R == pytest.approx(oracles.EQUILATERAL_25_R, abs=1e-12)
        ta = triangle_angles(er, tags, EUCLIDEAN)
        for m in range(3):
            assert ta.alpha[m] == pytest.approx(
                oracles.EQUILATERAL_25_ALPHA, abs=1e-9)

    def test_tangent_equilateral_pinned(self):
        er = ((2.0, 2.0, 2.0), (1.0, 1.0, 1.0))
        tags = TriangleTags((1, 1, 1), (0, 0, 0))
        fc = face_circle(er, EUCLIDEAN)
        assert fc.R == pytest.approx(oracles.TANGENT_EQUILATERAL_R, abs=1e-12)
        ta = triangle_angles(er, tags, EUCLIDEAN)
        assert ta.alpha == (0.0, 0.0, 0.0)
        for b in ta.beta:
            assert b == pytest.approx(math.pi / 3, abs=1e-12)

    def test_against_orthocircle_oracle(self):
        er = ((2.2, 2.7, 3.0), (0.9, 0.6, 1.1))
        fc = face_circle(er, EUCLIDEAN)
        pts = oracles.place_euclidean(er[0])
        _o, R = oracles.eucl_orthocircle(pts, er[1])
        assert fc.R == pytest.approx(R, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(tags=st.sampled_from(TAG_CLASSES), g=st.sampled_from(BOTH),
           deltas=deltas_st)
    def test_orthogonality_distances(self, tags, g, deltas):
        # center-to-vertex distance equals the orthogonality relation
        # between the face circle and each vertex circle
        er = perturbed_er(tags, g, deltas)
        try:
            check_er_triangle(er, tags, g)
        except (InvariantViolation, DomainError):
            assume(False)
        fc = face_circle(er, g)
        for v in range(3):
            assert fc.dist[v] == pytest.approx(
                vertex_dual_length(fc.R, er[1][v], g), abs=1e-9)


class TestTriangleAngles:
    @settings(max_examples=50, deadline=None)
    @given(tags=st.sampled_from(TAG_CLASSES), g=st.sampled_from(BOTH),
           deltas=deltas_st)
    def test_angle_identities(self, tags, g, deltas):
        er = perturbed_er(tags, g, deltas)
        try:
            check_er_triangle(er, tags, g)
        except (InvariantViolation, DomainError):
            assume(False)
        ta = triangle_angles(er, tags, g)
        sb = sum(ta.beta)
        if g == EUCLIDEAN:
            assert sb == pytest.approx(math.pi, abs=1e-12)
        else:
            assert sb < math.pi
        for v in range(3):
            m1, m2 = EDGES_AT_CORNER[v]
            s = ta.beta[v] + ta.alpha[m1] + ta.alpha[m2]
            if tags.vc[v] == 0:
                assert s == pytest.approx(math.pi, abs=1e-9)
            else:
                assert s < math.pi
        for m in range(3):
            if tags.ec[m] == 0:
                assert ta.alpha[m] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(tags=st.sampled_from(TAG_CLASSES), deltas=deltas_st)
    def test_hyperbolic_alpha_matches_disk_oracle(self, tags, deltas):
        er = perturbed_er(tags, HYPERBOLIC, deltas)
        try:
            ta = triangle_angles(er, tags, HYPERBOLIC)
        except (InvariantViolation, DomainError):
            assume(False)
        for m in range(3):
            if tags.ec[m] != 0:
                assert ta.alpha[m] == pytest.approx(
                    oracles.hyp_alpha_disk(*er, m), abs=1e-9)

    def test_angles_valid_rejects_out_of_range(self):
        tags = TriangleTags((1, 1, 1), (1, 1, 1))
        ta = reference_angles(tags, EUCLIDEAN)
        bad = ta.__class__(alpha=(-0.1,) + ta.alpha[1:], beta=ta.beta)
        assert not angles_valid(bad, tags, EUCLIDEAN)


# ---------------------------------------------------------------------------
# Dual lengths


class TestDualLengths:
    def test_endpoints(self):
        for g in BOTH:
            for R, Rp in ((0.3, 0.8), (1.1, 0.05), (0.6, 0.6)):
                assert dual_edge_length(R, Rp, 0.0, g) == pytest.approx(
                    R + Rp, abs=1e-12)
            for R in (0.4, 1.3):
                assert dual_edge_length(R, R, math.pi, g) == pytest.approx(
                    0.0, abs=1e-12)

    def test_hyperbolic_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            R, Rp = rng.uniform(0.05, 1.5, 2)
            th = rng.uniform(0.0, math.pi)
            # the oracle carries the complementary-angle form
            assert dual_edge_length(R, Rp, th, HYPERBOLIC) == pytest.approx(
                oracles.hyp_dual_length(R, Rp, math.pi - th), rel=1e-12)
            assert dual_edge_length(R, Rp, th, EUCLIDEAN) == pytest.approx(
                oracles.eucl_dual_length(R, Rp, th), rel=1e-12)

    def test_vertex_dual_length(self):
        assert vertex_dual_length(3.0, 4.0, EUCLIDEAN) == pytest.approx(5.0)
        assert vertex_dual_length(0.7, 0.0, HYPERBOLIC) == pytest.approx(0.7)
        assert vertex_dual_length(0.5, 0.0, EUCLIDEAN) == 0.5


# ---------------------------------------------------------------------------
# Lobachevsky function and volumes


class TestLobachevsky:
    def test_against_clausen(self):
        for t in np.linspace(-3.0, 3.0, 61):
            assert lobachevsky(t) == pytest.approx(
                oracles.mp_lobachevsky(t), abs=1e-14)

    def test_odd_and_periodic(self):
        for t in (0.1, 0.7, 1.3):
            assert lobachevsky(-t) == pytest.approx(-lobachevsky(t),
                                                    abs=1e-15)
            assert lobachevsky(t + math.pi) == pytest.approx(
                lobachevsky(t), abs=1e-14)

    def test_zeros(self):
        assert lobachevsky(0.0) == 0.0
        assert lobachevsky(math.pi / 2) == pytest.approx(0.0, abs=1e-15)


class TestTetraVolume:
    def test_reference_is_zero(self):
        for tags in TAG_CLASSES:
            for g in BOTH:
                if g == EUCLIDEAN and all(c == 0 for c in tags.vc):
                    continue
                v = tetra_volume(reference_angles(tags, g), tags, g)
                assert v == pytest.approx(0.0, abs=1e-13)

    def test_regular_ideal_anchor(self):
        tags = TriangleTags((0, 0, 0), (1, 1, 1))
        er = reference_er_triangle(tags, EUCLIDEAN)
        ta = triangle_angles(er, tags, EUCLIDEAN)
        # reference of this class is equilateral, hence regular ideal
        assert tetra_volume(ta, tags, EUCLIDEAN) == pytest.approx(
            oracles.REGULAR_IDEAL_VOLUME, abs=1e-12)

    def test_generic_ideal_matches_lobachevsky_sum(self):
        tags = TriangleTags((0, 0, 0), (1, 1, 1))
        er = ((2.0, 2.5, 3.0), (0.0, 0.0, 0.0))
        ta = triangle_angles(er, tags, EUCLIDEAN)
        vol = tetra_volume(ta, tags, EUCLIDEAN)
        assert vol == pytest.approx(oracles.ideal_volume(ta.alpha), abs=1e-9)


# ---------------------------------------------------------------------------
# Angle chart inversion


class TestPhiInv:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for tags in TAG_CLASSES:
            for g in BOTH:
                for _ in range(3):
                    deltas = rng.uniform(-0.06, 0.06, 6)
                    er = perturbed_er(tags, g, deltas)
                    try:
                        tc = psi_inv(er, tags, g)
                    except (InvariantViolation, DomainError):
                        continue
                    ta = triangle_angles(er, tags, g)
                    a3, b3 = phi_inv(ta, tags, g)
                    pa, pb = _section_project(tc, tags, g)
                    for m in range(3):
                        if tags.ec[m] != 0:
                            assert a3[m] == pytest.approx(pa[m], abs=1e-9)
                    for v in range(3):
                        if tags.vc[v] == 1:
                            assert b3[v] == pytest.approx(pb[v], abs=1e-9)


def test_tetra_angles_checks_the_triangle_once(monkeypatch):
    calls = []
    check = sk.check_er_triangle

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(sk, "check_er_triangle", counting)
    tags = TriangleTags(vc=(1, 1, 1), ec=(1, 1, 1))
    for g in (EUCLIDEAN, HYPERBOLIC):
        calls.clear()
        tetra_angles(((0.3, 0.3, 0.3), (0.5, 0.5, 0.5)), tags, g)
        assert len(calls) == 1, g


def test_hyperbolic_tetra_angles_solves_the_face_circle_once(monkeypatch):
    calls = []
    solve = sk.radical_center

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sk, "radical_center", counting)
    tags = TriangleTags(vc=(1, 1, 1), ec=(1, 1, 1))
    tetra_angles(((0.3, 0.3, 0.3), (0.5, 0.5, 0.5)), tags, HYPERBOLIC)
    assert len(calls) == 1


@pytest.mark.parametrize("g", BOTH)
def test_tetra_angles_overflow_is_not_in_te(g):
    # exp(a / 2) overflows: outside the domain, not an arithmetic crash
    tags = TriangleTags(vc=(0, 0, 0), ec=(1, 1, 1))
    with pytest.raises(NotInTE):
        tetra_angles(((2000.0, 0.0, 0.0), (0.0, 0.0, 0.0)), tags, g)


# ---------------------------------------------------------------------------
# Batched kernel and its one-row forms against the scalar tetra_angles


def _perturbed_coords(tags, g, deltas, kind, pick, size):
    """A point of TE near the reference point of the class, then moved by
    kind: "overflow" sets a free a to 2000, "b" a disk b to -size, "fold"
    a disk-disk a to -size, "long" adds 4 size to a free a (breaking the
    triangle inequality for the larger sizes)."""
    try:
        a3, b3 = (list(t) for t in psi_inv(perturbed_er(tags, g, deltas),
                                           tags, g))
    except (InvariantViolation, DomainError):
        assume(False)
    free = [m for m in range(3) if tags.ec[m] != 0]
    disks = [v for v in range(3) if tags.vc[v] == 1]
    folds = [m for m in free if all(tags.vc[v] for v in CORNERS_OF_EDGE[m])]
    if kind == "overflow" and free:
        a3[free[pick % len(free)]] = 2000.0
    elif kind == "b" and disks:
        b3[disks[pick % len(disks)]] = -size
    elif kind == "fold" and folds:
        a3[folds[pick % len(folds)]] = -size
    elif kind == "long" and free:
        a3[free[pick % len(free)]] += 4 * size
    return tuple(a3), tuple(b3)


kernel_row_st = st.tuples(
    st.sampled_from(TAG_CLASSES), deltas_st,
    st.sampled_from(("none", "overflow", "b", "fold", "long")),
    st.integers(0, 2), st.floats(0.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(g=st.sampled_from(BOTH),
       rows=st.lists(kernel_row_st, min_size=1, max_size=4))
def test_batched_kernel_matches_scalar(g, rows):
    tcs, tags = [], []
    for tg, deltas, kind, pick, size in rows:
        tcs.append(_perturbed_coords(tg, g, deltas, kind, pick, size))
        tags.append(tg)
    x = np.array([list(a3) + list(b3) for a3, b3 in tcs])
    vc = np.array([t.vc for t in tags])
    ec = np.array([t.ec for t in tags])
    ref = []
    for tc, tg in zip(tcs, tags):
        try:
            tetra_angles(tc, tg, g)
        except NotInTE:
            ref.append(None)
        else:
            ref.append(sk.decorate(psi(tc, tg, g), tg, g))
    first = next((i for i, r in enumerate(ref) if r is None), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing reaches stderr
        for tc, tg, want in zip(tcs, tags, ref):
            _assert_one_row_forms_match(tc, tg, g, want)
        if first is not None:
            with pytest.raises(NotInTE, match=f"^triangle {first}: "):
                geo.decorated_triangles(x, geo.row_classes(vc, ec), g)
            return
        dt = geo.decorated_triangles(x, geo.row_classes(vc, ec), g)
    for i, (zs, (center, R), ta) in enumerate(ref):
        tol = dict(rel=1e-12, abs=1e-12)
        assert tuple(dt.alpha[i]) == pytest.approx(ta.alpha, **tol)
        assert tuple(dt.beta[i]) == pytest.approx(ta.beta, **tol)
        assert tuple(dt.z[i]) == pytest.approx(zs, **tol)
        assert dt.center[i] == pytest.approx(center, **tol)
        assert dt.R[i] == pytest.approx(R, **tol)


def _assert_one_row_forms_match(tc, tags, g, want):
    """The package's tetra_angles raises NotInTE exactly where the scalar
    one does (want is None), and its triangle_angles raises exactly where
    the scalar one does on psi(tc), wherever psi is defined.  Both agree
    with the scalar angles where tc is in TE.  (Off TE they need not: on
    a fold row with a = 0, psi gives l = r_u + r_v, where alpha =
    acos(c) with c within an ulp of 1, and an ulp of c moves alpha by
    1.5e-8.)"""
    try:
        er = psi(tc, tags, g)
        triangle_angles(er, tags, g)
    except DomainError:
        er = None
    except InvariantViolation:
        with pytest.raises(InvariantViolation):
            geo.triangle_angles(er, tags, g)
        er = None
    if want is None:
        with pytest.raises(NotInTE):
            geo.tetra_angles(tc, tags, g)
        if er is not None:
            geo.triangle_angles(er, tags, g)
        return
    tol = dict(rel=1e-12, abs=1e-12)
    for ta in (geo.tetra_angles(tc, tags, g),
               geo.triangle_angles(er, tags, g)):
        assert ta.alpha == pytest.approx(want[2].alpha, **tol)
        assert ta.beta == pytest.approx(want[2].beta, **tol)


# ---------------------------------------------------------------------------
# Every failure of the kernel, by its full message and its precedence

# the conditions of decorated_triangles, in the order it checks them
KERNEL_MESSAGES = (
    "a not positive on an edge between two disks",
    "hyperbolic b not positive",
    "coordinates out of range",
    "radius not positive",
    "point circle with nonzero radius",
    "length not positive",
    "tangency edge with l != r_u + r_v",
    "l <= r_u + r_v",
    "triangle inequality fails",
    "degenerate corner angle",
    "vertex-circle centers are collinear",
    "no real orthogonal circle",
    "face circle leaves the hyperbolic plane",
    "angles not finite",
)
DISKS = FREE = (1, 1, 1)
POINTS = TANGENT = (0, 0, 0)
MIXED = (0, 1, 1)  # corner i a point circle

# (geometry, corner classes, edge classes, x, message): a row that fails
# the condition and no condition checked before it
KERNEL_FAILURES = [
    (EUCLIDEAN, DISKS, FREE, [-0.5, 1, 1, 0, 0, 0], KERNEL_MESSAGES[0]),
    # l = e^1000 overflows
    (EUCLIDEAN, POINTS, FREE, [2000, 1, 1, 0, 0, 0], KERNEL_MESSAGES[2]),
    # r = e^-1000 underflows to 0
    (EUCLIDEAN, DISKS, FREE, [1, 1, 1, 1000, 0, 0], KERNEL_MESSAGES[3]),
    # l = e^-1000 underflows to 0
    (EUCLIDEAN, POINTS, FREE, [-2000, 1, 1, 0, 0, 0],
     KERNEL_MESSAGES[5]),
    # cosh 1e-10 rounds to 1, so l_ij = 2 = r_i + r_j
    (EUCLIDEAN, DISKS, FREE, [1e-10, 1, 1, 0, 0, 0], KERNEL_MESSAGES[7]),
    (EUCLIDEAN, POINTS, FREE, [10, 0, 0, 0, 0, 0], KERNEL_MESSAGES[8]),
    # two sides e^20 and one of 1: the cosine at i rounds to 1
    (EUCLIDEAN, POINTS, FREE, [40, 0, 40, 0, 0, 0], KERNEL_MESSAGES[9]),
    # r_k = 2e-16 beside r_i = 1: the radical center's power rounds to 0
    (EUCLIDEAN, DISKS, TANGENT, [0, 0, 0, 0, 2.691913789270872, 36.84],
     KERNEL_MESSAGES[11]),
    # sides near e^355: the face circle's center overflows
    (EUCLIDEAN, MIXED, FREE, [709, 709, 710, 0, 0.5, 1.5],
     KERNEL_MESSAGES[13]),
    (HYPERBOLIC, DISKS, FREE, [-0.5, 1, 1, 1, 1, 1], KERNEL_MESSAGES[0]),
    (HYPERBOLIC, DISKS, FREE, [1, 1, 1, -0.5, 1, 1], KERNEL_MESSAGES[1]),
    # sinh b overflows, so r is inf
    (HYPERBOLIC, DISKS, FREE, [1, 1, 1, 1000, 1, 1], KERNEL_MESSAGES[2]),
    (HYPERBOLIC, POINTS, FREE, [-2000, 1, 1, 0, 0, 0],
     KERNEL_MESSAGES[5]),
    # e^a underflows: edge ij is tangent to the circle at j, and l_ij
    # rounds to at most r_j
    (HYPERBOLIC, MIXED, FREE, [-2000, 1, 1, 0, 2, 1],
     KERNEL_MESSAGES[7]),
    (HYPERBOLIC, POINTS, FREE, [10, 0, 0, 0, 0, 0], KERNEL_MESSAGES[8]),
    (HYPERBOLIC, POINTS, FREE, [80, 0, 80, 0, 0, 0], KERNEL_MESSAGES[9]),
    (HYPERBOLIC, DISKS, TANGENT, [0, 0, 0, 2e-8, 0.31, 1.76],
     KERNEL_MESSAGES[11]),
    # a triangle with no circumcircle, only a hypercycle
    (HYPERBOLIC, POINTS, FREE, [0, 2, 0, 0, 0, 0], KERNEL_MESSAGES[12]),
]

# (geometry, condition, corner classes, edge classes, x, message): the
# conditions no row reaches first from coordinates, each with a row that
# comes close and the earlier condition that catches it
KERNEL_CAUGHT_EARLIER = [
    # r = asinh(1 / sinh b) > 0 wherever 0 < sinh b < inf; b <= 0 fails
    # "hyperbolic b not positive", and where sinh b overflows r is inf
    (HYPERBOLIC, KERNEL_MESSAGES[3], DISKS, FREE,
     [1, 1, 1, 1000, 1, 1], KERNEL_MESSAGES[2]),
    # i is placed at 0 and j on the positive real axis, so the
    # determinant is (2 Re p_j)(2 Im p_k): it is 0 only where sin beta_i
    # is 0 or the product of the sides at i underflows, and there the
    # cosine of beta_i, which divides by the same product, is +-1 or NaN
    (EUCLIDEAN, KERNEL_MESSAGES[10], POINTS, FREE,
     [-750, -750, -750, 0, 0, 0], KERNEL_MESSAGES[9]),
    (HYPERBOLIC, KERNEL_MESSAGES[10], POINTS, FREE,
     [-750, -750, -750, 0, 0, 0], KERNEL_MESSAGES[9]),
    # no crafted or random row reached it first; a side long enough that
    # tanh(l / 2) rounds to 1 puts j on the unit circle, and the corner
    # angle check catches it
    (HYPERBOLIC, KERNEL_MESSAGES[13], POINTS, FREE,
     [80, 40, 40, 0, 0, 0], KERNEL_MESSAGES[9]),
]

# (corner classes, edge classes, l, r, message): the conditions psi
# always meets (r = 0 on a point circle, l = r_u + r_v on a tangency
# edge), reached from lengths and radii
ER_ONLY_FAILURES = [
    (MIXED, FREE, (2.5, 3, 3), (0.1, 1, 1), KERNEL_MESSAGES[4]),
    (DISKS, MIXED, (2.5, 3, 3), (1, 1, 1), KERNEL_MESSAGES[6]),
]


def _failure_batch(g, vc, ec, x, k):
    """A 3-row batch with the given row at position k and a row inside
    TE elsewhere."""
    good = [1, 1, 1, 0, 0, 0] if g == EUCLIDEAN else [1, 1, 1, 1, 1, 1]
    rows = [(DISKS, FREE, good)] * 3
    rows[k] = (vc, ec, x)
    return (np.array([x for _vc, _ec, x in rows], float),
            np.array([vc for vc, _ec, _x in rows]),
            np.array([ec for _vc, ec, _x in rows]))


@pytest.mark.parametrize("case", [
    (*row[:4], row[4], 1 + i % 2) for i, row in enumerate(KERNEL_FAILURES)
] + [
    (g, vc, ec, x, msg, 1 + i % 2)
    for i, (g, _cond, vc, ec, x, msg) in enumerate(KERNEL_CAUGHT_EARLIER)
], ids=lambda case: f"{case[0]}-{case[4]}-at-{case[5]}")
def test_kernel_failure_message(case):
    g, vc, ec, x, msg, k = case
    x, vc, ec = _failure_batch(g, vc, ec, x, k)
    with pytest.raises(NotInTE) as info:
        geo.decorated_triangles(x, geo.row_classes(vc, ec), g)
    assert str(info.value) == f"triangle {k}: {msg}"


@pytest.mark.parametrize("g", BOTH)
@pytest.mark.parametrize("case", ER_ONLY_FAILURES, ids=lambda c: c[4])
def test_er_only_failure_message(case, g):
    vc, ec, l, r, msg = case
    with pytest.raises(InvariantViolation) as info:
        geo.triangle_angles((l, r), TriangleTags(vc, ec), g)
    assert str(info.value) == f"triangle 0: {msg}"


def test_kernel_failure_tables_cover_every_condition():
    for g in BOTH:
        reached = {row[4] for row in KERNEL_FAILURES if row[0] == g}
        caught = {row[1] for row in KERNEL_CAUGHT_EARLIER if row[0] == g}
        lr_only = {row[4] for row in ER_ONLY_FAILURES}
        hyperbolic_only = {KERNEL_MESSAGES[1], KERNEL_MESSAGES[12]}
        want = set(KERNEL_MESSAGES) - (
            hyperbolic_only if g == EUCLIDEAN else set())
        assert not reached & caught and not (reached | caught) & lr_only
        assert reached | caught | lr_only == want, g


# ---------------------------------------------------------------------------
# Surface-level psi and (l, r) checks against the scalar psi and
# check_er_triangle, triangle by triangle


@functools.lru_cache(maxsize=None)
def _triangulated(name):
    return triangulate(build_complex(fixture_spec(name)))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(FIXTURES)), g=st.sampled_from(BOTH),
       seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(("none", "fold", "overflow", "b")),
       size=st.floats(0.0, 3.0))
def test_psi_surface_matches_scalar(name, g, seed, kind, size):
    # coordinates near the reference point, then a free a moved to the
    # fold (psi stays total in a) or to 2000, or a disk b to -size
    T = _triangulated(name)
    a, b = oracles.unpack(T, reference_coords(T, g))
    rng = random.Random(seed)
    a = {e: v + rng.uniform(-0.3, 0.3) for e, v in a.items()}
    b = {k: v + rng.uniform(-0.3, 0.3) for k, v in b.items()}
    if kind in ("fold", "overflow"):
        a[rng.choice(sorted(a))] = -size if kind == "fold" else 2000.0
    elif kind == "b" and b:
        b[rng.choice(sorted(b))] = -size
    x = oracles.pack(T, a, b)
    ref = []
    for tri in oracles.triangles(T):
        try:
            ref.append(psi(oracles.tri_coords(T, (a, b), tri),
                           oracles.triangle_tags(T, tri), g))
        except DomainError:
            with pytest.raises(DomainError):
                geo.psi_surface(T, x, g)
            return
    er = oracles.er_dicts(T, *geo.psi_surface(T, x, g))
    for tri, (l3, r3) in zip(oracles.triangles(T), ref):
        got_l, got_r = oracles.tri_er(T, er, tri)
        assert got_l == pytest.approx(l3, rel=1e-14, abs=0)
        assert got_r == pytest.approx(r3, rel=1e-14, abs=0)


def test_psi_surface_raises_where_sinh_b_overflows():
    # a disk all of whose edges are tangency edges: psi raises where
    # sinh b overflows, and 1 / sinh b alone would read r = 0 there
    spec = tetrahedron_spec()
    spec["tangent_edges"] = [[u, v] for u in range(4) for v in range(u)]
    T = triangulate(build_complex(spec))
    tc = ({}, {0: 800.0, 1: 3.0, 2: 3.0, 3: 3.0})
    tri = oracles.triangles(T)[0]
    with pytest.raises(DomainError):
        psi(oracles.tri_coords(T, tc, tri), oracles.triangle_tags(T, tri),
            HYPERBOLIC)
    with pytest.raises(DomainError):
        geo.psi_surface(T, oracles.pack(T, *tc), HYPERBOLIC)


@functools.lru_cache(maxsize=None)
def _reference_pattern(name, g):
    T = triangulate(build_complex(fixture_spec(name)))
    return (T, *reference_pattern(T, g))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(FIXTURES)), g=st.sampled_from(BOTH),
       seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.0, 0.3),
       size=st.one_of(st.none(), st.floats(0.0, 3.0)))
def test_psi_inv_surface_matches_scalar(name, g, seed, frac, size):
    # (l, r) sampled around the reference pattern, then (size given) a
    # disk radius set to -size: inverted at once and edge by edge
    T, l0, r0 = _reference_pattern(name, g)
    rng = random.Random(seed)
    l, r = cli.sample_er(T, l0, r0, g, rng, frac)
    if size is not None and T.base.v1:
        r[T.base.vertices.index(rng.choice(sorted(T.base.v1)))] = -size
    er = oracles.er_dicts(T, l, r)
    try:
        want = oracles.psi_inv_surface_by_loop(T, er, g)
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation, match=f"^{exc}$"):
            geo.psi_inv_surface(T, l, r, g)
        return
    got_a, got_b = oracles.unpack(T, geo.psi_inv_surface(T, l, r, g))
    want_a, want_b = want
    assert list(got_a) == list(want_a) and list(got_b) == list(want_b)
    assert list(got_b.values()) == pytest.approx(list(want_b.values()),
                                                 rel=1e-14, abs=0)
    eps = np.finfo(float).eps
    for e, a in want_a.items():
        spread = 0.0 if g == EUCLIDEAN else _inv_edge_spread(T, er, want, e)
        assert abs(got_a[e] - a) <= 1e-14 * max(1.0, abs(a)) + 4 * eps * spread


def _inv_edge_spread(T, er, tc, e):
    """How far rounding alone moves the hyperbolic a of inv_edge on edge
    e: it takes acosh (two disks) or log (one disk) of x = t1 - t2, and
    an error of eps (|t1| + |t2|) in x moves a by that over dx/da,
    sinh a or e^a."""
    ends = [k for k in e if k in T.base.v1]
    ch, a = math.cosh(er[0][e]), tc[0][e]
    if len(ends) == 2:
        bu, bv = (tc[1][k] for k in ends)
        return ((ch * math.sinh(bu) * math.sinh(bv)
                 + math.cosh(bu) * math.cosh(bv)) / math.sinh(a))
    if len(ends) == 1:
        b = tc[1][ends[0]]
        return (ch * math.sinh(b) + math.cosh(b)) / math.exp(a)
    return 0.0


# fixtures on which each way of breaking (l, r) applies
BREAKS = {
    "none": sorted(FIXTURES),
    "e0": ["e0-torus"],  # l on a tangency edge moved near 1e-9 (1 + l)
    "point": ["grid-torus", "tri-torus", "genus2", "genus2-mixed"],
    "radius": ["grid-torus-v1", "tri-torus-v1", "genus2-mixed", "e0-torus"],
    "length": sorted(FIXTURES),  # l not positive
    "overlap": sorted(FIXTURES),  # a free l near r_u + r_v
    "triangle": sorted(FIXTURES),  # a free l near l' + l'' of a triangle
}


@pytest.mark.parametrize("kind", sorted(BREAKS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), g=st.sampled_from(BOTH),
       seed=st.integers(0, 2 ** 32 - 1), size=st.floats(0.0, 3.0))
def test_check_er_surface_matches_scalar(kind, data, g, seed, size):
    name = data.draw(st.sampled_from(BREAKS[kind]))
    T = triangulate(build_complex(fixture_spec(name)))
    l, r = reference_pattern(T, g)
    er = oracles.er_dicts(T, l, r)
    cc = T.base
    rng = random.Random(seed)
    r = {v: x * (1 + rng.uniform(-0.05, 0.05)) for v, x in er[1].items()}
    l = {e: r[e[0]] + r[e[1]] if e in cc.e0
         else x * (1 + rng.uniform(-0.05, 0.05)) for e, x in er[0].items()}
    free = sorted(e for e in l if e not in cc.e0)
    e = rng.choice(free)
    if kind == "e0":
        e = rng.choice(sorted(cc.e0))
        l[e] += (size - 1.5) * 4e-9
    elif kind == "point":
        r[rng.choice(sorted(cc.v0))] = size
    elif kind == "radius":
        r[rng.choice(sorted(cc.v1))] = -size
    elif kind == "length":
        l[rng.choice(sorted(l))] = -size
    elif kind == "overlap":
        l[e] = r[e[0]] + r[e[1]] + (size - 1.5) * 1e-15
    elif kind == "triangle":
        f, h = (x for x in oracles.tri_edges(
            T, oracles.edge_triangles(T)[e][0]) if x != e)
        l[e] = l[f] + l[h] + (size - 1.5) * 1e-15
    er = (l, r)
    fails = 0
    for tri in oracles.triangles(T):
        try:
            check_er_triangle(oracles.tri_er(T, er, tri),
                              oracles.triangle_tags(T, tri), g)
        except InvariantViolation:
            fails += 1
    if fails:
        with pytest.raises(DomainError):
            geo.check_er_surface(T, *oracles.er_arrays(T, er), g)
    else:
        geo.check_er_surface(T, *oracles.er_arrays(T, er), g)
    if kind in ("radius", "length") or kind == "point" and size > 0:
        assert fails


# ---------------------------------------------------------------------------
# Gauge action on a surface


class TestGauge:
    def _ref(self, grid_torus_T):
        from hicp.solver import reference_coords
        return reference_coords(grid_torus_T, EUCLIDEAN)

    def test_angles_invariant_under_action(self, grid_torus_T):
        T = grid_torus_T
        x = self._ref(T)
        dt = geo.decorate_surface(T, x, EUCLIDEAN)
        dt2 = geo.decorate_surface(T, x + 0.37 * T.gauge, EUCLIDEAN)
        np.testing.assert_allclose(dt2.alpha, dt.alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dt2.beta, dt.beta, rtol=0, atol=1e-12)

    def test_project_gauge_idempotent(self, grid_torus_T):
        T = grid_torus_T
        p = project_gauge(T, self._ref(T) + 0.9 * T.gauge, EUCLIDEAN)
        a, b = oracles.unpack(T, p)
        da, db = oracles.gauge_direction(T)
        s = (sum(a[e] * da[e] for e in a)
             + sum(b[k] * db[k] for k in b))
        assert s == pytest.approx(0.0, abs=1e-12)
        p2 = project_gauge(T, p, EUCLIDEAN)
        np.testing.assert_allclose(p2, p, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_gauge_vector_matches_loop(self, name):
        T = _triangulated(name)
        assert np.array_equal(T.gauge,
                              oracles.pack(T, *oracles.gauge_direction(T)))

    def test_in_te(self, grid_torus_T):
        T = grid_torus_T
        x = self._ref(T)
        assert in_te(T, x, EUCLIDEAN)
        x = x.copy()
        x[0] += 50.0  # a on the first free edge
        assert not in_te(T, x, EUCLIDEAN)

    @settings(max_examples=30, deadline=None)
    @given(g=st.sampled_from(BOTH), pick=st.integers(0, 10 ** 6),
           a=st.floats(-3.0, 0.0))
    def test_in_te_is_false_on_the_fold(self, tri_torus_v1, g, pick, a):
        # TE has a > 0 on every free edge between two disks
        from hicp.solver import reference_coords
        T = triangulate(tri_torus_v1)
        cc = T.base
        folds = [e for e in T.free_edges if e[0] in cc.v1 and e[1] in cc.v1]
        x = reference_coords(T, g)
        assert folds and in_te(T, x, g)
        x = x.copy()
        x[T.free_edges.index(folds[pick % len(folds)])] = a
        assert not in_te(T, x, g)

    def test_in_te_is_the_kernel_domain(self, genus2_mixed):
        # wide samples of (l, r) whose hyperbolic face circles leave the
        # disk: the edge-radius invariants hold there, the kernel does not
        from hicp.solver import extract_angles, reference_coords
        T = triangulate(genus2_mixed)
        l0, r0 = geo.psi_surface(T, reference_coords(T, HYPERBOLIC),
                                 HYPERBOLIC)
        rng = random.Random(5)
        outside = 0
        for _ in range(40):
            l, r = cli.sample_er(T, l0, r0, HYPERBOLIC, rng, frac=0.9)
            x = geo.psi_inv_surface(T, l, r, HYPERBOLIC)
            try:
                extract_angles(T, x, HYPERBOLIC)
            except HicpError:
                outside += 1
                assert not in_te(T, x, HYPERBOLIC)
            else:
                assert in_te(T, x, HYPERBOLIC)
        assert outside > 0
