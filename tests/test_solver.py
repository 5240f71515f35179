import math
import random
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import (
    fan_diagonals,
    mixed_grid_spec,
    right_angle_target,
    tetrahedron_spec,
)
from hicp import build_complex, cli, fixtures, solver, triangulate
from hicp import geometry as geo
from hicp.complexes import edge_key
from hicp.errors import DomainError, NotInTE
from hicp.fixtures import (
    FIXTURES,
    fixture_spec,
    grid_torus_spec,
    omega_bisect,
    omega_solve,
    omega_value,
    triangulated_torus_spec,
)
from hicp.polytope import AngleData, angle_arrays, make_angle_data
from hicp.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    in_te,
    project_gauge,
)
from hicp.solver import (
    BOUNDARY,
    CONVERGED,
    INFEASIBLE,
    MAXITER,
    SolveOptions,
    extract_angles,
    grad_U,
    hessian_U,
    lifted_targets,
    reference_coords,
    solve,
)

BOTH = (EUCLIDEAN, HYPERBOLIC)


def _lifted(T, target):
    """lifted_targets of a target, read from its angle_arrays."""
    theta, _star, Theta = angle_arrays(T.base, target)
    return lifted_targets(T, theta, Theta)


class TestOmega:
    def test_floor_matches_200_halvings(self):
        # every face class, in each rotation, of the fixtures and of
        # mixed grids (hexagons, quads and triangles, random disks)
        specs = [fixture_spec(name) for name in sorted(FIXTURES)]
        specs += [mixed_grid_spec(4 + seed % 5, seed) for seed in range(10)]
        keys = set()
        for spec in specs:
            cc = build_complex(spec)
            for f in cc.faces:
                vc = [int(v in cc.v1) for v in f]
                ec = [int(edge_key(u, v) not in cc.e0)
                      for u, v in zip(f, f[1:] + f[:1])]
                keys.update((tuple(vc[i:] + vc[:i]), tuple(ec[i:] + ec[:i]))
                            for i in range(len(f)))
        assert len(keys) > 50
        for g in BOTH:
            for vc, ec in sorted(keys):
                want = oracles.omega_floor_by_halving(vc, ec, g)
                assert fixtures._omega_floor(vc, ec, g).hex() == want.hex()

    def test_tangent_quad_pinned(self):
        vc, ec = (1, 1, 1, 1), (0, 0, 0, 0)
        assert omega_solve(vc, ec, EUCLIDEAN) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)
        x = omega_solve(vc, ec, HYPERBOLIC)
        assert x == pytest.approx(oracles.ASINH_SQRT2_10, abs=1e-12)
        assert omega_value(vc, ec, HYPERBOLIC, x) == pytest.approx(
            2 * math.pi, abs=1e-12)

    def test_pentagon_pinned(self):
        vc, ec = (1,) * 5, (1,) * 5
        assert omega_solve(vc, ec, EUCLIDEAN) == pytest.approx(
            oracles.PENTAGON_XSTAR, abs=1e-12)

    def test_triangle_circumradius(self):
        # all-positive free triangle: x* is the reference circumradius
        vc, ec = (1, 1, 1), (1, 1, 1)
        assert omega_solve(vc, ec, EUCLIDEAN) == pytest.approx(
            2.5 / math.sqrt(3.0), abs=1e-12)

    def test_bisect_closure(self):
        cases = (((1, 1, 1, 1), (1, 1, 1, 1)),
                 ((1, 0, 1, 0), (1, 1, 1, 1)),
                 ((1, 1, 1, 1, 1), (0, 1, 0, 1, 1)),
                 ((0, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)))
        for vc, ec in cases:
            for g in BOTH:
                x = omega_bisect(vc, ec, g)
                w = omega_value(vc, ec, g, x)
                assert w == pytest.approx(2 * math.pi, abs=1e-10)
                # omega decreases in x
                assert omega_value(vc, ec, g, x + 0.1) < w
                assert omega_value(vc, ec, g, x * 0.97) > w

    @pytest.mark.parametrize("vc, ec", [((1, 1, 1), (0, 0, 1)),
                                        ((1, 1, 1, 1), (0, 0, 0, 1))])
    def test_face_without_circle_raises(self, vc, ec):
        # hyperbolic disks with all but one edge tangent: omega stays
        # below 2 pi, so bisection alone would return an unclosed x
        with pytest.raises(DomainError):
            omega_solve(vc, ec, HYPERBOLIC)

    def test_adds_the_chord_angles_left_to_right(self, monkeypatch):
        # the built-in sum is compensated from Python 3.12 and gives 1.0
        monkeypatch.setattr(fixtures, "face_chords",
                            lambda *args: ([1e16, 1.0, -1e16], None))
        assert omega_value((1, 1, 1), (1, 1, 1), EUCLIDEAN, 1.0) == 0.0

    def test_bad_index_sets(self):
        from hicp.errors import IndexMismatch
        with pytest.raises(IndexMismatch):
            omega_solve((1, 1), (1, 1), EUCLIDEAN)
        with pytest.raises(IndexMismatch):
            omega_solve((1, 1, 1, 1), (1, 1, 1), EUCLIDEAN)


class TestReferenceCoords:
    def test_in_domain_for_all_fixtures(self):
        for name in FIXTURES:
            T = triangulate(build_complex(fixture_spec(name)))
            for g in BOTH:
                tc = reference_coords(T, g)
                assert in_te(T, tc, g), (name, g)

    def test_reference_is_critical_for_its_own_angles(self, tri_torus):
        # needs a complex without fan diagonals: those carry a lifted
        # target of pi that the plain start point does not realize
        T = triangulate(tri_torus)
        for g in BOTH:
            tc = reference_coords(T, g)
            target = extract_angles(T, tc, g)
            grad = grad_U(T, tc, _lifted(T, target), g)
            assert np.max(np.abs(grad)) < 1e-9

    def test_repair_runs_only_where_needed(self):
        # the same bits as running the sequential repair on every call;
        # of the fixtures only the hyperbolic e0-torus needs it, and so
        # do the tangent edges of a tetrahedron and of a tri-torus
        tet = tetrahedron_spec()
        tri = triangulated_torus_spec(3, v1=range(9))
        cases = [(name, fixture_spec(name)) for name in sorted(FIXTURES)]
        cases += [("tet", {**tet, "tangent_edges": [[0, 1], [0, 2]]}),
                  ("tri", {**tri, "tangent_edges": [[0, 1], [0, 4], [3, 4],
                                                    [4, 5]]})]
        needed = []
        for name, spec in cases:
            T = triangulate(build_complex(spec))
            for g in BOTH:
                want = oracles.reference_coords_by_loop(T, g)
                assert reference_coords(T, g).tobytes() == want.tobytes()
                l, r = fixtures.reference_metric(T, g)
                if (geo.er_gaps(l[T.edge], r[T.vert])[1] <= 0).any():
                    needed.append((name, g))
        assert needed == [("e0-torus", HYPERBOLIC), ("tet", HYPERBOLIC),
                          ("tri", HYPERBOLIC)]

    def test_euclidean_section(self, grid_torus_T):
        T = grid_torus_T
        x = reference_coords(T, EUCLIDEAN)
        np.testing.assert_allclose(project_gauge(T, x, EUCLIDEAN), x,
                                   rtol=0, atol=1e-12)


class TestLiftedTargets:
    # grid-torus-v1 has a fan diagonal in every face and a disk at every
    # vertex
    @pytest.fixture
    def problem(self):
        T = triangulate(build_complex(fixture_spec("grid-torus-v1")))
        cc = T.base
        theta = {e: 0.1 + 0.01 * m for m, e in enumerate(sorted(cc.e1))}
        Theta = {k: 3.0 + 0.1 * k for k in sorted(cc.v1)}
        return T, AngleData(geometry=EUCLIDEAN, theta=theta, Theta=Theta)

    def test_pi_on_diagonals_theta_on_e1_then_Theta(self, problem):
        T, target = problem
        diagonals = fan_diagonals(T)
        assert diagonals and len(T.v1_vertices) == 9
        want = ([math.pi if e in diagonals else target.theta[e]
                 for e in T.free_edges]
                + [target.Theta[k] for k in T.v1_vertices])
        got = _lifted(T, target)
        assert got.tolist() == want and len(got) == T.n_free

    @pytest.mark.parametrize("field", ["theta", "Theta"], ids=["E1", "V1"])
    def test_missing_key_raises(self, problem, field):
        T, target = problem
        values = getattr(target, field)
        key = sorted(values)[4]
        kept = {k: v for k, v in values.items() if k != key}
        with pytest.raises(KeyError):
            _lifted(T, replace(target, **{field: kept}))


class TestDerivatives:
    def test_gauge_vector_in_hessian_kernel(self, grid_torus_T):
        T = grid_torus_T
        tc = reference_coords(T, EUCLIDEAN)
        H = hessian_U(T, tc, EUCLIDEAN)[1]
        v = T.gauge
        assert np.linalg.norm(H @ v) < 1e-6 * np.linalg.norm(H)

    def test_forward_and_central_schemes_agree(self, grid_torus_T):
        T = grid_torus_T
        tc = reference_coords(T, EUCLIDEAN)
        Hf = hessian_U(T, tc, EUCLIDEAN)[1]
        Hc = oracles.full_gradient_hessian(T, tc, EUCLIDEAN)
        Hc = (Hc + Hc.T) / 2
        assert np.max(np.abs(Hf - Hc)) < 1e-5 * (1 + np.max(np.abs(Hc)))

    @pytest.mark.parametrize("name, g", [("grid-torus", EUCLIDEAN),
                                         ("tri-torus", EUCLIDEAN),
                                         ("genus2", HYPERBOLIC)])
    def test_block_hessian_matches_full_gradient_oracle(self, name, g):
        T = triangulate(build_complex(fixture_spec(name)))
        l0, r0 = geo.psi_surface(T, reference_coords(T, g), g)
        rng = random.Random(11)
        for _ in range(3):
            x = geo.psi_inv_surface(T, *cli.sample_er(T, l0, r0, g, rng), g)
            H = hessian_U(T, x, g)[1]
            ref = oracles.full_gradient_hessian(T, x, g, scheme="forward")
            ref = (ref + ref.T) / 2
            assert np.max(np.abs(H - ref)) < 1e-7 * np.max(np.abs(ref)), name

    def test_hessian_kernel_calls_linear_in_triangles(self, grid_torus_T,
                                                      monkeypatch):
        # one batched kernel call per Hessian, on at most 7 rows per
        # triangle: one per free slot plus the unmoved triangle
        T = grid_torus_T
        tc = reference_coords(T, EUCLIDEAN)
        rows = []
        kernel = geo.decorated_triangles

        def counting(x, *args, **kwargs):
            rows.append(len(x))
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(geo, "decorated_triangles", counting)
        hessian_U(T, tc, EUCLIDEAN)
        assert len(rows) == 1
        assert 0 < rows[0] <= 7 * len(T.face)


class TestSolve:
    def test_right_angle_grid(self, grid_torus_T):
        target = right_angle_target(grid_torus_T.base)
        sol = solve(grid_torus_T, target)
        assert sol.status == CONVERGED
        assert sol.iterations <= 20
        assert sol.residual_norm < 1e-10
        for e, v in sol.realized_angles.theta.items():
            assert v == pytest.approx(target.theta[e], abs=1e-9)

    def test_recovery_near_reference(self, tri_torus):
        T = triangulate(tri_torus)
        rng = np.random.default_rng(3)
        for g in BOTH:
            a, b = oracles.unpack(T, reference_coords(T, g))
            a = {e: v * (1 + rng.uniform(-0.03, 0.03)) for e, v in a.items()}
            x1 = project_gauge(T, oracles.pack(T, a, b), g)
            assert in_te(T, x1, g)
            target = extract_angles(T, x1, g)
            sol = solve(T, target)
            assert sol.status == CONVERGED
            got = project_gauge(T, sol.coords, g)
            n_a = len(T.free_edges)
            err = np.max(np.abs(got[:n_a] - x1[:n_a]))
            assert err < 1e-6
            for e in target.theta:
                assert sol.realized_angles.theta[e] == pytest.approx(
                    target.theta[e], abs=1e-9)

    @pytest.mark.parametrize("g", BOTH)
    def test_wide_samples_stay_on_the_unfolded_chart(self, tri_torus_v1, g):
        # psi reads a between two disks only through cosh a, so without
        # the a > 0 guard some of these solves converged to the mirrored
        # point -a (1 Euclidean, 4 hyperbolic of the 40)
        from hicp.polytope import single_star_check
        T = triangulate(tri_torus_v1)
        l0, r0 = geo.psi_surface(T, reference_coords(T, g), g)
        rng = random.Random(5)
        solved = 0
        while solved < 40:
            l, r = cli.sample_er(T, l0, r0, g, rng, frac=0.9)
            x = project_gauge(T, geo.psi_inv_surface(T, l, r, g), g)
            try:
                target = extract_angles(T, x, g)
            except NotInTE:
                continue
            if (not all(0 < v < math.pi for v in target.theta.values())
                    or single_star_check(tri_torus_v1, target,
                                         angle_arrays(tri_torus_v1, target))):
                continue
            solved += 1
            sol = solve(T, target)
            assert sol.status == CONVERGED
            err = np.max(np.abs(project_gauge(T, sol.coords, g) - x))
            assert err < 1e-8, (solved, err)

    def test_infeasible_short_circuit(self):
        cc = build_complex(grid_torus_spec(3, v1=(4,)))
        T = triangulate(cc)
        target = make_angle_data(cc, "euclidean",
                                 {e: math.pi / 2 for e in cc.e1},
                                 {4: 2 * math.pi})
        sol = solve(T, target)
        assert sol.status == INFEASIBLE
        assert sol.report is not None
        assert any(w[1] == {"domain": [["v", 4]]}
                   for w in sol.report.violations)

    def test_line_search_rejects_trials_outside_the_kernel_domain(
            self, grid_torus_T, monkeypatch):
        target = right_angle_target(grid_torus_T.base)
        full_step = solve(grid_torus_T, target).trace[0][2]
        calls = []

        def outside_at(fn, at):
            def wrapper(*args):
                calls.append(fn.__name__)
                if calls.count(fn.__name__) == at:
                    raise NotInTE("trial point outside the kernel's domain")
                return fn(*args)
            return wrapper

        # hessian_U's call 1 is at the start point, its call 2 at the full
        # step's trial and its call 3 at the halved step's
        monkeypatch.setattr(solver, "hessian_U",
                            outside_at(solver.hessian_U, 2))
        monkeypatch.setattr(solver, "grad_U",
                            lambda *args: calls.append("grad_U"))
        sol = solve(grid_torus_T, target)
        assert calls[:3] == ["hessian_U"] * 3 and "grad_U" not in calls
        assert sol.status == CONVERGED
        assert sol.trace[0][2] == full_step * 0.5

    def test_max_iter(self, grid_torus_T):
        target = right_angle_target(grid_torus_T.base)
        sol = solve(grid_torus_T, target, SolveOptions(max_iter=1))
        assert sol.status == MAXITER
        assert sol.iterations == 1

    def test_options_validation(self):
        with pytest.raises(DomainError):
            SolveOptions(max_iter=0)
        with pytest.raises(DomainError):
            SolveOptions(grad_tol=0.0)

    def test_trace_is_monotone_at_the_end(self, grid_torus_T):
        target = right_angle_target(grid_torus_T.base)
        sol = solve(grid_torus_T, target)
        norms = [row[1] for row in sol.trace]
        assert norms[-1] < norms[0]


def _solve_inputs():
    """(T, target) per fixture and geometry, with the reference pattern's
    angles (what ``solve`` reads from a fixture), then 20 targets sampled
    as ``roundtrip`` samples them (the hyperbolic e0-torus solves
    backtrack)."""
    from hicp.polytope import single_star_check
    out = []
    for name in sorted(FIXTURES):
        cc = build_complex(fixture_spec(name))
        for g in BOTH:
            out.append((triangulate(cc), cli._target_from_input(
                cc, g, None, None)))
    for name in ("tri-torus-v1", "e0-torus"):
        cc = build_complex(fixture_spec(name))
        T = triangulate(cc)
        for g in BOTH:
            l0, r0 = geo.psi_surface(T, reference_coords(T, g), g)
            rng = random.Random(7)
            kept = 0
            while kept < 5:
                l, r = cli.sample_er(T, l0, r0, g, rng)
                x = project_gauge(T, geo.psi_inv_surface(T, l, r, g), g)
                target = extract_angles(T, x, g)
                if (all(0 < v < math.pi for v in target.theta.values())
                        and not single_star_check(
                            cc, target, angle_arrays(cc, target))):
                    kept += 1
                    out.append((T, target))
    return out


class TestOneKernelCallPerPoint:
    @pytest.fixture(scope="class")
    def inputs(self):
        return _solve_inputs()

    def test_same_solve_as_two_calls_per_point(self, inputs):
        backtracked = 0
        for T, target in inputs:
            got = solve(T, target)
            want = oracles.solve_by_two_calls(T, target)
            assert got.coords.tobytes() == want.coords.tobytes()
            assert got.trace == want.trace
            assert got.iterations == want.iterations
            assert got.status == want.status == CONVERGED
            assert got.realized_angles == want.realized_angles
            backtracked += sum(row[2] < 1.0 for row in got.trace)
        assert len(inputs) == 36 and backtracked > 0

    def test_hessian_sums_are_realized_sums(self, inputs):
        for T, target in inputs:
            g = target.geometry
            for x in (reference_coords(T, g), solve(T, target).coords):
                sums = hessian_U(T, x, g)[0]
                assert sums.tobytes() == \
                    solver.realized_sums(T, x, g).tobytes()

    def test_every_point_evaluated_is_on_the_gauge_section(self, inputs,
                                                           monkeypatch):
        # the solve reports the point it evaluated last, so coords and
        # realized angles describe one point
        hessian, sums, points = solver.hessian_U, solver.realized_sums, []

        def spy(fn):
            def call(T, x, g):
                points.append(x)
                return fn(T, x, g)
            return call

        monkeypatch.setattr(solver, "hessian_U", spy(hessian))
        monkeypatch.setattr(solver, "realized_sums", spy(sums))
        for T, target in inputs:
            points.clear()
            sol = solve(T, target)
            assert sol.status == CONVERGED
            assert sol.coords.tobytes() == points[-1].tobytes()
            if target.geometry == EUCLIDEAN:
                c = T.gauge
                for x in points:
                    off = abs(np.cumsum(x * c)[-1])
                    assert off <= 1e-12 * (1 + np.abs(x).max())

    @pytest.mark.parametrize("g", BOTH)
    def test_kernel_calls_per_point(self, g, monkeypatch):
        # the start point and each accepted full step: one kernel call
        # each, with the moved copies except at the converging step
        cc = build_complex(fixture_spec("e0-torus"))
        T = triangulate(cc)
        target = cli._target_from_input(cc, g, None, None)
        rows = []
        kernel = geo.decorated_triangles

        def counting(x, *args, **kwargs):
            rows.append(len(x))
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(geo, "decorated_triangles", counting)
        sol = solve(T, target)
        assert sol.status == CONVERGED and len(sol.trace) > 3
        assert all(row[2] == 1.0 for row in sol.trace)
        assert len(rows) == 1 + len(sol.trace)
        F, P = len(T.slots), len(T.difference_plan[0])
        assert sum(rows) == len(sol.trace) * (P + F) + F

    @pytest.mark.parametrize("g", BOTH)
    def test_converging_step_builds_no_hessian(self, g, monkeypatch):
        cc = build_complex(fixture_spec("e0-torus"))
        T = triangulate(cc)
        target = cli._target_from_input(cc, g, None, None)
        hessian, calls = solver.hessian_U, []

        def counting(*args):
            calls.append(1)
            return hessian(*args)

        monkeypatch.setattr(solver, "hessian_U", counting)
        sol = solve(T, target)
        assert sol.status == CONVERGED and len(sol.trace) > 3
        assert len(calls) == len(sol.trace)

    @pytest.mark.parametrize("g", BOTH)
    def test_missed_prediction_is_evaluated_again(self, g, monkeypatch):
        # at grad_tol = 1e-13 rounding stops quadratic convergence short
        # of the predicted norm: the lean trial is accepted without
        # converging and evaluated again by hessian_U
        T = triangulate(build_complex(fixtures.triangulated_torus_spec(4)))
        opts = SolveOptions(grad_tol=1e-13)
        l0, r0 = geo.psi_surface(T, reference_coords(T, g), g)
        rng = random.Random(7)
        targets = []
        for _ in range(3):
            l, r = cli.sample_er(T, l0, r0, g, rng)
            targets.append(extract_angles(T, project_gauge(
                T, geo.psi_inv_surface(T, l, r, g), g), g))
        wants = [oracles.solve_by_two_calls(T, t, opts) for t in targets]
        lean, hessian = solver.realized_sums, solver.hessian_U
        points, again = [], []

        def lean_spy(T, x, g):
            points.append(x)
            return lean(T, x, g)

        def hessian_spy(T, x, g):
            again.extend(p for p in points if np.array_equal(x, p))
            return hessian(T, x, g)

        monkeypatch.setattr(solver, "realized_sums", lean_spy)
        monkeypatch.setattr(solver, "hessian_U", hessian_spy)
        for t, want in zip(targets, wants):
            got = solve(T, t, opts)
            assert got.coords.tobytes() == want.coords.tobytes()
            assert got.trace == want.trace
            assert got.iterations == want.iterations
            assert got.status == want.status == CONVERGED
            assert got.realized_angles == want.realized_angles
        assert len(again) >= 1

    def test_a_trial_that_always_raises_is_rejected(self, grid_torus_T,
                                                    monkeypatch):
        # a moved copy may leave TE while the trial point lies inside;
        # the kernel is deterministic, so every evaluation there raises:
        # the line search rejects the trial and halves the step
        target = right_angle_target(grid_torus_T.base)
        hessian, points = solver.hessian_U, []

        def raising(T, x, g):
            points.append(x)
            if len(points) >= 2 and np.array_equal(x, points[1]):
                raise NotInTE("a moved copy outside the kernel's domain")
            return hessian(T, x, g)

        monkeypatch.setattr(solver, "hessian_U", raising)
        got = solve(grid_torus_T, target)
        assert in_te(grid_torus_T, points[1], EUCLIDEAN)
        assert sum(np.array_equal(x, points[1]) for x in points) == 1
        assert got.status == CONVERGED and got.trace[0][2] == 0.5
        assert got.residual_norm <= SolveOptions().grad_tol
