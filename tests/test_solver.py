import math
import random

import numpy as np
import pytest

import oracles
from conftest import right_angle_target
from hicp import build_complex, cli, solver, triangulate
from hicp import geometry as geo
from hicp.errors import DomainError, NotInTE
from hicp.fixtures import FIXTURES, fixture_spec, grid_torus_spec
from hicp.polytope import AngleData, make_angle_data
from hicp.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    gauge_vector,
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
    omega_bisect,
    omega_solve,
    omega_value,
    reference_coords,
    solve,
)

BOTH = (EUCLIDEAN, HYPERBOLIC)


class TestOmega:
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
            grad = grad_U(T, tc, target, g)
            assert np.max(np.abs(grad)) < 1e-9

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
        assert T.e_pi and len(T.v1_vertices) == 9
        want = ([math.pi if e in T.e_pi else target.theta[e]
                 for e in T.free_edges]
                + [target.Theta[k] for k in T.v1_vertices])
        got = lifted_targets(T, target)
        assert got.tolist() == want and len(got) == T.n_free

    def test_missing_e1_key_raises(self, problem):
        T, target = problem
        e = sorted(target.theta)[4]
        theta = {k: v for k, v in target.theta.items() if k != e}
        with pytest.raises(KeyError):
            lifted_targets(T, AngleData(EUCLIDEAN, theta, target.Theta))


class TestDerivatives:
    def test_gauge_vector_in_hessian_kernel(self, grid_torus_T):
        T = grid_torus_T
        tc = reference_coords(T, EUCLIDEAN)
        H = hessian_U(T, tc, EUCLIDEAN)
        v = gauge_vector(T)
        assert np.linalg.norm(H @ v) < 1e-6 * np.linalg.norm(H)

    def test_forward_and_central_schemes_agree(self, grid_torus_T):
        T = grid_torus_T
        tc = reference_coords(T, EUCLIDEAN)
        Hf = hessian_U(T, tc, EUCLIDEAN)
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
            H = hessian_U(T, x, g)
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
                    or single_star_check(tri_torus_v1, target)):
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
        grad = solver.grad_U
        calls = []

        def first_trial_outside(*args):
            calls.append(1)
            if len(calls) == 2:  # call 1 is at the start point
                raise NotInTE("trial point outside the kernel's domain")
            return grad(*args)

        monkeypatch.setattr(solver, "grad_U", first_trial_outside)
        sol = solve(grid_torus_T, target)
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
