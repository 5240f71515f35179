"""Damped Newton minimization of the angle functional over the gauge
section of the tetrahedral coordinate space, from the reference
pattern's class metric."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DomainError, NotInTE
from .fixtures import reference_metric
from .geometry import EUCLIDEAN, check_geometry
from .polytope import AngleData, pre_check, star_sums

CONVERGED = "Converged"
INFEASIBLE = "Infeasible"
MAXITER = "MaxIter"
BOUNDARY = "BoundaryDegeneration"

LINE_SEARCH_RATIO = 0.5
ARMIJO = 1e-4


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise DomainError("grad_tol must be a finite positive number")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


@dataclass(frozen=True)
class Solution:
    coords: np.ndarray | None  # x on the gauge section, in free-variable order
    residual_norm: float
    iterations: int
    realized_angles: AngleData | None
    status: str
    trace: tuple = ()
    report: object = None  # FeasibilityReport when pre-check failed


# ---------------------------------------------------------------------------
# Reference coordinates (uniform class-length base point)


def reference_coords(T, g):
    """Tetrahedral coordinates x of the uniform-edge-length reference
    configuration, projected to the gauge section.  A free edge with
    l >= cap = l_v + l_w in a triangle (possible when tangency and free
    edges share it) is shrunk to max(0.9 cap, (floor + cap) / 2), floor
    = r_u + r_v.  In the class metric only a triangle with two tangency
    sides and one free side can fail, and tangency sides are never
    shrunk, so one pass over the triangles suffices."""
    check_geometry(g)
    l, r = reference_metric(T, g)
    le, rv = l[T.edge], r[T.vert]
    cap = le[:, [1, 2, 0]] + le[:, [2, 0, 1]]
    fails = (le >= cap) & T.rows.free
    l[T.edge[fails]] = np.maximum(0.9 * cap,
                                  (rv + rv[:, [1, 2, 0]] + cap) / 2)[fails]
    geo.check_er_surface(T, l, r, g)
    return geo.project_gauge(T, geo.psi_inv_surface(T, l, r, g), g)


# ---------------------------------------------------------------------------
# Functional gradient / Hessian


def lifted_targets(T, theta, Theta):
    """Target angle per free variable, in free-variable order: stored
    theta on E1, pi on the fan diagonals, Theta on V1.  ``theta`` and
    ``Theta`` are those of ``polytope.angle_arrays`` on ``T.base``."""
    # the base edges of the sorted T.edges are the base's, in order
    lifted = np.full(len(T.eclass), math.pi)
    lifted[T.eclass != 2] = theta
    return np.concatenate([lifted[T.eclass != 0], Theta[T.vclass == 1]])


def _slot_angles(dt):
    """Kernel angles in slot order: alpha per edge, then beta per
    corner."""
    return np.concatenate([dt.alpha, dt.beta], axis=1)


def _slot_sums(T, angles):
    """Sum over all triangles, in triangle order, of the (F, 6) slot
    angles per free variable."""
    at, var = T.free_slots
    return np.bincount(var, weights=angles.ravel()[at], minlength=T.n_free)


def realized_sums(T, x, g):
    """Sum over all triangles, in triangle order, of alpha per free edge
    and beta per V1 vertex, as one vector in free-variable order;
    raises NotInTE outside the domain."""
    return _slot_sums(T, _slot_angles(geo.decorate_surface(T, x, g)))


def grad_U(T, x, targets, g):
    """Gradient of the angle functional: realized minus target angles,
    one entry per free variable; ``targets`` is the vector
    ``lifted_targets`` returns."""
    return realized_sums(T, x, g) - targets


def hessian_U(T, x, g):
    """(sums, H): realized_sums at x, and the forward-difference Hessian
    of the functional (Jacobian of grad_U), symmetrized.  The functional
    is a sum of per-triangle terms, so each triangle's block (at most
    6 x 6) is differenced on its own, along its own free slots only, and
    added into the dense matrix.  One kernel call evaluates every
    difference: per free slot of each triangle one copy of the triangle
    with that slot moved by h = 1e-5 (1 + |x_m|), and one unmoved copy
    per triangle, whose angles give the sums.  The index arrays are
    ``T.difference_plan``'s.  Raises NotInTE when any copy leaves the
    domain."""
    t, k, tri, slots, rows, keep, cell = T.difference_plan
    n, p = T.n_free, len(t)
    y = geo.gather_coords(x, slots)
    moved = (np.arange(p), k)
    h = 1e-5 * (1 + np.abs(y[moved]))
    y[moved] += h
    y = _slot_angles(geo.decorated_triangles(y, rows, g, tri=tri))
    y0 = y[p:]
    # D[i, j]: derivative of the angle at slot j of triangle t[i] along
    # the variable at slot k[i]
    D = (y[:p] - y0[t]) / h[:, None]
    H = np.bincount(cell, weights=D.ravel()[keep],
                    minlength=n * n).reshape(n, n)
    return _slot_sums(T, y0), (H + H.T) / 2


# ---------------------------------------------------------------------------
# Newton solver


def extract_angles(T, x, g):
    """Realized angle data of a coordinate point."""
    return _angle_data(T, realized_sums(T, x, g), g)


def _angle_data(T, sums, g):
    """AngleData of realized sums in free-variable order."""
    n_a = len(sums) - int(T.vclass.sum())
    alpha = np.zeros(len(T.eclass))
    alpha[T.eclass != 0] = sums[:n_a]
    theta = alpha[T.eclass != 2]  # the base edges, 0 on E0
    Theta = star_sums(T.base, theta)
    Theta[T.vclass == 1] = sums[n_a:]
    return AngleData(geometry=g, cc=T.base, th=theta, Th=Theta)


def solve(T, target, opts=None):
    """Newton solve for the coordinates realizing the target angles.
    The iterate stays on the gauge section: the start point is
    projected, and so is each trial x + s * step (the identity in
    hyperbolic geometry), so the point evaluated is the point accepted
    and the point reported.  The start point and each trial are
    evaluated by one hessian_U call, whose Hessian an accepted trial
    passes on, except a lean trial: a full step (s = 1, mu = 0) after a
    full step from norm g' to g whose predicted norm g^3 / g'^2 meets
    grad_tol.  It is evaluated by realized_sums, and again by hessian_U
    if accepted unconverged.  The line search rejects a trial where an
    evaluation raises NotInTE: the point, or one of its moved copies, is
    outside the kernel's domain."""
    opts = opts or SolveOptions()
    g = target.geometry
    rep, (theta, _star, Theta) = pre_check(T.base, target)
    if not rep.feasible:
        return Solution(coords=None, residual_norm=math.inf, iterations=0,
                        realized_angles=None, status=INFEASIBLE,
                        report=rep)

    targets = lifted_targets(T, theta, Theta)
    x = reference_coords(T, g)
    n = len(x)

    # The Euclidean functional is constant along the gauge direction c,
    # so H c = 0; the rank-one term c c^T makes the Newton system
    # nonsingular without changing the step across the gauge.
    gauge = 0.0
    if g == EUCLIDEAN:
        c = T.gauge
        c = c / np.linalg.norm(c)
        gauge = np.outer(c, c)

    sums, H = hessian_U(T, x, g)
    gvec = sums - targets
    gnorm = float(np.max(np.abs(gvec)))
    mu, collapses, trace, status, it = 0.0, 0, [], MAXITER, 0
    last = 0.0  # the norm before the last accepted step, if a full one
    for it in range(1, opts.max_iter + 1):
        if gnorm <= opts.grad_tol:
            status = CONVERGED
            it -= 1
            break
        accepted = False
        for _attempt in range(30):
            try:
                step = np.linalg.solve(H + gauge + mu * np.eye(n), -gvec)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                s = 1.0
                while s > 1e-14:
                    x_new = geo.project_gauge(T, x + s * step, g)
                    lean = (s == 1.0 and mu == 0.0 and gnorm * gnorm * gnorm
                            <= opts.grad_tol * last * last)
                    try:
                        if lean:
                            sums_new = realized_sums(T, x_new, g)
                            H_new = None
                        else:
                            sums_new, H_new = hessian_U(T, x_new, g)
                        g_new = sums_new - targets
                        gn_new = float(np.max(np.abs(g_new)))
                        if gn_new <= (1 - ARMIJO * s) * gnorm:
                            if H_new is None and gn_new > opts.grad_tol:
                                H_new = hessian_U(T, x_new, g)[1]
                            break
                    except NotInTE:
                        pass  # outside the kernel's domain: rejected
                    s *= LINE_SEARCH_RATIO
                else:
                    s = 0.0
                if s > 0.0:
                    small = float(np.max(np.abs(s * step))) < 1e-12
                    collapses = collapses + 1 if small else 0
                    last = gnorm if s == 1.0 and mu == 0.0 else 0.0
                    x, sums, gvec, gnorm = x_new, sums_new, g_new, gn_new
                    H = H_new
                    mu *= 0.1
                    accepted = True
                    trace.append((it, gnorm, s))
                    break
            # rejected: increase damping
            mu = 10 * mu if mu > 0 else 1e-8 * (1 + np.linalg.norm(H))
        if not accepted:
            collapses += 1
            trace.append((it, gnorm, 0.0))
        if collapses >= 5 and gnorm > 1e3 * opts.grad_tol:
            status = BOUNDARY
            break
    if gnorm <= opts.grad_tol:
        status = CONVERGED

    realized = _angle_data(T, sums, g) if status == CONVERGED else None
    return Solution(coords=x, residual_norm=gnorm, iterations=it,
                    realized_angles=realized, status=status,
                    trace=tuple(trace))
