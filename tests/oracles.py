"""Independent high-precision oracles used to pin test values.

Everything here is computed with mpmath or with formulas deliberately
different from the ones in the package, so agreement is meaningful.
"""

import functools
import itertools
import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import add
from types import SimpleNamespace

import mpmath as mp
import numpy as np

import scalar_kernel as sk
from hicp import fixtures as fx
from hicp import geometry as geo
from hicp import layout
from hicp import polytope as pt
from hicp import solver
from hicp.complexes import (
    CellComplex,
    domain_generator_sets,
    edge_key,
    hat_complex,
    make_domain,
    row_domain,
)
from hicp.errors import (
    E0EndpointInV0,
    IndexMismatch,
    InvariantViolation,
    NonRedundantDiagonal,
    NotClosedSurface,
    NotInTE,
    RegularityViolation,
)
from hicp.fixtures import reference_metric
from hicp.jsontext import (
    _ESCAPE,
    _fill,
    edge_keys,
    float_map,
    key_order,
    number_texts,
)
from hicp.layout import MERGE_TOL
from hicp.solver import grad_U

mp.mp.dps = 40


def vertex_class(cc, v):
    """0 for a point-circle vertex of cc, 1 for a disk."""
    return 0 if v in cc.v0 else 1


def mp_lobachevsky(theta):
    """Lobachevsky function via the Clausen function: L(t) = Cl2(2t)/2."""
    return float(mp.clsin(2, 2 * theta) / 2)


def eucl_orthocircle(points, radii):
    """Center and radius of the circle orthogonal to three circles, via
    the normal equations of the power condition (different route from
    the package's Cramer solve): |o - p_i|^2 = R^2 + r_i^2."""
    (x1, y1), (x2, y2), (x3, y3) = points
    r1, r2, r3 = radii
    # subtract pairs: 2 o . (p_i - p_j) = |p_i|^2 - |p_j|^2 - r_i^2 + r_j^2
    A = mp.matrix([[2 * (x1 - x2), 2 * (y1 - y2)],
                   [2 * (x2 - x3), 2 * (y2 - y3)]])
    rhs = mp.matrix([
        x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2 - r1 * r1 + r2 * r2,
        x2 * x2 + y2 * y2 - x3 * x3 - y3 * y3 - r2 * r2 + r3 * r3,
    ])
    o = mp.lu_solve(A, rhs)
    R2 = (o[0] - x1) ** 2 + (o[1] - y1) ** 2 - r1 * r1
    return (float(o[0]), float(o[1])), float(mp.sqrt(R2))


def eucl_alpha_arcsin(d, R):
    """alpha from the half-chord the edge line cuts out of the face
    circle: sin(alpha) = sqrt(R^2 - d^2)/R, with d the center-to-line
    distance (complementary route to the package's arccos(d/R))."""
    hc = mp.sqrt(R * R - d * d)
    return float(mp.asin(hc / R)) if d >= 0 else math.pi - float(
        mp.asin(hc / R))


def hyp_v1v1_length(a, bu, bv):
    """Distance between the two positive-circle centers of a
    hyper-ideal tetrahedron edge, via the perpendicular-chain
    derivation."""
    return float(mp.acosh((mp.cosh(a) + mp.cosh(bu) * mp.cosh(bv))
                          / (mp.sinh(bu) * mp.sinh(bv))))


def hyp_v0v1_length(a, bv):
    return float(mp.acosh((mp.e ** a + mp.cosh(bv)) / mp.sinh(bv)))


def hyp_v0v0_length(a):
    # cosh l = 1 + 2 e^a, an algebraic form of l = 2 asinh(e^(a/2))
    return float(mp.acosh(1 + 2 * mp.e ** a))


def hyp_radius(b):
    return float(mp.asinh(1 / mp.sinh(b)))


def hyp_dual_length(R1, R2, theta):
    return float(mp.acosh(mp.cosh(R1) * mp.cosh(R2)
                          - mp.sinh(R1) * mp.sinh(R2) * mp.cos(theta)))


def eucl_dual_length(R1, R2, theta):
    return float(mp.sqrt(R1 * R1 + R2 * R2 + 2 * R1 * R2 * mp.cos(theta)))


def hyp_alpha_disk(l3, r3, m):
    """alpha on edge m = (u, v) of a hyperbolic decorated triangle
    (edges (ij, jk, ki), corners (i, j, k)) in the Poincare disk: u at
    the origin, v on the positive real axis, the third corner w above;
    each vertex circle as its Euclidean representative, the Euclidean
    circle orthogonal to all three, and alpha the angle between the real
    axis and that circle on the far side of the triangle:
    cos alpha = Im o / radius."""
    u, v = m, (m + 1) % 3
    w = 3 - u - v
    l_uv, l_vw, l_wu = (mp.mpf(l3[(m + t) % 3]) for t in range(3))
    cos_u = ((mp.cosh(l_uv) * mp.cosh(l_wu) - mp.cosh(l_vw))
             / (mp.sinh(l_uv) * mp.sinh(l_wu)))
    ray = {u: (mp.mpf(0), mp.mpf(1)), v: (l_uv, mp.mpf(1)),
           w: (l_wu, mp.exp(1j * mp.acos(cos_u)))}
    reps = []
    for c in (u, v, w):
        rho, direction = ray[c]
        r = mp.mpf(r3[c])
        near, far = mp.tanh((rho - r) / 2), mp.tanh((rho + r) / 2)
        reps.append((direction * (near + far) / 2, (far - near) / 2))
    # |o - c|^2 = Re^2 + s^2 for each representative (c, s); subtract
    # the first equation from the other two
    (c0, s0) = reps[0]
    A = mp.matrix(2, 2)
    rhs = mp.matrix(2, 1)
    for t, (c, s) in enumerate(reps[1:]):
        A[t, 0] = 2 * mp.re(c - c0)
        A[t, 1] = 2 * mp.im(c - c0)
        rhs[t] = abs(c) ** 2 - abs(c0) ** 2 - s * s + s0 * s0
    o = mp.lu_solve(A, rhs)
    radius = mp.sqrt((o[0] - mp.re(c0)) ** 2 + (o[1] - mp.im(c0)) ** 2
                     - s0 * s0)
    return float(mp.acos(o[1] / radius))


def ideal_volume(alphas):
    """Volume of an ideal tetrahedron with dihedral angles alpha_i at
    the base (classical formula: sum of Lobachevsky values)."""
    return sum(mp_lobachevsky(a) for a in alphas)


# ---------------------------------------------------------------------------
# Frozen [DERIVED] literals (mpmath / analytic; see the inline notes)

# 3 L(pi/3): volume of the regular ideal tetrahedron
REGULAR_IDEAL_VOLUME = 1.0149416064096537  # float(3*mp.clsin(2, 2*pi/3)/2)

# equilateral decorated triangle, l = 2.5, r = 1 everywhere:
# circumradius 2.5/sqrt(3), R = sqrt(25/12 - 1), alpha = asin(1.25/R)...
# resolved against the orthocircle construction
EQUILATERAL_25_R = 1.0408329997330663  # sqrt(25/12 - 1)
EQUILATERAL_25_ALPHA = 0.8046336771011123  # acos((2.5/(2*sqrt(3)))/R)

# tangent equilateral: l = 2, r = 1: R = sqrt(4/3 - 1) = 1/sqrt(3)
TANGENT_EQUILATERAL_R = 0.5773502691896258

# face-circle center distance solving the N=5 all-V1, all-free
# Euclidean closure: x = (l/2) / sin(pi/5) with l = 2.5
PENTAGON_XSTAR = 2.1266270208800998  # 1.25/sin(pi/5)

# four disks with four tangency edges, hyperbolic: the right triangle
# at the face-circle center gives sinh x* = sinh(r) / sin(pi/4) with
# sinh(r) = 1/10
ASINH_SQRT2_10 = 0.1409541445270734  # float(mp.asinh(mp.sqrt(2)/10))


# ---------------------------------------------------------------------------
# Reference Hessian


def full_gradient_hessian(T, x, g, scheme="central"):
    """Jacobian of the full gradient by finite differences, one full
    grad_U evaluation per variable and side, with the step of
    solver.hessian_U.  Costs O(variables x triangles) kernel calls; the
    package assembles the same matrix from per-triangle blocks."""
    n = len(x)
    zero = np.zeros(n)
    H = np.empty((n, n))
    g0 = grad_U(T, x, zero, g) if scheme == "forward" else None
    for m in range(n):
        h = 1e-5 * (1 + abs(x[m]))
        xp = x.copy()
        xp[m] += h
        gp = grad_U(T, xp, zero, g)
        if scheme == "forward":
            H[:, m] = (gp - g0) / h
        else:
            xm = x.copy()
            xm[m] -= h
            H[:, m] = (gp - grad_U(T, xm, zero, g)) / (2 * h)
    return H


# ---------------------------------------------------------------------------
# Reference Newton loop


def reference_coords_by_loop(T, g):
    """solver.reference_coords with its sequential triangle-inequality
    repair run on every call, whether or not a row needs it."""
    l, r = (v.tolist() for v in reference_metric(T, g))
    rows = list(zip(T.edge.tolist(), T.vert.tolist(), T.ec.tolist()))
    for _ in range(100):
        changed = False
        for es, vs, ecs in rows:
            for m in range(3):
                cap = l[es[(m + 1) % 3]] + l[es[(m + 2) % 3]]
                if l[es[m]] >= cap and ecs[m] != 0:
                    floor = r[vs[m]] + r[vs[(m + 1) % 3]]
                    l[es[m]] = max(0.9 * cap, 0.5 * (floor + cap))
                    changed = True
        if not changed:
            break
    l, r = np.array(l), np.array(r)
    geo.check_er_surface(T, l, r, g)
    return geo.project_gauge(T, geo.psi_inv_surface(T, l, r, g), g)


def omega_floor_by_halving(vclasses, eclasses, g):
    """fixtures._omega_floor with every edge's bisection run for all of
    its 200 halvings."""
    rc = fx.reference_constants(g)[0]
    n = len(vclasses)
    floor = rc + 1e-15 if any(c == 0 for c in vclasses) else 1e-15
    for t in range(n):
        cu, cv = vclasses[t], vclasses[(t + 1) % n]
        L = fx.reference_length(eclasses[t], g)

        def slack(x):
            return (fx._vertex_distance(g, cu, x, rc)
                    + fx._vertex_distance(g, cv, x, rc) - L)

        lo, hi = floor, floor + 1.0
        while slack(hi) < 0:
            hi += 1.0
        if slack(lo) > 0:
            continue
        for _ in range(200):
            mid = (lo + hi) / 2
            if slack(mid) < 0:
                lo = mid
            else:
                hi = mid
        floor = max(floor, hi)
    return floor


def solve_by_two_calls(T, target, opts=None):
    """solver.solve with two kernel calls per accepted point: grad_U at
    every trial and the start point, then hessian_U again at the start
    of each iteration (its sums unused), and extract_angles at the end.
    Same step, line search and damping rules, and each trial projected
    to the gauge section the same way."""
    opts = opts or solver.SolveOptions()
    g = target.geometry
    rep, (theta, _star, Theta) = pt.pre_check(T.base, target)
    if not rep.feasible:
        return solver.Solution(coords=None, residual_norm=math.inf,
                               iterations=0, realized_angles=None,
                               status=solver.INFEASIBLE, report=rep)
    targets = solver.lifted_targets(T, theta, Theta)
    x = solver.reference_coords(T, g)
    n = len(x)
    gauge = 0.0
    if g == geo.EUCLIDEAN:
        c = T.gauge
        c = c / np.linalg.norm(c)
        gauge = np.outer(c, c)
    gvec = grad_U(T, x, targets, g)
    gnorm = float(np.max(np.abs(gvec)))
    mu, collapses, trace, status, it = 0.0, 0, [], solver.MAXITER, 0
    for it in range(1, opts.max_iter + 1):
        if gnorm <= opts.grad_tol:
            status = solver.CONVERGED
            it -= 1
            break
        H = solver.hessian_U(T, x, g)[1]
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
                    try:
                        g_new = grad_U(T, x_new, targets, g)
                    except NotInTE:
                        pass
                    else:
                        gn_new = float(np.max(np.abs(g_new)))
                        if gn_new <= (1 - solver.ARMIJO * s) * gnorm:
                            break
                    s *= solver.LINE_SEARCH_RATIO
                else:
                    s = 0.0
                if s > 0.0:
                    small = float(np.max(np.abs(s * step))) < 1e-12
                    collapses = collapses + 1 if small else 0
                    x, gvec, gnorm = x_new, g_new, gn_new
                    mu *= 0.1
                    accepted = True
                    trace.append((it, gnorm, s))
                    break
            mu = 10 * mu if mu > 0 else 1e-8 * (1 + np.linalg.norm(H))
        if not accepted:
            collapses += 1
            trace.append((it, gnorm, 0.0))
        if collapses >= 5 and gnorm > 1e3 * opts.grad_tol:
            status = solver.BOUNDARY
            break
    if gnorm <= opts.grad_tol:
        status = solver.CONVERGED
    realized = (solver.extract_angles(T, x, g)
                if status == solver.CONVERGED else None)
    return solver.Solution(coords=x, residual_norm=gnorm, iterations=it,
                           realized_angles=realized, status=status,
                           trace=tuple(trace))


# ---------------------------------------------------------------------------
# Admissible-domain conditions, decided the long way


def generators_connected(h, gens):
    """True when gens is nonempty and connected in the star-overlap graph
    of ``hat_reference``, by breadth-first search."""
    overlap = hat_reference(h.base).overlap
    gens = set(gens)
    if not gens:
        return False
    root = min(gens)
    seen, queue = {root}, deque([root])
    while queue:
        for nb in overlap[queue.popleft()]:
            if nb in gens and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen == gens


def star_cells(h, hv):
    """(vmask, emask, fmask) of the open star of hat vertex hv, read off
    the cell incidences: hv itself and every hat edge and hat face that
    has hv as a corner."""
    h = hat_reference(h.base)
    cc = h.base

    def edge_ends(edge):
        kind, data = edge
        if kind == "dual":
            return {("f", fi) for fi in cc.edge_faces[data]}
        v, fi = data
        return {("v", v), ("f", fi)}

    emask = sum(1 << i for i, edge in enumerate(h.edges)
                if hv in edge_ends(edge))
    fmask = sum(1 << i for i, hf in enumerate(h.hat_faces)
                if hv in {("v", hf.corner), ("f", hf.duals[0]),
                          ("f", hf.duals[1])})
    return 1 << h.vindex[hv], emask, fmask


def admissible_by_subsets(h):
    """Every admissible domain of h, by trying each subset of hat
    vertices: [(sorted generators, vmask, emask, fmask, strict)], sorted.

    A subset is kept when it is nonempty and connected in the overlap
    graph of ``hat_reference`` (breadth-first search) and the union of
    its open stars (``star_cells``) is not the whole surface and holds a
    base vertex.
    It is strict when no point vertex lies outside the union with an
    incident cell inside it."""
    h = hat_reference(h.base)
    verts = sorted(h.stars)
    n = len(verts)
    stars = [star_cells(h, v) for v in verts]
    nbrs = [[verts.index(w) for w in h.overlap[v]] for v in verts]
    full = ((1 << len(h.vertices)) - 1, (1 << len(h.edges)) - 1,
            (1 << len(h.hat_faces)) - 1)
    points = [star_cells(h, ("v", k)) for k in sorted(h.base.v0)]
    out = []
    for subset in range(1, 1 << n):
        root = (subset & -subset).bit_length() - 1
        seen, queue = 1 << root, deque([root])
        while queue:
            for j in nbrs[queue.popleft()]:
                if subset >> j & 1 and not seen >> j & 1:
                    seen |= 1 << j
                    queue.append(j)
        if seen != subset:
            continue
        members = [i for i in range(n) if subset >> i & 1]
        vmask = emask = fmask = 0
        for i in members:
            vmask |= stars[i][0]
            emask |= stars[i][1]
            fmask |= stars[i][2]
        if (vmask, emask, fmask) == full:
            continue
        if not any(verts[i][0] == "v" for i in members):
            continue
        strict = not any(
                not vmask & pv and (emask & pe or fmask & pf)
                for pv, pe, pf in points)
        out.append(([verts[i] for i in members], vmask, emask, fmask,
                    strict))
    out.sort(key=lambda row: row[0])
    return out


def theta_extended_by_dict(cc, t):
    """theta on every base edge: stored on E1, zero on E0."""
    full = dict(t.theta)
    for e in cc.e0:
        full[e] = 0.0
    return full


def conditions_1_to_3_by_loop(cc, t):
    """Conditions 1-3 as ``polytope._conditions_1_to_3`` decides them,
    by loops over the sorted E1 and V1 and a left-to-right total over
    ``Theta_full_by_scan`` in its order: (violations, Theta on every
    vertex, the Gauss-Bonnet residual, the comparison tolerance)."""
    if not isinstance(t, pt.AngleData):
        raise IndexMismatch("expected AngleData")
    geo.check_geometry(t.geometry)
    if set(t.theta) != set(cc.e1) or set(t.Theta) != set(cc.v1):
        raise IndexMismatch("angle data index sets do not match the complex")
    violations = []
    euclidean = t.geometry == geo.EUCLIDEAN
    for e in sorted(cc.e1):
        v = t.theta[e]
        if not 0.0 < v < math.pi:
            violations.append(("E1" if euclidean else "H1",
                               {"edge": list(e)}, v, None))
    for k in sorted(cc.v1):
        v = t.Theta[k]
        if not v > 0.0:
            violations.append(("E2" if euclidean else "H2",
                               {"vertex": k}, v, 0.0))
    ThetaF = Theta_full_by_scan(cc, t)
    total = 0.0
    for v in ThetaF.values():
        total += 2 * math.pi - v
    target = 2 * math.pi * cc.chi
    gb_residual = total - target
    tol = 1e-12 * (1 + len(ThetaF))
    if euclidean:
        if abs(gb_residual) > tol:
            violations.append(("E3", {"surface": True}, total, target))
    elif not gb_residual > tol:
        violations.append(("H3", {"surface": True}, total, target))
    return violations, ThetaF, gb_residual, tol


def check_feasibility_by_loop(cc, t, cap=22):
    """``polytope.check_feasibility`` with conditions 1-3 by
    ``conditions_1_to_3_by_loop`` and condition 4 decided domain by
    domain: every strict admissible domain made as a ``Domain`` and its
    inequality evaluated by ``domain_inequality_by_loop``."""
    violations, ThetaF, gb_residual, tol = conditions_1_to_3_by_loop(cc, t)
    partial = False
    method, size = pt.CONDITIONS_1_3, pt._conditions_size(cc)
    if not violations:
        theta_ext = theta_extended_by_dict(cc, t)
        h = hat_complex(cc)
        rows, partial = domain_generator_sets(h, strict=True, cap=cap)
        domains = [masked(h, row_domain(h, row)) for row in rows]
        cond = "E4" if t.geometry == geo.EUCLIDEAN else "H4"
        e0_duals = {hat_reference(cc).eindex[("dual", e)] for e in cc.e0}
        evaluated = 0
        for d in domains:
            star_of = d.is_open_star_of()
            if star_of is not None and star_of[0] == "v" \
                    and star_of[1] in cc.v0:
                continue  # condition-2 identity, not a constraint
            evaluated += 1
            lhs, rhs = domain_inequality_by_loop(cc, h, d, theta_ext, ThetaF,
                                                 e0_duals)
            if not lhs > rhs + tol:
                violations.append((cond, {"domain": domain_witness(d)},
                                   lhs, rhs))
        method = pt.ENUMERATION
        size = {"hat_vertices": len(h.vertices), "domains": evaluated}

    violations.sort(key=lambda v: (v[0], str(v[1])))
    if violations:
        verdict = pt.INFEASIBLE
    elif partial:
        verdict = pt.PARTIAL
    else:
        verdict = pt.FEASIBLE
    return pt.FeasibilityReport(
        verdict=verdict, violations=tuple(violations),
        gauss_bonnet_residual=gb_residual, partial=partial, method=method,
        size=size)


def euler_char(d):
    """Euler characteristic of the open domain by open-cell counting."""
    return (d.vmask.bit_count() - d.emask.bit_count() + d.fmask.bit_count())


def domain_witness(d):
    """A condition-4 witness: the domain's generators as sorted lists."""
    return sorted([list(g) for g in d.generators])


def boundary_counts_by_loop(h, d, e0_dual_indices=None):
    """``complexes.boundary_counts`` by Python-int masks, one dual edge and
    one base link (``hat_reference(h.base).base_links``) at a time: a
    dual edge outside the domain is on the boundary once per hat face
    across it that is inside, and a base vertex outside is visited once
    per arc of its link inside (faces - edges), or once as a puncture."""
    vmask, emask, fmask = d.vmask, d.emask, d.fmask
    e0_mask = sum(1 << ei for ei in e0_dual_indices or ())
    dual_mult = {}
    n_e0 = 0
    # the dual of base edge i is hat edge i, the hat faces across it are
    # 2 i and 2 i + 1
    for i, e in enumerate(h.base.edges):
        if emask >> i & 1:
            continue
        m = (fmask >> 2 * i & 3).bit_count()
        if m:
            dual_mult[e] = m
            if e0_mask >> i & 1:
                n_e0 += m

    n_v = 0
    for vbit, lemask, lfmask in hat_reference(h.base).base_links:
        if vmask & vbit:
            continue
        faces_in = (fmask & lfmask).bit_count()
        if faces_in:
            n_v += faces_in - (emask & lemask).bit_count() or 1
    return dual_mult, n_v, n_e0


def domain_inequality_by_loop(cc, h, d, theta_ext, ThetaF, e0_duals):
    """``polytope.domain_inequality`` term by term: (lhs, rhs) of the
    condition-4 inequality for one strict domain, each of lhs's sums
    added left to right by ``reduce``, the boundary dual edges in edge
    order, then the generators' base vertices in sorted order."""
    dual_mult, n_v, _n_e0 = boundary_counts_by_loop(h, d, e0_duals)
    lhs = functools.reduce(add, ((math.pi - theta_ext[e]) * m
                                 for e, m in dual_mult.items()), 0.0)
    lhs += functools.reduce(add, (2 * math.pi - ThetaF[g[1]]
                                  for g in sorted(d.generators)
                                  if g[0] == "v"), 0.0)
    rhs = 2 * math.pi * euler_char(d) - math.pi * n_v
    return lhs, rhs


def Theta_full_by_scan(cc, t):
    """``polytope.Theta_full`` with each point vertex's sum taken left to
    right over a scan of every edge, the vertices in id order."""
    th = theta_extended_by_dict(cc, t)
    full = {}
    for k in sorted(cc.v0 | cc.v1):
        if k in cc.v1:
            full[k] = t.Theta[k]
            continue
        full[k] = 0.0
        for e in cc.edges:
            if k in e:
                full[k] += math.pi - th[e]
    return full


def single_star_check_by_scan(cc, t):
    """``polytope.single_star_check`` with each disk's sum (left to
    right) and degree taken over a scan of every edge."""
    th = theta_extended_by_dict(cc, t)
    bad = []
    for k in sorted(cc.v1):
        lhs = 0.0
        for e in cc.edges:
            if k in e:
                lhs += math.pi - th[e]
        lhs += 2 * math.pi - t.Theta[k]
        rhs = 2 * math.pi
        if not lhs > rhs + 1e-12 * (1 + sum(k in e for e in cc.edges)):
            bad.append((("E4" if t.geometry == geo.EUCLIDEAN else "H4"),
                        {"domain": [["v", k]]}, lhs, rhs))
    return bad


def masked(h, d):
    """The ``Domain`` d of h with its cells as Python-int masks, the form
    the oracles read: ``hat`` (h), ``generators``, ``vmask``, ``emask``
    and ``fmask`` (bit i for hat vertex, edge or face i) and
    ``is_open_star_of``."""
    cells = int.from_bytes(d.row, "little")
    nv, ne = len(h.star_rows), len(h.edge_ends)
    return SimpleNamespace(
        hat=h, generators=d.generators, vmask=cells & ((1 << nv) - 1),
        emask=cells >> nv & ((1 << ne) - 1), fmask=cells >> nv + ne,
        is_open_star_of=d.is_open_star_of)


def open_star(h, hv):
    """The open star of the hat vertex hv as a ``masked`` domain."""
    if hv not in hat_reference(h.base).stars:
        raise IndexMismatch(f"unknown hat vertex {hv}")
    return masked(h, make_domain(h, [hv]))


def covers_surface(h, vmask, emask, fmask):
    h = hat_reference(h.base)
    return (vmask == (1 << len(h.vertices)) - 1
            and emask == (1 << len(h.edges)) - 1
            and fmask == (1 << len(h.hat_faces)) - 1)


def meets_base(h, vmask):
    # the base vertices come first in h.vertices
    return bool(vmask & ((1 << len(h.base.vertices)) - 1))


def touches_boundary(links, vmask, emask, fmask):
    """Whether a hat vertex of ``links``, (vertex bit, link emask, link
    fmask) triples, lies on the topological boundary: it is outside the
    domain and some cell of its link is inside."""
    for vbit, lemask, lfmask in links:
        if not vmask & vbit and (emask & lemask or fmask & lfmask):
            return True
    return False


def admits(h, vmask, emask, fmask, strict):
    """The conditions an admissible domain adds to connected generators:
    not the whole surface, meets the base vertices and, under
    ``strict``, no point vertex on the boundary."""
    return (meets_base(h, vmask)
            and not covers_surface(h, vmask, emask, fmask)
            and not (strict and touches_boundary(
                hat_reference(h.base).point_links, vmask, emask, fmask)))


def is_whole_surface(d):
    return covers_surface(d.hat, d.vmask, d.emask, d.fmask)


def meets_base_vertices(d):
    return meets_base(d.hat, d.vmask)


def is_strict(d):
    """No point vertex on the boundary of d (strict admissibility)."""
    return not touches_boundary(hat_reference(d.hat.base).point_links,
                                d.vmask, d.emask, d.fmask)


def contains_cell(d, kind, idx):
    """Domain d holds the hat cell (kind, idx): kind "v", "e" or "t"."""
    mask = {"v": d.vmask, "e": d.emask, "t": d.fmask}[kind]
    return bool(mask >> idx & 1)


def boundary_touches(d, hv):
    """The mask test of a boundary vertex: hv is outside the domain d and
    some cell of its link is inside."""
    h = hat_reference(d.hat.base)
    link = (1 << h.vindex[hv], *h.link_masks[hv])
    return touches_boundary([link], d.vmask, d.emask, d.fmask)


def boundary_touches_by_link(d, hv, links):
    """The link-walk definition of a boundary vertex: hv is outside the
    domain d and some cell of its link is inside; ``links`` is
    ``links_by_scan(d.hat)``."""
    if contains_cell(d, "v", hat_reference(d.hat.base).vindex[hv]):
        return False
    return any(contains_cell(d, kind, idx) for kind, idx in links[hv])


# ---------------------------------------------------------------------------
# Generator sets, one candidate at a time


class StarBits:
    """The open stars as bit masks, for the enumerators: hat vertex i of
    ``verts`` (the hat vertices in sorted order) is bit i of a generator
    mask."""

    def __init__(self, h):
        self.hat = h = hat_reference(h.base)
        self.verts = sorted(h.stars)
        bit = {v: 1 << i for i, v in enumerate(self.verts)}
        self.stars = [h.stars[v] for v in self.verts]
        self.adj = [sum(bit[nb] for nb in h.overlap[v]) for v in self.verts]
        # per dual vertex: the bits of the point vertices of its face
        v0 = h.base.v0
        self.points = [
            sum(bit[("v", k)] for k in h.base.faces[v[1]] if k in v0)
            if v[0] == "f" else 0 for v in self.verts]


def small_generator_sets(sb, strict):
    """(generators, star masks) of every kept one-generator set and
    two-generator connected set; generators are positions in
    ``sb.verts``."""
    h = sb.hat
    n = len(sb.stars)
    kept = []
    for i, (vm, em, fm) in enumerate(sb.stars):
        if admits(h, vm, em, fm, strict):
            kept.append(((i,), (vm, em, fm)))
    for i, (vm, em, fm) in enumerate(sb.stars):
        for j in range(i + 1, n):
            if sb.adj[i] >> j & 1:
                vj, ej, fj = sb.stars[j]
                masks = (vm | vj, em | ej, fm | fj)
                if admits(h, *masks, strict):
                    kept.append(((i, j), masks))
    return kept


def connected_generator_sets(sb, strict):
    """(generators, star masks) of every kept connected vertex subset
    of the star-overlap graph, depth first with an ``admits`` test per
    candidate; generators are positions in ``sb.verts``, in the order
    they joined.

    Each set is built once, from its least vertex (the root) by adding
    one frontier vertex at a time; ``banned`` holds the vertices an
    earlier sibling branch has already covered.  Under ``strict``,
    branches that can never yield a strict domain (a dual generator one
    of whose point vertices can no longer join the set) are cut; this is
    an optimization only, the strictness test stays authoritative.
    Frontier vertices are taken highest bit first: the base vertices
    ("v", k) sort after the dual vertices, so a point vertex is settled
    before the faces that need it, and the cut fires early."""
    h = sb.hat
    stars, adj, points = sb.stars, sb.adj, sb.points
    kept = []
    for root in range(len(stars)):
        rbit = 1 << root
        upto_root = (rbit << 1) - 1  # the root and every vertex below it
        vm, em, fm = stars[root]
        stack = [((root,), rbit, adj[root] & ~upto_root, 0, vm, em, fm)]
        while stack:
            gens, cur, frontier, banned, vm, em, fm = stack.pop()
            if admits(h, vm, em, fm, strict):
                kept.append((gens, (vm, em, fm)))
            todo = frontier & ~banned
            while todo:
                x = todo.bit_length() - 1
                xbit = 1 << x
                todo ^= xbit
                if strict and points[x] & ~cur & (banned | upto_root):
                    banned |= xbit
                    continue
                grown = cur | xbit
                xv, xe, xf = stars[x]
                stack.append((gens + (x,), grown,
                              (frontier | adj[x]) & ~(grown | banned
                                                     | upto_root),
                              banned, vm | xv, em | xe, fm | xf))
                banned |= xbit
    return kept


def generator_sets_by_dfs(h, strict, cap=22):
    """``complexes.domain_generator_sets`` the candidate-by-candidate
    way: {(generators, cell row)} of the kept sets, from
    ``connected_generator_sets`` within the cap and from
    ``small_generator_sets`` above it.  The generators are a mask over
    ``h.vertices`` and the row is its bytes."""
    sb = StarBits(h)
    h = sb.hat
    find = (connected_generator_sets if len(sb.verts) <= cap
            else small_generator_sets)
    found = find(sb, strict)
    bit = [1 << h.vindex[v] for v in sb.verts]
    return set(zip((sum(bit[i] for i in gens) for gens, _masks in found),
                   row_bytes(cell_rows(h, [masks for _g, masks in found]))))


def row_bytes(rows):
    """The bytes of each row of a 2-d uint8 array."""
    data, n = rows.tobytes(), rows.shape[1]
    return [data[i:i + n] for i in range(0, len(data), n)]


def or_table_by_bits(values):
    """``complexes.byte_table`` under OR, entry by entry: table[p][b] is
    the OR of values[8 p + j] over the set bits j of the byte b."""
    n, zero = len(values), np.zeros_like(values[0])
    table = []
    for p in range(-(-n // 8)):
        row = []
        for b in range(256):
            out = zero.copy()
            for j in range(min(8, n - 8 * p)):
                if b >> j & 1:
                    out = out | values[8 * p + j]
            row.append(out)
        table.append(row)
    return np.array(table, values.dtype)


def or_table_by_where(values):
    """``complexes.byte_table`` under OR by one ``np.where`` over (byte
    positions, 256, 8 bits, the rest of a value) and an OR reduction over
    the bits: the package's earlier form, the reference of its row order."""
    n, rest = len(values), values.shape[1:]
    n_pos = -(-n // 8)
    padded = np.zeros((8 * n_pos, *rest), values.dtype)
    padded[:n] = values
    bit_of = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)
    picked = np.where(bit_of.reshape(1, 256, 8, *(1,) * len(rest)),
                      padded.reshape(n_pos, 1, 8, *rest), 0)
    return np.bitwise_or.reduce(picked, axis=2)


# ---------------------------------------------------------------------------
# Hat complex by named cells, one at a time: the reference of
# complexes.hat_complex


@dataclass(frozen=True)
class HatFace:
    """Hat triangle with one base-vertex corner and two dual corners.
    ``across`` is the base edge the triangle straddles."""

    corner: int  # base vertex
    duals: tuple  # (face index, face index), sorted
    across: tuple
    # hat edge indices: the dual edge of ``across``, then the corner
    # edges from ``corner`` to duals[0] and duals[1]
    edges: tuple


@dataclass
class HatReference:
    """The hat complex of ``base`` by named cells and Python-int masks
    over them, numbered as the cells are met."""

    base: CellComplex
    vertices: list  # hat vertices: ("v", id) then ("f", face index)
    edges: list  # ("dual", base_edge) and ("corner", (v, face index))
    hat_faces: list  # of HatFace
    # index lookups
    vindex: dict = field(repr=False, default_factory=dict)
    eindex: dict = field(repr=False, default_factory=dict)
    findex: dict = field(repr=False, default_factory=dict)
    # per hat vertex: (vmask, emask, fmask) of its open star
    stars: dict = field(repr=False, default_factory=dict)
    # overlap graph between open stars, as adjacency over hat vertices
    overlap: dict = field(repr=False, default_factory=dict)
    # per hat vertex: (emask, fmask) of its link
    link_masks: dict = field(repr=False, default_factory=dict)
    # per base vertex, and per point vertex: (vertex bit, link emask,
    # link fmask)
    base_links: tuple = field(repr=False, default=())
    point_links: tuple = field(repr=False, default=())


@functools.lru_cache(maxsize=32)
def hat_reference(cc):
    """The hat complex of cc built by loops: the hat vertices, the dual
    edges in edge order, the corner edges face by face (each face's
    vertices in id order) and the two hat faces of each base edge, one
    per end; then the links read off the incidences cell by cell.  The
    oracles here that take a hat complex ``h`` read the names and masks
    of ``hat_reference(h.base)``, so they number the cells themselves."""
    h = HatReference(base=cc, vertices=[], edges=[], hat_faces=[])
    for v in cc.vertices:
        h.vindex[("v", v)] = len(h.vertices)
        h.vertices.append(("v", v))
    for fi in range(len(cc.faces)):
        h.vindex[("f", fi)] = len(h.vertices)
        h.vertices.append(("f", fi))

    for e in cc.edges:
        h.eindex[("dual", e)] = len(h.edges)
        h.edges.append(("dual", e))
    for fi, f in enumerate(cc.faces):
        for v in sorted(f):
            h.eindex[("corner", (v, fi))] = len(h.edges)
            h.edges.append(("corner", (v, fi)))

    for e in cc.edges:
        fa, fb = cc.edge_faces[e]
        duals = tuple(sorted((fa, fb)))
        for v in e:
            h.findex[(v, e)] = len(h.hat_faces)
            h.hat_faces.append(HatFace(
                corner=v, duals=duals, across=e,
                edges=(h.eindex[("dual", e)],
                       h.eindex[("corner", (v, duals[0]))],
                       h.eindex[("corner", (v, duals[1]))])))

    # the link of a hat vertex: a corner edge (k, f) lies in the links of
    # k and O_f, a dual edge in those of its two faces, and a hat face
    # (k, e) in those of k and of both faces of e
    emask = dict.fromkeys(h.vertices, 0)
    fmask = dict.fromkeys(h.vertices, 0)
    for i, (kind, data) in enumerate(h.edges):
        ends = ([("f", fi) for fi in cc.edge_faces[data]] if kind == "dual"
                else [("v", data[0]), ("f", data[1])])
        for hv in ends:
            emask[hv] |= 1 << i
    for i, hf in enumerate(h.hat_faces):
        for hv in (("v", hf.corner), ("f", hf.duals[0]), ("f", hf.duals[1])):
            fmask[hv] |= 1 << i
    for hv in h.vertices:
        h.link_masks[hv] = (emask[hv], fmask[hv])
        # the open star: the vertex and the cells of its link
        h.stars[hv] = (1 << h.vindex[hv], emask[hv], fmask[hv])
    h.base_links = tuple((1 << h.vindex[("v", k)], *h.link_masks[("v", k)])
                         for k in cc.vertices)
    h.point_links = tuple(link for k, link in zip(cc.vertices, h.base_links)
                          if k in cc.v0)

    # overlap graph: two open stars share a cell exactly when a base
    # vertex lies on a face (their corner edge) or two faces share a base
    # edge (its dual edge); a hat face has one base corner, so two base
    # vertices' stars never meet
    h.overlap = {v: set() for v in h.vertices}
    for fi, f in enumerate(cc.faces):
        for v in f:
            h.overlap[("v", v)].add(("f", fi))
            h.overlap[("f", fi)].add(("v", v))
    for fa, fb in cc.edge_faces.values():
        if fa != fb:
            h.overlap[("f", fa)].add(("f", fb))
            h.overlap[("f", fb)].add(("f", fa))
    return h


def cell_rows(h, masks):
    """One row of little-endian bytes per (vmask, emask, fmask) over the
    cells of ``hat_reference(h.base)``: one bit per hat cell, the
    vertices, then the edges, then the faces."""
    h = hat_reference(h.base)
    se, sf = len(h.vertices), len(h.vertices) + len(h.edges)
    nbytes = -(-(sf + len(h.hat_faces)) // 8)
    return np.frombuffer(
        b"".join((v | e << se | f << sf).to_bytes(nbytes, "little")
                 for v, e, f in masks), np.uint8).reshape(-1, nbytes)


# ---------------------------------------------------------------------------
# Hat complex cells, the long way


def vertex_cycle_by_scan(cc, v):
    """(edges, faces) around v in cyclic order, face t between edge t and
    edge t + 1, rotated to start at the least edge; the walk starts from
    a scan of every face for the least one incident to v."""
    fi = start = min(fi for fi, f in enumerate(cc.faces) if v in f)
    edges_cycle, faces_cycle = [], []
    while True:
        f = cc.faces[fi]
        p = f.index(v)
        edges_cycle.append(edge_key(f[p - 1], v))
        faces_cycle.append(fi)
        fa, fb = cc.edge_faces[edge_key(v, f[(p + 1) % len(f)])]
        fi = fb if fa == fi else fa
        if fi == start:
            break
    k = edges_cycle.index(min(edges_cycle))
    return (edges_cycle[k:] + edges_cycle[:k],
            faces_cycle[k:] + faces_cycle[:k])


def links_by_scan(h):
    """Per hat vertex, its cyclic link of ("e", idx) and ("t", idx)
    cells, with each base vertex's cycle from ``vertex_cycle_by_scan``."""
    h = hat_reference(h.base)
    cc = h.base
    links = {}
    for k in cc.vertices:
        edges_c, faces_c = vertex_cycle_by_scan(cc, k)
        n = len(faces_c)
        links[("v", k)] = [
            cell for t in range(n)
            for cell in (("e", h.eindex[("corner", (k, faces_c[t]))]),
                         ("t", h.findex[(k, edges_c[(t + 1) % n])]))]
    for fi, f in enumerate(cc.faces):
        cycle = []
        for t in range(len(f)):
            v, w = f[t], f[(t + 1) % len(f)]
            e = edge_key(v, w)
            cycle += [("e", h.eindex[("corner", (v, fi))]),
                      ("t", h.findex[(v, e)]), ("e", h.eindex[("dual", e)]),
                      ("t", h.findex[(w, e)])]
        links[("f", fi)] = cycle
    return links


def overlap_by_pairs(h):
    """The star-overlap graph by testing every pair of open stars for a
    shared cell."""
    h = hat_reference(h.base)
    verts = list(h.stars)
    overlap = {v: set() for v in verts}
    for i, a in enumerate(verts):
        va, ea, fa = h.stars[a]
        for b in verts[i + 1:]:
            vb, eb, fb = h.stars[b]
            if (va & vb) or (ea & eb) or (fa & fb):
                overlap[a].add(b)
                overlap[b].add(a)
    return overlap


# ---------------------------------------------------------------------------
# Dict views of the package's arrays, keyed by edge and vertex id


def unpack(T, x):
    """(a, b) of a coordinate vector x: {free edge: a}, {disk vertex: b}."""
    n = len(T.free_edges)
    x = list(map(float, x))
    return dict(zip(T.free_edges, x[:n])), dict(zip(T.v1_vertices, x[n:]))


def pack(T, a, b):
    """The coordinate vector x of (a, b) dicts; the inverse of unpack."""
    return np.array([a[e] for e in T.free_edges]
                    + [b[k] for k in T.v1_vertices], dtype=float)


def er_dicts(T, l, r):
    """({edge: l}, {vertex: r}) of the per-edge and per-vertex arrays."""
    return (dict(zip(T.edges, map(float, l))),
            dict(zip(T.base.vertices, map(float, r))))


def er_arrays(T, er):
    """The (l, r) arrays of ({edge: l}, {vertex: r}); the inverse of
    er_dicts."""
    return (np.array([er[0][e] for e in T.edges], dtype=float),
            np.array([er[1][v] for v in T.base.vertices], dtype=float))


def gauge_direction(T):
    """Euclidean scaling action generator on the free coordinates, edge
    by edge: +(number of point endpoints) on each a, -1 on each b."""
    cc = T.base
    da = {}
    for e in T.edges:
        if e in cc.e0:
            continue
        u, v = e
        da[e] = float((vertex_class(cc, u) == 0) + (vertex_class(cc, v) == 0))
    db = {k: -1.0 for k in cc.v1}
    return da, db


# ---------------------------------------------------------------------------
# Fan triangulation one face at a time, the reference of
# complexes.triangulate


def fan_triangles(face):
    """Fan triangulation of a single face from its least vertex id.
    Returns (triangles, diagonals); a face with n vertices yields n-2
    triangles and n-3 diagonals."""
    n = len(face)
    p = face.index(min(face))
    cyc = face[p:] + face[:p]
    apex = cyc[0]
    tris = [(apex, cyc[t], cyc[t + 1]) for t in range(1, n - 1)]
    diags = [edge_key(apex, cyc[t]) for t in range(2, n - 1)]
    return tris, diags


@dataclass(frozen=True)
class Triangle:
    face: int  # index of the parent face in the base complex
    verts: tuple  # (u, v, w), oriented like the parent face


@dataclass(frozen=True)
class LoopTriangulation:
    base: CellComplex
    e_pi: frozenset
    triangles: tuple  # of Triangle
    edges: tuple  # all edges of T, sorted

    def edge_class(self, e):
        """0 for E0, 1 for E1, 2 for the fan diagonals."""
        return 2 if e in self.e_pi else 0 if e in self.base.e0 else 1

    @property
    def free_edges(self):
        return tuple(e for e in self.edges if e not in self.base.e0)

    @property
    def v1_vertices(self):
        return tuple(sorted(self.base.v1))


def triangulate_by_loop(cc):
    """The fan triangulation of cc, one face and one diagonal at a time,
    with a Counter over every triangle edge."""
    tris = []
    e_pi = set()
    base_edges = set(cc.edges)
    for fi, f in enumerate(cc.faces):
        ftris, fdiags = fan_triangles(f)
        for d in fdiags:
            if d in base_edges:
                raise RegularityViolation(
                    f"fan diagonal {d} of face {f} collides with a base edge"
                )
            if d in e_pi:
                raise RegularityViolation(f"fan diagonal {d} produced twice")
            e_pi.add(d)
        tris.extend(Triangle(face=fi, verts=t) for t in ftris)

    edges = tuple(sorted(base_edges | e_pi))
    count = Counter()
    for tri in tris:
        u, v, w = tri.verts
        count.update((edge_key(u, v), edge_key(v, w), edge_key(w, u)))
    for e, n in count.items():
        if n != 2:
            raise RegularityViolation(f"edge {e} lies in {n} triangles")

    return LoopTriangulation(base=cc, e_pi=frozenset(e_pi),
                             triangles=tuple(tris), edges=edges)


@functools.lru_cache(maxsize=16)
def loop_triangulation(T):
    """triangulate_by_loop of T's base complex; cached, since the scalar
    references read it per triangle."""
    return triangulate_by_loop(T.base)


def triangles(T):
    """The Triangle rows of T, from triangulate_by_loop."""
    return loop_triangulation(T).triangles


# ---------------------------------------------------------------------------
# Per-triangle views for the scalar kernel, the reference of the batched one


def triangle_tags(T, tri):
    """Class tags of one triangle of T."""
    cc = T.base
    i, j, k = tri.verts
    vc = tuple(vertex_class(cc, v) for v in (i, j, k))
    ec = tuple(loop_triangulation(T).edge_class(edge_key(u, v))
               for u, v in ((i, j), (j, k), (k, i)))
    return sk.TriangleTags(vc=vc, ec=ec)


def tri_edges(T, ti):
    """The edges ij, jk, ki of triangle ti of T."""
    i, j, k = triangles(T)[ti].verts
    return edge_key(i, j), edge_key(j, k), edge_key(k, i)


def tri_er(T, er, tri):
    """(l3, r3) of one triangle of T from ({edge: l}, {vertex: r})."""
    i, j, k = tri.verts
    l3 = tuple(er[0][edge_key(u, v)] for u, v in ((i, j), (j, k), (k, i)))
    r3 = tuple(er[1][v] for v in (i, j, k))
    return l3, r3


def tri_coords(T, tc, tri):
    """(a3, b3) of one triangle of T from ({free edge: a}, {disk
    vertex: b}), 0 where a coordinate is fixed."""
    i, j, k = tri.verts
    a3 = tuple(tc[0].get(edge_key(u, v), 0.0)
               for u, v in ((i, j), (j, k), (k, i)))
    return a3, tuple(tc[1].get(v, 0.0) for v in (i, j, k))


def place_euclidean(l3):
    """Euclidean triangle with side lengths l3 = (ij, jk, ki): i at the
    origin, j on the positive x axis, k above it."""
    lij, ljk, lki = l3
    xk = (lij * lij + lki * lki - ljk * ljk) / (2 * lij)
    yk2 = lki * lki - xk * xk
    if yk2 <= 0:
        raise InvariantViolation(f"degenerate triangle {l3}")
    return (0.0, 0.0), (lij, 0.0), (xk, math.sqrt(yk2))


def local_pair_theta(T, er, e, g):
    """theta of edge e computed from the two adjacent triangles' face
    circles, each placed by the scalar decorate, in a shared local
    chart."""
    placed = {}
    for ti in edge_triangles(T)[e]:
        tri = triangles(T)[ti]
        zs, circle, _ta = sk.decorate(tri_er(T, er, tri),
                                      triangle_tags(T, tri), g)
        placed[ti] = (dict(zip(tri.verts, zs)), circle)
    return pair_theta(T, placed, e, g)


def psi_inv_surface_by_loop(T, er, g):
    """psi_inv_surface edge by edge through the scalar inv_radius and
    inv_edge, on ({edge: l}, {vertex: r}): ({free edge: a}, {disk
    vertex: b})."""
    cc = T.base
    l, r = er
    b = {v: sk.inv_radius(g, 1, r[v]) for v in T.v1_vertices}
    a = {}
    for e in T.edges:
        if e in cc.e0:
            continue
        u, v = e
        a[e] = sk.inv_edge(g, 1, vertex_class(cc, u), vertex_class(cc, v),
                           l[e], r[u], r[v], b.get(u, 0.0), b.get(v, 0.0))
    return a, b


@functools.lru_cache(maxsize=16)
def edge_triangles(T):
    """{edge: its two triangles, the lesser first} of T, by a loop over
    the triangles; cached, since the scalar layout reads it per edge.
    Callers must not change the dict."""
    out = {}
    for ti in range(len(triangles(T))):
        for e in tri_edges(T, ti):
            out.setdefault(e, []).append(ti)
    return {e: tuple(ts) for e, ts in out.items()}


def tri_index_by_loop(T):
    """The array fields of the ``Triangulation`` T, by name, built
    triangle by triangle from dicts over ``triangulate_by_loop``, and the
    edge table from ``edge_triangles``."""
    cc = T.base
    LT = loop_triangulation(T)
    a_slot = {e: m for m, e in enumerate(LT.free_edges)}
    b_slot = {k: len(a_slot) + m for m, k in enumerate(LT.v1_vertices)}
    eindex = {e: m for m, e in enumerate(LT.edges)}
    vindex = {v: m for m, v in enumerate(cc.vertices)}
    vc, ec, slots, edge, vert = [], [], [], [], []
    for ti, tri in enumerate(LT.triangles):
        es = tri_edges(T, ti)
        vc.append([vertex_class(cc, v) for v in tri.verts])
        ec.append([LT.edge_class(e) for e in es])
        slots.append([a_slot.get(e, -1) for e in es]
                     + [b_slot.get(v, -1) for v in tri.verts])
        edge.append([eindex[e] for e in es])
        vert.append([vindex[v] for v in tri.verts])
    table = edge_triangles(T)
    edge_tri = [table[e] for e in LT.edges]
    edge_col = [[tri_edges(T, ti).index(e) for ti in table[e]]
                for e in LT.edges]
    return {"vc": np.array(vc), "ec": np.array(ec), "slots": np.array(slots),
            "edge": np.array(edge), "vert": np.array(vert),
            "n_free": len(a_slot) + len(b_slot),
            "edge_tri": np.array(edge_tri), "edge_col": np.array(edge_col),
            "ends": np.array([[vindex[u], vindex[v]] for u, v in LT.edges]),
            "vclass": np.array([vertex_class(cc, v) for v in cc.vertices]),
            "eclass": np.array([LT.edge_class(e) for e in LT.edges])}


# ---------------------------------------------------------------------------
# Scalar layout, the reference of the batched one: per-triangle dicts of
# the kernel's placements, moved one triangle at a time


def circle_intersection_angle(c1, R1, c2, R2, g):
    """Intersection angle of two face circles from their centers and
    radii (inverse of scalar_kernel.dual_edge_length)."""
    h = sk.model_distance(c1, c2, g)
    dR = abs(R1 - R2)
    # half-angle form: stable near tangency (theta near 0 or pi)
    if g == geo.EUCLIDEAN:
        s2 = (R1 + R2 - h) * (R1 + R2 + h)
        c2 = (h - dR) * (h + dR)
    else:
        s2 = math.cosh(R1 + R2) - math.cosh(h)
        c2 = math.cosh(h) - math.cosh(dR)
    return 2 * math.atan2(math.sqrt(max(0.0, s2)),
                          math.sqrt(max(0.0, c2)))


def kernel_placements(T, dt):
    """Per triangle: ({vertex: position}, (center, R)) of the kernel's
    DecoratedTriangles."""
    return [(dict(zip(tri.verts, zs)), (c, R)) for tri, zs, c, R in zip(
        triangles(T), dt.z.tolist(), dt.center.tolist(), dt.R.tolist())]


def glue(T, placed, tis, g):
    """Develop the triangles tis, connected across shared edges, into one
    chart: the first keeps its kernel placement, and each next one is
    moved by one isometry onto a placed neighbour (breadth first,
    least-id edges first).  Returns per triangle its positions and circle
    in the chart."""
    members = set(tis)
    table = edge_triangles(T)
    root = tis[0]
    charts = {root: placed[root]}
    queue = deque([root])
    while queue:
        ti = queue.popleft()
        pos = charts[ti][0]
        vs = triangles(T)[ti].verts
        for e, a, b in sorted((edge_key(vs[m], vs[(m + 1) % 3]),
                               vs[m], vs[(m + 1) % 3]) for m in range(3)):
            o1, o2 = table[e]
            nb = o2 if o1 == ti else o1
            if nb not in members or nb in charts:
                continue
            npos, (c, R) = placed[nb]
            w = next(x for x in npos if x not in e)
            fwd = sk.frame(npos[b], npos[a], g)[0]
            inv = sk.frame(pos[b], pos[a], g)[1]
            charts[nb] = ({a: pos[a], b: pos[b], w: inv(fwd(npos[w]))},
                          (inv(fwd(c)), R))
            queue.append(nb)
    return charts


def pair_theta(T, placed, e, g):
    """theta of edge e = (u, v) from the kernel circles of its two
    triangles, each moved into the frame of e (u at 0, v on the positive
    real axis), where the triangles lie on opposite sides."""
    u, v = e
    circles = []
    for ti in edge_triangles(T)[e]:
        pos, (c, R) = placed[ti]
        circles.append((sk.frame(pos[u], pos[v], g)[0](c), R))
    (c1, R1), (c2, R2) = circles
    return circle_intersection_angle(c1, R1, c2, R2, g)


def develop_by_loop(T, x, g):
    """develop's chart and theta by glue and pair_theta: (charts as
    {triangle: (positions, circle)}, theta)."""
    dt = geo.decorate_surface(T, x, g)
    placed = kernel_placements(T, dt)
    alpha_sum = dict(zip(T.edges, np.bincount(
        T.edge.ravel(), weights=dt.alpha.ravel(),
        minlength=len(T.edges)).tolist()))
    charts = glue(T, placed, range(len(triangles(T))), g)
    theta = {}
    for e in T.edges:
        if e in T.base.e0:
            theta[e] = 0.0
            continue
        th = pair_theta(T, placed, e, g)
        tol = 1e-9 / max(math.sin(alpha_sum[e]), 1e-3)
        if abs(th - alpha_sum[e]) > tol:
            raise InvariantViolation(
                f"edge {e}: circle angle {th} != alpha sum {alpha_sum[e]}")
        theta[e] = th
    return charts, theta


def merge_by_loop(sl):
    """merge_redundant's charts by gluing each fan with glue."""
    T = sl.T
    cc = T.base
    g = sl.geometry
    placed = kernel_placements(T, sl.placed)
    theta = dict(zip(sl.edges, sl.th.tolist()))
    for e in sorted(loop_triangulation(T).e_pi):
        if abs(theta[e] - math.pi) > MERGE_TOL:
            raise NonRedundantDiagonal(f"diagonal {e}: theta = {theta[e]}")
    face_tris = {}
    for ti, tri in enumerate(triangles(T)):
        face_tris.setdefault(tri.face, []).append(ti)
    charts = {}
    for fi, f in enumerate(cc.faces):
        fan = glue(T, placed, face_tris[fi], g)
        pos = {}
        for p, _circle in fan.values():
            pos.update(p)
        c0, R0 = fan[face_tris[fi][0]][1]
        for _p, (c, R) in fan.values():
            if (sk.model_distance(c0, c, g) > 10 * MERGE_TOL
                    or abs(R - R0) > 10 * MERGE_TOL):
                raise NonRedundantDiagonal(
                    f"face {f}: fan circles disagree")
        charts[fi] = {"verts": [(v, pos[v]) for v in f],
                      "circle": (c0, R0)}
    return charts


def delaunay_report_by_loop(sl):
    """``layout.delaunay_report`` from sl's arrays, one edge at a time."""
    return {e: {"theta": t, "is_delaunay": 0.0 <= t < math.pi,
                "is_redundant": abs(t - math.pi) <= MERGE_TOL}
            for e, t in zip(sl.edges, sl.th.tolist())}


def _fmt(x):
    return float(f"{x:.12g}")


def chart_dict(sl):
    """The charts of sl as {key: {"verts": [(vertex id, place)], "circle":
    (center, R)}}, keyed by triangle (unmerged) or base face (merged)."""
    ch = sl.chart
    ids = sl.T.base.vertices
    verts = list(zip(map(ids.__getitem__, ch.vert.tolist()), ch.z.tolist()))
    start = ch.start.tolist()
    return {k: {"verts": verts[start[k]:start[k + 1]], "circle": circle}
            for k, circle in enumerate(zip(ch.center.tolist(),
                                           ch.R.tolist()))}


def layout_to_dict_by_loop(sl):
    """The layout document from chart_dict and sl's per-edge and
    per-vertex arrays, one chart and one rounded number at a time: the
    reference of layout.layout_json."""
    charts = {}
    for key, ch in chart_dict(sl).items():
        c, R = ch["circle"]
        charts[str(key)] = {
            "vertices": [[v, _fmt(z.real), _fmt(z.imag)]
                         for v, z in ch["verts"]],
            "circle": {"center": [_fmt(c.real), _fmt(c.imag)],
                       "radius": _fmt(R)},
        }
    return {
        "layout_version": 1,
        "geometry": sl.geometry,
        "merged": sl.merged,
        "vertices": {str(v): {"radius": _fmt(r), "cone_angle": _fmt(cone)}
                     for v, r, cone in zip(sl.T.base.vertices,
                                           sl.r.tolist(), sl.cone.tolist())},
        "edges": {f"{e[0]}-{e[1]}": {"theta": _fmt(th)}
                  for e, th in zip(sl.edges, sl.th.tolist())},
        "charts": charts,
    }


def demo_angles_by_extract(T, x, g):
    """The angles block of demo as extract_angles gives it: the theta and
    Theta objects of the realized angle data at x."""
    t = solver.extract_angles(T, x, g)
    return {"theta": float_map(key_order(edge_keys(t.theta)),
                               list(t.theta.values())),
            "Theta": float_map(key_order(list(map(str, t.Theta))),
                               list(t.Theta.values()))}


# The splice writers of demo's and render's documents as they were
# before the one-pass writers: each keyed block sorts its own keys,
# the chart vertices go through a \0 split and a join per chart, and
# json_text_by_splice splices the blocks into demo's json.dumps
# skeleton.


@dataclass(frozen=True)
class JsonText:
    """A JSON document already written as json_text_by_splice writes it,
    final newline included; json_text_by_splice places it as a value,
    indented to its depth."""

    text: str


def _dumps_marked(obj, mark):
    """json.dumps's text of obj with the string mark in place of each
    JsonText, and the texts of the JsonTexts in order."""
    blocks = []

    def place(o):
        if not isinstance(o, JsonText):
            raise TypeError(f"{type(o).__name__} is not JSON serializable")
        blocks.append(o.text)
        return mark

    return json.dumps(obj, sort_keys=True, indent=1, default=place), blocks


def json_text_by_splice(obj):
    """``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``, each
    JsonText written as the document it holds.  json.dumps writes a
    marker for each JsonText, lengthened until no other text of obj
    holds it, and each block replaces its marker, its lines indented as
    the marker's."""
    for mark in itertools.accumulate(itertools.repeat("\0")):
        text, blocks = _dumps_marked(obj, mark)
        if len(pieces := text.split(_ESCAPE(mark))) == len(blocks) + 1:
            break
    out = []
    for piece, block in zip(pieces, blocks):
        pad = piece.rpartition("\n")[2].partition('"')[0]
        out += piece, block[:-1].replace("\n", "\n" + pad)
    return "".join(out) + pieces[-1] + "\n"


_CHART_BY_SPLICE = ('  %s: {\n   "circle": {\n    "center": [\n     %s,\n'
                    '     %s\n    ],\n    "radius": %s\n   },\n'
                    '   "vertices": [\n%s\n   ]\n  }')
_CHART_VERTEX_BY_SPLICE = '    [\n     %s,\n     %s,\n     %s\n    ]'
_EDGE_BY_SPLICE = '  %s: {\n   "theta": %s\n  }'
_VERTEX_BY_SPLICE = '  %s: {\n   "cone_angle": %s,\n   "radius": %s\n  }'
_DELAUNAY_BY_SPLICE = (' %s: {\n  "is_delaunay": %s,\n  "is_redundant": %s,'
                       '\n  "theta": %s\n }')


def _object_by_splice(template, keys, *cols, pad=""):
    if not keys:
        return "{}"
    ks, *cs = zip(*sorted(zip(keys, *cols)))
    return ("{\n" + _fill(template, list(zip(map(_ESCAPE, ks), *cs)))
            + "\n" + pad + "}")


def _float_map_by_splice(keys, values):
    return JsonText(_object_by_splice(" %s: %s", keys, number_texts(
        np.asarray(values, float))) + "\n")


def layout_text_by_splice(sl):
    """The layout document as layout_json wrote it before its one-pass
    charts: render's document."""
    ids = sl.T.base.vertices
    ch = sl.chart
    x, y, cx, cy, R, th, cone, r = (number_texts(a, "%.12g") for a in (
        ch.z.real, ch.z.imag, ch.center.real, ch.center.imag, ch.R, sl.th,
        sl.cone, sl.r))
    rows = _fill(_CHART_VERTEX_BY_SPLICE, list(zip(
        map(ids.__getitem__, ch.vert.tolist()), x, y)), "\0").split("\0")
    start = ch.start.tolist()
    blocks = [",\n".join(rows[i:j]) for i, j in zip(start, start[1:])]
    charts = _object_by_splice(_CHART_BY_SPLICE, list(map(str, range(len(R)))),
                               cx, cy, R, blocks, pad=" ")
    edges = _object_by_splice(_EDGE_BY_SPLICE, edge_keys(sl.edges), th,
                              pad=" ")
    verts = _object_by_splice(_VERTEX_BY_SPLICE, list(map(str, ids)), cone, r,
                              pad=" ")
    return (f'{{\n "charts": {charts},\n "edges": {edges},\n'
            f' "geometry": {json.dumps(sl.geometry)},\n'
            f' "layout_version": 1,\n "merged": {json.dumps(sl.merged)},\n'
            f' "vertices": {verts}\n}}\n')


def demo_text_by_splice(sl):
    """demo's document on the layout sl as the splice writer wrote it:
    json_text_by_splice of a dict whose angles, delaunay and layout are
    JsonText blocks."""
    T = sl.T
    th = sl.th
    keys = edge_keys(sl.edges)
    flags = ((0.0 <= th) & (th < math.pi), np.abs(th - math.pi) <= MERGE_TOL)
    delaunay = JsonText(_object_by_splice(_DELAUNAY_BY_SPLICE, keys, *(
        map(("false", "true").__getitem__, f.tolist()) for f in flags),
        number_texts(th)) + "\n")
    e1 = (T.eclass[T.eclass != 2] if sl.merged else T.eclass) == 1
    angles = {"theta": _float_map_by_splice(
                  list(itertools.compress(keys, e1)), sl.asum[e1]),
              "Theta": _float_map_by_splice(list(map(str, T.v1_vertices)),
                                            sl.cone[T.vclass == 1])}
    return json_text_by_splice({
        "demo_version": 1, "geometry": sl.geometry, "angles": angles,
        "delaunay": delaunay, "gauss_bonnet": layout.gauss_bonnet_check(sl),
        "layout": JsonText(layout_text_by_splice(sl))})


# ---------------------------------------------------------------------------
# Boundary traces by link walks, the reference of complexes.boundary_counts


@dataclass(frozen=True)
class BoundaryTrace:
    """Immersed boundary of an admissible domain.

    ``walks`` is a list of closed edge walks; each step is a tuple
    ``(edge_index, from_hat_vertex, to_hat_vertex)``.  ``punctures`` lists
    hat vertices that form isolated boundary points (degenerate walks).
    """

    walks: tuple
    punctures: tuple

    def edge_multiplicities(self):
        mult = {}
        for walk in self.walks:
            for ei, _a, _b in walk:
                mult[ei] = mult.get(ei, 0) + 1
        return mult

    def count_base_vertices(self):
        """|boundary ∩ V|: base-vertex occurrences along the walks, with
        multiplicity; punctures at base vertices count once."""
        n = 0
        for walk in self.walks:
            for _ei, _a, b in walk:
                if b[0] == "v":
                    n += 1
        n += sum(1 for p in self.punctures if p[0] == "v")
        return n


def boundary(h, d, links):
    """Boundary trace of an admissible domain as immersed closed walks;
    ``links`` is ``links_by_scan(h)``."""
    h = hat_reference(h.base)
    # directed boundary incidences: (edge index, triangle index) with the
    # triangle inside the domain and the edge outside
    incidences = set()
    for ti, hf in enumerate(h.hat_faces):
        if not (d.fmask >> ti & 1):
            continue
        for ei in hf.edges:
            if not (d.emask >> ei & 1):
                incidences.add((ei, ti))

    def endpoints(ei):
        kind, data = h.edges[ei]
        if kind == "dual":
            fa, fb = h.base.edge_faces[data]
            return ("f", min(fa, fb)), ("f", max(fa, fb))
        v, fi = data
        return ("v", v), ("f", fi)

    # A directed step is identified with its incidence (ei, ti): for
    # multiplicity-2 edges the two incidences are traversed in opposite
    # directions, so (ei, ti) is a faithful key.  The traversal direction
    # keeps the domain on a fixed side: the head is the endpoint at whose
    # link the triangle ti immediately follows ei in cycle order, and the
    # next incidence is found by rotating at the head from ei through ti
    # to the first edge outside the domain.
    steps = {}
    for ei, ti in incidences:
        a, b = endpoints(ei)
        head = b if _first_step_is(links, b, ei, ti) else a
        tail = a if head == b else b
        nxt = _rotate_to_next(links, d, head, ei, ti)
        steps[(ei, ti)] = (tail, head, nxt)

    visited = set()
    walks = []
    for start in sorted(steps):
        if start in visited:
            continue
        walk = []
        cur = start
        while True:
            visited.add(cur)
            tail, head, nxt = steps[cur]
            walk.append((cur[0], tail, head))
            if nxt == start:
                break
            cur = nxt
        walks.append(tuple(walk))

    punctures = []
    for hv in h.stars:
        i = h.vindex[hv]
        if d.vmask >> i & 1:
            continue
        link = links[hv]
        if link and all(contains_cell(d, k, idx) for k, idx in link):
            punctures.append(hv)

    return BoundaryTrace(walks=tuple(walks), punctures=tuple(sorted(punctures)))


def _first_step_is(links, hv, ei, ti):
    """At hat vertex hv, check that in the link cycle the triangle right
    after edge ei (in forward cycle direction) is ti."""
    link = links[hv]
    n = len(link)
    for p, cell in enumerate(link):
        if cell == ("e", ei):
            return link[(p + 1) % n] == ("t", ti)
    raise AssertionError(f"edge {ei} not in link of {hv}")


def _rotate_to_next(links, d, hv, ei, ti):
    """Rotate around hv starting at edge ei, stepping first onto triangle
    ti, and return the incidence (edge, triangle) of the first edge not in
    the domain.  Returns None when ti is not the immediate neighbor of ei
    in either rotation sense at hv."""
    link = links[hv]
    n = len(link)
    try:
        p = link.index(("e", ei))
    except ValueError:
        return None
    if link[(p + 1) % n] == ("t", ti):
        step = 1
    elif link[(p - 1) % n] == ("t", ti):
        step = -1
    else:
        return None
    q = p + step
    last_tri = ti
    for _ in range(n):
        cell = link[q % n]
        if cell[0] == "t":
            last_tri = cell[1]
        else:
            if not contains_cell(d, "e", cell[1]):
                return (cell[1], last_tri)
        q += step
    raise AssertionError("link rotation did not terminate")


# ---------------------------------------------------------------------------
# build_complex by loops over faces and face pairs, the reference of its
# set and array passes


def face_edges(face):
    n = len(face)
    return [edge_key(face[t], face[(t + 1) % n]) for t in range(n)]


def _ids(x, n=None):
    """x is a list of n (any n when None) integer vertex ids."""
    return (isinstance(x, (list, tuple)) and n in (None, len(x))
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in x))


def build_complex_by_loop(spec):
    """build_complex by loops over faces and face pairs."""
    if not (isinstance(spec, dict)
            and isinstance(spec.get("vertices"), (list, tuple))
            and all(isinstance(item, dict) and _ids([item.get("id")])
                    for item in spec["vertices"])
            and isinstance(spec.get("faces"), (list, tuple))
            and all(_ids(f) for f in spec["faces"])
            and isinstance(spec.get("tangent_edges", []), (list, tuple))
            and all(_ids(p, 2) for p in spec.get("tangent_edges", []))):
        raise IndexMismatch(
            "malformed complex description: expected 'vertices' (objects "
            "with an integer 'id'), 'faces' (lists of vertex ids) and "
            "optional 'tangent_edges' (pairs of vertex ids)")
    raw_vertices = spec["vertices"]
    raw_faces = spec["faces"]
    tangent = spec.get("tangent_edges", [])

    v0, v1 = set(), set()
    seen = set()
    for item in raw_vertices:
        vid = item["id"]
        if vid in seen:
            raise RegularityViolation(f"duplicate vertex id {vid}")
        seen.add(vid)
        circle = item.get("circle", "disk")
        if circle == "disk":
            v1.add(vid)
        elif circle == "point":
            v0.add(vid)
        else:
            raise IndexMismatch(f"unknown circle tag {circle!r} on vertex {vid}")

    faces = []
    for f in raw_faces:
        f = tuple(f)
        if len(f) < 3:
            raise RegularityViolation(f"face {f} has fewer than 3 vertices")
        for a, b in zip(f, f[1:] + f[:1]):
            if a == b:
                raise RegularityViolation(f"loop edge at vertex {a} in face {f}")
        if len(set(f)) != len(f):
            raise RegularityViolation(f"face {f} revisits a vertex")
        for v in f:
            if v not in seen:
                raise IndexMismatch(f"face {f} uses unknown vertex {v}")
        faces.append(f)

    # Each unordered pair must be covered by exactly two face sides.
    fedges = [face_edges(f) for f in faces]
    side_count = {}
    for es in fedges:
        for e in es:
            side_count[e] = side_count.get(e, 0) + 1
    for e, c in side_count.items():
        if c != 2:
            if c > 2:
                raise RegularityViolation(
                    f"edge {e} appears {c} times: parallel edges are not allowed"
                )
            raise NotClosedSurface(f"edge {e} bounds {c} face side(s), expected 2")

    faces = _orient_faces(faces, fedges)

    edges = tuple(sorted(side_count))
    edge_faces = {}
    for fi, f in enumerate(faces):
        n = len(f)
        for t in range(n):
            a, b = f[t], f[(t + 1) % n]
            e = edge_key(a, b)
            pair = edge_faces.setdefault(e, [None, None])
            pair[0 if a < b else 1] = fi
    edge_faces = {e: tuple(p) for e, p in edge_faces.items()}

    # Pairwise face regularity, over the pairs (fi < fj) of faces that
    # meet at a vertex, in lexicographic order.  Orienting a face keeps
    # its vertex and edge sets.
    faces_at = {}
    for fi, f in enumerate(faces):
        for v in f:
            faces_at.setdefault(v, []).append(fi)
    vsets = [set(f) for f in faces]
    esets = [set(es) for es in fedges]
    for fi, f in enumerate(faces):
        for fj in sorted({fj for v in f for fj in faces_at[v] if fj > fi}):
            common = vsets[fi] & vsets[fj]
            if len(common) < 2:
                continue
            shared = esets[fi] & esets[fj]
            if len(shared) > 1:
                raise RegularityViolation(
                    f"faces {faces[fi]} and {faces[fj]} share {len(shared)} edges"
                )
            if len(shared) == 1 and len(common) > 2:
                raise RegularityViolation(
                    f"faces {faces[fi]} and {faces[fj]} share an edge and "
                    f"{len(common)} vertices"
                )
            if not shared:
                raise RegularityViolation(
                    f"faces {faces[fi]} and {faces[fj]} share {len(common)} "
                    "vertices but no edge"
                )

    e0 = set()
    for pair in tangent:
        e = edge_key(*pair)
        if e not in side_count:
            raise IndexMismatch(f"tangent edge {e} is not an edge of the complex")
        for v in e:
            if v in v0:
                raise E0EndpointInV0(f"tangency edge {e} has point vertex {v}")
        e0.add(e)
    e1 = set(edges) - e0

    pos = {v: m for m, v in enumerate(sorted(seen))}
    cc = CellComplex(
        v1=frozenset(v1),
        v0=frozenset(v0),
        faces=tuple(faces),
        edges=edges,
        e0=frozenset(e0),
        e1=frozenset(e1),
        edge_faces=edge_faces,
        face_vert=np.array([pos[v] for f in faces for v in f], int),
        face_start=np.cumsum([0] + [len(f) for f in faces]),
    )
    if cc.chi % 2 != 0 or cc.chi > 2:
        raise NotClosedSurface(f"Euler characteristic {cc.chi} is not that of "
                               "a closed oriented surface")
    _check_connected(cc, fedges)
    _check_vertex_cycles(cc)
    return cc


def _orient_faces(faces, fedges):
    """Flip face cycles so every edge is traversed once in each direction;
    fedges[fi] is face_edges(faces[fi])."""
    sides = {}  # edge -> list of (face index, direction is increasing?)
    for fi, (f, es) in enumerate(zip(faces, fedges)):
        for a, e in zip(f, es):
            sides.setdefault(e, []).append((fi, a == e[0]))
    flip = {}
    for root in range(len(faces)):
        if root in flip:
            continue
        flip[root] = False
        queue = [root]
        while queue:
            fi = queue.pop()
            for e in fedges[fi]:
                (f1, d1), (f2, d2) = sides[e]
                other, dthis, dother = (f2, d1, d2) if f1 == fi else (f1, d2, d1)
                if other == fi:
                    # same face on both sides: the two traversals must already
                    # be opposite, or the gluing is non-orientable
                    if d1 == d2:
                        raise NotClosedSurface(
                            f"non-orientable gluing along edge {e}"
                        )
                    continue
                # consistent orientation requires opposite traversal directions
                want = (dthis == dother) ^ flip[fi]
                if other in flip:
                    if flip[other] != want:
                        raise NotClosedSurface(
                            f"non-orientable gluing along edge {e}"
                        )
                else:
                    flip[other] = want
                    queue.append(other)
    return [tuple(reversed(f)) if flip[fi] else f for fi, f in enumerate(faces)]


def _check_connected(cc, fedges):
    if not cc.faces:
        raise NotClosedSurface("empty complex")
    seen = {0}
    queue = [0]
    while queue:
        fi = queue.pop()
        for e in fedges[fi]:
            for g in cc.edge_faces[e]:
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
    if len(seen) != len(cc.faces):
        raise NotClosedSurface("complex is not connected")


def _check_vertex_cycles(cc):
    """Around each vertex, in id order, its faces must form one cycle,
    walked from face to face across the edges at the vertex."""
    faces_at = {v: [] for v in cc.vertices}
    for fi, f in enumerate(cc.faces):
        for v in f:
            faces_at[v].append(fi)
    for v, around in faces_at.items():
        if not around:
            raise RegularityViolation(f"vertex {v} lies on no face")
        todo, cycles = set(around), 0
        for fi in around:
            cycles += fi in todo
            while fi in todo:
                todo.remove(fi)
                f = cc.faces[fi]
                fa, fb = cc.edge_faces[edge_key(v, f[(f.index(v) + 1)
                                                     % len(f)])]
                fi = fb if fa == fi else fa
        if cycles > 1:
            raise RegularityViolation(
                f"vertex {v} is pinched: its faces form {cycles} cycles")


# ---------------------------------------------------------------------------
# SVG one element at a time, the reference of layout.export_svg

_PATH = ' stroke="#222222" fill="none" stroke-width="1"/>'
_LINE = '<path d="M %.3f %.3f L %.3f %.3f"' + _PATH
_ARC = '<path d="M %.3f %.3f A %.3f %.3f 0 0 %d %.3f %.3f"' + _PATH
_CIRCLE = ('<circle cx="%.3f" cy="%.3f" r="%.3f" fill="none" stroke="%s" '
           'stroke-width="0.8"/>')
_POINT = '<circle cx="%.3f" cy="%.3f" r="2" fill="#cc3333"/>'


def _geodesics_by_loop(z1, z2, g, scale, off):
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    ends = [off + scale * x1, off - scale * y1,
            off + scale * x2, off - scale * y2]
    if g == geo.EUCLIDEAN:
        return list(map(_LINE.__mod__, zip(*(c.tolist() for c in ends))))
    with np.errstate(all="ignore"):
        line = np.abs(x1 * y2 - y1 * x2) < 1e-9
        # solve 2 c . z = |z|^2 + 1 for both points
        a1, b1, c1 = 2 * x1, 2 * y1, np.hypot(x1, y1) ** 2 + 1
        a2, b2, c2 = 2 * x2, 2 * y2, np.hypot(x2, y2) ** 2 + 1
        det = a1 * b2 - a2 * b1
        cx = (c1 * b2 - c2 * b1) / det
        cy = (a1 * c2 - a2 * c1) / det
        dx1, dy1, dx2, dy2 = x1 - cx, y1 - cy, x2 - cx, y2 - cy
        r = np.hypot(dx1, dy1) * scale
        sweep = (dx1 * dy2 - dy1 * dx2 < 0).astype(int)
    return [_LINE % (p, q, u, v) if ln else _ARC % (p, q, rr, rr, sw, u, v)
            for p, q, u, v, rr, sw, ln in zip(
                *(c.tolist() for c in (*ends, r, sweep, line)))]


def _circles_by_loop(z, r, g, scale, off, color):
    if g == geo.HYPERBOLIC:
        with np.errstate(all="ignore"):
            z, r = geo.disk_circle_reps(z, r)
    cols = (off + scale * z.real, off - scale * z.imag, r * scale)
    return [_CIRCLE % (x, y, rr, color)
            for x, y, rr in zip(*(c.tolist() for c in cols))]


def svg_by_loop(sl):
    """The text ``layout.export_svg`` writes of sl, formatted one element
    at a time."""
    g = sl.geometry
    z, c, R = sl.chart.z, sl.chart.center, sl.chart.R
    r = sl.r[sl.chart.vert]
    view = 1000
    if g == geo.EUCLIDEAN:
        margin = max(max(sl.r.tolist(), default=0.0), float(R.max()))
        lo = float(min(z.real.min(), z.imag.min())) - margin
        hi = float(max(z.real.max(), z.imag.max())) + margin
        scale = view / (hi - lo)
        off = -lo * scale
    else:
        scale = view / 2.2
        off = view / 2
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{view}" height="{view}" viewBox="0 0 {view} {view}">',
        f'<rect width="{view}" height="{view}" fill="white"/>',
    ]
    if g == geo.HYPERBOLIC:
        lines.append(
            f'<circle cx="{off}" cy="{off}" r="{scale}" fill="none" '
            'stroke="#cccccc" stroke-width="1"/>')
    # chart edges: each vertex to the next one of its chart
    start = sl.chart.start
    nxt = np.arange(1, len(z) + 1)
    nxt[start[1:] - 1] = start[:-1]
    lines += _geodesics_by_loop(z, z[nxt], g, scale, off)
    lines += _circles_by_loop(c, R, g, scale, off, "#3366cc")
    # vertex circles, and a dot at each point vertex
    dot = r <= 0
    circles = iter(_circles_by_loop(z[~dot], r[~dot], g, scale, off,
                                    "#cc3333"))
    dots = zip((off + scale * z.real).tolist(),
               (off - scale * z.imag).tolist())
    lines += [_POINT % xy if d else next(circles)
              for d, xy in zip(dot.tolist(), dots)]
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
