"""The reduced angle chart of a decorated triangle and the Schlaefli
volume of its truncated tetrahedron: the volume check of the acceptance
gate (the gradient of the volume in the angles is -1/2 the conjugate
coordinates) and its oracles.  Built on the scalar kernel of
``scalar_kernel``; nothing in the package calls it.
"""

import cmath
import math

import numpy as np

from hicp.errors import HicpError, InvariantViolation, NotInTE
from hicp.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    TriangleAngles,
    check_geometry,
)
from hicp.fixtures import reference_constants, reference_length
from scalar_kernel import (
    CORNERS_OF_EDGE,
    EDGES_AT_CORNER,
    psi_inv,
    tetra_angles,
    triangle_angles,
)


class PathLeavesDomain(HicpError):
    """An integration segment exits the admissible angle region."""


def angles_valid(ta, tags, g):
    """Membership of (alpha, beta) in the admissible angle region of the
    class: interior inequalities strict, class-forced equalities within
    1e-9."""
    for m in range(3):
        a = ta.alpha[m]
        if tags.ec[m] == 0:
            if abs(a) > 1e-9:
                return False
        elif not 0.0 < a < math.pi:
            return False
    for v in range(3):
        if not 0.0 < ta.beta[v] < math.pi:
            return False
        m1, m2 = EDGES_AT_CORNER[v]
        s = ta.beta[v] + ta.alpha[m1] + ta.alpha[m2]
        if tags.vc[v] == 0:
            if abs(s - math.pi) > 1e-9:
                return False
        elif not s < math.pi:
            return False
    sb = sum(ta.beta)
    if g == EUCLIDEAN:
        if abs(sb - math.pi) > 1e-9:
            return False
    elif not sb < math.pi:
        return False
    return True


def reference_er_triangle(tags, g):
    rc = reference_constants(g)[0]
    l3 = tuple(reference_length(tags.ec[m], g) for m in range(3))
    r3 = tuple(rc if tags.vc[v] == 1 else 0.0 for v in range(3))
    return l3, r3


def reference_angles(tags, g):
    return triangle_angles(reference_er_triangle(tags, g), tags, g)


def free_angle_indices(tags, g):
    """(free alpha edge indices, free beta corner indices, dependent
    slots) of the reduced angle chart of the class."""
    free_a = [m for m in range(3) if tags.ec[m] != 0]
    free_b = [v for v in range(3) if tags.vc[v] == 1]
    dep_a = None
    dep_b = None
    if g == EUCLIDEAN:
        if free_b:
            dep_b = free_b[0]
            free_b = free_b[1:]
        else:
            dep_a = free_a[-1]
            free_a = free_a[:-1]
    return tuple(free_a), tuple(free_b), dep_a, dep_b


def reduce_angles(ta, tags, g):
    free_a, free_b, _da, _db = free_angle_indices(tags, g)
    return np.array([ta.alpha[m] for m in free_a]
                    + [ta.beta[v] for v in free_b])


def expand_angles(x, tags, g):
    """Inverse of reduce_angles: fill in the class-forced equalities."""
    free_a, free_b, dep_a, dep_b = free_angle_indices(tags, g)
    alpha = [0.0, 0.0, 0.0]
    beta = [None, None, None]
    na = len(free_a)
    for t, m in enumerate(free_a):
        alpha[m] = float(x[t])
    for t, v in enumerate(free_b):
        beta[v] = float(x[na + t])
    if dep_a is not None:
        alpha[dep_a] = math.pi - sum(alpha[m] for m in free_a)
    for v in range(3):
        if tags.vc[v] == 0:
            m1, m2 = EDGES_AT_CORNER[v]
            beta[v] = math.pi - alpha[m1] - alpha[m2]
    if dep_b is not None:
        beta[dep_b] = math.pi - sum(b for v, b in enumerate(beta)
                                    if v != dep_b)
    return TriangleAngles(alpha=tuple(alpha), beta=tuple(beta))


def _section_project(tc_tri, tags, g):
    """Project one triangle's (a, b) onto the volume section of its
    class: hyperbolic identity; Euclidean with a positive-radius corner
    rescales so the first such b vanishes; the all-point-circle
    Euclidean class rescales so the last a vanishes."""
    a3, b3 = [list(t) for t in tc_tri]
    if g == HYPERBOLIC:
        return tuple(a3), tuple(b3)
    free_a, _fb, dep_a, dep_b = free_angle_indices(tags, g)
    if dep_b is not None:
        t = b3[dep_b]
    else:
        t = -a3[dep_a] / 2
    for m in range(3):
        u, v = CORNERS_OF_EDGE[m]
        a3[m] += t * ((tags.vc[u] == 0) + (tags.vc[v] == 0))
    for v in range(3):
        if tags.vc[v] == 1:
            b3[v] -= t
    return tuple(a3), tuple(b3)


def _euclidean_angles_to_er(ta, tags):
    """Closed-form inverse of triangle_angles for Euclidean classes:
    reconstruct the triangle from its support lines around the unit
    face circle."""
    # outward normal azimuths advance by the exterior angles
    phi = [-math.pi / 2]
    phi.append(phi[0] + (math.pi - ta.beta[1]))
    phi.append(phi[1] + (math.pi - ta.beta[2]))
    lines = []  # (unit outward normal, offset): points x with n.x = c
    for m in range(3):
        n = cmath.exp(1j * phi[m])
        lines.append((n, math.cos(ta.alpha[m])))

    def intersect(m1, m2):
        (n1, c1), (n2, c2) = lines[m1], lines[m2]
        det = n1.real * n2.imag - n1.imag * n2.real
        if abs(det) < 1e-14:
            raise PathLeavesDomain("support lines are parallel")
        x = (c1 * n2.imag - c2 * n1.imag) / det
        y = (n1.real * c2 - n2.real * c1) / det
        return complex(x, y)

    # corner v is the intersection of its two edge lines
    pts = [intersect(*EDGES_AT_CORNER[v]) for v in range(3)]
    l3 = tuple(abs(pts[CORNERS_OF_EDGE[m][1]] - pts[CORNERS_OF_EDGE[m][0]])
               for m in range(3))
    r3 = []
    for v in range(3):
        lam2 = abs(pts[v]) ** 2 - 1.0
        if tags.vc[v] == 0:
            r3.append(0.0)
        else:
            if lam2 <= 0:
                raise PathLeavesDomain("corner fell inside the face circle")
            r3.append(math.sqrt(lam2))
    return l3, tuple(r3)


def _hyperbolic_phi_inv(x, tags, start, J0=None):
    """Newton inversion of the reduced angle map for hyperbolic
    classes: find free (a, b) whose reduced tetra_angles equal x.
    ``J0``: optional Jacobian from a nearby solve, used until it stops
    contracting the residual."""
    free_a = [m for m in range(3) if tags.ec[m] != 0]
    free_b = [v for v in range(3) if tags.vc[v] == 1]
    n = len(free_a) + len(free_b)

    def unpack(z):
        a3 = [0.0, 0.0, 0.0]
        b3 = [0.0, 0.0, 0.0]
        for t, m in enumerate(free_a):
            a3[m] = z[t]
        for t, v in enumerate(free_b):
            b3[v] = z[len(free_a) + t]
        return tuple(a3), tuple(b3)

    def F(z):
        try:
            ta = tetra_angles(unpack(z), tags, HYPERBOLIC)
        except NotInTE:
            return None
        return reduce_angles(ta, tags, HYPERBOLIC) - x

    z = np.array(start, dtype=float)
    f = F(z)
    if f is None:
        raise PathLeavesDomain("start point outside the tetrahedral domain")
    J = J0
    fresh = False
    for _ in range(80):
        fnorm = np.max(np.abs(f))
        if fnorm < 1e-13:
            break
        if J is None:
            fresh = True
            # forward-difference Jacobian, reused while steps contract
            J = np.empty((n, n))
            for m in range(n):
                h = 1e-7 * (1 + abs(z[m]))
                zp = z.copy(); zp[m] += h
                fp = F(zp)
                if fp is None:
                    raise PathLeavesDomain(
                        "finite difference left the domain")
                J[:, m] = (fp - f) / h
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise PathLeavesDomain("singular Jacobian in angle inversion")
        s = 1.0
        while s > 1e-14:
            f_new = F(z + s * step)
            if f_new is not None and np.max(np.abs(f_new)) < fnorm:
                z = z + s * step
                f = f_new
                break
            s *= 0.5
        else:
            if not fresh:
                J = None  # stale Jacobian: rebuild and retry
                continue
            raise PathLeavesDomain("angle inversion stalled")
        if s < 1.0 or np.max(np.abs(f)) > 0.3 * fnorm:
            J = None
            fresh = False
    else:
        raise PathLeavesDomain("angle inversion did not converge")
    return unpack(z), z, J


def phi_inv(ta, tags, g):
    """Tetrahedral coordinates (on the volume section) realizing the
    given decorated-triangle angles."""
    check_geometry(g)
    if not angles_valid(ta, tags, g):
        raise PathLeavesDomain(f"angles {ta} outside the admissible region")
    if g == EUCLIDEAN:
        er = _euclidean_angles_to_er(ta, tags)
        try:
            tc = psi_inv(er, tags, g)
        except InvariantViolation as exc:
            raise PathLeavesDomain(str(exc))
        return _section_project(tc, tags, g)
    x = reduce_angles(ta, tags, g)
    tc, _z, _J = _hyperbolic_phi_inv(x, tags, _hyp_start(tags))
    return tc


def lobachevsky(theta):
    """The Lobachevsky function -int_0^theta log|2 sin t| dt, via its
    standard power series after reduction to |theta| <= pi/2 (odd,
    pi-periodic)."""
    theta = math.fmod(theta, math.pi)
    if theta > math.pi / 2:
        theta -= math.pi
    elif theta < -math.pi / 2:
        theta += math.pi
    if theta == 0.0:
        return 0.0
    sign = 1.0
    if theta < 0:
        theta, sign = -theta, -1.0
    from scipy.special import zeta
    s = theta * (1.0 - math.log(2 * theta))
    q = (theta / math.pi) ** 2
    qn = q
    n = 1
    while True:
        term = zeta(2 * n) / (n * (2 * n + 1)) * qn * theta
        s += term
        if term < 1e-17 * (1 + abs(s)):
            break
        qn *= q
        n += 1
        if n > 400:
            break
    return sign * s


_GAUSS_CACHE = {}


def _gauss_nodes(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    if n not in _GAUSS_CACHE:
        t, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = ((t + 1) / 2, w / 2)
    return _GAUSS_CACHE[n]


IDEAL_REGULAR_VOLUME_ANCHOR = None  # computed lazily


def _ideal_anchor():
    global IDEAL_REGULAR_VOLUME_ANCHOR
    if IDEAL_REGULAR_VOLUME_ANCHOR is None:
        IDEAL_REGULAR_VOLUME_ANCHOR = 3 * lobachevsky(math.pi / 3)
    return IDEAL_REGULAR_VOLUME_ANCHOR


def tetra_volume(ta, tags, g):
    """Volume of the truncated tetrahedron over the decorated triangle,
    by quadrature of the Schlaefli form along a straight segment in the
    reduced angle chart, relative to the per-class reference
    configuration.  The all-point-circle Euclidean class is reported
    absolutely, anchored at the regular ideal tetrahedron."""
    check_geometry(g)
    if not angles_valid(ta, tags, g):
        raise PathLeavesDomain("angles outside the admissible region")
    free_a, free_b, _da, _db = free_angle_indices(tags, g)
    x1 = reduce_angles(ta, tags, g)
    x0 = reduce_angles(reference_angles(tags, g), tags, g)
    dx = x1 - x0
    if not np.any(dx):
        total = 0.0
    else:
        warm_cache = {}

        def integrand(t):
            x = x0 + t * dx
            if g == HYPERBOLIC:
                warm = warm_cache.get("last", _hyp_start(tags))
                (a3, b3), z, J = _hyperbolic_phi_inv(
                    x, tags, warm, warm_cache.get("J"))
                warm_cache["last"] = z
                warm_cache["J"] = J
            else:
                a3, b3 = phi_inv(expand_angles(x, tags, g), tags, g)
            s = sum(a3[m] * dx[i] for i, m in enumerate(free_a))
            s += sum(b3[v] * dx[len(free_a) + i]
                     for i, v in enumerate(free_b))
            return -0.5 * s

        # the integrand is analytic in t, so fixed Gauss-Legendre
        # converges spectrally; the increasing node order also feeds the
        # Newton warm start
        total = sum(w * integrand(t)
                    for t, w in zip(*_gauss_nodes(16)))
    if g == EUCLIDEAN and all(c == 0 for c in tags.vc):
        return total + _ideal_anchor()
    return total


def _hyp_start(tags):
    tc = psi_inv(reference_er_triangle(tags, HYPERBOLIC), tags, HYPERBOLIC)
    free_a = [m for m in range(3) if tags.ec[m] != 0]
    free_b = [v for v in range(3) if tags.vc[v] == 1]
    return [tc[0][m] for m in free_a] + [tc[1][v] for v in free_b]
