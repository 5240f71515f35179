"""The scalar decorated-triangle kernel: one triangle at a time, in
plain floats and complex numbers, the tests' reference for the batched
kernel of ``hicp.geometry`` (``decorated_triangles`` and its one-row
forms ``tetra_angles`` and ``triangle_angles``).

Per-triangle data is passed as plain 3-tuples in the fixed order
``edges = (ij, jk, ki)``, ``corners = (i, j, k)``; corner ``v`` touches
the edges ``EDGES_AT_CORNER[v]``.  Class tags (``TriangleTags``): vertex
class 1 for a positive-radius circle, 0 for a point circle; edge class 0
for forced tangency (E0), 1 for a free angle, 2 for a fan diagonal
(metrically identical to 1).  Nothing in the package calls this module.
"""

import cmath
import math
from dataclasses import dataclass

from hicp.errors import DomainError, InvariantViolation, NotInTE
from hicp.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    TriangleAngles,
    check_geometry,
)

EDGES_AT_CORNER = ((0, 2), (0, 1), (1, 2))
CORNERS_OF_EDGE = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class TriangleTags:
    """Class tags of one triangle: vc[corner] in {0,1}, ec[edge] in
    {0,1,2}."""

    vc: tuple
    ec: tuple

    def __post_init__(self):
        for m, c in enumerate(self.ec):
            if c == 0:
                u, v = CORNERS_OF_EDGE[m]
                if self.vc[u] == 0 or self.vc[v] == 0:
                    raise InvariantViolation(
                        "tangency edge with a point-circle endpoint"
                    )


@dataclass(frozen=True)
class FaceCircleData:
    R: float  # face-circle radius (geodesic)
    dist: tuple  # center-to-vertex distances, per corner


# ---------------------------------------------------------------------------
# Psi: tetrahedral coordinates -> edge lengths and radii


def vertex_radius(g, vclass, b):
    if vclass == 0:
        return 0.0
    if g == EUCLIDEAN:
        return math.exp(-b)
    if b <= 0.0:
        raise DomainError(f"hyperbolic b must be positive, got {b}")
    return math.asinh(1.0 / math.sinh(b))


def edge_length(g, eclass, cu, cv, a, bu, bv):
    """Geodesic length of one edge from the tetrahedral coordinates of
    its endpoints."""
    if g == EUCLIDEAN:
        if eclass == 0:
            return math.exp(-bu) + math.exp(-bv)
        if cu == 1 and cv == 1:
            s = (math.exp(-2 * bu) + math.exp(-2 * bv)
                 + 2 * math.exp(-bu - bv) * math.cosh(a))
            return math.sqrt(s)
        if cu == 0 and cv == 0:
            return math.exp(a / 2)
        b = bv if cu == 0 else bu
        return math.sqrt(math.exp(-2 * b) + math.exp(a - b))
    # hyperbolic
    if eclass == 0:
        return vertex_radius(g, 1, bu) + vertex_radius(g, 1, bv)
    if cu == 1 and cv == 1:
        if bu <= 0 or bv <= 0:
            raise DomainError("hyperbolic b must be positive")
        # l = acosh(x) loses digits near x = 1; take l = 2 asinh(√((x-1)/2))
        # with cosh l - 1 = (cosh a + cosh(bu - bv)) / (sinh bu sinh bv)
        x1 = ((math.cosh(a) + math.cosh(bu - bv))
              / (math.sinh(bu) * math.sinh(bv)))
        return 2 * math.asinh(math.sqrt(x1 / 2))
    if cu == 0 and cv == 0:
        return 2 * math.asinh(math.exp(a / 2))
    b = bv if cu == 0 else bu
    if b <= 0:
        raise DomainError("hyperbolic b must be positive")
    # the same form, with cosh l - 1 = (e^a + e^-b) / sinh b
    x1 = (math.exp(a) + math.exp(-b)) / math.sinh(b)
    return 2 * math.asinh(math.sqrt(x1 / 2))


def psi(tc_tri, tags, g):
    """((a_ij, a_jk, a_ki), (b_i, b_j, b_k)) -> ((l...), (r...)).
    Slots fixed by class (a on E0, b on point corners) are ignored."""
    check_geometry(g)
    a3, b3 = tc_tri
    try:
        r3 = tuple(vertex_radius(g, tags.vc[v], b3[v]) for v in range(3))
        l3 = []
        for m in range(3):
            u, v = CORNERS_OF_EDGE[m]
            l3.append(edge_length(g, tags.ec[m], tags.vc[u], tags.vc[v],
                                  a3[m], b3[u], b3[v]))
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"coordinates out of range: {exc}") from exc
    if not all(map(math.isfinite, l3 + list(r3))):
        raise DomainError("coordinates out of range")
    return tuple(l3), r3


def inv_radius(g, vclass, r):
    if vclass == 0:
        return 0.0
    if r <= 0:
        raise InvariantViolation(f"positive-circle vertex with r = {r}")
    if g == EUCLIDEAN:
        return -math.log(r)
    return math.asinh(1.0 / math.sinh(r))


def inv_edge(g, eclass, cu, cv, l, ru, rv, bu, bv):
    if eclass == 0:
        return 0.0
    if g == EUCLIDEAN:
        if cu == 1 and cv == 1:
            return math.acosh((l * l - ru * ru - rv * rv) / (2 * ru * rv))
        if cu == 0 and cv == 0:
            return 2 * math.log(l)
        r = rv if cu == 0 else ru
        return math.log((l * l - r * r) / r)
    if cu == 1 and cv == 1:
        x = (math.cosh(l) * math.sinh(bu) * math.sinh(bv)
             - math.cosh(bu) * math.cosh(bv))
        return math.acosh(x)
    if cu == 0 and cv == 0:
        return 2 * math.log(math.sinh(l / 2))
    b = bv if cu == 0 else bu
    return math.log(math.cosh(l) * math.sinh(b) - math.cosh(b))


def psi_inv(er_tri, tags, g):
    """Inverse of psi on one triangle; validates the edge-radius
    invariants first."""
    check_geometry(g)
    l3, r3 = er_tri
    check_er_triangle(er_tri, tags, g)
    b3 = tuple(inv_radius(g, tags.vc[v], r3[v]) for v in range(3))
    a3 = []
    for m in range(3):
        u, v = CORNERS_OF_EDGE[m]
        a3.append(inv_edge(g, tags.ec[m], tags.vc[u], tags.vc[v],
                           l3[m], r3[u], r3[v], b3[u], b3[v]))
    return tuple(a3), b3


def check_er_triangle(er_tri, tags, g, exc=InvariantViolation):
    """Edge-radius invariants on one triangle: positive lengths, strict
    triangle inequalities, l = r_u + r_v on E0 and l > r_u + r_v
    otherwise, r > 0 exactly on positive-circle corners."""
    l3, r3 = er_tri
    for v in range(3):
        if tags.vc[v] == 1 and r3[v] <= 0.0:
            raise exc(f"corner {v}: radius {r3[v]} not positive")
        if tags.vc[v] == 0 and r3[v] != 0.0:
            raise exc(f"corner {v}: point circle with radius {r3[v]}")
    scale = 1.0 + max(l3)
    for m in range(3):
        u, v = CORNERS_OF_EDGE[m]
        if not l3[m] > 0:
            raise exc(f"edge {m}: length {l3[m]} not positive")
        s = r3[u] + r3[v]
        if tags.ec[m] == 0:
            if abs(l3[m] - s) > 1e-9 * scale:
                raise exc(f"edge {m}: tangency edge with l != r_u + r_v")
        elif not l3[m] > s:
            raise exc(f"edge {m}: l = {l3[m]} <= r_u + r_v = {s}")
    for m in range(3):
        if not l3[m] < l3[(m + 1) % 3] + l3[(m + 2) % 3]:
            raise exc(f"edge {m}: triangle inequality fails for {l3}")


# ---------------------------------------------------------------------------
# Planar placements and face circles


def frame(p, q, g):
    """The isometry sending p to 0 and q onto the positive real axis, and
    its inverse: a rigid motion (Euclidean) or a disk automorphism
    (hyperbolic)."""
    if g == EUCLIDEAN:
        u = (q - p) / abs(q - p)
        uc = u.conjugate()
        return (lambda z: (z - p) * uc), (lambda z: p + u * z)
    pc = p.conjugate()
    u = (q - p) / (1 - pc * q)
    u = u / abs(u)
    uc = u.conjugate()

    def fwd(z):
        return (z - p) / (1 - pc * z) * uc

    def inv(z):
        w = u * z
        return (w + p) / (1 + pc * w)

    return fwd, inv


def place_third(za, zb, l_aw, beta_a, g):
    """Position of the third vertex w: at distance l_aw from a, rotated
    counterclockwise by beta_a from the direction a -> b."""
    t = l_aw if g == EUCLIDEAN else math.tanh(l_aw / 2)
    return frame(za, zb, g)[1](cmath.exp(1j * beta_a) * t)


def place_triangle(l3, beta_i, g):
    """Model-plane positions (complex) of the corners i, j, k: i at the
    origin, j on the positive real axis, k above it at the angle beta_i
    at i."""
    zj = complex(l3[0] if g == EUCLIDEAN else math.tanh(l3[0] / 2), 0.0)
    return 0j, zj, place_third(0j, zj, l3[2], beta_i, g)


def corner_angle(l_ab, l_aw, l_bw, g):
    """Angle at a of the triangle abw from its side lengths (law of
    cosines)."""
    if g == EUCLIDEAN:
        c = (l_ab ** 2 + l_aw ** 2 - l_bw ** 2) / (2 * l_ab * l_aw)
    else:
        c = ((math.cosh(l_ab) * math.cosh(l_aw) - math.cosh(l_bw))
             / (math.sinh(l_ab) * math.sinh(l_aw)))
    if not -1.0 < c < 1.0:
        raise InvariantViolation("degenerate corner angle")
    return math.acos(c)


def disk_circle_rep(z, r):
    """Euclidean (center, radius) representation in the Poincare disk of
    the hyperbolic circle with center z and radius r >= 0."""
    rho = 2 * math.atanh(abs(z))
    t1 = math.tanh((rho - r) / 2)
    t2 = math.tanh((rho + r) / 2)
    u = z / abs(z) if abs(z) > 0 else 1.0 + 0.0j
    return u * ((t1 + t2) / 2), (t2 - t1) / 2


def rep_to_hyperbolic(o, Re):
    """Hyperbolic (center, radius) of the Euclidean circle (o, Re) lying
    inside the Poincare disk."""
    d = abs(o)
    rho_far = 2 * math.atanh(d + Re)
    rho_near = 2 * math.atanh(d - Re)
    u = o / d if d > 0 else 1.0 + 0.0j
    return u * math.tanh((rho_far + rho_near) / 4), (rho_far - rho_near) / 2


def disk_distance(z, w):
    num = abs(z - w)
    den = abs(1 - z.conjugate() * w)
    return 2 * math.atanh(num / den)


def model_distance(z, w, g):
    if g == EUCLIDEAN:
        return abs(z - w)
    return disk_distance(z, w)


def radical_center(points, radii):
    """Center and squared radius of the circle orthogonal to three
    circles (points given as complex or 2-tuples)."""
    ps = [complex(*p) if isinstance(p, tuple) else complex(p) for p in points]
    p0 = ps[0]
    n0 = p0.real * p0.real + p0.imag * p0.imag
    a11 = 2 * (ps[1].real - p0.real)
    a12 = 2 * (ps[1].imag - p0.imag)
    a21 = 2 * (ps[2].real - p0.real)
    a22 = 2 * (ps[2].imag - p0.imag)
    b1 = (ps[1].real ** 2 + ps[1].imag ** 2 - n0
          - radii[1] ** 2 + radii[0] ** 2)
    b2 = (ps[2].real ** 2 + ps[2].imag ** 2 - n0
          - radii[2] ** 2 + radii[0] ** 2)
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise InvariantViolation("vertex-circle centers are collinear")
    o = complex((b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det)
    r2 = abs(o - p0) ** 2 - radii[0] ** 2
    return o, r2


def _disk_face_rep(zs, r3):
    """Euclidean (center, radius) in the Poincare disk of the face circle
    orthogonal to the hyperbolic vertex circles at zs."""
    centers, radii = zip(*(disk_circle_rep(z, r) for z, r in zip(zs, r3)))
    o, Re = circumscribe(centers, radii, EUCLIDEAN)
    if abs(o) + Re >= 1.0:
        raise InvariantViolation("face circle leaves the hyperbolic plane")
    return o, Re


def circumscribe(positions, radii, g):
    """Face circle orthogonal to the three vertex circles of the given
    radii at the given model positions: (center, R) in intrinsic terms,
    so hyperbolic center and radius in the disk model."""
    if g == HYPERBOLIC:
        return rep_to_hyperbolic(*_disk_face_rep(positions, radii))
    o, R2 = radical_center(positions, radii)
    if R2 <= 0:
        raise InvariantViolation("no real orthogonal circle")
    return o, math.sqrt(R2)


def face_circle(er_tri, g):
    """The unique circle orthogonal to the three vertex circles:
    radius R and center-to-vertex distances."""
    check_geometry(g)
    l3, r3 = er_tri
    zs = place_triangle(l3, corner_angle(l3[0], l3[2], l3[1], g), g)
    center, R = circumscribe(zs, r3, g)
    return FaceCircleData(
        R=R, dist=tuple(model_distance(center, z, g) for z in zs))


# ---------------------------------------------------------------------------
# Decorated-triangle angles


def decorate(er_tri, tags, g):
    """The decorated triangle placed once (i at the origin, j on the
    positive real axis, k above it) and its face circle solved once:
    (positions, (center, R), TriangleAngles).  alpha on edge m is the
    angle at the circle-edge intersection between the edge and the face
    circle, measured inside the face circle on the far side of the
    triangle; exactly 0 on E0 edges.  It is read from the center w in
    the edge's frame, where the triangle lies above the real axis:
    cos alpha = Im w / R, or sinh d / sinh R with sinh d =
    2 Im w / (1 - |w|^2) the signed distance of w from the axis
    (hyperbolic)."""
    check_geometry(g)
    l3, r3 = er_tri
    check_er_triangle(er_tri, tags, g)
    betas = tuple(corner_angle(l3[m1], l3[m2], l3[3 - m1 - m2], g)
                  for m1, m2 in EDGES_AT_CORNER)
    zs = place_triangle(l3, betas[0], g)
    center, R = circumscribe(zs, r3, g)
    alphas = []
    for m, (u, v) in enumerate(CORNERS_OF_EDGE):
        if tags.ec[m] == 0:
            alphas.append(0.0)
            continue
        w = frame(zs[u], zs[v], g)[0](center)
        if g == EUCLIDEAN:
            c = w.imag / R
        else:
            c = 2 * w.imag / (1 - abs(w) ** 2) / math.sinh(R)
        alphas.append(math.acos(max(-1.0, min(1.0, c))))
    return zs, (center, R), TriangleAngles(alpha=tuple(alphas), beta=betas)


def triangle_angles(er_tri, tags, g):
    """Angles (alpha per edge, beta per corner) of the decorated
    triangle; see decorate."""
    return decorate(er_tri, tags, g)[2]


def tetra_angles(tc_tri, tags, g):
    """triangle_angles after psi.  Its domain is the solver's domain TE:
    raises NotInTE wherever psi or triangle_angles is undefined, and on a
    free edge between two disks where a is not positive (psi reads a
    there only through cosh a, so -a would give the same triangle).
    The scalar reference of decorated_triangles."""
    a3 = tc_tri[0]
    for m, (u, v) in enumerate(CORNERS_OF_EDGE):
        if (tags.ec[m] != 0 and tags.vc[u] == 1 and tags.vc[v] == 1
                and not a3[m] > 0):
            raise NotInTE(f"edge {m}: a not positive on an edge between two "
                          "disks")
    try:
        return triangle_angles(psi(tc_tri, tags, g), tags, g)
    except (DomainError, InvariantViolation) as exc:
        raise NotInTE(str(exc)) from exc


# ---------------------------------------------------------------------------
# Dual lengths


def dual_edge_length(R, Rp, theta, g):
    """Distance between the centers of two adjacent face circles
    intersecting at angle theta."""
    check_geometry(g)
    # half-angle forms avoid the theta -> pi cancellation
    c2 = math.cos(theta / 2) ** 2
    if g == EUCLIDEAN:
        return math.sqrt((R - Rp) ** 2 + 4 * R * Rp * c2)
    s = (math.sinh((R - Rp) / 2) ** 2
         + math.sinh(R) * math.sinh(Rp) * c2)
    return 2 * math.asinh(math.sqrt(max(0.0, s)))


def vertex_dual_length(R, r, g):
    """Distance from a face-circle center to a vertex of the face
    (orthogonality relation)."""
    check_geometry(g)
    if g == EUCLIDEAN:
        return math.sqrt(R * R + r * r)
    return math.acosh(math.cosh(R) * math.cosh(r))

