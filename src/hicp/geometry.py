"""Metric kernel: conversions among tetrahedral coordinates (a, b),
edge-lengths/radii (l, r), and decorated-triangle angles (alpha, beta);
face circles; dual lengths; the surface-level forms of these on arrays.

Per-triangle data is passed as plain 3-tuples in the fixed order
``edges = (ij, jk, ki)``, ``corners = (i, j, k)``; corner ``v`` touches
the edges ``EDGES_AT_CORNER[v]``.  Class tags: vertex class 1 for a
positive-radius circle, 0 for a point circle; edge class 0 for forced
tangency (E0), 1 for a free angle, 2 for a fan diagonal (metrically
identical to 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvariantViolation, NotInTE

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"
GEOMETRIES = (EUCLIDEAN, HYPERBOLIC)

EDGES_AT_CORNER = ((0, 2), (0, 1), (1, 2))
CORNERS_OF_EDGE = ((0, 1), (1, 2), (2, 0))


def check_geometry(g):
    if g not in GEOMETRIES:
        raise DomainError(f"unknown geometry {g!r}")


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
class TriangleAngles:
    alpha: tuple  # per edge, in [0, pi)
    beta: tuple  # per corner, in (0, pi)


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


_FOLD = "a not positive on an edge between two disks"


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
            raise NotInTE(f"edge {m}: {_FOLD}")
    try:
        return triangle_angles(psi(tc_tri, tags, g), tags, g)
    except (DomainError, InvariantViolation) as exc:
        raise NotInTE(str(exc)) from exc


# ---------------------------------------------------------------------------
# Batched kernel


_U, _V = [0, 1, 2], [1, 2, 0]  # the corners of edge m
_W = [2, 0, 1]  # the corner opposite edge m
# the corner angle at v from its edges (EDGES_AT_CORNER) and the opposite
# edge, as decorate passes them to corner_angle
_AB, _AW, _BW = [0, 0, 1], [2, 1, 2], [1, 2, 0]


class DecoratedTriangles(NamedTuple):
    """N decorated triangles, one row each, in decorate's columns: edges
    ij, jk, ki and corners i, j, k."""

    z: np.ndarray  # (N, 3) complex positions, placed as by decorate
    center: np.ndarray  # (N,) complex face-circle centers
    R: np.ndarray  # (N,) face-circle radii
    alpha: np.ndarray  # (N, 3)
    beta: np.ndarray  # (N, 3)
    l: np.ndarray  # (N, 3) edge lengths
    r: np.ndarray  # (N, 3) vertex radii


def _raise_first(fails, exc, tri=None):
    """Raise exc naming the first row (``tri[row]`` when given) that some
    (message, (N,) or (N, 3) mask) fails, and its first such message."""
    bad = [(msg, m.any(axis=1) if m.ndim == 2 else m) for msg, m in fails]
    failed = np.logical_or.reduce([m for _msg, m in bad])
    if failed.any():
        row = int(np.argmax(failed))
        msg = next(msg for msg, m in bad if m[row])
        raise exc(f"triangle {row if tri is None else tri[row]}: {msg}")


def psi_rows(x, vc, ec, g):
    """psi on the rows of decorated_triangles' x, vc, ec, each edge by its
    endpoint classes: (N, 3) lengths l and radii r, and (message, mask)
    pairs failing exactly where psi raises."""
    check_geometry(g)
    a, b = x[:, :3], x[:, 3:]
    disk = vc == 1
    bu, bv = b[:, _U], b[:, _V]
    bm = np.where(vc[:, _U] == 0, bv, bu)  # the disk end of a mixed edge
    fails = []
    with np.errstate(all="ignore"):
        if g == EUCLIDEAN:
            r = np.where(disk, np.exp(-b), 0.0)
            disks = np.sqrt(np.exp(-2 * bu) + np.exp(-2 * bv)
                            + 2 * np.exp(-bu - bv) * np.cosh(a))
            points = np.exp(a / 2)
            mixed = np.sqrt(np.exp(-2 * bm) + np.exp(a - bm))
        else:
            fails.append(("hyperbolic b not positive", disk & ~(b > 0)))
            sh = np.sinh(b)
            r = np.where(disk, np.arcsinh(1.0 / sh), 0.0)
            r[disk & np.isinf(sh)] = np.inf  # psi overflows there
            # edge_length's forms: l = 2 asinh(√((cosh l - 1) / 2))
            disks = 2 * np.arcsinh(np.sqrt(
                (np.cosh(a) + np.cosh(bu - bv))
                / (np.sinh(bu) * np.sinh(bv)) / 2))
            points = 2 * np.arcsinh(np.exp(a / 2))
            mixed = 2 * np.arcsinh(np.sqrt(
                (np.exp(a) + np.exp(-bm)) / np.sinh(bm) / 2))
        l = np.where(ec == 0, r[:, _U] + r[:, _V], np.choose(
            vc[:, _U] + vc[:, _V], (points, mixed, disks)))
    fails.append(("coordinates out of range",
                  ~(np.isfinite(l) & np.isfinite(r))))
    return l, r, fails


def er_failures(l, r, vc, ec):
    """check_er_triangle's conditions on (N, 3) lengths and radii, as
    (message, mask) pairs in its order."""
    disk = vc == 1
    free = ec != 0
    with np.errstate(all="ignore"):
        s = r[:, _U] + r[:, _V]
        scale = 1.0 + l.max(axis=1, keepdims=True)
        return [
            ("radius not positive", disk & (r <= 0.0)),
            ("point circle with nonzero radius", ~disk & (r != 0.0)),
            ("length not positive", ~(l > 0)),
            ("tangency edge with l != r_u + r_v",
             ~free & (np.abs(l - s) > 1e-9 * scale)),
            ("l <= r_u + r_v", free & ~(l > s)),
            ("triangle inequality fails", ~(l < l[:, _V] + l[:, _W])),
        ]


def frames(p, q, g):
    """frame on arrays: the isometries sending each p to 0 and the q of
    the same index onto the positive real axis, and their inverses."""
    if g == EUCLIDEAN:
        u = (q - p) / np.abs(q - p)
        uc = u.conj()
        return (lambda z: (z - p) * uc), (lambda z: p + u * z)
    pc = p.conj()
    u = (q - p) / (1 - pc * q)
    u = u / np.abs(u)
    uc = u.conj()

    def fwd(z):
        return (z - p) / (1 - pc * z) * uc

    def inv(z):
        w = u * z
        return (w + p) / (1 + pc * w)

    return fwd, inv


def disk_circle_reps(z, r):
    """disk_circle_rep on arrays of centers z and radii r."""
    az = np.abs(z)
    rho = 2 * np.arctanh(az)
    t1, t2 = np.tanh((rho - r) / 2), np.tanh((rho + r) / 2)
    u = np.where(az > 0, z / az, 1.0)
    return u * ((t1 + t2) / 2), (t2 - t1) / 2


def _radical_centers(p, rad):
    """radical_center per row of (N, 3) complex centers and radii:
    centers, squared radii and the determinant of the linear solve."""
    x, y = p.real, p.imag
    n0 = x[:, 0] * x[:, 0] + y[:, 0] * y[:, 0]
    a11, a12 = 2 * (x[:, 1] - x[:, 0]), 2 * (y[:, 1] - y[:, 0])
    a21, a22 = 2 * (x[:, 2] - x[:, 0]), 2 * (y[:, 2] - y[:, 0])
    b1 = x[:, 1] ** 2 + y[:, 1] ** 2 - n0 - rad[:, 1] ** 2 + rad[:, 0] ** 2
    b2 = x[:, 2] ** 2 + y[:, 2] ** 2 - n0 - rad[:, 2] ** 2 + rad[:, 0] ** 2
    det = a11 * a22 - a12 * a21
    o = np.empty(len(det), complex)
    o.real = (b1 * a22 - b2 * a12) / det
    o.imag = (a11 * b2 - a21 * b1) / det
    return o, np.abs(o - p[:, 0]) ** 2 - rad[:, 0] ** 2, det


def decorated_triangles(x, vc, ec, g, tri=None):
    """The kernel tetra_angles on N triangles at once, each stage one
    array operation over all rows: psi_rows, er_failures, the corner
    angles, decorate's placement and face circle, and alpha.  x: (N, 6)
    coordinates a_ij, a_jk, a_ki, b_i, b_j, b_k; vc, ec: (N, 3) class
    tags.  Raises NotInTE naming the first failing row (``tri[row]``
    when given) and the first condition it fails, in tetra_angles'
    order."""
    disk = vc == 1
    free = ec != 0
    l, r, psi_fails = psi_rows(x, vc, ec, g)
    fails = [(_FOLD, free & disk[:, _U] & disk[:, _V] & ~(x[:, :3] > 0))]
    fails += psi_fails + er_failures(l, r, vc, ec)
    with np.errstate(all="ignore"):
        lab, law, lbw = l[:, _AB], l[:, _AW], l[:, _BW]
        if g == EUCLIDEAN:
            c = (lab ** 2 + law ** 2 - lbw ** 2) / (2 * lab * law)
            t = l
        else:
            ch, sh = np.cosh(l), np.sinh(l)
            c = ((ch[:, _AB] * ch[:, _AW] - ch[:, _BW])
                 / (sh[:, _AB] * sh[:, _AW]))
            t = np.tanh(l / 2)
        fails.append(("degenerate corner angle", ~((-1.0 < c) & (c < 1.0))))
        beta = np.arccos(c)
        z = np.zeros(l.shape, complex)
        z.real[:, 1] = t[:, 0]
        z.real[:, 2] = t[:, 2] * np.cos(beta[:, 0])
        z.imag[:, 2] = t[:, 2] * np.sin(beta[:, 0])
        if g == EUCLIDEAN:
            center, R2, det = _radical_centers(z, r)
            R = np.sqrt(R2)
        else:
            # the vertex circles' Euclidean representatives in the disk,
            # then rep_to_hyperbolic of their circle
            o, R2, det = _radical_centers(*disk_circle_reps(z, r))
            Re = np.sqrt(R2)
            d = np.abs(o)
            far, near = 2 * np.arctanh(d + Re), 2 * np.arctanh(d - Re)
            center = np.where(d > 0, o / d, 1.0) * np.tanh((far + near) / 4)
            R = (far - near) / 2
        fails += [("vertex-circle centers are collinear", det == 0.0),
                  ("no real orthogonal circle", ~(R2 > 0))]
        if g == HYPERBOLIC:
            fails.append(("face circle leaves the hyperbolic plane",
                          ~(d + Re < 1.0)))
        # alpha from the center w in each edge's frame
        w = frames(z[:, _U], z[:, _V], g)[0](center[:, None])
        if g == EUCLIDEAN:
            c = w.imag / R[:, None]
        else:
            c = 2 * w.imag / (1 - np.abs(w) ** 2) / np.sinh(R)[:, None]
        alpha = np.where(free, np.arccos(np.clip(c, -1.0, 1.0)), 0.0)
        fails.append(("angles not finite",
                      ~(np.isfinite(alpha) & np.isfinite(beta))))
    _raise_first(fails, NotInTE, tri)
    return DecoratedTriangles(z, center, R, alpha, beta, l, r)


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


# ---------------------------------------------------------------------------
# The reference pattern's class lengths


def reference_constants(g):
    """(r_check, eps_check): radius and separation of the reference
    pattern construction."""
    if g == EUCLIDEAN:
        return 1.0, 0.25
    return math.asinh(0.1), math.asinh(0.125)


def reference_length(eclass, g):
    """Length of an edge of class eclass in the reference pattern: 2 r_check
    on E0 (tangent circles), 2 (r_check + eps_check) otherwise."""
    rc, ec = reference_constants(g)
    return 2 * rc if eclass == 0 else 2 * (rc + ec)


# ---------------------------------------------------------------------------
# Surface level.  A coordinate point of T is one vector x in free-variable
# order: a per edge of ``T.free_edges``, then b per vertex of
# ``T.v1_vertices`` (the order of ``tri_index.slots``).  A metric is two
# vectors: l per edge of ``T.edges`` and r per vertex of
# ``T.base.vertices``.


def scatter_rows(T, l, r):
    """Per-edge l and per-vertex r of (F, 3) rows in the columns of
    ``T.tri_index``."""
    ix = T.tri_index
    le, rv = np.empty(len(ix.eclass)), np.empty(len(ix.vclass))
    le[ix.edge], rv[ix.vert] = l, r
    return le, rv


def psi_surface(T, x, g):
    """psi on every triangle of T at once: (l, r), as DomainError; total
    in a."""
    ix = T.tri_index
    l, r, fails = psi_rows(gather_coords(T, x), ix.vc, ix.ec, g)
    _raise_first(fails, DomainError)
    return scatter_rows(T, l, r)


def psi_inv_surface(T, l, r, g):
    """psi_inv on every vertex and edge of T at once, each edge by its
    endpoint classes (inv_radius, inv_edge): the coordinates x.  Raises
    InvariantViolation at a disk with r <= 0 or an edge whose a is not
    defined."""
    check_geometry(g)
    ix = T.tri_index
    disk, free = ix.vclass == 1, ix.eclass != 0
    bad = disk & (r <= 0)
    if bad.any():
        raise InvariantViolation(f"positive-circle vertex with r = "
                                 f"{float(r[np.argmax(bad)])}")
    u, v = ix.ends[:, 0], ix.ends[:, 1]
    cu, cv = ix.vclass[u], ix.vclass[v]
    ru, rv = r[u], r[v]
    rm = np.where(cu == 0, rv, ru)  # the disk end of a mixed edge
    with np.errstate(all="ignore"):
        if g == EUCLIDEAN:
            b = np.where(disk, -np.log(r), 0.0)
            disks = np.arccosh((l * l - ru * ru - rv * rv) / (2 * ru * rv))
            points = 2 * np.log(l)
            mixed = np.log((l * l - rm * rm) / rm)
        else:
            b = np.where(disk, np.arcsinh(1.0 / np.sinh(r)), 0.0)
            bu, bv = b[u], b[v]
            bm = np.where(cu == 0, bv, bu)
            disks = np.arccosh(np.cosh(l) * np.sinh(bu) * np.sinh(bv)
                               - np.cosh(bu) * np.cosh(bv))
            points = 2 * np.log(np.sinh(l / 2))
            mixed = np.log(np.cosh(l) * np.sinh(bm) - np.cosh(bm))
        a = np.choose(cu + cv, (points, mixed, disks))
    undefined = free & ~np.isfinite(a)
    if undefined.any():
        k = int(np.argmax(undefined))
        raise InvariantViolation(
            f"edge {T.edges[k]}: no coordinate a for l = {l[k]}")
    return np.concatenate([a[free], b[disk]])


def check_er_surface(T, l, r, g):
    """check_er_triangle on every triangle of T at once, as DomainError."""
    ix = T.tri_index
    _raise_first(er_failures(l[ix.edge], r[ix.vert], ix.vc, ix.ec),
                 DomainError)


def gather_coords(T, x):
    """(F, 6) per-triangle coordinates in the columns of ``T.tri_index``;
    0 where a coordinate is fixed."""
    return np.append(x, 0.0)[T.tri_index.slots]  # slot -1 reads the 0


def decorate_surface(T, x, g):
    """decorated_triangles on every triangle of T, in triangle order."""
    ix = T.tri_index
    return decorated_triangles(gather_coords(T, x), ix.vc, ix.ec, g)


def in_te(T, x, g):
    """Membership of surface coordinates in the tetrahedral domain: the
    kernel is defined on every triangle."""
    try:
        decorate_surface(T, x, g)
    except NotInTE:
        return False
    return True


def gauge_vector(T):
    """The generator of the Euclidean scaling action on x: the number of
    point-circle endpoints on each a, -1 on each b."""
    ix = T.tri_index
    points = (ix.vclass[ix.ends] == 0).sum(axis=1)[ix.eclass != 0]
    return np.concatenate([points, -np.ones(ix.n_free - len(points))])


def project_gauge(T, x, g):
    """Orthogonal projection of x onto the section
    sum(point-incident a) - sum(b) = 0 of the gauge action
    (hyperbolic: identity)."""
    if g == HYPERBOLIC:
        return x
    c = gauge_vector(T)
    return x - sum((x * c).tolist()) / (c @ c) * c
