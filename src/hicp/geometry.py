"""Metric kernel: conversions among tetrahedral coordinates (a, b),
edge lengths and radii (l, r), and decorated-triangle angles (alpha,
beta), on rows of triangles and on whole surfaces.

The per-triangle kernel is one batched function, ``decorated_triangles``,
which evaluates N triangles in one array pass; ``tetra_angles`` and
``triangle_angles`` are its one-row forms.  Triangle rows follow the
fixed column order ``edges = (ij, jk, ki)``, ``corners = (i, j, k)``;
corner ``v`` touches the two edges that name it.  Class tags: vertex
class 1 for a positive-radius circle, 0 for a point circle; edge class 0
for forced tangency (E0), 1 for a free angle, 2 for a fan diagonal
(metrically identical to 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvariantViolation, NotInTE


EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"
GEOMETRIES = (EUCLIDEAN, HYPERBOLIC)


def check_geometry(g):
    if g not in GEOMETRIES:
        raise DomainError(f"unknown geometry {g!r}")


@dataclass(frozen=True)
class TriangleAngles:
    alpha: tuple  # per edge, in [0, pi)
    beta: tuple  # per corner, in (0, pi)


# ---------------------------------------------------------------------------
# Batched kernel


# edge m joins corners m and _V[m] and faces corner _W[m]; the angle at
# corner v lies between edges _AB[v] and _AW[v] and faces edge _V[v]
_V, _W = np.array([1, 2, 0]), np.array([2, 0, 1])
_AB, _AW = np.array([0, 0, 1]), np.array([2, 1, 2])


class RowClasses(NamedTuple):
    """The kernel's masks of N rows' class tags, (N, 3) in its columns."""

    disk: np.ndarray  # disk corners
    point: np.ndarray  # point corners: on edge m, a mixed edge's point end
    free: np.ndarray  # free edges
    e0: np.ndarray  # tangency edges
    disk_edge: np.ndarray  # edges between two disks
    point_edge: np.ndarray  # edges between two point circles
    fold: np.ndarray  # free edges between two disks
    tangent: bool  # some edge is a tangency edge


def row_classes(vc, ec):
    """The RowClasses of (N, 3) corner classes vc and edge classes ec."""
    disk, free, ends = vc == 1, ec != 0, vc + vc[:, _V]
    return RowClasses(disk, ~disk, free, ~free, ends == 2, ends == 0,
                      free & (ends == 2), not free.all())


class DecoratedTriangles(NamedTuple):
    """N decorated triangles, one row each, in the kernel's columns:
    edges ij, jk, ki and corners i, j, k."""

    z: np.ndarray  # (N, 3) complex positions, placed by decorate_rows
    center: np.ndarray  # (N,) complex face-circle centers
    R: np.ndarray  # (N,) face-circle radii
    alpha: np.ndarray  # (N, 3)
    beta: np.ndarray  # (N, 3)
    l: np.ndarray  # (N, 3) edge lengths
    r: np.ndarray  # (N, 3) vertex radii


def _raise_first(fails, exc, tri=None):
    """Raise exc naming the first row (``tri[row]`` when given) that some
    (message, (N,) or (N, 3) mask) fails, and its first such message."""
    if not np.concatenate([m.ravel() for _msg, m in fails]).any():
        return
    bad = [(msg, m.any(axis=1) if m.ndim == 2 else m) for msg, m in fails]
    row = int(np.argmax(np.logical_or.reduce([m for _msg, m in bad])))
    msg = next(msg for msg, m in bad if m[row])
    raise exc(f"triangle {row if tri is None else tri[row]}: {msg}")


def psi_rows(x, rc, g):
    """psi, the map from tetrahedral coordinates to lengths and radii,
    on the rows of decorated_triangles' x and rc, each edge by its
    endpoint classes; slots fixed by class (a on E0, b on point corners)
    are ignored.  Returns (N, 3) lengths l and radii r, and (message,
    mask) pairs failing where they are undefined."""
    check_geometry(g)
    a, b = x[:, :3], x[:, 3:]
    bu, bv = b, b[:, _V]
    bm = np.where(rc.point, bv, bu)  # the disk end of a mixed edge
    fails = []
    with np.errstate(all="ignore"):
        if g == EUCLIDEAN:
            r = np.where(rc.disk, np.exp(-b), 0.0)
            disks = np.sqrt(np.exp(-2 * bu) + np.exp(-2 * bv)
                            + 2 * np.exp(-bu - bv) * np.cosh(a))
            points = np.exp(a / 2)
            mixed = np.sqrt(np.exp(-2 * bm) + np.exp(a - bm))
        else:
            fails.append(("hyperbolic b not positive", rc.disk & ~(b > 0)))
            sh = np.sinh(b)
            r = np.where(rc.disk, np.arcsinh(1.0 / sh), 0.0)
            # where sinh b overflows, 1 / sinh b alone would read r = 0
            r[rc.disk & np.isinf(sh)] = np.inf
            # l = acosh(x) loses digits near x = 1; take the forms
            # l = 2 asinh(√((cosh l - 1) / 2)) with cosh l - 1 =
            # (cosh a + cosh(bu - bv)) / (sinh bu sinh bv) (two disks)
            # and (e^a + e^-b) / sinh b (one disk)
            disks = 2 * np.arcsinh(np.sqrt(
                (np.cosh(a) + np.cosh(bu - bv))
                / (np.sinh(bu) * np.sinh(bv)) / 2))
            points = 2 * np.arcsinh(np.exp(a / 2))
            mixed = 2 * np.arcsinh(np.sqrt(
                (np.exp(a) + np.exp(-bm)) / np.sinh(bm) / 2))
        l = np.where(rc.disk_edge, disks,
                     np.where(rc.point_edge, points, mixed))
        if rc.tangent:
            l = np.where(rc.e0, r + r[:, _V], l)
    fails.append(("coordinates out of range",
                  ~(np.isfinite(l) & np.isfinite(r))))
    return l, r, fails


def er_gaps(l, r):
    """The gaps of ER's strict inequalities on (N, 3) lengths and radii,
    each an (N, 3) array: l - (r_u + r_v) per edge, and l_v + l_w - l,
    the triangle inequality's, per edge."""
    with np.errstate(all="ignore"):
        return l - (r + r[:, _V]), l[:, _V] + l[:, _W] - l


def er_failures(l, r, rc):
    """The edge-radius invariants on (N, 3) lengths and radii, as
    (message, mask) pairs: r > 0 exactly on disk corners, positive
    lengths, l = r_u + r_v on E0 and l > r_u + r_v otherwise, and strict
    triangle inequalities."""
    gap, tri = er_gaps(l, r)
    with np.errstate(all="ignore"):
        off = rc.e0  # all false without tangency edges
        if rc.tangent:
            scale = 1.0 + l.max(axis=1, keepdims=True)
            off = off & (np.abs(gap) > 1e-9 * scale)
        return [
            ("radius not positive", rc.disk & (r <= 0.0)),
            ("point circle with nonzero radius", rc.point & (r != 0.0)),
            ("length not positive", ~(l > 0)),
            ("tangency edge with l != r_u + r_v", off),
            ("l <= r_u + r_v", rc.free & ~(gap > 0)),
            ("triangle inequality fails", ~(tri > 0)),
        ]


def frames(p, q, g):
    """The isometries sending each p to 0 and the q of the same index
    onto the positive real axis, and their inverses: rigid motions
    (Euclidean) or disk automorphisms (hyperbolic)."""
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
    """Euclidean (center, radius) in the Poincare disk of the hyperbolic
    circles with centers z and radii r >= 0."""
    az = np.abs(z)
    rho = 2 * np.arctanh(az)
    t1, t2 = np.tanh((rho - r) / 2), np.tanh((rho + r) / 2)
    u = np.where(az > 0, z / az, 1.0)
    return u * ((t1 + t2) / 2), (t2 - t1) / 2


def _radical_centers(p, rad):
    """The circle orthogonal to three circles, per row of (N, 3) complex
    centers and radii: centers, squared radii and the determinant of
    the linear solve."""
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


_FOLD = "a not positive on an edge between two disks"


def decorated_triangles(x, rc, g, tri=None):
    """The decorated-triangle kernel on N triangles at once, each stage
    one array operation over all rows: the psi stage (psi_rows and the
    fold check), then decorate_rows from its lengths and radii.  x:
    (N, 6) coordinates a_ij, a_jk, a_ki, b_i, b_j, b_k; rc: the rows'
    RowClasses.  Its domain is the solver's domain TE: raises NotInTE
    naming the first failing row (``tri[row]`` when given) and the first
    condition it fails, in this order: a not positive on a free edge
    between two disks (psi reads a there only through cosh a, so -a
    would give the same triangle), psi_rows' conditions, then
    decorate_rows'."""
    l, r, psi_fails = psi_rows(x, rc, g)
    fold = rc.fold & ~(x[:, :3] > 0)
    return decorate_rows(l, r, rc, g, [(_FOLD, fold)] + psi_fails, tri)


def decorate_rows(l, r, rc, g, fails=(), tri=None, exc=NotInTE):
    """The decoration stage of decorated_triangles from (N, 3) lengths l
    and radii r: er_failures, the corner angles beta, the placement (i
    at the origin, j on the positive real axis, k above it), the face
    circle orthogonal to the three vertex circles, and alpha.  alpha on
    edge m is the angle at the circle-edge intersection between the edge
    and the face circle, measured inside the face circle on the far side
    of the triangle; exactly 0 on E0 edges.  It is read from the center
    w in the edge's frame, where the triangle lies above the real axis:
    cos alpha = Im w / R, or sinh d / sinh R with sinh d =
    2 Im w / (1 - |w|^2) the signed distance of w from the axis
    (hyperbolic).  Raises exc naming the first row that fails a
    condition, the (message, mask) pairs ``fails`` of the stages before
    first."""
    fails = [*fails, *er_failures(l, r, rc)]
    with np.errstate(all="ignore"):
        lab, law, lbw = l[:, _AB], l[:, _AW], l[:, _V]
        if g == EUCLIDEAN:
            c = (lab ** 2 + law ** 2 - lbw ** 2) / (2 * lab * law)
            t = l
        else:
            ch, sh = np.cosh(l), np.sinh(l)
            c = ((ch[:, _AB] * ch[:, _AW] - ch[:, _V])
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
            # then the hyperbolic center and radius of their circle
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
        w = frames(z, z[:, _V], g)[0](center[:, None])
        if g == EUCLIDEAN:
            c = w.imag / R[:, None]
        else:
            c = 2 * w.imag / (1 - np.abs(w) ** 2) / np.sinh(R)[:, None]
        alpha = np.where(rc.free, np.arccos(np.clip(c, -1.0, 1.0)), 0.0)
        fails.append(("angles not finite",
                      ~(np.isfinite(alpha) & np.isfinite(beta))))
    _raise_first(fails, exc, tri)
    return DecoratedTriangles(z, center, R, alpha, beta, l, r)


def tetra_angles(tc_tri, tags, g):
    """decorated_triangles on one triangle: the angles of the
    coordinates ((a_ij, a_jk, a_ki), (b_i, b_j, b_k)) of a triangle with
    class tags ``tags.vc`` (per corner) and ``tags.ec`` (per edge), as
    TriangleAngles.  Raises NotInTE outside TE."""
    a3, b3 = tc_tri
    return _row_angles(decorated_triangles(
        np.array([[*a3, *b3]], float),
        row_classes(np.array([tags.vc]), np.array([tags.ec])), g))


def triangle_angles(er_tri, tags, g):
    """decorate_rows on one triangle: the angles of the lengths and radii
    ((l_ij, l_jk, l_ki), (r_i, r_j, r_k)), as TriangleAngles.  Raises
    InvariantViolation where decorate_rows fails."""
    check_geometry(g)
    l3, r3 = er_tri
    return _row_angles(decorate_rows(
        np.array([l3], float), np.array([r3], float),
        row_classes(np.array([tags.vc]), np.array([tags.ec])), g,
        exc=InvariantViolation))


def _row_angles(dt):
    return TriangleAngles(alpha=tuple(dt.alpha[0].tolist()),
                          beta=tuple(dt.beta[0].tolist()))


# ---------------------------------------------------------------------------
# Surface level.  A coordinate point of T is one vector x in free-variable
# order: a per edge of ``T.free_edges``, then b per vertex of
# ``T.v1_vertices`` (the order of ``T.slots``).  A metric is two
# vectors: l per edge of ``T.edges`` and r per vertex of
# ``T.base.vertices``.


def scatter_rows(T, l, r):
    """Per-edge l and per-vertex r of (F, 3) rows in T's columns."""
    le, rv = np.empty(len(T.eclass)), np.empty(len(T.vclass))
    le[T.edge], rv[T.vert] = l, r
    return le, rv


def psi_surface(T, x, g):
    """psi on every triangle of T at once: (l, r), as DomainError; total
    in a."""
    l, r, fails = psi_rows(gather_coords(x, T.slots), T.rows, g)
    _raise_first(fails, DomainError)
    return scatter_rows(T, l, r)


def psi_inv_surface(T, l, r, g):
    """The inverse of psi on every vertex and edge of T at once, each
    edge by its endpoint classes: the coordinates x.  Raises
    InvariantViolation at a disk with r <= 0 or an edge whose a is not
    defined."""
    check_geometry(g)
    disk, free = T.vclass == 1, T.eclass != 0
    bad = disk & (r <= 0)
    if bad.any():
        raise InvariantViolation(f"positive-circle vertex with r = "
                                 f"{float(r[np.argmax(bad)])}")
    u, v = T.ends[:, 0], T.ends[:, 1]
    cu, cv = T.vclass[u], T.vclass[v]
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
    """er_failures on every triangle of T at once, as DomainError."""
    _raise_first(er_failures(l[T.edge], r[T.vert], T.rows), DomainError)


def gather_coords(x, slots):
    """Per-row coordinates in the columns of rows of ``T.slots``; 0
    where a coordinate is fixed."""
    return np.append(x, 0.0)[slots]  # slot -1 reads the 0


def decorate_surface(T, x, g):
    """decorated_triangles on every triangle of T, in triangle order."""
    return decorated_triangles(gather_coords(x, T.slots), T.rows, g)


def in_te(T, x, g):
    """Membership of surface coordinates in the tetrahedral domain: the
    kernel is defined on every triangle."""
    try:
        decorate_surface(T, x, g)
    except NotInTE:
        return False
    return True


def project_gauge(T, x, g):
    """Orthogonal projection of x onto the section
    sum(point-incident a) - sum(b) = 0 of the gauge action
    (hyperbolic: identity)."""
    if g == HYPERBOLIC:
        return x
    c = T.gauge
    # cumsum adds left to right; sum of floats is compensated from 3.12
    return x - np.cumsum(x * c)[-1].item() / (c @ c) * c
