"""Built-in test complexes and the reference pattern: the class lengths
of its edges and radii, the face-circle radius solve (omega) of its
polygons, and the pattern itself, whose fan diagonals are measured in
each face's circle."""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import add

import numpy as np

from .errors import DomainError, IndexMismatch
from .geometry import EUCLIDEAN, check_geometry


def grid_torus_spec(n=3, v1=(), e0=()):
    """n x n square-grid torus; v1 lists the disk vertices, e0 the
    tangency edges."""
    faces = []

    def v(r, c):
        return (r % n) * n + (c % n)

    for r in range(n):
        for c in range(n):
            faces.append([v(r, c), v(r, c + 1), v(r + 1, c + 1), v(r + 1, c)])
    verts = [{"id": i, "circle": "disk" if i in set(v1) else "point"}
             for i in range(n * n)]
    return {"vertices": verts, "faces": faces,
            "tangent_edges": [list(e) for e in e0]}


def triangulated_torus_spec(n=3, v1=()):
    """The grid torus with each quad split along the diagonal from its
    first corner; all faces are triangles."""
    faces = []

    def v(r, c):
        return (r % n) * n + (c % n)

    for r in range(n):
        for c in range(n):
            p, q, s, t = (v(r, c), v(r, c + 1), v(r + 1, c + 1), v(r + 1, c))
            faces.append([p, q, s])
            faces.append([p, s, t])
    verts = [{"id": i, "circle": "disk" if i in set(v1) else "point"}
             for i in range(n * n)]
    return {"vertices": verts, "faces": faces}


def genus2_spec(v1=()):
    """Genus-2 surface: two triangulated 3x3 tori, each with the face
    (0,1,4) removed, glued along the boundary triangle.  15 vertices,
    51 edges, 34 faces."""
    base = triangulated_torus_spec(3)["faces"]
    cut = [f for f in base if sorted(f) != [0, 1, 4]]
    # second copy: vertices 0,1,4 shared; remaining six relabeled 9..14
    relabel = {0: 0, 1: 1, 4: 4}
    nxt = 9
    for i in range(9):
        if i not in relabel:
            relabel[i] = nxt
            nxt += 1
    mirrored = [[relabel[i] for i in reversed(f)] for f in cut]
    faces = cut + mirrored
    verts = [{"id": i, "circle": "disk" if i in set(v1) else "point"}
             for i in range(15)]
    return {"vertices": verts, "faces": faces}


def dodecahedron_spec(v1=None):
    """Pentagonal dodecahedron boundary (sphere, 20 vertices, 12
    faces)."""
    faces = [
        [0, 1, 2, 3, 4],
        [0, 5, 10, 6, 1], [1, 6, 11, 7, 2], [2, 7, 12, 8, 3],
        [3, 8, 13, 9, 4], [4, 9, 14, 5, 0],
        [15, 16, 11, 6, 10], [16, 17, 12, 7, 11], [17, 18, 13, 8, 12],
        [18, 19, 14, 9, 13], [19, 15, 10, 5, 14],
        [19, 18, 17, 16, 15],
    ]
    ids = sorted({i for f in faces for i in f})
    if v1 is None:
        v1 = ids  # all disk vertices by default
    verts = [{"id": i, "circle": "disk" if i in set(v1) else "point"}
             for i in ids]
    return {"vertices": verts, "faces": faces}


FIXTURES = {
    "grid-torus": lambda: grid_torus_spec(3),
    "grid-torus-v1": lambda: grid_torus_spec(3, v1=range(9)),
    "tri-torus": lambda: triangulated_torus_spec(3),
    "tri-torus-v1": lambda: triangulated_torus_spec(3, v1=range(9)),
    "genus2": lambda: genus2_spec(),
    "genus2-mixed": lambda: genus2_spec(v1=(2, 5, 7, 11, 14)),
    "dodecahedron": lambda: dodecahedron_spec(),
    "e0-torus": lambda: grid_torus_spec(
        3, v1=range(9),
        e0=[(v, (v + 1) % 3 + 3 * (v // 3)) for v in range(9)]
        + [(v, (v + 3) % 9) for v in range(9)]),
}


def fixture_spec(name):
    try:
        return FIXTURES[name]()
    except KeyError:
        raise DomainError(f"unknown fixture {name!r}; "
                          f"available: {', '.join(sorted(FIXTURES))}")


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


def reference_metric(T, g):
    """The class metric (l, r) of the reference pattern on T: l per edge
    of ``T.edges`` by its class (diagonals as E1), r_check per disk and
    0 per point circle."""
    return (np.where(T.eclass == 0, reference_length(0, g),
                     reference_length(1, g)),
            np.where(T.vclass == 1, reference_constants(g)[0], 0.0))


# ---------------------------------------------------------------------------
# Face-circle radius solve (omega)


def _vertex_distance(g, vclass, x, rc):
    """Distance from the face-circle center to a face vertex, as a
    function of the positive-circle vertex distance x."""
    if vclass == 1:
        return x
    # point vertices sit on the face circle: distance = R with
    # orthogonality R from the positive-circle distance x
    if g == EUCLIDEAN:
        y2 = x * x - rc * rc
        if y2 <= 0:
            raise DomainError("x below the orthogonality bound")
        return math.sqrt(y2)
    c = math.cosh(x) / math.cosh(rc)
    if c <= 1.0:
        raise DomainError("x below the orthogonality bound")
    return math.acosh(c)


def _chord_angle(g, du, dv, L):
    """Angle subtended at the face-circle center by a chord of length L
    whose endpoints are at distances du, dv."""
    if g == EUCLIDEAN:
        c = (du * du + dv * dv - L * L) / (2 * du * dv)
    else:
        c = ((math.cosh(du) * math.cosh(dv) - math.cosh(L))
             / (math.sinh(du) * math.sinh(dv)))
    if c >= 1.0:
        return 0.0
    if c <= -1.0:
        return math.pi
    return math.acos(c)


def face_chords(vclasses, eclasses, g, x):
    """The reference polygon around a face circle at positive-circle
    vertex distance x: the angle each edge subtends at the center, and
    the center-to-vertex distances."""
    rc = reference_constants(g)[0]
    n = len(vclasses)
    dists = [_vertex_distance(g, c, x, rc) for c in vclasses]
    phis = [_chord_angle(g, dists[t], dists[(t + 1) % n],
                         reference_length(eclasses[t], g))
            for t in range(n)]
    return phis, dists


def omega_value(vclasses, eclasses, g, x):
    """Total angle at the face-circle center of the reference polygon,
    as a function of the vertex distance x."""
    # reduce adds left to right; sum of floats is compensated from 3.12
    return reduce(add, face_chords(vclasses, eclasses, g, x)[0])


def _omega_floor(vclasses, eclasses, g):
    """chi_0: the largest x at which some edge chord degenerates (the
    subtended angle reaches pi).  Each edge's bisection stops at the
    first halving that leaves the bracket as it was, since every later
    one would too, and after 200 halvings at most."""
    rc = reference_constants(g)[0]
    n = len(vclasses)
    floor = rc + 1e-15 if any(c == 0 for c in vclasses) else 1e-15
    for t in range(n):
        cu, cv = vclasses[t], vclasses[(t + 1) % n]
        L = reference_length(eclasses[t], g)

        def slack(x):
            du = _vertex_distance(g, cu, x, rc)
            dv = _vertex_distance(g, cv, x, rc)
            return du + dv - L

        lo, hi = floor, floor + 1.0
        while slack(hi) < 0:
            hi += 1.0
        if slack(lo) > 0:
            continue
        for _ in range(200):
            mid = (lo + hi) / 2
            bracket = (mid, hi) if slack(mid) < 0 else (lo, mid)
            if bracket == (lo, hi):
                break
            lo, hi = bracket
        floor = max(floor, hi)
    return floor


def omega_bisect(vclasses, eclasses, g):
    """The unique x with omega(x) = 2 pi, by bisection on the strictly
    decreasing omega over (chi_0, infinity)."""
    lo = _omega_floor(vclasses, eclasses, g)
    hi = lo + 1.0
    while omega_value(vclasses, eclasses, g, hi) > 2 * math.pi:
        lo = hi
        hi += 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if omega_value(vclasses, eclasses, g, mid) > 2 * math.pi:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * (1 + hi):
            break
    return (lo + hi) / 2


def omega_solve(vclasses, eclasses, g):
    """Positive-circle vertex distance x* of the reference polygon's
    face circle.  vclasses: per-vertex class around the face; eclasses:
    per-edge class (edge t joins vertices t, t+1).  Raises DomainError
    when the polygon has no face circle: omega stays off 2 pi."""
    check_geometry(g)
    n = len(vclasses)
    if n < 3 or len(eclasses) != n:
        raise IndexMismatch("face class lists must have equal length >= 3")
    x = omega_bisect(vclasses, eclasses, g)
    if abs(omega_value(vclasses, eclasses, g, x) - 2 * math.pi) > 1e-9:
        raise DomainError(f"no face circle for classes {vclasses} {eclasses}")
    return x


# ---------------------------------------------------------------------------
# Reference pattern construction


def reference_pattern(T, g):
    """(l, r): the edge lengths and radii of the uniform reference
    pattern on the triangulated complex T: base edges carry the class
    length, fan diagonals are measured inside each face's circle
    geometry."""
    check_geometry(g)
    cc = T.base
    l, r = reference_metric(T, g)
    fv, start = cc.face_vert, cc.face_start
    if (np.diff(start) == 3).all():
        return l, r  # no diagonals

    # A diagonal's length depends only on the classes of its face's
    # vertices and sides in face order, the place of the fan's apex in
    # the face and the diagonal's place in the fan: one evaluation per
    # distinct (classes, apex place), in face order.
    nxt = np.arange(1, len(fv) + 1)
    nxt[start[1:] - 1] = start[:-1]
    nv = len(r)
    side = np.searchsorted(T.ends[:, 0] * nv + T.ends[:, 1],
                           np.minimum(fv, fv[nxt]) * nv
                           + np.maximum(fv, fv[nxt]))
    vc, ec = T.vclass[fv].tolist(), T.eclass[side].tolist()
    # each face's first triangle (T.face is sorted)
    apex = T.vert[np.flatnonzero(np.diff(T.face, prepend=-1)), 0]
    at = (np.flatnonzero(fv == np.repeat(apex, np.diff(start)))
          - start[:-1]).tolist()
    chords, lengths, out = {}, {}, []
    bounds = start.tolist()
    for k in np.flatnonzero(np.diff(start) > 3).tolist():
        key = (tuple(vc[bounds[k]:bounds[k + 1]]),
               tuple(ec[bounds[k]:bounds[k + 1]]))
        if (key, at[k]) not in lengths:
            if key not in chords:
                chords[key] = face_chords(*key, g, omega_solve(*key, g))
            lengths[key, at[k]] = _diagonal_lengths(*chords[key], at[k], g)
        out += lengths[key, at[k]]
    l[T.edge[:, 0][T.eclass[T.edge[:, 0]] == 2]] = out  # in fan order
    return l, r


def _diagonal_lengths(phis, dists, a, g):
    """The lengths of the diagonals from vertex a of a face to each
    vertex it does not border, in fan order, in the face's reference
    polygon (``face_chords``)."""
    n, du = len(dists), dists[a]
    # angular position of each face vertex around the face circle
    psi = list(itertools.accumulate(phis[:n - 1], initial=0.0))
    out = []
    for w in ((a + t) % n for t in range(2, n - 1)):
        dw, c = dists[w], math.cos(abs(psi[a] - psi[w]))
        out.append(math.sqrt(du * du + dw * dw - 2 * du * dw * c)
                   if g == EUCLIDEAN else
                   math.acosh(math.cosh(du) * math.cosh(dw)
                              - math.sinh(du) * math.sinh(dw) * c))
    return out
