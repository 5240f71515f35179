"""Combinatorial core: cell complexes on closed oriented surfaces, fan
triangulations, the corner subdivision of the dual complex, and the
admissible-domain machinery used by the angle-data feasibility checker.

Conventions
-----------
Vertices are integer ids.  An edge is a sorted pair ``(i, j)`` with
``i < j``.  A face is a cyclic tuple of distinct vertex ids; after
validation all face cycles are oriented consistently, so every edge is
traversed once in each direction.

Vertex classes: ``V1`` vertices carry a circle of positive radius,
``V0`` vertices carry a point circle.  Edge classes: ``E0`` edges force
tangency of the endpoint circles, ``E1`` edges carry a free
intersection angle, ``E_pi`` edges are the fan diagonals added by
``triangulate`` (target angle pi).
"""

from __future__ import annotations

import itertools
from itertools import compress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from .errors import (
    CapExceeded,
    E0EndpointInV0,
    IndexMismatch,
    NotClosedSurface,
    RegularityViolation,
)


def edge_key(i, j):
    return (i, j) if i < j else (j, i)


def _id_pairs(ids, ends):
    """The id pairs of the rows of ends, positions in the list ids."""
    lo, hi = ends.T.tolist()
    return tuple(zip(map(ids.__getitem__, lo), map(ids.__getitem__, hi)))


# ---------------------------------------------------------------------------
# CellComplex


@dataclass(frozen=True, eq=False)
class CellComplex:
    """A validated geodesic-cell-complex combinatorics on a closed
    oriented surface, as arrays over the positions of its vertices in
    ``vertices`` and of its edges, sorted by their ends.  The id views
    (``faces``, ``edges`` and the class sets) are built on first read."""

    vertices: list  # the vertex ids, sorted
    vclass: np.ndarray  # (V,) 1 for a disk (V1), 0 for a point circle (V0)
    # the consistently oriented faces as one array of vertex positions:
    # face k is face_vert[face_start[k]:face_start[k + 1]]
    face_vert: np.ndarray
    face_start: np.ndarray
    ends: np.ndarray  # (E, 2) per edge, sorted: its lower and upper end
    eclass: np.ndarray  # (E,) 0 for E0, 1 for E1
    # (E, 2) per edge: the face that traverses it from its lower end to
    # its upper end, then the face that traverses it back
    edge_face: np.ndarray

    @cached_property
    def faces(self):
        """The faces as cyclic tuples of vertex ids."""
        fv = list(map(self.vertices.__getitem__, self.face_vert.tolist()))
        s = self.face_start.tolist()
        return tuple(tuple(fv[a:b]) for a, b in zip(s, s[1:]))

    @cached_property
    def edges(self):
        """The edges as sorted id pairs, sorted."""
        return _id_pairs(self.vertices, self.ends)

    @cached_property
    def v1(self):
        return frozenset(compress(self.vertices, self.vclass.tolist()))

    @cached_property
    def v0(self):
        return frozenset(self.vertices) - self.v1

    @cached_property
    def e0(self):
        return frozenset(compress(self.edges, (self.eclass == 0).tolist()))

    @cached_property
    def e1(self):
        return frozenset(self.edges) - self.e0

    @property
    def chi(self):
        return len(self.vertices) - len(self.ends) + len(self.face_start) - 1


def _int_lists(seqs, n=None):
    """Every item of seqs is a list or tuple of integer vertex ids (n of
    them when n is given)."""
    return (all(issubclass(t, (list, tuple)) for t in set(map(type, seqs)))
            and (n is None or set(map(len, seqs)) <= {n})
            and all(issubclass(t, int) and not issubclass(t, bool)
                    for t in set(map(type, itertools.chain.from_iterable(
                        seqs)))))


def _check_face(f, seen):
    """Raise at the first fault of face f over the vertex ids seen."""
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


def stable_argsort(key):
    """np.argsort(key, kind="stable") of the 1-d int array key >= 0, by
    one default-kind (SIMD) sort of key * n + position, n = len(key),
    which is 4x faster than the stable sort.  Where that code could pass
    the int64 range, the stable argsort itself."""
    n = len(key)
    if not n or (int(key.max()) + 1) * n > 2 ** 63:
        return np.argsort(key, kind="stable")
    return np.sort(key * n + np.arange(n)) % n


def unique_index(key):
    """np.unique(key, return_index=True, return_inverse=True,
    return_counts=True) of the 1-d int array key >= 0, from its
    stable_argsort."""
    order = stable_argsort(key)
    s = key[order]
    new = np.ones(len(s), bool)
    new[1:] = s[1:] != s[:-1]
    group = np.cumsum(new) - 1
    inverse = np.empty_like(group)
    inverse[order] = group
    return s[new], order[new], inverse, np.bincount(group)


def _positions(keys, x):
    """The positions in the sorted array keys of the entries of x, and
    where each is one of keys."""
    at = np.searchsorted(keys, x)
    known = at < len(keys)
    known[known] = keys[at[known]] == x[known]
    return at, known


def build_complex(spec):
    """Validate a raw cell description (parsed JSON dict) and derive the
    edge set.  See the module docstring for the conventions.  Vertices,
    faces, sides, face pairs and tangent edges are checked by array
    passes over vertex positions and edge codes; each check raises at its
    first violation in input order."""
    if not (isinstance(spec, dict)
            and isinstance(spec.get("vertices"), (list, tuple))
            and all(issubclass(t, dict)
                    for t in set(map(type, spec["vertices"])))
            and _int_lists([[item.get("id") for item in spec["vertices"]]])
            and isinstance(spec.get("faces"), (list, tuple))
            and _int_lists(spec["faces"])
            and isinstance(spec.get("tangent_edges", []), (list, tuple))
            and _int_lists(spec.get("tangent_edges", []), 2)):
        raise IndexMismatch(
            "malformed complex description: expected 'vertices' (objects "
            "with an integer 'id'), 'faces' (lists of vertex ids) and "
            "optional 'tangent_edges' (pairs of vertex ids)")

    ids = [item["id"] for item in spec["vertices"]]
    circles = [item.get("circle", "disk") for item in spec["vertices"]]
    seen = set(ids)
    if (len(seen) < len(ids)
            or circles.count("disk") + circles.count("point") < len(ids)):
        seen = set()
        for vid, circle in zip(ids, circles):
            if vid in seen:
                raise RegularityViolation(f"duplicate vertex id {vid}")
            seen.add(vid)
            if circle not in ("disk", "point"):
                raise IndexMismatch(
                    f"unknown circle tag {circle!r} on vertex {vid}")
    faces, tangent = spec["faces"], spec.get("tangent_edges", [])
    lists = ids, list(itertools.chain.from_iterable(faces)), tangent
    try:
        vid, fid, tid = (np.array(x, np.int64) for x in lists)
    except OverflowError:  # an id beyond int64
        vid, fid, tid = (np.array(x, object) for x in lists)
    order = np.argsort(vid)  # the ids are distinct
    keys, V = vid[order], len(ids)
    verts = keys.tolist()
    vclass = np.array([c == "disk" for c in circles], int)[order]

    # one row per face side: side s of face face[s] runs from vertex
    # position p[s] to q[s]
    F = len(faces)
    sizes = np.fromiter(map(len, faces), int, F)
    face = np.repeat(np.arange(F), sizes)
    p, known = _positions(keys, fid)
    # sides by vertex, faces ascending: a face that revisits a vertex
    # holds two neighbours
    at = stable_argsort(p)
    pa, fa = p[at], face[at]
    if (sizes.min(initial=3) < 3 or not known.all()
            or ((pa[1:] == pa[:-1]) & (fa[1:] == fa[:-1])).any()):
        for f in faces:
            _check_face(tuple(f), seen)
    start = np.concatenate([[0], np.cumsum(sizes)])
    N = int(start[-1])
    nxt = np.arange(1, N + 1)
    nxt[start[1:] - 1] = start[:-1]
    q = p[nxt]
    lo, hi = np.minimum(p, q), np.maximum(p, q)

    def pair(s):  # the ids of the edge of side s
        return verts[lo[s]], verts[hi[s]]

    # Each unordered pair must be covered by exactly two face sides; the
    # first violation is at the edge that appears first.
    code, first, edge, count = unique_index(lo * V + hi)
    if (count != 2).any():
        s = int(first[count != 2].min())
        c = int(count[edge[s]])
        if c > 2:
            raise RegularityViolation(f"edge {pair(s)} appears {c} times: "
                                      "parallel edges are not allowed")
        raise NotClosedSurface(
            f"edge {pair(s)} bounds {c} face side(s), expected 2")
    sides = stable_argsort(edge).reshape(-1, 2)
    opp = np.empty(N, int)
    opp[sides] = sides[:, ::-1]
    up = p < q
    flip, n_parts = _orient_faces(start.tolist(), face[opp].tolist(),
                                  (up == up[opp]).tolist(), pair)
    side = np.arange(N)
    rev = np.array(flip, bool)[face]
    side[rev] = (start[face] + start[face + 1] - 1 - side)[rev]

    # Pairwise face regularity, over the pairs (fi < fj) of faces that
    # meet in at least two vertices, in lexicographic order: they must
    # share exactly one edge and no further vertex.  Orienting a face
    # keeps its vertex and edge sets.
    later = np.searchsorted(pa, pa, side="right") - np.arange(N) - 1
    left = np.repeat(np.arange(N), later)
    right = (left + 1 + np.arange(len(left))
             - np.repeat(np.cumsum(later) - later, later))
    pairs, common = np.unique(fa[left] * F + fa[right], return_counts=True)
    f1, f2 = np.sort(face[sides], axis=1).T
    cross = f1 != f2
    shared = np.bincount(np.searchsorted(pairs, f1[cross] * F + f2[cross]),
                         minlength=len(pairs))
    bad = (common >= 2) & ~((shared == 1) & (common == 2))
    if bad.any():
        k = int(np.argmax(bad))
        face_i, face_j = (tuple(faces[f])[::-1] if flip[f] else
                          tuple(faces[f]) for f in divmod(int(pairs[k]), F))
        n_v, n_e = int(common[k]), int(shared[k])
        what = (f"share {n_e} edges" if n_e > 1
                else f"share an edge and {n_v} vertices" if n_e
                else f"share {n_v} vertices but no edge")
        raise RegularityViolation(f"faces {face_i} and {face_j} {what}")

    # Each tangent edge, in input order, must be an edge with no point
    # vertex at either end.
    eclass = np.ones(len(code), int)
    if tangent:
        t, known = _positions(keys, tid.reshape(-1, 2))
        e0, is_edge = _positions(code, np.sort(t, axis=1) @ [V, 1])
        is_edge &= known.all(axis=1)
        if not (is_edge.all() and vclass[t].all()):
            for pair, ok in zip(tangent, is_edge.tolist()):
                e = edge_key(*pair)
                if not ok:
                    raise IndexMismatch(
                        f"tangent edge {e} is not an edge of the complex")
                for v in e:
                    if circles[ids.index(v)] == "point":
                        raise E0EndpointInV0(
                            f"tangency edge {e} has point vertex {v}")
        eclass[e0] = 0

    # per edge: the face traversing it upward, then the other
    up1 = up[sides[:, 0]] != rev[sides[:, 0]]
    cc = CellComplex(
        vertices=verts, vclass=vclass, face_vert=p[side], face_start=start,
        ends=np.stack([lo[first], hi[first]], axis=1), eclass=eclass,
        edge_face=np.where(up1[:, None], face[sides], face[sides[:, ::-1]]))
    if cc.chi % 2 != 0 or cc.chi > 2:
        raise NotClosedSurface(f"Euler characteristic {cc.chi} is not that of "
                               "a closed oriented surface")
    if not F:
        raise NotClosedSurface("empty complex")
    if n_parts > 1:
        raise NotClosedSurface("complex is not connected")

    # The corners at each vertex must form one cycle.  Corner c is the
    # oriented side c, which starts at the vertex; the next corner around
    # it follows the side across from c in that side's face.  In the
    # oriented faces, side k of a reversed face lies on the edge of the
    # side before side[k].  Each cycle is labelled by its least corner,
    # by pointer doubling.
    prv = np.empty(N, int)
    prv[nxt] = np.arange(N)
    across = stable_argsort(edge[np.where(rev, prv[side], side)]).reshape(
        -1, 2)
    step = np.empty(N, int)
    step[across] = nxt[across[:, ::-1]]
    label = np.arange(N)
    for _ in range(int(np.bincount(cc.face_vert).max() - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    cycles = np.bincount(cc.face_vert[label == np.arange(N)],
                         minlength=len(verts))
    if (cycles != 1).any():
        m = int(np.argmax(cycles != 1))
        raise RegularityViolation(
            f"vertex {verts[m]} lies on no face" if not cycles[m] else
            f"vertex {verts[m]} is pinched: its faces form {cycles[m]} cycles")
    return cc


def _orient_faces(start, other, same, pair):
    """Per face whether to reverse its cycle so that every edge is
    traversed once in each direction, and the number of connected parts.
    Face k has the sides start[k]:start[k + 1]; the other side of the
    edge pair(s) of side s lies in face other[s], and same[s] tells
    whether both sides traverse it the same way.  Each part is
    walked depth first from its least face, which keeps its direction."""
    flip = [None] * (len(start) - 1)
    n_parts = 0
    for root in range(len(flip)):
        if flip[root] is not None:
            continue
        n_parts += 1
        flip[root] = False
        stack = [root]
        while stack:
            fi = stack.pop()
            for s in range(start[fi], start[fi + 1]):
                o, want = other[s], same[s] != flip[fi]
                if o == fi:
                    # both sides in one face: they must already be opposite
                    bad = same[s]
                elif flip[o] is None:
                    flip[o] = want
                    stack.append(o)
                    continue
                else:
                    bad = flip[o] != want
                if bad:
                    raise NotClosedSurface(
                        f"non-orientable gluing along edge {pair(s)}")
    return flip, n_parts


# ---------------------------------------------------------------------------
# Triangulation


@dataclass(frozen=True, eq=False)
class Triangulation:
    """The fan triangulation of a cell complex as integer arrays, built
    by ``triangulate``: (F, 3) or (F, 6), one row per triangle, (E, 2)
    or (E,), one row per edge of ``edges``, and (V,), one per vertex of
    ``base.vertices``, which vertex positions index.  Triangle columns
    follow the kernel's order: edges ij, jk, ki and corners i, j, k.
    The id views are derived once."""

    base: CellComplex
    vert: np.ndarray  # (F, 3), oriented like the parent face
    edge: np.ndarray  # (F, 3) positions in ``edges``
    face: np.ndarray  # (F,) index of the parent face in the base complex
    ends: np.ndarray  # (E, 2) lower and upper vertex position
    eclass: np.ndarray  # (E,) 0 for E0, 1 for E1, 2 for the fan diagonals
    vclass: np.ndarray  # (V,) 1 for a disk, 0 for a point circle
    vc: np.ndarray  # (F, 3) corner classes
    ec: np.ndarray  # (F, 3) edge classes
    # (F, 6) position of a_ij, a_jk, a_ki, b_i, b_j, b_k in the
    # free-variable order (``free_edges``, then ``v1_vertices``); -1
    # where fixed (a on E0, b on a point circle)
    slots: np.ndarray
    n_free: int  # number of free variables
    # (E, 2) per edge: its two triangles, the lesser first, and its
    # column in each
    edge_tri: np.ndarray
    edge_col: np.ndarray

    @cached_property
    def edges(self):
        """All edges of T, sorted."""
        return _id_pairs(self.base.vertices, self.ends)

    @cached_property
    def edge_keys(self):
        """The "u-v" key of each edge of ``edges``, as solve writes it."""
        ids = self.base.vertices
        return ("%d-%d\n" * len(self.ends) % tuple(
            map(ids.__getitem__, self.ends.ravel().tolist()))).split()

    @cached_property
    def free_edges(self):
        """Edges carrying an `a` coordinate, sorted: E1 then diagonals."""
        return tuple(compress(self.edges, (self.eclass != 0).tolist()))

    @cached_property
    def v1_vertices(self):
        return tuple(compress(self.base.vertices, self.vclass.tolist()))

    @cached_property
    def free_slots(self):
        """The flat positions of the free slots in ``slots``, row-major,
        and their free variables."""
        at = np.flatnonzero(self.slots >= 0)
        return at, self.slots.ravel()[at]

    @cached_property
    def gauge(self):
        """The generator of the Euclidean scaling action on x, read-only:
        the number of point-circle endpoints on each a, -1 on each b."""
        points = (self.vclass[self.ends] == 0).sum(axis=1)[self.eclass != 0]
        c = np.concatenate([points, -np.ones(self.n_free - len(points))])
        c.flags.writeable = False
        return c

    @cached_property
    def rows(self):
        """The kernel's RowClasses of T's triangles."""
        return geo.row_classes(self.vc, self.ec)

    @cached_property
    def difference_plan(self):
        """Index arrays of ``solver.hessian_U``'s kernel call: triangle
        t and slot k per difference; per row (one per difference, then
        each triangle once) its triangle, its slots and, for all rows,
        their RowClasses; the flat positions in D of the derivatives
        that land in H, and in H."""
        S, n = self.slots, self.n_free
        t, k = np.nonzero(S >= 0)
        tri = np.concatenate([t, np.arange(len(S))])
        keep = np.flatnonzero(S[t] >= 0)
        cell = (S[t] * n + S[t, k][:, None]).ravel()[keep]
        return (t, k, tri, S[tri],
                geo.row_classes(self.vc[tri], self.ec[tri]), keep, cell)


def triangulate(cc):
    """Fan each face of cc from its least vertex, by array passes over
    its vertex positions: a face of n vertices gives n - 2 triangles and
    n - 3 diagonals.  Raises RegularityViolation at the first diagonal,
    in face and fan order, that is a base edge or an earlier diagonal,
    and at the first edge that does not lie in two triangles."""
    fv, start = cc.face_vert, cc.face_start
    sizes = np.diff(start)
    # triangle t = 1 .. n - 2 of a face: its least vertex (positions are
    # sorted like ids) and the vertices t and t + 1 after it
    apex = np.flatnonzero(fv == np.repeat(
        np.minimum.reduceat(fv, start[:-1]), sizes)) - start[:-1]
    face = np.repeat(np.arange(len(sizes)), sizes - 2)
    first_row = start[:-1] - 2 * np.arange(len(sizes))
    t, n = np.arange(len(face)) + 1 - first_row[face], sizes[face]
    turn = np.stack([0 * t, t, t + 1], axis=1) + apex[face, None]
    vert = fv[start[face, None] + turn % n[:, None]]

    nv, ids = len(cc.vertices), cc.vertices
    heads = vert[:, [1, 2, 0]]
    code, first, edge, count = unique_index(
        (np.minimum(vert, heads) * nv + np.maximum(vert, heads)).ravel())
    edge = edge.reshape(-1, 3)
    ends = np.stack([code // nv, code % nv], axis=1)

    # the face sides are edge jk of every triangle, ij of a fan's first
    # and ki of its last; each diagonal is ij of one triangle
    base = np.zeros(len(code), bool)
    base[edge[np.stack([t == 1, t > 0, t == n - 2], axis=1)]] = True
    diag = edge[t >= 2, 0]
    bad = np.ones(len(diag), bool)
    bad[unique_index(diag)[1]] = False
    bad |= base[diag]
    if bad.any():
        k = int(np.argmax(bad))
        d, f = _id_pairs(ids, ends[diag[[k]]])[0], cc.faces[face[t >= 2][k]]
        raise RegularityViolation(
            f"fan diagonal {d} of face {f} collides with a base edge"
            if base[diag[k]] else f"fan diagonal {d} produced twice")
    if (count != 2).any():
        k = edge.ravel()[first[count != 2].min()]
        e = _id_pairs(ids, ends[[k]])[0]
        raise RegularityViolation(f"edge {e} lies in {count[k]} triangles")

    # the base edges are cc's, in the same (sorted) order
    eclass, vclass = np.full(len(code), 2), cc.vclass
    eclass[base] = cc.eclass
    free, disk = eclass != 0, vclass == 1
    n_a = int(free.sum())
    a_slot = np.where(free, np.cumsum(free) - 1, -1)
    b_slot = np.where(disk, n_a + np.cumsum(disk) - 1, -1)
    # each edge's two (row, column) cells, the lesser row first
    cells = stable_argsort(edge.ravel()).reshape(-1, 2)
    return Triangulation(
        base=cc, vert=vert, edge=edge, face=face, ends=ends, eclass=eclass,
        vclass=vclass, vc=vclass[vert], ec=eclass[edge],
        slots=np.concatenate([a_slot[edge], b_slot[vert]], axis=1),
        n_free=n_a + int(disk.sum()), edge_tri=cells // 3,
        edge_col=cells % 3)


# ---------------------------------------------------------------------------
# Hat triangulation (corner subdivision of the dual complex)


@dataclass(frozen=True, eq=False)
class HatTriangulation:
    """The corner subdivision of the dual complex of ``base``, built by
    ``hat_complex``.  Hat vertex k < V is base vertex k (a position in
    ``base.vertices``) and V + f is the center of face f.  Hat edge
    e < E is the dual of base edge e (a position in ``base.edges``); the
    corner edges follow, face by face, each face's vertices in id order.
    Hat face 2 e + j straddles base edge e at its j-th end.  A cell row
    holds one little-endian bit per hat cell: the vertices, then the
    edges, then the faces."""

    base: CellComplex
    star_rows: np.ndarray  # (V + F, bytes) per hat vertex: its open star
    # per hat edge, its two hat vertices: a dual edge joins two centers, a
    # corner edge a base vertex, then a center.  Two open stars share a
    # cell exactly when a hat edge joins their vertices, and no two hat
    # edges join the same two
    edge_ends: np.ndarray

    @cached_property
    def vertices(self):
        """The hat vertices by name: ("v", id), then ("f", face index)."""
        return ([("v", k) for k in self.base.vertices]
                + [("f", fi) for fi in range(len(self.base.face_start) - 1)])

    @cached_property
    def vindex(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def eindex(self):
        """The dual hat edges' positions by name: ("dual", base edge)."""
        return {("dual", e): i for i, e in enumerate(self.base.edges)}


def hat_complex(cc):
    """The hat triangulation of cc: every (hat vertex, cell) incidence
    scattered into the star rows by one ``bitwise_or.at``.  A hat vertex
    is a corner of itself, a hat edge has its ends as corners, and a hat
    face its base vertex and the centers of both faces of its edge."""
    V, F = len(cc.vertices), len(cc.face_start) - 1
    fv, start = cc.face_vert, cc.face_start
    face = np.repeat(np.arange(F), np.diff(start))
    order = np.lexsort((fv, face))
    centers = V + cc.edge_face
    # no two hat edges join the same two vertices: a face holds a vertex
    # once and two faces share at most one edge
    ends = np.concatenate([centers,
                           np.stack([fv[order], V + face[order]], axis=1)])
    faces = np.column_stack([cc.ends.ravel(), np.repeat(centers, 2, axis=0)])
    n = V + F
    vert = np.concatenate([np.arange(n), ends.ravel(), faces.ravel()])
    cell = np.repeat(np.arange(n + len(ends) + len(faces)),
                     np.repeat([1, 2, 3], [n, len(ends), len(faces)]))
    rows = np.zeros((n, cell[-1] // 8 + 1), np.uint8)
    np.bitwise_or.at(rows, (vert, cell >> 3),
                     np.left_shift(1, cell & 7).astype(np.uint8))
    return HatTriangulation(base=cc, star_rows=rows, edge_ends=ends)


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class Domain:
    generators: frozenset  # of hat vertices
    # the cell row of the union of their open stars (see
    # ``HatTriangulation``)
    row: np.ndarray = field(compare=False, hash=False, repr=False)

    def is_open_star_of(self):
        """The hat vertex whose open star this is, or None."""
        if len(self.generators) == 1:
            return next(iter(self.generators))
        return None


def make_domain(h, generators):
    """The union of the open stars of ``generators``."""
    return row_domain(h, star_union(h, generators))


def star_union(h, generators):
    """The cell row of the union of the open stars of ``generators``."""
    return np.bitwise_or.reduce(h.star_rows[[h.vindex[g] for g in generators]])


def row_domain(h, row):
    """The ``Domain`` of one cell row that holds a union of open stars:
    its generators are its vertex bits."""
    cells = int.from_bytes(row, "little")
    return Domain(frozenset(v for i, v in enumerate(h.vertices)
                            if cells >> i & 1), row)


def admissible_domains(h, strict=False, cap=22, require_exhaustive=False):
    """Enumerate admissible domains (strict ones when ``strict``), sorted
    by their sorted generators.

    Exhaustive when the hat triangulation has at most ``cap`` vertices;
    otherwise the enumeration covers all one-generator and two-generator
    connected domains (``domain_generator_sets`` says which).  A
    ``Domain`` is made only for a kept set."""
    rows, _partial = domain_generator_sets(h, strict, cap, require_exhaustive)
    return sorted((row_domain(h, row) for row in rows),
                  key=lambda d: sorted(d.generators))


# A generator set of the exhaustive enumeration is one int64 mask, bit i
# for hat vertex i, and 1 << cap must fit in it.
MAX_CAP = 62
# The most (set, hat vertex) pairs one group of it may expand: the
# 27-vertex tri-torus needs 1.3 M, the dodecahedron 198 M.
ENUM_BUDGET = 1 << 22


def check_cap(cap):
    """Reject a negative exhaustive-enumeration cap, and one the
    generator masks cannot hold."""
    if cap < 0:
        raise CapExceeded(f"enumeration cap {cap} is negative")
    if cap > MAX_CAP:
        raise CapExceeded(f"enumeration cap {cap} exceeds {MAX_CAP}, the most"
                          " hat vertices a generator mask holds")


def domain_generator_sets(h, strict=False, cap=22, require_exhaustive=False):
    """The enumeration behind ``admissible_domains``, without a
    ``Domain``: (cell rows, partial).  A kept set of generators is one
    cell row, the union of their open stars, whose vertex bits are the
    generators themselves.

    A kept set is nonempty, connected in the star-overlap graph, holds a
    base vertex and is not every hat vertex (the whole surface).  Under
    ``strict`` no point vertex lies on its boundary.  A hat face has one
    base corner, so only a dual vertex's open star holds cells of a point
    vertex's star: a set is strict iff it holds the point vertices of
    each of its faces.  So sets grow by the closure of a vertex (itself,
    and the point vertices of a face under ``strict``), and only strict
    sets are built."""
    check_cap(cap)
    nv = len(h.star_rows)
    partial = nv > cap
    if partial and require_exhaustive:
        raise CapExceeded(f"{nv} hat vertices exceed the cap of {cap}")
    # under strict, the corner edges (point k, center c): c needs k; a
    # dual edge begins at a center, never at a point
    point = np.zeros(nv, bool)
    if strict:
        point[:len(h.base.vertices)] = h.base.vclass == 0
    k, c = h.edge_ends[point[h.edge_ends[:, 0]]].T
    if partial:
        return _small_generator_sets(h, point, c), partial
    closure = np.left_shift(1, np.arange(nv, dtype=np.int64))
    np.bitwise_or.at(closure, c, 1 << k)
    return _connected_generator_sets(h, closure, cap), partial


def _small_generator_sets(h, point, needs):
    """The rows of every kept one-generator set and two-generator
    connected set.  ``point`` tells which hat vertices are point
    vertices under strict, and ``needs`` lists a dual vertex once per
    point vertex of its face: a set is kept when it holds a base vertex
    and every point vertex its dual vertices need.  A pair of stars
    shares a cell only across a face, so the one point vertex a dual
    vertex may need in a pair is the base vertex beside it."""
    n = len(h.star_rows)
    need = np.bincount(needs, minlength=n)
    i, j = np.concatenate([np.arange(n).repeat(2).reshape(-1, 2),
                           h.edge_ends]).T
    # the base vertices come first
    keep = ((np.minimum(i, j) < len(h.base.vertices))
            & (need[i] <= point[j]) & (need[j] <= point[i]))
    return h.star_rows[i[keep]] | h.star_rows[j[keep]]


def _connected_generator_sets(h, closure, cap):
    """The rows of every kept connected set, by int64 generator masks;
    ``CapExceeded`` for a group past ``ENUM_BUDGET``.

    The sets are grouped by their number of generators and built group
    by group: a group is sorted and deduplicated when its turn comes,
    and each of its sets grows by the closure of each vertex adjacent
    to it into a later group.  A connected set that holds the closure of
    each of its vertices is reached so from the closure of any one of
    them, and no other set is built.  A set's neighbours, and its row,
    are ORs of per-vertex masks and star rows through one 256-entry
    table per byte of the generator mask (``byte_table``), and a set's
    number of generators is ``np.bitwise_count`` of its mask."""
    n = len(h.star_rows)
    i, j = np.concatenate([h.edge_ends, h.edge_ends[:, ::-1]]).T
    adj = np.zeros(n, np.int64)
    np.bitwise_or.at(adj, i, np.left_shift(1, j, dtype=np.int64))
    adj_table = byte_table(adj, np.bitwise_or)
    pending, grown, kept = {}, closure, []
    # the group of n holds the whole surface alone
    for k in range(1, n):
        counts = np.bitwise_count(grown)
        for c in np.flatnonzero(np.bincount(counts)):
            pending.setdefault(c, []).append(grown[counts == c])
        sets = np.sort(np.concatenate([grown[:0], *pending.pop(k, [])]))
        sets = np.concatenate((sets[:1], sets[1:][sets[1:] != sets[:-1]]))
        kept.append(sets)
        if len(sets) * n > ENUM_BUDGET:
            raise CapExceeded(f"{n} hat vertices (cap {cap}): {len(sets)} "
                              f"sets of {k} generators exceed the budget "
                              f"of {ENUM_BUDGET} (set, vertex) pairs")
        out = reduce_bytes(adj_table, _bytes(sets), np.bitwise_or) & ~sets
        at, x = divmod(np.flatnonzero(np.unpackbits(
            _bytes(out), axis=1, count=n, bitorder="little")), n)
        grown = sets[at] | closure[x]
    sets = np.concatenate(kept)
    # the base vertices come first
    sets = sets[sets & ((1 << len(h.base.vertices)) - 1) != 0]
    return reduce_bytes(byte_table(h.star_rows, np.bitwise_or), _bytes(sets),
                        np.bitwise_or)


def _bytes(masks):
    """The little-endian bytes of int64 masks, one row of 8 per mask."""
    return masks.astype("<i8", copy=False).view("u1").reshape(-1, 8)


def byte_table(values, op):
    """table[p, b] = 0 combined by ``op``, a binary ufunc, with
    values[8 p + j] for each set bit j of the byte b, lowest first, for
    each byte position p of a row of bits.  Built by doubling: the
    entries for bits 0 .. j - 1, then each combined with value 8 p + j."""
    n, rest = len(values), values.shape[1:]
    padded = np.zeros((-(-n // 8), 8, *rest), values.dtype)
    padded.reshape(-1, *rest)[:n] = values
    table = np.zeros((len(padded), 1, *rest), values.dtype)
    for j in range(8):
        table = np.concatenate([table, op(table, padded[:, j:j + 1])], axis=1)
    return table


def reduce_bytes(table, by, op):
    """Per row of bytes, the ``op`` of ``byte_table``'s entries of its
    bytes, position by position."""
    out = table[0][by[:, 0]]
    for p in range(1, len(table)):
        op(out, table[p][by[:, p]], out=out)
    return out


# ---------------------------------------------------------------------------
# Boundary statistics


def punctures(h, rows):
    """Per domain, given as its cell row, the base vertices outside it
    whose whole link, the rest of their open star, is inside."""
    vbits = np.packbits(np.arange(8 * rows.shape[1]) < len(h.star_rows),
                        bitorder="little")
    count = np.zeros(len(rows), int)
    for star in h.star_rows[:len(h.base.vertices)]:
        cols = np.flatnonzero(star)
        count += ((rows[:, cols] & star[cols])
                  == (star & ~vbits)[cols]).all(axis=1)
    return count


def boundary_arrays(h, rows):
    """Per domain, given as its cell row: (the times each dual edge lies
    on its boundary, in ``base.edges`` order; |boundary ∩ V|; the Euler
    characteristic), the counts of the walk-based boundary trace that
    the tests keep as its oracle.

    A dual edge outside the domain is on the boundary once per hat face
    across it that is inside.  Around a base vertex outside the domain,
    the link cells inside form arcs that begin and end on a hat face,
    since the open domain holds both faces next to each edge it holds.
    So each arc has one face more than it has edges, and the vertex is
    visited (faces - edges) times, or once, as a puncture, when its
    whole link is inside.  A base vertex inside holds as many of each,
    and a hat face has one base corner and a corner edge one base end:
    so |boundary ∩ V| is the hat faces inside - the corner edges inside
    + the punctures."""
    E = len(h.base.edges)
    nv, ne = len(h.star_rows), len(h.edge_ends)
    bits = np.unpackbits(rows, axis=1, count=nv + ne + 2 * E,
                         bitorder="little")
    vert, edge, face = np.split(bits, [nv, nv + ne], axis=1)
    faces = face.sum(axis=1, dtype=int)
    chi = vert.sum(axis=1, dtype=int) - edge.sum(axis=1, dtype=int) + faces
    # the hat faces across dual edge i are 2 i and 2 i + 1
    mult = (face[:, ::2] + face[:, 1::2]) * (1 - edge[:, :E])
    visits = faces - edge[:, E:].sum(axis=1, dtype=int) + punctures(h, rows)
    return mult, visits, chi


def boundary_counts(h, d, e0_dual_indices=None):
    """``boundary_arrays`` of one ``Domain``: (dual-edge multiplicity map,
    |boundary ∩ V|, |boundary ∩ E0| over ``e0_dual_indices``)."""
    mult, n_v, _chi = boundary_arrays(h, d.row[None])
    mult = mult[0].tolist()
    return ({e: m for e, m in zip(h.base.edges, mult) if m}, n_v.item(),
            sum(mult[i] for i in e0_dual_indices or ()))
