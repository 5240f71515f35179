"""The benchmark's own geometry of circle patterns, written apart from
the ``hicp`` package.

The generator builds every input and every expected outcome with this
module, and the checks recompute what they compare against with it.  So
the input bytes of a seed, and the truth a command is held to, do not
change when the code under test changes.

Conventions are those of the hicp input format: a spec has ``vertices``
(``id``, ``circle`` = ``disk`` or ``point``), ``faces`` (vertex cycles) and
``tangent_edges``.  An edge is the sorted pair of its vertex ids.  Each
non-triangle face is split into a fan from its least vertex.  The
pattern of a surface is given by edge lengths ``l`` and radii ``r``
(0 on point vertices); its tetrahedral coordinates are ``a`` per
non-tangent edge and ``b`` per disk vertex.

The hyperbolic plane is the hyperboloid ``<x, x> = -1`` in Minkowski
space, ``<x, y> = -x0 y0 + x1 y1 + x2 y2``.  A circle with centre ``c`` and
radius ``r`` is ``{x : <x, c> = -cosh r}``.  Two circles meet at right
angles when ``<c1 / cosh r1, c2 / cosh r2> = -1``, and a point circle is
its centre; so the face circle of a triangle solves a 3 x 3 linear
system.
"""

from __future__ import annotations

import math

EUCL, HYP = "euclidean", "hyperbolic"
GEOMS = (EUCL, HYP)


def ref_constants(g):
    """(radius of a disk, gap between two disks) of the uniform reference
    pattern: every free edge is 2 (r + gap) long."""
    if g == EUCL:
        return 1.0, 0.25
    return math.asinh(0.1), math.asinh(0.125)


def ekey(u, v):
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Complexes


def _verts(ids, disks):
    disks = set(disks)
    return [{"id": i, "circle": "disk" if i in disks else "point"}
            for i in ids]


def grid_torus_spec(n, disks):
    """n x n square-grid torus."""
    def v(r, c):
        return (r % n) * n + (c % n)
    faces = [[v(r, c), v(r, c + 1), v(r + 1, c + 1), v(r + 1, c)]
             for r in range(n) for c in range(n)]
    return {"vertices": _verts(range(n * n), disks), "faces": faces}


def tri_torus_faces(n):
    """The grid torus with each square split along the diagonal from its
    first corner."""
    def v(r, c):
        return (r % n) * n + (c % n)
    faces = []
    for r in range(n):
        for c in range(n):
            p, q, s, t = v(r, c), v(r, c + 1), v(r + 1, c + 1), v(r + 1, c)
            faces += [[p, q, s], [p, s, t]]
    return faces


def tri_torus_spec(n, disks):
    return {"vertices": _verts(range(n * n), disks),
            "faces": tri_torus_faces(n)}


def genus2_spec(disks):
    """Two triangulated 3 x 3 tori, each without the face (0, 1, 4),
    glued along that triangle: 15 vertices, 51 edges, 34 faces."""
    cut = [f for f in tri_torus_faces(3) if sorted(f) != [0, 1, 4]]
    ids = {0: 0, 1: 1, 4: 4}
    for i in range(9):
        if i not in ids:
            ids[i] = 9 + len(ids) - 3
    faces = cut + [[ids[i] for i in reversed(f)] for f in cut]
    return {"vertices": _verts(range(15), disks), "faces": faces}


def cube_spec(disks):
    faces = [[0, 1, 3, 2], [4, 5, 7, 6], [0, 1, 5, 4], [2, 3, 7, 6],
             [0, 2, 6, 4], [1, 3, 7, 5]]
    return {"vertices": _verts(range(8), disks), "faces": faces}


def octahedron_spec(disks):
    faces = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return {"vertices": _verts(range(6), disks), "faces": faces}


def prism_spec(disks):
    faces = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    faces += [[i, (i + 1) % 5, (i + 1) % 5 + 5, i + 5] for i in range(5)]
    return {"vertices": _verts(range(10), disks), "faces": faces}


def tetrahedron_spec(disks):
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
    return {"vertices": _verts(range(4), disks), "faces": faces}


class Surface:
    """Combinatorics of a spec, with its fan triangulation."""

    def __init__(self, spec):
        self.ids = sorted(v["id"] for v in spec["vertices"])
        self.disks = {v["id"] for v in spec["vertices"]
                      if v["circle"] == "disk"}
        self.points = set(self.ids) - self.disks
        self.faces = [list(f) for f in spec["faces"]]
        self.e0 = {ekey(*e) for e in spec.get("tangent_edges", [])}
        edges = set()
        for f in self.faces:
            for t in range(len(f)):
                edges.add(ekey(f[t], f[(t + 1) % len(f)]))
        self.edges = sorted(edges)
        self.e1 = [e for e in self.edges if e not in self.e0]
        self.triangles, diags = [], []
        for f in self.faces:
            p = f.index(min(f))
            cyc = f[p:] + f[:p]
            self.triangles += [(cyc[0], cyc[t], cyc[t + 1])
                               for t in range(1, len(f) - 1)]
            diags += [ekey(cyc[0], cyc[t]) for t in range(2, len(f) - 1)]
        self.diagonals = sorted(diags)
        # edges that carry an `a` coordinate
        self.free = sorted(set(self.e1) | set(diags))

    @property
    def chi(self):
        return len(self.ids) - len(self.edges) + len(self.faces)

    @property
    def hat_vertices(self):
        """Vertex count of the hat complex: one per vertex and per face."""
        return len(self.ids) + len(self.faces)

    def degree(self, v):
        return sum(v in e for e in self.edges)

    def is_disk(self, v):
        return v in self.disks


# ---------------------------------------------------------------------------
# Coordinates: (l, r) <-> (a, b) and the Euclidean gauge


def coords_from_pattern(s, l, r, g):
    """Tetrahedral coordinates (a, b) of a pattern (l, r)."""
    if g == EUCL:
        b = {k: -math.log(r[k]) for k in s.disks}
    else:
        b = {k: math.asinh(1.0 / math.sinh(r[k])) for k in s.disks}
    a = {}
    for e in s.free:
        u, v = e
        L = l[e]
        if s.is_disk(u) and s.is_disk(v):
            if g == EUCL:
                x = (L * L - r[u] ** 2 - r[v] ** 2) / (2 * r[u] * r[v])
            else:
                x = (math.cosh(L) * math.sinh(b[u]) * math.sinh(b[v])
                     - math.cosh(b[u]) * math.cosh(b[v]))
            a[e] = math.acosh(x)
        elif not (s.is_disk(u) or s.is_disk(v)):
            a[e] = 2 * math.log(L) if g == EUCL \
                else 2 * math.log(math.sinh(L / 2))
        else:
            k = u if s.is_disk(u) else v
            if g == EUCL:
                a[e] = math.log((L * L - r[k] ** 2) / r[k])
            else:
                a[e] = math.log(math.cosh(L) * math.sinh(b[k])
                                - math.cosh(b[k]))
    return a, b


def gauge_project(s, a, b, g):
    """Representative of (a, b) on the section of the Euclidean scaling
    action (rescaling the pattern by e^t adds t times the number of
    point ends to each a and subtracts t from each b); the identity in
    hyperbolic geometry."""
    if g == HYP:
        return dict(a), dict(b)
    da = {e: float((e[0] in s.points) + (e[1] in s.points)) for e in a}
    num = sum(a[e] * da[e] for e in a) - sum(b.values())
    den = sum(x * x for x in da.values()) + len(b)
    t = -num / den
    return ({e: v + t * da[e] for e, v in a.items()},
            {k: v - t for k, v in b.items()})


# ---------------------------------------------------------------------------
# Angles of a decorated triangle


def _mink(x, y):
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _solve3(m, rhs):
    """Cramer's rule on a 3 x 3 system."""
    def det(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    d = det(m)
    out = []
    for j in range(3):
        mj = [[rhs[i] if c == j else m[i][c] for c in range(3)]
              for i in range(3)]
        out.append(det(mj) / d)
    return out


class Degenerate(ValueError):
    """The (l, r) data of a triangle has no real face circle or corner."""


def corner_angle(g, la, lb, lopp):
    """Angle between the sides la and lb, opposite the side lopp."""
    if g == EUCL:
        c = (la * la + lb * lb - lopp * lopp) / (2 * la * lb)
    else:
        c = ((math.cosh(la) * math.cosh(lb) - math.cosh(lopp))
             / (math.sinh(la) * math.sinh(lb)))
    if not -1.0 < c < 1.0:
        raise Degenerate("degenerate corner")
    return math.acos(c)


def triangle_angles(g, l3, r3):
    """Angles of one decorated triangle with corners 0, 1, 2 and sides
    l3 = (l01, l12, l20).  Returns (alpha per side, beta per corner).
    beta is the corner angle.  alpha of a side is the angle between the
    side and the face circle (the circle orthogonal to the three vertex
    circles): its cosine is the signed distance from the face circle's
    centre to the side, positive towards the third corner, over the
    face circle's radius (sinh of both in hyperbolic geometry)."""
    l01, l12, l20 = l3
    beta = (corner_angle(g, l01, l20, l12), corner_angle(g, l01, l12, l20),
            corner_angle(g, l12, l20, l01))
    c0, s0 = math.cos(beta[0]), math.sin(beta[0])
    if g == EUCL:
        p = [(0.0, 0.0), (l01, 0.0), (l20 * c0, l20 * s0)]
        # centre o: |o - p_i|^2 - r_i^2 equal for all i
        rows, rhs = [], []
        for i in (1, 2):
            rows.append((2 * p[i][0], 2 * p[i][1]))
            rhs.append(p[i][0] ** 2 + p[i][1] ** 2 - r3[i] ** 2 + r3[0] ** 2)
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        ox = (rhs[0] * rows[1][1] - rows[0][1] * rhs[1]) / det
        oy = (rows[0][0] * rhs[1] - rhs[0] * rows[1][0]) / det
        R2 = ox * ox + oy * oy - r3[0] ** 2
        if R2 <= 0:
            raise Degenerate("no real face circle")
        R = math.sqrt(R2)
        alpha = []
        for m in range(3):
            (ux, uy), (vx, vy), (wx, wy) = p[m], p[(m + 1) % 3], \
                p[(m + 2) % 3]
            tx, ty = vx - ux, vy - uy
            n = math.hypot(tx, ty)
            nx, ny = -ty / n, tx / n
            if nx * (wx - ux) + ny * (wy - uy) < 0:
                nx, ny = -nx, -ny
            d = nx * (ox - ux) + ny * (oy - uy)
            alpha.append(math.acos(max(-1.0, min(1.0, d / R))))
        return tuple(alpha), beta
    p = [(1.0, 0.0, 0.0), (math.cosh(l01), math.sinh(l01), 0.0),
         (math.cosh(l20), math.sinh(l20) * c0, math.sinh(l20) * s0)]
    # face-circle vector w = c / cosh R: <w, p_i / cosh r_i> = -1
    rows = [[-x[0] / math.cosh(ri), x[1] / math.cosh(ri),
             x[2] / math.cosh(ri)] for x, ri in zip(p, r3)]
    w = _solve3(rows, [-1.0, -1.0, -1.0])
    ww = _mink(w, w)
    if not (ww < 0 and w[0] > 0):
        raise Degenerate("no real face circle")
    coshR = 1.0 / math.sqrt(-ww)
    c = [x * coshR for x in w]
    sinhR = math.sqrt(coshR * coshR - 1.0)
    alpha = []
    for m in range(3):
        u, v, x = p[m], p[(m + 1) % 3], p[(m + 2) % 3]
        # unit normal of the plane through 0, u, v, towards x
        ju, jv = (-u[0], u[1], u[2]), (-v[0], v[1], v[2])
        n = (ju[1] * jv[2] - ju[2] * jv[1], ju[2] * jv[0] - ju[0] * jv[2],
             ju[0] * jv[1] - ju[1] * jv[0])
        nn = math.sqrt(_mink(n, n))
        n = [y / nn for y in n]
        if _mink(n, x) < 0:
            n = [-y for y in n]
        alpha.append(math.acos(max(-1.0, min(1.0, _mink(n, c) / sinhR))))
    return tuple(alpha), beta


def angle_sums(s, l, r, g):
    """(theta per edge, Theta per vertex): the sums of alpha over the
    two triangles of an edge and of beta around a vertex.  Tangency
    edges get 0."""
    theta = {e: 0.0 for e in s.edges + s.diagonals}
    Theta = {v: 0.0 for v in s.ids}
    for tri in s.triangles:
        sides = [ekey(tri[m], tri[(m + 1) % 3]) for m in range(3)]
        alpha, beta = triangle_angles(g, [l[e] for e in sides],
                                      [r[v] for v in tri])
        for e, x in zip(sides, alpha):
            if e not in s.e0:
                theta[e] += x
        for v, x in zip(tri, beta):
            Theta[v] += x
    return theta, Theta


def target_of(s, l, r, g):
    """The angle data hicp takes as input: theta on the non-tangent base
    edges, Theta on the disks."""
    theta, Theta = angle_sums(s, l, r, g)
    return ({e: theta[e] for e in s.e1}, {k: Theta[k] for k in s.disks})


def star_margins(s, theta, Theta):
    """Slack of each disk's open-star inequality
    sum over its edges (pi - theta) + 2 pi - Theta_k > 2 pi."""
    return {k: sum(math.pi - theta.get(e, 0.0) for e in s.edges if k in e)
            - Theta[k] for k in sorted(s.disks)}


# ---------------------------------------------------------------------------
# Patterns


def _centre_distance(g, disk, x, rc):
    """Distance from a face circle's centre to a vertex, when disks sit
    at distance x (a disk meets the face circle at right angles; a point
    lies on it)."""
    if disk:
        return x
    if g == EUCL:
        return math.sqrt(x * x - rc * rc)
    return math.acosh(math.cosh(x) / math.cosh(rc))


def _central_angle(g, du, dv, L):
    if g == EUCL:
        c = (du * du + dv * dv - L * L) / (2 * du * dv)
    else:
        c = ((math.cosh(du) * math.cosh(dv) - math.cosh(L))
             / (math.sinh(du) * math.sinh(dv)))
    return math.acos(max(-1.0, min(1.0, c)))


def _cyclic_face(s, cyc, l, g, rc):
    """Distances and angular positions of a face's vertices on the one
    circle orthogonal to all of them, found by bisection on the disk
    distance x where the central angles close up to 2 pi."""
    n = len(cyc)

    def layout(x):
        d = [_centre_distance(g, s.is_disk(v), x, rc) for v in cyc]
        phi = [_central_angle(g, d[t], d[(t + 1) % n],
                              l[ekey(cyc[t], cyc[(t + 1) % n])])
               for t in range(n)]
        return d, phi

    lo = rc * (1 + 1e-12) if any(not s.is_disk(v) for v in cyc) else 1e-12
    hi = lo + 1.0
    while sum(layout(hi)[1]) > 2 * math.pi:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if sum(layout(mid)[1]) > 2 * math.pi:
            lo = mid
        else:
            hi = mid
    d, phi = layout(0.5 * (lo + hi))
    pos = [sum(phi[:t]) for t in range(n)]
    return d, pos


def reference_pattern(s, g):
    """(l, r) of the uniform reference pattern: every free base edge is
    2 (r + gap) long, every tangency edge 2 r, disks have radius r; the
    fan diagonals of a larger face are measured inside the face's
    circle, so that each face is cyclic."""
    rc, gap = ref_constants(g)
    r = {v: (rc if s.is_disk(v) else 0.0) for v in s.ids}
    l = {e: 2 * rc if e in s.e0 else 2 * (rc + gap) for e in s.edges}
    cache = {}
    for f in s.faces:
        if len(f) == 3:
            continue
        p = f.index(min(f))
        cyc = f[p:] + f[:p]
        key = (tuple(s.is_disk(v) for v in cyc),
               tuple(ekey(cyc[t], cyc[(t + 1) % len(cyc)]) in s.e0
                     for t in range(len(cyc))))
        if key not in cache:
            cache[key] = _cyclic_face(s, cyc, l, g, rc)
        d, pos = cache[key]
        for t in range(2, len(cyc) - 1):
            dpsi = pos[t] - pos[0]
            if g == EUCL:
                L = math.sqrt(d[0] ** 2 + d[t] ** 2
                              - 2 * d[0] * d[t] * math.cos(dpsi))
            else:
                L = math.acosh(math.cosh(d[0]) * math.cosh(d[t])
                               - math.sinh(d[0]) * math.sinh(d[t])
                               * math.cos(dpsi))
            l[ekey(cyc[0], cyc[t])] = L
    return l, r


def _slack(s, l, r):
    """Smallest gap l - r_u - r_v of a free edge or of a triangle
    inequality."""
    out = math.inf
    for tri in s.triangles:
        sides = [ekey(tri[m], tri[(m + 1) % 3]) for m in range(3)]
        for m, e in enumerate(sides):
            if e not in s.e0:
                out = min(out, l[e] - r[e[0]] - r[e[1]])
            out = min(out, l[sides[(m + 1) % 3]] + l[sides[(m + 2) % 3]]
                      - l[e])
    return out


def sample_pattern(s, g, rng, frac):
    """A random pattern near the reference one: each radius moves within
    frac / 2 and each free edge length within frac of the reference
    pattern's smallest slack; tangency edges stay r_u + r_v."""
    l0, r0 = reference_pattern(s, g)
    d = frac * _slack(s, l0, r0)
    assert frac < 1 / 3, "larger moves can break a triangle inequality"
    r = {v: (x + rng.uniform(-d / 2, d / 2) if x > 0 else 0.0)
         for v, x in r0.items()}
    l = {e: (r[e[0]] + r[e[1]] if e in s.e0
             else x + rng.uniform(-d, d)) for e, x in l0.items()}
    return l, r


def sampled_target(s, g, rng):
    """(theta, Theta, true gauge-projected (a, b)) of a random pattern
    near the reference configuration whose angle data is admissible:
    every theta in (0, pi) and every disk's star inequality strict.
    The surface must be triangulated."""
    assert not s.diagonals, "sampled patterns need a triangulated surface"
    frac = 0.1
    for _ in range(500):
        l, r = sample_pattern(s, g, rng, frac)
        frac *= 0.7
        try:
            theta, Theta = target_of(s, l, r, g)
        except Degenerate:
            continue
        margins = star_margins(s, theta, Theta)
        if all(0.0 < x < math.pi for x in theta.values()) and \
                all(m > 1e-12 * (1 + s.degree(k))
                    for k, m in margins.items()):
            a, b = gauge_project(s, *coords_from_pattern(s, l, r, g), g)
            return theta, Theta, (a, b)
    raise RuntimeError("could not sample an admissible pattern")


def hyperbolic_area(s, l):
    """Total area of the triangles of a hyperbolic metric: the sum of
    pi minus the corner angles."""
    area = 0.0
    for tri in s.triangles:
        l01, l12, l20 = (l[ekey(tri[m], tri[(m + 1) % 3])] for m in range(3))
        area += math.pi - (corner_angle(HYP, l01, l20, l12)
                           + corner_angle(HYP, l01, l12, l20)
                           + corner_angle(HYP, l12, l20, l01))
    return area


def gauss_bonnet_residual(cone_angles, chi, area):
    """sum over vertices (2 pi - cone angle) - 2 pi chi - area, which is
    0 for a closed surface (area 0 in Euclidean geometry)."""
    return (sum(2 * math.pi - x for x in cone_angles)
            - 2 * math.pi * chi - area)

