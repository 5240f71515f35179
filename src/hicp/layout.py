"""Development of a solved metric into planar or Poincare-disk charts,
per-edge circle-intersection angles, redundant-diagonal merging,
Gauss-Bonnet accounting, and SVG/JSON export.

Everything is computed on the arrays of the one kernel call
(``geometry.decorate_surface``) and of the ``Triangulation``: theta
of every edge in one pass, and the chart by moving the triangles of each
breadth-first level onto their parents in one array step.  A
``SurfaceLayout`` holds the arrays; its unmerged chart is built on
first use, and the layout JSON is formatted from the arrays."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .errors import InvariantViolation, IoError, NonRedundantDiagonal
from .geometry import EUCLIDEAN, HYPERBOLIC, check_geometry
from .jsontext import (
    edge_keys,
    float_map,
    indent,
    key_order,
    number_texts,
    object_text,
)

# |theta - pi| below which a fan diagonal counts as redundant
MERGE_TOL = 1e-6
VIEWPORT = 1000  # SVG width and height


# ---------------------------------------------------------------------------
# Model-plane primitives, on arrays


def _distance(z, w, g):
    """Distances in the model plane (the Poincare disk when hyperbolic),
    on arrays."""
    if g == EUCLIDEAN:
        return np.abs(z - w)
    return 2 * np.arctanh(np.abs(z - w) / np.abs(1 - z.conj() * w))


def circle_intersection_angle(c1, R1, c2, R2, g):
    """Intersection angles theta of pairs of face circles from their
    centers and radii, on arrays: the theta with h^2 = R1^2 + R2^2 +
    2 R1 R2 cos theta (Euclidean) or cosh h = cosh R1 cosh R2 +
    sinh R1 sinh R2 cos theta (hyperbolic), h the distance of the
    centers."""
    h = _distance(c1, c2, g)
    dR = np.abs(R1 - R2)
    # half-angle form: stable near tangency (theta near 0 or pi)
    if g == EUCLIDEAN:
        s2 = (R1 + R2 - h) * (R1 + R2 + h)
        c2 = (h - dR) * (h + dR)
    else:
        s2 = np.cosh(R1 + R2) - np.cosh(h)
        c2 = np.cosh(h) - np.cosh(dR)
    return 2 * np.arctan2(np.sqrt(np.fmax(0.0, s2)),
                          np.sqrt(np.fmax(0.0, c2)))


# ---------------------------------------------------------------------------
# SurfaceLayout


class Charts(NamedTuple):
    """The charts of a layout as flat arrays, chart k in row k: its
    vertices are rows start[k]:start[k + 1] of vert (positions in
    ``CellComplex.vertices``) and z (their places in the chart), and its
    circle is (center[k], R[k])."""

    vert: np.ndarray
    z: np.ndarray
    start: np.ndarray  # (K + 1,)
    center: np.ndarray
    R: np.ndarray


@dataclass
class SurfaceLayout:
    geometry: str
    T: object  # Triangulation
    th: np.ndarray  # per edge of ``edges``: intersection angle
    asum: np.ndarray  # per edge of ``edges``: alpha + alpha'
    cone: np.ndarray  # per vertex of ``T.base.vertices``: cone angle
    r: np.ndarray  # per vertex of ``T.base.vertices``: its radius
    area: np.ndarray  # per chart: its area (hyperbolic; empty otherwise)
    # the kernel's DecoratedTriangles: per triangle its placement z and
    # its face circle (center, R) there
    placed: object
    # merged: one chart per base face; None for the development, whose
    # chart per triangle is glued from ``placed`` on first use
    face_charts: Charts = None

    @property
    def merged(self):
        return self.face_charts is not None

    @cached_property
    def chart(self):
        """The Charts, one per triangle glued into one chart on first use
        (unmerged) or one per base face (merged)."""
        if self.merged:
            return self.face_charts
        T = self.T
        F = len(T.face)
        z, center = _glue(T, self.placed, np.zeros(F, int), self.geometry)
        return Charts(vert=T.vert.ravel(), z=z.ravel(),
                      start=np.arange(0, 3 * F + 1, 3), center=center,
                      R=self.placed.R)

    @property
    def edges(self):
        """The layout's edges: the base complex's when merged."""
        return self.T.base.edges if self.merged else self.T.edges

    @cached_property
    def edge_order(self):
        """The KeyOrder of the edges' "u-v" keys."""
        return key_order(edge_keys(self.edges))

    @cached_property
    def vertex_order(self):
        """The KeyOrder of the keys of ``T.base.vertices``."""
        return key_order(list(map(str, self.T.base.vertices)))


def _glue(T, dt, group, g):
    """Develop each group of triangles (``group[ti]`` labels them), each
    connected across shared edges, into one chart: its least triangle
    keeps its kernel placement, and the breadth-first tree from it, least
    edge first, is moved level by level, each child by one isometry onto
    its placed parent.  Returns the chart positions (F, 3) and circle
    centers (F,)."""
    F = len(group)
    # per (triangle, column): the triangle across that edge and the
    # edge's column there
    nb, nb_col = np.empty((F, 3), int), np.empty((F, 3), int)
    t, m = T.edge_tri, T.edge_col
    nb[t, m], nb_col[t, m] = t[:, ::-1], m[:, ::-1]
    by_edge = np.argsort(T.edge, axis=1)
    z, center = dt.z.copy(), dt.center.copy()
    frontier = np.unique(group, return_index=True)[1]
    seen = np.zeros(F, bool)
    seen[frontier] = True
    while frontier.size:
        par = np.repeat(frontier, 3)
        pc = by_edge[frontier].ravel()
        ch = nb[par, pc]
        keep = (group[ch] == group[par]) & ~seen[ch]
        par, pc, ch = par[keep], pc[keep], ch[keep]
        first = np.sort(np.unique(ch, return_index=True)[1])
        par, pc, ch = par[first], pc[first], ch[first]
        seen[ch] = True
        # the parent traverses the shared edge a -> b and the child b -> a:
        # the child's b to 0 and its a onto the positive real axis, then
        # onto the parent's b and a in the chart
        cb = nb_col[par, pc]
        ca, cw = (cb + 1) % 3, (cb + 2) % 3
        pa, pb = z[par, pc], z[par, (pc + 1) % 3]
        fwd = geo.frames(dt.z[ch, cb], dt.z[ch, ca], g)[0]
        inv = geo.frames(pb, pa, g)[1]
        z[ch, cb], z[ch, ca] = pb, pa
        z[ch, cw] = inv(fwd(dt.z[ch, cw]))
        center[ch] = inv(fwd(dt.center[ch]))
        frontier = ch
    return z, center


def _theta(T, dt, g, alpha_sum):
    """theta of every edge, in ``T.edges`` order: on each edge that is
    not E0, from the kernel circles of its two triangles, each moved into
    the frame of the edge (u at 0, v on the positive real axis), where
    the triangles lie on opposite sides; the class-forced 0 on E0 edges.
    Raises InvariantViolation at the first edge where theta and the alpha
    sum disagree."""
    free = T.eclass != 0
    t, m = T.edge_tri[free], T.edge_col[free]
    n = (m + 1) % 3
    up = T.vert[t, m] < T.vert[t, n]  # the column traverses u -> v
    zm, zn = dt.z[t, m], dt.z[t, n]
    theta = np.zeros(len(T.edges))
    with np.errstate(all="ignore"):
        w = geo.frames(np.where(up, zm, zn), np.where(up, zn, zm),
                       g)[0](dt.center[t])
        R = dt.R[t]
        theta[free] = circle_intersection_angle(w[:, 0], R[:, 0],
                                                w[:, 1], R[:, 1], g)
        # the angle is a sqrt-sensitive function of the circle data near
        # tangency, so scale the agreement tolerance by the conditioning
        tol = 1e-9 / np.maximum(np.sin(alpha_sum), 1e-3)
        bad = free & (np.abs(theta - alpha_sum) > tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvariantViolation(
            f"edge {T.edges[k]}: circle angle {float(theta[k])} != "
            f"alpha sum {float(alpha_sum[k])}")
    return theta


def develop(T, x, g):
    """Develop all triangles of T into one model chart by breadth-first
    gluing from the least triangle, crossing least-id edges first.  One
    kernel call places and circumscribes every triangle; the theta check
    reads those placements here, and the chart (on first use) and
    merge_redundant move them.  theta is the class-forced 0 on tangency
    edges."""
    check_geometry(g)
    dt = geo.decorate_surface(T, x, g)
    _l, r = geo.scatter_rows(T, dt.l, dt.r)
    asum = np.bincount(T.edge.ravel(), weights=dt.alpha.ravel(),
                       minlength=len(T.edges))
    cone = np.bincount(T.vert.ravel(), weights=dt.beta.ravel(),
                       minlength=len(r))
    area = (math.pi - dt.beta.sum(axis=1) if g == HYPERBOLIC
            else np.zeros(0))
    return SurfaceLayout(
        geometry=g, T=T, th=_theta(T, dt, g, asum), asum=asum,
        cone=cone, r=r, area=area, placed=dt)


# ---------------------------------------------------------------------------
# Reports


def delaunay_report(sl):
    """Per-edge record: intersection angle, local Delaunay flag,
    redundancy flag; the dict view of delaunay_json."""
    rep = json.loads(delaunay_json(sl))
    return {e: rep[k] for e, k in zip(sl.edges, edge_keys(sl.edges))}


def gauss_bonnet_check(sl):
    """Residual record of the Gauss-Bonnet identity."""
    cc = sl.T.base
    # cumsum adds left to right; sum of floats is compensated from 3.12
    total = np.cumsum(2 * math.pi - sl.cone)[-1].item()
    target = 2 * math.pi * cc.chi
    if sl.geometry == EUCLIDEAN:
        return {"residual": total - target, "area": 0.0}
    area = np.cumsum(sl.area)[-1].item()
    return {"residual": total - target - area, "area": area}


# ---------------------------------------------------------------------------
# Merging


def merge_redundant(sl):
    """Re-assemble the fan triangles of each base face into a single
    decorated polygon with one face circle; requires every fan diagonal
    to carry an angle within MERGE_TOL of pi."""
    T = sl.T
    cc = T.base
    g = sl.geometry
    diag = np.flatnonzero(T.eclass == 2)
    off = np.abs(sl.th[diag] - math.pi) > MERGE_TOL
    if off.any():
        k = int(diag[np.argmax(off)])
        raise NonRedundantDiagonal(f"diagonal {T.edges[k]}: theta = "
                                   f"{float(sl.th[k])}")

    # every fan glued from its face's first triangle, crossing diagonals
    face = T.face
    z, center = _glue(T, sl.placed, face, g)
    first = np.unique(face, return_index=True)[1]
    root = first[face]
    R = sl.placed.R
    with np.errstate(all="ignore"):
        apart = ((_distance(center[root], center, g) > 10 * MERGE_TOL)
                 | (np.abs(R - R[root]) > 10 * MERGE_TOL))
    if apart.any():
        fi = int(face[np.argmax(apart)])
        raise NonRedundantDiagonal(f"face {cc.faces[fi]}: fan circles "
                                   "disagree")

    # a vertex of a face takes its place in the last fan triangle that
    # holds it: the last of its (face, vertex) cells
    nv, start = len(T.vclass), cc.face_start
    sizes = np.diff(start)
    key, at = np.unique((np.repeat(face, 3) * nv + T.vert.ravel())[::-1],
                        return_index=True)
    at = len(face) * 3 - 1 - at[np.searchsorted(key, np.repeat(
        np.arange(len(sizes)), sizes) * nv + cc.face_vert)]
    chart = Charts(vert=cc.face_vert, z=z.ravel()[at], start=start,
                   center=center[first], R=R[first])
    area = (np.bincount(face, weights=sl.area) if g == HYPERBOLIC
            else np.zeros(0))
    base = T.eclass != 2
    return SurfaceLayout(
        geometry=g, T=T, th=sl.th[base], asum=sl.asum[base],
        cone=sl.cone, r=sl.r, area=area, placed=sl.placed, face_charts=chart)


# ---------------------------------------------------------------------------
# Export


_CHART = ('  %s: {\n   "circle": {\n    "center": [\n     %s,\n     %s\n'
          '    ],\n    "radius": %s\n   },\n   "vertices": [\n')
_CHART_END = '\n   ]\n  }'
_CHART_VERTEX = '    [\n     %s,\n     %s,\n     %s\n    ]'
_EDGE = '  %s: {\n   "theta": %s\n  }'
_VERTEX = '  %s: {\n   "cone_angle": %s,\n   "radius": %s\n  }'
_DELAUNAY = (' %s: {\n  "is_delaunay": %s,\n  "is_redundant": %s,\n'
             '  "theta": %s\n }')


def delaunay_json(sl, pad=""):
    """Per edge keyed "u-v": theta, whether it is locally Delaunay and
    whether it is redundant, closed at indent pad."""
    order = sl.edge_order
    th = sl.th[order.at]
    flags = ((0.0 <= th) & (th < math.pi), np.abs(th - math.pi) <= MERGE_TOL)
    return object_text(indent(_DELAUNAY, pad), order, *(
        map(("false", "true").__getitem__, f.tolist()) for f in flags),
        number_texts(th), pad=pad)


def angles_json(sl, pad=""):
    """The angles sl realizes as float_maps closed at indent pad: theta
    on the E1 edges (their alpha sums) and Theta on the V1 vertices
    (their cone angles), summed over the kernel rows in triangle order as
    solver.realized_sums sums them.  A merged layout's edges are T's
    that are not fan diagonals."""
    T = sl.T
    e1 = (T.eclass[T.eclass != 2] if sl.merged else T.eclass) == 1
    return {"theta": float_map(sl.edge_order.masked(e1), sl.asum, pad),
            "Theta": float_map(sl.vertex_order.masked(T.vclass == 1),
                               sl.cone, pad)}


def _place(fields, first, cols):
    """Put the rows of the columns cols into the object array fields,
    row i from position first[i] on."""
    for k, col in enumerate(cols):
        fields[first + k] = col


@functools.cache
def _chart_template(size, pad):
    """The template of a chart of size vertices at indent pad: its key,
    its circle's center x, y and radius, then each vertex's id, x, y."""
    return indent(_CHART + ",\n".join([_CHART_VERTEX] * size) + _CHART_END,
                   pad)


def _charts(ch, ids, pad):
    """The text of the charts object, closed at indent pad: one % pass
    over the templates of the charts' sizes in json's key order, "0" <
    "1" < "10", from one flat list of fields that index arithmetic on
    ch.start puts in that order."""
    order = key_order(list(map(str, range(len(ch.R)))))
    at = order.at
    size = np.diff(ch.start)[at]
    before = np.cumsum(size) - size
    rows = (np.repeat(ch.start[at] - before, size)  # in key order
            + np.arange(len(ch.vert)))
    head = 4 * np.arange(len(at)) + 3 * before
    cell = 4 * np.repeat(np.arange(1, len(at) + 1), size) + 3 * np.arange(
        len(rows))
    fields = np.empty(4 * len(head) + 3 * len(rows), object)
    _place(fields, head, [order.texts, *(number_texts(a, "%.12g") for a in (
        ch.center.real[at], ch.center.imag[at], ch.R[at]))])
    _place(fields, cell, [ids[ch.vert[rows]], *(
        number_texts(a, "%.12g") for a in (ch.z.real[rows], ch.z.imag[rows]))])
    sizes, which = np.unique(size, return_inverse=True)
    templates = np.array([_chart_template(k, pad) for k in sizes.tolist()],
                         object)[which]
    return ("{\n" + ",\n".join(templates.tolist()) % tuple(fields.tolist())
            + "\n" + pad + " }")


def layout_json(sl, pad=""):
    """The text of the layout document, closed at indent pad: per
    chart its circle and its vertices [id, x, y], per edge theta, per
    vertex its radius and cone angle, each number rounded to 12
    significant digits.  Formatted in json_text's format from sl's
    arrays, one % pass for the charts, edges and vertices each."""
    eo, vo = sl.edge_order, sl.vertex_order
    charts = _charts(sl.chart, np.array(sl.T.base.vertices), pad)
    edges = object_text(indent(_EDGE, pad), eo, number_texts(
        sl.th[eo.at], "%.12g"), pad=pad + " ")
    verts = object_text(indent(_VERTEX, pad), vo, *(number_texts(
        a[vo.at], "%.12g") for a in (sl.cone, sl.r)), pad=pad + " ")
    return (f'{{\n{pad} "charts": {charts},\n{pad} "edges": {edges},\n'
            f'{pad} "geometry": {json.dumps(sl.geometry)},\n'
            f'{pad} "layout_version": 1,\n{pad} "merged": '
            f'{json.dumps(sl.merged)},\n{pad} "vertices": {verts}\n{pad}}}')


def layout_to_dict(sl):
    """The layout document that export_json writes, as a dict."""
    return json.loads(layout_json(sl))


def write_text(path, text):
    """Write text and a final newline to the file at path; an OSError
    becomes IoError."""
    try:
        with open(path, "w") as fh:
            print(text, file=fh)
    except OSError as exc:
        raise IoError(str(exc))


def export_json(sl, path):
    write_text(path, layout_json(sl))


_PATH = ' stroke="#222222" fill="none" stroke-width="1"/>'
_LINE = '<path d="M %s %s L %s %s"' + _PATH
_ARC = '<path d="M %s %s A %s %s 0 0 %d %s %s"' + _PATH
_CIRCLE = ('<circle cx="%s" cy="%s" r="%s" fill="none" stroke="{}" '
           'stroke-width="0.8"/>')
_POINT = '<circle cx="%s" cy="%s" r="2" fill="#cc3333"/>'


@functools.cache
def _milli_texts():
    """The texts "0" .. "999", then "-0" .. "-999", and ".000" ..
    ".999"."""
    ints = [*map(str, range(1000)), *(f"-{i}" for i in range(1000))]
    return (np.array(ints, object),
            np.array([f".{i:03d}" for i in range(1000)], object))


def _svg_texts(a):
    """The text '%.3f' % x of every number x of array a, as an object
    array.  It is written from k = round(|x| * 1000): its sign and
    k // 1000, then the decimals of k % 1000, each from a table of texts.
    A number that is not finite, rounds to 1000 or more, or lies within
    rounding distance of a half, where |x| * 1000 may round the other
    way, is written by % itself."""
    a = np.asarray(a, float)
    y = np.abs(a) * 1000
    with np.errstate(invalid="ignore", over="ignore"):
        fast = ((np.abs(y - np.floor(y) - 0.5) > y * 2.0 ** -50)
                & (y < 999999.5))
    q, m = np.divmod(np.rint(y[fast]).astype(np.int64), 1000)
    ints, decimals = _milli_texts()
    out = np.empty(a.shape, object)
    out[fast] = ints[q + 1000 * np.signbit(a[fast])] + decimals[m]
    out[~fast] = ["%.3f" % x for x in a[~fast].tolist()]
    return out


def _screen(z, scale, off):
    """The texts of the screen x and y of the model points z."""
    return _svg_texts(off + scale * z.real), _svg_texts(off - scale * z.imag)


def _elements(template, *cols):
    """One SVG element per row of the columns of texts, one per line."""
    return "\n".join([template] * len(cols[0])) % tuple(
        np.column_stack(cols).ravel().tolist())


def _mixed(mask, yes, no):
    """One SVG element per row, one per line, in one pass: where mask
    holds, yes's template filled from the next row of its columns of
    texts, and elsewhere no's; yes and no are (template, *columns)."""
    (t_yes, *c_yes), (t_no, *c_no) = yes, no
    width = np.where(mask, len(c_yes), len(c_no))
    at = np.cumsum(width) - width  # each row's first field
    fields = np.empty(int(width.sum()), object)
    _place(fields, at[mask], c_yes)
    _place(fields, at[~mask], c_no)
    return "\n".join(np.array((t_no, t_yes), object)[mask.astype(int)]
                     .tolist()) % tuple(fields.tolist())


def _geodesics(z, nxt, x, y, g, scale):
    """The SVG path of the chart geodesic from each point of z to the
    point nxt indexes, whose screen coordinates have the texts x and y:
    a line segment, or in the disk the arc of the circle orthogonal to
    the unit circle through both points."""
    ends = (x, y, x[nxt], y[nxt])
    if g == EUCLIDEAN:
        return _elements(_LINE, *ends)
    x1, y1 = z.real, z.imag
    x2, y2 = x1[nxt], y1[nxt]
    with np.errstate(all="ignore"):
        line = np.abs(x1 * y2 - y1 * x2) < 1e-9
        # solve 2 c . z = |z|^2 + 1 for both points
        a1, b1, c1 = 2 * x1, 2 * y1, np.hypot(x1, y1) ** 2 + 1
        a2, b2, c2 = 2 * x2, 2 * y2, np.hypot(x2, y2) ** 2 + 1
        det = a1 * b2 - a2 * b1
        cx = (c1 * b2 - c2 * b1) / det
        cy = (a1 * c2 - a2 * c1) / det
        dx1, dy1, dx2, dy2 = x1 - cx, y1 - cy, x2 - cx, y2 - cy
        r = _svg_texts(np.hypot(dx1, dy1)[~line] * scale)
        sweep = (dx1 * dy2 - dy1 * dx2 < 0)[~line]  # written by %d as 0, 1
    p, q, u, v = (c[~line] for c in ends)
    return _mixed(line, (_LINE, *(c[line] for c in ends)),
                  (_ARC, p, q, r, r, sweep, u, v))


def _circles(z, r, g, scale, off, color, xy=None):
    """The template and the columns of texts of the SVG circles of the
    model circles (z, r), all r > 0; xy, if given, holds the texts of the
    screen x and y of z.  A disk circle is drawn from its Euclidean
    representative, whose center is not z."""
    if g == HYPERBOLIC:
        with np.errstate(all="ignore"):
            z, r = geo.disk_circle_reps(z, r)
        xy = None
    return (_CIRCLE.format(color), *(xy or _screen(z, scale, off)),
            _svg_texts(r * scale))


def export_svg(sl, path):
    """Write the SVG of sl's charts.  The texts of a chart point's screen
    x and y serve its geodesics, its dot or its Euclidean circle."""
    g = sl.geometry
    z, c, R = sl.chart.z, sl.chart.center, sl.chart.R
    r = sl.r[sl.chart.vert]
    if g == EUCLIDEAN:
        margin = max(max(sl.r.tolist(), default=0.0), float(R.max()))
        lo = float(min(z.real.min(), z.imag.min())) - margin
        hi = float(max(z.real.max(), z.imag.max())) + margin
        scale = VIEWPORT / (hi - lo)
        off = -lo * scale
    else:
        scale = VIEWPORT / 2.2
        off = VIEWPORT / 2

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEWPORT}" height="{VIEWPORT}" '
        f'viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="white"/>',
    ]
    if g == HYPERBOLIC:
        lines.append(
            f'<circle cx="{off}" cy="{off}" r="{scale}" fill="none" '
            'stroke="#cccccc" stroke-width="1"/>')
    x, y = _screen(z, scale, off)
    # chart edges: each vertex to the next one of its chart
    start = sl.chart.start
    nxt = np.arange(1, len(z) + 1)
    nxt[start[1:] - 1] = start[:-1]
    lines.append(_geodesics(z, nxt, x, y, g, scale))
    # face circles, then vertex circles and a dot at each point vertex
    lines.append(_elements(*_circles(c, R, g, scale, off, "#3366cc")))
    dot = r <= 0
    ring = ~dot
    lines.append(_mixed(dot, (_POINT, x[dot], y[dot]), _circles(
        z[ring], r[ring], g, scale, off, "#cc3333", (x[ring], y[ring]))))
    lines.append('</svg>')
    write_text(path, "\n".join(lines))
