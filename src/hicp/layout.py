"""Development of a solved metric into planar or Poincare-disk charts,
per-edge circle-intersection angles, redundant-diagonal merging,
Gauss-Bonnet accounting, and SVG/JSON export."""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .complexes import edge_key
from .errors import InvariantViolation, IoError, NonRedundantDiagonal
from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    check_geometry,
    disk_circle_rep,
    model_distance,
)

# |theta - pi| below which a fan diagonal counts as redundant
MERGE_TOL = 1e-6
VIEWPORT = 1000  # SVG width and height


# ---------------------------------------------------------------------------
# Model-plane primitives


def circle_intersection_angle(c1, R1, c2, R2, g):
    """Intersection angle of two face circles from their centers and
    radii (inverse of dual_edge_length)."""
    h = model_distance(c1, c2, g)
    dR = abs(R1 - R2)
    # half-angle form: stable near tangency (theta near 0 or pi)
    if g == EUCLIDEAN:
        s2 = (R1 + R2 - h) * (R1 + R2 + h)
        c2 = (h - dR) * (h + dR)
    else:
        s2 = math.cosh(R1 + R2) - math.cosh(h)
        c2 = math.cosh(h) - math.cosh(dR)
    return 2 * math.atan2(math.sqrt(max(0.0, s2)),
                          math.sqrt(max(0.0, c2)))


# ---------------------------------------------------------------------------
# SurfaceLayout


@dataclass
class SurfaceLayout:
    geometry: str
    T: object  # Triangulation
    er: object  # EdgeRadii
    merged: bool
    # chart key: triangle index (unmerged) or base face index (merged)
    charts: dict  # key -> {"verts": [(vid, complex)], "circle": (center, R)}
    theta: dict  # edge -> intersection angle
    alpha_sum: dict  # edge -> alpha + alpha'
    Theta: dict  # vertex -> cone angle
    radii: dict  # vertex -> r
    tree_edges: tuple = ()
    areas: dict = field(default_factory=dict)  # chart key -> area (hyp)
    # per triangle: the kernel's placement ({vertex: position}) and its
    # face circle (center, R) there
    placed: tuple = ()

    @property
    def base(self):
        return self.T.base


def _glue(T, placed, tis, g):
    """Develop the triangles tis, connected across shared edges, into one
    chart: the first keeps its kernel placement, and each next one is
    moved by one isometry onto a placed neighbour (breadth first,
    least-id edges first).  Returns per triangle its positions and circle
    in the chart, and the crossed edges as (from, to, edge)."""
    members = set(tis)
    root = tis[0]
    charts = {root: placed[root]}
    tree = []
    queue = deque([root])
    while queue:
        ti = queue.popleft()
        pos = charts[ti][0]
        vs = T.triangles[ti].verts
        for e, a, b in sorted((edge_key(vs[m], vs[(m + 1) % 3]),
                               vs[m], vs[(m + 1) % 3]) for m in range(3)):
            o1, o2 = T.edge_triangles[e]
            nb = o2 if o1 == ti else o1
            if nb not in members or nb in charts:
                continue
            tree.append((ti, nb, e))
            npos, (c, R) = placed[nb]
            w = next(x for x in npos if x not in e)
            # one isometry: the neighbour's b to 0 and its a onto the
            # positive real axis, then onto the chart's b and a (the
            # neighbour traverses e in the opposite direction, b -> a)
            fwd = geo.frame(npos[b], npos[a], g)[0]
            inv = geo.frame(pos[b], pos[a], g)[1]
            charts[nb] = ({a: pos[a], b: pos[b], w: inv(fwd(npos[w]))},
                          (inv(fwd(c)), R))
            queue.append(nb)
    return charts, tree


def _pair_theta(T, placed, e, g):
    """theta of edge e = (u, v) from the kernel circles of its two
    triangles, each moved into the frame of e (u at 0, v on the positive
    real axis), where the triangles lie on opposite sides."""
    u, v = e
    circles = []
    for ti in T.edge_triangles[e]:
        pos, (c, R) = placed[ti]
        circles.append((geo.frame(pos[u], pos[v], g)[0](c), R))
    (c1, R1), (c2, R2) = circles
    return circle_intersection_angle(c1, R1, c2, R2, g)


def develop(T, tc, g):
    """Develop all triangles of T into one model chart by breadth-first
    gluing from the least triangle, crossing least-id edges first.  One
    kernel call places and circumscribes every triangle; the chart, the
    theta check and merge_redundant move those placements.  theta is the
    class-forced 0 on tangency edges."""
    check_geometry(g)
    ix = T.tri_index
    dt = geo.decorate_surface(T, tc, g)
    er = geo.edge_radii(T, dt.l, dt.r)
    alpha_sum = dict(zip(T.edges, np.bincount(
        ix.edge.ravel(), weights=dt.alpha.ravel(),
        minlength=len(T.edges)).tolist()))
    verts = T.base.vertices
    beta_sum = dict(zip(verts, np.bincount(
        ix.vert.ravel(), weights=dt.beta.ravel(),
        minlength=len(verts)).tolist()))
    placed = [(dict(zip(tri.verts, zs)), (c, R)) for tri, zs, c, R in zip(
        T.triangles, dt.z.tolist(), dt.center.tolist(), dt.R.tolist())]
    areas = {}
    if g == HYPERBOLIC:
        areas = dict(enumerate((math.pi - dt.beta.sum(axis=1)).tolist()))

    glued, tree = _glue(T, placed, range(len(T.triangles)), g)
    charts = {ti: {"verts": [(v, pos[v]) for v in T.triangles[ti].verts],
                   "circle": circle}
              for ti, (pos, circle) in glued.items()}

    theta = {}
    for e in T.edges:
        if e in T.base.e0:
            theta[e] = 0.0
            continue
        th = _pair_theta(T, placed, e, g)
        # the angle is a sqrt-sensitive function of the circle data near
        # tangency, so scale the agreement tolerance by the conditioning
        tol = 1e-9 / max(math.sin(alpha_sum[e]), 1e-3)
        if abs(th - alpha_sum[e]) > tol:
            raise InvariantViolation(
                f"edge {e}: circle angle {th} != alpha sum {alpha_sum[e]}")
        theta[e] = th

    return SurfaceLayout(
        geometry=g, T=T, er=er, merged=False, charts=charts,
        theta=theta, alpha_sum=alpha_sum,
        Theta=beta_sum, radii=dict(er.r), tree_edges=tuple(tree),
        areas=areas, placed=tuple(placed))


# ---------------------------------------------------------------------------
# Reports


def delaunay_report(sl):
    """Per-edge record: intersection angle, local Delaunay flag,
    redundancy flag."""
    out = {}
    for e, th in sl.theta.items():
        out[e] = {
            "theta": th,
            "is_delaunay": 0.0 <= th < math.pi,
            "is_redundant": abs(th - math.pi) <= MERGE_TOL,
        }
    return out


def gauss_bonnet_check(sl):
    """Residual record of the Gauss-Bonnet identity."""
    cc = sl.base
    total = sum(2 * math.pi - sl.Theta[v] for v in cc.vertices)
    target = 2 * math.pi * cc.chi
    if sl.geometry == EUCLIDEAN:
        return {"residual": total - target, "area": 0.0}
    area = sum(sl.areas.values())
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
    er = sl.er
    for e in T.e_pi:
        if abs(sl.theta[e] - math.pi) > MERGE_TOL:
            raise NonRedundantDiagonal(
                f"diagonal {e}: theta = {sl.theta[e]}")

    face_tris = {}
    for ti, tri in enumerate(T.triangles):
        face_tris.setdefault(tri.face, []).append(ti)

    charts = {}
    for fi, f in enumerate(cc.faces):
        fan, _tree = _glue(T, sl.placed, face_tris[fi], g)
        pos = {}
        for p, _circle in fan.values():
            pos.update(p)
        c0, R0 = fan[face_tris[fi][0]][1]
        for _p, (c, R) in fan.values():
            if (model_distance(c0, c, g) > 10 * MERGE_TOL
                    or abs(R - R0) > 10 * MERGE_TOL):
                raise NonRedundantDiagonal(
                    f"face {f}: fan circles disagree")
        charts[fi] = {"verts": [(v, pos[v]) for v in f],
                      "circle": (c0, R0)}

    theta = {e: sl.theta[e] for e in cc.edges}
    areas = {}
    if g == HYPERBOLIC:
        for fi, f in enumerate(cc.faces):
            areas[fi] = sum(sl.areas[ti] for ti in face_tris[fi])
    return SurfaceLayout(
        geometry=g, T=T, er=er, merged=True, charts=charts,
        theta=theta, alpha_sum={e: sl.alpha_sum[e] for e in cc.edges},
        Theta=dict(sl.Theta), radii=dict(sl.radii),
        tree_edges=sl.tree_edges, areas=areas, placed=sl.placed)


# ---------------------------------------------------------------------------
# Export


def _fmt(x):
    return float(f"{x:.12g}")


def layout_to_dict(sl):
    charts = {}
    for key in sorted(sl.charts):
        ch = sl.charts[key]
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
        "vertices": {str(v): {"radius": _fmt(sl.radii[v]),
                              "cone_angle": _fmt(sl.Theta[v])}
                     for v in sorted(sl.Theta)},
        "edges": {f"{e[0]}-{e[1]}": {"theta": _fmt(th)}
                  for e, th in sorted(sl.theta.items())},
        "charts": charts,
    }


def export_json(sl, path):
    try:
        with open(path, "w") as fh:
            json.dump(layout_to_dict(sl), fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc))


def _svg_geodesic(z1, z2, g, scale, off):
    def sp(z):
        return (off + scale * z.real, off - scale * z.imag)

    x1, y1 = sp(z1)
    x2, y2 = sp(z2)
    if g == EUCLIDEAN:
        return f'M {x1:.3f} {y1:.3f} L {x2:.3f} {y2:.3f}'
    # geodesic arc: circle orthogonal to the unit circle through z1, z2
    cross = (z1.conjugate() * z2).imag
    if abs(cross) < 1e-9:
        return f'M {x1:.3f} {y1:.3f} L {x2:.3f} {y2:.3f}'
    # solve 2 c . z = |z|^2 + 1 for both points
    a1, b1, c1 = 2 * z1.real, 2 * z1.imag, abs(z1) ** 2 + 1
    a2, b2, c2 = 2 * z2.real, 2 * z2.imag, abs(z2) ** 2 + 1
    det = a1 * b2 - a2 * b1
    cx = (c1 * b2 - c2 * b1) / det
    cy = (a1 * c2 - a2 * c1) / det
    c = complex(cx, cy)
    r = abs(z1 - c) * scale
    sweep = 1 if ((z1 - c).conjugate() * (z2 - c)).imag < 0 else 0
    return (f'M {x1:.3f} {y1:.3f} A {r:.3f} {r:.3f} 0 0 {sweep} '
            f'{x2:.3f} {y2:.3f}')


def export_svg(sl, path):
    g = sl.geometry
    pts = [z for ch in sl.charts.values() for _v, z in ch["verts"]]
    if g == EUCLIDEAN:
        margin = max(sl.radii.values(), default=0.0)
        for ch in sl.charts.values():
            c, R = ch["circle"]
            margin = max(margin, R)
        xs = [z.real for z in pts]
        ys = [z.imag for z in pts]
        lo = min(min(xs), min(ys)) - margin
        hi = max(max(xs), max(ys)) + margin
        scale = VIEWPORT / (hi - lo)
        off = -lo * scale
    else:
        scale = VIEWPORT / 2.2
        off = VIEWPORT / 2

    def sp(z):
        return (off + scale * z.real, off - scale * z.imag)

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

    for key in sorted(sl.charts):
        ch = sl.charts[key]
        vs = ch["verts"]
        for t in range(len(vs)):
            z1 = vs[t][1]
            z2 = vs[(t + 1) % len(vs)][1]
            d = _svg_geodesic(z1, z2, g, scale, off)
            lines.append(f'<path d="{d}" stroke="#222222" fill="none" '
                         'stroke-width="1"/>')
    # face circles
    for key in sorted(sl.charts):
        c, R = sl.charts[key]["circle"]
        if g == EUCLIDEAN:
            x, y = sp(c)
            rr = R * scale
        else:
            o, Re = disk_circle_rep(c, R)
            x, y = sp(o)
            rr = Re * scale
        lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{rr:.3f}" '
                     'fill="none" stroke="#3366cc" stroke-width="0.8"/>')
    # vertex circles
    for key in sorted(sl.charts):
        for v, z in sl.charts[key]["verts"]:
            r = sl.radii[v]
            if r <= 0:
                x, y = sp(z)
                lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2" '
                             'fill="#cc3333"/>')
                continue
            if g == EUCLIDEAN:
                x, y = sp(z)
                rr = r * scale
            else:
                o, Re = disk_circle_rep(z, r)
                x, y = sp(o)
                rr = Re * scale
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{rr:.3f}" '
                         'fill="none" stroke="#cc3333" stroke-width="0.8"/>')
    lines.append('</svg>')
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(str(exc))
