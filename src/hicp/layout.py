"""Development of a solved metric into planar or Poincare-disk charts,
per-edge circle-intersection angles, redundant-diagonal merging,
Gauss-Bonnet accounting, and SVG/JSON export."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

from . import geometry as geo
from .complexes import edge_key
from .errors import InvariantViolation, IoError, NonRedundantDiagonal
from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    check_geometry,
    circumscribe,
    corner_angle,
    disk_circle_rep,
    model_distance,
    place_triangle,
)

# |theta - pi| below which a fan diagonal counts as redundant
MERGE_TOL = 1e-6
VIEWPORT = 1000  # SVG width and height


# ---------------------------------------------------------------------------
# Model-plane primitives


def _mobius_to(a):
    """Disk automorphism sending a to the origin, and its inverse."""
    ac = a.conjugate()

    def fwd(z):
        return (z - a) / (1 - ac * z)

    def inv(z):
        return (z + a) / (1 + ac * z)

    return fwd, inv


def place_third(za, zb, l_aw, beta_a, g):
    """Position of the third vertex w: at distance l_aw from a, rotated
    counterclockwise by beta_a from the direction a -> b."""
    if g == EUCLIDEAN:
        u = (zb - za) / abs(zb - za)
        return za + u * cmath.exp(1j * beta_a) * l_aw
    fwd, inv = _mobius_to(za)
    u = fwd(zb)
    u = u / abs(u)
    return inv(u * cmath.exp(1j * beta_a) * math.tanh(l_aw / 2))


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

    @property
    def base(self):
        return self.T.base


def _local_pair_theta(T, er, e, g):
    """theta of edge e computed from the two adjacent triangles' face
    circles in a shared local chart."""
    t1, t2 = T.edge_triangles[e]
    u, v = e
    za = 0.0 + 0.0j
    if g == EUCLIDEAN:
        zb = complex(er.l[e], 0.0)
    else:
        zb = complex(math.tanh(er.l[e] / 2), 0.0)
    circles = []
    for side, ti in enumerate((t1, t2)):
        tri = T.triangles[ti]
        w = next(x for x in tri.verts if x not in e)
        l_uw = er.l[edge_key(u, w)]
        l_vw = er.l[edge_key(v, w)]
        beta_u = corner_angle(er.l[e], l_uw, l_vw, g)
        # first triangle above the axis, second below
        sign = 1.0 if side == 0 else -1.0
        zw = place_third(za, zb, l_uw, sign * beta_u, g)
        c, R = circumscribe((za, zb, zw),
                            (er.r[u], er.r[v], er.r[w]), g)
        circles.append((c, R))
    (c1, R1), (c2, R2) = circles
    return circle_intersection_angle(c1, R1, c2, R2, g)


def develop(T, tc, g):
    """Develop all triangles of T into one model chart by breadth-first
    gluing from the least triangle, crossing least-id edges first."""
    check_geometry(g)
    er = geo.psi_surface(T, tc, g)

    alpha_sum = {e: 0.0 for e in T.edges}
    beta_sum = {v: 0.0 for v in T.base.vertices}
    tri_angles = {}
    for ti, tri in enumerate(T.triangles):
        tags = geo.triangle_tags(T, tri)
        ta = geo.triangle_angles(geo.tri_er(T, er, tri), tags, g)
        tri_angles[ti] = ta
        i, j, k = tri.verts
        for m, (u, v) in enumerate(((i, j), (j, k), (k, i))):
            alpha_sum[edge_key(u, v)] += ta.alpha[m]
        for c, v in enumerate((i, j, k)):
            beta_sum[v] += ta.beta[c]

    # global development over triangles
    charts = {}
    tree = []
    root = 0
    tri = T.triangles[root]
    i, j, k = tri.verts
    l3, r3 = geo.tri_er(T, er, tri)
    pts = place_triangle(l3, g)
    charts[root] = {"verts": list(zip(tri.verts, pts))}
    placed = {root}
    queue = [root]
    while queue:
        ti = queue.pop(0)
        tri = T.triangles[ti]
        pos = dict(charts[ti]["verts"])
        sides = []
        vs = tri.verts
        for m in range(3):
            e = edge_key(vs[m], vs[(m + 1) % 3])
            sides.append((e, vs[m], vs[(m + 1) % 3]))
        for e, a, b in sorted(sides):
            o1, o2 = T.edge_triangles[e]
            nb = o2 if o1 == ti else o1
            if nb in placed:
                continue
            placed.add(nb)
            tree.append((ti, nb, e))
            ntri = T.triangles[nb]
            w = next(x for x in ntri.verts if x not in e)
            # neighbor traverses e in the opposite direction (b -> a)
            l_bw = er.l[edge_key(b, w)]
            l_aw = er.l[edge_key(a, w)]
            beta_b = corner_angle(er.l[e], l_bw, l_aw, g)
            zw = place_third(pos[b], pos[a], l_bw, beta_b, g)
            npos = {a: pos[a], b: pos[b], w: zw}
            charts[nb] = {"verts": [(x, npos[x]) for x in ntri.verts]}
            queue.append(nb)

    for ti, tri in enumerate(T.triangles):
        pos = dict(charts[ti]["verts"])
        c, R = circumscribe([pos[v] for v in tri.verts],
                            [er.r[v] for v in tri.verts], g)
        charts[ti]["circle"] = (c, R)

    theta = {}
    for e in T.edges:
        th = _local_pair_theta(T, er, e, g)
        # the angle is a sqrt-sensitive function of the circle data near
        # tangency, so scale the agreement tolerance by the conditioning
        tol = 1e-9 / max(math.sin(alpha_sum[e]), 1e-3)
        if abs(th - alpha_sum[e]) > tol:
            raise InvariantViolation(
                f"edge {e}: circle angle {th} != alpha sum {alpha_sum[e]}")
        theta[e] = th

    areas = {}
    if g == HYPERBOLIC:
        for ti in charts:
            ta = tri_angles[ti]
            areas[ti] = math.pi - sum(ta.beta)

    return SurfaceLayout(
        geometry=g, T=T, er=er, merged=False, charts=charts,
        theta=theta, alpha_sum=dict(alpha_sum),
        Theta=dict(beta_sum), radii=dict(er.r), tree_edges=tuple(tree),
        areas=areas)


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
        tis = face_tris[fi]
        # local development of the fan from its first triangle
        tri0 = T.triangles[tis[0]]
        l3, _r3 = geo.tri_er(T, er, tri0)
        pos = dict(zip(tri0.verts, place_triangle(l3, g)))
        placed = {tis[0]}
        changed = True
        while changed:
            changed = False
            for ti in tis:
                if ti in placed:
                    continue
                tri = T.triangles[ti]
                known = [v for v in tri.verts if v in pos]
                if len(known) < 2:
                    continue
                # find a shared edge with an already-placed fan triangle
                a = b = w = None
                for m in range(3):
                    u1, u2 = tri.verts[m], tri.verts[(m + 1) % 3]
                    if u1 in pos and u2 in pos:
                        other = T.edge_triangles[edge_key(u1, u2)]
                        if any(t in placed for t in other if t != ti):
                            # (u1, u2) is in this triangle's own cyclic
                            # order, so the third vertex goes on its left
                            a, b = u1, u2
                            w = next(x for x in tri.verts
                                     if x not in (u1, u2))
                            break
                if a is None:
                    continue
                beta_a = corner_angle(er.l[edge_key(a, b)],
                                      er.l[edge_key(a, w)],
                                      er.l[edge_key(b, w)], g)
                pos[w] = place_third(pos[a], pos[b],
                                     er.l[edge_key(a, w)], beta_a, g)
                placed.add(ti)
                changed = True
        if placed != set(tis):
            raise InvariantViolation(f"face {f}: fan could not be developed")

        circles = []
        for ti in tis:
            tri = T.triangles[ti]
            circles.append(circumscribe(
                [pos[v] for v in tri.verts],
                [er.r[v] for v in tri.verts], g))
        c0, R0 = circles[0]
        for c, R in circles[1:]:
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
        tree_edges=sl.tree_edges, areas=areas)


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
