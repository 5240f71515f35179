"""Membership test for target angle data in the angle-data polytope.

The conditions, checked in order:
  1 (E1/H1): theta strictly inside (0, pi) on free edges.
  2 (E2/H2): Theta strictly positive on positive-circle vertices; point
     vertices carry the derived value Theta_k = sum(pi - theta_ik).
  3 (E3): Euclidean total angle identity sum(2 pi - Theta) = 2 pi chi(S)
     within tolerance; (H3): strictly greater for hyperbolic.
  4 (E4/H4): for every strict admissible domain Omega (excluding the
     open star of a point vertex, whose inequality degenerates to the
     condition-2 identity):
         sum over boundary dual edges (pi - theta_ij)
         + sum over vertices inside (2 pi - Theta_k)
         > 2 pi chi(Omega) - pi |boundary ∩ V|,
     with theta extended by 0 on tangency edges (which realizes the
     tangency-corrected variant of the inequality automatically).
     ``domain_slacks`` evaluates it for every enumerated domain in one
     array pass; ``domain_sides`` decides the rows near the threshold
     and supplies the witnesses' lhs and rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from types import MappingProxyType

import numpy as np

from .complexes import (
    boundary_arrays,
    byte_table,
    check_cap,
    domain_generator_sets,
    hat_complex,
    id_array,
    id_positions,
    positions,
    punctures,
    reduce_bytes,
)
from .errors import IndexMismatch
from .geometry import EUCLIDEAN, check_geometry

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
PARTIAL = "FeasibleUnderPartialCheck"

# the method that decided a report
CONDITIONS_1_3 = "conditions 1-3"
ENUMERATION = "enumeration"
SINGLE_STAR = "single-star"


@dataclass(frozen=True, eq=False)
class AngleData:
    """Target angles as arrays over the positions of the complex ``cc``.
    ``theta`` and ``Theta`` are read-only dict views over E1 and V1,
    built on first read.  Two are equal when their geometry, complex and
    values are."""

    geometry: str
    cc: object  # the CellComplex
    th: np.ndarray  # per edge of ``cc.edges``: radians, 0 on E0
    Th: np.ndarray  # per vertex of ``cc.vertices``: the star sum on V0

    def __eq__(self, other):
        return (isinstance(other, AngleData)
                and self.geometry == other.geometry
                and _same_positions(self.cc, other.cc)
                and np.array_equal(self.th, other.th)
                and np.array_equal(self.Th, other.Th))

    @cached_property
    def theta(self):
        return _view(self.cc.edges, self.th, self.cc.eclass)

    @cached_property
    def Theta(self):
        return _view(self.cc.vertices, self.Th, self.cc.vclass)


def _same_positions(a, b):
    """Whether the complexes a and b have the same vertices and edges,
    of the same classes, at the same positions."""
    return a is b or (a.vertices == b.vertices and all(map(
        np.array_equal, (a.vclass, a.ends, a.eclass),
        (b.vclass, b.ends, b.eclass))))


def _view(names, values, cls):
    """The values of the items of class 1 as a read-only dict."""
    return MappingProxyType(dict(compress(zip(names, values.tolist()),
                                          (cls == 1).tolist())))


def star_sums(cc, theta):
    """sum(pi - theta) over each vertex's edges, added in edge order."""
    return np.bincount(cc.ends.ravel(), weights=np.repeat(math.pi - theta, 2),
                       minlength=len(cc.vertices))


def make_angle_data(cc, geometry, theta, Theta):
    """Angle data of dicts: theta keyed by the free (E1) edges as id
    pairs in either order, Theta by the disk (V1) vertex ids.  The keys
    are looked up as positions of ``cc`` in one array pass, ids, then
    edge codes.  Checked in order, each naming its first fault in key
    order: the geometry; keys that are not ids; two theta keys of one
    edge; the values, as float reads them; theta keys that are not E1,
    or E1 edges with none; Theta on a point vertex; Theta keys that are
    not V1, or V1 vertices with none."""
    check_geometry(geometry)
    keys, vkeys, V = list(theta), list(Theta), len(cc.vertices)
    try:
        x = id_array(flat := [*chain.from_iterable(keys), *vkeys])
        ok = x.tolist() == flat and not set(map(len, keys)) - {2}
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise IndexMismatch("angle data keys are not vertex ids: theta takes"
                            " pairs of ints, Theta ints")
    p = id_positions(id_array(cc.vertices), x)  # an unknown id: >= V
    N = V + p.size
    pairs = p[:2 * len(keys)].reshape(-1, 2)
    code = pairs @ [N, 1]
    # distinct keys of increasing ids name distinct edges
    if not (pairs[:, 0] < pairs[:, 1]).all():
        code = np.sort(pairs, axis=1) @ [N, 1]
        order = np.argsort(code, kind="stable")
        twin = order[1:][code[order[1:]] == code[order[:-1]]]
        if len(twin):
            i = int(twin.min())
            raise IndexMismatch(
                f"theta keys {keys[np.argmax(code == code[i])]} and "
                f"{keys[i]} name the same edge")
    values = np.fromiter(map(float, theta.values()), float, len(theta))
    vvalues = np.fromiter(map(float, Theta.values()), float, len(Theta))

    # the keys are distinct: they match when each is an E1 edge, or a
    # disk, and there are as many as E1 edges, or disks
    at, free = positions(cc.ends @ [N, 1], code)
    free &= cc.eclass.take(at, mode="clip") == 1
    if not free.all() or len(keys) != np.count_nonzero(cc.eclass):
        missing = cc.eclass == 1
        missing[at[free]] = False
        raise IndexMismatch(
            "theta keys do not match the free edges: missing"
            f" {list(compress(cc.edges, missing.tolist()))}, unexpected "
            f"{sorted(tuple(sorted(e)) for e in compress(keys, ~free))}")
    k = np.minimum(p[2 * len(keys):], V)
    kind = np.append(cc.vclass, -1)[k]  # -1 for no vertex
    if not (kind > 0).all() or len(vkeys) != np.count_nonzero(cc.vclass):
        if (kind == 0).any():
            raise IndexMismatch(f"Theta given for point vertex "
                                f"{vkeys[np.argmax(kind == 0)]}: that value"
                                " is derived")
        missing = cc.vclass == 1
        missing[k[kind > 0]] = False
        raise IndexMismatch(
            "Theta keys do not match the disk vertices: missing"
            f" {list(compress(cc.vertices, missing.tolist()))}, unexpected "
            f"{sorted(compress(vkeys, kind < 0))}")
    th = np.zeros(len(cc.ends))
    th[at] = values
    Th = star_sums(cc, th)
    Th[k] = vvalues
    return AngleData(geometry=geometry, cc=cc, th=th, Th=Th)


def angle_arrays(cc, t):
    """The target as arrays: theta per edge of ``cc.edges``, the star
    sums sum(pi - theta) per vertex of ``cc.vertices``, each added in
    edge order, and Theta per vertex."""
    return t.th, star_sums(cc, t.th), t.Th


def theta_extended(cc, t):
    """theta on every base edge, as a dict: stored on E1, zero on E0."""
    return dict(zip(cc.edges, t.th.tolist()))


def Theta_full(cc, t):
    """Theta on every vertex as a dict, in ``cc.vertices`` order."""
    return dict(zip(cc.vertices, t.Th.tolist()))


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: str
    violations: tuple  # of (condition id, witness, lhs, rhs)
    gauss_bonnet_residual: float
    partial: bool
    # which test decided, and how large its problem was: for
    # CONDITIONS_1_3 the free edges and the vertices, for ENUMERATION the
    # hat vertices and the domains whose inequality was evaluated, for
    # SINGLE_STAR the stars
    method: str
    size: dict = field(compare=False)

    @property
    def feasible(self):
        return self.verdict in (FEASIBLE, PARTIAL)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "violations": [
                {"condition": c, "witness": w, "lhs": lhs, "rhs": rhs}
                for c, w, lhs, rhs in self.violations
            ],
            "gauss_bonnet_residual": self.gauss_bonnet_residual,
            "partial": self.partial,
            "method": self.method,
            "size": self.size,
        }


def domain_sides(h, rows, theta, Theta):
    """(lhs, rhs) of the condition-4 inequality per domain, given as its
    cell row; ``theta`` and ``Theta`` are those of ``angle_arrays``.
    Each of lhs's two sums adds left to right: the boundary dual edges
    in edge order, then the base vertices inside in vertex order."""
    mult, n_v, chi = boundary_arrays(h, rows)
    inside = np.unpackbits(rows, axis=1, count=len(Theta), bitorder="little")
    # cumsum adds sequentially, where sum of floats is compensated from
    # Python 3.12; a masked term is +0.0
    lhs = (np.cumsum(np.where(mult > 0, (math.pi - theta) * mult, 0.0),
                     axis=1)[:, -1]
           + np.cumsum(np.where(inside, 2 * math.pi - Theta, 0.0),
                       axis=1)[:, -1])
    return lhs, 2 * math.pi * chi - math.pi * n_v


def domain_inequality(cc, h, d, theta_ext, ThetaF, e0_duals):
    """``domain_sides`` of one strict ``Domain``, from dicts of theta and
    Theta; ``e0_duals`` is not read, as theta is 0 on E0."""
    lhs, rhs = domain_sides(h, d.row[None],
                            np.array([theta_ext[e] for e in cc.edges]),
                            np.array([ThetaF[k] for k in cc.vertices]))
    return lhs.item(), rhs.item()


def domain_slacks(h, rows, theta, Theta):
    """For each domain, given as its cell row (see ``HatTriangulation``): the
    condition-4 lhs - rhs of ``domain_inequality``, and whether it is
    the open star of a point vertex.  ``theta`` and ``Theta`` are those
    of ``angle_arrays``.

    The slack is a sum of weights over the domain's cells:
        -Theta_k per base vertex k,  -2 pi per dual vertex,
        2 theta_e per dual edge,  pi per corner edge,
        -theta of the base edge it straddles per hat face,
        pi per puncture: a base vertex outside whose link is all inside.
    This is lhs - rhs rearranged: a dual edge inside has both hat faces
    across it inside, and |boundary ∩ V| is |F| - |E_corner| + the
    punctures (see ``boundary_arrays``).  The weights are in the cell
    order of ``hat_complex``."""
    weights = np.concatenate([
        -Theta, np.full(len(h.base.face_start) - 1, -2 * math.pi), 2 * theta,
        np.full(len(h.edge_ends) - len(theta), math.pi),
        np.repeat(-theta, 2)])
    slack = reduce_bytes(byte_table(weights, np.add), rows, np.add)
    slack += math.pi * punctures(h, rows)
    # a row's vertex bits are its generators, and no two base vertices'
    # stars meet: a connected domain of point generators is one's star
    other = np.ones(len(h.star_rows), bool)
    other[:len(h.base.vertices)] = h.base.vclass == 1
    held = np.zeros(len(rows), np.uint8)
    for p, m in enumerate(np.packbits(other, bitorder="little")):
        held |= rows[:, p] & m
    return slack, held == 0


def _conditions_1_to_3(cc, t):
    """Conditions 1-3 in order: (violations, ``angle_arrays``, the
    Gauss-Bonnet residual, the comparison tolerance)."""
    if not isinstance(t, AngleData):
        raise IndexMismatch("expected AngleData")
    check_geometry(t.geometry)
    if not _same_positions(cc, t.cc):
        raise IndexMismatch("angle data index sets do not match the complex")
    arrays = theta, _star, Theta = angle_arrays(cc, t)

    euclidean = t.geometry == EUCLIDEAN
    # edges and vertices are sorted, so E1 and V1 are met in sorted order
    ids, violations = cc.vertices, []
    bad = (cc.eclass == 1) & ~((0 < theta) & (theta < math.pi))
    if bad.any():
        violations += [("E1" if euclidean else "H1",
                        {"edge": [ids[a], ids[b]]}, v, None)
                       for (a, b), v in zip(cc.ends[bad].tolist(),
                                            theta[bad].tolist())]
    bad = (cc.vclass == 1) & ~(Theta > 0)
    if bad.any():
        violations += [("E2" if euclidean else "H2", {"vertex": ids[k]}, v,
                        0.0) for k, v in zip(np.flatnonzero(bad).tolist(),
                                             Theta[bad].tolist())]

    # added left to right in vertex order, whatever the order of the
    # input's keys: cumsum adds sequentially, where sum of floats is
    # compensated from Python 3.12
    with np.errstate(over="ignore"):  # a huge Theta may overflow to +-inf
        total = np.cumsum(2 * math.pi - Theta)[-1].item()
    target = 2 * math.pi * cc.chi
    gb_residual = total - target
    tol = 1e-12 * (1 + len(Theta))
    if euclidean and abs(gb_residual) > tol:
        violations.append(("E3", {"surface": True}, total, target))
    elif not euclidean and not gb_residual > tol:
        violations.append(("H3", {"surface": True}, total, target))
    return violations, arrays, gb_residual, tol


def _conditions_size(cc):
    return {"edges": int(cc.eclass.sum()), "vertices": len(cc.vertices)}


def check_feasibility(cc, t, cap=22):
    """Decide polytope membership of the angle data on the complex.
    Raises ``CapExceeded`` for a ``cap`` above ``complexes.MAX_CAP``."""
    check_cap(cap)
    violations, (theta, _star, Theta), gb_residual, tol = \
        _conditions_1_to_3(cc, t)
    partial = False
    method, size = CONDITIONS_1_3, _conditions_size(cc)
    if not violations:
        h = hat_complex(cc)
        rows, partial = domain_generator_sets(h, strict=True, cap=cap)
        slack, point_star = domain_slacks(h, rows, theta, Theta)
        # The cell weights add up in another order than domain_sides, so
        # a row not clearly above the threshold (or NaN) is decided by
        # domain_sides; a witness's generators are its row's vertex bits.
        band = rows[~(slack > tol + 1e-9 * (1 + np.abs(slack)))
                    & ~point_star]
        cond = "E4" if t.geometry == EUCLIDEAN else "H4"
        lhs, rhs = domain_sides(h, band, theta, Theta)
        gens = np.unpackbits(band, axis=1, count=len(h.star_rows),
                             bitorder="little")
        for g, l, r in zip(gens, lhs.tolist(), rhs.tolist()):
            if not l > r + tol:
                witness = sorted(list(h.vertices[i]) for i in g.nonzero()[0])
                violations.append((cond, {"domain": witness}, l, r))
        method = ENUMERATION
        size = {"hat_vertices": len(h.star_rows),
                "domains": len(rows) - int(point_star.sum())}

    violations.sort(key=lambda v: (v[0], str(v[1])))
    if violations:
        verdict = INFEASIBLE
    elif partial:
        verdict = PARTIAL
    else:
        verdict = FEASIBLE
    return FeasibilityReport(verdict=verdict, violations=tuple(violations),
                             gauss_bonnet_residual=gb_residual,
                             partial=partial, method=method, size=size)


def pre_check(cc, t):
    """The solver's cheap necessary test: conditions 1-3, then the
    single-star subset of condition 4.  (report, ``angle_arrays``): the
    report is infeasible with the violations found, or feasible under
    this partial check."""
    violations, arrays, gb_residual, _tol = _conditions_1_to_3(cc, t)
    method, size = CONDITIONS_1_3, _conditions_size(cc)
    if not violations:
        violations = single_star_check(cc, t, arrays)
        method, size = SINGLE_STAR, {"stars": int(cc.vclass.sum())}
    return FeasibilityReport(
        verdict=INFEASIBLE if violations else PARTIAL,
        violations=tuple(violations), gauss_bonnet_residual=gb_residual,
        partial=not violations, method=method, size=size), arrays


def single_star_check(cc, t, arrays):
    """The condition-4 inequalities over open stars of positive-circle
    vertices only (a cheap necessary subset, used by pre_check): for
    OStar(k), k in V1 the inequality reads
    sum over incident edges (pi - theta_ik) + (2 pi - Theta_k) > 2 pi.
    ``arrays`` is ``angle_arrays(cc, t)``."""
    _theta, star, Theta = arrays
    lhs = star + (2 * math.pi - Theta)
    rhs = 2 * math.pi
    degree = np.bincount(cc.ends.ravel(), minlength=len(lhs))
    bad = (cc.vclass == 1) & ~(lhs > rhs + 1e-12 * (1 + degree))
    if not bad.any():
        return []
    cond = "E4" if t.geometry == EUCLIDEAN else "H4"
    return [(cond, {"domain": [["v", cc.vertices[k]]]}, v, rhs)
            for k, v in zip(np.flatnonzero(bad).tolist(), lhs[bad].tolist())]
