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

import numpy as np

from .complexes import (
    boundary_arrays,
    byte_table,
    check_cap,
    domain_generator_sets,
    hat_complex,
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


@dataclass(frozen=True)
class AngleData:
    """Target angles: theta on free (E1) edges, Theta on positive-circle
    (V1) vertices.  Values on E0/V0 are derived, never stored."""

    geometry: str
    theta: dict  # edge -> radians in (0, pi)
    Theta: dict  # vertex -> radians > 0


def make_angle_data(cc, geometry, theta, Theta):
    """Validate index sets against the complex."""
    check_geometry(geometry)
    theta = {tuple(sorted(e)): float(v) for e, v in theta.items()}
    Theta = {k: float(v) for k, v in Theta.items()}
    if set(theta) != set(cc.e1):
        missing = set(cc.e1) - set(theta)
        extra = set(theta) - set(cc.e1)
        raise IndexMismatch(
            f"theta keys do not match the free edges: missing {sorted(missing)},"
            f" unexpected {sorted(extra)}")
    for k in Theta:
        if k in cc.v0:
            raise IndexMismatch(
                f"Theta given for point vertex {k}: that value is derived")
    if set(Theta) != set(cc.v1):
        missing = set(cc.v1) - set(Theta)
        extra = set(Theta) - set(cc.v1)
        raise IndexMismatch(
            f"Theta keys do not match the disk vertices: missing"
            f" {sorted(missing)}, unexpected {sorted(extra)}")
    return AngleData(geometry=geometry, theta=theta, Theta=Theta)


def angle_arrays(cc, t):
    """The target as arrays: theta per edge of ``cc.edges``, 0 on E0; the
    star sums sum(pi - theta) per vertex of ``cc.vertices``, each added in
    edge order; and Theta per vertex, stored on V1 and the star sum on
    V0.  A missing E1 or V1 key raises KeyError."""
    theta = np.array([t.theta[e] if e in cc.e1 else 0.0 for e in cc.edges])
    star = np.bincount(cc.ends.ravel(), weights=np.repeat(math.pi - theta, 2),
                       minlength=len(cc.vertices))
    Theta = np.array([t.Theta[k] if k in cc.v1 else s
                      for k, s in zip(cc.vertices, star.tolist())])
    return theta, star, Theta


def theta_extended(cc, t):
    """theta on every base edge, as a dict: stored on E1, zero on E0."""
    return dict(zip(cc.edges, angle_arrays(cc, t)[0].tolist()))


def Theta_full(cc, t):
    """Theta on every vertex as a dict, in ``cc.vertices`` order."""
    return dict(zip(cc.vertices, angle_arrays(cc, t)[2].tolist()))


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
        -Theta, np.full(len(h.base.faces), -2 * math.pi), 2 * theta,
        np.full(len(h.edge_ends) - len(theta), math.pi),
        np.repeat(-theta, 2)])
    slack = reduce_bytes(byte_table(weights, np.add), rows, np.add)
    slack += math.pi * punctures(h, rows)
    # a row's vertex bits are its generators, and no two base vertices'
    # stars meet: a connected domain of point generators is one's star
    other = np.ones(len(h.star_rows), bool)
    other[:len(h.base.vertices)] = ~np.isin(h.base.vertices, list(h.base.v0))
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
    if set(t.theta) != set(cc.e1) or set(t.Theta) != set(cc.v1):
        raise IndexMismatch("angle data index sets do not match the complex")
    arrays = theta, _star, Theta = angle_arrays(cc, t)

    violations = []
    euclidean = t.geometry == EUCLIDEAN
    # edges and vertices are sorted, so E1 and V1 are met in sorted order
    for e, v in zip(cc.edges, theta.tolist()):
        if e in cc.e1 and not 0.0 < v < math.pi:
            violations.append(("E1" if euclidean else "H1",
                               {"edge": list(e)}, v, None))
    for k, v in zip(cc.vertices, Theta.tolist()):
        if k in cc.v1 and not v > 0.0:
            violations.append(("E2" if euclidean else "H2",
                               {"vertex": k}, v, 0.0))

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
    return {"edges": len(cc.e1), "vertices": len(cc.v0) + len(cc.v1)}


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
        method, size = SINGLE_STAR, {"stars": len(cc.v1)}
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
    ok = lhs > rhs + 1e-12 * (1 + degree)
    cond = "E4" if t.geometry == EUCLIDEAN else "H4"
    return [(cond, {"domain": [["v", k]]}, v, rhs)
            for k, v, good in zip(cc.vertices, lhs.tolist(), ok.tolist())
            if k in cc.v1 and not good]
