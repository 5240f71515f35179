"""Seeded inputs for the benchmark workloads, with the expected outcome of
every command.

Inputs are written as JSON files before any timing starts; the program
under test only ever sees those files.  Inputs and expected outcomes are
built with the benchmark's own geometry (``model.py``), never with the
package under test, so a seed gives the same bytes on every commit and a
command is held to a truth it did not produce:

* solve targets are the angles of a sampled pattern (l, r), so the true
  coordinates are known (the construction of ``hicp roundtrip``);
* feasible validate targets are the reference pattern's angles moved by
  less than a certified radius.  The radius is the slack of the
  reference target in the tightest polytope inequality, found once by
  exhaustive enumeration and frozen in ``verdicts.json``, divided by a
  bound on how fast any inequality can move (``_lipschitz``);
* infeasible validate targets push one disk's cone angle past its own
  open-star inequality, paying for it from another disk, so conditions
  1-3 still hold and enumeration runs on every input;
* validate inputs above the enumeration cap are angles of a sampled
  pattern on a triangulated surface, so they are feasible;
* render inputs are the reference pattern's coordinates on a relabelled
  torus, whose Gauss-Bonnet area the generator computes itself.

``python3 perfbench/gen.py --freeze`` recomputes ``verdicts.json``; only
that step runs the package's enumeration.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import sys

import model
from model import EUCL, GEOMS, HYP, Surface

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VERDICTS = os.path.join(HERE, "verdicts.json")


def import_hicp():
    """Import the package from the checkout's sources."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "hicp")):
        raise SystemExit(f"error: no hicp sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import hicp  # noqa: F401


# ---------------------------------------------------------------------------
# Complexes


def complex_spec(name):
    """Spec of a named benchmark complex: ``grid<n>:<disks>``,
    ``tri<n>:<disks>`` (disk ids comma separated, ``even`` for every
    second id), ``cube:``, ``octa:``, ``prism:``, ``tetra:``, ``genus2:``."""
    kind, _, disks = name.partition(":")
    torus = re.fullmatch(r"(grid|tri)(\d+)", kind)
    if torus:
        n = int(torus[2])
        v1 = (range(0, n * n, 2) if disks == "even"
              else [int(x) for x in disks.split(",") if x])
        build = model.grid_torus_spec if torus[1] == "grid" \
            else model.tri_torus_spec
        spec = build(n, v1)
    else:
        v1 = [int(x) for x in disks.split(",") if x]
        spec = {"cube": model.cube_spec, "octa": model.octahedron_spec,
                "prism": model.prism_spec, "tetra": model.tetrahedron_spec,
                "genus2": model.genus2_spec}[kind](v1)
    spec.setdefault("tangent_edges", [])
    return spec


def relabel(spec, rng):
    """The same surface with new vertex ids, shuffled face order and
    rotated face cycles.  Returns (spec, id map).  The map keeps the order
    of the ids, so every face keeps its least vertex and with it its fan
    diagonals: the relabelled triangulation is the same one."""
    ids = sorted(v["id"] for v in spec["vertices"])
    new = sorted(rng.sample(range(8 * len(ids)), len(ids)))
    perm = dict(zip(ids, new))
    verts = [{"id": perm[v["id"]], "circle": v["circle"]}
             for v in spec["vertices"]]
    faces = []
    for f in spec["faces"]:
        k = rng.randrange(len(f))
        faces.append([perm[v] for v in f[k:] + f[:k]])
    rng.shuffle(faces)
    return {"vertices": verts, "faces": faces,
            "tangent_edges": [sorted(perm[v] for v in e)
                              for e in spec.get("tangent_edges", [])]}, perm


# ---------------------------------------------------------------------------
# Angle data helpers


def _ekey(e):
    return f"{e[0]}-{e[1]}"


def input_doc(spec, g, theta=None, Theta=None):
    doc = {"geometry": g, "vertices": spec["vertices"],
           "faces": spec["faces"],
           "tangent_edges": spec.get("tangent_edges", [])}
    if theta is not None:
        doc["theta"] = {_ekey(e): v for e, v in sorted(theta.items())}
        doc["Theta"] = {str(k): v for k, v in sorted(Theta.items())}
    return doc


def reference_target(s, g):
    """(theta, Theta) of the uniform reference pattern."""
    return model.target_of(s, *model.reference_pattern(s, g), g)


def _lipschitz(s):
    """Bound C with |change of any polytope inequality| <= C * max
    change of a single theta or Theta.  A dual edge bounds at most two
    hat triangles of a domain; a point vertex's derived cone angle sums
    the theta of its edges."""
    v0_deg = sum(s.degree(v) for v in s.points)
    return 2 * len(s.e1) + v0_deg + len(s.disks)


def perturbed_feasible(s, g, target, slack, rng):
    """Target moved by less than slack / (2 C) in every inequality, with
    the Euclidean total-angle identity kept exact."""
    theta0, Theta0 = target
    rho = slack / (2 * _lipschitz(s))
    theta = {e: v + rng.uniform(-rho, rho) for e, v in theta0.items()}
    Theta = {k: v + rng.uniform(-rho, rho) for k, v in Theta0.items()}
    if g == EUCL:
        # point vertices' cone angles move by the sum of their edges'
        # theta changes; spread the opposite change over the disks
        d_point = sum(theta[e] - theta0[e]
                      for v in s.points for e in s.edges if v in e)
        d_disk = sum(Theta[k] - Theta0[k] for k in Theta)
        shift = (d_point - d_disk) / len(Theta)
        Theta = {k: v + shift for k, v in Theta.items()}
    worst = max([abs(theta[e] - theta0[e]) for e in theta]
                + [abs(Theta[k] - Theta0[k]) for k in Theta])
    if worst > rho:  # shrink the whole move back inside the radius
        f = rho / worst
        theta = {e: theta0[e] + f * (v - theta0[e])
                 for e, v in theta.items()}
        Theta = {k: Theta0[k] + f * (v - Theta0[k])
                 for k, v in Theta.items()}
    return theta, Theta


def star_violation(s, theta, Theta, rng):
    """Move cone angle from one disk to another until the receiving
    disk's open-star inequality sum(pi - theta) + 2 pi - Theta_k > 2 pi
    fails.  Returns (theta, Theta, k)."""
    disks = sorted(s.disks)
    rng.shuffle(disks)
    for k in disks:
        bound = sum(math.pi - theta.get(e, 0.0)
                    for e in s.edges if k in e)
        need = bound + rng.uniform(0.05, 0.2) - Theta[k]
        donors = [j for j in disks if j != k and Theta[j] - need > 0.05]
        if donors:
            j = max(donors, key=lambda d: Theta[d])
            out = dict(Theta)
            out[k] += need
            out[j] -= need
            return dict(theta), out, k
    raise RuntimeError("no disk pair can break a star inequality")


# ---------------------------------------------------------------------------
# Frozen slack of the reference targets (exhaustive enumeration)


def reference_slack(spec, g):
    """Smallest slack of the reference target over conditions 1-4, with
    condition 4 checked on every strict admissible domain, and the number
    of those domains.  Runs the package's exhaustive enumeration."""
    from hicp.complexes import admissible_domains, build_complex, hat_complex
    from hicp.polytope import (Theta_full, domain_inequality,
                               make_angle_data, theta_extended)
    cc = build_complex(spec)
    t = make_angle_data(cc, g, *reference_target(Surface(spec), g))
    h = hat_complex(cc)
    domains = admissible_domains(h, strict=True, require_exhaustive=True)
    th_ext, ThetaF = theta_extended(cc, t), Theta_full(cc, t)
    e0d = {h.eindex[("dual", e)] for e in cc.e0}
    slacks = [min(v, math.pi - v) for v in t.theta.values()]
    slacks += list(t.Theta.values())
    if g == HYP:
        slacks.append(sum(2 * math.pi - v for v in ThetaF.values())
                      - 2 * math.pi * cc.chi)
    for d in domains:
        star = d.is_open_star_of()
        if star is not None and star[0] == "v" and star[1] in cc.v0:
            continue
        lhs, rhs = domain_inequality(cc, h, d, th_ext, ThetaF, e0d)
        slacks.append(lhs - rhs)
    return min(slacks), len(domains)


def load_verdicts():
    with open(VERDICTS) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads

# validate-enum: (complex, target kind).  Every complex below the cap of
# 22 hat vertices runs the exhaustive enumeration; the last two are above
# it and end as "feasible under partial check" today.  grid3 with all nine
# disks and the e0-torus take 19-27 s each and are left out.  Each
# geometry has an odd number of slots, so its median command lies inside
# the group of the middle slot's commands and never on the edge between
# two groups of different size.  The middle seven (cube and octahedron,
# 0.3-0.4 s each) are enumerations of similar size, below them the two
# inputs above the cap (about 0.01 s), above them the grid torus and the
# prism (2-3 s).
VALIDATE_SLOTS = [
    ("grid3:0,4,8", "feasible"),
    ("prism:0,7", "infeasible"),
    ("cube:0,7", "feasible"),
    ("cube:0,3,5,6", "infeasible"),
    ("cube:0,1,2", "feasible"),
    ("cube:1,6", "infeasible"),
    ("octa:0,2,4", "feasible"),
    ("octa:0,1,2,3", "infeasible"),
    ("octa:0,2", "feasible"),
    ("tri3:0,1,2,3,4,5,6,7,8", "sampled"),
    ("genus2:2,5,7,11,14", "sampled"),
]
VALIDATE_CAP = 22

# render-large: (command, complex).  Sizes n = 20-24 put about a
# thousand triangles through one kernel pass, develop and export.  Each
# geometry's median command is a demo on the grid torus: two of the six
# slots, in the middle by time, so the median rests on six of them
# (with three rounds) and never on the edge of their group.
RENDER_SLOTS = [
    ("demo", "grid20:even"),
    ("demo", "tri24:even"),
    ("render", "grid24:even"),
    ("render", "tri20:even"),
    ("render", "tri24:even"),
    ("demo", "grid20:even"),
]

SOLVE_COMPLEX = "tri4:even"

# Nominal seconds one round of each workload took at the commit that
# defined the benchmark (2-core Xeon, Python 3.11, numpy 2.4).  A run is
# seconds / nominal rounds, rounded, so the work in a run is fixed by
# --seconds alone and is the same on every commit.
NOMINAL_ROUND_S = {"solve-torus": 1.25, "validate-enum": 14.0,
                   "render-large": 8.5}


def rounds_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


class InputSet:
    """Files and expected outcomes of one batch of commands."""

    def __init__(self, workdir, tag):
        self.dir = os.path.join(workdir, tag)
        os.makedirs(self.dir, exist_ok=True)
        self.commands = []
        self.files = []

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        data = json.dumps(doc, sort_keys=True)
        with open(path, "w") as fh:
            fh.write(data)
        self.files.append((name, data))
        return path

    def add(self, cmd, g, argv, expect):
        cid = f"{len(self.commands):03d}"
        out = os.path.join(self.dir, f"out{cid}")
        argv = [cmd] + argv + ["--output", out + ".json"]
        if cmd in ("demo", "render"):
            argv += ["--svg", out + ".svg"]
        self.commands.append({"id": cid, "cmd": cmd, "geometry": g,
                              "argv": argv, "out": out, "expect": expect})

    def digest(self):
        h = hashlib.sha256()
        for name, data in self.files:
            h.update(name.encode() + b"\0" + data.encode() + b"\0")
        return h.hexdigest()


def _solve_inputs(s, seed, n_rounds, complex_name=SOLVE_COMPLEX):
    spec = complex_spec(complex_name)
    surf = Surface(spec)
    rng = random.Random(f"solve-{seed}")
    for r in range(n_rounds):
        for g in GEOMS:
            theta, Theta, (a, b) = model.sampled_target(surf, g, rng)
            path = s.write(f"solve{r}-{g}.json",
                           input_doc(spec, g, theta, Theta))
            s.add("solve", g, ["--input", path], {
                "theta": {_ekey(e): v for e, v in theta.items()},
                "Theta": {str(k): v for k, v in Theta.items()},
                "a": {_ekey(e): v for e, v in a.items()},
                "b": {str(k): v for k, v in b.items()}})


def _validate_inputs(s, seed, n_rounds, slots=VALIDATE_SLOTS):
    verdicts = load_verdicts()
    rng = random.Random(f"validate-{seed}")
    for r in range(n_rounds):
        for name, kind in slots:
            spec = complex_spec(name)
            surf = Surface(spec)
            above = surf.hat_vertices > VALIDATE_CAP
            for g in GEOMS:
                cond = "E4" if g == EUCL else "H4"
                if kind == "sampled":
                    theta, Theta, _truth = model.sampled_target(surf, g, rng)
                    expect = {"exit": [3, 0] if above else [0]}
                else:
                    frozen = verdicts[f"{name}/{g}"]
                    theta, Theta = perturbed_feasible(
                        surf, g, reference_target(surf, g), frozen["slack"],
                        rng)
                    expect = {"exit": [0]}
                    if kind == "infeasible":
                        theta, Theta, k = star_violation(surf, theta, Theta,
                                                         rng)
                        expect = {"exit": [2], "condition": cond,
                                  "witness": {"domain": [["v", k]]}}
                fname = f"validate{r}-{g}-{name.replace(':', '_')}.json"
                path = s.write(fname.replace(",", "."),
                               input_doc(spec, g, theta, Theta))
                s.add("validate", g, ["--input", path], expect)


def _reference_solution(name, g):
    """(spec, coords a, coords b, expectation) of the reference pattern of
    a named complex; the expectation holds the Euler characteristic and
    the total area the Gauss-Bonnet check needs."""
    spec = complex_spec(name)
    surf = Surface(spec)
    l, r = model.reference_pattern(surf, g)
    a, b = model.coords_from_pattern(surf, l, r, g)
    area = model.hyperbolic_area(surf, l) if g == HYP else 0.0
    return spec, a, b, {"chi": surf.chi, "area": area}


def _render_inputs(s, seed, n_rounds, slots=RENDER_SLOTS):
    rng = random.Random(f"render-{seed}")
    ref = {}
    for r in range(n_rounds):
        for k, (cmd, name) in enumerate(slots):
            for g in GEOMS:
                if (name, g) not in ref:
                    ref[name, g] = _reference_solution(name, g)
                spec0, a, b, expect = ref[name, g]
                spec, p = relabel(spec0, rng)
                fname = f"{cmd}{r}.{k}-{g}-{name.split(':')[0]}.json"
                if cmd == "demo":
                    path = s.write(fname, input_doc(spec, g))
                    s.add("demo", g, ["--input", path, "--geometry", g],
                          expect)
                    continue
                sol = {"solution_version": 1, "geometry": g,
                       "input": input_doc(spec, g), "status": "Converged",
                       "coords": {
                           "a": {_ekey((p[e[0]], p[e[1]])): v
                                 for e, v in sorted(a.items())},
                           "b": {str(p[k]): v for k, v in sorted(b.items())}}}
                path = s.write(fname, sol)
                s.add("render", g, ["--input", path], expect)


BUILDERS = {"solve-torus": _solve_inputs, "validate-enum": _validate_inputs,
            "render-large": _render_inputs}


def make_inputs(workload, seed, n_rounds, workdir, tag):
    s = InputSet(workdir, tag)
    BUILDERS[workload](s, seed, n_rounds)
    return s


def smoke_inputs(workload, seed, workdir, tag):
    """Tiny inputs of the workload's command types, one each (also the
    untimed warm-up commands of every run)."""
    s = InputSet(workdir, tag)
    if workload == "solve-torus":
        _solve_inputs(s, seed, 1, complex_name="tri3:even")
    elif workload == "validate-enum":
        _validate_inputs(s, seed, 1, slots=[("tetra:0,1,2,3", "infeasible")])
    else:
        _render_inputs(s, seed, 1, slots=[("demo", "grid3:even"),
                                          ("render", "grid3:even")])
    first = {}
    for c in s.commands:
        first.setdefault(c["cmd"], c)
    s.commands = list(first.values())
    return s


def freeze():
    """Recompute the reference-target slack of every enumerated slot."""
    names = sorted({n for n, k in VALIDATE_SLOTS if k != "sampled"}
                   | {"tetra:0,1,2,3"})
    out = {}
    for name in names:
        for g in GEOMS:
            slack, n_dom = reference_slack(complex_spec(name), g)
            out[f"{name}/{g}"] = {"slack": slack, "strict_domains": n_dom}
            print(f"{name}/{g}: slack {slack:.6g}, {n_dom} strict domains",
                  flush=True)
    with open(VERDICTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        raise SystemExit("usage: python3 perfbench/gen.py --freeze")
    import_hicp()
    freeze()
