"""Correctness checks of command outputs against the expectations the
generator attached to each input.  A check returns the reason it failed,
or None; it never raises on bad output."""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

from model import Surface, gauge_project, gauss_bonnet_residual

SOLVE_ANGLE_TOL = 1e-8
SOLVE_COORD_TOL = 1e-6
GAUSS_BONNET_TOL = 1e-8
VERDICT_OF_EXIT = {0: "Feasible", 2: "Infeasible",
                   3: "FeasibleUnderPartialCheck"}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _max_diff(got, want):
    if set(got) != set(want):
        return math.inf
    return max((abs(got[k] - want[k]) for k in want), default=0.0)


def _check_solve(c, rc, out):
    if rc != 0:
        return f"exit {rc}"
    sol = _load_json(out + ".json")
    exp = c["expect"]
    if sol.get("status") != "Converged":
        return f"status {sol.get('status')}"
    real = sol["realized"]
    err = max(_max_diff(real["theta"], exp["theta"]),
              _max_diff(real["Theta"], exp["Theta"]))
    if not err <= SOLVE_ANGLE_TOL:
        return f"realized angles off by {err:.3g}"
    # the comparison hicp roundtrip makes: gauge-projected coordinates
    surf = Surface(sol["input"])
    a = {tuple(int(x) for x in k.split("-")): v
         for k, v in sol["coords"]["a"].items()}
    b = {int(k): v for k, v in sol["coords"]["b"].items()}
    a, b = gauge_project(surf, a, b, sol["geometry"])
    err = max(_max_diff({f"{e[0]}-{e[1]}": v for e, v in a.items()},
                        exp["a"]),
              _max_diff({str(k): v for k, v in b.items()}, exp["b"]))
    if not err <= SOLVE_COORD_TOL:
        return f"coordinates off by {err:.3g}"
    return None


def _check_validate(c, rc, out):
    exp = c["expect"]
    if rc not in exp["exit"]:
        return f"exit {rc}, expected {exp['exit']}"
    rep = _load_json(out + ".json")
    if rep.get("verdict") != VERDICT_OF_EXIT[rc]:
        return f"verdict {rep.get('verdict')} with exit {rc}"
    conds = {v["condition"] for v in rep["violations"]}
    if "condition" not in exp:
        return f"violations {sorted(conds)}" if conds else None
    if conds != {exp["condition"]}:
        return f"violated {sorted(conds)}, expected {exp['condition']}"
    if exp["witness"] not in [v["witness"] for v in rep["violations"]]:
        return f"witness {exp['witness']} not reported"
    return None


def _check_drawing(c, rc, out):
    """demo and render: both outputs parse, the fan diagonals were merged,
    and the layout's cone angles satisfy Gauss-Bonnet against the
    generator's Euler characteristic and area."""
    if rc != 0:
        return f"exit {rc}"
    doc = _load_json(out + ".json")
    ET.parse(out + ".svg")
    layout = doc["layout"] if c["cmd"] == "demo" else doc
    if not layout.get("merged"):
        return "fan diagonals were not merged"
    exp = c["expect"]
    residual = gauss_bonnet_residual(
        [v["cone_angle"] for v in layout["vertices"].values()],
        exp["chi"], exp["area"])
    if not abs(residual) < GAUSS_BONNET_TOL:
        return f"Gauss-Bonnet residual {residual:.3g}"
    return None


CHECKS = {"solve": _check_solve, "validate": _check_validate,
          "demo": _check_drawing, "render": _check_drawing}


def check(c, rc, error):
    """Reason the command's output is wrong, or None."""
    if error:
        return "crashed: " + error.strip().splitlines()[-1]
    try:
        return CHECKS[c["cmd"]](c, rc, c["out"])
    except Exception as exc:  # bad output is a failed check, not a crash
        return f"unreadable output: {type(exc).__name__}: {exc}"
