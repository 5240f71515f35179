"""Command-line entry point: validate | solve | render | demo | roundtrip.

Exit codes: 0 success/feasible, 1 usage or malformed input, 2 infeasible,
3 feasible under partial enumeration only, 4 solver failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys

import numpy as np

from . import geometry as geo
from .complexes import build_complex, edge_key, triangulate
from .errors import HicpError, IoError
from .fixtures import fixture_spec, reference_pattern
from .geometry import EUCLIDEAN, GEOMETRIES
from .jsontext import float_map, json_text, key_order, number_blocks
from .layout import (
    angle_blocks,
    develop,
    export_json,
    export_svg,
    gauss_bonnet_check,
    layout_json,
    merge_redundant,
    write_text,
)
from .polytope import (
    FEASIBLE,
    INFEASIBLE,
    PARTIAL,
    check_feasibility,
    make_angle_data,
)
from .solver import (
    CONVERGED,
    SolveOptions,
    extract_angles,
    reference_coords,
    solve,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_PARTIAL = 3
EXIT_SOLVER = 4
EXIT_IO = 5


def _edge_from_key(s):
    """The edge of an "i-j" key: two ids joined by "-", in either order,
    each as int reads it, so either may be negative ("-1-0", "0--1").
    Only one "-" can split a key into two ids."""
    k = s.find("-", 1)
    while k > 0:
        try:
            return edge_key(int(s[:k]), int(s[k + 1:]))
        except ValueError:
            k = s.find("-", k + 1)
    raise HicpError(f"bad edge key {s!r}; expected 'i-j'")


def _unique_keys(pairs):
    """A JSON object's members as a dict; a repeated key, whose last
    value json would keep without a word, is an error."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _v in pairs]
        k = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise HicpError(f"malformed input: key {k!r} repeats in a JSON object")
    return out


def _read_json(path):
    """The JSON object stored in a file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise IoError(str(exc))
    except (ValueError, RecursionError) as exc:  # syntax, encoding, depth
        raise HicpError(f"malformed JSON input: {exc}")
    if not isinstance(data, dict):
        raise HicpError("malformed input: expected a JSON object")
    return data


def _number_map(raw, what, parse_key):
    """A JSON object of finite numbers as {parsed key: float}; two keys
    that parse to one, such as "0-1" and "1-0", are an error, and so is
    a value that float() reads but JSON does not write as a number, such
    as "1.5" or true, or one that is not finite, such as NaN, Infinity
    or 1e400."""
    if not isinstance(raw, dict):
        raise HicpError(f"malformed input: {what} must be a JSON object")
    try:
        out = {parse_key(k): float(v) for k, v in raw.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise HicpError(f"malformed input: bad entry in {what}: {exc}")
    if len(out) < len(raw):
        first = {}
        for k in raw:
            other = first.setdefault(parse_key(k), k)
            if other != k:
                raise HicpError(f"malformed input: keys {other!r} and {k!r}"
                                f" in {what} name the same entry")
    if not {int, float}.issuperset(map(type, raw.values())):
        k = next(k for k, v in raw.items() if type(v) not in (int, float))
        raise HicpError(f"malformed input: bad entry in {what}: the value "
                        f"of {k!r} is not a number")
    if not all(map(math.isfinite, out.values())):
        k = next(k for k, v in raw.items() if not math.isfinite(v))
        raise HicpError(f"malformed input: bad entry in {what}: the value "
                        f"of {k!r} is not a finite number")
    return out


def _require_keys(got, want, what, fmt):
    """Raise naming the least key that is in got or want but not both."""
    bad = sorted(set(got) ^ set(want))
    if bad:
        kind = "missing" if bad[0] in want else "unexpected"
        raise HicpError(f"malformed input: {kind} key {fmt(bad[0])} in {what}")


def _coord_keys(T):
    """The keys solve writes for the coordinates on T, in free-variable
    order: "u-v" (u < v) per free edge, then the id per disk."""
    return (list(itertools.compress(T.edge_keys, (T.eclass != 0).tolist())),
            list(map(str, itertools.compress(T.base.vertices,
                                             T.vclass.tolist()))))


def _coords(T, a, b):
    """The coordinate vector of a solution's coords.a and coords.b: one
    lookup per key of _coord_keys when those are all their keys and the
    values are finite JSON numbers, else the dict reading, which takes
    any key _edge_from_key or int reads and names the first fault."""
    keys_a, keys_b = _coord_keys(T)
    try:
        values = [a[k] for k in keys_a] + [b[k] for k in keys_b]
        if (type(a) is type(b) is dict and len(a) + len(b) == len(values)
                and {int, float}.issuperset(map(type, values))
                and np.isfinite(x := np.array(values, float)).all()):
            return x
    except (KeyError, TypeError, OverflowError):
        pass
    a = _number_map(a, "coords.a", _edge_from_key)
    b = _number_map(b, "coords.b", int)
    _require_keys(a, T.free_edges, "coords.a", "{0[0]}-{0[1]}".format)
    _require_keys(b, T.v1_vertices, "coords.b", str)
    return np.array([a[e] for e in T.free_edges]
                    + [b[k] for k in T.v1_vertices])


def _problem(data, geometry=None):
    """(spec dict, geometry, theta or None, Theta or None) of a problem
    document; the spec's shape is checked by build_complex."""
    if not isinstance(data, dict):
        raise HicpError("malformed input: the problem is not a JSON object")
    spec = {
        "vertices": data.get("vertices"),
        "faces": data.get("faces"),
        "tangent_edges": data.get("tangent_edges", []),
    }
    g = geometry or data.get("geometry", EUCLIDEAN)
    theta, Theta = data.get("theta"), data.get("Theta")
    if theta is not None:
        theta = _number_map(theta, "theta", _edge_from_key)
    if Theta is not None:
        Theta = _number_map(Theta, "Theta", int)
    return spec, g, theta, Theta


def load_input(path, geometry=None):
    """Read a problem description from a JSON file or a 'fixture:NAME'
    reference.  Returns (spec dict, geometry, theta or None, Theta or
    None)."""
    if path.startswith("fixture:"):
        spec = fixture_spec(path[len("fixture:"):])
        return spec, geometry or EUCLIDEAN, None, None
    return _problem(_read_json(path), geometry)


def _target_from_input(cc, g, theta, Theta, T=None):
    """Angle data from explicit input, or, when the input carries none,
    the reference pattern's angles on T, the triangulation of cc (built
    here when not given)."""
    if theta is None and Theta is None:
        if T is None:
            T = triangulate(cc)
        x = geo.psi_inv_surface(T, *reference_pattern(T, g), g)
        return extract_angles(T, x, g)
    return make_angle_data(cc, g, theta or {}, Theta or {})


def _emit(text, path=None):
    """Write the document text and a final newline to the file at path
    or to stdout; an OSError becomes IoError."""
    if path:
        write_text(path, text)
    else:
        try:
            print(text, flush=True)
        except OSError as exc:
            raise IoError(str(exc))


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args):
    spec, g, theta, Theta = load_input(args.input, args.geometry)
    cc = build_complex(spec)
    t = _target_from_input(cc, g, theta, Theta)
    rep = check_feasibility(cc, t, cap=args.enum_cap)
    _emit(json_text(rep.to_dict()), args.output)
    if rep.verdict == FEASIBLE:
        return EXIT_OK
    if rep.verdict == PARTIAL:
        return EXIT_PARTIAL
    return EXIT_INFEASIBLE


_SOLUTION = ('{\n%s "geometry": %s,\n "input": {\n  "faces": %s,\n'
             '  "geometry": %s,\n  "tangent_edges": %s,\n  "vertices": %s\n'
             ' },\n "iterations": %d,\n%s "residual_norm": %s,\n'
             ' "solution_version": 1,\n "status": %s,\n "trace": %s\n}')


def _lists(rows, pad):
    """json's text at indent pad of a list of non-empty int or text lists."""
    item = f",\n{pad}  %s"
    text = ",\n".join([f"{pad} [\n{pad}  %s" + item * (len(row) - 1)
                       + f"\n{pad} ]" for row in rows])
    return (f"[\n{text}\n{pad}]" if rows else "[]") % tuple(
        t for row in rows for t in row)


def _solution_json(spec, g, T, sol):
    """The text of the solution document for every status: one %
    template in json's key order, filled from sol's arrays.  Only the
    echoed vertices (any fields) and a feasibility report go through
    json_text; build_complex has checked spec's faces and tangent edges.
    The numbers of the float maps are written in one pass."""
    maps = []  # (keys, values) of each float map, in document order
    if sol.coords is not None:
        x, (a, b) = sol.coords, _coord_keys(T)
        l, r = geo.psi_surface(T, x, g)
        maps += [(a, x[:len(a)]), (b, x[len(a):]),
                 (T.edge_keys, l),
                 (list(map(str, T.base.vertices)), r)]
    if (t := sol.realized_angles) is not None:  # converged: b is set
        maps += [(b, t.Th[T.vclass == 1]),
                 (list(itertools.compress(T.edge_keys,
                                          (T.eclass == 1).tolist())),
                  t.th[T.base.eclass == 1])]
    orders = [key_order(keys) for keys, _ in maps]
    floats = [float_map(o, texts, "  ") for o, texts in zip(
        orders, number_blocks([np.asarray(v, float)[o.at]
                               for o, (_, v) in zip(orders, maps)]))]
    head = mid = ""
    if sol.coords is not None:
        head = ' "coords": {\n  "a": %s,\n  "b": %s\n },\n' % tuple(
            floats[:2])
        mid = ' "lengths": {\n  "l": %s,\n  "r": %s\n },\n' % tuple(
            floats[2:4])
    if sol.realized_angles is not None:
        mid += (' "realized": {\n  "Theta": %s,\n  "theta": %s\n },\n'
                % tuple(floats[-2:]))
    if sol.report is not None:
        head += ' "feasibility": %s,\n' % json_text(sol.report.to_dict(), " ")
    trace = json.dumps([v for row in sol.trace for v in row])[1:-1].split(", ")
    res = sol.residual_norm
    return _SOLUTION % (
        head, json.dumps(g), _lists(spec["faces"], "  "), json.dumps(g),
        _lists(spec.get("tangent_edges", []), "  "),
        json_text(spec["vertices"], "  "), sol.iterations, mid,
        repr(res) if math.isfinite(res) else "null", json.dumps(sol.status),
        _lists([trace[k:k + 3] for k in range(0, 3 * len(sol.trace), 3)],
               " "))


def cmd_solve(args):
    spec, g, theta, Theta = load_input(args.input, args.geometry)
    cc = build_complex(spec)
    T = triangulate(cc)
    t = _target_from_input(cc, g, theta, Theta, T)
    opts = SolveOptions(grad_tol=args.tol, max_iter=args.max_iter)
    sol = solve(T, t, opts)
    _emit(_solution_json(spec, g, T, sol), args.output)
    if sol.status == CONVERGED:
        return EXIT_OK
    if sol.status == INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_SOLVER


def cmd_render(args):
    data = _read_json(args.input)
    if "coords" not in data:
        raise HicpError("solution carries no coordinates to render")
    spec, g, _theta, _Theta = _problem(data.get("input"),
                                       data.get("geometry"))
    T = triangulate(build_complex(spec))
    coords = data["coords"]
    if not isinstance(coords, dict):
        raise HicpError("malformed input: coords must be a JSON object")
    sl = develop(T, _coords(T, coords.get("a"), coords.get("b")), g)
    try:
        sl = merge_redundant(sl)
    except HicpError as exc:
        print(f"warning: merge failed, rendering the triangulated "
              f"development: {exc}", file=sys.stderr)
    if args.svg:
        export_svg(sl, args.svg)
    if args.output:
        export_json(sl, args.output)
    if not args.svg and not args.output:
        _emit(layout_json(sl))
    return EXIT_OK


_DEMO = ('{\n "angles": {\n  "Theta": %s,\n  "theta": %s\n },\n'
         ' "delaunay": %s,\n "demo_version": 1,\n "gauss_bonnet": {\n'
         '  "area": %s,\n  "residual": %s\n },\n "geometry": %s,\n'
         ' "layout": %s\n}')


def _demo_json(sl):
    """The text of demo's document on the layout sl: one % template
    in json's key order, each block written at its depth."""
    blocks = angle_blocks(sl, " ")
    gb = gauss_bonnet_check(sl)
    return _DEMO % (
        blocks["Theta"], blocks["theta"], blocks["delaunay"],
        json.dumps(gb["area"]), json.dumps(gb["residual"]),
        json.dumps(sl.geometry), layout_json(sl, " "))


def cmd_demo(args):
    spec, g, _theta, _Theta = load_input(args.input, args.geometry)
    cc = build_complex(spec)
    T = triangulate(cc)
    x = geo.psi_inv_surface(T, *reference_pattern(T, g), g)
    sl = merge_redundant(develop(T, x, g))
    _emit(_demo_json(sl), args.output)
    if args.svg:
        export_svg(sl, args.svg)
    return EXIT_OK


def _er_slack(T, l, r):
    """The smallest slack at (l, r) of the constraints of ER: l > r_u +
    r_v on every edge that is not E0, and the triangle inequalities."""
    gap, tri = geo.er_gaps(l[T.edge], r[T.vert])
    return float(min(gap[T.rows.free].min(initial=math.inf), tri.min()))


def sample_er(T, l0, r0, g, rng, frac=0.1):
    """One random (l, r) in a sub-box around (l0, r0): each coordinate
    moves uniformly within frac of the smallest constraint slack there."""
    d = frac * _er_slack(T, l0, r0)
    free = (T.eclass != 0).tolist()
    while True:
        r = np.array([v + rng.uniform(-d / 2, d / 2) if v > 0 else 0.0
                      for v in r0.tolist()])
        l = np.array([v + rng.uniform(-d, d) if f else 0.0
                      for v, f in zip(l0.tolist(), free)])
        # tangency is an equality
        l = np.where(free, l, r[T.ends[:, 0]] + r[T.ends[:, 1]])
        try:
            geo.check_er_surface(T, l, r, g)
            return l, r
        except HicpError:
            continue


def cmd_roundtrip(args):
    if args.samples < 1:
        raise HicpError("--samples must be at least 1")
    spec, g, _theta, _Theta = load_input(args.input, args.geometry)
    cc = build_complex(spec)
    T = triangulate(cc)
    if (T.eclass == 2).any():
        # identifiability sampling is only well-posed when every edge
        # angle is free: fan diagonals of a sampled (l, r) are not
        # redundant, so run on the triangle refinement (same edges and
        # triangles, diagonals promoted to free edges).  The base point
        # is the reference pattern with every diagonal shortened by a
        # quarter of the constraint slack: in the pattern itself the
        # diagonals sit at theta = pi, the boundary of the angle ranges,
        # and a shorter diagonal has a smaller angle.  A triangle holds
        # at most two diagonals, so no constraint loses more than half
        # its slack and (l, r) stays in ER, if the pattern is in ER: a
        # base point outside it leaves sample_er no sample to accept.
        l0, r0 = reference_pattern(T, g)
        geo.check_er_surface(T, l0, r0, g)
        diag = T.eclass == 2
        spec = {"vertices": spec["vertices"],
                "faces": np.array(cc.vertices)[T.vert].tolist(),
                "tangent_edges": spec.get("tangent_edges", [])}
        cc = build_complex(spec)
        T = triangulate(cc)
        l0 = np.where(diag, l0 - _er_slack(T, l0, r0) / 4, l0)
    else:
        l0, r0 = geo.psi_surface(T, reference_coords(T, g), g)
    rng = random.Random(args.seed)
    opts = SolveOptions(grad_tol=args.tol, max_iter=args.max_iter)
    errors = []
    statuses = []
    frac = 0.1
    for _ in range(args.samples):
        # resample (shrinking the box) until the extracted angles pass
        # the solver's pre-check: ER contains non-Delaunay points whose
        # realized theta leaves (0, pi)
        for _attempt in range(500):
            l, r = sample_er(T, l0, r0, g, rng, frac)
            x = geo.project_gauge(T, geo.psi_inv_surface(T, l, r, g), g)
            sol = solve(T, extract_angles(T, x, g), opts)
            if sol.status != INFEASIBLE:
                break
            frac *= 0.7
        else:
            raise HicpError("could not sample angle-admissible (l, r)")
        statuses.append(sol.status)
        if sol.status != CONVERGED:
            errors.append(math.inf)
            continue
        errors.append(float(np.max(np.abs(sol.coords - x))))
    max_err = max(errors)
    out = {
        "roundtrip_version": 1,
        "geometry": g,
        "seed": args.seed,
        "samples": args.samples,
        "statuses": statuses,
        "errors": errors,
        "max_error": max_err,
    }
    _emit(json_text(out), args.output)
    print(f"max recovery error: {max_err:.3e}", file=sys.stderr)
    return EXIT_OK if max_err < 1e-6 else EXIT_SOLVER


# ---------------------------------------------------------------------------
# Parser


@functools.cache  # commands look up what they call when they run
def build_parser():
    p = argparse.ArgumentParser(
        prog="hicp",
        description="Hyper-ideal circle patterns on closed surfaces: "
                    "feasibility, solving, and rendering.")
    sub = p.add_subparsers(dest="command", required=True)
    flags = {
        "input": dict(required=True, help="JSON file or fixture:NAME"),
        "output": dict(help="output JSON path (default stdout)"),
        "geometry": dict(choices=sorted(GEOMETRIES),
                         help="overrides the input's geometry"),
        "tol": dict(type=float, default=1e-10),
        "max-iter": dict(type=int, default=100),
        "enum-cap": dict(type=int, default=22),
        "seed": dict(type=int, default=0),
        "samples": dict(type=int, default=20),
        "svg": dict(help="SVG output path"),
    }
    commands = [
        ("validate", cmd_validate, "angle-polytope membership check",
         ("input", "output", "geometry", "enum-cap")),
        ("solve", cmd_solve, "solve for the circle pattern",
         ("input", "output", "geometry", "tol", "max-iter")),
        ("render", cmd_render, "render a solution JSON",
         ("input", "output", "svg")),
        ("demo", cmd_demo, "reference pattern for a complex",
         ("input", "output", "geometry", "svg")),
        ("roundtrip", cmd_roundtrip,
         "sample, extract angles, re-solve, compare",
         ("input", "output", "geometry", "tol", "max-iter", "seed",
          "samples")),
    ]
    for name, fn, help_, names in commands:
        sp = sub.add_parser(name, help=help_)
        for flag in names:
            sp.add_argument("--" + flag, **flags[flag])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HicpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
