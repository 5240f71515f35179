"""The benchmark under ``perfbench/`` wraps package functions by name
(``SPANNED`` and ``COUNTED`` in ``tracing.py``), reads the file a writer
wrote from its argument at a recorded position (``WRITES``) and imports
other functions (``gen.py``).  Both files are read here, not changed,
so a cleanup that renames or removes one of those functions, or moves a
writer's path, fails a test instead of breaking the traced benchmark
run.  ``gen.py`` is also imported, without writing bytecode, and its
freeze step is run against ``verdicts.json``, which catches what it
reads from the package's results as well."""

import ast
import importlib
import inspect
import json
import math
import os
import sys

import pytest

from hicp.complexes import build_complex, domain_generator_sets, hat_complex
from hicp.polytope import angle_arrays, domain_sides, make_angle_data

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def _parse(name):
    with open(os.path.join(BENCH, name)) as fh:
        return ast.parse(fh.read())


def traced_names():
    """(module, function) for every name tracing.py spans or counts."""
    out = []
    for node in _parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED")
                for t in node.targets):
            for short, names in ast.literal_eval(node.value).items():
                out += [(f"hicp.{short}", n) for n in names]
    return out


def writes():
    """(module, function, argument position) of every ``WRITES`` entry
    of tracing.py."""
    out = []
    for node in _parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRITES"
                for t in node.targets):
            for span, pos in ast.literal_eval(node.value).items():
                short, name = span.split(".")
                out.append((f"hicp.{short}", name, pos))
    return out


def gen_imports():
    """(module, name) for every name gen.py imports from the package."""
    return [(node.module, alias.name)
            for node in ast.walk(_parse("gen.py"))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "hicp"
            for alias in node.names]


def gen_calls():
    """(module, name, positional count, keyword names, starred) for every
    call gen.py makes to a name it imports from the package."""
    imported = {name: module for module, name in gen_imports()}
    return [(imported[node.func.id], node.func.id,
             sum(not isinstance(a, ast.Starred) for a in node.args),
             tuple(k.arg for k in node.keywords if k.arg),
             any(isinstance(a, ast.Starred) for a in node.args)
             or any(k.arg is None for k in node.keywords))
            for node in ast.walk(_parse("gen.py"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in imported]


def frozen_verdicts():
    with open(os.path.join(BENCH, "verdicts.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def gen():
    """perfbench/gen.py, imported with perfbench/ on the path for its own
    ``model`` import, and with no bytecode written there."""
    path, nobytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, BENCH)
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("gen")
    finally:
        sys.path[:], sys.dont_write_bytecode = path, nobytecode


def test_contract_is_found():
    assert len(traced_names()) > 20
    assert len(writes()) >= 3
    assert len(gen_imports()) > 5
    assert len(gen_calls()) >= len(gen_imports())


@pytest.mark.parametrize("module, name", traced_names() + gen_imports())
def test_name_resolves_to_a_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, name, npos, keywords, starred", gen_calls(),
                         ids=[f"{c[0]}.{c[1]}" for c in gen_calls()])
def test_gen_call_binds_to_the_signature(module, name, npos, keywords,
                                         starred):
    # a call that unpacks *args or **kwargs binds what it spells out
    sig = inspect.signature(getattr(importlib.import_module(module), name))
    bind = sig.bind_partial if starred else sig.bind
    bind(*[None] * npos, **{k: None for k in keywords})


@pytest.mark.parametrize("module, name, pos", writes(),
                         ids=[f"{w[0]}.{w[1]}" for w in writes()])
def test_writer_takes_path_at_the_recorded_position(module, name, pos):
    # tracing takes the path from args[pos], or else from kwargs["path"]
    sig = inspect.signature(getattr(importlib.import_module(module), name))
    assert list(sig.parameters)[pos] == "path"


@pytest.mark.parametrize("key", sorted(frozen_verdicts()))
def test_freeze_reproduces_the_frozen_verdict(gen, key):
    # gen.py --freeze reads attributes of the package's results (a
    # domain's is_open_star_of, the angle data's dicts, the complex's e0,
    # v0 and chi): its slack and domain count are equal to the frozen ones
    # bit for bit.  It reads the hat complex's eindex only on E0 edges,
    # which none of the frozen complexes has
    name, g = key.split("/")
    want = frozen_verdicts()[key]
    assert gen.reference_slack(gen.complex_spec(name), g) == (
        want["slack"], want["strict_domains"])


@pytest.mark.parametrize("g, slack", [("euclidean", 1.0157),
                                      ("hyperbolic", 0.3130)])
def test_freeze_reads_the_duals_of_tangent_edges(gen, g, slack):
    # gen.py --freeze reads the hat complex's eindex on E0 edges only, and
    # no frozen complex has one: here the cube gets the tangent edge
    # (0, 1) between two disks.  The slack is recomputed from the strict
    # rows by domain_sides, less the open stars of point vertices, and
    # from the condition 1-3 slacks
    spec = gen.complex_spec("cube:0,1,2")
    spec["tangent_edges"] = [[0, 1]]
    got = gen.reference_slack(spec, g)

    cc = build_complex(spec)
    assert cc.e0 == {(0, 1)}
    t = make_angle_data(cc, g, *gen.reference_target(gen.Surface(spec), g))
    h = hat_complex(cc)
    rows, partial = domain_generator_sets(h, strict=True,
                                          require_exhaustive=True)
    theta, _star, Theta = angle_arrays(cc, t)
    lhs, rhs = domain_sides(h, rows, theta, Theta)
    point_stars = {h.star_rows[i].tobytes()
                   for i, k in enumerate(cc.vertices) if k in cc.v0}
    slacks = [l - r for l, r, row in zip(lhs.tolist(), rhs.tolist(), rows)
              if row.tobytes() not in point_stars]
    slacks += [min(v, math.pi - v) for v in t.theta.values()]
    slacks += list(t.Theta.values())
    if g == "hyperbolic":
        slacks.append(sum(2 * math.pi - v for v in Theta.tolist())
                      - 2 * math.pi * cc.chi)
    assert not partial
    assert got == (min(slacks), len(rows))
    assert got == (pytest.approx(slack, abs=5e-5), 416)
