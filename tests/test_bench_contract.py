"""The benchmark under ``perfbench/`` wraps package functions by name
(``SPANNED`` and ``COUNTED`` in ``tracing.py``) and imports others
(``gen.py``).  Both files are read here, not imported or changed, so a
cleanup that renames or removes one of those functions fails a test
instead of breaking the traced benchmark run."""

import ast
import importlib
import os

import pytest

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


def gen_imports():
    """(module, name) for every name gen.py imports from the package."""
    return [(node.module, alias.name)
            for node in ast.walk(_parse("gen.py"))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "hicp"
            for alias in node.names]


def test_contract_is_found():
    assert len(traced_names()) > 20
    assert len(gen_imports()) > 5


@pytest.mark.parametrize("module, name", traced_names() + gen_imports())
def test_name_resolves_to_a_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
