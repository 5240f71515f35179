"""No dead imports in the package: every name a module of ``src/hicp``
imports is used in it, listed in its ``__all__``, or marked
``# noqa: F401`` on its line.  And the reference pattern does not
depend on the solver."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hicp"


def unused_imports(text):
    """The imported names of a module's source that it never reads, by
    line, sorted."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = [(alias.lineno, (alias.asname or alias.name).split(".")[0])
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                for name in ast.literal_eval(node.value)}
    return sorted((line, name) for line, name in imported
                  if name not in used | exported
                  and "# noqa: F401" not in lines[line - 1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    text = ("import os\nimport sys  # noqa: F401\nfrom math import (\n"
            "    pi,\n    tau,\n)\n__all__ = ['tau']\n")
    assert unused_imports(text) == [(1, "os"), (4, "pi")]
    assert unused_imports("import numpy as np\nnp.zeros(1)\n") == []


def imported_modules(text):
    """The package modules a module's source imports from, as names
    relative to the package (``solver`` for ``from .solver import x``,
    ``from . import solver`` and ``import hicp.solver``)."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            out |= {a.name.removeprefix("hicp.") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("hicp").lstrip(".")
            out |= {base} if base else {a.name for a in node.names}
    return out


def test_fixtures_imports_nothing_from_the_solver():
    assert "solver" not in imported_modules((SRC / "fixtures.py").read_text())
    assert "solver" in imported_modules("from . import solver\n")
    assert "solver" in imported_modules("from .solver import solve\n")
    assert "solver" in imported_modules("import hicp.solver\n")
