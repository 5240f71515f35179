"""No dead imports in the package: every name a module of ``src/hicp``
imports is used in it, listed in its ``__all__``, or marked
``# noqa: F401`` on its line."""

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
