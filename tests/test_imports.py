"""No dead imports in the package: every name a module of ``src/hicp``
imports is used in it, listed in its ``__all__``, or marked
``# noqa: F401`` on its line, and every import sits at module level,
outside any function or class.  No dead definitions either: every
module-level function, class or constant is read by the package,
exported, or named by the benchmark, and every method, property or
field of a package class is read as ``.name`` by the package or the
benchmark, so code and state only the tests use live with them.
And the reference pattern does not depend on the solver."""

import ast
import pathlib
import re

import pytest

import hicp
from test_bench_contract import BENCH, gen_imports, traced_names

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


def nested_imports(text):
    """The lines of a module's source that import inside a function or a
    class, sorted."""
    return sorted({node.lineno for top in ast.walk(ast.parse(text))
                   if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                   for node in ast.walk(top)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_finds_a_nested_import():
    text = ("import os\nif os.name:\n    import sys\n\n\ndef f():\n"
            "    import json\n\n    def g():\n        from math import pi\n"
            "\n\nclass C:\n    import re\n")
    assert nested_imports(text) == [7, 10, 14]


def defined_names(top):
    """The names a module-level statement defines: a function's or a
    class's name, or the names an assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = (top.targets if isinstance(top, ast.Assign)
               else [top.target] if isinstance(top, ast.AnnAssign) else [])
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def package_reads(module, text):
    """(module, name) for every package name a module's source reads: a
    name it imports from a package module, an attribute of a package
    module it imported, and a name of its own module read outside that
    name's own definition."""
    tree = ast.parse(text)
    out, alias = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                if node.module:
                    out.add((node.module, a.name))
                else:
                    alias[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in alias):
            out.add((alias[node.value.id], node.attr))
    for top in tree.body:
        own = defined_names(top)
        out |= {(module, node.id) for node in ast.walk(top)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load) and node.id not in own}
    return out


def members(top):
    """The methods, properties and annotated fields (of a dataclass or a
    NamedTuple) a module-level class defines, except those named
    ``__*``, which Python calls on its own."""
    if not isinstance(top, ast.ClassDef):
        return set()
    names = {node.name for node in top.body
             if isinstance(node, ast.FunctionDef)}
    names |= {node.target.id for node in top.body
              if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def attribute_reads(text):
    """Every name a source reads as an attribute, ``obj.name``."""
    return {node.attr for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_definitions(sources, exported, pinned, readers=()):
    """(module, name) of every module-level function, class or
    constant of sources ({module: text}) that no module reads, that is
    not in exported and that pinned does not hold, then (module,
    "Class.member") of every member that neither sources nor the texts
    of readers read as an attribute, sorted."""
    read = set().union(*(package_reads(m, text)
                         for m, text in sources.items()))
    attrs = set().union(*map(attribute_reads, [*sources.values(), *readers]))
    tops = [(m, top) for m, text in sources.items()
            for top in ast.parse(text).body]
    return sorted(
        [(m, name) for m, top in tops for name in defined_names(top)
         if (m, name) not in read | pinned and name not in exported]
        + [(m, f"{top.name}.{name}") for m, top in tops
           for name in members(top) if name not in attrs])


def test_every_definition_is_read_exported_or_benchmarked():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")
               if p.stem != "__init__"}
    pinned = {(m.removeprefix("hicp."), n)
              for m, n in traced_names() + gen_imports()}
    bench = [p.read_text() for p in pathlib.Path(BENCH).glob("*.py")]
    assert unread_definitions(sources, set(hicp.__all__), pinned,
                              bench) == []


def test_finds_an_unread_definition():
    sources = {"a": "def f():\n    return f()\n\n\ndef g():\n    pass\n",
               "b": "from .a import g\n\n\nclass C:\n    k: int\n"
                    "    j: int = 0\n\n    def m(self):\n"
                    "        return self.n, self.k\n\n    @property\n"
                    "    def n(self):\n        pass\n\n"
                    "    def __len__(self):\n        return 0\n",
               "c": "from . import a as m\n\n\ndef h():\n    m.g()\n",
               "d": "K = 1\nL, (M, N) = 2, (K, 3)\nP: int = M\nQ = Q\n"
                    "\n\ndef u():\n    return N\n"}
    # f calls only itself, and Q reads only itself; K, M and N are read;
    # C.m reads the property n and the field k, and no one reads C.m or
    # the field j
    assert unread_definitions(sources, set(), set()) == [
        ("a", "f"), ("b", "C"), ("b", "C.j"), ("b", "C.m"), ("c", "h"),
        ("d", "L"), ("d", "P"), ("d", "Q"), ("d", "u")]
    # a reader outside the package, such as the benchmark, reads C.m
    # and C.j
    assert unread_definitions(sources, {"C", "L", "P"}, {
        ("a", "f"), ("c", "h"), ("d", "Q"), ("d", "u")},
        ["c.m()\nc.j\n"]) == []


def test_every_export_is_documented():
    readme = (SRC.parent.parent / "README.md").read_text()
    assert [name for name in hicp.__all__
            if not re.search(rf"\b{re.escape(name)}\b", readme)] == []


def test_distribution_is_named_after_the_package():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert (project["name"], project["version"]) == ("hicp",
                                                     hicp.__version__)


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
