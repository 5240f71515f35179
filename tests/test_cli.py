import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    fan_diagonals,
    mixed_grid_spec,
    pinched_torus_spec,
    tetrahedron_spec,
)
from hicp import build_complex, cli, layout, triangulate
from hicp import geometry as geo
from hicp.errors import HicpError
from hicp.fixtures import (
    FIXTURES,
    fixture_spec,
    grid_torus_spec,
    reference_pattern,
    triangulated_torus_spec,
)
from hicp.jsontext import json_text
from hicp.layout import develop, layout_to_dict, merge_redundant
from hicp.solver import extract_angles, reference_coords, solve


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    rc = cli.main(list(argv) + ["--output", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return rc, data


@pytest.fixture()
def bad_instance(tmp_path):
    """Angle data sitting exactly on a vertex-star facet: infeasible."""
    spec = grid_torus_spec(3, v1=(4,))
    cc = build_complex(spec)
    doc = {
        "geometry": "euclidean",
        "vertices": spec["vertices"],
        "faces": [list(f) for f in spec["faces"]],
        "tangent_edges": [],
        "theta": {f"{e[0]}-{e[1]}": math.pi / 2 for e in sorted(cc.e1)},
        "Theta": {"4": 2 * math.pi},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    return p


class TestUsage:
    def test_no_arguments(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_input_file(self, tmp_path):
        rc, _ = run(tmp_path, "solve", "--input", str(tmp_path / "no.json"))
        assert rc == 5

    def test_unknown_fixture(self, tmp_path):
        rc, _ = run(tmp_path, "validate", "--input", "fixture:nope")
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--input", "fixture:grid-torus", "--svg", "x.svg"],
        ["render", "--input", "sol.json", "--geometry", "hyperbolic"],
    ], ids=["validate-svg", "render-geometry"])
    def test_flag_the_command_does_not_read(self, argv):
        assert cli.main(argv) == 1

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        rc, _ = run(tmp_path, "validate", "--input", str(p))
        assert rc == 1

    @pytest.mark.parametrize("cmd", ["validate", "render"])
    def test_json_too_deep_to_read(self, tmp_path, capsys, cmd):
        # json.load raises RecursionError past the interpreter's limit
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main([cmd, "--input", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON input: maximum recursion")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["validate", "demo"])
    def test_failed_write_to_stdout(self, capsys, monkeypatch, cmd):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        assert cli.main([cmd, "--input", "fixture:grid-torus"]) == 5
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device\n")

    def test_closed_stdout_pipe(self):
        read, write = os.pipe()
        os.close(read)
        code = "import sys\nfrom hicp import cli\nsys.exit(cli.main())\n"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, "validate", "--input",
                 "fixture:grid-torus"], stdout=write, stderr=subprocess.PIPE,
                env=env, text=True, timeout=120)
        finally:
            os.close(write)
        assert [proc.returncode, proc.stderr] == [
            5, "error: [Errno 32] Broken pipe\n"]


def tetrahedron_doc():
    spec = tetrahedron_spec(v1=(0, 1))
    cc = build_complex(spec)
    return {"geometry": "euclidean", "vertices": spec["vertices"],
            "faces": spec["faces"], "tangent_edges": [],
            "theta": {f"{e[0]}-{e[1]}": 1.2 for e in sorted(cc.e1)},
            "Theta": {"0": 2.0, "1": 2.0}}


def _with(**changes):
    doc = tetrahedron_doc()
    doc.update(changes)
    return doc


def _without_vertex_id():
    doc = tetrahedron_doc()
    del doc["vertices"][0]["id"]
    return doc


def _reference_doc(name, g):
    """The problem document of a fixture with its reference target."""
    spec = fixture_spec(name)
    t = cli._target_from_input(build_complex(spec), g, None, None)
    return dict(spec, geometry=g,
                theta={f"{u}-{v}": x for (u, v), x in t.theta.items()},
                Theta={str(k): x for k, x in t.Theta.items()})


class TestMalformedInput:
    @pytest.mark.parametrize("doc", [
        {},
        [tetrahedron_doc()],
        _without_vertex_id(),
        _with(Theta={"zz": 2.0, "1": 2.0}),
        _with(theta={"0-1": "abc"}),
        _with(faces=5),
        _with(theta={"0_1": 1.2}),
    ], ids=["empty", "list", "vertex-without-id", "Theta-key",
            "theta-value", "faces-not-a-list", "bad-edge-key"])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, doc):
        p = tmp_path / "in.json"
        p.write_text(json.dumps(doc))
        for cmd in ("validate", "solve", "demo"):
            capsys.readouterr()
            assert cli.main([cmd, "--input", str(p)]) == 1, cmd
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), cmd

    def test_names_an_unexpected_Theta_vertex(self, tmp_path, capsys):
        p = tmp_path / "in.json"
        p.write_text(json.dumps(_with(Theta={"0": 2.0, "1": 2.0, "9": 2.0})))
        for cmd in ("validate", "solve"):
            capsys.readouterr()
            assert cli.main([cmd, "--input", str(p)]) == 1, cmd
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "unexpected [9]" in err[0], cmd

    @pytest.mark.parametrize("part, key, twin", [
        ("theta", "0-1", "1-0"), ("Theta", "4", "04")])
    def test_two_spellings_of_one_key_exit_1(self, tmp_path, capsys, part,
                                             key, twin):
        # without the check the last spelling won and turned the partial
        # verdict (exit 3) into Infeasible (exit 2)
        doc = _reference_doc("tri-torus-v1", "euclidean")
        p = tmp_path / "in.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["validate", "--input", str(p)]) == 3
        doc[part][twin] = 5.0 if part == "theta" else -1.0
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["validate", "--input", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed input: keys {key!r} and {twin!r} in {part}"
            " name the same entry"]

    def test_a_repeated_key_exits_1(self, tmp_path, capsys):
        # json alone keeps the last of the two values: the target was
        # then decided as Infeasible (exit 2) with no error
        text = json.dumps(_reference_doc("tri-torus-v1", "euclidean"))
        head, sep, tail = text.partition('"0-1": ')
        value, comma, rest = tail.partition(", ")
        p = tmp_path / "in.json"
        p.write_text(f'{head}{sep}{value}, "0-1": 5.0, {rest}')
        capsys.readouterr()
        assert cli.main(["validate", "--input", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: malformed input: key '0-1' repeats in a JSON object"]

    @pytest.mark.parametrize("part, key, value", [
        ("theta", "0-1", "1.5"), ("theta", "0-1", True),
        ("theta", "0-1", "nan"), ("Theta", "4", "6.0"),
        ("Theta", "4", False)])
    def test_a_value_that_is_no_json_number_exits_1(self, tmp_path, capsys,
                                                    part, key, value):
        # float() reads each of these: validate decided them as the
        # numbers 1.5, 1.0, nan, 6.0 and 0.0 (exit 3 or 2)
        doc = _reference_doc("tri-torus-v1", "euclidean")
        doc[part][key] = value
        p = tmp_path / "in.json"
        p.write_text(json.dumps(doc))
        for cmd in ("validate", "solve", "demo"):
            capsys.readouterr()
            assert cli.main([cmd, "--input", str(p)]) == 1, cmd
            assert capsys.readouterr().err.splitlines() == [
                f"error: malformed input: bad entry in {part}: the value of"
                f" {key!r} is not a number"], cmd

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_a_value_that_is_not_finite_exits_1(self, tmp_path, capsys,
                                                text):
        # json reads each of these as a float: validate and solve wrote it
        # back as "lhs": NaN or Infinity, which is no JSON
        doc = _reference_doc("tri-torus-v1", "euclidean")
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", "fixture:tri-torus-v1",
                         "--output", str(sol)]) == 0
        solution = json.loads(sol.read_text())
        cases = [(doc, doc[part], part, ("validate", "solve", "demo"))
                 for part in ("theta", "Theta")]
        cases += [(solution, solution["coords"][part], f"coords.{part}",
                   ("render",)) for part in "ab"]
        p = tmp_path / "in.json"
        for top, obj, what, cmds in cases:
            key = min(obj)
            was, obj[key] = obj[key], 1234567.5
            p.write_text(json.dumps(top).replace("1234567.5", text))
            obj[key] = was
            for cmd in cmds:
                capsys.readouterr()
                assert cli.main([cmd, "--input", str(p)]) == 1, cmd
                assert capsys.readouterr().err.splitlines() == [
                    f"error: malformed input: bad entry in {what}: the value"
                    f" of {key!r} is not a finite number"], cmd

    def test_a_tol_that_is_not_finite_exits_1(self, tmp_path, capsys):
        # any residual meets --tol inf: solve called its start point
        # Converged, and roundtrip compared that point with each sample
        for cmd in ("solve", "roundtrip"):
            capsys.readouterr()
            assert run(tmp_path, cmd, "--input", "fixture:tri-torus-v1",
                       "--tol", "inf") == (1, None), cmd
            assert capsys.readouterr().err.splitlines() == [
                "error: grad_tol must be a finite positive number"], cmd

    @pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
    def test_report_does_not_depend_on_key_order(self, tmp_path, g):
        doc = _reference_doc("dodecahedron", g)
        rng = random.Random(0)
        p, out = tmp_path / "in.json", tmp_path / "out.json"
        reports = set()
        for _ in range(4):
            for part in ("theta", "Theta"):
                items = list(doc[part].items())
                rng.shuffle(items)
                doc[part] = dict(items)
            p.write_text(json.dumps(doc))
            assert cli.main(["validate", "--input", str(p),
                             "--output", str(out)]) == 3
            reports.add(out.read_bytes())
        assert len(reports) == 1

    def test_render_solution_without_input(self, tmp_path):
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", "fixture:grid-torus",
                         "--output", str(sol)]) == 0
        data = json.loads(sol.read_text())
        del data["input"]
        sol.write_text(json.dumps(data))
        assert cli.main(["render", "--input", str(sol)]) == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_document(draw, doc, values):
    """A deep copy of doc with one value replaced by a draw of values or
    one key removed, at any depth."""
    doc = node = copy.deepcopy(doc)
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(values)
        return doc


def mutated_tetrahedron():
    """The tetrahedron document with one value replaced or one key
    removed, at any depth."""
    return mutated_document(tetrahedron_doc(), JSON_VALUES)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_tetrahedron(),
       cmd=st.sampled_from(["validate", "solve", "demo"]))
def test_fuzz_mutated_input_exits_cleanly(tmp_path, doc, cmd):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    assert cli.main([cmd, "--input", str(p),
                     "--output", str(tmp_path / "out.json")]) in range(6)


# what a mutation puts in place of one value of a document
ODD_VALUES = st.sampled_from([None, True, "x", [1.0], {"a": 1.0}, 1e308,
                              10 ** 20])


@pytest.fixture(scope="module")
def tetrahedron_documents(tmp_path_factory):
    """Per geometry, the problem document of a tetrahedron of two disks
    and two points with its reference target, and its solution
    document."""
    tmp = tmp_path_factory.mktemp("documents")
    spec = tetrahedron_spec(v1=(0, 1))
    docs = {}
    for g in (geo.EUCLIDEAN, geo.HYPERBOLIC):
        t = cli._target_from_input(build_complex(spec), g, None, None)
        problem = dict(spec, geometry=g,
                       theta={f"{u}-{v}": x for (u, v), x in t.theta.items()},
                       Theta={str(k): x for k, x in t.Theta.items()})
        p, sol = tmp / f"{g}.json", tmp / f"{g}-solution.json"
        p.write_text(json.dumps(problem))
        assert cli.main(["solve", "--input", str(p), "--output",
                         str(sol)]) == 0
        docs[g] = problem, json.loads(sol.read_text())
    return docs


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), g=st.sampled_from([geo.EUCLIDEAN, geo.HYPERBOLIC]),
       cmd=st.sampled_from(["validate", "solve", "demo", "render"]))
def test_mutated_documents_keep_the_exit_code_contract(
        tmp_path, tetrahedron_documents, data, g, cmd):
    # render reads the solution document, the others the problem
    problem, solution = tetrahedron_documents[g]
    doc = data.draw(mutated_document(
        solution if cmd == "render" else problem, ODD_VALUES))
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    argv = [cmd, "--input", str(p), "--output", str(tmp_path / "out.json")]
    argv += {"solve": ["--max-iter", "5"],
             "render": ["--svg", str(tmp_path / "out.svg")]}.get(cmd, [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in range(6)
    if rc == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestValidate:
    def test_feasible_fixture(self, tmp_path):
        rc, data = run(tmp_path, "validate", "--input", "fixture:grid-torus")
        assert rc == 0
        assert data["verdict"] == "Feasible"
        assert data["violations"] == []

    def test_infeasible_instance(self, tmp_path, bad_instance):
        rc, data = run(tmp_path, "validate", "--input", str(bad_instance))
        assert rc == 2
        assert data["verdict"] == "Infeasible"
        w = data["violations"][0]
        assert w["witness"] == {"domain": [["v", 4]]}
        assert w["lhs"] == pytest.approx(2 * math.pi)
        assert w["rhs"] == pytest.approx(2 * math.pi)

    def test_partial_under_small_cap(self, tmp_path):
        rc, data = run(tmp_path, "validate", "--input", "fixture:grid-torus",
                       "--enum-cap", "8")
        assert rc == 3
        assert data["verdict"] == "FeasibleUnderPartialCheck"

    def test_rejects_a_cap_above_the_mask_width(self, tmp_path, capsys):
        capsys.readouterr()
        rc, data = run(tmp_path, "validate", "--input", "fixture:grid-torus",
                       "--enum-cap", "63")
        assert (rc, data) == (1, None)
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: enumeration cap 63 exceeds 62, the most hat "
                       "vertices a generator mask holds"]
        rc, data = run(tmp_path, "validate", "--input", "fixture:grid-torus",
                       "--enum-cap", "62")
        assert (rc, data["size"]["domains"]) == (0, 510)

    def test_enumeration_stops_within_its_budget(self):
        # the dodecahedron's 32 hat vertices at the largest cap: the
        # groups of the exhaustive enumeration would outgrow 1 GB of
        # address space; the budget stops them with one error line
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from hicp import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, "validate", "--input",
             "fixture:dodecahedron", "--enum-cap", "62"],
            env=env, capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stdout) == (1, "")
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 32 hat vertices (cap 62): ")

    def test_rejects_a_negative_cap(self, tmp_path, capsys):
        # a negative cap would make every complex partial
        capsys.readouterr()
        rc, data = run(tmp_path, "validate", "--input",
                       "fixture:tri-torus-v1", "--enum-cap", "-1")
        assert (rc, data) == (1, None)
        assert capsys.readouterr().err.splitlines() == [
            "error: enumeration cap -1 is negative"]

    def test_rejects_a_pinched_vertex(self, tmp_path, capsys):
        # the reference pattern of a pinched torus was called infeasible
        p = tmp_path / "pinched.json"
        p.write_text(json.dumps(pinched_torus_spec()))
        capsys.readouterr()
        rc, data = run(tmp_path, "validate", "--input", str(p))
        assert (rc, data) == (1, None)
        assert capsys.readouterr().err.splitlines() == [
            "error: vertex 0 is pinched: its faces form 2 cycles"]

    def test_reports_method_and_size(self, tmp_path, bad_instance):
        # the 519 strict domains of the grid torus less the stars of its
        # nine point vertices, whose inequality is the condition-2 identity
        rc, data = run(tmp_path, "validate", "--input", "fixture:grid-torus")
        assert (data["method"], data["size"]) == (
            "enumeration", {"hat_vertices": 18, "domains": 510})
        # an infeasible target on the grid torus with one disk: its 997
        # strict domains less the stars of its eight point vertices
        rc, data = run(tmp_path, "validate", "--input", str(bad_instance))
        assert (rc, data["method"], data["size"]) == (
            2, "enumeration", {"hat_vertices": 18, "domains": 989})
        doc = tetrahedron_doc()
        doc["theta"]["0-1"] = 4.0  # outside (0, pi)
        p = tmp_path / "in.json"
        p.write_text(json.dumps(doc))
        rc, data = run(tmp_path, "validate", "--input", str(p))
        assert (rc, data["method"], data["size"]) == (
            2, "conditions 1-3", {"edges": 6, "vertices": 4})


class TestSolve:
    def test_grid_torus(self, tmp_path):
        rc, data = run(tmp_path, "solve", "--input", "fixture:grid-torus")
        assert rc == 0
        assert data["solution_version"] == 1
        assert data["status"] == "Converged"
        assert data["iterations"] <= 20
        assert data["residual_norm"] < 1e-10
        assert set(data["coords"]) == {"a", "b"}
        assert set(data["lengths"]) == {"l", "r"}
        for v in data["realized"]["theta"].values():
            assert v == pytest.approx(math.pi / 2, abs=1e-9)

    def test_deterministic_output(self, tmp_path):
        p1 = tmp_path / "s1.json"
        p2 = tmp_path / "s2.json"
        for p in (p1, p2):
            assert cli.main(["solve", "--input", "fixture:grid-torus",
                             "--output", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_infeasible(self, tmp_path, bad_instance):
        rc, data = run(tmp_path, "solve", "--input", str(bad_instance))
        assert rc == 2
        assert data["status"] == "Infeasible"
        assert data["residual_norm"] is None
        assert data["feasibility"]["verdict"] == "Infeasible"
        assert data["feasibility"]["method"] == "single-star"
        assert data["feasibility"]["size"] == {"stars": 1}

    def test_reports_conditions_1_to_3_like_validate(self, tmp_path):
        doc = tetrahedron_doc()
        doc["theta"]["0-1"] = 4.0  # outside (0, pi): E1, and so E3
        p = tmp_path / "in.json"
        p.write_text(json.dumps(doc))
        rc, sol = run(tmp_path, "solve", "--input", str(p))
        assert rc == 2
        rc, rep = run(tmp_path, "validate", "--input", str(p))
        assert rc == 2

        def key(v):
            return v["condition"], str(v["witness"])

        assert ({v["condition"] for v in rep["violations"]}
                == {"E1", "E3"})
        assert (sorted(sol["feasibility"]["violations"], key=key)
                == sorted(rep["violations"], key=key))

    def test_solver_failure_exit(self, tmp_path):
        rc, data = run(tmp_path, "solve", "--input", "fixture:grid-torus",
                       "--max-iter", "1")
        assert rc == 4
        assert data["status"] == "MaxIter"


class TestRender:
    def test_from_solution(self, tmp_path):
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", "fixture:grid-torus",
                         "--output", str(sol)]) == 0
        svg = tmp_path / "p.svg"
        out = tmp_path / "layout.json"
        rc = cli.main(["render", "--input", str(sol),
                       "--output", str(out), "--svg", str(svg)])
        assert rc == 0
        layout = json.loads(out.read_text())
        assert layout["layout_version"] == 1
        assert svg.read_text().startswith("<svg")

    def test_failed_merge_warns(self, tmp_path, monkeypatch, capsys):
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", "fixture:grid-torus",
                         "--output", str(sol)]) == 0

        def fail(sl):
            raise HicpError("diagonal is not redundant")

        monkeypatch.setattr(cli, "merge_redundant", fail)
        capsys.readouterr()
        svg = tmp_path / "p.svg"
        out = tmp_path / "layout.json"
        rc = cli.main(["render", "--input", str(sol),
                       "--output", str(out), "--svg", str(svg)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning:")
        assert "diagonal is not redundant" in err[0]
        assert out.exists() and svg.exists()

    @pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_noncanonical_keys_render_as_canonical(self, tmp_path, name, g):
        # keys written "v-u" or with leading zeros parse to the same
        # coordinates as the keys solve writes: the same files
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", f"fixture:{name}",
                         "--geometry", g, "--output", str(sol)]) == 0
        data = json.loads(sol.read_text())
        coords = data["coords"]
        a = {}
        for i, (k, v) in enumerate(sorted(coords["a"].items())):
            u, w = k.split("-")
            a[f"{w}-{u}" if i % 2 else f"0{u}-00{w}"] = v
        coords["a"] = a
        coords["b"] = {"0" + k: v for k, v in coords["b"].items()}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        files = []
        for doc in (sol, other):
            svg, out = doc.with_suffix(".svg"), doc.with_suffix(".out")
            assert cli.main(["render", "--input", str(doc), "--svg", str(svg),
                             "--output", str(out)]) == 0
            files.append((svg.read_bytes(), out.read_bytes()))
        assert files[0] == files[1]

    @pytest.mark.parametrize("edit, message", [
        (lambda c, ka, kb: c["a"].pop(ka),
         "malformed input: missing key {ka} in coords.a"),
        (lambda c, ka, kb: c["b"].update({"999": 0.5}),
         "malformed input: unexpected key 999 in coords.b"),
        (lambda c, ka, kb: c["a"].update({ka: "abc"}),
         "malformed input: bad entry in coords.a: could not convert string "
         "to float: 'abc'"),
        (lambda c, ka, kb: c["b"].update({kb: None}),
         "malformed input: bad entry in coords.b: float() argument must be "
         "a string or a real number, not 'NoneType'"),
        (lambda c, ka, kb: c["a"].update({ka: [1.0]}),
         "malformed input: bad entry in coords.a: float() argument must be "
         "a string or a real number, not 'list'"),
        (lambda c, ka, kb: c.update(b=[1.0]),
         "malformed input: coords.b must be a JSON object"),
        # an int reads as its float: 2.0 leaves the domain; a bool or a
        # string of a number is no number, though float() reads it
        (lambda c, ka, kb: c["a"].update({ka: 2}),
         "triangle 12: triangle inequality fails"),
        (lambda c, ka, kb: c["b"].update({kb: True}),
         "malformed input: bad entry in coords.b: the value of {kb!r} is "
         "not a number"),
        (lambda c, ka, kb: c["a"].update({ka: "0.123"}),
         "malformed input: bad entry in coords.a: the value of {ka!r} is "
         "not a number"),
    ], ids=["missing-key", "extra-key", "string", "null", "list",
            "non-object", "int", "bool", "numeric-string"])
    def test_bad_coords_exit_as_parsed_key_by_key(self, tmp_path, capsys,
                                                  edit, message):
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", "fixture:genus2-mixed",
                         "--geometry", "hyperbolic",
                         "--output", str(sol)]) == 0
        data = json.loads(sol.read_text())
        ka, kb = min(data["coords"]["a"]), min(data["coords"]["b"])
        outcomes = []
        for value_of in (None, float):
            doc = copy.deepcopy(data)
            edit(doc["coords"], ka, kb)
            if value_of:  # the number as a float
                for part in doc["coords"].values():
                    if isinstance(part, dict):
                        part.update({k: value_of(v) for k, v in part.items()
                                     if type(v) is int})
            sol.write_text(json.dumps(doc))
            capsys.readouterr()
            rc = cli.main(["render", "--input", str(sol)])
            outcomes.append((rc, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1] == (
            1, "", "error: " + message.format(ka=ka, kb=kb) + "\n")

    def test_large_coordinate_exits_1(self, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", "fixture:tri-torus",
                         "--output", str(sol)]) == 0
        data = json.loads(sol.read_text())
        data["coords"]["a"][min(data["coords"]["a"])] = 2000.0
        sol.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["render", "--input", str(sol)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_requires_exactly_the_solution_coordinates(self, tmp_path,
                                                       capsys):
        # a missing a or b would read as 0, and a foreign key would be
        # ignored: each exits 1 with one error line naming the key
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", "fixture:genus2-mixed",
                         "--geometry", "hyperbolic",
                         "--output", str(sol)]) == 0
        data = json.loads(sol.read_text())
        coords = data["coords"]
        point = next(str(v["id"]) for v in data["input"]["vertices"]
                     if v["circle"] == "point")
        edits = ([(part, key, None) for part in "ab" for key in coords[part]]
                 + [("a", "999-1000", 0.5), ("b", point, 0.5)])
        assert len(edits) == 51 + 5 + 2
        for part, key, value in edits:
            doc = copy.deepcopy(data)
            if value is None:
                del doc["coords"][part][key]
            else:
                doc["coords"][part][key] = value
            sol.write_text(json.dumps(doc))
            capsys.readouterr()
            assert cli.main(["render", "--input", str(sol)]) == 1, key
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), key
            assert f" key {key} in coords.{part}" in err[0]

    def test_rejects_solution_without_coords(self, tmp_path, bad_instance):
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", "--input", str(bad_instance),
                         "--output", str(sol)]) == 2
        rc = cli.main(["render", "--input", str(sol)])
        assert rc == 1

    @pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
    @pytest.mark.parametrize("name", ["grid-torus", "genus2-mixed"])
    def test_solution_json_renders_as_develop(self, tmp_path, name, g):
        # x crosses the JSON edge as dicts keyed by edge and vertex id:
        # the file holds the solver's x exactly, and render of the file
        # gives the layout of develop on that x
        sol_path, out = tmp_path / "sol.json", tmp_path / "layout.json"
        assert cli.main(["solve", "--input", f"fixture:{name}",
                         "--geometry", g, "--output", str(sol_path)]) == 0
        assert cli.main(["render", "--input", str(sol_path),
                         "--output", str(out)]) == 0
        cc = build_complex(fixture_spec(name))
        T = triangulate(cc)
        sol = solve(T, cli._target_from_input(cc, g, None, None))
        coords = json.loads(sol_path.read_text())["coords"]
        assert ([coords["a"][f"{u}-{v}"] for u, v in T.free_edges]
                + [coords["b"][str(k)] for k in T.v1_vertices]
                == sol.coords.tolist())
        want = layout_to_dict(merge_redundant(develop(T, sol.coords, g)))
        assert json.loads(out.read_text()) == json.loads(json.dumps(want))


class TestDemo:
    def test_grid_torus(self, tmp_path):
        svg = tmp_path / "demo.svg"
        rc, data = run(tmp_path, "demo", "--input", "fixture:grid-torus",
                       "--svg", str(svg))
        assert rc == 0
        assert data["demo_version"] == 1
        assert all(r["is_delaunay"] for r in data["delaunay"].values())
        assert abs(data["gauss_bonnet"]["residual"]) < 1e-9
        assert svg.exists()

    def test_hyperbolic_genus2(self, tmp_path):
        rc, data = run(tmp_path, "demo", "--input", "fixture:genus2",
                       "--geometry", "hyperbolic")
        assert rc == 0
        assert data["geometry"] == "hyperbolic"
        assert all(r["is_delaunay"] for r in data["delaunay"].values())
        assert data["gauss_bonnet"]["area"] > 0
        assert abs(data["gauss_bonnet"]["residual"]) < 1e-8


class TestRoundtrip:
    def test_tri_torus(self, tmp_path):
        rc, data = run(tmp_path, "roundtrip", "--input", "fixture:tri-torus",
                       "--samples", "2", "--seed", "3")
        assert rc == 0
        assert data["roundtrip_version"] == 1
        assert data["statuses"] == ["Converged", "Converged"]
        assert data["max_error"] < 1e-6
        assert data["seed"] == 3

    @pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
    def test_complex_without_free_edges(self, tmp_path, g):
        # four disks and every edge tangent: x holds b only
        spec = tetrahedron_spec()
        spec["tangent_edges"] = [[u, v] for u in range(4) for v in range(u)]
        p = tmp_path / "tangent.json"
        p.write_text(json.dumps(spec))
        rc, data = run(tmp_path, "roundtrip", "--input", str(p),
                       "--geometry", g, "--samples", "3")
        assert rc == 0
        assert data["statuses"] == ["Converged"] * 3
        assert data["max_error"] < 1e-6

    def test_fan_complex_samples_inside_the_angle_ranges(self, tmp_path):
        # the hyperbolic e0-torus: the class lengths of its triangle
        # refinement put every promoted diagonal at theta > pi
        rc, data = run(tmp_path, "roundtrip", "--input", "fixture:e0-torus",
                       "--geometry", "hyperbolic", "--samples", "3")
        assert rc == 0
        assert data["statuses"] == ["Converged"] * 3
        assert data["max_error"] < 1e-6

    def test_fan_base_point_outside_er_exits_1(self, tmp_path, capsys):
        # the hyperbolic 3x3 grid of disks with one quad split and two
        # tangent sides on its first triangle: the reference pattern
        # breaks that triangle's inequality, so the sampler around it
        # would never accept a sample; roundtrip exits like validate
        spec = grid_torus_spec(3, v1=range(9), e0=[(0, 1), (1, 4)])
        spec["faces"] = [[0, 1, 4], [0, 4, 3]] + spec["faces"][1:]
        p = tmp_path / "split.json"
        p.write_text(json.dumps(spec))
        line = "error: triangle 0: triangle inequality fails"
        rc, _ = run(tmp_path, "validate", "--input", str(p),
                    "--geometry", "hyperbolic")
        assert (rc, capsys.readouterr().err.splitlines()) == (1, [line])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "hicp.cli", "roundtrip", "--input",
             str(p), "--geometry", "hyperbolic", "--samples", "1"],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [line]

    def test_rejects_zero_samples(self, tmp_path, capsys):
        rc, data = run(tmp_path, "roundtrip", "--input", "fixture:tri-torus",
                       "--samples", "0")
        assert rc == 1
        assert data is None
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")

    def test_stdout_is_one_document(self, capsys):
        # the summary line goes to stderr, after the report on stdout
        assert cli.main(["roundtrip", "--input", "fixture:tri-torus",
                         "--samples", "1"]) == 0
        out, err = capsys.readouterr()
        data = json.loads(out)
        assert err.splitlines() == [
            f"max recovery error: {data['max_error']:.3e}"]

    def test_deterministic(self, tmp_path):
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        for p in (p1, p2):
            assert cli.main(["roundtrip", "--input", "fixture:tri-torus",
                             "--samples", "1", "--seed", "7",
                             "--output", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture()
def right_angle_input(tmp_path):
    """The grid torus with theta = pi/2 given on every free edge."""
    spec = grid_torus_spec(3)
    cc = build_complex(spec)
    p = tmp_path / "right.json"
    p.write_text(json.dumps(dict(
        spec, geometry="euclidean",
        theta={f"{u}-{v}": math.pi / 2 for u, v in sorted(cc.e1)})))
    return str(p)


@pytest.mark.parametrize("cmd, input_, calls", [
    ("solve", "fixture:grid-torus", 1),
    ("validate", "fixture:grid-torus", 1),
    ("demo", "fixture:grid-torus", 1),
    ("roundtrip", "fixture:tri-torus", 1),
    # a fan complex, then its triangle refinement
    ("roundtrip", "fixture:grid-torus", 2),
    ("solve", None, 1),
    ("validate", None, 0),
])
def test_triangulate_calls_per_command(tmp_path, monkeypatch,
                                       right_angle_input, cmd, input_,
                                       calls):
    # one triangulation per complex a command reads; none where the
    # angles are given and nothing is solved or drawn
    made = []

    def counting(cc):
        made.append(cc)
        return triangulate(cc)

    for mod in [m for k, m in sys.modules.items() if k.startswith("hicp")]:
        if getattr(mod, "triangulate", None) is triangulate:
            monkeypatch.setattr(mod, "triangulate", counting)
    argv = [cmd, "--input", input_ or right_angle_input]
    rc, _data = run(tmp_path, *argv,
                    *(["--samples", "1"] if cmd == "roundtrip" else []))
    assert rc == 0
    assert len(made) == calls


@pytest.mark.parametrize("case", ["demo", "render", "failed-merge"])
def test_kernel_and_glue_calls_per_drawing(tmp_path, monkeypatch, case):
    # demo reads its angles off the development: one kernel pass per
    # drawing command, and one glue, the merge's; when the merge fails,
    # as in test_failed_merge_warns, the whole-surface chart is glued
    # once, and both exports read it
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", "--input", "fixture:grid-torus",
                     "--output", str(sol)]) == 0
    calls = {"kernel": 0, "glue": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def fail(sl):
        raise HicpError("diagonal is not redundant")

    monkeypatch.setattr(geo, "decorated_triangles",
                        counting("kernel", geo.decorated_triangles))
    monkeypatch.setattr(layout, "_glue", counting("glue", layout._glue))
    if case == "failed-merge":
        monkeypatch.setattr(cli, "merge_redundant", fail)
    argv = (["demo", "--input", "fixture:grid-torus"] if case == "demo"
            else ["render", "--input", str(sol)])
    assert cli.main(argv + ["--svg", str(tmp_path / "p.svg"), "--output",
                            str(tmp_path / "out.json")]) == 0
    assert calls == {"kernel": 1, "glue": 1}


def _count_row_classes(monkeypatch):
    """The row counts of every geometry.row_classes call from now on."""
    builds = []
    build = geo.row_classes

    def counting(vc, ec):
        builds.append(len(vc))
        return build(vc, ec)

    monkeypatch.setattr(geo, "row_classes", counting)
    return builds


@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("max_iter", ["1", "100"])
def test_solve_builds_row_classes_once_per_row_set(tmp_path, monkeypatch,
                                                   g, max_iter):
    # the kernel's class masks are built for T's rows and for the
    # difference plan's rows, however many Newton points are evaluated;
    # the target angles are those of a point off the reference point
    spec = triangulated_torus_spec(4, v1=(0, 5, 10, 15))
    T = triangulate(build_complex(spec))
    assert T.rows is T.rows
    want = [len(T.slots), len(T.difference_plan[2])]
    x = reference_coords(T, g)
    ad = extract_angles(T, x + 0.05 * np.cos(np.arange(len(x))), g)
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({
        **spec, "geometry": g,
        "theta": {f"{u}-{v}": t for (u, v), t in ad.theta.items()},
        "Theta": {str(k): t for k, t in ad.Theta.items()}}))
    builds = _count_row_classes(monkeypatch)
    cli.main(["solve", "--input", str(p), "--geometry", g, "--max-iter",
              max_iter, "--output", str(tmp_path / "sol.json")])
    sol = json.loads((tmp_path / "sol.json").read_text())
    assert (sol["iterations"] > 1) == (max_iter == "100")
    assert builds == want


def test_drawing_commands_build_row_classes_once(tmp_path, monkeypatch):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", "--input", "fixture:grid-torus",
                     "--output", str(sol)]) == 0
    builds = _count_row_classes(monkeypatch)
    for argv in (["demo", "--input", "fixture:grid-torus"],
                 ["render", "--input", str(sol)]):
        builds.clear()
        assert cli.main(argv + ["--output", str(tmp_path / "out.json")]) == 0
        assert len(builds) == 1, argv


@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_demo_angles_are_the_extracted_angles(monkeypatch, name, g):
    # the angles block read off the development is the text of
    # extract_angles at the same point
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda obj, path=None: emitted.append(
        obj))
    assert cli.main(["demo", "--input", f"fixture:{name}",
                     "--geometry", g]) == 0
    T = triangulate(build_complex(fixture_spec(name)))
    x = geo.psi_inv_surface(T, *reference_pattern(T, g), g)
    assert json.loads(emitted[0])["angles"] == {
        k: json.loads(block) for k, block in
        oracles.demo_angles_by_extract(T, x, g).items()}


# the scalar kernel, moved to tests/scalar_kernel.py as the reference of
# the batched one
MOVED_SCALAR_KERNEL = (
    "psi", "psi_inv", "vertex_radius", "edge_length", "inv_radius",
    "inv_edge", "check_er_triangle", "frame", "place_third",
    "place_triangle", "corner_angle", "disk_circle_rep", "rep_to_hyperbolic",
    "disk_distance", "model_distance", "radical_center", "_disk_face_rep",
    "circumscribe", "face_circle", "FaceCircleData", "decorate",
    "dual_edge_length", "vertex_dual_length")
# the one-row forms of the batched kernel, which the benchmark spans
ONE_ROW_FORMS = ("tetra_angles", "triangle_angles")


@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("name", ["tri-torus-v1", "genus2-mixed"])
def test_commands_run_only_the_batched_kernel(tmp_path, monkeypatch, name,
                                              g):
    """The scalar kernel is gone from hicp.geometry, and with the one-row
    kernel forms replaced by functions that raise, each command exits as
    before and writes the same bytes."""
    assert [n for n in MOVED_SCALAR_KERNEL if hasattr(geo, n)] == []

    def run_all(d):
        d.mkdir()
        fx = ["--input", f"fixture:{name}", "--geometry", g]
        sol = str(d / "sol.json")
        codes = [cli.main(argv) for argv in (
            ["solve", *fx, "--output", sol],
            ["render", "--input", sol, "--output", str(d / "render.json"),
             "--svg", str(d / "render.svg")],
            ["demo", *fx, "--output", str(d / "demo.json"),
             "--svg", str(d / "demo.svg")],
            ["roundtrip", *fx, "--samples", "2",
             "--output", str(d / "roundtrip.json")],
            ["validate", *fx, "--output", str(d / "validate.json")])]
        return codes, {p.name: p.read_bytes() for p in d.iterdir()}

    expected = run_all(tmp_path / "unstubbed")

    def stub(fn):
        def raising(*args, **kwargs):
            raise AssertionError(f"one-row {fn} called")
        return raising

    for fn in ONE_ROW_FORMS:
        monkeypatch.setattr(geo, fn, stub(fn))
    assert run_all(tmp_path / "stubbed") == expected


@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_documents_are_json_dumps_bytes(tmp_path, name, g):
    """Each document validate, solve, render, demo and roundtrip write is
    the text json.dumps writes of it, and json_text writes the same."""
    fx = ["--input", f"fixture:{name}", "--geometry", g]
    sol = str(tmp_path / "solve.json")
    cli.main(["solve", *fx, "--output", sol])
    for cmd, argv in (("validate", fx), ("render", ["--input", sol]),
                      ("demo", fx), ("roundtrip", [*fx, "--samples", "2"])):
        cli.main([cmd, *argv, "--output", str(tmp_path / f"{cmd}.json")])
    assert len(list(tmp_path.iterdir())) == 5
    for p in tmp_path.iterdir():
        text = p.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert json_text(doc) + "\n" == text


SOLUTION_CASES = {
    "converged": (["--input", "fixture:e0-torus"], 0,
                  {"coords", "lengths", "realized"}),
    "max-iter-1": (["--input", "fixture:e0-torus", "--max-iter", "1"], 4,
                   {"coords", "lengths"}),
    "infeasible": ([], 2, {"feasibility"}),
}


@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("case", sorted(SOLUTION_CASES))
def test_solution_documents_are_json_dumps_bytes(tmp_path, capsys,
                                                 bad_instance, case, g):
    """solve writes one document for each status: a converged run, one
    stopped after one iteration (coords without realized angles) and an
    infeasible target (a feasibility report, no coords).  The file
    --output writes is the text solve writes to stdout, and both are the
    text json.dumps writes of it."""
    argv, code, parts = SOLUTION_CASES[case]
    argv = ["solve", *(argv or ["--input", str(bad_instance)]),
            "--geometry", g]
    out = tmp_path / "sol.json"
    assert cli.main([*argv, "--output", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == code
    text = capsys.readouterr().out
    assert out.read_text() == text
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert set(doc) == parts | {
        "geometry", "input", "iterations", "residual_norm",
        "solution_version", "status", "trace"}
    assert doc["input"]["tangent_edges"] or case == "infeasible"
    assert doc["trace"] or case == "infeasible"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("big", [1e308, -1e308])
def test_huge_cone_angles_overflow_without_a_warning(tmp_path, capsys, g,
                                                     big):
    """On a tetrahedron of four disks with every Theta = +-1e308 the
    Gauss-Bonnet total overflows to an infinity: validate and solve exit
    2 with that total in the report, and numpy warns of nothing."""
    spec = tetrahedron_spec()
    cc = build_complex(spec)
    doc = dict(spec, geometry=g,
               theta={f"{u}-{v}": 1.0 for u, v in sorted(cc.e1)},
               Theta={str(k): big for k in range(4)})
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    for cmd in ("validate", "solve"):
        rc, data = run(tmp_path, cmd, "--input", str(p))
        assert rc == 2
        rep = data if cmd == "validate" else data["feasibility"]
        assert rep["gauss_bonnet_residual"] == -math.copysign(math.inf, big)
        assert capsys.readouterr().err == ""


def test_solve_echoes_vertex_fields_as_json_dumps_bytes(tmp_path):
    """solve writes the input's vertex objects back as they came, here
    with fields of control, line-separator and non-ASCII text, strings
    and a key of NUL characters, nested lists and a NaN: the document is
    the text json.dumps writes of it."""
    spec = fixture_spec("tri-torus-v1")
    extra = {"label": "\u0000", "note": "x\"\u0000\u2028\u00e9\U0001f600",
             "path": [[1, ["\u0000\u0000", None]], {"\u0000": True}],
             "weight": math.nan}
    doc = dict(spec, geometry="hyperbolic",
               vertices=[dict(v, **extra) for v in spec["vertices"]])
    p, out = tmp_path / "in.json", tmp_path / "sol.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["solve", "--input", str(p), "--output", str(out)]) == 0
    text = out.read_text()
    sol = json.loads(text)
    assert text == json.dumps(sol, sort_keys=True, indent=1) + "\n"
    assert (json.dumps(sol["input"]["vertices"], sort_keys=True)
            == json.dumps(doc["vertices"], sort_keys=True))
    assert set(sol["coords"]) == {"a", "b"}


def _write_render_inputs(d, spec, T, x, g):
    """Write demo's input in.json and render's input sol.json, a
    converged solution at x, into the directory d."""
    n_a = len(T.free_edges)
    sol = {"solution_version": 1, "geometry": g,
           "input": dict(spec, geometry=g), "status": "Converged",
           "coords": {"a": {f"{u}-{v}": a for (u, v), a in
                            zip(T.free_edges, x[:n_a].tolist())},
                      "b": {str(k): b for k, b in
                            zip(T.v1_vertices, x[n_a:].tolist())}}}
    (d / "in.json").write_text(json.dumps(sol["input"]))
    (d / "sol.json").write_text(json.dumps(sol))


@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("kind", ["tri24", "grid20"])
def test_benchmark_size_outputs_are_the_reference_bytes(tmp_path, kind, g):
    """demo --svg and render --svg on the largest tori the benchmark
    renders write json's bytes and the per-element SVG writer's."""
    n = int(kind[-2:])
    build = triangulated_torus_spec if kind.startswith("tri") \
        else grid_torus_spec
    spec = build(n, v1=range(0, n * n, 2))
    T = triangulate(build_complex(spec))
    l, r = reference_pattern(T, g)
    x = geo.psi_inv_surface(T, l, r, g)
    _write_render_inputs(tmp_path, spec, T, x, g)
    for cmd, path in (("demo", "in.json"), ("render", "sol.json")):
        assert cli.main([cmd, "--input", str(tmp_path / path),
                         "--output", str(tmp_path / f"{cmd}.json"),
                         "--svg", str(tmp_path / f"{cmd}.svg")]) == 0
        text = (tmp_path / f"{cmd}.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=1) + "\n"
    sl = merge_redundant(develop(T, x, g))
    svg = oracles.svg_by_loop(sl)
    assert (tmp_path / "demo.svg").read_text() == svg
    assert (tmp_path / "render.svg").read_text() == svg


@pytest.mark.parametrize("g", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("case", ["mixed", "unmerged"])
def test_layout_documents_are_the_splice_writers_bytes(tmp_path, capsys,
                                                       case, g):
    """demo and render on a grid torus of triangles, quads and hexagons,
    whose merged charts have three sizes and more than ten keys, and on
    its development with a fan diagonal off pi, render's unmerged
    fallback, keyed by T's edges, diagonals included: each document is
    json's text of itself and the text of the splice writer."""
    spec = mixed_grid_spec(6, 5)
    T = triangulate(build_complex(spec))
    x = geo.psi_inv_surface(T, *reference_pattern(T, g), g)
    if case == "unmerged":
        x[T.free_edges.index(fan_diagonals(T)[0])] -= 0.02
    _write_render_inputs(tmp_path, spec, T, x, g)
    sl = develop(T, x, g)
    assert cli.main(["render", "--input", str(tmp_path / "sol.json")]) == 0
    out, err = capsys.readouterr()
    got = {"render": (out, oracles.layout_text_by_splice(
        sl if case == "unmerged" else merge_redundant(sl)))}
    if case == "unmerged":
        assert err.startswith("warning: merge failed")
        assert len(sl.edges) == len(T.edges) > len(T.base.edges)
        # demo merges or fails; its writer takes the development as is
        got["demo"] = (cli._demo_json(sl) + "\n",
                       oracles.demo_text_by_splice(sl))
    else:
        assert err == ""
        sl = merge_redundant(sl)
        sizes = set(np.diff(sl.chart.start).tolist())
        assert len(sl.chart.R) > 10 and sizes == {3, 4, 6}
        assert cli.main(["demo", "--input", str(tmp_path / "in.json")]) == 0
        got["demo"] = (capsys.readouterr().out,
                       oracles.demo_text_by_splice(sl))
    for cmd, (text, want) in got.items():
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=1) + "\n", cmd
        assert text == want, cmd


def test_parser_is_built_once(monkeypatch, capsys):
    """main keeps its parser: a good command, a usage error, help and the
    good command again exit and write in one process as each does in a
    fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # the width of usage and help
    runs = [["validate", "--input", "fixture:grid-torus"], ["solve"],
            ["demo", "--help"], ["validate", "--input", "fixture:grid-torus"]]
    got = []
    for argv in runs:
        rc = cli.main(argv)
        got.append([rc, *capsys.readouterr()])
    assert cli.build_parser() is cli.build_parser()
    assert [rc for rc, _out, _err in got] == [0, 1, 0, 0]
    code = ("import sys\nfrom hicp import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv, want in zip(runs, got):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert [proc.returncode, proc.stdout, proc.stderr] == want


def test_writers_are_the_traced_names(tmp_path, monkeypatch):
    """solve --output and demo --output write through cli._emit and
    render --output through layout.export_json, once each: the benchmark
    times these names, in every hicp namespace that binds them, as
    cli.emit and layout.export_json."""
    calls = []

    def count(mod, name):
        fn = getattr(mod, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        for m in [m for k, m in sys.modules.items()
                  if k == "hicp" or k.startswith("hicp.")]:
            if getattr(m, name, None) is fn:
                monkeypatch.setattr(m, name, counting)

    count(cli, "_emit")
    count(layout, "export_json")
    fx = ["--input", "fixture:grid-torus"]
    sol = str(tmp_path / "sol.json")
    assert cli.main(["solve", *fx, "--output", sol]) == 0
    assert calls == ["_emit"]
    for cmd, argv, via in (("demo", fx, "_emit"),
                           ("render", ["--input", sol], "export_json")):
        calls.clear()
        out = tmp_path / f"{cmd}.json"
        assert cli.main([cmd, *argv, "--output", str(out),
                         "--svg", str(tmp_path / f"{cmd}.svg")]) == 0
        assert calls == [via]
        assert json.loads(out.read_text())


def _fresh_commands(tmp_path, modules):
    """Run validate (partial and exhaustive), solve, render and demo in
    one fresh interpreter: (their exit codes, which of ``modules`` are
    loaded after them)."""
    fx = ["--input", "fixture:tri-torus"]
    sol, out, svg = (str(tmp_path / n) for n in ("sol.json", "out.json",
                                                 "out.svg"))
    runs = [["validate", *fx, "--output", out],
            ["validate", "--input", "fixture:grid-torus", "--output", out],
            ["solve", *fx, "--output", sol],
            ["render", "--input", sol, "--output", out, "--svg", svg],
            ["demo", *fx, "--output", out, "--svg", svg]]
    code = ("import json, sys\n"
            "from hicp import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, [m in sys.modules\n"
            "                          for m in json.loads(sys.argv[2])]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs),
                           json.dumps(modules)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_do_not_load_scipy(tmp_path):
    # scipy is a test dependency: no command may import it
    codes, loaded = _fresh_commands(tmp_path, ["scipy"])
    assert codes == [3, 0, 0, 0, 0]
    assert loaded == [False]


def test_commands_do_not_load_numpy_ma(tmp_path):
    # numpy.ma costs about 14 ms of import in a fresh interpreter, and
    # np.unique loads it in numpy 2.4
    codes, loaded = _fresh_commands(tmp_path, ["numpy.ma"])
    assert codes == [3, 0, 0, 0, 0]
    assert loaded == [False]
