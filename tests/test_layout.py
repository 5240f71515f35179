import dataclasses
import json
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import fan_diagonals, mixed_grid_spec
from hicp import build_complex, triangulate
from hicp import geometry as geo
from hicp import jsontext, layout
from hicp.errors import HicpError, NonRedundantDiagonal
from hicp.fixtures import (
    FIXTURES,
    fixture_spec,
    grid_torus_spec,
    reference_pattern,
    triangulated_torus_spec,
)
from hicp.geometry import EUCLIDEAN, HYPERBOLIC, psi_inv_surface
from hicp.jsontext import float_map, json_text, key_order, number_texts
from hicp.layout import (
    angle_blocks,
    delaunay_report,
    develop,
    export_json,
    export_svg,
    gauss_bonnet_check,
    layout_json,
    layout_to_dict,
    merge_redundant,
)
from scalar_kernel import (
    circumscribe,
    dual_edge_length,
    model_distance,
    place_third,
    vertex_dual_length,
)


def reference_layout(cc, g):
    T = triangulate(cc)
    l, r = reference_pattern(T, g)
    return develop(T, psi_inv_surface(T, l, r, g), g)


@pytest.fixture(scope="module")
def grid_layout(grid_torus):
    return reference_layout(grid_torus, EUCLIDEAN)


@pytest.fixture(scope="module")
def genus2_layout(genus2):
    return reference_layout(genus2, HYPERBOLIC)


@pytest.fixture(scope="module")
def e0_layout(e0_torus):
    return reference_layout(e0_torus, HYPERBOLIC)


class TestDevelop:
    def test_chart_compatibility(self, grid_layout, genus2_layout):
        # edge lengths measured inside any chart agree with the
        # intrinsic lengths
        for sl in (grid_layout, genus2_layout):
            g = sl.geometry
            length = dict(zip(sl.T.edges, geo.scatter_rows(
                sl.T, sl.placed.l, sl.placed.r)[0]))
            for chart in oracles.chart_dict(sl).values():
                verts = chart["verts"]
                n = len(verts)
                for t in range(n):
                    vi, zi = verts[t]
                    vj, zj = verts[(t + 1) % n]
                    e = tuple(sorted((vi, vj)))
                    d = model_distance(zi, zj, g)
                    assert d == pytest.approx(length[e], abs=1e-10)

    def test_vertex_dual_distances(self, grid_layout, genus2_layout):
        for sl in (grid_layout, genus2_layout):
            g = sl.geometry
            radius = dict(zip(sl.T.base.vertices, sl.r.tolist()))
            for chart in oracles.chart_dict(sl).values():
                center, R = chart["circle"]
                for vid, z in chart["verts"]:
                    d = model_distance(center, z, g)
                    assert d == pytest.approx(
                        vertex_dual_length(R, radius[vid], g), abs=1e-9)

    def test_cone_angles_close_up(self, grid_layout):
        assert grid_layout.cone == pytest.approx(2 * math.pi, abs=1e-9)

    def test_hyperbolic_disk_model(self, genus2_layout):
        assert (np.abs(genus2_layout.chart.z) < 1.0).all()


class TestDelaunay:
    def test_reference_patterns_are_delaunay(self, grid_layout,
                                             genus2_layout, e0_layout):
        for sl in (grid_layout, genus2_layout, e0_layout):
            rep = delaunay_report(sl)
            diagonals = fan_diagonals(sl.T)
            for e, r in rep.items():
                if e in diagonals:
                    assert r["is_redundant"]
                else:
                    assert r["is_delaunay"]

    def test_diagonals_are_redundant(self, grid_layout):
        rep = delaunay_report(grid_layout)
        for e in fan_diagonals(grid_layout.T):
            assert rep[e]["is_redundant"]
        for e in grid_layout.T.base.e1:
            assert not rep[e]["is_redundant"]

    def test_tangency_edges_have_zero_angle(self, e0_layout):
        rep = delaunay_report(e0_layout)
        for e in e0_layout.T.base.e0:
            assert rep[e]["theta"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
    def test_rendered_tangency_angles_are_exactly_zero(self, tmp_path, g):
        # two tangent kernel circles meet at sqrt(rounding), up to 2e-7
        # on this solution, but theta is forced to 0 by the class
        from hicp import cli
        sol, out = tmp_path / "sol.json", tmp_path / "layout.json"
        assert cli.main(["solve", "--input", "fixture:e0-torus",
                         "--geometry", g, "--output", str(sol)]) == 0
        assert cli.main(["render", "--input", str(sol),
                         "--output", str(out)]) == 0
        cc = build_complex(fixture_spec("e0-torus"))
        edges = json.loads(out.read_text())["edges"]
        assert cc.e0
        for u, v in cc.e0:
            assert edges[f"{u}-{v}"]["theta"] == 0.0


class TestGaussBonnet:
    def test_euclidean(self, grid_layout):
        gb = gauss_bonnet_check(grid_layout)
        assert gb["residual"] == pytest.approx(0.0, abs=1e-9)
        assert gb["area"] == 0.0

    def test_hyperbolic(self, genus2_layout):
        gb = gauss_bonnet_check(genus2_layout)
        assert gb["area"] > 0
        assert gb["residual"] == pytest.approx(0.0, abs=1e-8)

    def test_totals_add_left_to_right(self):
        # the built-in sum is compensated from Python 3.12 and gives 1.0
        sl = SimpleNamespace(T=SimpleNamespace(base=SimpleNamespace(chi=0)),
                             geometry=HYPERBOLIC,
                             area=np.array([1e16, 1.0, -1e16]),
                             cone=np.full(3, 2 * math.pi))
        assert gauss_bonnet_check(sl) == {"residual": 0.0, "area": 0.0}


class TestDualConsistency:
    def test_center_distance_matches_dual_length(self, grid_layout,
                                                 genus2_layout):
        # lay out the two triangles of an edge in one chart and compare
        # the circle-center distance with the intrinsic dual length
        rng = np.random.default_rng(5)
        for sl in (grid_layout, genus2_layout):
            g, T = sl.geometry, sl.T
            length = dict(zip(T.edges, geo.scatter_rows(
                T, sl.placed.l, sl.placed.r)[0]))
            asum = dict(zip(T.edges, sl.asum.tolist()))
            radius = dict(zip(T.base.vertices, sl.r.tolist()))
            edges = sorted(T.edges)
            for _ in range(12):
                e = edges[rng.integers(len(edges))]
                (u, v) = e
                centers = []
                radii = []
                for side, ti in enumerate(oracles.edge_triangles(T)[e]):
                    tri = oracles.triangles(T)[ti]
                    i, j, k = tri.verts
                    # rotate so the shared edge comes first
                    while tuple(sorted((i, j))) != e:
                        i, j, k = j, k, i
                    if side == 1:
                        i, j = j, i  # keep the third vertex on the far side
                    l_ij = length[tuple(sorted((i, j)))]
                    l_ik = length[tuple(sorted((i, k)))]
                    l_jk = length[tuple(sorted((j, k)))]
                    za = 0j
                    zb = place_third(0j, 1 + 0j, l_ij, 0.0, g)
                    beta = _corner(l_ij, l_ik, l_jk, g)
                    zc = place_third(za, zb, l_ik,
                                     beta if side == 0 else -beta, g)
                    pos = [za, zb, zc]
                    rs = [radius[i], radius[j], radius[k]]
                    c, R = circumscribe(pos, rs, g)
                    centers.append(c)
                    radii.append(R)
                d = model_distance(centers[0], centers[1], g)
                want = dual_edge_length(radii[0], radii[1],
                                        asum[e], g)
                assert d == pytest.approx(want, abs=1e-9)


def _corner(l_ab, l_aw, l_bw, g):
    if g == EUCLIDEAN:
        c = (l_ab ** 2 + l_aw ** 2 - l_bw ** 2) / (2 * l_ab * l_aw)
    else:
        c = ((math.cosh(l_ab) * math.cosh(l_aw) - math.cosh(l_bw))
             / (math.sinh(l_ab) * math.sinh(l_aw)))
    return math.acos(max(-1.0, min(1.0, c)))


class TestMerge:
    def test_merged_quads(self, grid_layout):
        m = merge_redundant(grid_layout)
        assert m.merged
        assert (np.diff(m.chart.start) == 4).all()
        assert len(m.chart.R) == len(grid_layout.T.base.faces)

    def test_voronoi_containment(self, grid_layout, e0_layout):
        for sl, g in ((grid_layout, EUCLIDEAN), (e0_layout, HYPERBOLIC)):
            m = merge_redundant(sl)
            for chart in oracles.chart_dict(m).values():
                center, _R = chart["circle"]
                poly = [z for _vid, z in chart["verts"]]
                if g == HYPERBOLIC:
                    # the Klein model keeps geodesics straight
                    center = 2 * center / (1 + abs(center) ** 2)
                    poly = [2 * z / (1 + abs(z) ** 2) for z in poly]
                signs = set()
                n = len(poly)
                for t in range(n):
                    d1 = poly[(t + 1) % n] - poly[t]
                    d2 = center - poly[t]
                    cr = d1.real * d2.imag - d1.imag * d2.real
                    signs.add(cr > 0)
                assert signs == {True}

    def test_rejects_non_redundant_diagonals(self, grid_torus):
        T = triangulate(grid_torus)
        l, r = reference_pattern(T, EUCLIDEAN)
        x = psi_inv_surface(T, l, r, EUCLIDEAN)
        e = fan_diagonals(T)[0]
        # shorten one diagonal: its angle drops below pi
        x[T.free_edges.index(e)] -= 0.02
        sl = develop(T, x, EUCLIDEAN)
        with pytest.raises(HicpError):
            merge_redundant(sl)


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("name", ("tri-torus", "genus2", "dodecahedron"))
def test_each_face_circle_is_solved_once(monkeypatch, name, g):
    # develop, its theta check and merge_redundant move the kernel's
    # circle of each triangle instead of solving it again: one batched
    # kernel call with one row per triangle
    T = triangulate(build_complex(fixture_spec(name)))
    l, r = reference_pattern(T, g)
    x = psi_inv_surface(T, l, r, g)
    rows = []
    kernel = geo.decorated_triangles

    def counting_kernel(x, *args, **kwargs):
        rows.append(len(x))
        return kernel(x, *args, **kwargs)

    monkeypatch.setattr(geo, "decorated_triangles", counting_kernel)
    merge_redundant(develop(T, x, g))
    assert rows == [len(T.face)]


class TestExport:
    def test_json_roundtrip(self, grid_layout, tmp_path):
        d = layout_to_dict(grid_layout)
        assert d["layout_version"] == 1
        assert d["geometry"] == "euclidean"
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        export_json(grid_layout, p1)
        export_json(grid_layout, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = json.loads(p1.read_text())
        assert loaded["layout_version"] == 1

    def test_layout_json_non_finite(self, grid_layout):
        th = grid_layout.th.copy()
        th[:3] = math.nan, math.inf, -math.inf
        sl = dataclasses.replace(grid_layout, th=th)
        text = layout_json(sl)
        assert text + "\n" == _dumps(oracles.layout_to_dict_by_loop(sl))
        assert "NaN" in text and "-Infinity" in text

    def test_svg(self, genus2_layout, tmp_path):
        p = tmp_path / "l.svg"
        export_svg(genus2_layout, p)
        text = p.read_text()
        assert text.startswith("<svg")
        assert 'width="1000"' in text
        assert "circle" in text


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# every kind of value json writes, nested
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.text() | st.text(st.characters(max_codepoint=0x1f)),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=40)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_DOCS)
    def test_is_json_dumps(self, doc):
        assert json_text(doc) + "\n" == _dumps(doc)

    @settings(max_examples=100, deadline=None)
    @given(doc=JSON_DOCS, depth=st.integers(1, 3))
    def test_pad_places_the_text_at_its_depth(self, doc, depth):
        assert (_wrapped(json_text(doc, " " * depth), depth) + "\n"
                == _dumps(_nest(doc, depth)))

    @pytest.mark.parametrize("value", [
        np.float64(0.1), np.float64("nan"), 2 ** 70, -(2 ** 70),
        {1: "a", 2.5: "b"}, {True: 1}, {None: 0}, "\u00e9\u2028\x00\"\\"])
    def test_scalars_and_keys_as_json(self, value):
        assert json_text(value) + "\n" == _dumps(value)

    def test_rejects_what_json_rejects(self):
        for value in (np.int64(1), {1, 2}, {(1, 2): 0}):
            with pytest.raises(TypeError):
                json.dumps(value, sort_keys=True, indent=1)
            with pytest.raises(TypeError):
                json_text(value)


# ---------------------------------------------------------------------------
# The one-pass writers against json and the per-element SVG writer

# numbers where %.12g and repr part ways: whole numbers, exponents from
# 1e12 (%g) and 1e16 (repr), subnormals, the largest double, non-finite;
# each side of the bounds where the reference writer fixes up a %.12g
# text: 1e-4, 1e11 and 1e-11 |x| from a whole number; where orjson and
# repr write different texts: from 1e-9 to 1e-4 (0.00001 against 1e-05),
# from 1e16 (1e16 against 1e+16), non-finite (null); and where the 12-digit
# rounding must fall back to formatting: near ties (M + 0.5) 10^(e - 11),
# powers of ten and the numbers just below them (log10 on the wrong side
# of a power of ten), and 999999999999.5, which rounds up to 13 digits
ROUNDING_EDGES = [
    0.0, -0.0, 1.0, -3.0, 100.0, 1e-4, 9.99999999999995e-05, 0.1,
    999999999999.4, 999999999999.5, 1e12, 123456789012345.0, 1e15,
    1e16 - 2, 1e16, 1e17, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
    math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), 1e11,
    math.nextafter(1e11, 0), math.nextafter(1e11, math.inf),
    99999999999.99999, 3 - 3e-11, 3 + 3e-11, 12345.000000000002,
    1.0000000000049, -12345.0000000499, -5e-324, 1e-310,
    1e-5, 5e-5, -5e-5, 1.5e300, 1e-9, math.nextafter(1e-9, 0), -3e-7,
    *[(123456789012 + 0.5) * 10.0 ** (e - 11) for e in range(-4, 11)],
    *[x for k in range(-12, 17) for x in (10.0 ** k,
                                          math.nextafter(10.0 ** k, 0))]]


def _assert_texts_are_json(xs):
    # json.dumps writes repr, NaN and +-Infinity
    a = np.array(xs, float)
    assert jsontext.number_texts(a, "%.12g") == [
        json.dumps(float(f"{x:.12g}")) for x in xs]
    assert jsontext.number_texts(a) == list(map(json.dumps, xs))


def test_texts_are_json_of_12_digits_and_repr():
    _assert_texts_are_json(
        ROUNDING_EDGES + [s * 10.0 ** k * m for k in range(-20, 21)
                          for m in (1.0, 1.2345678901234, 9.9999999999996)
                          for s in (1, -1)])


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats() | st.sampled_from(ROUNDING_EDGES),
                   max_size=40))
def test_texts_are_json_of_12_digits_and_repr_drawn(xs):
    _assert_texts_are_json(xs)


# numbers of every size the 12-digit rounding takes (1e-11 to 1e12) and
# either side of it, with 12 to 14 significant digits, so that ties and
# mantissas that round up to 13 digits come up
SIZED = st.builds(lambda m, e, s: s * m * 10.0 ** e,
                  st.integers(10 ** 11, 10 ** 13) | st.floats(1, 10),
                  st.integers(-26, 8), st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats() | SIZED | st.sampled_from(ROUNDING_EDGES),
                   max_size=40), cut=st.integers(0, 40))
def test_texts_are_the_reference_writers(xs, cut):
    # the one-pass writer against the one-text-per-number reference, in
    # both formats, and written as one list or as two blocks
    a = np.array(xs, float)
    for fmt in ("%r", "%.12g"):
        want = oracles.number_texts(a, fmt)
        assert number_texts(a, fmt) == want
        assert jsontext.number_blocks([a[:cut], a[cut:]], fmt) == [
            want[:cut], want[cut:]]


FLOAT_MAPS = st.dictionaries(
    st.text(max_size=5) | st.sampled_from(["10-2", "2-10", "2", "10"]),
    st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    max_size=12)


@settings(max_examples=300, deadline=None)
@given(d=FLOAT_MAPS)
def test_float_map_is_json_dumps(d):
    order = key_order(list(d))
    block = float_map(order, number_texts(
        np.array(list(d.values()), float)[order.at]))
    assert block + "\n" == _dumps(d)


# a group of rows_text: a template of width fields ("%s" or "%d"), and
# the rows of its columns as lists of texts or bools
GROUPS = st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.sampled_from(["%s", "%d"]), min_size=width, max_size=width),
    st.sampled_from(["<%s>", "[%s]\n", "%s"])))


@settings(max_examples=300, deadline=None)
@given(shapes=st.lists(GROUPS, min_size=1, max_size=4), data=st.data(),
       sep=st.sampled_from([",\n", "\n", ""]))
def test_rows_text_is_the_per_row_writer(shapes, data, sep):
    # the writer against one % per row: drawn kinds (zero rows too, and
    # bools for two groups), %d fields from bool arrays, and %s columns
    # given as lists, object arrays or map iterators of texts, as int
    # arrays (vertex ids), and as object arrays of ints beyond int64
    kind = data.draw(st.lists(st.integers(0, len(shapes) - 1), max_size=20))
    groups, rows = [], []
    for k, (fields, wrap) in enumerate(shapes):
        n = kind.count(k)
        cols, given = [], []
        for f in fields:
            form = "bool" if f == "%d" else data.draw(st.sampled_from(
                ["list", "object", "map", "int", "huge"]))
            item = {"bool": st.booleans(),
                    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
                    "huge": st.integers(-500, 500).map(
                        lambda k: (k % 2 * 2 - 1) * 2 ** 64 + k)
                    }.get(form, st.text(max_size=3))
            col = data.draw(st.lists(item, min_size=n, max_size=n))
            cols.append(col)
            given.append(col if form == "list" else map(str, col)
                         if form == "map" else np.array(col, {
                             "bool": bool, "int": int}.get(form, object)))
        template = wrap % " ".join(fields)
        groups.append((template, *given))
        rows.append([template % r for r in zip(*cols)])
    want = sep.join(rows[k].pop(0) for k in kind)
    given = (None, np.array(kind, bool), np.array(kind, int))[
        min(len(shapes), 3) - 1]
    assert jsontext.rows_text(given, groups, sep) == want


def test_rows_text_rejects_rows_that_do_not_fit():
    # a column past the template's fields, and a group whose rows are
    # not the count of its kind, are caller errors
    with pytest.raises(ValueError):
        jsontext.rows_text(None, [("<%s>", ["a"], ["b"])])
    with pytest.raises(ValueError):
        jsontext.rows_text([0, 1], [("<%s>", ["a", "b"]), ("%d", [1])])


def test_float_map_sorts_keys_as_strings():
    d = {"2-10": 1.5, "10-2": math.nan, "2": -math.inf, "10": 0.0}
    order = key_order(list(d))
    block = float_map(order, number_texts(
        np.array(list(d.values()))[order.at]))
    assert block + "\n" == _dumps(d)
    assert list(json.loads(block)) == [
        "10", "10-2", "2", "2-10"]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_delaunay_json_is_the_report(name):
    sl = reference_layout(build_complex(fixture_spec(name)), HYPERBOLIC)
    th = sl.th.copy()
    th[:3] = math.nan, math.inf, -math.inf
    for s in (sl, merge_redundant(sl), dataclasses.replace(sl, th=th)):
        want = oracles.delaunay_report_by_loop(s)
        assert angle_blocks(s)["delaunay"] + "\n" == _dumps(
            {f"{u}-{v}": rec for (u, v), rec in want.items()})
        if s.th is not th:
            assert delaunay_report(s) == want
            assert list(delaunay_report(s)) == list(want)


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_angles_json_is_the_extracted_angles(name, g):
    # unmerged and merged, the angles read off the layout are the text of
    # extract_angles at the same point
    T = triangulate(build_complex(fixture_spec(name)))
    x = psi_inv_surface(T, *reference_pattern(T, g), g)
    sl = develop(T, x, g)
    want = oracles.demo_angles_by_extract(T, x, g, " ")
    for s in (sl, merge_redundant(sl)):
        blocks = angle_blocks(s)
        assert {k: blocks[k] for k in want} == want


def _nest(doc, depth):
    """doc as the value of the key "k" in depth objects, one in another."""
    for _ in range(depth):
        doc = {"k": doc}
    return doc


def _wrapped(text, depth):
    """The text of _nest's document of depth objects with the block text
    innermost, written at its depth."""
    head = "".join('{\n' + " " * (d + 1) + '"k": ' for d in range(depth))
    return head + text + "".join("\n" + " " * d + "}"
                                 for d in reversed(range(depth)))


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("name", ("e0-torus", "genus2", "grid-torus"))
def test_padded_blocks_are_json_texts_placement(name, g):
    # a block written at indent pad is json's text of the unpadded
    # block's document at that depth (at depth 0, of itself): demo writes
    # its layout and delaunay blocks at depth 1 and its angle maps at
    # depth 2, one level below the delaunay block's
    sl = reference_layout(build_complex(fixture_spec(name)), g)
    for s in (sl, merge_redundant(sl)):
        for depth in (0, 1, 2):
            pad = " " * depth
            blocks, padded = angle_blocks(s), angle_blocks(s, pad)
            pairs = [(layout_json(s), layout_json(s, pad), depth)] + [
                (blocks[k], padded[k], depth + (k != "delaunay"))
                for k in blocks]
            for block, text, d in pairs:
                assert (_wrapped(text, d) + "\n"
                        == _dumps(_nest(json.loads(block), d)))


def test_svg_texts_are_the_percent_text():
    # halves and their neighbours, where x * 1000 may round the other
    # way than %.3f; tiny negatives, which %.3f writes -0.000; large,
    # tiny and non-finite numbers; and plain ones
    rng = np.random.default_rng(7)
    halves = (rng.integers(-10 ** 7, 10 ** 7, 400) + 0.5) / 1000
    plain = np.concatenate([
        rng.uniform(-1000, 1000, 700), rng.uniform(-5e-4, 0, 60),
        [-0.0, 0.0, -4e-4, 5e-4, 1.0625, 999.9995, -999.9995, 1e3] * 3,
        10.0 ** rng.uniform(-6, 17, 300) * rng.choice([-1, 1], 300)])
    values = np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        [np.nan, np.inf, -np.inf, 1e300, 5e-324, 2.0 ** 53], plain])
    for v in (rng.permutation(values), rng.permutation(plain), values[:0]):
        assert layout._svg_texts(v).tolist() == [
            "%.3f" % x for x in v.tolist()]


_PATH = ' stroke="#222222" fill="none" stroke-width="1"/>'


@pytest.mark.parametrize("template", (
    '<path d="M %.3f %.3f L %.3f %.3f"' + _PATH,
    '<path d="M %.3f %.3f A %.3f %.3f 0 0 %d %.3f %.3f"' + _PATH,
    '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="none" stroke="#3366cc" '
    'stroke-width="0.8"/>'))
def test_svg_rows_are_the_percent_text(template):
    # each SVG element kind, written from the texts of its %.3f columns
    # as export_svg writes it (a path with the middle "L" or an arc's
    # text, a circle with a ring's tail), is the element that % writes
    # from the numbers themselves
    rng = np.random.default_rng(7)
    halves = (rng.integers(-10 ** 7, 10 ** 7, 120) + 0.5) / 1000
    values = np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        [np.nan, np.inf, -np.inf, 1e300, 5e-324, -0.0, -4e-4, 1e3],
        rng.uniform(-1000, 1000, 300)])
    fields = re.findall(r"%\.3f|%d", template)
    n = len(fields)
    for v in (rng.permutation(values), values[:0]):
        cols = list(v[:len(v) // n * n].reshape(-1, n).T)
        if "%d" in fields:
            cols[fields.index("%d")] = cols[fields.index("%d")] > 0  # sweep
        texts = [c if f == "%d" else layout._svg_texts(c)
                 for f, c in zip(fields, cols)]
        m = len(cols[0])
        want = "\n".join([template] * m) % tuple(
            np.column_stack(cols).ravel().tolist()) if m else ""
        if n == 3:  # a face circle
            groups = [(layout._CIRCLE, *texts,
                       [layout._RING.format("#3366cc")] * m)]
        else:  # a line, or an arc's x, y, r, r, sweep, then its end
            mid = ["L"] * m if n == 4 else jsontext.rows_text(
                None, [(layout._ARC, *texts[2:5])], "\n").splitlines()
            groups = [(layout._PATH, *texts[:2], mid, *texts[-2:])]
        assert jsontext.rows_text(None, groups, "\n") == want


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_svg_is_the_per_element_writer(tmp_path, name, g):
    sl = reference_layout(build_complex(fixture_spec(name)), g)
    for s in (sl, merge_redundant(sl)):
        p = tmp_path / f"merged-{s.merged}.svg"
        export_svg(s, p)
        text = p.read_text()
        assert text == oracles.svg_by_loop(s)
        if g == HYPERBOLIC:
            # the chart edges mix line segments and disk arcs
            assert " L " in text and " A " in text
        if name == "genus2-mixed":
            # point dots and vertex circles mix
            assert 'r="2" fill' in text and 'stroke="#cc3333"' in text


# ---------------------------------------------------------------------------
# The batched layout against the scalar glue and pair_theta


def _reference_coords(name, g):
    T = triangulate(build_complex(fixture_spec(name)))
    l, r = reference_pattern(T, g)
    return T, psi_inv_surface(T, l, r, g)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the HicpError it raises."""
    try:
        return fn(*args), None
    except HicpError as exc:
        return None, (type(exc), str(exc))


_NUMBER = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?")


def _assert_same_error(err, ref):
    """Both ran, or both raised the same type and message.  The numbers
    in a message are theta values or alpha sums: they agree within 1e-7,
    because the half-angle form takes theta from square roots of
    differences that round at eps, so near tangency theta is fixed to
    about sqrt(eps) only."""
    assert (err is None) == (ref is None)
    if err is None:
        return
    assert err[0] is ref[0]
    assert _NUMBER.split(err[1]) == _NUMBER.split(ref[1])
    for x, y in zip(_NUMBER.findall(err[1]), _NUMBER.findall(ref[1])):
        assert float(x) == pytest.approx(float(y), rel=1e-7)


def _theta_spread(sl, e, th):
    """How far rounding in the face-circle data moves theta of edge e,
    per eps: the half-angle form divides by sin theta and by R1 R2 over
    (R1 + R2)^2 (sinh R1 sinh R2 over cosh(R1 + R2) in the disk)."""
    R1, R2 = (float(sl.placed.R[ti])
              for ti in oracles.edge_triangles(sl.T)[e])
    if sl.geometry == EUCLIDEAN:
        k = (R1 + R2) ** 2 / (R1 * R2)
    else:
        k = math.cosh(R1 + R2) / (math.sinh(R1) * math.sinh(R2))
    return k / abs(math.sin(th))


def _assert_charts_match(sl, ref):
    charts = oracles.chart_dict(sl)
    assert charts.keys() == ref.keys()
    for key, chart in charts.items():
        verts, (c, R) = ref[key]["verts"], ref[key]["circle"]
        assert [v for v, _z in chart["verts"]] == [v for v, _z in verts]
        for (_v, z), (_w, zr) in zip(chart["verts"], verts):
            assert abs(z - zr) <= 1e-12
        assert abs(chart["circle"][0] - c) <= 1e-12
        assert chart["circle"][1] == pytest.approx(R, rel=1e-12, abs=1e-12)


def _assert_matches_loop(T, x, g):
    sl, err = _outcome(develop, T, x, g)
    ref, ref_err = _outcome(oracles.develop_by_loop, T, x, g)
    _assert_same_error(err, ref_err)
    if err:
        return
    charts, theta = ref
    _assert_charts_match(sl, {
        ti: {"verts": [(v, pos[v]) for v in oracles.triangles(T)[ti].verts],
             "circle": circle} for ti, (pos, circle) in charts.items()})
    assert list(sl.edges) == list(theta)
    eps = np.finfo(float).eps
    for e, got, th in zip(sl.edges, sl.th.tolist(), theta.values()):
        if e in T.base.e0:
            assert got == th == 0.0
        else:
            assert (abs(got - th)
                    <= 1e-12 + 64 * eps * _theta_spread(sl, e, th))
    _assert_layout_document_matches_loop(sl)
    merged, err = _outcome(merge_redundant, sl)
    ref, ref_err = _outcome(oracles.merge_by_loop, sl)
    _assert_same_error(err, ref_err)
    if not err:
        _assert_charts_match(merged, ref)
        _assert_layout_document_matches_loop(merged)


def _assert_layout_document_matches_loop(sl):
    # the text from the arrays is json's text of the dict built one
    # rounded number at a time
    want = oracles.layout_to_dict_by_loop(sl)
    assert layout_to_dict(sl) == want
    assert layout_json(sl) + "\n" == _dumps(want)


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_layout_matches_scalar_glue(name, g):
    _assert_matches_loop(*_reference_coords(name, g), g)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(FIXTURES)),
       g=st.sampled_from((EUCLIDEAN, HYPERBOLIC)),
       seed=st.integers(0, 2 ** 32 - 1), size=st.floats(0.0, 0.2),
       shorten=st.floats(0.0, 0.05))
def test_layout_matches_scalar_glue_off_reference(name, g, seed, size,
                                                  shorten):
    # coordinates moved off the reference point inside TE, and the fan
    # diagonals shortened: their angles leave pi, so develop or
    # merge_redundant mostly raises, as the scalar path does
    T, x = _reference_coords(name, g)
    a, b = oracles.unpack(T, x)
    diagonals = fan_diagonals(T)
    rng = random.Random(seed)
    x = oracles.pack(T, {e: v + rng.uniform(-size, size)
                         - (shorten if e in diagonals else 0.0)
                         for e, v in a.items()},
                     {k: v + rng.uniform(-size, size) for k, v in b.items()})
    assume(geo.in_te(T, x, g))
    _assert_matches_loop(T, x, g)


def test_merge_names_the_least_diagonal_off_pi(grid_torus):
    # two diagonals off pi: the message names the lesser in edge order
    T = triangulate(grid_torus)
    l, r = reference_pattern(T, EUCLIDEAN)
    x = psi_inv_surface(T, l, r, EUCLIDEAN)
    diags = fan_diagonals(T)
    for e in (diags[6], diags[1]):
        x[T.free_edges.index(e)] -= 0.02
    sl = develop(T, x, EUCLIDEAN)
    err = _outcome(merge_redundant, sl)[1]
    assert err == (NonRedundantDiagonal,
                   f"diagonal {diags[1]}: theta = "
                   f"{float(sl.th[T.edges.index(diags[1])])}")
    assert err == _outcome(oracles.merge_by_loop, sl)[1]


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("spec", (
    triangulated_torus_spec(24, v1=range(0, 576, 2)),
    grid_torus_spec(20, v1=range(0, 400, 2))), ids=("tri24", "grid20"))
def test_merge_places_as_loop_on_large_tori(tmp_path, spec, g):
    # and its documents are the loops': on tri24 in the disk, 2304 of the
    # 3456 chart edges are lines and the others arcs
    sl = reference_layout(build_complex(spec), g)
    merged = merge_redundant(sl)
    _assert_charts_match(merged, oracles.merge_by_loop(sl))
    _assert_documents_match_loop(tmp_path, merged)
    if g == HYPERBOLIC and len(merged.chart.z) == 3456:
        svg = (tmp_path / "out.svg").read_text()
        assert (svg.count(" L "), svg.count(" A ")) == (2304, 1152)


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
@pytest.mark.parametrize("seed", range(0, 24, 3))
def test_reference_diagonals_are_redundant_on_mixed_grids(tmp_path, seed, g):
    # quads and hexagons whose vertex classes differ around the face and
    # whose least vertex is not the first: every fan diagonal of the
    # reference pattern lies at pi, so the merge succeeds
    sl = reference_layout(build_complex(mixed_grid_spec(4 + seed % 5, seed)),
                          g)
    assert np.abs(sl.th[sl.T.eclass == 2] - math.pi).max() < 1e-9
    # the merged charts take more than one size, so the layout's charts
    # are rows of several kinds
    merged = merge_redundant(sl)
    assert len(set(np.diff(merged.chart.start).tolist())) > 1
    _assert_documents_match_loop(tmp_path, merged)


def _assert_documents_match_loop(tmp_path, sl):
    """The layout document and the SVG of sl are the loops' texts."""
    _assert_layout_document_matches_loop(sl)
    export_svg(sl, tmp_path / "out.svg")
    assert (tmp_path / "out.svg").read_text() == oracles.svg_by_loop(sl)


def test_diagonal_off_pi_raises_as_scalar(grid_torus):
    T = triangulate(grid_torus)
    l, r = reference_pattern(T, EUCLIDEAN)
    x = psi_inv_surface(T, l, r, EUCLIDEAN)
    x[T.free_edges.index(fan_diagonals(T)[3])] -= 0.02  # angle drops below pi
    sl = develop(T, x, EUCLIDEAN)
    _result, err = _outcome(merge_redundant, sl)
    assert err is not None and err[0] is NonRedundantDiagonal
    assert err == _outcome(oracles.merge_by_loop, sl)[1]


@pytest.mark.parametrize("g", (EUCLIDEAN, HYPERBOLIC))
def test_fan_circles_disagree_raises_as_scalar(grid_torus, g):
    # one fan triangle's kernel circle grown past the agreement tolerance,
    # with every diagonal still at pi
    sl = reference_layout(grid_torus, g)
    fan = np.flatnonzero(sl.T.face == 5)
    R = sl.placed.R.copy()
    R[fan[1]] *= 1.01
    sl = dataclasses.replace(sl, placed=sl.placed._replace(R=R))
    _result, err = _outcome(merge_redundant, sl)
    assert err == (NonRedundantDiagonal,
                   f"face {sl.T.base.faces[5]}: fan circles disagree")
    assert err == _outcome(oracles.merge_by_loop, sl)[1]
