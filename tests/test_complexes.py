import copy
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    fan_diagonals,
    flip_edges,
    flipped_tori,
    mixed_grid_spec,
    pinched_torus_spec,
    small_complexes,
    tetrahedron_spec,
)
from hicp import (
    CapExceeded,
    E0EndpointInV0,
    NotClosedSurface,
    RegularityViolation,
    build_complex,
    hat_complex,
    triangulate,
)
from hicp import complexes
from hicp.complexes import (
    MAX_CAP,
    admissible_domains,
    boundary_counts,
    domain_generator_sets,
    edge_key,
    make_domain,
    row_domain,
    stable_argsort,
    unique_index,
)
from hicp.errors import DomainError, HicpError
from hicp.fixtures import (
    FIXTURES,
    dodecahedron_spec,
    fixture_spec,
    grid_torus_spec,
    triangulated_torus_spec,
)


def test_edge_key_sorts():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


class TestBuildComplex:
    def test_grid_torus_counts(self, grid_torus):
        cc = grid_torus
        assert len(cc.vertices) == 9
        assert len(cc.edges) == 18
        assert len(cc.faces) == 9
        assert cc.chi == 0
        assert (2 - cc.chi) // 2 == 1

    def test_genus2_counts(self, genus2):
        assert (len(genus2.vertices), len(genus2.edges),
                len(genus2.faces)) == (15, 51, 34)
        assert genus2.chi == -2
        assert (2 - genus2.chi) // 2 == 2

    def test_dodecahedron_counts(self, dodecahedron):
        assert (len(dodecahedron.vertices), len(dodecahedron.edges),
                len(dodecahedron.faces)) == (20, 30, 12)
        assert dodecahedron.chi == 2

    def test_orientation_consistent(self, genus2):
        # every edge is traversed once in each direction
        seen = {}
        for f in genus2.faces:
            n = len(f)
            for t in range(n):
                d = (f[t], f[(t + 1) % n])
                assert d not in seen
                seen[d] = True
        assert len(seen) == 2 * len(genus2.edges)

    def test_vertex_classes(self, genus2_mixed):
        assert genus2_mixed.v1 == frozenset({2, 5, 7, 11, 14})
        assert oracles.vertex_class(genus2_mixed, 2) == 1
        assert oracles.vertex_class(genus2_mixed, 0) == 0

    def test_e0_requires_disk_endpoints(self):
        spec = grid_torus_spec(3, v1=(0,), e0=[(0, 1)])
        with pytest.raises(E0EndpointInV0):
            build_complex(spec)

    def test_open_surface_rejected(self):
        spec = {"vertices": [{"id": i, "circle": "point"} for i in range(4)],
                "faces": [[0, 1, 2], [0, 2, 3]]}
        with pytest.raises(NotClosedSurface):
            build_complex(spec)

    def test_sphere_from_tetrahedron(self):
        cc = build_complex(tetrahedron_spec())
        assert cc.chi == 2
        assert cc.v1 == frozenset(range(4))

    def test_parallel_edges_rejected(self):
        # two triangles glued along two of their edges
        spec = {"vertices": [{"id": i, "circle": "point"} for i in range(3)],
                "faces": [[0, 1, 2], [2, 1, 0]]}
        with pytest.raises(RegularityViolation):
            build_complex(spec)

    @pytest.mark.parametrize("old, message", [
        (7, "faces (0, 1, 6, 5) and (1, 2, 0, 6) share an edge and 3 "
            "vertices"),
        (12, "faces (0, 1, 6, 5) and (6, 7, 0, 11) share 2 vertices but no "
             "edge"),
    ])
    def test_irregular_face_pairs_rejected(self, old, message):
        # the 5x5 grid torus with vertex `old` renamed 0
        spec = grid_torus_spec(5)
        spec["vertices"] = [v for v in spec["vertices"] if v["id"] != old]
        spec["faces"] = [[0 if v == old else v for v in f]
                         for f in spec["faces"]]
        with pytest.raises(RegularityViolation, match=re.escape(message)):
            build_complex(spec)

    def test_pinched_vertex_rejected(self):
        # the 6 x 6 triangulated torus with vertex 21 renamed 0 and 18
        # renamed 3: every edge still has two sides and every face pair
        # meets regularly, but the faces at 0 form two cycles of 6
        spec = pinched_torus_spec()
        with pytest.raises(RegularityViolation, match=re.escape(
                "vertex 0 is pinched: its faces form 2 cycles")):
            build_complex(spec)
        assert _by_loop(spec) == _built(spec)

    def test_vertex_on_no_face_rejected(self):
        # two vertices on no face leave the Euler characteristic at 2
        spec = triangulated_torus_spec(3)
        spec["vertices"] += [{"id": 100}, {"id": 101}]
        with pytest.raises(RegularityViolation,
                           match="vertex 100 lies on no face"):
            build_complex(spec)
        assert _by_loop(spec) == _built(spec)


def _built(spec):
    """Every array and view of build_complex's complex
    (``oracles.complex_views``), or the type and message of its error."""
    try:
        return oracles.complex_views(build_complex(spec))
    except HicpError as exc:
        return type(exc), str(exc)


def _by_loop(spec):
    try:
        return oracles.complex_views(oracles.build_complex_by_loop(spec))
    except HicpError as exc:
        return type(exc), str(exc)


MUTATIONS = ("rename", "rename-all", "duplicate", "drop", "reverse",
             "non-int", "bool")


@st.composite
def mutated_spec(draw):
    """A fixture spec with one to three of: a vertex renamed in one face
    or everywhere, a face duplicated, dropped or reversed, or an id
    replaced by a non-int or a bool."""
    spec = copy.deepcopy(fixture_spec(draw(st.sampled_from(sorted(
        FIXTURES)))))
    faces = spec["faces"]
    ids = [v["id"] for v in spec["vertices"]]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(MUTATIONS))
        fi = draw(st.integers(0, len(faces) - 1))
        k = draw(st.integers(0, len(faces[fi]) - 1))
        if kind == "rename":
            faces[fi][k] = draw(st.sampled_from(ids + [max(ids) + 1]))
        elif kind == "rename-all":
            old, new = faces[fi][k], draw(st.sampled_from(ids))
            spec["faces"] = faces = [[new if v == old else v for v in f]
                                     for f in faces]
        elif kind == "duplicate":
            faces.insert(draw(st.integers(0, len(faces))), list(faces[fi]))
        elif kind == "drop" and len(faces) > 1:
            del faces[fi]
        elif kind == "reverse":
            faces[fi] = faces[fi][::-1]
        elif kind == "non-int":
            faces[fi][k] = draw(st.sampled_from([1.0, "3", None, [1]]))
        elif kind == "bool":
            where = draw(st.sampled_from(["face", "vertex"]))
            if where == "face":
                faces[fi][k] = draw(st.booleans())
            else:
                spec["vertices"][k]["id"] = draw(st.booleans())
    return spec


@settings(max_examples=300, deadline=None)
@given(spec=mutated_spec())
def test_build_complex_matches_loop_on_mutated_specs(spec):
    # the same complex, or the same first violation and message
    assert _built(spec) == _by_loop(spec)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_build_complex_matches_loop(name):
    got = _built(fixture_spec(name))
    assert isinstance(got, dict)
    assert got == _by_loop(fixture_spec(name))


def test_non_orientable_gluing_matches_loop():
    # the 3 x 3 square grid with one pair of sides glued with a twist: a
    # Klein bottle, every edge with two sides
    n = 3

    def vid(i, j):
        return (i % n) * n + j % n if i < n else -j % n

    faces = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for i in range(n) for j in range(n)]
    spec = {"vertices": [{"id": k} for k in range(n * n)], "faces": faces}
    got = _built(spec)
    assert got[0] is NotClosedSurface
    assert got[1].startswith("non-orientable gluing along edge")
    assert got == _by_loop(spec)


@pytest.mark.parametrize("tangent", [
    [[0, 1]], [[1, 0], [0, 1], [3, 0]], [[0, 4]], [[0, 99]], [[2, 2]],
    [[3, 4]], [[5, 4]], [[4, 1]], [[3, 4], [0, 4]], [[0, 4], [3, 4]],
    [[0, 1], [2 ** 70, 1]], [[-1, 0]],
], ids=str)
def test_tangent_edges_match_loop(tangent):
    # 0-1 and 0-3 are edges between disks, 0-4 is no edge, and 4 and 5
    # are points: the first pair that is no edge of the complex, or
    # holds a point at either end, in input order
    spec = grid_torus_spec(3, v1=(0, 1, 2, 3), e0=tangent)
    assert _built(spec) == _by_loop(spec)


@pytest.mark.parametrize("spec", [
    {"vertices": [], "faces": []},
    {"vertices": [{"id": i} for i in range(4)],
     "faces": [[0, 1, 2, 3], [3, 2, 1, 0]]},
    {"vertices": [{"id": v} for v in (*range(9), *range(100, 109))],
     "faces": grid_torus_spec(3)["faces"]
     + [[v + 100 for v in f] for f in grid_torus_spec(3)["faces"]]},
], ids=["empty", "two-quads", "two-tori"])
def test_whole_complex_faults_match_loop(spec):
    assert isinstance(_built(spec), tuple)
    assert _built(spec) == _by_loop(spec)


class TestFanTriangles:
    def test_quad(self):
        tris, diags = oracles.fan_triangles((4, 7, 2, 9))
        assert diags == [(2, 4)]
        assert [t for t in tris] == [(2, 9, 4), (2, 4, 7)]

    def test_hexagon(self):
        tris, diags = oracles.fan_triangles((0, 1, 2, 3, 4, 5))
        assert len(tris) == 4
        assert len(diags) == 3
        assert all(0 in t for t in tris)

    def test_triangle_passthrough(self):
        tris, diags = oracles.fan_triangles((5, 2, 8))
        assert diags == []
        assert len(tris) == 1


class TestTriangulate:
    def test_grid_torus(self, grid_torus):
        T = triangulate(grid_torus)
        assert len(T.face) == 18
        assert len(fan_diagonals(T)) == 9
        assert len(T.edges) == 27
        for e in T.edges:
            assert len(oracles.edge_triangles(T)[e]) == 2

    def test_edge_classes(self, e0_torus):
        T = triangulate(e0_torus)
        eclass = dict(zip(T.edges, T.eclass.tolist()))
        for e in e0_torus.e0:
            assert eclass[e] == 0
        assert set(T.free_edges) == set(fan_diagonals(T))

    def test_triangulated_input_is_unchanged(self, tri_torus):
        T = triangulate(tri_torus)
        assert fan_diagonals(T) == []
        assert len(T.face) == len(tri_torus.faces)


def _relabeled(spec, ids):
    """spec with each vertex v renamed ids[v]."""
    return {"vertices": [dict(item, id=ids[item["id"]])
                         for item in spec["vertices"]],
            "faces": [[ids[v] for v in f] for f in spec["faces"]],
            "tangent_edges": [[ids[u], ids[v]]
                              for u, v in spec.get("tangent_edges", [])]}


def _unchecked_complex(faces):
    """A CellComplex of faces that build_complex would reject: its edges
    are the face sides, with nothing else checked."""
    return oracles.cell_complex({v for f in faces for v in f}, (),
                                list(map(tuple, faces)))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except HicpError as exc:
        return None, (type(exc), str(exc))


def _assert_triangulates_as_loop(cc):
    """triangulate(cc) gives the triangles, faces, edges, diagonals and
    every array field of the loop triangulation, or its error."""
    T, err = _outcome(triangulate, cc)
    ref, ref_err = _outcome(oracles.triangulate_by_loop, cc)
    assert err == ref_err
    if err:
        return
    ids = cc.vertices
    assert [tuple(ids[m] for m in row) for row in T.vert.tolist()] == [
        tri.verts for tri in ref.triangles]
    assert T.face.tolist() == [tri.face for tri in ref.triangles]
    assert T.edges == ref.edges
    assert set(fan_diagonals(T)) == ref.e_pi
    assert T.free_edges == ref.free_edges
    assert T.free_edges is T.free_edges and T.v1_vertices is T.v1_vertices
    for key, want in oracles.tri_index_by_loop(T).items():
        got = getattr(T, key)
        if key == "n_free":
            assert got == want
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), key


def _assert_spec_triangulates_as_loop(spec):
    cc = build_complex(spec)
    assert oracles.complex_views(cc) == oracles.complex_views(
        oracles.build_complex_by_loop(spec))
    _assert_triangulates_as_loop(cc)


@pytest.mark.parametrize("spec", [
    *(pytest.param(fixture_spec(name), id=name) for name in sorted(FIXTURES)),
    *(pytest.param(build(n, v1=range(0, n * n, 3)), id=f"{build.__name__}{n}")
      for build in (grid_torus_spec, triangulated_torus_spec)
      for n in range(3, 25)),
])
def test_triangulate_matches_loop(spec):
    _assert_spec_triangulates_as_loop(spec)


@pytest.mark.parametrize("name", ("genus2-mixed", "dodecahedron", "e0-torus",
                                  "grid-torus"))
@pytest.mark.parametrize("kind", ("permuted", "sparse", "negative", "huge",
                                  "reoriented"))
def test_triangulate_matches_loop_relabeled(name, kind):
    # ids renamed (some beyond int64 under "huge"), or every other face
    # given in the opposite orientation, which build_complex turns back
    spec = fixture_spec(name)
    ids = [item["id"] for item in spec["vertices"]]
    rng = random.Random(f"{name}-{kind}")
    new = {"permuted": lambda: rng.sample(ids, len(ids)),
           "sparse": lambda: rng.sample(range(10 ** 6), len(ids)),
           "negative": lambda: rng.sample(range(-500, 500), len(ids)),
           "huge": lambda: [(k % 2 * 2 - 1) * 2 ** 64 + k for k in
                            rng.sample(range(-500, 500), len(ids))],
           "reoriented": lambda: ids}[kind]()
    spec = _relabeled(spec, dict(zip(ids, new)))
    if kind == "reoriented":
        spec["faces"][1::2] = [f[::-1] for f in spec["faces"][1::2]]
    _assert_spec_triangulates_as_loop(spec)


@pytest.mark.parametrize("seed", range(24))
def test_triangulate_matches_loop_on_mixed_grids(seed):
    spec = mixed_grid_spec(4 + seed % 5, seed)
    assert any(len(f) == 6 for f in spec["faces"]) or seed % 5 == 0
    _assert_spec_triangulates_as_loop(spec)


@pytest.mark.parametrize("faces", [
    [[0, 1, 2, 3]],
    [[0, 1, 2, 3], [0, 2, 4]],
    [[0, 1, 2, 3], [0, 3, 2, 1]],
], ids=["open-quad", "diagonal-is-a-side", "diagonal-twice"])
def test_triangulate_faults_match_loop(faces):
    # triangulate's own checks fire only on a complex that build_complex
    # rejects: a diagonal that is a side or another face's diagonal
    # makes two faces share two vertices without their edge
    cc = _unchecked_complex(faces)
    err = _outcome(triangulate, cc)[1]
    assert err is not None and err[0] is RegularityViolation
    _assert_triangulates_as_loop(cc)


class TestHatComplex:
    def test_cell_counts(self, grid_torus):
        ref = oracles.hat_reference(grid_torus)
        # vertices: base + one center per face; edges: one dual per edge
        # plus one corner edge per face corner; triangles: one per side
        # of each base edge
        assert len(ref.vertices) == 9 + 9
        assert len(ref.edges) == 18 + 36
        assert len(ref.hat_faces) == 36

    def test_star_sizes(self, grid_torus):
        h = hat_complex(grid_torus)
        d = oracles.open_star(h, ("v", 0))
        # a degree-4 base vertex: its 4 corner edges and 4 triangles
        # (dual edges touch face centers only)
        assert d.vmask.bit_count() == 1
        assert d.emask.bit_count() == 4
        assert d.fmask.bit_count() == 4
        df = oracles.open_star(h, ("f", 0))
        # a quad face center: 4 corner edges + 4 duals, 8 triangles
        assert df.emask.bit_count() == 8
        assert df.fmask.bit_count() == 8

    @pytest.mark.parametrize("name", sorted(FIXTURES) + ["grid6", "tri6"])
    def test_cells_match_the_long_way(self, name):
        spec = {"grid6": lambda: grid_torus_spec(6),
                "tri6": lambda: triangulated_torus_spec(6)}.get(
                    name, lambda: fixture_spec(name))()
        _assert_hat_matches_the_long_way(build_complex(spec))

    def test_memory_stays_near_the_rows(self):
        # the incidences are scattered into the rows: no dense (hat vertex
        # x cell) or (hat vertex x hat vertex) array on the way
        cc = build_complex(triangulated_torus_spec(24))
        tracemalloc.start()
        try:
            h = hat_complex(cc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.star_rows.shape == (1728, 1296)
        assert peak <= 2 * h.star_rows.nbytes


def _assert_hat_matches_the_long_way(cc):
    """hat_complex's arrays against the hat complex built by loops
    (``oracles.hat_reference``): the star rows, the ends of each hat
    edge, which join each pair of overlapping stars once, and the
    names.  And the reference's stars, link masks and overlap graph,
    read off the incidences, against a scan of the cells per hat vertex,
    a scan of every face per vertex cycle and a test of every pair of
    stars."""
    h, ref = hat_complex(cc), oracles.hat_reference(cc)
    assert ref.stars == {hv: oracles.star_cells(ref, hv)
                         for hv in ref.vertices}
    assert ref.link_masks == _link_masks_by_scan(ref)
    assert ref.overlap == oracles.overlap_by_pairs(ref)
    assert np.array_equal(h.star_rows, oracles.cell_rows(
        ref, [ref.stars[hv] for hv in ref.vertices]))
    ends = [tuple(map(ref.vertices.__getitem__, pair))
            for pair in h.edge_ends.tolist()]
    assert ends == [
        tuple(("f", f) for f in oracles.edge_faces(cc)[x]) if kind == "dual"
        else (("v", x[0]), ("f", x[1])) for kind, x in ref.edges]
    overlap = {hv: set() for hv in ref.vertices}
    for a, b in ends:
        overlap[a].add(b)
        overlap[b].add(a)
    assert overlap == ref.overlap
    assert 2 * len(ends) == sum(map(len, ref.overlap.values()))
    assert (h.vertices, h.vindex) == (ref.vertices, ref.vindex)
    assert h.eindex.items() <= ref.eindex.items()


def _link_masks_by_scan(h):
    """(emask, fmask) of each cyclic link of ``oracles.links_by_scan``."""
    return {hv: tuple(sum(1 << i for kind, i in cycle if kind == k)
                      for k in "et")
            for hv, cycle in oracles.links_by_scan(h).items()}


def test_flip_edges_changes_the_degrees():
    # the flips of the strategy below do happen: 12 drawn flips of the
    # 4 x 4 torus, on which every vertex has degree 6, leave a complex
    # with other degrees that build_complex accepts
    rng = random.Random(0)
    faces = flip_edges(triangulated_torus_spec(4)["faces"], [
        (rng.randrange(32), rng.randrange(3)) for _ in range(12)])
    cc = build_complex({"vertices": [{"id": i} for i in range(16)],
                        "faces": faces})
    degrees = [sum(v in e for e in cc.edges) for v in cc.vertices]
    assert cc.chi == 0 and min(degrees) >= 3 and set(degrees) != {6}


@settings(max_examples=100, deadline=None)
@given(spec=flipped_tori())
def test_hat_cells_match_the_long_way_on_flipped_tori(spec):
    cc = build_complex(spec)
    assert cc.chi == 0
    _assert_hat_matches_the_long_way(cc)


class TestDomains:
    def test_open_star_euler(self, grid_torus):
        h = hat_complex(grid_torus)
        assert oracles.euler_char(oracles.open_star(h, ("v", 3))) == 1
        assert oracles.euler_char(oracles.open_star(h, ("f", 2))) == 1

    def test_open_star_detection(self, grid_torus):
        h = hat_complex(grid_torus)
        d = oracles.open_star(h, ("v", 5))
        assert d.is_open_star_of() == ("v", 5)
        d2 = make_domain(h, [("v", 5), ("f", 0)])
        assert d2.is_open_star_of() is None

    def test_tetrahedron_enumeration(self):
        h = hat_complex(build_complex(tetrahedron_spec()))
        ds = admissible_domains(h, require_exhaustive=True)
        assert len(ds) == 196  # pinned: exhaustive run over 2^8 subsets
        assert not domain_generator_sets(h, require_exhaustive=True)[1]
        # all vertices are disk vertices, so every domain is strict
        assert len(admissible_domains(h, strict=True,
                                      require_exhaustive=True)) == 196

    def test_grid_torus_strict_count(self, grid_torus):
        h = hat_complex(grid_torus)
        ds = admissible_domains(h, strict=True, require_exhaustive=True)
        assert len(ds) == 519  # pinned: exhaustive enumeration
        for d in ds:
            d = oracles.masked(h, d)
            assert oracles.is_strict(d)
            assert not oracles.is_whole_surface(d)
            assert oracles.meets_base_vertices(d)

    @pytest.mark.parametrize("strict", [False, True])
    def test_builds_a_domain_only_for_a_kept_set(self, grid_torus,
                                                 monkeypatch, strict):
        built = []
        real = complexes.Domain

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(complexes, "Domain", counting)
        ds = admissible_domains(hat_complex(grid_torus), strict=strict,
                                require_exhaustive=True)
        assert len(built) == len(ds) == (519 if strict else 199131)

    def test_cap(self, genus2):
        h = hat_complex(genus2)
        with pytest.raises(CapExceeded):
            admissible_domains(h, cap=10, require_exhaustive=True)
        ds = admissible_domains(h, cap=10)
        assert domain_generator_sets(h, cap=10)[1]
        assert len(ds) > 0


class TestGeneratorSets:
    """domain_generator_sets builds only nonempty generator sets that are
    connected in the star-overlap graph, each as the row of its union of
    stars, whose vertex bits are the generators; admissible_domains
    relies on both and tests neither again."""

    @staticmethod
    def _check(h, strict, cap=22):
        rows, _partial = domain_generator_sets(h, strict, cap)
        assert len(rows)
        for row in rows:
            d = row_domain(h, row)
            assert oracles.generators_connected(h, d.generators)
            star = make_domain(h, d.generators)
            assert d.row.tobytes() == star.row.tobytes()

    @pytest.mark.parametrize("strict_prune", [False, True])
    def test_tetrahedron(self, strict_prune):
        self._check(hat_complex(build_complex(tetrahedron_spec())),
                    strict_prune)

    def test_grid_torus_strict_prune(self, grid_torus):
        self._check(hat_complex(grid_torus), True)

    def test_small_sets(self, genus2):
        self._check(hat_complex(genus2), False)


def _row_set(h, rows):
    """{(generators, cell row)} of rows of generator sets, as
    ``oracles.generator_sets_by_dfs`` gives them: a row's generators are
    its vertex bits."""
    vertex_bits = (1 << len(h.vertices)) - 1
    return {(int.from_bytes(row, "little") & vertex_bits, row)
            for row in oracles.row_bytes(rows)}


def _array_sets(h, strict, cap=22):
    return _row_set(h, domain_generator_sets(h, strict, cap)[0])


# The non-strict generator sets depend on the faces alone, and these two
# fixtures have grid-torus's faces; every vertex of theirs is a disk, so
# their strict sets are all 199 131 of them.
ALL_DISKS = ("grid-torus-v1", "e0-torus")


class TestArrayEnumerator:
    """domain_generator_sets against the depth-first enumerator that tests
    each candidate (``oracles.generator_sets_by_dfs``): the same generator
    sets with the same cell rows, strict and not; and the strict sets
    are the non-strict ones that ``oracles.is_strict`` keeps."""

    @pytest.mark.parametrize("name, strict", [
        (name, strict) for name in sorted(FIXTURES) for strict in (False, True)
        if strict or name not in ALL_DISKS])
    def test_fixture(self, name, strict):
        h = hat_complex(build_complex(fixture_spec(name)))
        got = _array_sets(h, strict)
        assert len(got) == len(domain_generator_sets(h, strict)[0])
        assert got == oracles.generator_sets_by_dfs(h, strict)

    @pytest.mark.parametrize("name", [name for name in sorted(FIXTURES)
                                      if name not in ALL_DISKS])
    def test_strict_is_filtered(self, name):
        h = hat_complex(build_complex(fixture_spec(name)))
        rows, _partial = domain_generator_sets(h, False)
        strict = [oracles.is_strict(oracles.masked(h, row_domain(h, row)))
                  for row in rows]
        assert _array_sets(h, True) == _row_set(h, rows[strict])

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(), st.sampled_from([22, 3]))
    def test_drawn(self, cc, cap):
        # the non-strict sets do not depend on the drawn V1 and E0 sets,
        # and on the grid they are the 199 131 of the fixture tests
        h = hat_complex(cc)
        for strict in (True, False) if len(h.vertices) < 18 else (True,):
            assert (_array_sets(h, strict, cap)
                    == oracles.generator_sets_by_dfs(h, strict, cap))

    def test_cap_above_the_mask_width(self, grid_torus):
        h = hat_complex(grid_torus)
        assert len(domain_generator_sets(h, True, cap=MAX_CAP)[0]) == 519
        with pytest.raises(CapExceeded, match="cap 63 exceeds 62"):
            domain_generator_sets(h, True, cap=MAX_CAP + 1)
        with pytest.raises(CapExceeded):
            admissible_domains(h, cap=MAX_CAP + 1)

    def test_budget_stops_before_a_group(self, grid_torus, monkeypatch):
        # the largest group of the 18 hat vertices holds 117 sets of 14
        # generators: 2106 (set, hat vertex) pairs to expand
        h = hat_complex(grid_torus)
        monkeypatch.setattr(complexes, "ENUM_BUDGET", 2105)
        with pytest.raises(CapExceeded, match=r"^18 hat vertices \(cap 22\):"
                           r" 117 sets of 14 generators exceed the budget"
                           r" of 2105 "):
            domain_generator_sets(h, True)
        monkeypatch.setattr(complexes, "ENUM_BUDGET", 2106)
        assert len(domain_generator_sets(h, True)[0]) == 519


class TestMaskTables:
    """The enumeration's per-byte OR tables, built by doubling, and its
    generator counts, by ``np.bitwise_count``, against plain-Python
    references; and its rows, in order, against those it builds from the
    earlier ``np.where`` table."""

    WIDTHS = [1, 3, 8, 13, 24, 41, 62]

    @pytest.mark.parametrize("n", WIDTHS)
    def test_or_table_of_masks(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, 1 << 62, n, dtype=np.int64)
        table = complexes.byte_table(values, np.bitwise_or)
        assert table.shape == (-(-n // 8), 256)
        assert table.dtype == np.int64
        assert np.array_equal(table, oracles.or_table_by_bits(values))

    @pytest.mark.parametrize("n", WIDTHS)
    def test_or_table_of_star_rows(self, n):
        rng = np.random.default_rng(100 + n)
        values = rng.integers(0, 256, (n, 5), dtype=np.uint8)
        table = complexes.byte_table(values, np.bitwise_or)
        assert table.shape == (-(-n // 8), 256, 5)
        assert table.dtype == np.uint8
        assert np.array_equal(table, oracles.or_table_by_bits(values))

    @pytest.mark.parametrize("n", WIDTHS)
    def test_bit_count_of_masks(self, n):
        rng = np.random.default_rng(200 + n)
        masks = rng.integers(0, 1 << n, 1000, dtype=np.int64)
        assert (np.bitwise_count(masks).tolist()
                == [m.bit_count() for m in masks.tolist()])

    @pytest.mark.parametrize("name, strict", [
        (name, strict) for name in sorted(FIXTURES) for strict in (False, True)])
    def test_rows_keep_their_order(self, name, strict, monkeypatch):
        # every fixture, at the widest cap: the rows of the sets within
        # the budget, the same CapExceeded past it
        h = hat_complex(build_complex(fixture_spec(name)))

        def run():
            try:
                return domain_generator_sets(h, strict, MAX_CAP)[0]
            except CapExceeded as e:
                return str(e)

        got = run()
        monkeypatch.setattr(complexes, "byte_table",
                            lambda v, op: oracles.or_table_by_where(v))
        want = run()
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestBoundaryTouches:
    """The mask test agrees with the link-walk definition at every hat
    vertex."""

    def _check(self, h, domains):
        links = oracles.links_by_scan(h)
        for d in domains:
            d = oracles.masked(h, d)
            for hv in h.vertices:
                assert (oracles.boundary_touches(d, hv)
                        == oracles.boundary_touches_by_link(d, hv, links)), (
                    sorted(d.generators), hv)

    def test_tetrahedron_enumeration(self):
        h = hat_complex(build_complex(tetrahedron_spec(v1=[0, 1])))
        ds = admissible_domains(h, require_exhaustive=True)
        assert len(ds) > 0
        self._check(h, ds)

    def test_grid_torus_sets(self, grid_torus):
        h = hat_complex(grid_torus)
        self._check(h, [make_domain(h, gens) for gens in (
            [("v", 0)], [("f", 1)], [("v", 0), ("f", 0)],
            [("v", 0), ("v", 1), ("f", 0)])])


def _boundary_matches_walk(h, d, links):
    cc = h.base
    ref = oracles.hat_reference(cc)
    e0_duals = {ref.eindex[("dual", e)] for e in cc.e0}
    mult, n_v, n_e0 = boundary_counts(h, d, e0_duals)
    tr = oracles.boundary(h, oracles.masked(h, d), links)
    walk_mult = {}
    for ei, m in tr.edge_multiplicities().items():
        kind, e = ref.edges[ei]
        if kind == "dual":
            walk_mult[e] = walk_mult.get(e, 0) + m
    assert mult == walk_mult, sorted(d.generators)
    assert n_v == tr.count_base_vertices(), sorted(d.generators)
    assert n_e0 == sum(m for e, m in walk_mult.items() if e in cc.e0)
    return sum(p[0] == "v" for p in tr.punctures)


class TestAgainstSubsetOracle:
    """admissible_domains against every subset of hat vertices
    (``oracles.admissible_by_subsets``): the same domains with the same
    masks in the same order, strict and not; and on the domains found,
    boundary_counts against the walk-based boundary(), some of them
    punctured."""

    @staticmethod
    def _check(h, walk_every=1):
        rows = oracles.admissible_by_subsets(h)
        links = oracles.links_by_scan(h)
        punctured = 0
        for strict in (False, True):
            want = [row[:4] for row in rows if row[4] or not strict]
            ds = admissible_domains(h, strict=strict, require_exhaustive=True)
            assert [(sorted(m.generators), m.vmask, m.emask, m.fmask)
                    for m in (oracles.masked(h, d) for d in ds)] == want
            for d in list(ds)[::1 if strict else walk_every]:
                punctured += _boundary_matches_walk(h, d, links) > 0
        assert punctured

    @pytest.mark.parametrize("v1", [
        v1 for n in range(5) for v1 in itertools.combinations(range(4), n)])
    def test_tetrahedron(self, v1):
        self._check(hat_complex(build_complex(tetrahedron_spec(v1=v1))))

    @pytest.mark.slow
    @pytest.mark.parametrize("e0", [(), ((0, 1), (1, 4))])
    def test_grid_torus(self, e0):
        # every strict domain is walked, and every 40th of the 199 131
        # non-strict ones
        spec = grid_torus_spec(3, v1=(0, 1, 4), e0=e0)
        self._check(hat_complex(build_complex(spec)), walk_every=40)


class TestPunctures:
    """complexes.punctures against a loop over each row's base vertices:
    one is a puncture when it is outside the row and the rest of its
    open star, its link, is inside."""

    def test_tetrahedron_rows(self):
        h = hat_complex(build_complex(tetrahedron_spec(v1=[0, 1])))
        rows, _partial = domain_generator_sets(h)
        stars = [oracles.star_cells(h, ("v", k)) for k in h.base.vertices]
        want = []
        for row in rows:
            d = oracles.masked(h, row_domain(h, row))
            want.append(sum(not d.vmask & v and d.emask & e == e
                            and d.fmask & f == f for v, e, f in stars))
        assert complexes.punctures(h, rows).tolist() == want
        assert max(want) > 0


@pytest.mark.slow
def test_grid_torus_full_enumeration(grid_torus):
    h = hat_complex(grid_torus)
    ds = admissible_domains(h, require_exhaustive=True)
    assert len(ds) == 199131  # pinned: exhaustive enumeration


class TestBoundary:
    def test_open_star_boundary_closed(self, grid_torus):
        h = hat_complex(grid_torus)
        d = oracles.open_star(h, ("v", 4))
        tr = oracles.boundary(h, d, oracles.links_by_scan(h))
        assert len(tr.walks) == 1
        assert tr.punctures == ()
        walk = tr.walks[0]
        assert walk[0][1] == walk[-1][2]  # closed
        # alternating face centers and nothing else: no base vertices
        assert tr.count_base_vertices() == 0

    def test_face_star_boundary_hits_vertices(self, grid_torus):
        h = hat_complex(grid_torus)
        d = oracles.open_star(h, ("f", 3))
        tr = oracles.boundary(h, d, oracles.links_by_scan(h))
        assert tr.count_base_vertices() == 4

    def test_counts_match_trace(self, grid_torus):
        h = hat_complex(grid_torus)
        links = oracles.links_by_scan(h)
        for gens in ([("v", 0)], [("f", 1)], [("v", 0), ("f", 0)],
                     [("v", 0), ("v", 1), ("f", 0)]):
            _boundary_matches_walk(h, make_domain(h, gens), links)

    def test_puncture(self, grid_torus):
        h = hat_complex(grid_torus)
        # all four faces and the four neighbors around vertex 4, but not
        # vertex 4 itself: its link is inside, leaving a puncture
        gens = [("f", fi) for fi in range(len(grid_torus.faces))]
        gens += [("v", v) for v in grid_torus.vertices if v != 4]
        d = oracles.masked(h, make_domain(h, gens))
        tr = oracles.boundary(h, d, oracles.links_by_scan(h))
        assert ("v", 4) in tr.punctures


def test_unknown_fixture():
    with pytest.raises(DomainError):
        fixture_spec("nope")


def test_all_fixtures_build():
    from hicp.fixtures import FIXTURES
    for name in FIXTURES:
        cc = build_complex(fixture_spec(name))
        assert cc.chi % 2 == 0


# ---------------------------------------------------------------------------
# The stable sort by one default-kind sort


def _n_keys(n):
    """Lists of n keys from both sides of the int64 guard: key * n +
    position fits below 2^63 for every key up to 2^63 // n - 1."""
    edge = 2 ** 63 // n
    return st.lists(st.sampled_from([0, 1, edge - 1, min(edge, 2 ** 63 - 1)])
                    | st.integers(0, 2 ** 63 - 1), min_size=n, max_size=n)


def _assert_sorts_as_numpy(keys):
    k = np.array(keys, np.int64)
    assert stable_argsort(k).tolist() == np.argsort(k, kind="stable").tolist()
    for got, want in zip(unique_index(k), np.unique(
            k, return_index=True, return_inverse=True, return_counts=True)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("keys", [
    [], [5], [3] * 7, list(range(20, 0, -1)),
    [2 ** 61 - 1, 0, 2 ** 61 - 1, 3],  # 4 keys: the largest fast code
    [2 ** 61, 0, 2 ** 61, 3]])  # past the guard: the stable argsort
def test_stable_argsort_and_unique_index_are_numpys(keys):
    _assert_sorts_as_numpy(keys)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.integers(0, 30), max_size=60)
       | st.integers(1, 40).flatmap(_n_keys))
def test_stable_argsort_and_unique_index_are_numpys_drawn(keys):
    _assert_sorts_as_numpy(keys)
