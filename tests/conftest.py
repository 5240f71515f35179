import math
import random

import pytest
from hypothesis import strategies as st

from hicp import build_complex, triangulate
from hicp.complexes import edge_key
from hicp.fixtures import (
    fixture_spec,
    grid_torus_spec,
    triangulated_torus_spec,
)
from hicp.polytope import make_angle_data


def tetrahedron_spec(v1=None):
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
    ids = [0, 1, 2, 3]
    if v1 is None:
        v1 = ids
    verts = [{"id": i, "circle": "disk" if i in set(v1) else "point"}
             for i in ids]
    return {"vertices": verts, "faces": faces}


@pytest.fixture(scope="session")
def grid_torus():
    return build_complex(fixture_spec("grid-torus"))


@pytest.fixture(scope="session")
def tri_torus():
    return build_complex(fixture_spec("tri-torus"))


@pytest.fixture(scope="session")
def tri_torus_v1():
    return build_complex(fixture_spec("tri-torus-v1"))


@pytest.fixture(scope="session")
def genus2():
    return build_complex(fixture_spec("genus2"))


@pytest.fixture(scope="session")
def genus2_mixed():
    return build_complex(fixture_spec("genus2-mixed"))


@pytest.fixture(scope="session")
def dodecahedron():
    return build_complex(fixture_spec("dodecahedron"))


@pytest.fixture(scope="session")
def e0_torus():
    return build_complex(fixture_spec("e0-torus"))


@pytest.fixture(scope="session")
def grid_torus_T(grid_torus):
    return triangulate(grid_torus)


def fan_diagonals(T):
    """The fan diagonals of T (its edges of class 2), sorted."""
    return [e for e, c in zip(T.edges, T.eclass.tolist()) if c == 2]


def right_angle_target(cc, geometry="euclidean"):
    """theta = pi/2 on every free edge, Theta = 2 pi on every positive
    vertex."""
    return make_angle_data(
        cc, geometry,
        {e: math.pi / 2 for e in cc.e1},
        {k: 2 * math.pi for k in cc.v1})


def mixed_grid_spec(n, seed):
    """The n x n grid torus with random quads split along either
    diagonal, and on even rows random pairs of side-by-side quads made
    one hexagon; random disk vertices."""
    rng = random.Random(seed)

    def v(r, c):
        return (r % n) * n + c % n

    faces = []
    for r in range(n):
        c = 0
        while c < n:
            p, q, s, t = v(r, c), v(r, c + 1), v(r + 1, c + 1), v(r + 1, c)
            roll = rng.random()
            if roll < 0.3 and r % 2 == 0 and r < n - 1 and c + 2 < n:
                faces.append([p, q, v(r, c + 2), v(r + 1, c + 2), s, t])
                c += 1
            elif roll < 0.5:
                faces += [[p, q, s], [p, s, t]]
            elif roll < 0.7:
                faces += [[q, s, t], [t, p, q]]
            else:
                faces.append([p, q, s, t])
            c += 1
    return {"vertices": [{"id": i, "circle": rng.choice(["disk", "point"])}
                         for i in range(n * n)], "faces": faces}


def _spec(faces, v1, e0=()):
    ids = sorted({i for f in faces for i in f})
    return {"vertices": [{"id": i, "circle": "disk" if i in v1 else "point"}
                         for i in ids],
            "faces": faces, "tangent_edges": [list(e) for e in e0]}


SMALL_COMPLEXES = {
    "tetrahedron": tetrahedron_spec()["faces"],
    "cube": [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [1, 2, 6, 5],
             [2, 3, 7, 6], [3, 0, 4, 7]],
    "octahedron": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                   [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]],
    "grid": grid_torus_spec(3)["faces"],
}
# the 3x3 grid with more disk vertices has up to 199 131 strict domains;
# the fixtures grid-torus-v1 and e0-torus cover that end
MAX_V1 = {"tetrahedron": 4, "cube": 8, "octahedron": 6, "grid": 4}


@st.composite
def small_complexes(draw):
    """A small complex with drawn V1 and E0 sets."""
    name = draw(st.sampled_from(sorted(SMALL_COMPLEXES)))
    faces = SMALL_COMPLEXES[name]
    ids = sorted({i for f in faces for i in f})
    v1 = draw(st.sets(st.sampled_from(ids), max_size=MAX_V1[name]))
    edges = build_complex(_spec(faces, v1)).edges
    disk_edges = [e for e in edges if set(e) <= v1]
    e0 = draw(st.sets(st.sampled_from(disk_edges), max_size=3)
              if disk_edges else st.just(set()))
    return build_complex(_spec(faces, v1, sorted(e0)))


def pinched_torus_spec():
    """The 6 x 6 triangulated torus with vertex 21 renamed 0 and 18
    renamed 3: every edge keeps two face sides and every pair of faces
    meets in an edge, a vertex or nothing, but the faces at vertex 0 form
    two cycles, and the surface is pinched there (χ = -2)."""
    spec = triangulated_torus_spec(6, v1=range(36))
    ids = {21: 0, 18: 3}
    spec["faces"] = [[ids.get(v, v) for v in f] for f in spec["faces"]]
    spec["vertices"] = [v for v in spec["vertices"] if v["id"] not in ids]
    return spec


def flip_edges(faces, picks):
    """The triangles ``faces`` after an edge flip per (face index, side)
    of ``picks``, each taken modulo the counts: side k of face (a, b, c)
    is the edge from its k-th vertex.  The edge (a, b) with the faces
    (a, b, c) and (b, a, d) becomes (c, d), with the faces (a, d, c) and
    (d, b, c).  A flip that would leave a or b with fewer than 3 edges,
    or make (c, d) a second edge, is skipped."""
    faces = [tuple(f) for f in faces]
    for fi, k in picks:
        fi %= len(faces)
        a, b, c = faces[fi][k % 3:] + faces[fi][:k % 3]
        sides = [list(zip(t, t[1:] + t[:1])) for t in faces]
        gi = next(gi for gi, s in enumerate(sides) if (b, a) in s)
        d = next(w for v, w in sides[gi] if v == a)
        edges = {edge_key(*side) for s in sides for side in s}
        if (min(sum(v in e for e in edges) for v in (a, b)) > 3
                and edge_key(c, d) not in edges):
            faces[fi], faces[gi] = (a, d, c), (d, b, c)
    return [list(f) for f in faces]


@st.composite
def flipped_tori(draw):
    """The spec of a triangulated n x n torus, n = 3 to 5, after 1 to 12
    drawn edge flips, less those ``flip_edges`` skips, with drawn disk
    vertices."""
    n = draw(st.integers(3, 5))
    picks = draw(st.lists(st.tuples(st.integers(0, 2 * n * n - 1),
                                    st.integers(0, 2)),
                          min_size=1, max_size=12))
    faces = flip_edges(triangulated_torus_spec(n)["faces"], picks)
    v1 = draw(st.sets(st.integers(0, n * n - 1)))
    return triangulated_torus_spec(n, v1=v1) | {"faces": faces}
