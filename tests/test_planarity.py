"""The in-repo planarity test against networkx's, and the checked
Kuratowski witness behind the "nonplanar" lower bound."""

import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgenus import (
    complete_bipartite,
    complete_graph,
    exact_genus,
    face_trace,
    ideal_zero_divisor_graph,
    make_graph,
)
from zdgenus import genus as genus_module
from zdgenus.catalog import catalog_pairs
from zdgenus.errors import ZdgenusError
from zdgenus.genus import (
    RotationSystem,
    _block_faces,
    _blocks,
    check_kuratowski,
    kuratowski_subdivision,
    planar_rotation,
)
from zdgenus.graphs import connected_components, induced_subgraph


def check_against_networkx(g):
    """planar_rotation agrees with nx.check_planarity; a rotation traces to
    genus 0 on every component, and a nonplanar verdict yields a verified
    Kuratowski witness."""
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    rot = planar_rotation(g)
    assert (rot is not None) == nx.check_planarity(gx)[0]
    if rot is None:
        return check_kuratowski(g, kuratowski_subdivision(g))
    for comp in connected_components(g):
        pos = {v: k for k, v in enumerate(comp)}
        sub = RotationSystem(tuple(tuple(pos[w] for w in rot.order[v])
                                   for v in comp))
        assert face_trace(induced_subgraph(g, comp), sub)[1] == 0
    return "planar"


def relabelled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return make_graph(n, edges)


def test_catalog_pairs_agree_with_networkx():
    verdicts = [check_against_networkx(ideal_zero_divisor_graph(t, i))
                for _, t, i in catalog_pairs(64)]
    assert len(verdicts) == 301
    assert verdicts.count("planar") == 231


@given(st.integers(1, 20), st.sampled_from([0.1, 0.15, 0.2, 0.3]),
       st.randoms(use_true_random=False))
def test_sparse_random_graphs_agree_with_networkx(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    check_against_networkx(make_graph(n, edges))


@given(st.integers(4, 30), st.integers(0, 10),
       st.randoms(use_true_random=False))
def test_thinned_triangulations_agree_with_networkx(n, dropped, rng):
    """A stacked triangulation, built by splitting random faces, with a few
    edges dropped or one non-edge added."""
    faces = [(0, 1, 2), (0, 2, 1)]
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
        edges += [(a, v), (b, v), (c, v)]
    rng.shuffle(edges)
    edges = edges[dropped:]
    if rng.random() < 0.5:
        present = {frozenset(e) for e in edges}
        absent = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if frozenset((u, v)) not in present]
        if absent:
            edges.append(rng.choice(absent))
    check_against_networkx(relabelled(n, edges, rng))


@given(st.booleans(), st.lists(st.integers(0, 2), min_size=10, max_size=10),
       st.integers(0, 6), st.randoms(use_true_random=False))
def test_subdivided_kuratowski_graphs_are_nonplanar(k5, lengths, extra, rng):
    """K_5 or K_{3,3} with each edge subdivided up to twice, plus pendant
    paths and extra edges, relabelled."""
    base = complete_graph(5) if k5 else complete_bipartite(3, 3)
    n = base.n
    edges = []
    for (u, v), k in zip(base.edges(), lengths):
        path = [u] + list(range(n, n + k)) + [v]
        n += k
        edges += list(zip(path, path[1:]))
    for _ in range(extra):
        edges.append((rng.randrange(n), n))
        n += 1
    present = {frozenset(e) for e in edges}
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    g = relabelled(n, edges, rng)
    assert check_against_networkx(g) in ("K_5", "K_{3,3}")


def test_single_edge_block_is_one_face():
    assert _block_faces([(0, 1)]) == [[0, 1]]


def test_triangle_block_is_two_opposite_faces():
    def cyclic(face):
        k = face.index(min(face))
        return face[k:] + face[:k]

    one, two = _block_faces([(0, 1), (1, 2), (0, 2)])
    assert cyclic(one) == cyclic(two[::-1])


def block_order(g):
    """Each vertex's neighbours in the order of its edges in _blocks."""
    order = [[] for _ in range(g.n)]
    for block in _blocks([g.neighbors(v) for v in range(g.n)]):
        for u, v in block:
            order[u].append(v)
            order[v].append(u)
    return tuple(map(tuple, order))


def test_star_rotation_lists_neighbours_in_block_order():
    star = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert planar_rotation(star).order == block_order(star)


def test_path_rotation_lists_neighbours_in_block_order():
    path = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert planar_rotation(path).order == block_order(path)


def test_unchecked_nonplanar_verdict_raises(monkeypatch):
    """A planar graph wrongly called nonplanar has no Kuratowski witness."""
    c6_chord = make_graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    assert exact_genus(c6_chord).provenance == ("planar embedding",)
    monkeypatch.setattr(genus_module, "planar_rotation", lambda g: None)
    with pytest.raises(ZdgenusError):
        exact_genus(c6_chord)


def test_witness_check():
    rng = random.Random(0)
    k5 = complete_graph(5)
    # K_5 with the edge 0-1 subdivided by vertex 5
    sub = make_graph(6, [e for e in k5.edges() if e != (0, 1)] +
                     [(0, 5), (5, 1)])
    assert check_kuratowski(sub, sub.edges()) == "K_5"
    assert check_kuratowski(complete_bipartite(3, 3),
                            complete_bipartite(3, 3).edges()) == "K_{3,3}"
    for missing in sub.edges():
        edges = [e for e in sub.edges() if e != missing]
        rng.shuffle(edges)
        with pytest.raises(ZdgenusError):
            check_kuratowski(sub, edges)
    bad = [
        (complete_graph(6), [(0, 1)] + k5.edges()),  # an edge listed twice
        (sub, k5.edges()),                           # 0-1 is not in sub
        (complete_graph(6), complete_graph(6).edges()),
        (complete_graph(6), complete_bipartite(2, 4).edges()),
        (complete_graph(8), k5.edges() + [(5, 6), (6, 7), (5, 7)]),
    ]
    for g, edges in bad:
        with pytest.raises(ZdgenusError):
            check_kuratowski(g, edges)
    # K_{3,3}'s degrees on a graph with a triangle: 6 cubic branch vertices
    prism = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 3), (1, 4), (2, 5)])
    with pytest.raises(ZdgenusError):
        check_kuratowski(prism, prism.edges())
