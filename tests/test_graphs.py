import json
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgenus import (
    IdealSet,
    SimpleGraph,
    catalog_ring,
    clique_number,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cyclic_ideal,
    diameter,
    expand,
    export_dot,
    export_json,
    find_biclique,
    find_complete_subgraph,
    girth,
    ideal_zero_divisor_graph,
    induced_subgraph,
    is_connected,
    make_graph,
    zero_divisor_graph,
)
from zdgenus.catalog import catalog_entries, catalog_pairs
from zdgenus.errors import InvalidSpec, TooLarge
from zdgenus.graphs import twin_quotient
from zdgenus.ideals import quotient
from zdgenus.rings import MAX_ORDER, zero_divisors

INF = float("inf")


def to_nx(g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def test_make_graph_rejects_self_loop():
    with pytest.raises(InvalidSpec):
        make_graph(2, [(0, 0)])


def test_zero_divisor_graph_z6():
    g = zero_divisor_graph(catalog_ring("Z_6"))
    assert g.labels == ("2", "3", "4")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]  # the path 2 - 3 - 4


def test_zero_divisor_graph_z8(z8):
    g = zero_divisor_graph(z8)
    assert g.labels == ("2", "4", "6")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_zero_divisor_graph_z9():
    g = zero_divisor_graph(catalog_ring("Z_9"))
    assert g.labels == ("3", "6") and g.m == 1


def test_zero_divisor_graph_z16():
    g = zero_divisor_graph(catalog_ring("Z_16"))
    assert (g.n, g.m) == (7, 7)
    edges = sorted((g.labels[u], g.labels[v]) for u, v in g.edges())
    assert edges == [("2", "8"), ("4", "12"), ("4", "8"), ("6", "8"),
                     ("8", "10"), ("8", "12"), ("8", "14")]


def test_zero_divisor_graph_includes_square_zero_vertex():
    g = zero_divisor_graph(catalog_ring("Z_4"))
    assert g.labels == ("2",) and g.m == 0


def test_field_graph_empty():
    g = zero_divisor_graph(catalog_ring("F_9"))
    assert g.n == 0 and g.m == 0
    assert diameter(g) == 0 and girth(g) == INF
    assert clique_number(g) == 0 and is_connected(g)


def test_ideal_graph_z8(z8):
    g = ideal_zero_divisor_graph(z8, cyclic_ideal(z8, 4))
    assert g.labels == ("2", "6")
    assert g.m == 1  # 2*6 = 12 lies in (4)


def test_ideal_graph_zero_ideal_matches_gamma(z8):
    g0 = ideal_zero_divisor_graph(z8, IdealSet(z8, 1 << z8.zero))
    g = zero_divisor_graph(z8)
    assert g0.labels == g.labels and sorted(g0.edges()) == sorted(g.edges())


def _ref_zero_divisor_graph(t):
    """zero_divisor_graph as built before it became the graph at the zero
    ideal, kept verbatim as its oracle."""
    verts = zero_divisors(t)
    pos = {x: i for i, x in enumerate(verts)}
    edges = [
        (pos[x], pos[y])
        for x, y in combinations(verts, 2)
        if t.mul[x][y] == t.zero
    ]
    return make_graph(len(verts), edges, tuple(t.labels[x] for x in verts))


def test_zero_divisor_graph_matches_direct_construction():
    rings = [catalog_ring(e.name) for e in catalog_entries()]
    rings += [quotient(t, i).table for _, t, i in catalog_pairs(MAX_ORDER)]
    for t in rings:
        g, ref = zero_divisor_graph(t), _ref_zero_divisor_graph(t)
        assert (g.n, g.adj, g.labels) == (ref.n, ref.adj, ref.labels), t.name


def test_ideal_graph_vertices_grouped_by_coset(z12):
    i = cyclic_ideal(z12, 6)
    g = ideal_zero_divisor_graph(z12, i)
    assert g.n == 6
    # fibers over the quotient path 2 - 3 - 4: cosets listed contiguously
    assert g.labels == ("2", "8", "3", "9", "4", "10")


def test_ideal_graph_order_law(z12):
    from zdgenus import quotient

    for i in [cyclic_ideal(z12, 6), cyclic_ideal(z12, 4)]:
        g = ideal_zero_divisor_graph(z12, i)
        q = quotient(z12, i)
        assert g.n == i.size * zero_divisor_graph(q.table).n


def test_expand_bipartite():
    k2 = complete_graph(2)
    g = expand(k2, 3)
    assert nx.is_isomorphic(to_nx(g), to_nx(complete_bipartite(3, 3)))
    assert g.labels == ("0#1", "0#2", "0#3", "1#1", "1#2", "1#3")


def test_expand_no_fiber_edges():
    g = expand(complete_graph(3), 4)
    for j in range(3):
        for a in range(4):
            for b in range(a + 1, 4):
                assert not g.has_edge(j * 4 + a, j * 4 + b)
    assert g.m == 3 * 16


def test_expand_identity():
    p3 = make_graph(3, [(0, 1), (1, 2)])
    g = expand(p3, 1)
    assert g.n == 3 and sorted(g.edges()) == [(0, 1), (1, 2)]


def test_standard_graphs():
    assert complete_graph(5).m == 10
    assert complete_bipartite(3, 4).m == 12
    assert complete_multipartite(2, 2, 2).m == 12


def test_girth_values():
    assert girth(complete_graph(3)) == 3
    assert girth(complete_bipartite(2, 2)) == 4
    assert girth(make_graph(4, [(0, 1), (1, 2), (2, 3)])) == INF
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    assert girth(make_graph(5, c5)) == 5
    assert girth(make_graph(7, c5 + [(4, 5), (5, 6), (6, 4)])) == 3


def test_diameter_values():
    assert diameter(make_graph(4, [(0, 1), (1, 2), (2, 3)])) == 3
    assert diameter(complete_graph(4)) == 1
    assert diameter(make_graph(2, [])) == INF
    assert not is_connected(make_graph(2, []))


def test_clique_number():
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(complete_bipartite(3, 3)) == 2
    assert clique_number(complete_multipartite(2, 2, 2)) == 3
    assert clique_number(make_graph(3, [])) == 1
    assert clique_number(complete_graph(200)) == 200
    with pytest.raises(TooLarge, match="capped at 200 vertices, got 201"):
        clique_number(make_graph(201, []))


def test_subgraph_search():
    g = complete_multipartite(2, 2, 2)
    assert find_complete_subgraph(g, 3) is not None
    assert find_complete_subgraph(g, 4) is None
    assert find_biclique(g, 2, 3) is not None
    assert find_biclique(complete_bipartite(2, 5), 3, 3) is None


def test_induced_subgraph():
    g = complete_graph(5)
    h = induced_subgraph(g, [0, 2, 4])
    assert h.n == 3 and h.m == 3
    assert h.labels == (g.labels[0], g.labels[2], g.labels[4])


def test_export_dot_golden():
    g = zero_divisor_graph(catalog_ring("Z_6"))
    assert export_dot(g) == (
        "graph G {\n"
        '  n0 [label="2"];\n'
        '  n1 [label="3"];\n'
        '  n2 [label="4"];\n'
        "  n0 -- n1;\n"
        "  n1 -- n2;\n"
        "}\n"
    )


def test_export_json_round_trip():
    g = complete_bipartite(2, 3)
    data = json.loads(export_json(g))
    assert data["n"] == 5
    assert len(data["edges"]) == 6
    back = make_graph(data["n"], [tuple(e) for e in data["edges"]],
                      tuple(data["labels"]))
    assert sorted(back.edges()) == sorted(g.edges())


def test_simple_graph_rejects_asymmetric_rows():
    with pytest.raises(InvalidSpec, match="asymmetric"):
        SimpleGraph(2, (0b10, 0), ("a", "b"))


@st.composite
def twin_graphs(draw, max_n=8):
    """A drawn graph, half the time blown up so that it has twins: each
    vertex becomes up to 3 copies, an independent set or a clique."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = make_graph(n, [e for e, k in zip(pairs, keep) if k])
    if n > 4 or not draw(st.booleans()):
        return g
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    cliques = [draw(st.booleans()) for _ in range(n)]
    return blow_up(g, sizes, cliques)


def blow_up(q, sizes, cliques):
    """Each vertex v of q becomes sizes[v] vertices, joined among
    themselves when cliques[v]; copies of adjacent vertices are joined."""
    first = [sum(sizes[:v]) for v in range(q.n)]
    copies = [range(first[v], first[v] + sizes[v]) for v in range(q.n)]
    edges = [(a, b) for u, v in q.edges() for a in copies[u]
             for b in copies[v]]
    edges += [e for v in range(q.n) if cliques[v]
              for e in combinations(copies[v], 2)]
    return make_graph(sum(sizes), edges)


@given(twin_graphs())
def test_twin_quotient_round_trips(g):
    tq = twin_quotient(g)
    members = sorted(v for c in tq.classes for v in c)
    assert members == list(range(g.n))
    for c, clique in zip(tq.classes, tq.clique):
        assert list(c) == sorted(c)
        assert clique == (len(c) > 1 and g.has_edge(c[0], c[1]))
        if clique:
            assert len({g.adj[v] | 1 << v for v in c}) == 1
        else:
            assert len({g.adj[v] for v in c}) == 1
    # classes are maximal: no two representatives are twins
    reps = [c[0] for c in tq.classes]
    for u, v in combinations(reps, 2):
        assert g.adj[u] != g.adj[v]
        assert g.adj[u] | 1 << u != g.adj[v] | 1 << v
    rebuilt = blow_up(tq.graph, [len(c) for c in tq.classes], tq.clique)
    assert nx.is_isomorphic(to_nx(rebuilt), to_nx(g))
