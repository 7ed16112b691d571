"""Twin quotients and canonical forms, checked against networkx and brute
force."""

from itertools import combinations, permutations

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from zdgenus import (
    canonical_certificate,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    expand,
    graph_iso,
    ideal_zero_divisor_graph,
    make_graph,
)
from zdgenus.catalog import catalog_pairs
from zdgenus.graphs import twin_quotient


def to_nx(g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def relabel(g, perm):
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def graphs(draw, max_n=8):
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


@given(graphs())
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


@given(graphs(), st.data())
def test_relabelling_keeps_the_key(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    cg, ch = canonical_certificate(g), canonical_certificate(h)
    assert cg.key == ch.key and cg == ch
    # the canonical orders correspond under an isomorphism
    iso = dict(zip(cg.order, ch.order))
    assert sorted(iso) == list(range(g.n))
    assert sorted(tuple(sorted((iso[u], iso[v]))) for u, v in g.edges()) \
        == sorted(h.edges())


def shapes():
    out = [complete_graph(k) for k in range(1, 9)]
    for n in range(2, 10):  # every partition of n, as complete multipartite
        out += [complete_multipartite(*p) for p in _partitions(n)
                if len(p) > 1]
    out += [complete_bipartite(a, b) for a in range(1, 7)
            for b in range(a, 7)]
    path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    cycle = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    star = complete_bipartite(1, 3)
    out += [expand(base, t) for base in (complete_graph(3), complete_graph(4),
                                         path, cycle, star)
            for t in (1, 2, 3)]
    return out


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_keys_separate_atlas_classes_and_shapes():
    atlas = [ideal_zero_divisor_graph(t, i) for _, t, i in catalog_pairs(64)]
    reps: list = []  # (networkx graph, key) per isomorphism class
    classes = []
    for g in atlas + shapes():
        key = canonical_certificate(g).key
        gx = to_nx(g)
        for k, (rx, rkey) in enumerate(reps):
            if nx.faster_could_be_isomorphic(rx, gx) and \
                    nx.is_isomorphic(rx, gx):
                assert key == rkey
                classes.append(k)
                break
        else:
            classes.append(len(reps))
            reps.append((gx, key))
    assert len(set(classes[:len(atlas)])) == 25
    assert len({key for _, key in reps}) == len(reps)


def brute_force_iso(g, h):
    if g.n != h.n or g.m != h.m:
        return False
    target = set(h.edges())
    return any(all(tuple(sorted((p[u], p[v]))) in target
                   for u, v in g.edges())
               for p in permutations(range(g.n)))


@given(graphs(max_n=6), st.data())
def test_graph_iso_matches_brute_force(g, data):
    if g.n > 6:  # a blow-up can grow past the brute-force range
        g = make_graph(6, [(u, v) for u, v in g.edges() if max(u, v) < 6])
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    if g.n >= 2 and data.draw(st.booleans()):  # toggle one pair
        u, v = data.draw(st.sampled_from(list(combinations(range(g.n), 2))))
        edges = set(h.edges())
        edges ^= {(u, v)}
        h = make_graph(g.n, sorted(edges))
    assert graph_iso(g, h) == brute_force_iso(g, h)


def test_forms_with_one_key_are_equal_and_hash_equal_whatever_their_order():
    """form.key names the isomorphism class, and graph_iso compares whole
    forms, so the order must not enter equality or the hash."""
    g = canonical_certificate(make_graph(3, [(0, 1), (1, 2)]))
    h = canonical_certificate(make_graph(3, [(0, 2), (2, 1)]))
    assert g.key == h.key and g.order != h.order
    assert g == h and not g != h
    assert hash(g) == hash(h)
    assert len({g, h}) == 1
    assert g != tuple(g)  # a form equals only forms
