"""Witness-first steps, gated against the steps in vertex order.

When the certified level is the subgraph bound of a K_{m,n} with
(m - 2)(n - 2) divisible by 4, `_search_genus` inserts that witness's edges
before any other edge.  The answer, bounds and provenance, must be the one
the search gives over the steps in vertex order: on the searched catalog
classes, on the tight-witness classes of the benchmark's queries universe,
and on drawn K_{4,6} with extra edges.  The steps must stay a valid
insertion order, and without a witness they must be the ones the
reference embedder builds.
"""

from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdgenus import (
    complete_multipartite,
    face_trace,
    ideal_zero_divisor_graph,
    make_graph,
)
from zdgenus import genus as genus_module
from zdgenus.cli import resolve_ideal, resolve_ring

from test_search_arms import (  # noqa: F401
    _RefEmbedder,
    searched_classes,
    tight_witness as witness_of,
)

# (ring, ideal): (certified level's source, nodes in vertex order, nodes
# witness-first), each from the certified level
UNIVERSE_TIGHT = {
    # genus 1 from a K_{3,6}; the search exhausts it and embeds at 2
    ("Z_2×Z_16", "#0"): ("subgraph K_{3,6}", 41_623, 21_549),
    ("Z_24", "#1"): ("subgraph K_{4,6}", 33, 33),
    ("Z_32", "#2"): ("subgraph K_{4,8}", 849_821, 53),
    ("Z_4×Z_11", "#0"): ("subgraph K_{3,10}", 108, 108),
}


@contextmanager
def vertex_order():
    """_search_genus over the steps in vertex order, whatever the level's
    source."""
    saved = genus_module._build_steps
    genus_module._build_steps = lambda g, witness=None: saved(g)
    try:
        yield
    finally:
        genus_module._build_steps = saved


def search(g, budget):
    """(lower, upper, provenance, nodes) of _search_genus; an embedding is
    re-traced."""
    spent = [budget]
    b = genus_module._search_genus(g, spent)
    if b.upper is not None:
        assert face_trace(g, b.certificate.rotation) == (
            b.certificate.faces, b.upper)
    return b.lower, b.upper, b.provenance, budget - spent[0]


# search(g, budget) in vertex order by (g.n, g.adj, budget): the catalog
# class K_{1,1,1,1,8} and Z_32 at #2 are one adjacency, so its 849 821-node
# walk runs once
_IN_VERTEX_ORDER: dict = {}


def both_orders(g, budget=10**6):
    """search(g, budget) witness-first and in vertex order."""
    first = search(g, budget)
    key = g.n, g.adj, budget
    if key not in _IN_VERTEX_ORDER:
        with vertex_order():
            _IN_VERTEX_ORDER[key] = search(g, budget)
    return first, _IN_VERTEX_ORDER[key]


def check_steps(g, witness):
    """The steps of g with witness: each edge once, each u placed, first
    on each vertex's first step only, darts 2s, the witness edges first."""
    steps = genus_module._build_steps(g, witness)
    edges = [frozenset((v, u)) for v, u, _, _ in steps]
    assert len(edges) == g.m
    assert set(edges) == {frozenset(e) for e in g.edges()}
    placed = {steps[0][1]}
    for s, (v, u, dart, first) in enumerate(steps):
        assert dart == 2 * s
        assert u in placed
        assert first == (v not in placed)
        placed.add(v)
    if witness is not None:
        a, b = witness
        k = len(a) * len(b)
        assert set(edges[:k]) == {frozenset((x, y)) for x in a for y in b}
    return steps


def test_steps_are_an_insertion_order_on_catalog_classes(searched_classes):
    tight = []
    for g in searched_classes:
        witness = witness_of(g)
        steps = check_steps(g, witness)
        if witness is None:
            assert steps == _RefEmbedder(g, [0]).steps
        else:
            tight.append((g.n, g.m))
            assert steps != _RefEmbedder(g, [0]).steps
            check_steps(g, None)
    # K_{3,6} certifies Gamma_(8)(Z_24) at 1, K_{4,6} Gamma_(2)(Z_24) at 2,
    # and K_{4,8} K_{1,1,1,1,8} at 3
    assert sorted(tight) == [(9, 21), (12, 38), (14, 33)]


def test_witness_first_keeps_the_answer_on_catalog_classes(searched_classes):
    # the other classes have no witness, and the same steps as before
    for g in searched_classes:
        if witness_of(g) is not None:
            first, vertex = both_orders(g)
            assert first[:3] == vertex[:3]


@pytest.mark.parametrize("ring,ideal", list(UNIVERSE_TIGHT))
def test_witness_first_keeps_the_answer_on_universe_classes(ring, ideal):
    t = resolve_ring(ring)
    g = ideal_zero_divisor_graph(t, resolve_ideal(t, ideal))
    source, vertex_nodes, first_nodes = UNIVERSE_TIGHT[ring, ideal]
    assert genus_module._certified_level(g).source == source
    check_steps(g, witness_of(g))
    first, vertex = both_orders(g)
    assert first[:3] == vertex[:3]
    assert (vertex[3], first[3]) == (vertex_nodes, first_nodes)


@st.composite
def k46_with_extra_edges(draw):
    """K_{4,6} plus 1 to 6 edges inside its sides, relabelled."""
    inside = [e for side in (range(4), range(4, 10))
              for e in combinations(side, 2)]
    extra = draw(st.lists(st.sampled_from(inside), min_size=1, max_size=6,
                          unique=True))
    perm = draw(st.permutations(range(10)))
    edges = [(a, b) for a in range(4) for b in range(4, 10)] + extra
    return make_graph(10, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=25, deadline=None)
@given(k46_with_extra_edges())
@example(make_graph(10, [(a, b) for a in range(4) for b in range(4, 10)]
                    + [(4, 5)])).via("one edge in the 6-side")
@example(complete_multipartite(1, 1, 2, 6)).via(
    "five edges in the 4-side, certified by a K_{3,7}, so no witness")
def test_witness_first_keeps_the_answer_on_drawn_graphs(g):
    """The same answer where both orders finish within the budget.  A few
    of these graphs have to exhaust genus 2, which one order may finish and
    the other not; then the levels both settled must agree."""
    witness = witness_of(g)
    if genus_module._certified_level(g).source == "subgraph K_{4,6}":
        assert witness is not None
    check_steps(g, witness)
    first, vertex = both_orders(g, 2 * 10**5)
    if first[1] is not None and vertex[1] is not None:
        assert first[:3] == vertex[:3]
    a, b = (p[:-1] if p[-1] == "budget exhausted" else p
            for p in (first[2], vertex[2]))
    assert a[:len(b)] == b[:len(a)]
