"""exact_genus's class cache, checked against a brute-force oracle.

The oracle enumerates every rotation system of a tiny connected graph, so
it shares nothing with the edge-insertion search but the definition of a
face.  The cache tests compare cold calls (an empty cache) with warm calls
on relabelled copies.
"""

import random
from contextlib import contextmanager
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdgenus import (
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    exact_genus,
    face_trace,
    make_graph,
)
from zdgenus import genus as genus_module
from zdgenus.errors import ZdgenusError
from zdgenus.graphs import is_connected

ORACLE_CAP = 10**4  # rotation systems per graph
PETERSEN = make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])
NONPLANAR = [complete_graph(5), complete_bipartite(3, 3), complete_graph(7),
             complete_bipartite(4, 5), complete_graph(8),
             complete_multipartite(2, 2, 2, 2),
             complete_multipartite(1, 1, 1, 1, 4), PETERSEN]


@contextmanager
def cold_cache():
    """An empty cache for the block; the shared one is put back after."""
    saved = genus_module._GENUS_CACHE
    genus_module._GENUS_CACHE = {}
    try:
        yield genus_module._GENUS_CACHE
    finally:
        genus_module._GENUS_CACHE = saved


def counts():
    return dict(genus_module.GENUS_CACHE_COUNTS)


def relabel(g, perm):
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def rotation_count(g):
    return prod(factorial(max(g.degree(v) - 1, 0)) for v in range(g.n))


def oracle_genus(g):
    """Least genus over all rotation systems of a connected graph."""
    darts = [(u, v) for u, v in g.edges()] + [(v, u) for u, v in g.edges()]
    index = {d: k for k, d in enumerate(darts)}
    cyclic = []
    for v in range(g.n):
        first, *rest = g.neighbors(v)
        cyclic.append([(first,) + p for p in permutations(rest)] if rest
                      else [(first,)])
    most = 0
    for choice in product(*cyclic):
        succ = [0] * len(darts)  # dart (v, w) -> next dart out of v
        for v, seq in enumerate(choice):
            for i, w in enumerate(seq):
                succ[index[(v, w)]] = index[(v, seq[(i + 1) % len(seq)])]
        seen = [False] * len(darts)
        faces = 0
        for start in range(len(darts)):
            if not seen[start]:
                faces += 1
                d = start
                while not seen[d]:
                    seen[d] = True
                    u, v = darts[d]
                    d = succ[index[(v, u)]]
        most = max(most, faces)
    return (2 - g.n + g.m - most) // 2


@st.composite
def tiny_connected_graphs(draw):
    """A spanning path plus drawn chords on at most 7 vertices, relabelled;
    chords at the busiest vertices are dropped until the oracle has at most
    ORACLE_CAP rotation systems to try."""
    n = draw(st.integers(2, 7))
    chords = [(u, v) for u in range(n) for v in range(u + 2, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(chords),
                         max_size=len(chords)))
    chords = [e for e, k in zip(chords, keep) if k]
    path = [(i, i + 1) for i in range(n - 1)]
    while rotation_count(make_graph(n, path + chords)) > ORACLE_CAP:
        g = make_graph(n, path + chords)
        chords.remove(max(chords, key=lambda e: g.degree(e[0]) +
                          g.degree(e[1])))
    return relabel(make_graph(n, path + chords),
                   draw(st.permutations(range(n))))


def test_oracle_on_known_genera():
    assert oracle_genus(complete_graph(4)) == 0
    assert oracle_genus(complete_graph(5)) == 1
    assert oracle_genus(complete_bipartite(3, 3)) == 1
    assert oracle_genus(PETERSEN) == 1


@settings(max_examples=60, deadline=None)
@given(tiny_connected_graphs(), st.data())
@example(complete_graph(5), None).via("K5")
@example(complete_bipartite(3, 3), None).via("K33")
def test_exact_genus_matches_oracle_cold_and_warm(g, data):
    assert is_connected(g) and rotation_count(g) <= ORACLE_CAP
    want = oracle_genus(g)
    with cold_cache():
        cold = exact_genus(g)
        perm = (data.draw(st.permutations(range(g.n))) if data is not None
                else list(reversed(range(g.n))))
        h = relabel(g, perm)
        warm = exact_genus(h)
    assert (cold.lower, cold.upper) == (want, want)
    assert (warm.lower, warm.upper) == (want, want)
    assert face_trace(h, warm.certificate.rotation) == (
        warm.certificate.faces, want)


def test_warm_calls_on_relabelled_copies_match_cold_calls():
    for g in NONPLANAR:
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        h = relabel(g, perm)
        with cold_cache():
            cold = exact_genus(h)
        with cold_cache() as cache:
            exact_genus(g)
            before = counts()
            warm = exact_genus(h)
            assert len(cache) == 1
        assert counts()["hits"] == before["hits"] + 1
        assert (warm.lower, warm.upper, warm.provenance,
                warm.certificate.faces) == (
            cold.lower, cold.upper, cold.provenance, cold.certificate.faces)
        assert face_trace(h, warm.certificate.rotation) == (
            warm.certificate.faces, warm.upper)


def test_open_results_are_never_stored():
    k7 = complete_graph(7)
    with cold_cache() as cache:
        b = exact_genus(k7, 10)
        assert (b.lower, b.upper) == (1, None)
        assert cache == {}
        before = counts()
        b = exact_genus(k7)
        assert b.exact and len(cache) == 1
        assert counts()["misses"] == before["misses"] + 1
        (_, nodes), = cache.values()
        # too little budget for the stored search: a fresh search, which
        # runs out the same way and stores nothing
        before = counts()
        b = exact_genus(k7, nodes - 1)
        assert (b.lower, b.upper) == (1, None)
        assert "budget exhausted" in b.provenance
        assert counts()["misses"] == before["misses"] + 1
        assert counts()["hits"] == before["hits"]
        assert list(cache.values())[0][1] == nodes


def test_budget_outcomes_with_a_warm_cache():
    with cold_cache():
        k7 = complete_graph(7)
        assert exact_genus(k7).exact  # warm
        # test_budget_is_one_pool_across_components
        b = exact_genus(k7, 78)
        assert (b.lower, b.upper) == (1, 1)
        two = make_graph(14, k7.edges() +
                         [(u + 7, v + 7) for u, v in k7.edges()])
        b = exact_genus(two, 78)
        assert (b.lower, b.upper) == (2, None)
        assert "budget exhausted" in b.provenance
        # test_budget_exhaustion_returns_bounds
        b = exact_genus(complete_multipartite(2, 2, 2, 2, 2), 10**4)
        assert b.lower == 3 and b.upper is None
        assert "budget exhausted" in b.provenance
        assert b.certificate is None


def test_cache_hit_charges_the_stored_node_count():
    k7 = complete_graph(7)
    with cold_cache() as cache:
        exact_genus(k7)
        (_, nodes), = cache.values()
        spent = [nodes]
        b = genus_module._exact_genus(relabel(k7, [6, 5, 4, 3, 2, 1, 0]),
                                      spent)
        assert b.exact and spent == [0]


def test_wrong_cached_rotation_raises(monkeypatch):
    g = complete_graph(5)
    with cold_cache():
        exact_genus(g)
        true_trace = genus_module.face_trace
        monkeypatch.setattr(genus_module, "face_trace",
                            lambda graph, rot: (true_trace(graph, rot)[0], 2))
        before = counts()
        with pytest.raises(ZdgenusError, match="cached embedding"):
            exact_genus(relabel(g, [4, 3, 2, 1, 0]))
        assert counts()["hits"] == before["hits"] + 1
