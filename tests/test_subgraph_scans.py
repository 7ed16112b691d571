"""The clique and biclique enumerators and every scan built on them,
checked against brute force and against the scans they replaced, which
are kept below as references."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgenus import (
    find_biclique,
    find_complete_subgraph,
    genus_biclique,
    genus_complete,
    ideal_zero_divisor_graph,
    k4_attachment_bound,
    make_graph,
    subgraph_lower_bound,
)
from zdgenus.catalog import catalog_pairs
from zdgenus.cli import resolve_ideal, resolve_ring
from zdgenus.errors import HypothesisNotMet, MTooLarge, TooLarge
from zdgenus.genus import _k4_scan
from zdgenus.graphs import _CLIQUE_CAP, bicliques, clique_number, cliques
from zdgenus.rings import _elements


# === References: the scans before cliques and bicliques ====================


def ref_find_complete_subgraph(g, r):
    if r == 0:
        return []

    def grow(chosen, cands):
        if len(chosen) == r:
            return list(chosen)
        if cands.bit_count() < r - len(chosen):
            return None
        for v in _elements(cands):
            chosen.append(v)
            above = ~((1 << (v + 1)) - 1)
            hit = grow(chosen, cands & g.adj[v] & above)
            chosen.pop()
            if hit is not None:
                return hit
        return None

    return grow([], (1 << g.n) - 1)


def ref_clique_number(g):
    """Exact maximum clique size by branch and bound; 0 for the empty graph."""
    if g.n > _CLIQUE_CAP:
        raise TooLarge(
            f"clique search capped at {_CLIQUE_CAP} vertices, got {g.n}")
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best = 0

    def grow(size, cands):
        nonlocal best
        if size + cands.bit_count() <= best:
            return
        if cands == 0:
            best = max(best, size)
            return
        for v in order:
            if not (cands >> v & 1):
                continue
            grow(size + 1, cands & g.adj[v])
            cands &= ~(1 << v)
            if size + cands.bit_count() <= best:
                return

    grow(0, (1 << g.n) - 1)
    return best


def ref_find_biclique(g, m, n):
    if m > 5:
        raise MTooLarge(f"biclique side capped at m <= 5, got {m}")
    if m < 1 or n < 1 or m + n > g.n:
        return None
    for a in combinations(range(g.n), m):
        common = (1 << g.n) - 1
        for v in a:
            common &= g.adj[v]
        common &= ~sum(1 << v for v in a)
        if common.bit_count() >= n:
            return list(a), _elements(common)[:n]
    return None


def ref_max_biclique_n(g, m):
    best = 0
    full = (1 << g.n) - 1

    def rec(start, depth, common, amask):
        nonlocal best
        if depth == m:
            best = max(best, (common & ~amask).bit_count())
            return
        for v in range(start, g.n - (m - depth) + 1):
            c2 = common & g.adj[v]
            if c2.bit_count() <= best:
                continue
            rec(v + 1, depth + 1, c2, amask | 1 << v)

    rec(0, 0, full, 0)
    return best


def ref_subgraph_lower_bound(g):
    """(value, source, witness), the witness re-found by the reference
    biclique scan."""
    w = ref_clique_number(g)
    best = genus_complete(w), f"subgraph K_{w}", None
    for m in (3, 4, 5):
        if g.n < m + 3 or genus_biclique(m, g.n - m) <= best[0]:
            continue
        n = ref_max_biclique_n(g, m)
        if n >= 3 and genus_biclique(m, n) > best[0]:
            best = (genus_biclique(m, n), f"subgraph K_{{{m},{n}}}",
                    ref_find_biclique(g, m, n))
    return best


def ref_k4_scan(g):
    best = 0
    for q in combinations(range(g.n), 4):
        if all(g.has_edge(a, b) for a, b in combinations(q, 2)):
            try:
                best = max(best, k4_attachment_bound(g, q))
            except HypothesisNotMet:
                pass
    return best


# === Graphs =================================================================


def blow_up(base, sizes, clique):
    """Each vertex v of base becomes a class of sizes[v] twins, true twins
    (a clique) when clique[v] and false twins otherwise."""
    first = [sum(sizes[:v]) for v in range(base.n)]
    copies = [range(first[v], first[v] + sizes[v]) for v in range(base.n)]
    edges = [(a, b) for u, v in base.edges()
             for a in copies[u] for b in copies[v]]
    edges += [e for v in range(base.n) if clique[v]
              for e in combinations(copies[v], 2)]
    return make_graph(sum(sizes), edges)


@st.composite
def twin_graphs(draw, max_base=5):
    """A drawn graph on at most max_base vertices, each vertex blown up
    into a true-twin or false-twin class of 1 to 4 vertices."""
    n = draw(st.integers(1, max_base))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    base = make_graph(n, [e for e, k in zip(pairs, keep) if k])
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    clique = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return blow_up(base, sizes, clique)


def atlas_graphs():
    seen = {}
    for _, t, i in catalog_pairs(64):
        g = ideal_zero_divisor_graph(t, i)
        seen.setdefault((g.n, g.adj), g)
    return list(seen.values())


ATLAS = atlas_graphs()


def universe_k18():
    """The 18-vertex complete graph of a queries-universe pair."""
    t = resolve_ring("Z_4[x,y]/(2x,2y,x²,xy,y²)×Z_3")
    return ideal_zero_divisor_graph(t, resolve_ideal(t, "#17"))


# A K_2 clique class joined to a vertex and to a K_3 clique class.  Its
# 4-cliques meet the classes as {K_2, K_2, K_3, K_3}, whose rest is
# disconnected, or {K_2, K_3, K_3, K_3}, whose rest is an edge: a scan
# that took one bound per set of classes, not per multiset, returns 0.
TWO_PATTERNS_ONE_SET = blow_up(make_graph(3, [(0, 1), (0, 2)]),
                               [2, 1, 3], [True, False, True])


def common_neighbours(g, side):
    common = (1 << g.n) - 1
    for v in side:
        common &= g.adj[v]
    return common


def brute_cliques(g, r):
    return [list(q) for q in combinations(range(g.n), r)
            if all(g.has_edge(a, b) for a, b in combinations(q, 2))]


# === Enumerators ============================================================


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5])
def test_cliques_are_the_sorted_brute_force_on_atlas_graphs(r):
    for g in ATLAS:
        assert list(cliques(g, r)) == brute_cliques(g, r)


@given(twin_graphs(), st.integers(0, 6))
def test_cliques_are_the_sorted_brute_force(g, r):
    assert list(cliques(g, r)) == brute_cliques(g, r)


@given(twin_graphs(), st.integers(1, 4), st.integers(0, 8))
def test_bicliques_are_the_sorted_brute_force(g, m, n):
    want = [(list(a), common_neighbours(g, a))
            for a in combinations(range(g.n), m)
            if common_neighbours(g, a).bit_count() >= n]
    assert list(bicliques(g, m, lambda c: c.bit_count() >= n)) == want


@given(twin_graphs(), st.integers(1, 4), st.integers(0, 8))
def test_bicliques_grow_only_passing_prefixes(g, m, n):
    """Each mask tested, past the rows, extends the common neighbourhood
    of a prefix shorter than m that passed."""
    passing = {common_neighbours(g, a) for k in range(m)
               for a in combinations(range(g.n), k)
               if common_neighbours(g, a).bit_count() >= n}
    tested = []

    def enough(common):
        tested.append(common)
        return common.bit_count() >= n

    for _ in bicliques(g, m, enough):
        pass
    assert tested[:g.n] == list(g.adj)
    assert all(any(c == p & row for p in passing for row in g.adj)
               for c in tested[g.n:])


# === Scans against their references =========================================


def scans_agree(g):
    assert clique_number(g) == ref_clique_number(g)
    for r in range(6):
        assert find_complete_subgraph(g, r) == ref_find_complete_subgraph(g, r)
    for m in range(1, 6):
        for n in range(1, g.n):
            assert find_biclique(g, m, n) == ref_find_biclique(g, m, n)
    assert subgraph_lower_bound(g) == ref_subgraph_lower_bound(g)


def test_scans_match_the_references_on_atlas_graphs():
    for g in ATLAS:
        scans_agree(g)


def test_scans_match_the_references_on_the_universe_k18():
    g = universe_k18()
    assert (g.n, g.m) == (18, 153)
    scans_agree(g)
    assert _k4_scan(g) == ref_k4_scan(g)


@given(twin_graphs())
def test_scans_match_the_references_on_twin_graphs(g):
    scans_agree(g)


def test_k4_scan_matches_the_reference_on_atlas_graphs():
    for g in ATLAS:
        if g.n <= 20:
            assert _k4_scan(g) == ref_k4_scan(g)


@given(twin_graphs())
def test_k4_scan_matches_the_reference_on_twin_graphs(g):
    assert _k4_scan(g) == ref_k4_scan(g)


def test_k4_scan_takes_a_bound_per_multiset_of_classes():
    g = TWO_PATTERNS_ONE_SET
    assert _k4_scan(g) == ref_k4_scan(g) == 1
