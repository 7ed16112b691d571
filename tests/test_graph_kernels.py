"""The bitset graph and ideal kernels against the versions they replaced.

The distance BFS with its diameter, girth and components, the element-pair
ideal graph and the power-loop radical test are kept here verbatim as
oracles.  The kernels must agree with them on every catalog ring at every
ideal, and on drawn graphs of up to 24 vertices."""

from itertools import combinations
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgenus import (
    SimpleGraph,
    catalog_ring,
    diameter,
    enumerate_ideals,
    girth,
    ideal_zero_divisor_graph,
    is_connected,
    is_prime,
    is_radical,
    make_graph,
)
from zdgenus.catalog import catalog_entries
from zdgenus.errors import InvalidSpec
from zdgenus.graphs import connected_components
from zdgenus.rings import _elements


# === Oracles ================================================================


def _ref_bfs_dist(g, src, skip_edge=None):
    dist = [inf] * g.n
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            row = g.adj[u]
            if skip_edge is not None and u in skip_edge:
                row &= ~(1 << skip_edge[u])
            for v in _elements(row):
                if dist[v] is inf:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def _ref_is_connected(g):
    if g.n == 0:
        return True
    return all(d is not inf for d in _ref_bfs_dist(g, 0))


def _ref_connected_components(g):
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        dist = _ref_bfs_dist(g, s)
        comp = [v for v in range(g.n) if dist[v] is not inf and not seen[v]]
        for v in comp:
            seen[v] = True
        comps.append(comp)
    return comps


def _ref_diameter(g):
    if g.n == 0:
        return 0
    best = 0
    for s in range(g.n):
        worst = max(_ref_bfs_dist(g, s))
        if worst is inf:
            return inf
        best = max(best, worst)
    return best


def _ref_girth(g):
    """Each edge removed in turn; the endpoint distance in the rest gives
    the best cycle through that edge."""
    edges = g.edges()
    if any(g.adj[u] & g.adj[v] for u, v in edges):
        return 3
    best = inf
    for u, v in edges:
        dist = _ref_bfs_dist(g, u, skip_edge={u: v, v: u})
        if dist[v] is not inf and dist[v] + 1 < best:
            best = dist[v] + 1
    return best


def _ref_ideal_zero_divisor_graph(t, i):
    members = i.members()
    outside = [x for x in range(t.order) if not i.contains(x)]
    verts = []
    for x in outside:
        row = t.mul[x]
        if any(i.contains(row[y]) for y in outside):
            verts.append(x)
    verts.sort(key=lambda x: (min(t.add[x][m] for m in members), x))
    pos = {x: k for k, x in enumerate(verts)}
    edges = [
        (pos[x], pos[y])
        for x, y in combinations(verts, 2)
        if i.contains(t.mul[x][y])
    ]
    return make_graph(len(verts), edges, tuple(t.labels[x] for x in verts))


def _ref_is_radical(i):
    t = i.ring
    for x in range(t.order):
        if i.contains(x):
            continue
        cur = x
        for _ in range(t.order):
            cur = t.mul[cur][x]
            if i.contains(cur):
                return False
    return True


def _ref_asymmetric_pair(n, adj):
    for u in range(n):
        for v in range(u + 1, n):
            if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                return u, v
    return None


# === Catalog ================================================================


def _catalog_ideals():
    for e in catalog_entries():
        t = catalog_ring(e.name)
        for i in enumerate_ideals(t):
            yield e.name, t, i


def _assert_invariants_match(g, tag=""):
    assert is_connected(g) == _ref_is_connected(g), tag
    assert connected_components(g) == _ref_connected_components(g), tag
    assert diameter(g) == _ref_diameter(g), tag
    assert girth(g) == _ref_girth(g), tag


def test_catalog_graphs_match_references():
    seen = 0
    for name, t, i in _catalog_ideals():
        tag = f"{name} {i.describe()}"
        assert is_radical(i) == _ref_is_radical(i), tag
        if i.is_whole():
            continue
        g, ref = ideal_zero_divisor_graph(t, i), \
            _ref_ideal_zero_divisor_graph(t, i)
        assert (g.n, g.adj, g.labels) == (ref.n, ref.adj, ref.labels), tag
        _assert_invariants_match(g, tag)
        seen += i.is_zero()
    assert seen == len(catalog_entries())  # the zero ideal of every ring


def test_prime_iff_empty_graph():
    """R/I is a domain exactly when no element outside I has a partner
    outside I, itself included; so prime ideals give the empty graph."""
    for name, t, i in _catalog_ideals():
        if not i.is_whole():
            assert is_prime(i) == (ideal_zero_divisor_graph(t, i).n == 0), \
                f"{name} {i.describe()}"


# === Drawn graphs ===========================================================


@st.composite
def random_graphs(draw, max_n=24):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return make_graph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def forests(draw, max_n=24):
    """Each vertex after the first picks an earlier parent or none."""
    n = draw(st.integers(0, max_n))
    parents = [draw(st.integers(-1, v - 1)) for v in range(n)]
    return make_graph(n, [(p, v) for v, p in enumerate(parents) if p >= 0])


@st.composite
def cycles_with_chords(draw, parity):
    length = 2 * draw(st.integers(2 - parity, 12 - parity)) + parity
    ring = [(v, (v + 1) % length) for v in range(length)]
    chords = draw(st.lists(st.tuples(st.integers(0, length - 1),
                                     st.integers(0, length - 1)),
                           max_size=4))
    return make_graph(length, ring + [(u, v) for u, v in chords if u != v])


def disjoint_union(g, h):
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return make_graph(g.n + h.n, edges)


small = st.one_of(random_graphs(12), forests(12),
                  cycles_with_chords(0), cycles_with_chords(1))


@given(st.one_of(random_graphs(), forests(), cycles_with_chords(0),
                 cycles_with_chords(1)))
def test_drawn_graphs_match_references(g):
    _assert_invariants_match(g)


@given(small, small)
def test_disconnected_graphs_match_references(g, h):
    _assert_invariants_match(disjoint_union(g, h))


# === SimpleGraph's symmetry check ==========================================


@pytest.mark.parametrize("rows, pair", [
    ((0b0110, 0b0000, 0b0001, 0b0000), (0, 1)),  # one-way above: 0->1
    ((0b0000, 0b0001, 0b0000, 0b0000), (0, 1)),  # one-way below: 1->0
    ((0b1000, 0b0000, 0b0001, 0b0010), (0, 2)),  # 0->3, 2->0, 3->1
], ids=["above-diagonal", "below-diagonal", "several-pairs"])
def test_asymmetric_rows_name_least_pair(rows, pair):
    assert _ref_asymmetric_pair(len(rows), rows) == pair
    with pytest.raises(InvalidSpec,
                       match=f"^asymmetric adjacency {pair[0]},{pair[1]}$"):
        SimpleGraph(len(rows), rows, tuple("abcd"))


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 2 ** n - 1), min_size=n,
                         max_size=n))))
def test_symmetry_check_matches_pairwise_scan(case):
    n, rows = case
    rows = tuple(row & ~(1 << v) for v, row in enumerate(rows))
    pair = _ref_asymmetric_pair(n, rows)
    labels = tuple(str(v) for v in range(n))
    if pair is None:
        assert SimpleGraph(n, rows, labels).adj == rows
    else:
        with pytest.raises(InvalidSpec,
                           match=f"^asymmetric adjacency {pair[0]},{pair[1]}$"):
            SimpleGraph(n, rows, labels)
