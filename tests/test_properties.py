"""Property-based tests over sampled rings, ideals, and rotations."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from zdgenus import (
    catalog_ring,
    expand,
    face_trace,
    random_rotation,
)
from zdgenus.graphs import (
    clique_number,
    complete_bipartite,
    complete_graph,
    zero_divisor_graph,
)
from zdgenus.graphs import ideal_zero_divisor_graph
from zdgenus.ideals import enumerate_ideals, quotient, validate_ideal
from zdgenus.rings import units

RING_POOL = (
    "Z_6", "Z_8", "Z_9", "Z_12", "Z_16", "Z_27",
    "F_4", "Z_3×Z_3", "Z_2×Z_4",
    "Z_2[x]/(x³)", "Z_4[x]/(x²)", "Z_2[x,y]/(x²,xy,y²)",
)

GRAPH_POOL = tuple(
    [complete_graph(k) for k in range(2, 7)]
    + [complete_bipartite(a, b) for a, b in [(1, 3), (2, 3), (3, 3), (2, 5)]]
    + [zero_divisor_graph(catalog_ring(n)) for n in ("Z_12", "Z_16", "Z_2×Z_4")]
)


@given(st.sampled_from(RING_POOL), st.data())
def test_ring_axioms_hold_on_samples(name, data):
    t = catalog_ring(name)
    idx = st.integers(min_value=0, max_value=t.order - 1)
    a, b, c = data.draw(idx), data.draw(idx), data.draw(idx)
    assert t.add[a][b] == t.add[b][a]
    assert t.mul[a][b] == t.mul[b][a]
    assert t.add[t.add[a][b]][c] == t.add[a][t.add[b][c]]
    assert t.mul[t.mul[a][b]][c] == t.mul[a][t.mul[b][c]]
    assert t.mul[a][t.add[b][c]] == t.add[t.mul[a][b]][t.mul[a][c]]
    assert t.add[a][t.zero] == a
    assert t.mul[a][t.one] == a
    assert t.add[a][t.neg(a)] == t.zero


@given(st.sampled_from(RING_POOL), st.data())
def test_unit_products_are_units(name, data):
    t = catalog_ring(name)
    us = sorted(units(t))
    u = data.draw(st.sampled_from(us))
    v = data.draw(st.sampled_from(us))
    assert t.mul[u][v] in set(us)


@given(st.sampled_from(RING_POOL))
def test_every_enumerated_ideal_validates(name):
    t = catalog_ring(name)
    ideals = enumerate_ideals(t)
    assert all(validate_ideal(i) for i in ideals)
    sizes = [i.size for i in ideals]
    assert sizes[0] == 1 and sizes[-1] == t.order
    assert all(t.order % s == 0 for s in sizes)


@given(st.sampled_from(RING_POOL), st.data())
def test_quotient_projection_is_a_homomorphism(name, data):
    t = catalog_ring(name)
    proper = [i for i in enumerate_ideals(t) if i.size < t.order]
    ideal = data.draw(st.sampled_from(proper))
    q = quotient(t, ideal)
    idx = st.integers(min_value=0, max_value=t.order - 1)
    a, b = data.draw(idx), data.draw(idx)
    p = q.projection
    assert p[t.add[a][b]] == q.table.add[p[a]][p[b]]
    assert p[t.mul[a][b]] == q.table.mul[p[a]][p[b]]


@given(st.sampled_from(RING_POOL), st.data())
def test_vertex_count_scales_with_ideal_size(name, data):
    t = catalog_ring(name)
    proper = [i for i in enumerate_ideals(t) if i.size < t.order]
    ideal = data.draw(st.sampled_from(proper))
    g = ideal_zero_divisor_graph(t, ideal)
    q = quotient(t, ideal)
    assert g.n == ideal.size * zero_divisor_graph(q.table).n


@given(st.sampled_from(GRAPH_POOL), st.integers(min_value=1, max_value=3))
def test_expansion_edge_count_and_fibers(g, t):
    h = expand(g, t)
    assert h.n == g.n * t
    assert h.m == g.m * t * t
    for v in range(g.n):
        fiber = [v * t + a for a in range(t)]
        for x in fiber:
            for y in fiber:
                assert not h.has_edge(x, y)
    if g.m:
        assert clique_number(h) == clique_number(g)


@settings(max_examples=40)
@given(st.sampled_from(GRAPH_POOL), st.integers(min_value=0, max_value=2**16))
def test_random_rotations_satisfy_euler_relation(g, seed):
    rot = random_rotation(g, random.Random(seed))
    faces, genus = face_trace(g, rot)
    assert genus >= 0
    assert g.n - g.m + faces == 2 - 2 * genus
