import random
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdgenus import (
    certificate_from_json,
    certificate_to_json,
    closed_form_bound,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    euler_lower_bound,
    exact_genus,
    face_trace,
    genus_biclique,
    genus_complete,
    ideal_zero_divisor_graph,
    is_planar,
    k4_attachment_bound,
    make_graph,
    random_rotation,
    subgraph_lower_bound,
)
from zdgenus.classify import attached_k4_graph
from zdgenus.cli import resolve_ideal, resolve_ring
from zdgenus import genus as genus_module
from zdgenus.errors import HypothesisNotMet, InvalidSpec, ZdgenusError
from zdgenus.genus import planar_rotation
from zdgenus.graphs import is_connected

K4_EDGES = [(a, b) for a in range(4) for b in range(a + 1, 4)]
# a K_4 with pendants on vertices 0, 1 and 2; vertex 3 is free
K4_THREE_PENDANTS = make_graph(7, K4_EDGES + [(0, 4), (1, 5), (2, 6)])
# (block, genus); the genus of a graph is the sum over its blocks
BLOCKS = [
    (K4_THREE_PENDANTS, 0),
    (complete_graph(4), 0),
    (complete_graph(5), 1),
    (complete_graph(6), 1),
    (complete_bipartite(2, 3), 0),
    (complete_bipartite(3, 3), 1),
    (complete_bipartite(3, 4), 1),
    (make_graph(5, [(i, (i + 1) % 5) for i in range(5)]), 0),
]


def glue(a, b, va, vb, shared):
    """a and b joined by the bridge va-vb, or with va and vb identified."""
    if not shared:
        return make_graph(a.n + b.n, a.edges() + [(va, a.n + vb)] +
                          [(a.n + u, a.n + v) for u, v in b.edges()])
    others = [v for v in range(b.n) if v != vb]
    new = {vb: va, **{v: a.n + k for k, v in enumerate(others)}}
    return make_graph(a.n + b.n - 1,
                      a.edges() + [(new[u], new[v]) for u, v in b.edges()])


def test_genus_complete_formula():
    assert [genus_complete(n) for n in range(3, 9)] == [0, 0, 1, 1, 1, 2]
    assert genus_complete(12) == 6


def test_genus_biclique_formula():
    assert genus_biclique(2, 7) == 0
    assert genus_biclique(3, 3) == 1
    assert genus_biclique(4, 4) == 1
    assert genus_biclique(4, 6) == 2
    assert genus_biclique(5, 5) == 3
    assert genus_biclique(3, 9) == 2


def test_euler_lower_bound():
    assert euler_lower_bound(complete_graph(7)) == 1
    assert euler_lower_bound(complete_graph(8)) == 2
    # bipartite graphs use the quadrilateral form
    assert euler_lower_bound(complete_bipartite(4, 4)) == 1
    assert euler_lower_bound(complete_bipartite(5, 5)) == 3


def test_subgraph_lower_bound():
    assert subgraph_lower_bound(complete_graph(8)) == (2, "subgraph K_8", None)
    k22222 = complete_multipartite(2, 2, 2, 2, 2)
    assert subgraph_lower_bound(k22222).value == 2
    # a K_{m,n} is kept with its sides
    assert subgraph_lower_bound(complete_bipartite(5, 9)) == (
        6, "subgraph K_{5,9}", ([0, 1, 2, 3, 4], list(range(5, 14))))


def test_is_planar():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert planar_rotation(complete_graph(5)) is None


def test_closed_form_bound_prefers_euler_on_ties():
    assert closed_form_bound(complete_graph(8)) == (2, "euler bound 2", None)
    assert closed_form_bound(complete_bipartite(3, 3)) == (
        1, "euler bound 1", None)
    k5_pendant = make_graph(6, complete_graph(5).edges() + [(4, 5)])
    assert closed_form_bound(k5_pendant) == (1, "subgraph K_5", None)


def test_exact_genus_planar():
    b = exact_genus(make_graph(3, [(0, 1), (1, 2)]))
    assert (b.lower, b.upper) == (0, 0)
    assert b.provenance == ("planar embedding",)


def test_exact_genus_empty():
    b = exact_genus(make_graph(0, []))
    assert (b.lower, b.upper) == (0, 0)


def test_exact_genus_k5():
    b = exact_genus(complete_graph(5))
    assert (b.lower, b.upper) == (1, 1)
    assert b.certificate.faces == 5  # 10 - 5 + 2 - 2*1
    faces, genus = face_trace(complete_graph(5), b.certificate.rotation)
    assert (faces, genus) == (5, 1)


def test_exact_genus_k33():
    b = exact_genus(complete_bipartite(3, 3))
    assert (b.lower, b.upper) == (1, 1)
    assert b.certificate.faces == 3


# K_5 with the edge 0-1 subdivided: no Euler or subgraph bound reaches 1
K5_SUBDIVIDED = make_graph(6, [e for e in complete_graph(5).edges()
                               if e != (0, 1)] + [(0, 5), (5, 1)])


@pytest.mark.parametrize("g,source", [
    (complete_graph(6), "euler bound 1"),
    (complete_graph(5), "euler bound 1"),
    (complete_bipartite(3, 3), "euler bound 1"),
    (K5_SUBDIVIDED, "nonplanar"),
])
def test_genus_one_names_its_source(g, source):
    """The closed-form source of the level 1 is kept; "nonplanar" names
    the Kuratowski witness only when it is the sole source."""
    assert exact_genus(g).provenance == (source, "embedded at genus 1")


def test_exact_genus_matches_formulas():
    for n in range(3, 8):
        b = exact_genus(complete_graph(n))
        assert b.lower == b.upper == genus_complete(n)
    for m, n in [(2, 4), (3, 3), (3, 4), (4, 4)]:
        b = exact_genus(complete_bipartite(m, n))
        assert b.lower == b.upper == genus_biclique(m, n)


def test_budget_is_one_pool_across_components():
    k7 = complete_graph(7)
    b = exact_genus(k7, 78)
    assert (b.lower, b.upper) == (1, 1)
    two = make_graph(14, k7.edges() + [(u + 7, v + 7) for u, v in k7.edges()])
    b = exact_genus(two, 78)
    assert (b.lower, b.upper) == (2, None)
    assert "budget exhausted" in b.provenance


def test_budget_exhaustion_returns_bounds():
    b = exact_genus(complete_multipartite(2, 2, 2, 2, 2), 10**4)
    assert b.lower == 3 and b.upper is None
    assert "budget exhausted" in b.provenance
    assert b.certificate is None


def test_edge_cap_returns_bounds():
    b = exact_genus(complete_graph(12))  # 66 edges, beyond the search cap
    assert b.upper is None
    assert any("too many edges" in p for p in b.provenance)
    assert b.lower >= genus_complete(12) // 2  # still a real lower bound


def test_face_trace_euler_relation():
    rng = random.Random(7)
    for g in [complete_graph(5), complete_bipartite(3, 4),
              complete_multipartite(2, 2, 2)]:
        for _ in range(50):
            rot = random_rotation(g, rng)
            faces, genus = face_trace(g, rot)
            assert genus >= 0
            assert g.n - g.m + faces == 2 - 2 * genus


def test_k4_attachment_bound_on_h():
    h, quad = attached_k4_graph()
    assert (h.n, h.m) == (14, 39)
    assert k4_attachment_bound(h, quad) == 2


def test_k4_attachment_bound_hypotheses():
    g = complete_bipartite(4, 4)
    with pytest.raises(HypothesisNotMet):
        k4_attachment_bound(g, (0, 1, 2, 3))  # one side: not a clique
    with pytest.raises(HypothesisNotMet):
        k4_attachment_bound(complete_graph(4), (0, 1, 2, 3))  # nothing outside
    # a pendant on every vertex: planar, and the rest is disconnected
    pendants = make_graph(8, K4_EDGES + [(v, v + 4) for v in range(4)])
    with pytest.raises(HypothesisNotMet):
        k4_attachment_bound(pendants, (0, 1, 2, 3))


def test_exact_genus_h_is_bounded_by_attached_k4():
    h, _ = attached_k4_graph()
    assert exact_genus(h).provenance[0] == "attached K4 bound 2"


def test_attached_k4_scan_beats_closed_form_on_universe_pair():
    # a pair of the benchmark's queries universe where the attached-K4
    # scan, not the closed form, sets the bound; the benchmark's reference
    # interval there is [3, unknown], so it would not see the bound fall
    # back to the closed form's 3
    t = resolve_ring("Z_2×Z_2[x,y]/(x³,xy,y²-x²)")
    g = ideal_zero_divisor_graph(t, resolve_ideal(t, "#2"))
    assert (g.n, g.m) == (14, 47)
    assert closed_form_bound(g)[0] == 3
    b = exact_genus(g, 10**6)
    assert (b.lower, b.upper) == (4, None)
    assert b.provenance == ("attached K4 bound 4", "too many edges for search")


def test_exact_genus_k4_bridged_to_k5():
    g = glue(K4_THREE_PENDANTS, complete_graph(5), 3, 0, False)
    assert (g.n, g.m) == (12, 20)
    b = exact_genus(g)
    assert (b.lower, b.upper) == (1, 1)
    assert face_trace(g, b.certificate.rotation)[1] == 1


@given(st.data(), st.sampled_from(BLOCKS), st.sampled_from(BLOCKS),
       st.booleans())
@example(None, BLOCKS[0], BLOCKS[2], False).via("K4 bridged to K5")
@example(None, BLOCKS[0], BLOCKS[3], True).via("K4 sharing a vertex of K6")
def test_exact_genus_adds_over_blocks(data, a, b, shared):
    (ga, gen_a), (gb, gen_b) = a, b
    if data is None:  # the explicit examples glue at the free K_4 vertex
        va, vb = 3, 0
    else:
        va = data.draw(st.integers(0, ga.n - 1))
        vb = data.draw(st.integers(0, gb.n - 1))
    bounds = exact_genus(glue(ga, gb, va, vb, shared))
    assert (bounds.lower, bounds.upper) == (gen_a + gen_b, gen_a + gen_b)


def test_certificate_json_round_trip():
    g = complete_graph(5)
    b = exact_genus(g)
    text = certificate_to_json(g, b.certificate)
    back = certificate_from_json(text)
    assert back.genus == 1 and back.faces == 5
    faces, genus = face_trace(g, back.rotation)
    assert (faces, genus) == (back.faces, back.genus)


@pytest.mark.parametrize("text", [
    "not json",
    "[]",
    '{"format": "zdgenus-embedding-0"}',
    '{"format": "zdgenus-embedding-1", "faces": 5, "genus": 1}',
    '{"format": "zdgenus-embedding-1", "faces": 5, "genus": 1,'
    ' "rotation": [["a"]]}',
    # int() would read these as vertex 1, 1 face and genus 1
    '{"format": "zdgenus-embedding-1", "faces": 5, "genus": 1,'
    ' "rotation": [[1.5]]}',
    '{"format": "zdgenus-embedding-1", "faces": 5, "genus": 1,'
    ' "rotation": [[true]]}',
    '{"format": "zdgenus-embedding-1", "faces": 1.0, "genus": 1,'
    ' "rotation": [[]]}',
    '{"format": "zdgenus-embedding-1", "faces": 5, "genus": "1",'
    ' "rotation": [[]]}',
])
def test_malformed_certificate_json_raises_invalid_spec(text):
    with pytest.raises(InvalidSpec):
        certificate_from_json(text)


def test_deeply_nested_certificate_json_raises_invalid_spec():
    # nested past the recursion limit, as spec_from_json is tested too
    with pytest.raises(InvalidSpec):
        certificate_from_json("[" * 100000)


@pytest.mark.parametrize("g", [complete_graph(4), complete_graph(5)],
                         ids=["planar", "searched"])
def test_wrong_traced_genus_raises_zdgenus_error(monkeypatch, g):
    true_trace = genus_module.face_trace

    def off_by_one(graph, rot):
        faces, genus = true_trace(graph, rot)
        return faces, genus + 1

    monkeypatch.setattr(genus_module, "face_trace", off_by_one)
    with pytest.raises(ZdgenusError):
        exact_genus(g)


# === Brute-force oracle =====================================================
#
# The oracle enumerates every rotation system of a tiny connected graph, so
# it shares nothing with the edge-insertion search but the definition of a
# face.

ORACLE_CAP = 10**4  # rotation systems per graph
PETERSEN = make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])


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
@given(tiny_connected_graphs())
@example(complete_graph(5)).via("K5")
@example(complete_bipartite(3, 3)).via("K33")
def test_exact_genus_matches_oracle(g):
    assert is_connected(g) and rotation_count(g) <= ORACLE_CAP
    want = oracle_genus(g)
    b = exact_genus(g)
    assert (b.lower, b.upper) == (want, want)
    assert face_trace(g, b.certificate.rotation) == (b.certificate.faces,
                                                     want)
