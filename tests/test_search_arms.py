"""The genus search's three arms, gated against the plain search.

At each genus level the search runs the plain edge-insertion search capped
at RESTART_NODES nodes, then seeded restarts, then the plain search to the
end.  The reference here is the plain search alone, level by level from the
same certified level: the search the arms replace.  The arms must give the
same bounds and provenance, and within the cap the same rotation and node
count.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zdgenus import (
    certificate_from_json,
    complete_graph,
    complete_multipartite,
    exact_genus,
    face_trace,
    ideal_zero_divisor_graph,
    is_planar,
    make_graph,
)
from zdgenus import genus as genus_module
from zdgenus.catalog import catalog_pairs, catalog_ring
from zdgenus.classify import verify_all
from zdgenus.errors import ZdgenusError
from zdgenus.graphs import canonical_certificate
from zdgenus.ideals import cyclic_ideal

CAP = genus_module.RESTART_NODES
SRC = Path(__file__).resolve().parents[1] / "src"
# the plain search exhausts genus 1 here (in about 16 k nodes), then
# embeds at genus 2
EXHAUSTS_GENUS_1 = make_graph(9, [
    (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 8), (1, 3), (1, 5), (1, 6),
    (2, 3), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 8), (4, 5), (4, 6),
    (4, 7), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8)])


def z32_at_8():
    """Gamma_(8)(Z_32), an atlas graph isomorphic to K_{1,1,1,1,8}."""
    z32 = catalog_ring("Z_32")
    return ideal_zero_divisor_graph(z32, cyclic_ideal(z32, z32.labels.index("8")))


def plain_search(g, budget=10**9):
    """(genus, provenance, rotation, nodes) of the plain search, level by
    level from the certified level; None if budget runs out."""
    level, prov = genus_module._certified_level(g)
    spent = [budget]
    emb = genus_module._Embedder(g, spent)
    try:
        while not emb.search(level):
            prov.append(f"search exhausted genus {level}")
            level += 1
    except genus_module._OutOfBudget:
        return None
    prov.append(f"embedded at genus {level}")
    return level, tuple(prov), emb.found, budget - spent[0]


def arms_search(g):
    """(bounds, nodes) of the three-arm search, bypassing the class cache."""
    spent = [10**9]
    bounds = genus_module._search_genus(g, spent)
    return bounds, 10**9 - spent[0]


@contextmanager
def restart_nodes(cap):
    saved = genus_module.RESTART_NODES
    genus_module.RESTART_NODES = cap
    try:
        yield
    finally:
        genus_module.RESTART_NODES = saved


@contextmanager
def recording_searched_graphs():
    """Collect one graph per isomorphism class handed to the search, with
    an empty class cache so that no call is answered from it."""
    found = {}
    search, cache = genus_module._search_genus, genus_module._GENUS_CACHE

    def record(g, spent):
        if g.m <= genus_module.EXHAUSTIVE_EDGE_CAP:
            found.setdefault(canonical_certificate(g).key, g)
        return search(g, spent)

    genus_module._search_genus, genus_module._GENUS_CACHE = record, {}
    try:
        yield found
    finally:
        genus_module._search_genus, genus_module._GENUS_CACHE = search, cache


@pytest.fixture(scope="module")
def searched_classes():
    """Every class the atlas or `verify all` searches, with its plain
    search.  The budget only shortens the collecting runs; the plain
    search runs to the end."""
    with recording_searched_graphs() as found:
        for _, table, ideal in catalog_pairs(64):
            exact_genus(ideal_zero_divisor_graph(table, ideal), 10**4)
        verify_all(10**4)
    return [(g, plain_search(g)) for g in found.values()]


def test_luby_sequence():
    assert [genus_module._luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_arms_match_the_plain_search_on_catalog_classes(searched_classes):
    # 14 classes from the atlas, 8 more from verify all, K_{1,1,1,1,8}
    # and K_{2,2,2,2,2} among them
    assert len(searched_classes) == 22
    shapes = {(g.n, g.m) for g, _ in searched_classes}
    assert {(12, 38), (10, 40)} <= shapes
    for g, (level, prov, _, _) in searched_classes:
        b = exact_genus(g)
        assert (b.lower, b.upper, b.provenance) == (level, level, prov)
        assert face_trace(g, b.certificate.rotation)[1] == level


def test_classes_settled_within_the_cap_keep_rotation_and_nodes(
        searched_classes):
    within = [(g, ref) for g, ref in searched_classes if ref[3] <= CAP]
    assert len(within) == 20  # all but K_{1,1,1,1,8} and K_{2,2,2,2,2}
    for g, (_, prov, rot, nodes) in within:
        b, spent = arms_search(g)
        assert (b.provenance, b.certificate.rotation, spent) == (
            prov, rot, nodes)


def test_k11118_settles_by_restarts_within_two_caps():
    for g in (complete_multipartite(1, 1, 1, 1, 8), z32_at_8()):
        assert (g.n, g.m) == (12, 38)
        b, spent = arms_search(g)
        assert (b.lower, b.upper) == (3, 3)
        assert b.provenance == ("subgraph K_{4,8}", "embedded at genus 3")
        # more than the first arm's cap, so the restarts found it
        assert CAP < spent <= 2 * CAP


def test_certificate_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    paths = []
    for seed in ("1", "2"):
        path = tmp_path / f"cert-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "zdgenus", "genus", "Z_32", "gen:8",
             "--output", str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "genus: 3" in proc.stdout
        paths.append(path)
    text = paths[0].read_text(encoding="utf-8")
    assert text == paths[1].read_text(encoding="utf-8")
    cert = certificate_from_json(text)
    assert face_trace(z32_at_8(), cert.rotation) == (cert.faces, 3)


def test_restart_rotation_with_a_wrong_genus_raises(monkeypatch):
    g = complete_multipartite(1, 1, 1, 1, 8)
    wrong = genus_module.RotationSystem(
        tuple(tuple(g.neighbors(v)) for v in range(g.n)))
    assert face_trace(g, wrong)[1] != 3
    capture = genus_module._Embedder._capture
    seeded = []

    def capture_wrong_when_seeded(self):
        if self.rng is None:
            return capture(self)
        seeded.append(self.rng)
        return wrong

    monkeypatch.setattr(genus_module._Embedder, "_capture",
                        capture_wrong_when_seeded)
    with pytest.raises(ZdgenusError, match="embedding traced to genus"):
        arms_search(g)
    assert len(seeded) == 1


@st.composite
def small_connected_graphs(draw):
    """A spanning path plus drawn chords on 5 to 9 vertices, relabelled."""
    n = draw(st.integers(5, 9))
    chords = [(u, v) for u, v in combinations(range(n), 2) if v > u + 1]
    keep = draw(st.lists(st.booleans(), min_size=len(chords),
                         max_size=len(chords)))
    perm = draw(st.permutations(range(n)))
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [e for e, k in zip(chords, keep) if k]
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs(), st.sampled_from([1, 10, 100, 1000, CAP]))
@example(complete_graph(7), 10).via("K7, plain arm capped")
@example(EXHAUSTS_GENUS_1, 1000).via("an exhausted level, capped")
@example(EXHAUSTS_GENUS_1, CAP).via("an exhausted level within the cap")
def test_arms_match_the_plain_search_on_drawn_graphs(g, cap):
    assume(not is_planar(g))
    ref = plain_search(g, 2 * 10**4)
    assume(ref is not None)
    level, prov, rot, nodes = ref
    with restart_nodes(cap):
        b, spent = arms_search(g)
    assert (b.lower, b.upper, b.provenance) == (level, level, prov)
    assert face_trace(g, b.certificate.rotation) == (b.certificate.faces,
                                                     level)
    levels = len(prov) - 1
    assert spent <= nodes + 2 * cap * levels
    if nodes <= cap:
        assert (b.certificate.rotation, spent) == (rot, nodes)
