"""The genus search pinned to fixed node counts, rotations and certificate
bytes.

A change to the edge-insertion search that keeps its step order and its
move order must leave every figure here as it is.  The node counts are
those `_search_genus` charges from the certified level; the digest is the
SHA-256 of the found rotation as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from zdgenus import (
    complete_graph,
    complete_multipartite,
    exact_genus,
    ideal_zero_divisor_graph,
    make_graph,
)
from zdgenus import genus as genus_module
from zdgenus import graphs as graphs_module
from zdgenus.cli import atlas_rows, resolve_ideal, resolve_ring

from test_search_arms import EXHAUSTS_GENUS_1, SRC

PETERSEN = make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])

# name: (graph, genus, nodes, rotation digest prefix)
PINNED = {
    "K_5": (complete_graph(5), 1, 10, "10ffd744e451b992"),
    "K_{3,3}": (complete_multipartite(3, 3), 1, 9, "0f58af685014314e"),
    "K_7": (complete_graph(7), 1, 78, "6f5e03ab37e375a8"),
    "K_8": (complete_graph(8), 2, 304, "d8fbf86c16a94fb0"),
    "K_{4,5}": (complete_multipartite(4, 5), 2, 20, "1ee19343d8548f32"),
    "Petersen": (PETERSEN, 1, 15, "04b57d36b54f12eb"),
    "EXHAUSTS_GENUS_1": (EXHAUSTS_GENUS_1, 2, 16171, "006c3dfd524bba46"),
    # certified at 3 by a tight K_{4,8}, so its witness goes first
    "K_{1,1,1,1,8}": (complete_multipartite(1, 1, 1, 1, 8), 3, 53,
                      "9ea64212f0d53f96"),
}
# (ring, ideal): (lower, upper, provenance, nodes) of the zero-divisor graph
UNIVERSE = {
    ("Z_3×Z_12", "#7"): (3, 3, ("euler bound 3", "embedded at genus 3"),
                         29_156),
    # a tight K_{3,6} at genus 1, so its witness goes first
    ("Z_2×Z_16", "#0"): (2, 2, ("subgraph K_{3,6}", "search exhausted genus 1",
                                "embedded at genus 2"), 21_549),
    # a K_{3,5} is not tight, so the vertex order stays
    ("Z_2×Z_12", "#0"): (2, 2, ("subgraph K_{3,5}", "search exhausted genus 1",
                                "embedded at genus 2"), 24_453),
}
# the atlas's distinct graphs at the default budget, and the nodes their
# exact_genus calls charge in all
ATLAS_SEARCH_EFFORT = (33, 971)
Z32_GEN8_CERT_SHA256 = (
    "12476af64b90226edd83ebd040afc3150de91d69f8cbe79e96da69686009e2e7")


def assert_pinned(name):
    g, level, nodes, digest = PINNED[name]
    spent = [10**9]
    b = genus_module._search_genus(g, spent)
    rot = json.dumps(b.certificate.rotation.order).encode()
    assert (b.upper, 10**9 - spent[0]) == (level, nodes)
    assert hashlib.sha256(rot).hexdigest()[:16] == digest


@pytest.mark.parametrize("name", list(PINNED))
def test_search_keeps_nodes_and_rotation(name):
    assert_pinned(name)


@pytest.mark.parametrize("ring,ideal", list(UNIVERSE))
def test_search_keeps_bounds_and_nodes_on_universe_graphs(ring, ideal):
    t = resolve_ring(ring)
    g = ideal_zero_divisor_graph(t, resolve_ideal(t, ideal))
    spent = [10**9]
    b = genus_module._search_genus(g, spent)
    assert (b.lower, b.upper, b.provenance, 10**9 - spent[0]) == UNIVERSE[
        ring, ideal]


def test_search_takes_the_witness_from_the_bound(monkeypatch):
    """The witness-first steps come from the certified level's record, with
    no second biclique scan."""

    def refuse(*args):
        raise RuntimeError("find_biclique called on the search path")

    monkeypatch.setattr(graphs_module, "find_biclique", refuse)
    monkeypatch.setattr(genus_module, "find_biclique", refuse, raising=False)
    assert_pinned("K_{1,1,1,1,8}")


def test_z32_gen8_certificate_bytes(tmp_path):
    path = tmp_path / "cert.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "zdgenus", "genus", "Z_32", "gen:8",
         "--output", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == Z32_GEN8_CERT_SHA256


def test_atlas_search_effort(monkeypatch):
    charged = []

    def record(g, budget):
        spent = [budget]
        b = genus_module._exact_genus(g, spent)
        charged.append(budget - spent[0])
        return b

    monkeypatch.setattr(genus_module, "exact_genus", record)
    atlas_rows(64, 10**8)
    assert (len(charged), sum(charged)) == ATLAS_SEARCH_EFFORT


def test_exhausted_level_gives_every_face_id_back():
    g = EXHAUSTS_GENUS_1
    emb = genus_module._Embedder(g, [10**9], genus_module._build_steps(g))
    assert not emb.search(1)
    assert (emb.fresh, emb.gcur) == (0, 0)
    assert emb.darts_at == [[] for _ in range(g.n)]


def test_failed_step_leaves_every_placed_face_as_it_found_it():
    """A step's moves carry face ids read before any of them is tried, so
    each move undone must give back the faces and rotations it found."""
    g = EXHAUSTS_GENUS_1
    emb = genus_module._Embedder(g, [10**9], genus_module._build_steps(g))
    rec = emb._rec
    failed = [0]

    def checked(si):
        placed = 2 * si  # steps before si own darts 0 .. 2si - 1
        before = (emb.face[:placed], emb.nxt[:placed], emb.gcur, emb.fresh)
        if rec(si):
            return True
        after = (emb.face[:placed], emb.nxt[:placed], emb.gcur, emb.fresh)
        assert after == before, f"step {si}"
        failed[0] += 1
        return False

    emb._rec = checked
    assert not emb.search(1)
    assert failed[0] > 1


def test_face_ids_stay_within_twice_the_steps():
    g = complete_multipartite(2, 2, 2, 2, 2)
    steps = genus_module._build_steps(g)
    emb = genus_module._Embedder(g, [10**5], steps)
    top = [0]
    retrace = emb._retrace

    def record(start, fid):
        top[0] = max(top[0], fid)
        return retrace(start, fid)

    emb._retrace = record
    # genus 3 takes about 2 M nodes here, so the walk runs out first
    with pytest.raises(genus_module._OutOfBudget):
        emb.search(3)
    assert 0 < top[0] <= 2 * len(steps)


def test_over_cap_graph_is_bounded_without_a_search():
    # K_50 has 1 225 edges, more than the default recursion limit of 1 000
    # frames, so a search allowed past the cap must bound its depth first
    b = exact_genus(complete_graph(50), 10**4)
    assert (b.lower, b.upper) == (181, None)
    assert b.provenance[-1] == "too many edges for search"
