"""The genus search's schedule, gated against the search it replaced.

At each genus level one plain edge-insertion search, resumed slice by
slice, alternates with seeded restarts: slice i gives the plain search
100 * luby(i) more nodes, then restart i runs for as many, until the
restarts have spent RESTART_NODES nodes; then the plain search runs on
alone.  The references kept here are the recursive embedder and the
three-arm level search that came before (the plain search capped at
RESTART_NODES, then the restarts, then the plain search from scratch),
verbatim but for their names and the steps the recursive embedder may be
handed.  The plain search and every restart run must walk exactly as the
reference's did over the same steps, a paused run must resume at the pair
it stopped before, and the schedule must give the plain search's bounds and
provenance, spending at most min(p, RESTART_NODES) more nodes on a level
that the plain search settles in p nodes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from math import inf
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
from zdgenus.cli import resolve_ideal, resolve_ring
from zdgenus.classify import verify_all
from zdgenus.errors import ZdgenusError
from zdgenus.genus import RotationSystem, _luby, _OutOfBudget
from zdgenus.graphs import SimpleGraph, canonical_certificate
from zdgenus.ideals import cyclic_ideal

CAP = genus_module.RESTART_NODES
SRC = Path(__file__).resolve().parents[1] / "src"
# the plain search exhausts genus 1 here (in about 16 k nodes), then
# embeds at genus 2
EXHAUSTS_GENUS_1 = make_graph(9, [
    (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 8), (1, 3), (1, 5), (1, 6),
    (2, 3), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 8), (4, 5), (4, 6),
    (4, 7), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8)])


# === References =============================================================
#
# The recursive embedder and the three-arm level search as they were before
# the walk kept its own stack.  Only the names differ, and the level search
# reads RESTART_NODES through the module, so that restart_nodes below sets
# it for both.


class _RefEmbedder:
    """Backtracking edge-insertion search for an embedding of target genus.

    Vertices are added one by one; each step inserts one edge (v, u) from
    the new vertex v back to a placed u, with darts a out of v and a ^ 1
    out of u, after a corner at each end.  There are three kinds of move.
    A vertex's first edge starts its rotation (a None corner) and extends
    the face of the corner taken at u.  Any later edge joins two corners:
    of one face, which it splits in two, or of two faces, which it merges,
    adding a handle.  Same-face pairs are tried before cross pairs, and
    cross pairs only below the target genus."""

    def __init__(self, g: SimpleGraph, budget: list[int], rng=None,
                 steps=None):
        self.g = g
        self.budget = budget
        self.rng = rng
        self.steps = self._build_steps() if steps is None else steps
        # the target vertex of each dart
        self.tgt = [w for v, u, _, _ in self.steps for w in (u, v)]
        self.nxt = [0] * len(self.tgt)
        self.face = [0] * len(self.tgt)
        self.darts_at: list[list[int]] = [[] for _ in range(g.n)]
        self.gcur = 0
        self.fresh = 0
        self.found: RotationSystem | None = None

    def _build_steps(self):
        """Steps (v, u, dart out of v, first edge of v), in vertex order;
        step s owns darts 2s, from v to u, and 2s + 1."""
        g = self.g
        first = max(range(g.n), key=lambda v: (g.degree(v), -v))
        order = [first]
        placed = {first}
        while len(order) < g.n:
            nv = max(
                (v for v in range(g.n) if v not in placed),
                key=lambda v: (
                    (g.adj[v] & sum(1 << p for p in placed)).bit_count(),
                    g.degree(v),
                    -v,
                ),
            )
            order.append(nv)
            placed.add(nv)
        pos = {v: i for i, v in enumerate(order)}
        steps = []
        for v in order[1:]:
            backs = sorted(
                (u for u in g.neighbors(v) if pos[u] < pos[v]),
                key=lambda u: pos[u],
            )
            for j, u in enumerate(backs):
                steps.append((v, u, 2 * len(steps), j == 0))
        return steps

    def _retrace(self, start: int, fid: int):
        face, nxt = self.face, self.nxt
        changed = []
        d = start
        while True:
            changed.append((d, face[d]))
            face[d] = fid
            d = nxt[d ^ 1]
            if d == start:
                return changed

    def _place(self, step, c_v, c_u):
        """Insert the step's edge after dart c_v at v and c_u at u, a None
        corner starting that vertex's rotation; returns the undo frame."""
        v, u, a, _ = step
        b = a ^ 1
        nxt = self.nxt
        for d, c in ((a, c_v), (b, c_u)):
            if c is None:
                nxt[d] = d
            else:
                nxt[d] = nxt[c]
                nxt[c] = d
        self.fresh += 1
        changed = self._retrace(a, self.fresh)
        handle = False
        if self.face[b] != self.fresh:
            # b is not on a's face: the edge split one face in two
            self.fresh += 1
            changed += self._retrace(b, self.fresh)
        elif c_v is not None:
            # a and b on one face after joining two corners: two faces
            # merged, one more handle
            handle = True
            self.gcur += 1
        self.darts_at[v].append(a)
        self.darts_at[u].append(b)
        return c_v, c_u, changed, handle

    def _undo(self, step, frame):
        v, u, a, _ = step
        c_v, c_u, changed, handle = frame
        self.darts_at[u].pop()
        self.darts_at[v].pop()
        for d, old in reversed(changed):
            self.face[d] = old
        self.gcur -= handle
        if c_u is not None:
            self.nxt[c_u] = self.nxt[a ^ 1]
        if c_v is not None:
            self.nxt[c_v] = self.nxt[a]

    def _capture(self) -> RotationSystem:
        order = []
        for v in range(self.g.n):
            start = self.darts_at[v][0]
            seq = []
            d = start
            while True:
                seq.append(self.tgt[d])
                d = self.nxt[d]
                if d == start:
                    break
            order.append(tuple(seq))
        return RotationSystem(tuple(order))

    def search(self, target: int, cap=inf) -> bool | None:
        """True with the embedding in self.found, False when g has none of
        genus target, None when cap nodes settle neither; a capped run
        leaves the embedder unusable.  The nodes are charged to the budget
        cell at the end, and running it out raises _OutOfBudget."""
        self.target = target
        budget = self.budget[0]
        self.left = start = min(cap, budget)
        try:
            return self._rec(0)
        except _OutOfBudget:
            if cap >= budget:
                raise
            self.left = 0  # the refused node is not charged
            return None
        finally:
            self.budget[0] -= start - self.left

    def _rec(self, si: int) -> bool:
        if si == len(self.steps):
            self.found = self._capture()
            return True
        step = self.steps[si]
        v, u, _, first = step
        if first:
            tiers = ([(None, c_u) for c_u in self.darts_at[u] or [None]],)
        else:
            # the face of the corner after dart d is face[nxt[d]]
            face, nxt = self.face, self.nxt
            if self.gcur == self.target:
                fv = {face[nxt[d]] for d in self.darts_at[v]}
                j = si
                while j < len(self.steps) and self.steps[j][0] == v:
                    fu = {face[nxt[d]] for d in self.darts_at[self.steps[j][1]]}
                    if fv.isdisjoint(fu):
                        return False
                    j += 1
            tiers = ([], [])
            allow_cross = self.gcur < self.target
            corners_u = [(c_u, face[nxt[c_u]]) for c_u in self.darts_at[u]]
            for c_v in self.darts_at[v]:
                f_v = face[nxt[c_v]]
                for c_u, f_u in corners_u:
                    if f_v == f_u:
                        tiers[0].append((c_v, c_u))
                    elif allow_cross:
                        tiers[1].append((c_v, c_u))
        for pairs in tiers:
            if self.rng is not None:
                self.rng.shuffle(pairs)
            for c_v, c_u in pairs:
                self.left -= 1
                if self.left < 0:
                    raise _OutOfBudget
                frame = self._place(step, c_v, c_u)
                if self._rec(si + 1):
                    return True
                self._undo(step, frame)
        return False


def _ref_search_level(g: SimpleGraph, spent: list[int], target: int
                      ) -> RotationSystem | None:
    """An embedding of g at genus target, or None when there is none.

    Three arms, all charged to spent: the plain search capped at
    RESTART_NODES; then seeded restarts, run i shuffling its corner pairs
    and anchors with random.Random(i) and capped at 100 * luby(i), at most
    RESTART_NODES nodes in all; then the plain search to the end.  A
    shuffled run walks the same tree in another order, so the arms differ
    only in which embedding they meet first."""
    emb = _RefEmbedder(g, spent)
    done = emb.search(target, genus_module.RESTART_NODES)
    i, left = 0, genus_module.RESTART_NODES
    while done is None and left:
        i += 1
        cap = min(100 * _luby(i), left)
        left -= cap
        emb = _RefEmbedder(g, spent, random.Random(i))
        done = emb.search(target, cap)
    if done is None:
        emb = _RefEmbedder(g, spent)
        done = emb.search(target)
    return emb.found if done else None


# === Helpers ================================================================


def z32_at_8():
    """Gamma_(8)(Z_32), an atlas graph isomorphic to K_{1,1,1,1,8}."""
    z32 = catalog_ring("Z_32")
    return ideal_zero_divisor_graph(z32, cyclic_ideal(z32, z32.labels.index("8")))


def z3xz12_at_7():
    """Gamma_(#7)(Z_3×Z_12), a universe graph that a restart settles before
    the plain search does."""
    t = resolve_ring("Z_3×Z_12")
    return ideal_zero_divisor_graph(t, resolve_ideal(t, "#7"))


def new_embedder(g, spent, rng=None, steps=None):
    """An embedder over the given steps, by default those in vertex order."""
    if steps is None:
        steps = genus_module._build_steps(g)
    return genus_module._Embedder(g, spent, steps, rng)


def search_steps(g, level, prov):
    """The steps `_search_genus` builds at the certified level and its
    provenance: the tight witness's edges first, if it has one."""
    return genus_module._build_steps(
        g, genus_module._tight_witness(g, level, prov))


def plain_search(g, budget=10**9, embedder=new_embedder):
    """(genus, provenance, rotation, nodes per level) of the plain search
    over the steps `_search_genus` builds, level by level from the
    certified level; None if budget runs out."""
    level, prov = genus_module._certified_level(g)
    spent = [budget]
    emb = embedder(g, spent, steps=search_steps(g, level, prov))
    nodes = []
    try:
        while True:
            before = spent[0]
            done = emb.search(level)
            nodes.append(before - spent[0])
            if done:
                break
            prov.append(f"search exhausted genus {level}")
            level += 1
    except _OutOfBudget:
        return None
    prov.append(f"embedded at genus {level}")
    return level, tuple(prov), emb.found, tuple(nodes)


def arms_search(g):
    """(bounds, nodes) of the search, bypassing the class cache."""
    spent = [10**9]
    bounds = genus_module._search_genus(g, spent)
    return bounds, 10**9 - spent[0]


def ref_arms_search(g):
    """arms_search with the reference's three arms at every level."""
    saved = genus_module._search_level
    genus_module._search_level = (
        lambda g, spent, target, steps: _ref_search_level(g, spent, target))
    try:
        return arms_search(g)
    finally:
        genus_module._search_level = saved


def within_restarts(nodes, cap):
    """The most the search may spend on levels the plain search settles in
    the given nodes: the restarts never outspend the plain search."""
    return sum(p + min(p, cap) for p in nodes)


def run_outcome(emb, spent, nodes=inf):
    """(outcome, nodes charged, rotation, rng state) of emb.run(nodes)."""
    before = spent[0]
    done = emb.run(nodes)
    return (done, before - spent[0], emb.found,
            emb.rng.getstate() if emb.rng else None)


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
    """Every class the atlas or `verify all` searches.  The budget only
    shortens the collecting runs."""
    with recording_searched_graphs() as found:
        for _, table, ideal in catalog_pairs(64):
            exact_genus(ideal_zero_divisor_graph(table, ideal), 10**4)
        verify_all(10**4)
    return list(found.values())


@pytest.fixture(scope="module")
def plain_runs(searched_classes):
    """The plain search of each searched class, run to the end."""
    return [plain_search(g) for g in searched_classes]


def test_luby_sequence():
    assert [genus_module._luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_plain_search_matches_the_reference_on_catalog_classes(
        searched_classes, plain_runs):
    # 14 classes from the atlas, 8 more from verify all
    assert len(searched_classes) == 22
    pins = {(10, 40): 1_961_939,  # K_{2,2,2,2,2}, not walked twice
            (12, 38): 53}  # K_{1,1,1,1,8}, with its K_{4,8} first
    assert sorted((g.n, g.m) for g in searched_classes
                  if (g.n, g.m) in pins) == sorted(pins)
    for g, run in zip(searched_classes, plain_runs):
        if (g.n, g.m) in pins:
            assert sum(run[3]) == pins[g.n, g.m]
        if (g.n, g.m) != (10, 40):
            assert run == plain_search(g, embedder=_RefEmbedder)


def test_arms_match_the_plain_search_on_catalog_classes(
        searched_classes, plain_runs):
    for g, (level, prov, _, _) in zip(searched_classes, plain_runs):
        b = exact_genus(g)
        assert (b.lower, b.upper, b.provenance) == (level, level, prov)
        assert face_trace(g, b.certificate.rotation)[1] == level


def test_classes_settled_in_the_first_slice_keep_rotation_and_nodes(
        searched_classes, plain_runs):
    # K_{2,2,2,2,2} is left out: its plain search takes 1.96 M nodes, and
    # the drawn graphs below check the same bound with small caps
    runs = [(g, run) for g, run in zip(searched_classes, plain_runs)
            if sum(run[3]) < 10**6]
    assert len(runs) == 21
    quick = 0
    for g, (_, prov, rot, nodes) in runs:
        b, spent = arms_search(g)
        assert b.provenance == prov
        assert spent <= within_restarts(nodes, CAP)
        if sum(nodes) <= 100:
            # settled in the plain search's first slice
            quick += 1
            assert (b.certificate.rotation, spent) == (rot, sum(nodes))
    assert quick == 18


def test_z3xz12_7_settles_by_the_reference_restart_in_the_first_slice():
    g = z3xz12_at_7()
    assert (g.n, g.m) == (9, 36)
    level, prov, rot, nodes = plain_search(g)
    assert (level, prov, nodes) == (
        3, ("euler bound 3", "embedded at genus 3"), (29_156,))
    b, spent = arms_search(g)
    assert (b.lower, b.upper, b.provenance) == (level, level, prov)
    # the plain search's first slice of 100 nodes, then restart 1, which
    # embeds it as the reference's restart 1 does
    ref_spent = [10**9]
    ref = _RefEmbedder(g, ref_spent, random.Random(1),
                       search_steps(g, *genus_module._certified_level(g)))
    assert ref.search(level, 100)
    assert spent == 100 + 10**9 - ref_spent[0] == 160
    assert b.certificate.rotation == ref.found != rot


def test_restart_runs_match_the_reference_on_k11118():
    g = complete_multipartite(1, 1, 1, 1, 8)
    settled = []
    for i in range(1, 65):
        outcomes = []
        for embedder in (new_embedder, _RefEmbedder):
            spent = [10**9]
            emb = embedder(g, spent, random.Random(i))
            done = emb.search(3, 100 * _luby(i))
            outcomes.append((done, 10**9 - spent[0], emb.found,
                             emb.rng.getstate()))
        assert outcomes[0] == outcomes[1]
        if outcomes[0][0]:
            settled.append(i)
    # in vertex order, restart 63 is the first to embed it
    assert settled[0] == 63


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
    g = z3xz12_at_7()
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
@example(complete_graph(7), 10).via("K7, settled in the first slice")
@example(EXHAUSTS_GENUS_1, 1000).via("an exhausted level, few restarts")
@example(EXHAUSTS_GENUS_1, CAP).via("an exhausted level")
def test_arms_match_the_plain_search_on_drawn_graphs(g, cap):
    assume(not is_planar(g))
    ref = plain_search(g, 2 * 10**4, embedder=_RefEmbedder)
    assume(ref is not None)
    assert plain_search(g, 2 * 10**4) == ref
    level, prov, rot, nodes = ref
    with restart_nodes(cap):
        b, spent = arms_search(g)
        three_arms, _ = ref_arms_search(g)
    assert (b.lower, b.upper, b.provenance) == (level, level, prov)
    assert (three_arms.lower, three_arms.upper, three_arms.provenance) == (
        level, level, prov)
    assert face_trace(g, b.certificate.rotation) == (b.certificate.faces,
                                                     level)
    assert spent <= within_restarts(nodes, cap)
    if sum(nodes) <= 100:
        assert (b.certificate.rotation, spent) == (rot, sum(nodes))


@settings(max_examples=30, deadline=None)
@given(small_connected_graphs(), st.integers(1, 8))
@example(complete_graph(7), 1).via("K7")
def test_restart_runs_match_the_reference_on_drawn_graphs(g, i):
    assume(not is_planar(g))
    level, _ = genus_module._certified_level(g)
    outcomes = []
    for embedder in (new_embedder, _RefEmbedder):
        spent = [10**9]
        emb = embedder(g, spent, random.Random(i))
        done = emb.search(level, 100 * _luby(i))
        outcomes.append((done, 10**9 - spent[0], emb.found,
                         emb.rng.getstate()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs(), st.sampled_from([None, 1, 2, 3]),
       st.lists(st.integers(1, 300), min_size=1, max_size=12))
@example(complete_graph(7), None, [1] * 78).via("K7, one node a run")
@example(EXHAUSTS_GENUS_1, 2, [1, 2, 3, 5, 8, 13] * 30).via(
    "a seeded run paused often")
def test_runs_resume_where_they_stopped(g, seed, slices):
    """Runs of a, b, ... nodes reach what one run of a + b + ... does, and
    the walks then go on alike to the end."""
    assume(not is_planar(g))
    level, _ = genus_module._certified_level(g)

    def embedder():
        spent = [10**6]
        rng = None if seed is None else random.Random(seed)
        emb = new_embedder(g, spent, rng)
        emb.start(level)
        return emb, spent

    sliced, spent = embedder()
    charged, done = 0, None
    for a in slices:
        done, nodes, _, _ = run_outcome(sliced, spent, a)
        charged += nodes
        if done is not None:
            break
    whole, whole_spent = embedder()
    assert run_outcome(whole, whole_spent, charged) == (
        done, charged, sliced.found,
        sliced.rng.getstate() if sliced.rng else None)
    if done is None:
        assert (run_outcome(sliced, spent, 2 * 10**4)
                == run_outcome(whole, whole_spent, 2 * 10**4))
