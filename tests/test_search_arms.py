"""The genus search gated against the search it replaced.

`_search_genus` runs one edge-insertion search per genus level, from the
certified level, each to its end.  The reference kept here is an earlier
copy of the recursive embedder, verbatim but for its name, the steps it may
be handed, and a seeded shuffle and a node cap that no caller uses any
more.  Run level by level over the same steps, it must give the same
bounds, provenance, rotation and nodes charged, also when the budget runs
out: then both charge the refused node too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zdgenus import (
    certificate_from_json,
    complete_graph,
    exact_genus,
    face_trace,
    ideal_zero_divisor_graph,
    is_planar,
    make_graph,
)
from zdgenus import genus as genus_module
from zdgenus.catalog import catalog_pairs, catalog_ring
from zdgenus.classify import verify_all
from zdgenus.genus import RotationSystem, _OutOfBudget
from zdgenus.graphs import SimpleGraph
from zdgenus.ideals import cyclic_ideal

from test_graphs import to_nx

SRC = Path(__file__).resolve().parents[1] / "src"
# the search exhausts genus 1 here (in about 16 k nodes), then embeds at
# genus 2
EXHAUSTS_GENUS_1 = make_graph(9, [
    (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 8), (1, 3), (1, 5), (1, 6),
    (2, 3), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 8), (4, 5), (4, 6),
    (4, 7), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8)])


# === Reference ==============================================================
#
# The recursive embedder, kept as the oracle for changes to the search's
# move order and pruning.


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

    def __init__(self, g: SimpleGraph, budget: list[int], steps=None):
        self.g = g
        self.budget = budget
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

    def search(self, target: int) -> bool:
        """True with the embedding in self.found, False when g has none of
        genus target.  The nodes are charged to the budget cell at the end,
        and running it out raises _OutOfBudget."""
        self.target = target
        self.left = start = self.budget[0]
        try:
            return self._rec(0)
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
            for c_v, c_u in pairs:
                self.left -= 1
                if self.left < 0:
                    raise _OutOfBudget
                frame = self._place(step, c_v, c_u)
                if self._rec(si + 1):
                    return True
                self._undo(step, frame)
        return False


# === Helpers ================================================================


def z32_at_8():
    """Gamma_(8)(Z_32), an atlas graph isomorphic to K_{1,1,1,1,8}."""
    z32 = catalog_ring("Z_32")
    return ideal_zero_divisor_graph(z32, cyclic_ideal(z32, z32.labels.index("8")))


def search(g, budget=10**9):
    """(lower, upper, provenance, rotation, nodes charged) of
    `_search_genus`; the rotation is None when it has no embedding."""
    spent = [budget]
    b = genus_module._search_genus(g, spent)
    rot = b.certificate.rotation if b.certificate else None
    return b.lower, b.upper, b.provenance, rot, budget - spent[0]


def tight_witness(g):
    """The certified level's K_{m,n} witness when (m - 2)(n - 2) is four
    times the level, the one `_search_genus` puts first; None otherwise."""
    bound = genus_module._certified_level(g)
    a, b = bound.witness or ((), ())
    if a and (len(a) - 2) * (len(b) - 2) == 4 * bound.value:
        return bound.witness
    return None


def ref_search(g, budget=10**9):
    """search(g, budget) with the reference embedder over the steps
    `_search_genus` builds: the tight witness's edges first, if the
    certified level has one."""
    bound = genus_module._certified_level(g)
    level, prov = bound.value, [bound.source]
    spent = [budget]
    emb = _RefEmbedder(g, spent, genus_module._build_steps(
        g, tight_witness(g)))
    try:
        while not emb.search(level):
            prov.append(f"search exhausted genus {level}")
            level += 1
    except _OutOfBudget:
        return (level, None, tuple(prov + ["budget exhausted"]), None,
                budget - spent[0])
    prov.append(f"embedded at genus {level}")
    return level, level, tuple(prov), emb.found, budget - spent[0]


@contextmanager
def recording_searched_graphs():
    """Collect one graph per isomorphism class handed to the search."""
    found = []  # (graph, its networkx copy)
    saved = genus_module._search_genus

    def record(g, spent):
        if g.m <= genus_module.EXHAUSTIVE_EDGE_CAP:
            gx = to_nx(g)
            if not any(nx.faster_could_be_isomorphic(hx, gx)
                       and nx.is_isomorphic(hx, gx) for _, hx in found):
                found.append((g, gx))
        return saved(g, spent)

    genus_module._search_genus = record
    try:
        yield found
    finally:
        genus_module._search_genus = saved


@pytest.fixture(scope="module")
def searched_classes():
    """Every class the atlas or `verify all` searches.  The budget only
    shortens the collecting runs."""
    with recording_searched_graphs() as found:
        for _, table, ideal in catalog_pairs(64):
            exact_genus(ideal_zero_divisor_graph(table, ideal), 10**4)
        verify_all(10**4)
    return [g for g, _ in found]


def test_plain_search_matches_the_reference_on_catalog_classes(
        searched_classes):
    # 14 classes from the atlas, 8 more from verify all
    assert len(searched_classes) == 22
    pins = {(10, 40): 1_961_939,  # K_{2,2,2,2,2}, not walked twice
            (12, 38): 53}  # K_{1,1,1,1,8}, with its K_{4,8} first
    assert sorted((g.n, g.m) for g in searched_classes
                  if (g.n, g.m) in pins) == sorted(pins)
    for g in searched_classes:
        run = search(g)
        assert face_trace(g, run[3])[1] == run[1] == run[0]
        if (g.n, g.m) in pins:
            assert run[4] == pins[g.n, g.m]
        if (g.n, g.m) != (10, 40):
            assert run == ref_search(g)


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
@given(small_connected_graphs())
@example(complete_graph(7)).via("K7")
@example(EXHAUSTS_GENUS_1).via("an exhausted level")
def test_plain_search_matches_the_reference_on_drawn_graphs(g):
    """The same answer and charge at a budget of 2 * 10^4 nodes, and, for
    a graph that settles within it, one node short of what it charged."""
    assume(not is_planar(g))
    run = search(g, 2 * 10**4)
    assert run == ref_search(g, 2 * 10**4)
    if run[1] is not None:
        assert face_trace(g, run[3])[1] == run[1]
        short = search(g, run[4] - 1)
        assert short == ref_search(g, run[4] - 1)
        assert short[2][-1] == "budget exhausted" and short[4] == run[4]
