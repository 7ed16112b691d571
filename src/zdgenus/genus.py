"""Orientable genus: rotation systems, face tracing, lower bounds, and an
exact edge-insertion search with certificates.

A rotation system stores, for every vertex, a cyclic order of its neighbors.
Faces are orbits of the dart permutation d -> next(reverse(d)); the genus
then falls out of the Euler relation V - E + F = 2 - 2g.  The exact search
inserts edges one at a time into a partial embedding, trying every corner
pair, and backtracks; placing an edge across two corners of one face splits
the face, across two different faces merges them and raises the genus by
one.  Iterative deepening from a certified lower bound makes the first
completed embedding optimal.

Isomorphic graphs have one genus, so exact answers of the search are kept
per process under graphs.canonical_certificate's key, computed on the twin
quotient.  The zero-divisor graphs repeat a few shapes, K_{1,1,1,1,8} seven
times in the atlas, so most searched graphs are answered from this cache.
An entry holds the rotation in canonical order and the search nodes it
cost.  It serves a call only when the remaining budget covers that cost,
which is charged, and its rotation, carried into the caller's labels, is
re-traced before it is returned.  Open answers are never kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations
from math import inf

import networkx as nx

from .errors import Disconnected, HypothesisNotMet, InvalidSpec, ZdgenusError
from .graphs import (
    SimpleGraph,
    canonical_certificate,
    connected_components,
    girth,
    induced_subgraph,
    is_connected,
    clique_number,
    remove_vertices,
)


# === Data types =============================================================


@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex cyclic neighbor orders describing an orientable embedding."""

    order: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EmbeddingCertificate:
    """A rotation system together with its traced face count and genus."""

    rotation: RotationSystem
    faces: int
    genus: int


@dataclass(frozen=True)
class GenusBounds:
    """Certified genus interval; upper is None when nothing embeds yet."""

    lower: int
    upper: int | None
    provenance: tuple[str, ...]
    certificate: EmbeddingCertificate | None

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.upper == self.lower


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def genus_complete(n: int) -> int:
    if n <= 4:
        return 0
    return _ceil_div((n - 3) * (n - 4), 12)


def genus_biclique(m: int, n: int) -> int:
    if min(m, n) <= 2:
        return 0
    return _ceil_div((m - 2) * (n - 2), 4)


# === Planarity ==============================================================


def _to_nx(g: SimpleGraph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def is_planar(g: SimpleGraph) -> bool:
    return planar_rotation(g) is not None


def planar_rotation(g: SimpleGraph) -> RotationSystem | None:
    """Rotation system of a planar embedding; None if g is not planar."""
    ok, emb = nx.check_planarity(_to_nx(g))
    if not ok:
        return None
    data = emb.get_data()
    return RotationSystem(tuple(tuple(data[v]) for v in range(g.n)))


# === Face tracing ===========================================================


def face_trace(g: SimpleGraph, rot: RotationSystem) -> tuple[int, int]:
    """Count faces of a rotation system and return (faces, genus)."""
    if g.n == 0:
        raise InvalidSpec("the empty graph has no embedding")
    if not is_connected(g):
        raise Disconnected("face tracing requires a connected graph")
    if len(rot.order) != g.n:
        raise InvalidSpec("rotation system has wrong vertex count")
    for v in range(g.n):
        if sorted(rot.order[v]) != g.neighbors(v):
            raise InvalidSpec(f"rotation at vertex {v} does not list neighbors")
    if g.m == 0:
        return 1, 0
    edges = g.edges()
    eid = {}
    for k, (u, v) in enumerate(edges):
        eid[(u, v)] = 2 * k
        eid[(v, u)] = 2 * k + 1
    nxt = [0] * (2 * len(edges))
    for v in range(g.n):
        seq = rot.order[v]
        for i, w in enumerate(seq):
            nxt[eid[(v, w)]] = eid[(v, seq[(i + 1) % len(seq)])]
    seen = [False] * len(nxt)
    faces = 0
    for start in range(len(nxt)):
        if seen[start]:
            continue
        faces += 1
        d = start
        while not seen[d]:
            seen[d] = True
            d = nxt[d ^ 1]
    euler = 2 - g.n + len(edges) - faces
    if euler < 0 or euler % 2:
        raise InvalidSpec("rotation system traces an inconsistent surface")
    return faces, euler // 2


def random_rotation(g: SimpleGraph, rng) -> RotationSystem:
    """Uniformly shuffled rotation system, for sampling surfaces."""
    order = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        rng.shuffle(nbrs)
        order.append(tuple(nbrs))
    return RotationSystem(tuple(order))


# === Lower bounds ===========================================================


def euler_lower_bound(g: SimpleGraph) -> int:
    """Genus bound from the Euler relation with the girth-limited face count.

    Returns 0 for graphs that are tiny, disconnected, or acyclic."""
    v, e = g.n, g.m
    if v < 3 or not is_connected(g):
        return 0
    gr = girth(g)
    if gr is inf:
        return 0
    gr = int(gr)
    return max(0, _ceil_div((gr - 2) * e - gr * (v - 2), 2 * gr))


def _max_biclique_n(g: SimpleGraph, m: int) -> int:
    """Largest n with a K_{m,n} subgraph, by branch and bound over m-sets."""
    best = 0
    full = (1 << g.n) - 1

    def rec(start: int, depth: int, common: int, amask: int):
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


def subgraph_lower_bound(g: SimpleGraph) -> tuple[int, str]:
    """Best genus bound from a complete or complete bipartite subgraph,
    with the witnessing subgraph named."""
    w = clique_number(g)
    best, prov = genus_complete(w), f"K_{w}"
    for m in (3, 4, 5):
        # a K_{m,n} here has n <= g.n - m; skip m if even that cannot win
        if g.n < m + 3 or genus_biclique(m, g.n - m) <= best:
            continue
        n = _max_biclique_n(g, m)
        if n >= 3 and genus_biclique(m, n) > best:
            best, prov = genus_biclique(m, n), f"K_{{{m},{n}}}"
    return best, prov


def closed_form_bound(g: SimpleGraph) -> tuple[int, str]:
    """The larger of the Euler and subgraph bounds (Euler on ties), with
    its provenance.  The subgraph search is skipped above 200 vertices."""
    el = euler_lower_bound(g)
    if g.n <= 200:
        sl, sp = subgraph_lower_bound(g)
        if sl > el:
            return sl, f"subgraph {sp}"
    return el, f"euler bound {el}"


def k4_attachment_bound(g: SimpleGraph, g1_vertices) -> int:
    """Genus bound from a K_4 whose vertices all reach the rest of the
    graph, the rest being connected: one more than the closed-form bound
    of the rest."""
    q = list(g1_vertices)
    if len(set(q)) != 4:
        raise HypothesisNotMet("need four distinct vertices")
    for a, b in combinations(q, 2):
        if not g.has_edge(a, b):
            raise HypothesisNotMet(f"vertices {a},{b} are not adjacent")
    qmask = 0
    for v in q:
        qmask |= 1 << v
    if qmask == (1 << g.n) - 1:
        raise HypothesisNotMet("nothing remains outside the four vertices")
    for v in q:
        if g.adj[v] & ~qmask == 0:
            raise HypothesisNotMet(f"vertex {v} has no edge to the rest")
    rest = remove_vertices(g, q)
    if not is_connected(rest):
        # genus adds over blocks, so a bound summed over the components
        # of the rest is not sound
        raise HypothesisNotMet("the rest of the graph is disconnected")
    return 1 + closed_form_bound(rest)[0]


def _k4_scan(g: SimpleGraph) -> int:
    """Best attached-K_4 bound over all 4-cliques; 0 if none qualifies."""
    best = 0
    for q in combinations(range(g.n), 4):
        if all(g.has_edge(a, b) for a, b in combinations(q, 2)):
            try:
                best = max(best, k4_attachment_bound(g, q))
            except HypothesisNotMet:
                pass
    return best


# === Exact search ===========================================================


class _OutOfBudget(Exception):
    pass


class _Embedder:
    """Backtracking edge-insertion search for an embedding of target genus."""

    def __init__(self, g: SimpleGraph, budget: list[int]):
        self.g = g
        self.budget = budget
        self.edges = g.edges()
        self.eid = {}
        self.tgt = []
        for k, (u, v) in enumerate(self.edges):
            self.eid[(u, v)] = k
            self.eid[(v, u)] = k
            self.tgt.extend([v, u])
        n_darts = 2 * len(self.edges)
        self.nxt = [0] * n_darts
        self.face = [0] * n_darts
        self.darts_at: list[list[int]] = [[] for _ in range(g.n)]
        self.F = 0
        self.gcur = 0
        self.fresh = 0
        self.steps = self._build_steps()
        self.found: RotationSystem | None = None

    def _build_steps(self):
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
                steps.append((v, u, j == 0))
        return steps

    def _darts(self, e: int, v: int) -> tuple[int, int]:
        """(dart out of v, reverse dart) for edge index e."""
        a = 2 * e if self.edges[e][0] == v else 2 * e + 1
        return a, a ^ 1

    def _retrace(self, start: int, fid: int):
        changed = []
        d = start
        while True:
            changed.append((d, self.face[d]))
            self.face[d] = fid
            d = self.nxt[d ^ 1]
            if d == start:
                return changed

    def _restore(self, changed):
        for d, old in reversed(changed):
            self.face[d] = old

    def _splice(self, anchor: int, d: int):
        self.nxt[d] = self.nxt[anchor]
        self.nxt[anchor] = d

    def _unsplice(self, anchor: int, d: int):
        self.nxt[anchor] = self.nxt[d]

    def _corner_face(self, d: int) -> int:
        return self.face[self.nxt[d]]

    def _place_first(self, e: int, v: int, u: int, d_u):
        a, b = self._darts(e, v)
        self.nxt[a] = a
        if d_u is None:
            self.nxt[b] = b
            self.F += 1
        else:
            self._splice(d_u, b)
        self.fresh += 1
        changed = self._retrace(b, self.fresh)
        self.darts_at[v].append(a)
        self.darts_at[u].append(b)
        return (a, b, d_u, changed)

    def _undo_first(self, v: int, u: int, frame):
        a, b, d_u, changed = frame
        self.darts_at[u].pop()
        self.darts_at[v].pop()
        self._restore(changed)
        if d_u is None:
            self.F -= 1
        else:
            self._unsplice(d_u, b)

    def _place_pair(self, e: int, v: int, u: int, d_v: int, d_u: int,
                    same: bool):
        a, b = self._darts(e, v)
        self._splice(d_v, a)
        self._splice(d_u, b)
        if same:
            self.fresh += 1
            ch1 = self._retrace(a, self.fresh)
            self.fresh += 1
            ch2 = self._retrace(b, self.fresh)
            self.F += 1
        else:
            self.fresh += 1
            ch1 = self._retrace(a, self.fresh)
            ch2 = []
            self.F -= 1
            self.gcur += 1
        self.darts_at[v].append(a)
        self.darts_at[u].append(b)
        return (a, b, d_v, d_u, ch1, ch2, same)

    def _undo_pair(self, v: int, u: int, frame):
        a, b, d_v, d_u, ch1, ch2, same = frame
        self.darts_at[u].pop()
        self.darts_at[v].pop()
        self._restore(ch2)
        self._restore(ch1)
        if same:
            self.F -= 1
        else:
            self.F += 1
            self.gcur -= 1
        self._unsplice(d_u, b)
        self._unsplice(d_v, a)

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

    def _spend(self):
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise _OutOfBudget

    def search(self, target: int) -> bool:
        self.target = target
        return self._rec(0)

    def _rec(self, si: int) -> bool:
        if si == len(self.steps):
            self.found = self._capture()
            return True
        v, u, is_first = self.steps[si]
        if is_first:
            anchors = self.darts_at[u] or [None]
            e = self.eid[(v, u)]
            for d_u in anchors:
                self._spend()
                frame = self._place_first(e, v, u, d_u)
                if self._rec(si + 1):
                    return True
                self._undo_first(v, u, frame)
            return False
        if self.gcur == self.target:
            fv = {self._corner_face(d) for d in self.darts_at[v]}
            j = si
            while j < len(self.steps) and self.steps[j][0] == v:
                fu = {self._corner_face(d) for d in self.darts_at[self.steps[j][1]]}
                if fv.isdisjoint(fu):
                    return False
                j += 1
        e = self.eid[(v, u)]
        pairs = []
        allow_cross = self.gcur < self.target
        for d_v in self.darts_at[v]:
            f_v = self._corner_face(d_v)
            for d_u in self.darts_at[u]:
                same = f_v == self._corner_face(d_u)
                if same:
                    pairs.append((0, d_v, d_u, True))
                elif allow_cross:
                    pairs.append((1, d_v, d_u, False))
        pairs.sort(key=lambda p: p[0])
        for _, d_v, d_u, same in pairs:
            self._spend()
            frame = self._place_pair(e, v, u, d_v, d_u, same)
            if self._rec(si + 1):
                return True
            self._undo_pair(v, u, frame)
        return False


EXHAUSTIVE_EDGE_CAP = 40


# Exact answers of connected nonplanar graphs within EXHAUSTIVE_EDGE_CAP,
# by canonical key: the bounds with the rotation in canonical labels, and
# the search nodes they cost.  An entry serves a call only if the call's
# remaining budget covers that cost, and the cost is then charged, so a hit
# spends what a search really spent.  Open answers are never stored.
_GENUS_CACHE: dict[tuple, tuple[GenusBounds, int]] = {}
GENUS_CACHE_COUNTS = {"hits": 0, "misses": 0}


def _relabel(rot: RotationSystem, new: list[int] | tuple[int, ...]
             ) -> RotationSystem:
    """rot with every vertex v renamed new[v]."""
    order: list[tuple[int, ...]] = [()] * len(new)
    for v, seq in enumerate(rot.order):
        order[new[v]] = tuple(new[w] for w in seq)
    return RotationSystem(tuple(order))


def _cached_genus(g: SimpleGraph, order: tuple[int, ...],
                  entry: tuple[GenusBounds, int], spent: list[int]
                  ) -> GenusBounds:
    """A cache entry carried into g's labels and re-traced."""
    bounds, nodes = entry
    spent[0] -= nodes
    rot = _relabel(bounds.certificate.rotation, order)
    faces, gen = face_trace(g, rot)
    if gen != bounds.upper:
        raise ZdgenusError(f"cached embedding traced to genus {gen}, "
                           f"cached genus {bounds.upper}")
    return replace(bounds, certificate=EmbeddingCertificate(rot, faces, gen))


def exact_genus(g: SimpleGraph, budget: int = 10**8) -> GenusBounds:
    """Certified genus bounds; exact with an embedding certificate whenever
    the exhaustive search is allowed to finish.

    Disconnected input is handled per component and summed, and all
    components draw on the one search budget.  Graphs with more than
    EXHAUSTIVE_EDGE_CAP edges get bounds only.  A connected nonplanar graph
    isomorphic to one already settled in this process is answered from the
    class cache: its rotation carried through the canonical order and
    re-traced by face_trace."""
    return _exact_genus(g, [budget])


def _exact_genus(g: SimpleGraph, spent: list[int]) -> GenusBounds:
    """exact_genus with the remaining budget in the shared cell spent[0]."""
    if g.n == 0:
        return GenusBounds(0, 0, ("empty graph",), None)
    comps = connected_components(g)
    if len(comps) > 1:
        lower = upper = 0
        prov = []
        for comp in comps:
            sub = _exact_genus(induced_subgraph(g, comp), spent)
            lower += sub.lower
            upper = None if upper is None or sub.upper is None else upper + sub.upper
            prov.extend(sub.provenance)
        return GenusBounds(lower, upper, ("component sum",) + tuple(prov), None)
    if g.m == 0:
        rot = RotationSystem(((),) * g.n)
        return GenusBounds(0, 0, ("single vertex",),
                           EmbeddingCertificate(rot, 1, 0))
    rot = planar_rotation(g)
    if rot is not None:
        faces, gen = face_trace(g, rot)
        if gen != 0:
            raise ZdgenusError(f"planar embedding traced to genus {gen}")
        return GenusBounds(0, 0, ("planar embedding",),
                           EmbeddingCertificate(rot, faces, 0))
    if g.m > EXHAUSTIVE_EDGE_CAP:
        return _search_genus(g, spent)
    form = canonical_certificate(g)
    entry = _GENUS_CACHE.get(form.key)
    if entry is not None and spent[0] >= entry[1]:
        GENUS_CACHE_COUNTS["hits"] += 1
        return _cached_genus(g, form.order, entry, spent)
    GENUS_CACHE_COUNTS["misses"] += 1
    before = spent[0]
    bounds = _search_genus(g, spent)
    if bounds.exact:
        cert = bounds.certificate
        rank = [0] * g.n
        for k, v in enumerate(form.order):
            rank[v] = k
        canon = replace(cert, rotation=_relabel(cert.rotation, rank))
        _GENUS_CACHE[form.key] = (replace(bounds, certificate=canon),
                                  before - spent[0])
    return bounds


def _search_genus(g: SimpleGraph, spent: list[int]) -> GenusBounds:
    """Lower bounds, then the exhaustive search from the best of them, for
    a connected nonplanar graph."""
    lb, prov = 1, ["nonplanar"]
    cb, cp = closed_form_bound(g)
    if cb > lb:
        lb, prov = cb, [cp]
    if g.n <= 20:
        kb = _k4_scan(g)
        if kb > lb:
            lb, prov = kb, [f"attached K4 bound {kb}"]
    if g.m > EXHAUSTIVE_EDGE_CAP:
        return GenusBounds(lb, None, tuple(prov + ["too many edges for search"]),
                           None)
    target = lb
    emb = _Embedder(g, spent)
    while True:
        try:
            if emb.search(target):
                rot = emb.found
                faces, gen = face_trace(g, rot)
                if gen != target:
                    raise ZdgenusError(f"embedding traced to genus {gen}, "
                                       f"search level {target}")
                prov.append(f"embedded at genus {target}")
                return GenusBounds(target, target, tuple(prov),
                                   EmbeddingCertificate(rot, faces, gen))
            prov.append(f"search exhausted genus {target}")
            target += 1
            if target > (g.m - g.n + 1) // 2:
                raise ZdgenusError(f"search passed the cycle-rank bound "
                                   f"at genus {target}")
        except _OutOfBudget:
            return GenusBounds(target, None,
                               tuple(prov + ["budget exhausted"]), None)


# === Certificate serialization ==============================================


CERTIFICATE_FORMAT = "zdgenus-embedding-1"


def certificate_to_json(g: SimpleGraph, cert: EmbeddingCertificate) -> str:
    data = {
        "format": CERTIFICATE_FORMAT,
        "genus": cert.genus,
        "faces": cert.faces,
        "labels": list(g.labels),
        "rotation": [list(seq) for seq in cert.rotation.order],
    }
    return json.dumps(data, indent=2) + "\n"


def certificate_from_json(text: str) -> EmbeddingCertificate:
    data = json.loads(text)
    try:
        if data["format"] != CERTIFICATE_FORMAT:
            raise InvalidSpec(f"unknown certificate format {data['format']!r}")
        rot = RotationSystem(
            tuple(tuple(int(x) for x in seq) for seq in data["rotation"])
        )
        return EmbeddingCertificate(rot, int(data["faces"]), int(data["genus"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed certificate JSON: {exc}") from exc
