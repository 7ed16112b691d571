"""Orientable genus: rotation systems, face tracing, lower bounds, and an
exact edge-insertion search with certificates.

A rotation system stores, for every vertex, a cyclic order of its neighbors.
Faces are orbits of the dart permutation d -> next(reverse(d)); the genus
then falls out of the Euler relation V - E + F = 2 - 2g.  The exact search
inserts edges one at a time into a partial embedding and backtracks, with
three kinds of move: a vertex's first edge starts its rotation and extends
the face it enters at the other end; a later edge across two corners of
one face splits the face; across two different faces it merges them and
raises the genus by one.  Iterative deepening from a certified lower bound
makes the first completed embedding optimal: each genus level gets one
depth-first search, run to its end and charged to the one budget, and the
first level is a closed-form or attached-K4 lower bound while every later
one follows an exhausted level.  Every found rotation is re-traced by
face_trace.

Each lower bound is a LowerBound: its value, its source's name, and the
sides of the K_{m,n} that gives it, if one does.  Edges are inserted
vertex by vertex in a greedy order, except when the first level is such a
bound with (m - 2)(n - 2) divisible by 4, as a K_{3,6} at genus 1 is: then
the witness goes first.  Every embedding of that K_{m,n} at its genus
(m - 2)(n - 2) / 4 is all quadrilaterals (Ringel 1965), so the search
spends all its handles inside the witness, and every later edge has to
split a face, which the move rules prune.  K_{1,1,1,1,8}, certified at 3
by its K_{4,8}, settles in 53 nodes this way, against 0.85 M in vertex
order.  A witness that is not tight leaves handles for the rest, and
witness-first made those searches longer (892 to 56 989 nodes for one
K_{3,7}-certified class), so every other graph keeps the vertex order.

Planarity is decided here, with no graph library: an Euler edge count,
then each biconnected block, a single edge included, by the path-addition
test of Demoucron, Malgrange & Pertuiset grown from the block's first
edge.  Both verdicts are checked where exact_genus uses them.  A planar
verdict comes with a rotation system that face_trace must trace to
genus 0.  A nonplanar verdict that is the only source of the lower
bound 1 is backed by a Kuratowski witness, a subdivision of K_5 or K_{3,3}
found by edge deletion and verified by check_kuratowski.
"""

from __future__ import annotations

from itertools import combinations
from math import inf
from typing import NamedTuple

from .errors import Disconnected, HypothesisNotMet, InvalidSpec, ZdgenusError
from .graphs import (
    _CLIQUE_CAP,
    SimpleGraph,
    bicliques,
    cliques,
    connected_components,
    girth,
    induced_subgraph,
    is_connected,
    clique_number,
    make_graph,
    twin_quotient,
)
from .rings import _elements


# === Data types =============================================================


class RotationSystem(NamedTuple):
    """Per-vertex cyclic neighbor orders describing an orientable embedding."""

    order: tuple[tuple[int, ...], ...]


class EmbeddingCertificate(NamedTuple):
    """A rotation system together with its traced face count and genus."""

    rotation: RotationSystem
    faces: int
    genus: int


class LowerBound(NamedTuple):
    """A certified genus lower bound with the text naming its source and,
    when a K_{m,n} subgraph gives it, that subgraph's sides (A, B)."""

    value: int
    source: str
    witness: tuple[list[int], list[int]] | None = None


class GenusBounds(NamedTuple):
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


def is_planar(g: SimpleGraph) -> bool:
    return planar_rotation(g) is not None


def planar_rotation(g: SimpleGraph) -> RotationSystem | None:
    """Rotation system of a planar embedding; None if g is not planar.

    Each biconnected block, a single edge included, is embedded on its own
    (_block_faces) and the blocks' rotations are joined at cut vertices by
    concatenation, which puts each block into one corner of the others."""
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return None
    nbrs = [g.neighbors(v) for v in range(g.n)]
    order: list[list[int]] = [[] for _ in range(g.n)]
    for block in _blocks(nbrs):
        faces = _block_faces(block)
        if faces is None:
            return None
        # a face ... u, v, w ... puts w after u in v's rotation, the
        # convention face_trace walks
        succ = {}
        for f in faces:
            for i, v in enumerate(f):
                succ[v, f[i - 1]] = f[(i + 1) % len(f)]
        for v, start in {v: u for v, u in succ}.items():
            w = start
            while True:
                order[v].append(w)
                w = succ[v, w]
                if w == start:
                    break
    return RotationSystem(tuple(tuple(seq) for seq in order))


def _blocks(nbrs: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks, by an iterative Hopcroft-Tarjan
    depth-first pass with an edge stack."""
    disc = [-1] * len(nbrs)
    low = [0] * len(nbrs)
    blocks = []
    clock = 0
    for root in range(len(nbrs)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(nbrs[root]))]
        edges: list[tuple[int, int]] = []
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if disc[w] < 0:
                    edges.append((v, w))
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(nbrs[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        k = edges.index((u, v))
                        blocks.append(edges[k:])
                        del edges[k:]
    return blocks


def _block_faces(edges: list[tuple[int, int]]) -> list[list[int]] | None:
    """Faces of a plane embedding of a biconnected block, each an oriented
    vertex cycle; None if the block is nonplanar.

    The path-addition test of Demoucron, Malgrange & Pertuiset (1964),
    started from the block's first edge (a, b) as the one face [a, b], so a
    single-edge block is done at once.  A fragment of the rest is an
    unplaced edge between placed vertices, or a component of the unplaced
    vertices with its edges to the placed ones, and a face admits it when
    the face holds all its contact vertices.  A fragment no face admits
    makes the block nonplanar; otherwise a contact-to-contact path of a
    fragment with the fewest admissible faces is drawn across one of them,
    splitting it.  A block has no cut vertex, so every fragment of the
    first pass has both contacts a and b, and its path closes the first
    cycle."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(adj) > 2 and len(edges) > 3 * len(adj) - 6:
        return None
    a, b = edges[0]
    faces, masks = [[a, b]], [_mask((a, b))]
    placed = masks[0]
    drawn = {frozenset((a, b))}
    while len(drawn) < len(edges):
        best = None
        for contacts, chord, comp in _fragments(adj, placed, drawn):
            fit = [k for k, fm in enumerate(masks) if contacts & ~fm == 0]
            if not fit:
                return None
            if best is None or len(fit) < len(best[0]):
                best = fit, chord, comp
                if len(fit) == 1:
                    break
        fit, chord, comp = best
        path = chord or _bridge_path(adj, placed, comp)
        k = fit[0]
        face = faces[k]
        i, j = face.index(path[0]), face.index(path[-1])
        one = face[i:j + 1] if i < j else face[i:] + face[:j + 1]
        two = face[j:i + 1] if j < i else face[j:] + face[:i + 1]
        one += path[-2:0:-1]
        two += path[1:-1]
        faces[k], masks[k] = one, _mask(one)
        faces.append(two)
        masks.append(_mask(two))
        placed |= _mask(path)
        drawn.update(frozenset(e) for e in zip(path, path[1:]))
    return faces


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _fragments(adj, placed: int, drawn: set):
    """(contact mask, chord, component) per fragment of a partly placed
    block: a chord [u, w] with no component, or None and the component's
    vertices."""
    for u, ws in adj.items():
        if placed >> u & 1:
            for w in ws:
                if u < w and placed >> w & 1 and frozenset((u, w)) not in drawn:
                    yield (1 << u) | (1 << w), [u, w], None
    seen = placed
    for s in adj:
        if seen >> s & 1:
            continue
        seen |= 1 << s
        comp = [s]
        contacts = 0
        for x in comp:
            for y in adj[x]:
                if placed >> y & 1:
                    contacts |= 1 << y
                elif not seen >> y & 1:
                    seen |= 1 << y
                    comp.append(y)
        yield contacts, None, comp


def _bridge_path(adj, placed: int, comp: list[int]) -> list[int]:
    """A path from one contact of a component through it to another."""
    start = next(x for x in comp if any(placed >> y & 1 for y in adj[x]))
    first = next(y for y in adj[start] if placed >> y & 1)
    inside = _mask(comp)
    prev = {start: None}
    queue = [start]
    for x in queue:
        for y in adj[x]:
            if inside >> y & 1:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
            elif y != first and placed >> y & 1:
                path = [y]
                while x is not None:
                    path.append(x)
                    x = prev[x]
                return path + [first]
    raise ZdgenusError("block fragment with a single contact vertex")


def kuratowski_subdivision(g: SimpleGraph) -> list[tuple[int, int]]:
    """Edges of a minimal nonplanar subgraph of a nonplanar g, by deleting
    each edge whose removal leaves the graph nonplanar: at most m planarity
    tests.  By Kuratowski's theorem it is a subdivision of K_5 or K_{3,3},
    which check_kuratowski verifies."""
    keep = g.edges()
    for e in g.edges():
        trial = [f for f in keep if f != e]
        if not is_planar(make_graph(g.n, trial)):
            keep = trial
    return keep


def check_kuratowski(g: SimpleGraph, edges: list[tuple[int, int]]) -> str:
    """'K_5' or 'K_{3,3}' when edges, all edges of g, form a subdivision of
    that graph; raises ZdgenusError otherwise.  Linear in len(edges):
    walk every branch-to-branch path once from each end."""
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        if not g.has_edge(u, v):
            raise ZdgenusError(f"witness pair ({u},{v}) is not an edge")
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    if len({frozenset(e) for e in edges}) != len(edges):
        raise ZdgenusError("witness lists an edge twice")
    branch = [v for v, ws in nbrs.items() if len(ws) != 2]
    links: dict[int, set[int]] = {v: set() for v in branch}
    walked = 0
    for s in branch:
        for x in nbrs[s]:
            prev = s
            walked += 1
            while len(nbrs[x]) == 2:
                a, b = nbrs[x]
                prev, x = x, b if a == prev else a
                walked += 1
            if x == s or x in links[s]:
                raise ZdgenusError("witness paths do not join distinct "
                                   "branch vertices once")
            links[s].add(x)
    if walked != 2 * len(edges):
        raise ZdgenusError("witness has a cycle without branch vertices")
    degrees = sorted(len(ws) for ws in links.values())
    if degrees == [4] * 5:
        return "K_5"
    if degrees == [3] * 6:
        side = links[branch[0]]
        if all(links[v] == side for v in branch if v not in side):
            return "K_{3,3}"
    raise ZdgenusError("witness is not a subdivision of K_5 or K_{3,3}")


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


def subgraph_lower_bound(g: SimpleGraph) -> LowerBound:
    """Best genus bound from a complete or complete bipartite subgraph; a
    K_{m,n}'s witness is the first m-set with the most common neighbours."""
    w = clique_number(g)
    best = LowerBound(genus_complete(w), f"subgraph K_{w}")
    for m in (3, 4, 5):
        # the least n whose K_{m,n} beats best, raised past each one found;
        # a K_{m,n} here has n <= g.n - m
        n = 3 + 4 * best.value // (m - 2)
        if n > g.n - m:
            continue
        found = None
        for found in bicliques(g, m, lambda c: c.bit_count() >= n):
            n = found[1].bit_count() + 1
        if found and genus_biclique(m, n - 1) > best.value:
            best = LowerBound(genus_biclique(m, n - 1),
                              f"subgraph K_{{{m},{n - 1}}}",
                              (found[0], _elements(found[1])))
    return best


def closed_form_bound(g: SimpleGraph) -> LowerBound:
    """The larger of the Euler and subgraph bounds, Euler on ties.  The
    subgraph search is skipped above _CLIQUE_CAP vertices."""
    el = euler_lower_bound(g)
    if g.n <= _CLIQUE_CAP:
        sub = subgraph_lower_bound(g)
        if sub.value > el:
            return sub
    return LowerBound(el, f"euler bound {el}")


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
    qmask = _mask(q)
    if qmask == (1 << g.n) - 1:
        raise HypothesisNotMet("nothing remains outside the four vertices")
    for v in q:
        if g.adj[v] & ~qmask == 0:
            raise HypothesisNotMet(f"vertex {v} has no edge to the rest")
    rest = induced_subgraph(g, _elements((1 << g.n) - 1 & ~qmask))
    if not is_connected(rest):
        # genus adds over blocks, so a bound summed over the components
        # of the rest is not sound
        raise HypothesisNotMet("the rest of the graph is disconnected")
    return 1 + closed_form_bound(rest).value


def _k4_scan(g: SimpleGraph) -> int:
    """Best attached-K_4 bound over all 4-cliques; 0 if none qualifies.
    Permuting twins is an automorphism, so two 4-cliques that meet the
    same multiset of twin classes have isomorphic rests: the bound is
    taken once per multiset."""
    cls = {v: c for c, members in enumerate(twin_quotient(g).classes)
           for v in members}
    best, seen = 0, set()
    for q in cliques(g, 4):
        pattern = tuple(sorted(cls[v] for v in q))
        if pattern not in seen:
            seen.add(pattern)
            try:
                best = max(best, k4_attachment_bound(g, q))
            except HypothesisNotMet:
                pass
    return best


# === Exact search ===========================================================


class _OutOfBudget(Exception):
    pass


def _build_steps(g: SimpleGraph, witness=None):
    """Steps (v, u, dart out of v, first edge of v); step s owns darts 2s,
    from v to u, and 2s + 1.  Vertices are ordered greedily, each next one
    with the most placed neighbours, then the highest degree, then the
    lowest index.  Each vertex's edges back to earlier ones follow in that
    order, to the earliest first.

    A witness (A, B), the sides of a K_{m,n} subgraph, goes first: its
    vertices are ordered by the same rule over the witness edges alone,
    and every witness edge is inserted before any other edge.  The steps
    depend on g and the witness alone, so one list serves every level."""
    lead = g.adj  # the rows whose edges are inserted first
    if witness is not None:
        a, b = (_mask(side) for side in witness)
        lead = [b if a >> v & 1 else a if b >> v & 1 else 0
                for v in range(g.n)]
    order: list[int] = []
    placed = 0
    for rows in (lead, g.adj):
        while True:
            # unplaced vertices with an edge in rows to a placed one; the
            # first vertex is taken by degree alone
            cands = [v for v in range(g.n) if not placed >> v & 1
                     and (rows[v] & placed if order else rows[v])]
            if not cands:
                break
            nv = max(cands, key=lambda v: (
                (rows[v] & placed).bit_count(), rows[v].bit_count(), -v))
            order.append(nv)
            placed |= 1 << nv
    steps = []
    started = {order[0]}
    for rows in (lead, [row & ~w for row, w in zip(g.adj, lead)]):
        for k, v in enumerate(order):
            for u in order[:k]:
                if rows[v] >> u & 1:
                    steps.append((v, u, 2 * len(steps), v not in started))
                    started.add(v)
    return steps


class _Embedder:
    """Backtracking edge-insertion search for an embedding of target genus.

    Vertices are added one by one; each step inserts one edge (v, u) from
    the new vertex v back to a placed u, with darts a out of v and a ^ 1
    out of u, after a corner at each end.  There are three kinds of move.
    A vertex's first edge starts its rotation (a None corner) and extends
    the face of the corner taken at u.  Any later edge joins two corners:
    of one face, which it splits in two, or of two faces, which it merges,
    adding a handle.  Same-face pairs are tried before cross pairs, and
    cross pairs only below the target genus.  The walk is depth-first and
    recursive, one frame per step, and each node tried is charged to the
    shared budget cell.  Face ids are a stack topped by fresh: a move
    takes one id, or two when it splits a face.  Each move carries the
    faces it replaces as (corner, id) pairs, and one frame places it,
    recurses and undoes it: the ids go back and the old faces are
    re-traced under them, with no undo frame."""

    def __init__(self, g: SimpleGraph, budget: list[int], steps):
        self.g = g
        self.budget = budget
        self.steps = steps
        # the target vertex of each dart
        self.tgt = [w for v, u, _, _ in steps for w in (u, v)]
        self.nxt = [0] * len(self.tgt)
        self.face = [0] * len(self.tgt)
        self.darts_at: list[list[int]] = [[] for _ in range(g.n)]
        self.gcur = 0
        self.fresh = 0
        self.found: RotationSystem | None = None

    def _retrace(self, start: int, fid: int):
        face, nxt = self.face, self.nxt
        d = start
        while True:
            face[d] = fid
            d = nxt[d ^ 1]
            if d == start:
                return

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
        genus target.  The walk recurses one frame per step, so it is at
        most EXHAUSTIVE_EDGE_CAP + 1 frames deep.  The nodes are charged to
        the budget cell at the end, and running it out charges the refused
        node too and raises _OutOfBudget."""
        self.target = target
        self.found = None
        self.left = self.budget[0]
        try:
            return self._rec(0)
        finally:
            self.budget[0] = self.left

    def _rec(self, si: int) -> bool:
        """Try each move (c_v, c_u, old) of step si and recurse; True once
        the last step is placed.  The edge goes after dart c_v at v and c_u
        at u, a None corner starting that vertex's rotation; old lists the
        faces it replaces as (corner, id), none or one for a first edge,
        one for a split and two for a merge.  The ids are read before any
        move is tried and still hold at each, since undo restores every
        face id.  At the target genus no handle is left, so the step fails
        at once when v shares no face with the far end of one of its
        remaining edges."""
        if si == len(self.steps):
            self.found = self._capture()
            return True
        v, u, a, first = self.steps[si]
        b = a ^ 1
        # the face of the corner after dart d is face[nxt[d]]
        face, nxt = self.face, self.nxt
        darts_v, darts_u = self.darts_at[v], self.darts_at[u]
        if first:
            moves = [(None, c_u, [(c_u, face[nxt[c_u]])])
                     for c_u in darts_u] or [(None, None, [])]
        else:
            if self.gcur == self.target:
                fv = {face[nxt[d]] for d in darts_v}
                j = si
                while j < len(self.steps) and self.steps[j][0] == v:
                    fu = {face[nxt[d]] for d in self.darts_at[self.steps[j][1]]}
                    if fv.isdisjoint(fu):
                        return False
                    j += 1
            moves, cross = [], []
            allow_cross = self.gcur < self.target
            corners_u = [(c_u, face[nxt[c_u]]) for c_u in darts_u]
            for c_v in darts_v:
                f_v = face[nxt[c_v]]
                for c_u, f_u in corners_u:
                    if f_v == f_u:
                        moves.append((c_v, c_u, [(c_v, f_v)]))
                    elif allow_cross:
                        cross.append((c_v, c_u, [(c_v, f_v), (c_u, f_u)]))
            moves += cross
        for c_v, c_u, old in moves:
            self.left -= 1
            if self.left < 0:
                raise _OutOfBudget
            merge = len(old) == 2  # two faces merge: one more handle
            split = c_v is not None and not merge
            for d, c in ((a, c_v), (b, c_u)):
                if c is None:
                    nxt[d] = d
                else:
                    nxt[d] = nxt[c]
                    nxt[c] = d
            self.gcur += merge
            self.fresh += 1
            self._retrace(a, self.fresh)
            if split:
                self.fresh += 1
                self._retrace(b, self.fresh)
            darts_v.append(a)
            darts_u.append(b)
            if self._rec(si + 1):
                return True
            darts_u.pop()
            darts_v.pop()
            if c_u is not None:
                nxt[c_u] = nxt[b]
            if c_v is not None:
                nxt[c_v] = nxt[a]
            self.fresh -= 1 + split
            self.gcur -= merge
            for c, fid in old:
                self._retrace(nxt[c], fid)
        return False


EXHAUSTIVE_EDGE_CAP = 40


def exact_genus(g: SimpleGraph, budget: int = 10**8) -> GenusBounds:
    """Certified genus bounds; exact with an embedding certificate whenever
    the exhaustive search is allowed to finish.

    Disconnected input is handled per component and summed, and all
    components draw on the one search budget.  Graphs with more than
    EXHAUSTIVE_EDGE_CAP edges get bounds only."""
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
    return _search_genus(g, spent)


def _search_genus(g: SimpleGraph, spent: list[int]) -> GenusBounds:
    """Lower bounds, then the search level by level from the best of them,
    for a connected nonplanar graph."""
    bound = _certified_level(g)
    target, prov = bound.value, [bound.source]
    if g.m > EXHAUSTIVE_EDGE_CAP:
        return GenusBounds(target, None,
                           tuple(prov + ["too many edges for search"]), None)
    witness = bound.witness
    if witness and (len(witness[0]) - 2) * (len(witness[1]) - 2) != 4 * target:
        witness = None  # not tight: the vertex order stays
    emb = _Embedder(g, spent, _build_steps(g, witness))
    while True:
        try:
            if emb.search(target):
                break
        except _OutOfBudget:
            return GenusBounds(target, None,
                               tuple(prov + ["budget exhausted"]), None)
        prov.append(f"search exhausted genus {target}")
        target += 1
        if target > (g.m - g.n + 1) // 2:
            raise ZdgenusError(f"search passed the cycle-rank bound "
                               f"at genus {target}")
    faces, gen = face_trace(g, emb.found)
    if gen != target:
        raise ZdgenusError(f"embedding traced to genus {gen}, "
                           f"search level {target}")
    prov.append(f"embedded at genus {target}")
    return GenusBounds(target, target, tuple(prov),
                       EmbeddingCertificate(emb.found, faces, gen))


def _certified_level(g: SimpleGraph) -> LowerBound:
    """The best lower bound of a connected nonplanar graph: the first genus
    level to search."""
    best = closed_form_bound(g)
    if best.value == 0:
        # nothing but the planarity verdict gives the bound 1: check it
        check_kuratowski(g, kuratowski_subdivision(g))
        best = LowerBound(1, "nonplanar")
    if g.n <= 20:
        kb = _k4_scan(g)
        if kb > best.value:
            best = LowerBound(kb, f"attached K4 bound {kb}")
    return best


# === Certificate serialization ==============================================


CERTIFICATE_FORMAT = "zdgenus-embedding-1"


def certificate_to_json(g: SimpleGraph, cert: EmbeddingCertificate) -> str:
    import json

    data = {
        "format": CERTIFICATE_FORMAT,
        "genus": cert.genus,
        "faces": cert.faces,
        "labels": list(g.labels),
        "rotation": [list(seq) for seq in cert.rotation.order],
    }
    return json.dumps(data, indent=2) + "\n"


def certificate_from_json(text: str) -> EmbeddingCertificate:
    import json

    try:
        data = json.loads(text)
        if data["format"] != CERTIFICATE_FORMAT:
            raise InvalidSpec(f"unknown certificate format {data['format']!r}")
        rot = tuple(map(tuple, data["rotation"]))
        faces, genus = data["faces"], data["genus"]
        # int() would truncate 1.5 and read true as 1: take ints alone
        if any(type(x) is not int
               for x in (faces, genus, *(x for seq in rot for x in seq))):
            raise TypeError("certificate entries must be integers")
        return EmbeddingCertificate(RotationSystem(rot), faces, genus)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InvalidSpec(f"malformed certificate JSON: {exc}") from exc
