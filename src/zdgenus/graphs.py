"""Simple undirected graphs with bitmask adjacency, plus the zero-divisor
graph constructions and the invariants used by the verifier.

Vertices are indices 0..n-1 with string labels.  Adjacency rows are Python
ints used as bitsets, which keeps neighborhood intersections cheap for the
clique and biclique searches.
"""

from __future__ import annotations

from itertools import combinations
from math import inf
from typing import NamedTuple

from .errors import InvalidSpec, MTooLarge, TooLarge, WholeRingIdeal
from .ideals import IdealSet, _in_ideal
from .rings import RingTable, _elements

# clique_number refuses larger graphs, and genus skips its subgraph bound
_CLIQUE_CAP = 200


# === Core structure =========================================================


class SimpleGraph:
    """Undirected simple graph: bitmask adjacency rows plus vertex labels."""

    def __init__(self, n: int, adj: tuple[int, ...], labels: tuple[str, ...]):
        if len(adj) != n or len(labels) != n:
            raise InvalidSpec("adjacency/label length mismatch")
        for v, row in enumerate(adj):
            if row >> v & 1:
                raise InvalidSpec(f"self-loop at vertex {v}")
            if row >> n:
                raise InvalidSpec(f"adjacency row {v} out of range")
        if not _symmetric(adj):
            u, v = min((min(u, v), max(u, v)) for u, row in enumerate(adj)
                       for v in _elements(row) if not adj[v] >> u & 1)
            raise InvalidSpec(f"asymmetric adjacency {u},{v}")
        self.n = n
        self.adj = adj
        self.labels = labels

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _elements(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in _elements(row))
        return out

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.m})"


def _symmetric(adj: tuple[int, ...]) -> bool:
    """Every set bit has its mirror, in O(m) steps: each bit above the
    diagonal is looked up in the row it points to, and then as many bits
    below the diagonal as above leaves no one-way bit below either."""
    above = 0
    for u, row in enumerate(adj):
        high = row >> u + 1 << u + 1
        above += high.bit_count()
        while high:
            low = high & -high
            if not adj[low.bit_length() - 1] >> u & 1:
                return False
            high ^= low
    return 2 * above == sum(row.bit_count() for row in adj)


def make_graph(n: int, edges, labels=None) -> SimpleGraph:
    adj = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise InvalidSpec(f"bad edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return SimpleGraph(n, tuple(adj), tuple(labels))


def complete_graph(k: int) -> SimpleGraph:
    return complete_multipartite(*[1] * k)


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return complete_multipartite(a, b)


def complete_multipartite(*sizes: int) -> SimpleGraph:
    part = [p for p, s in enumerate(sizes) for _ in range(s)]
    return make_graph(len(part), [(u, v) for u, v in
                                  combinations(range(len(part)), 2)
                                  if part[u] != part[v]])


def induced_subgraph(g: SimpleGraph, vertices) -> SimpleGraph:
    verts = list(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    edges = [
        (pos[u], pos[v])
        for u, v in combinations(verts, 2)
        if g.has_edge(u, v)
    ]
    return make_graph(
        len(verts), edges, tuple(g.labels[v] for v in verts)
    )


# === Zero-divisor graphs ====================================================


def zero_divisor_graph(t: RingTable) -> SimpleGraph:
    """Vertices are the nonzero zero-divisors; edges join annihilating pairs.
    This is the graph at the zero ideal, whose coset keys are the elements
    themselves, so vertices come in index order."""
    return ideal_zero_divisor_graph(t, IdealSet(t, 1 << t.zero))


def ideal_zero_divisor_graph(t: RingTable, i: IdealSet) -> SimpleGraph:
    """Graph on elements outside I that multiply into I with a partner
    outside I; edges join pairs whose product lands in I.  Vertices are
    sorted by (least element of their coset, element index).

    Each element's partners are read off its multiplication row in one
    pass: the bytes row goes through a translation table that maps an
    element to b"1" when it lies in I and to b"0" otherwise, and read
    backwards that is the partner mask in binary.  x is a vertex when its
    mask has a bit outside I (x² in I counts).  Every partner of a vertex
    is a vertex, so its row in the graph is those flags picked at the
    vertices, in vertex order, without x itself."""
    if i.is_whole():
        raise WholeRingIdeal("the whole ring leaves no outside elements")
    mask = i.mask
    members = i.members()
    in_ideal = _in_ideal(mask)
    outside = (1 << t.order) - 1 & ~mask
    flags = {}
    for x in _elements(outside):
        row_flags = t.mul[x].translate(in_ideal)
        if int(row_flags[::-1], 2) & outside:
            flags[x] = row_flags
    verts = sorted(flags, key=lambda x: (
        min(map(t.add[x].__getitem__, members)), x))
    adj = tuple(
        int(bytes(map(flags[x].__getitem__, verts))[::-1], 2) & ~(1 << k)
        for k, x in enumerate(verts))
    return SimpleGraph(len(verts), adj, tuple(t.labels[x] for x in verts))


def expand(g: SimpleGraph, t: int) -> SimpleGraph:
    """t-fold expansion: each vertex becomes t copies, copies of adjacent
    vertices are joined, copies of the same vertex are not."""
    if t < 1:
        raise InvalidSpec("expansion factor must be >= 1")
    n = g.n * t
    edges = []
    for u, v in g.edges():
        for a in range(t):
            for b in range(t):
                edges.append((u * t + a, v * t + b))
    labels = tuple(
        f"{g.labels[j]}#{a + 1}" for j in range(g.n) for a in range(t)
    )
    return make_graph(n, edges, labels)


# === Invariants =============================================================


def _reach(g: SimpleGraph, src: int) -> tuple[int, int]:
    """(bitmask of the vertices reachable from src, src's eccentricity
    within them) by level-set BFS: each level is the OR of the rows of the
    previous level, minus the vertices already seen."""
    adj = g.adj
    seen = level = 1 << src
    depth = -1
    while level:
        depth += 1
        nxt = 0
        while level:
            low = level & -level
            nxt |= adj[low.bit_length() - 1]
            level ^= low
        level = nxt & ~seen
        seen |= level
    return seen, depth


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    return _reach(g, 0)[0] == (1 << g.n) - 1


def connected_components(g: SimpleGraph) -> list[list[int]]:
    """Components in order of their least vertex, members increasing."""
    comps = []
    rest = (1 << g.n) - 1
    while rest:
        comp = _reach(g, (rest & -rest).bit_length() - 1)[0]
        comps.append(_elements(comp))
        rest &= ~comp
    return comps


def diameter(g: SimpleGraph):
    """Longest shortest path; 0 for the empty graph, inf if disconnected."""
    if g.n == 0:
        return 0
    full = (1 << g.n) - 1
    best = 0
    for s in range(g.n):
        seen, ecc = _reach(g, s)
        if seen != full:
            return inf
        best = max(best, ecc)
    return best


def girth(g: SimpleGraph):
    """Length of a shortest cycle, inf for forests.

    One level-set BFS per root.  An edge inside level k closes a cycle of
    length at most 2k+1 with the root's shortest paths, and a vertex of
    level k+1 hit from two vertices of level k closes one of length at most
    2k+2, so no root finds less than the girth.  On a shortest cycle
    through the root every vertex lies at its distance along the cycle, so
    that root finds the girth: at the middle edge or the opposite vertex.
    The minimum over all roots is therefore exact.  A root stops at its
    first such level, since later levels find more, or once 2k+1 reaches
    the best length so far."""
    adj = g.adj
    best = inf
    for r in range(g.n):
        seen = level = 1 << r
        k = 0
        while level and 2 * k + 1 < best:
            nxt = inner = twice = 0
            rest = level
            while rest:
                low = rest & -rest
                row = adj[low.bit_length() - 1]
                inner |= row & level
                fresh = row & ~seen
                twice |= nxt & fresh
                nxt |= fresh
                rest ^= low
            if inner or twice:
                best = min(best, 2 * k + (1 if inner else 2))
                break
            seen |= nxt
            level = nxt
            k += 1
        if best == 3:
            break  # no simple graph has a shorter cycle
    return best


def clique_number(g: SimpleGraph) -> int:
    """The largest r that `cliques` reaches, so one enumerator answers
    every clique question; 0 for the empty graph."""
    if g.n > _CLIQUE_CAP:
        raise TooLarge(
            f"clique search capped at {_CLIQUE_CAP} vertices, got {g.n}")
    r = 0
    while find_complete_subgraph(g, r + 1) is not None:
        r += 1
    return r


def invariants(g: SimpleGraph) -> dict:
    """Diameter, girth and clique number, as every report and atlas row
    carries them."""
    return {"diameter": diameter(g), "girth": girth(g),
            "clique": clique_number(g)}


def cliques(g: SimpleGraph, r: int):
    """The r-cliques of g as increasing vertex lists, in lexicographic
    order."""

    def grow(chosen: list[int], cands: int):
        if len(chosen) == r:
            yield list(chosen)
        elif cands.bit_count() >= r - len(chosen):
            for v in _elements(cands):
                chosen.append(v)
                yield from grow(chosen, cands & g.adj[v] >> (v + 1) << (v + 1))
                chosen.pop()

    return grow([], (1 << g.n) - 1)


def bicliques(g: SimpleGraph, m: int, enough):
    """Each m-set of g whose common neighbourhood passes enough(mask), as
    an increasing vertex list with that bitmask, in lexicographic order.
    No prefix whose common neighbourhood fails is grown.  enough must fail
    on every subset of a mask it fails on; it is read afresh at each test,
    so a caller may tighten it as the sets come.  A vertex whose own row
    fails it at the start is never tried."""
    live = [v for v in range(g.n) if enough(g.adj[v])]

    def grow(chosen: list[int], start: int, common: int):
        if len(chosen) == m:
            yield list(chosen), common
            return
        for i in range(start, len(live) - m + len(chosen) + 1):
            shared = common & g.adj[live[i]]
            if enough(shared):
                chosen.append(live[i])
                yield from grow(chosen, i + 1, shared)
                chosen.pop()

    return grow([], 0, (1 << g.n) - 1)


def find_complete_subgraph(g: SimpleGraph, r: int):
    """Lexicographically least r-clique as a vertex list, or None."""
    return next(cliques(g, r), None)


def find_biclique(g: SimpleGraph, m: int, n: int):
    """First complete bipartite K_{m,n} subgraph (not necessarily induced)
    in lexicographic order of the m-side, or None.  m is capped at 5."""
    if m > 5:
        raise MTooLarge(f"biclique side capped at m <= 5, got {m}")
    if m < 1 or n < 1 or m + n > g.n:
        return None
    for side, common in bicliques(g, m, lambda c: c.bit_count() >= n):
        return side, _elements(common)[:n]
    return None


# === Serialization ==========================================================


def export_dot(g: SimpleGraph) -> str:
    order = sorted(range(g.n), key=lambda v: (g.labels[v], v))
    rank = {v: k for k, v in enumerate(order)}
    lines = ["graph G {"]
    for v in order:
        label = g.labels[v].replace('"', '\\"')
        lines.append(f'  n{v} [label="{label}"];')
    pairs = sorted(
        (min(rank[u], rank[v]), max(rank[u], rank[v])) for u, v in g.edges()
    )
    for a, b in pairs:
        lines.append(f"  n{order[a]} -- n{order[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: SimpleGraph) -> str:
    import json

    data = {
        "n": g.n,
        "labels": list(g.labels),
        "edges": [[u, v] for u, v in g.edges()],
    }
    return json.dumps(data, indent=2) + "\n"


# === Twin classes ===========================================================


class TwinQuotient(NamedTuple):
    """The twin classes of a graph and the graph they induce.

    A class is a set of false twins (equal open neighbourhoods, an
    independent set) or of true twins (equal closed neighbourhoods, a
    clique); a vertex without twins is a class of its own and counts as
    independent.  Two classes are joined completely or not at all, so the
    quotient graph, one vertex per class, together with each class's size
    and mark gives the graph back up to isomorphism."""

    graph: SimpleGraph
    classes: tuple[tuple[int, ...], ...]
    clique: tuple[bool, ...]


def twin_quotient(g: SimpleGraph) -> TwinQuotient:
    """Twin classes in order of their least vertex, members increasing.

    No vertex has both a false and a true twin: a true twin w of v lies in
    N(v) = N(u) for a false twin u, so u lies in N[w] = N[v], yet u and v
    are not adjacent.  The classes therefore partition the vertices."""
    by_open: dict[int, list[int]] = {}
    by_closed: dict[int, list[int]] = {}
    for v in range(g.n):
        by_open.setdefault(g.adj[v], []).append(v)
        by_closed.setdefault(g.adj[v] | 1 << v, []).append(v)
    cls = [-1] * g.n
    classes, clique = [], []
    for v in range(g.n):
        if cls[v] >= 0:
            continue
        true_twins = by_closed[g.adj[v] | 1 << v]
        members = true_twins if len(true_twins) > 1 else by_open[g.adj[v]]
        for u in members:
            cls[u] = len(classes)
        classes.append(tuple(members))
        clique.append(len(true_twins) > 1)
    edges = {(cls[u], cls[v]) for u, v in g.edges() if cls[u] != cls[v]}
    return TwinQuotient(make_graph(len(classes), sorted(edges)),
                        tuple(classes), tuple(clique))

