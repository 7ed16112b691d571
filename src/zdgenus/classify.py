"""Mechanical verification of the genus classification facts.

Each TheoremId names one classification fact about ideal-based zero-divisor
graphs over finite commutative rings.  verify() rebuilds every concrete
instance the fact quantifies over -- catalog rings with their proper nonzero
ideals, plus synthesized products T x Z_t carrying the ideal 0 x Z_t whenever
a fact constrains an abstract pair through its quotient target T and ideal
size t -- recomputes the graph and genus data from scratch, and emits one
ClassificationReport per instance.  A run passes when every report agrees
and none is inconclusive.
"""

from __future__ import annotations

import enum
import weakref
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from .catalog import catalog_entries, catalog_pairs, catalog_ring
from .errors import CliqueHypothesisViolated, ZdgenusError
from .genus import (
    GenusBounds,
    closed_form_bound,
    exact_genus,
    is_planar,
    k4_attachment_bound,
    subgraph_lower_bound,
)
from .graphs import (
    SimpleGraph,
    clique_number,
    complete_multipartite,
    expand,
    find_biclique,
    find_complete_subgraph,
    girth,
    ideal_zero_divisor_graph,
    invariants,
    is_connected,
    make_graph,
    zero_divisor_graph,
)
from .ideals import (
    IdealSet,
    enumerate_ideals,
    is_prime,
    is_radical,
    minimal_primes_over,
    quotient,
)
from .rings import (
    MAX_ORDER,
    RingTable,
    _shared_table,
    is_local,
    iso_check,
    product_tables,
    quotient_algebra,
    units,
    zero_divisors,
    zmod,
)

INF = float("inf")


class TheoremId(str, enum.Enum):
    """The classification facts the harness can re-verify."""

    REDMOND_PLANAR = "REDMOND_PLANAR"
    GENUS_ONE_CLIQUE_LE2 = "GENUS_ONE_CLIQUE_LE2"
    GENUS_ONE_CLIQUE3 = "GENUS_ONE_CLIQUE3"
    GENUS_GE2 = "GENUS_GE2"
    EXPANSION_BOUNDS = "EXPANSION_BOUNDS"
    QUOTIENT_GRAPH_LAWS = "QUOTIENT_GRAPH_LAWS"
    DIAMETER_LE3 = "DIAMETER_LE3"
    GIRTH_LE4 = "GIRTH_LE4"
    CLIQUE_MINIMAL_PRIMES = "CLIQUE_MINIMAL_PRIMES"
    LOCAL_ORDER_POWER = "LOCAL_ORDER_POWER"
    EXPANSION_GE2_BIG_RESIDUE = "EXPANSION_GE2_BIG_RESIDUE"
    ACYCLIC_RESIDUE_TWO = "ACYCLIC_RESIDUE_TWO"
    Z2_PRODUCT_GRAPHS = "Z2_PRODUCT_GRAPHS"
    TRIPLE_PRODUCT_GENUS = "TRIPLE_PRODUCT_GENUS"
    TRIANGLE_GRAPH_RINGS = "TRIANGLE_GRAPH_RINGS"
    ATTACHED_K4_GRAPH = "ATTACHED_K4_GRAPH"
    QUOTIENT_GENUS2_LIFT = "QUOTIENT_GENUS2_LIFT"
    GENUS_ONE_RESIDUE2_LIFT = "GENUS_ONE_RESIDUE2_LIFT"
    GENUS_ONE_EXAMPLES = "GENUS_ONE_EXAMPLES"
    GENUS_TWO_EXAMPLES = "GENUS_TWO_EXAMPLES"


class ClassificationReport(NamedTuple):
    """Outcome of one verification instance.

    verdict is what the classification fact predicts for the instance, fact
    is what direct computation observed, and the instance agrees when the two
    coincide.  inconclusive flags instances whose genus question could not be
    settled, by the search within budget or by a closed-form bound; such
    reports never count as agreement.
    """

    theorem: str
    ring: str
    ideal: str
    ideal_size: int
    quotient: str
    graph_order: int
    diameter: float
    girth: float
    clique: int
    genus_lower: int | None
    genus_upper: int | None
    verdict: bool
    fact: bool
    agreement: bool
    inconclusive: bool
    detail: str

    def to_json(self) -> str:
        import json

        d = self._asdict()
        for key in ("diameter", "girth"):
            d[key] = None if d[key] == INF else d[key]
        return json.dumps(d, sort_keys=True)


# === Instance plumbing ======================================================


def synthesize(target: RingTable, size: int) -> tuple[RingTable, IdealSet]:
    """Smallest ring realizing the quotient target at the given ideal size:
    the product target x Z_size with the ideal 0 x Z_size."""
    table = product_tables(target, _shared_table(zmod(size)))
    if table.zero != 0:
        raise ZdgenusError(f"{table.name} has its zero at {table.zero}, not 0")
    return table, IdealSet(table, (1 << size) - 1)


class _Instance:
    """The subject of one report: ring, ideal, ideal size and quotient names,
    and the graph whose invariants the report carries."""

    def __init__(self, ring: str, ideal: str, ideal_size: int, quotient: str,
                 graph: SimpleGraph):
        self.ring = ring
        self.ideal = ideal
        self.ideal_size = ideal_size
        self.quotient = quotient
        self.graph = graph

    @cached_property
    def graph_fields(self) -> dict:
        """The report's graph fields, computed once per instance."""
        return {"graph_order": self.graph.n, **invariants(self.graph)}


@lru_cache(maxsize=None)
def _synthesized(target_name: str, size: int) -> _Instance:
    """The synthesized pair (target x Z_size, 0 x Z_size) as an instance,
    built once and shared by every fact that reports on it."""
    table, ideal = synthesize(catalog_ring(target_name), size)
    return _Instance(table.name, f"0×Z_{size}", size, target_name,
                     ideal_zero_divisor_graph(table, ideal))


def _report(
    theorem: TheoremId,
    inst: _Instance,
    verdict: bool,
    fact: bool,
    detail: str,
    bounds: GenusBounds | None = None,
    lower: int | None = None,
    inconclusive: bool = False,
) -> ClassificationReport:
    """One report on inst.  The genus fields come from bounds when given,
    open when the search left the upper bound unknown; otherwise from the
    lower bound alone."""
    upper = None
    if bounds is not None:
        lower, upper = bounds.lower, bounds.upper
        inconclusive = upper is None
    return ClassificationReport(
        theorem=theorem.value,
        ring=inst.ring,
        ideal=inst.ideal,
        ideal_size=inst.ideal_size,
        quotient=inst.quotient,
        genus_lower=lower,
        genus_upper=upper,
        verdict=verdict,
        fact=fact,
        agreement=(verdict == fact) and not inconclusive,
        inconclusive=inconclusive,
        detail=detail,
        **inst.graph_fields,
    )


def _lower_bound_report(
    theorem: TheoremId, inst: _Instance, detail: str,
    verdict: bool = True, claims_ge2: bool = True,
) -> ClassificationReport:
    """Report on the claim that inst's graph has genus at least 2
    (claims_ge2) or at most 1 (not claims_ge2), observed through the
    closed-form bound alone; the bound's source is appended to detail.
    When the bound stays below 2 the report is open: only a search could
    decide either claim, so it neither agrees nor fails."""
    lo, source, _ = closed_form_bound(inst.graph)
    return _report(theorem, inst, verdict, (lo >= 2) == claims_ge2,
                   detail + source, lower=lo, inconclusive=lo < 2)


# weak keys, so that a table the caller drops is not kept alive here
_IDENTITIES: weakref.WeakKeyDictionary[RingTable, str] = (
    weakref.WeakKeyDictionary())


def _catalog_identity(table: RingTable) -> str:
    """Name of the first catalog ring isomorphic to table, or "other".  Two
    tables are isomorphic when they share an identity other than "other",
    so a catalog ring is recognised by comparing identities."""
    if table not in _IDENTITIES:
        _IDENTITIES[table] = next(
            (e.name for e in catalog_entries()
             if catalog_ring(e.name).order == table.order
             and iso_check(table, catalog_ring(e.name))), "other")
    return _IDENTITIES[table]


# === Predicates =============================================================


def redmond_planar_predicate(roveri: RingTable, isize: int) -> bool:
    """Planarity test for the ideal-based graph, stated on the quotient:
    the quotient graph must be acyclic and the ideal small (size 2, or up
    to 4 when the quotient graph is a single vertex)."""
    g = zero_divisor_graph(roveri)
    return girth(g) == INF and (isize == 2 or (g.n == 1 and isize <= 4))


# listed quotient -> the largest ideal size at which genus stays <= 1
_CLIQUE_LE2_CAPS: dict[str, int] = {
    "Z_3×Z_3": 2,
    "Z_2×Z_2": 4,
    "Z_2×Z_3": 3,
    "Z_2×Z_4": 2,
    "Z_2×Z_2[x]/(x²)": 2,
    "Z_4": 7,
    "Z_2[x]/(x²)": 7,
    "Z_9": 3,
    "Z_3[x]/(x²)": 3,
    "Z_8": 3,
    "Z_2[x]/(x³)": 3,
    "Z_4[x]/(x²-2,x³)": 3,
}

_TRIANGLE_RINGS: tuple[str, ...] = (
    "Z_2[x,y]/(x²,xy,y²)",
    "Z_4[x]/(2x,x²)",
    "F_4[x]/(x²)",
    "Z_4[x]/(x²+x+1)",
)

_CLIQUE3_TARGETS: tuple[str, ...] = ("Z_2×Z_2×Z_2", "Z_16", *_TRIANGLE_RINGS)


def _z2_cross_field_order(t: RingTable) -> int | None:
    """Field order q when t is isomorphic to Z_2 x F_q, else None."""
    zero = IdealSet(t, 1 << t.zero)
    if not is_radical(zero):
        return None
    primes = minimal_primes_over(zero)
    if len(primes) != 2:
        return None
    res = sorted(t.order // p.size for p in primes)
    if res[0] == 2 and res[0] * res[1] == t.order:
        return res[1]
    return None


def _listed_as(table: RingTable, names) -> str | None:
    """The first of the named catalog rings that table is isomorphic to,
    or None."""
    identity = _catalog_identity(table)
    return next((n for n in names
                 if _catalog_identity(catalog_ring(n)) == identity), None)


def genus_one_clique_le2_predicate(roveri: RingTable, isize: int) -> bool:
    """Membership test for the genus-at-most-one classification when the
    quotient graph has clique number at most 2: the quotient must match one
    of the listed targets and the ideal must respect that target's cap."""
    w = clique_number(zero_divisor_graph(roveri))
    if w > 2:
        raise CliqueHypothesisViolated(
            f"clique number {w} > 2 for {roveri.name}")
    name = _listed_as(roveri, _CLIQUE_LE2_CAPS)
    if name is not None:
        return isize <= _CLIQUE_LE2_CAPS[name]
    q = _z2_cross_field_order(roveri)
    if q is not None and q >= 4:
        return isize <= 2
    return False


def genus_one_clique3_predicate(roveri: RingTable, isize: int) -> bool:
    """Membership test for the genus-exactly-one classification when the
    quotient graph has clique number 3: ideal size 2 and one of six targets."""
    w = clique_number(zero_divisor_graph(roveri))
    if w != 3:
        raise CliqueHypothesisViolated(
            f"clique number {w} != 3 for {roveri.name}")
    return isize == 2 and _listed_as(roveri, _CLIQUE3_TARGETS) is not None


def genus_ge2_predicate(roveri: RingTable) -> bool:
    """Hypothesis of the genus-at-least-two lift: the quotient graph has
    clique number at least 4 or is nonplanar."""
    g = zero_divisor_graph(roveri)
    return clique_number(g) >= 4 or not is_planar(g)


# === Attachment graph =======================================================


def attached_k4_graph() -> tuple[SimpleGraph, tuple[int, int, int, int]]:
    """The 14-vertex graph with a hub pair joined to twelve satellites, a
    K4 on four of them, and two matched satellite ladders; returns the graph
    and the K4 vertex quadruple.  Its genus is at least 2."""
    labels = ["u", "u'"] + [f"v{i}" for i in range(1, 7)] + [
        f"v{i}'" for i in range(1, 7)]
    u, up = 0, 1
    v = {i: 1 + i for i in range(1, 7)}
    vp = {i: 7 + i for i in range(1, 7)}
    edges = [(u, up)]
    for i in range(1, 7):
        edges += [(u, v[i]), (u, vp[i]), (up, v[i]), (up, vp[i])]
    quad = (v[5], vp[5], v[6], vp[6])
    edges += list(combinations(quad, 2))
    for i in (1, 3):
        edges += [
            (v[i], v[i + 1]), (v[i], vp[i + 1]),
            (vp[i], v[i + 1]), (vp[i], vp[i + 1]),
        ]
    return make_graph(14, edges, tuple(labels)), quad


def _square_zero_universal_witness(t: RingTable):
    """Vertex triples (u, {v5, v6}, matching) of the quotient graph that
    support the attachment-graph embedding: u a universal square-zero
    vertex, v5 v6 an adjacent square-zero pair, and the remaining four
    vertices split into two adjacent pairs."""
    g = zero_divisor_graph(t)
    if g.n != 7:
        return
    elems = zero_divisors(t)
    sq0 = [j for j, x in enumerate(elems) if t.mul[x][x] == t.zero]
    for ju in sq0:
        if g.degree(ju) != g.n - 1:
            continue
        for j5, j6 in combinations([j for j in sq0 if j != ju], 2):
            if not g.has_edge(j5, j6):
                continue
            rest = [j for j in range(g.n) if j not in (ju, j5, j6)]
            for a, b in combinations(rest, 2):
                c, d = (x for x in rest if x not in (a, b))
                if g.has_edge(a, b) and g.has_edge(c, d):
                    yield ju, (j5, j6), ((a, b), (c, d))


def _h_embedding(name: str):
    """Locate the attachment graph inside the ideal-based graph of the
    synthesized pair (name x Z_2, 0 x Z_2); returns (vertex map, K4 fiber
    quadruple) or None."""
    g = _synthesized(name, 2).graph
    h, _ = attached_k4_graph()
    t = catalog_ring(name)
    for ju, (j5, j6), ((a, b), (c, d)) in _square_zero_universal_witness(t):
        order = [ju, a, b, c, d, j5, j6]
        vmap = [2 * order[0], 2 * order[0] + 1]
        vmap += [2 * j for j in order[1:]]
        vmap += [2 * j + 1 for j in order[1:]]
        if all(g.has_edge(vmap[x], vmap[y]) for x, y in h.edges()):
            quad = (2 * j5, 2 * j5 + 1, 2 * j6, 2 * j6 + 1)
            return vmap, quad
    return None


# === Catalog sweep cache ====================================================


class _PairFacts(NamedTuple):
    inst: _Instance  # the pair, its quotient's catalog identity, its graph
    prime: bool
    radical: bool
    quotient_table: RingTable
    quotient_graph: SimpleGraph


@lru_cache(maxsize=1)
def _pair_sweep() -> dict[tuple[str, int], _PairFacts]:
    """Every catalog ring with every proper nonzero ideal, keyed by ring name
    and ideal mask, with the quotient identified against the catalog and
    both graphs built."""
    out = {}
    for name, table, ideal in catalog_pairs(MAX_ORDER):
        q = quotient(table, ideal)
        out[name, ideal.mask] = _PairFacts(
            inst=_Instance(name, ideal.describe(), ideal.size,
                           _catalog_identity(q.table),
                           ideal_zero_divisor_graph(table, ideal)),
            prime=is_prime(ideal),
            radical=is_radical(ideal),
            quotient_table=q.table,
            quotient_graph=zero_divisor_graph(q.table),
        )
    return out


class _LocalRing(NamedTuple):
    inst: _Instance  # the ring by name with its zero-divisor graph
    table: RingTable
    residue: int  # size of the residue field
    msq_zero: bool  # whether the maximal ideal squares to zero


@lru_cache(maxsize=1)
def _locals() -> tuple[_LocalRing, ...]:
    """Every local catalog ring with the facts the local sweeps read."""
    out = []
    for entry in catalog_entries():
        t = catalog_ring(entry.name)
        if not is_local(t):
            continue
        us = set(units(t))
        nu = [a for a in range(t.order) if a not in us]
        out.append(_LocalRing(
            _Instance(entry.name, "-", 0, "-", zero_divisor_graph(t)),
            t, t.order // len(nu),
            all(t.mul[a][b] == t.zero for a in nu for b in nu)))
    return tuple(out)


# === Per-theorem instance builders ==========================================


_REDMOND_SYNTH: tuple[tuple[str, int], ...] = (
    ("Z_8", 2), ("Z_8", 3),
    ("Z_2[x]/(x³)", 2),
    ("Z_4", 2), ("Z_4", 3), ("Z_4", 4), ("Z_4", 5),
    ("Z_2[x]/(x²)", 4),
    ("Z_2×Z_2", 2), ("Z_3×Z_3", 2), ("Z_2×Z_2×Z_2", 2),
)


def _verify_redmond(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.REDMOND_PLANAR
    out = []
    for pf in _pair_sweep().values():
        if pf.prime:
            continue
        verdict = redmond_planar_predicate(pf.quotient_table,
                                           pf.inst.ideal_size)
        out.append(_report(tid, pf.inst, verdict, is_planar(pf.inst.graph),
                           "catalog pair planarity vs predicate"))
    for name, size in _REDMOND_SYNTH:
        inst = _synthesized(name, size)
        verdict = redmond_planar_predicate(catalog_ring(name), size)
        out.append(_report(tid, inst, verdict, is_planar(inst.graph),
                           "synthesized planarity vs predicate"))
    return out


_EXACT_ONE_AT_CAP = {
    "Z_3×Z_3", "Z_2×Z_2", "Z_2×Z_3", "Z_4", "Z_2[x]/(x²)",
    "Z_9", "Z_3[x]/(x²)", "Z_8", "Z_2[x]/(x³)", "Z_4[x]/(x²-2,x³)",
}

_Z2_FIELD_CAPS: dict[str, int] = dict.fromkeys(
    ("Z_2×F_4", "Z_2×Z_5", "Z_2×Z_7", "Z_2×F_8", "Z_2×F_9"), 2)


def _genus_one_sweep(tid: TheoremId, predicate, caps: dict[str, int],
                     exact_at_cap, control: str, budget: int
                     ) -> list[ClassificationReport]:
    """Per listed target: genus at most 1 at ideal sizes 2 to its cap,
    exactly 1 at the cap for those in exact_at_cap, and more than 1 past
    the cap; then more than 1 for the unlisted control at size 2."""
    out = []
    for name, cap in caps.items():
        target = catalog_ring(name)
        for size in range(2, cap + 1):
            verdict = predicate(target, size)
            inst = _synthesized(name, size)
            b = exact_genus(inst.graph, budget)
            exact = size == cap and name in exact_at_cap
            fact = ((b.lower, b.upper) == (1, 1) if exact
                    else b.upper is not None and b.upper <= 1)
            claim = "genus exactly 1" if exact else "genus at most 1"
            detail = f"{claim}; " + "; ".join(b.provenance)
            if b.certificate is not None:
                detail += f"; certificate with {b.certificate.faces} faces"
            out.append(_report(tid, inst, verdict, fact, detail, b))
        out.append(_lower_bound_report(
            tid, _synthesized(name, cap + 1), "lower bound via ",
            predicate(target, cap + 1), claims_ge2=False))
    out.append(_lower_bound_report(
        tid, _synthesized(control, 2), "lower bound via ",
        predicate(catalog_ring(control), 2), claims_ge2=False))
    return out


def _verify_genus_one_clique_le2(budget: int) -> list[ClassificationReport]:
    return _genus_one_sweep(
        TheoremId.GENUS_ONE_CLIQUE_LE2, genus_one_clique_le2_predicate,
        {**_CLIQUE_LE2_CAPS, **_Z2_FIELD_CAPS}, _EXACT_ONE_AT_CAP, "Z_12",
        budget)


def _verify_genus_one_clique3(budget: int) -> list[ClassificationReport]:
    return _genus_one_sweep(
        TheoremId.GENUS_ONE_CLIQUE3, genus_one_clique3_predicate,
        dict.fromkeys(_CLIQUE3_TARGETS, 2), _CLIQUE3_TARGETS, "Z_2×Z_9",
        budget)


def _verify_genus_ge2(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.GENUS_GE2
    out = []
    for entry in catalog_entries():
        target = catalog_ring(entry.name)
        gq = zero_divisor_graph(target)
        if gq.n == 0 or not genus_ge2_predicate(target):
            continue
        if 2 * target.order > MAX_ORDER:
            continue  # its pair at size 2 exceeds the supported ring order
        out.append(_lower_bound_report(
            tid, _synthesized(entry.name, 2), "lower bound via "))
    for pf in _pair_sweep().values():
        if pf.quotient_graph.n == 0:
            continue
        if not genus_ge2_predicate(pf.quotient_table):
            continue
        out.append(_lower_bound_report(
            tid, pf.inst, "catalog pair; lower bound via "))
    return out


_EXPANSIONS: tuple[tuple[str, tuple[int, ...], int, int], ...] = (
    # base graph, its multipartite shape, expansion factor, expected genus
    ("K_2", (1, 1), 5, 3),
    ("K_5", (1, 1, 1, 1, 1), 2, 3),
    ("K_{1,3}", (1, 3), 3, 2),
    ("K_{2,3}", (2, 3), 2, 2),
)


def _verify_expansion_bounds(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.EXPANSION_BOUNDS
    out = []
    for name, shape, t, expected in _EXPANSIONS:
        g = expand(complete_multipartite(*shape), t)
        sb = subgraph_lower_bound(g)
        b = exact_genus(g, budget)
        fact = sb.value >= 2 and b.lower >= 2 and b.upper == expected
        out.append(_report(
            tid, _Instance(f"{name}^({t})", "-", 0, "-", g), True, fact,
            f"{sb.source} gives {sb.value}; exact genus "
            f"[{b.lower},{b.upper}] expected {expected}", b))
    return out


def _verify_quotient_graph_laws(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.QUOTIENT_GRAPH_LAWS
    out = []
    for pf in _pair_sweep().values():
        g, gq, size = pf.inst.graph, pf.quotient_graph, pf.inst.ideal_size
        order_law = g.n == size * gq.n
        ge = expand(gq, size)
        expansion_edges = set(ge.edges())
        graph_edges = set(g.edges())
        subgraph_law = ge.n == g.n and expansion_edges <= graph_edges
        equality = expansion_edges == graph_edges
        radical_law = equality == pf.radical
        table, ideal = synthesize(pf.quotient_table, size)
        g2 = ideal_zero_divisor_graph(table, ideal)
        invariance = g2.n == g.n and set(g2.edges()) == graph_edges
        fact = order_law and subgraph_law and radical_law and invariance
        out.append(_report(
            tid, pf.inst, True, fact,
            f"order law {order_law}; expansion subgraph {subgraph_law}; "
            f"equality iff radical {radical_law} (radical={pf.radical}); "
            f"synthesized-copy invariance {invariance}"))
    return out


def _verify_diameter(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.DIAMETER_LE3
    out = []
    for pf in _pair_sweep().values():
        connected = is_connected(pf.inst.graph)
        d = pf.inst.graph_fields["diameter"]
        out.append(_report(tid, pf.inst, True, connected and d <= 3,
                           f"connected {connected}; diameter {d}"))
    return out


def _verify_girth(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.GIRTH_LE4
    out = []
    for pf in _pair_sweep().values():
        gr = pf.inst.graph_fields["girth"]
        out.append(_report(tid, pf.inst, True, gr == INF or gr <= 4,
                           f"girth {gr}"))
    return out


def _verify_clique_minimal_primes(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.CLIQUE_MINIMAL_PRIMES
    out = []
    for entry in catalog_entries():
        table = catalog_ring(entry.name)
        for ideal in enumerate_ideals(table):
            if ideal.is_whole() or not is_radical(ideal):
                continue
            primes = minimal_primes_over(ideal)
            if len(primes) < 2:
                continue
            pf = _pair_sweep().get((entry.name, ideal.mask))
            if pf is not None:
                inst = pf.inst
            else:  # the zero ideal
                inst = _Instance(
                    entry.name, ideal.describe(), ideal.size,
                    _catalog_identity(quotient(table, ideal).table),
                    ideal_zero_divisor_graph(table, ideal))
            w = inst.graph_fields["clique"]
            out.append(_report(
                tid, inst, True, w == len(primes),
                f"clique {w} vs {len(primes)} minimal primes"))
    return out


def _verify_local_order_power(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.LOCAL_ORDER_POWER
    out = []
    for lr in _locals():
        order, res = lr.table.order, lr.residue
        power = res
        while power < order:
            power *= res
        out.append(_report(tid, lr.inst, True, power == order,
                           f"order {order}, residue field size {res}"))
    return out


def _verify_expansion_ge2_big_residue(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.EXPANSION_GE2_BIG_RESIDUE
    out = []
    for lr in _locals():
        if lr.msq_zero or lr.residue < 3:
            continue
        doubled = _Instance(lr.inst.ring, "-", 0, "-",
                            expand(lr.inst.graph, 2))
        out.append(_lower_bound_report(
            tid, doubled, "doubled graph lower bound via "))
    return out


def _verify_acyclic_residue_two(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.ACYCLIC_RESIDUE_TWO
    out = []
    for lr in _locals():
        if (lr.inst.graph.n == 0 or lr.msq_zero
                or lr.inst.graph_fields["girth"] != INF):
            continue
        out.append(_report(
            tid, lr.inst, True, lr.residue == 2,
            f"acyclic graph, nonzero square of the maximal ideal, "
            f"residue field size {lr.residue}"))
    return out


def _verify_z2_product_graphs(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.Z2_PRODUCT_GRAPHS
    out = []
    z2 = _shared_table(zmod(2))
    for lr in _locals():
        if 2 * lr.table.order > MAX_ORDER:
            continue  # product would exceed the supported ring order
        gs = lr.inst.graph
        table = product_tables(z2, lr.table)
        g = zero_divisor_graph(table)
        inst = _Instance(table.name, "-", 0, lr.inst.ring, g)
        if gs.n <= 1:
            fact = is_planar(g) and inst.graph_fields["girth"] == INF
            detail = f"small factor graph ({gs.n} vertices): planar and acyclic"
        else:
            k3 = find_complete_subgraph(g, 3)
            k23 = find_biclique(g, 2, 3)
            fact = k3 is not None and k23 is not None
            detail = (f"large factor graph ({gs.n} vertices): triangle "
                      f"{k3} and K_{{2,3}} {k23}")
        out.append(_report(tid, inst, True, fact, detail))
    return out


_TRIPLE_NEGATIVE_FACTORS: tuple[tuple[str, ...], ...] = (
    ("Z_2", "Z_2", "Z_3"),
    ("Z_2", "Z_2", "Z_2", "Z_2"),
    ("Z_2", "Z_2", "Z_4"),
    ("Z_2", "Z_3", "Z_3"),
)


def _verify_triple_product_genus(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.TRIPLE_PRODUCT_GENUS
    out = []
    cube = catalog_ring("Z_2×Z_2×Z_2")
    g = expand(zero_divisor_graph(cube), 2)
    b = exact_genus(g, budget)
    out.append(_report(
        tid, _Instance("Z_2×Z_2×Z_2", "-", 0, "-", g), True,
        b.upper is not None and b.upper <= 1,
        f"doubled graph genus [{b.lower},{b.upper}]", b))
    for factors in _TRIPLE_NEGATIVE_FACTORS:
        table = product_tables(*(catalog_ring(f) for f in factors))
        doubled = _Instance(table.name, "-", 0, "-",
                            expand(zero_divisor_graph(table), 2))
        out.append(_lower_bound_report(
            tid, doubled, "doubled graph lower bound via ", False,
            claims_ge2=False))
    return out


def _verify_triangle_graph_rings(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.TRIANGLE_GRAPH_RINGS
    out = []
    for lr in _locals():
        g = lr.inst.graph
        is_triangle = g.n == 3 and g.m == 3
        listed = _listed_as(lr.table, _TRIANGLE_RINGS) is not None
        if not (is_triangle or listed):
            continue
        fact = is_triangle and listed and lr.msq_zero
        out.append(_report(
            tid, lr.inst, True, fact,
            f"triangle graph {is_triangle}; listed {listed}; "
            f"square-zero maximal ideal {lr.msq_zero}"))
    return out


_GENUS_TWO_TARGETS: tuple[str, ...] = (
    "Z_4[x,y]/(x²,y²,xy-2)",
    "Z_2[x,y]/(x²,y²)",
    "Z_4[x]/(x²)",
    "Z_2[x,y]/(x³,xy,y²-x²)",
    "Z_4[x]/(x³,x²-2x)",
    "Z_4[x,y]/(x³,x²-2,xy,y²-2)",
    "Z_8[x]/(x²-4,2x)",
)


def _verify_attached_k4_graph(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.ATTACHED_K4_GRAPH
    out = []
    h, quad = attached_k4_graph()
    kb = k4_attachment_bound(h, quad)
    b = exact_genus(h, budget)
    out.append(_report(
        tid, _Instance("attachment graph", "-", 0, "-", h), True,
        kb >= 2 and b.lower >= 2,
        f"attachment bound {kb}; exact genus [{b.lower},{b.upper}]", b))
    for name in _GENUS_TWO_TARGETS:
        inst = _synthesized(name, 2)
        found = _h_embedding(name)
        if found is None:
            out.append(_report(tid, inst, True, False,
                               "no attachment-graph embedding found"))
            continue
        vmap, fiber_quad = found
        kb = k4_attachment_bound(inst.graph, fiber_quad)
        out.append(_report(
            tid, inst, True, kb >= 2,
            f"attachment graph embedded via vertex map {vmap}; "
            f"attachment bound {kb}", lower=kb))
    return out


def _extra_genus_two_local() -> RingTable:
    """An order-27 local ring whose maximal ideal squares to zero, giving a
    complete graph on 8 vertices; used to exercise the quotient lift when no
    catalog member has a provably genus-2 graph."""
    return _shared_table(quotient_algebra(
        3, ("x", "y"), [("x^2", "0"), ("x*y", "0"), ("y^2", "0")],
        "Z_3[x,y]/(x²,xy,y²)", 27))


def _verify_quotient_genus2_lift(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.QUOTIENT_GENUS2_LIFT
    out = []
    catalog_tables = [catalog_ring(e.name) for e in catalog_entries()]
    for target in catalog_tables + [_extra_genus_two_local()]:
        if 2 * target.order > MAX_ORDER:
            continue
        gq = zero_divisor_graph(target)
        if gq.n == 0:
            continue
        qlo = closed_form_bound(gq).value
        if qlo < 2:
            continue
        table, ideal = synthesize(target, 2)
        inst = _Instance(table.name, "0×Z_2", 2, _catalog_identity(target),
                         ideal_zero_divisor_graph(table, ideal))
        out.append(_lower_bound_report(
            tid, inst,
            f"quotient graph lower bound {qlo}; lifted lower bound via "))
    return out


def _verify_genus_one_residue2_lift(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.GENUS_ONE_RESIDUE2_LIFT
    out = []
    for lr in _locals():
        if lr.residue != 2 or 2 * lr.table.order > MAX_ORDER:
            continue
        gq = lr.inst.graph
        if gq.n == 0:
            continue
        bq = exact_genus(gq, budget)
        if (bq.lower, bq.upper) != (1, 1):
            continue
        out.append(_lower_bound_report(
            tid, _synthesized(lr.inst.ring, 2),
            "quotient graph has genus exactly 1; lifted lower bound via "))
    return out


_GENUS_ONE_EXAMPLES: tuple[tuple[str, int, bool], ...] = (
    # target, ideal size, whether the graph must be the complete K_6
    ("Z_2×Z_2×Z_2", 2, False),
    ("Z_16", 2, False),
    ("Z_8", 3, False),
    ("Z_2[x]/(x³)", 3, False),
    ("Z_4[x]/(x²-2,x³)", 3, False),
    ("Z_9", 3, True),
    ("Z_3[x]/(x²)", 3, True),
)


def _verify_genus_one_examples(budget: int) -> list[ClassificationReport]:
    tid = TheoremId.GENUS_ONE_EXAMPLES
    out = []
    for name, size, expect_k6 in _GENUS_ONE_EXAMPLES:
        inst = _synthesized(name, size)
        g = inst.graph
        b = exact_genus(g, budget)
        fact = (b.lower, b.upper) == (1, 1)
        detail = f"genus [{b.lower},{b.upper}]"
        if expect_k6:
            complete = g.n == 6 and g.m == 15
            fact = fact and complete
            detail += f"; complete on 6 vertices {complete}"
        out.append(_report(tid, inst, True, fact, detail, b))
    return out


def _verify_genus_two_examples(budget: int) -> list[ClassificationReport]:
    return [_lower_bound_report(TheoremId.GENUS_TWO_EXAMPLES,
                                _synthesized(name, 2),
                                "lower bound via ")
            for name in _GENUS_TWO_TARGETS]


# === Entry points ===========================================================


_BUILDERS = {
    TheoremId.REDMOND_PLANAR: _verify_redmond,
    TheoremId.GENUS_ONE_CLIQUE_LE2: _verify_genus_one_clique_le2,
    TheoremId.GENUS_ONE_CLIQUE3: _verify_genus_one_clique3,
    TheoremId.GENUS_GE2: _verify_genus_ge2,
    TheoremId.EXPANSION_BOUNDS: _verify_expansion_bounds,
    TheoremId.QUOTIENT_GRAPH_LAWS: _verify_quotient_graph_laws,
    TheoremId.DIAMETER_LE3: _verify_diameter,
    TheoremId.GIRTH_LE4: _verify_girth,
    TheoremId.CLIQUE_MINIMAL_PRIMES: _verify_clique_minimal_primes,
    TheoremId.LOCAL_ORDER_POWER: _verify_local_order_power,
    TheoremId.EXPANSION_GE2_BIG_RESIDUE: _verify_expansion_ge2_big_residue,
    TheoremId.ACYCLIC_RESIDUE_TWO: _verify_acyclic_residue_two,
    TheoremId.Z2_PRODUCT_GRAPHS: _verify_z2_product_graphs,
    TheoremId.TRIPLE_PRODUCT_GENUS: _verify_triple_product_genus,
    TheoremId.TRIANGLE_GRAPH_RINGS: _verify_triangle_graph_rings,
    TheoremId.ATTACHED_K4_GRAPH: _verify_attached_k4_graph,
    TheoremId.QUOTIENT_GENUS2_LIFT: _verify_quotient_genus2_lift,
    TheoremId.GENUS_ONE_RESIDUE2_LIFT: _verify_genus_one_residue2_lift,
    TheoremId.GENUS_ONE_EXAMPLES: _verify_genus_one_examples,
    TheoremId.GENUS_TWO_EXAMPLES: _verify_genus_two_examples,
}


def verify(theorem: TheoremId | str, budget: int = 10**8
           ) -> list[ClassificationReport]:
    """All instance reports for one classification fact."""
    tid = TheoremId(theorem)
    return _BUILDERS[tid](budget)


def verify_all(budget: int = 10**8
               ) -> dict[TheoremId, list[ClassificationReport]]:
    """Instance reports for every classification fact, in enum order."""
    return {tid: verify(tid, budget) for tid in TheoremId}


def all_pass(reports: list[ClassificationReport]) -> bool:
    return all(r.agreement and not r.inconclusive for r in reports)
