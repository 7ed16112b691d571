"""Acceptance gate.

One test per shipping criterion, so `pytest -v` prints one pass/fail
line for each.  The classification sweep runs once per session and is
shared by the criteria that read from it; the final rail test pins its
wall-clock budget.
"""

import gzip
import random
import time
from pathlib import Path

import pytest

from zdgenus import (
    TheoremId,
    attached_k4_graph,
    catalog_ring,
    exact_genus,
    face_trace,
    genus_biclique,
    genus_complete,
    iso_check,
    k4_attachment_bound,
    random_rotation,
    synthesize,
    verify_all,
)
from zdgenus import genus as genus_module
from zdgenus.graphs import (
    complete_bipartite,
    complete_graph,
    ideal_zero_divisor_graph,
    zero_divisor_graph,
)
from zdgenus.rings import RingTable

BUDGET = 10**8
GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify.jsonl.gz"
SWEEP_TIME_LIMIT_S = 1800.0
FORMULA_TIME_LIMIT_S = 60.0
# the sweep's genus searches, and the nodes they charge in all
SWEEP_SEARCH_EFFORT = (47, 2_000_082)

EXPECTED_INSTANCE_COUNTS = {
    TheoremId.REDMOND_PLANAR: 184,
    TheoremId.GENUS_ONE_CLIQUE_LE2: 53,
    TheoremId.GENUS_ONE_CLIQUE3: 13,
    TheoremId.GENUS_GE2: 19,
    TheoremId.EXPANSION_BOUNDS: 4,
    TheoremId.QUOTIENT_GRAPH_LAWS: 301,
    TheoremId.DIAMETER_LE3: 301,
    TheoremId.GIRTH_LE4: 301,
    TheoremId.CLIQUE_MINIMAL_PRIMES: 48,
    TheoremId.ATTACHED_K4_GRAPH: 8,
    TheoremId.GENUS_ONE_EXAMPLES: 7,
}

EXPECTED_EXPANSION_GENUS = {
    "K_2^(5)": 3,
    "K_5^(2)": 3,
    "K_{1,3}^(3)": 2,
    "K_{2,3}^(2)": 2,
}


@pytest.fixture(scope="module")
def sweep_searches():
    """The nodes each `_search_genus` call of the sweep charges, recorded
    while the sweep runs."""
    return []


@pytest.fixture(scope="module")
def sweep(sweep_searches):
    saved = genus_module._search_genus

    def record(g, spent):
        before = spent[0]
        try:
            return saved(g, spent)
        finally:
            sweep_searches.append(before - spent[0])

    genus_module._search_genus = record
    try:
        start = time.perf_counter()
        reports = verify_all(BUDGET)
        elapsed = time.perf_counter() - start
    finally:
        genus_module._search_genus = saved
    return reports, elapsed


def _clean(reports):
    return (all(r.agreement for r in reports)
            and not any(r.inconclusive for r in reports))


def test_criterion_1_genus_formulas_match_search():
    start = time.perf_counter()
    assert [genus_complete(n) for n in range(3, 8)] == [0, 0, 1, 1, 1]
    assert genus_biclique(3, 3) == 1
    assert genus_biclique(4, 4) == 1
    assert genus_biclique(4, 6) == 2
    for n in range(3, 8):
        b = exact_genus(complete_graph(n), BUDGET)
        assert (b.lower, b.upper) == (genus_complete(n),) * 2, f"K_{n}"
    for m in range(2, 5):
        for n in range(m, 11 - m):
            b = exact_genus(complete_bipartite(m, n), BUDGET)
            expected = genus_biclique(m, n)
            assert (b.lower, b.upper) == (expected, expected), f"K_{m},{n}"
    assert time.perf_counter() - start < FORMULA_TIME_LIMIT_S


def test_criterion_2_planarity_classification(sweep):
    reports, _ = sweep
    rs = reports[TheoremId.REDMOND_PLANAR]
    assert len(rs) == EXPECTED_INSTANCE_COUNTS[TheoremId.REDMOND_PLANAR]
    assert _clean(rs)


def test_criterion_3_genus_one_classification(sweep):
    reports, _ = sweep
    le2 = reports[TheoremId.GENUS_ONE_CLIQUE_LE2]
    c3 = reports[TheoremId.GENUS_ONE_CLIQUE3]
    examples = reports[TheoremId.GENUS_ONE_EXAMPLES]
    for tid, rs in [(TheoremId.GENUS_ONE_CLIQUE_LE2, le2),
                    (TheoremId.GENUS_ONE_CLIQUE3, c3),
                    (TheoremId.GENUS_ONE_EXAMPLES, examples)]:
        assert len(rs) == EXPECTED_INSTANCE_COUNTS[tid]
        assert _clean(rs)
    positives = [r for r in le2 + c3 if r.verdict]
    negatives = [r for r in le2 + c3 if not r.verdict]
    assert positives and len(negatives) >= 2
    assert all(r.genus_upper is not None and r.genus_upper <= 1
               for r in positives)
    assert all(r.genus_lower == r.genus_upper == 1
               for r in c3 if r.verdict)
    assert any(r.genus_lower == r.genus_upper == 1 for r in le2)

    # Re-derive two positive certificates from scratch.
    table, ideal = synthesize(catalog_ring("Z_16"), 2)
    g = ideal_zero_divisor_graph(table, ideal)
    b = exact_genus(g, BUDGET)
    assert (b.lower, b.upper) == (1, 1) and b.certificate is not None
    faces, genus = face_trace(g, b.certificate.rotation)
    assert (faces, genus) == (b.certificate.faces, 1)

    k6 = zero_divisor_graph(catalog_ring("Z_49"))
    b = exact_genus(k6, BUDGET)
    assert (b.lower, b.upper) == (1, 1) and b.certificate is not None
    faces, genus = face_trace(k6, b.certificate.rotation)
    assert (faces, genus) == (b.certificate.faces, 1)


def test_criterion_4_genus_two_threshold(sweep):
    reports, _ = sweep
    rs = reports[TheoremId.GENUS_GE2]
    assert len(rs) == EXPECTED_INSTANCE_COUNTS[TheoremId.GENUS_GE2]
    assert _clean(rs)
    assert all(r.genus_lower is not None and r.genus_lower >= 2 for r in rs)


def test_criterion_5_structural_invariants(sweep):
    reports, _ = sweep
    for tid in (TheoremId.QUOTIENT_GRAPH_LAWS, TheoremId.DIAMETER_LE3,
                TheoremId.GIRTH_LE4, TheoremId.CLIQUE_MINIMAL_PRIMES):
        rs = reports[tid]
        assert len(rs) == EXPECTED_INSTANCE_COUNTS[tid], tid
        assert _clean(rs), tid


def test_criterion_6_expansion_genus_values(sweep):
    reports, _ = sweep
    rs = reports[TheoremId.EXPANSION_BOUNDS]
    assert len(rs) == EXPECTED_INSTANCE_COUNTS[TheoremId.EXPANSION_BOUNDS]
    assert _clean(rs)
    observed = {r.ring: (r.genus_lower, r.genus_upper) for r in rs}
    assert set(observed) == set(EXPECTED_EXPANSION_GENUS)
    for name, expected in EXPECTED_EXPANSION_GENUS.items():
        assert observed[name] == (expected, expected), name


def test_criterion_7_attachment_graph(sweep):
    reports, _ = sweep
    rs = reports[TheoremId.ATTACHED_K4_GRAPH]
    assert len(rs) == EXPECTED_INSTANCE_COUNTS[TheoremId.ATTACHED_K4_GRAPH]
    assert _clean(rs)
    assert rs[0].genus_lower is not None and rs[0].genus_lower >= 2
    g, quad = attached_k4_graph()
    assert k4_attachment_bound(g, quad) == 2


def test_criterion_8_randomized_backstops():
    rng = random.Random(2026)
    pool = (
        [complete_graph(k) for k in (4, 5, 6)]
        + [complete_bipartite(3, 3), complete_bipartite(2, 4)]
        + [zero_divisor_graph(catalog_ring(n))
           for n in ("Z_12", "Z_16", "Z_2×Z_4")]
    )
    for _ in range(10_000):
        g = pool[rng.randrange(len(pool))]
        rot = random_rotation(g, rng)
        faces, genus = face_trace(g, rot)
        assert genus >= 0
        assert g.n - g.m + faces == 2 - 2 * genus

    ring_pool = ("Z_6", "Z_8", "Z_9", "Z_12", "Z_16", "F_4", "Z_3×Z_3",
                 "Z_2×Z_4", "Z_2[x]/(x³)", "Z_4[x]/(x²)")
    for k in range(50):
        t = catalog_ring(ring_pool[k % len(ring_pool)])
        perm = list(range(t.order))
        rng.shuffle(perm)
        add2 = [[0] * t.order for _ in range(t.order)]
        mul2 = [[0] * t.order for _ in range(t.order)]
        labels2 = [""] * t.order
        for i in range(t.order):
            labels2[perm[i]] = t.labels[i]
            for j in range(t.order):
                add2[perm[i]][perm[j]] = perm[t.add[i][j]]
                mul2[perm[i]][perm[j]] = perm[t.mul[i][j]]
        shuffled = RingTable(
            order=t.order, add=tuple(map(tuple, add2)),
            mul=tuple(map(tuple, mul2)), zero=perm[t.zero],
            one=perm[t.one], labels=tuple(labels2), name=t.name + " shuffled",
        )
        w = iso_check(t, shuffled)
        assert w is not None
        assert w[t.zero] == shuffled.zero and w[t.one] == shuffled.one
        for i in range(t.order):
            for j in range(t.order):
                assert w[t.add[i][j]] == shuffled.add[w[i]][w[j]]
                assert w[t.mul[i][j]] == shuffled.mul[w[i]][w[j]]


def test_full_sweep_passes_within_time_budget(sweep):
    reports, elapsed = sweep
    assert set(reports) == set(TheoremId)
    assert elapsed < SWEEP_TIME_LIMIT_S
    for tid, rs in reports.items():
        assert rs, tid
        assert _clean(rs), tid


def test_sweep_search_effort(sweep, sweep_searches):
    assert (len(sweep_searches), sum(sweep_searches)) == SWEEP_SEARCH_EFFORT


def test_sweep_reports_match_golden(sweep):
    """Every report, detail text included, is byte-identical to the
    recorded golden run; a deliberate change to report text regenerates
    tests/golden/verify.jsonl.gz."""
    reports, _ = sweep
    observed = [r.to_json() for rs in reports.values() for r in rs]
    expected = gzip.decompress(GOLDEN_VERIFY.read_bytes()).decode()
    assert observed == expected.splitlines()
