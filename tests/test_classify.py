"""Unit tests for the classification predicates and the verifier."""

import json

import pytest

from zdgenus import (
    ClassificationReport,
    TheoremId,
    attached_k4_graph,
    catalog_ring,
    complete_bipartite,
    complete_graph,
    genus_ge2_predicate,
    genus_one_clique3_predicate,
    genus_one_clique_le2_predicate,
    iso_check,
    k4_attachment_bound,
    redmond_planar_predicate,
    synthesize,
    verify,
)
from zdgenus import classify
from zdgenus.classify import INF, all_pass
from zdgenus.errors import CliqueHypothesisViolated
from zdgenus.ideals import quotient, validate_ideal
from zdgenus.rings import build_ring, product, zmod


def test_theorem_id_round_trip():
    assert len(TheoremId) == 20
    for member in TheoremId:
        assert TheoremId(member.value) is member
        assert isinstance(member.value, str)
    assert TheoremId.REDMOND_PLANAR.value == "REDMOND_PLANAR"


def test_redmond_predicate_path_quotient():
    z8 = catalog_ring("Z_8")
    assert redmond_planar_predicate(z8, 2)
    assert not redmond_planar_predicate(z8, 3)


def test_redmond_predicate_single_vertex_quotient():
    z4 = catalog_ring("Z_4")
    assert redmond_planar_predicate(z4, 2)
    assert redmond_planar_predicate(z4, 4)
    assert not redmond_planar_predicate(z4, 5)


def test_redmond_predicate_rejects_cyclic_quotient():
    boolean_cube = catalog_ring("Z_2×Z_2×Z_2")
    assert not redmond_planar_predicate(boolean_cube, 2)


def test_clique_le2_predicate_caps():
    z4 = catalog_ring("Z_4")
    assert genus_one_clique_le2_predicate(z4, 7)
    assert not genus_one_clique_le2_predicate(z4, 8)
    z3z3 = catalog_ring("Z_3×Z_3")
    assert genus_one_clique_le2_predicate(z3z3, 2)
    assert not genus_one_clique_le2_predicate(z3z3, 3)


def test_clique_le2_predicate_structural_branch():
    z10 = catalog_ring("Z_10")
    assert genus_one_clique_le2_predicate(z10, 2)
    assert not genus_one_clique_le2_predicate(z10, 3)


def test_clique_le2_predicate_field_quotient_is_negative():
    assert not genus_one_clique_le2_predicate(catalog_ring("Z_7"), 2)


def test_clique_le2_predicate_hypothesis_guard():
    with pytest.raises(CliqueHypothesisViolated):
        genus_one_clique_le2_predicate(catalog_ring("Z_2×Z_2×Z_2"), 2)


def test_clique3_predicate_targets():
    z16 = catalog_ring("Z_16")
    assert genus_one_clique3_predicate(z16, 2)
    assert not genus_one_clique3_predicate(z16, 4)
    assert not genus_one_clique3_predicate(catalog_ring("Z_27"), 2)


def test_clique3_predicate_hypothesis_guard():
    with pytest.raises(CliqueHypothesisViolated):
        genus_one_clique3_predicate(catalog_ring("Z_8"), 2)
    with pytest.raises(CliqueHypothesisViolated):
        genus_one_clique3_predicate(catalog_ring("Z_25"), 2)


def test_genus_ge2_predicate():
    assert genus_ge2_predicate(catalog_ring("Z_25"))
    assert not genus_ge2_predicate(catalog_ring("Z_16"))
    assert not genus_ge2_predicate(catalog_ring("Z_2×Z_2×Z_2"))


def test_synthesize_builds_quotient_instance():
    target = catalog_ring("Z_8")
    table, ideal = synthesize(target, 3)
    assert table.order == 24
    assert ideal.size == 3
    assert validate_ideal(ideal)
    q = quotient(table, ideal)
    assert q.table.order == 8
    assert iso_check(q.table, target) is not None


def test_report_json_maps_infinity_to_null():
    report = ClassificationReport(
        theorem="demo", ring="R", ideal="(0)", ideal_size=1, quotient="R",
        graph_order=0, diameter=INF, girth=INF, clique=0,
        genus_lower=0, genus_upper=0, verdict=True, fact=True,
        agreement=True, inconclusive=False, detail="",
    )
    decoded = json.loads(report.to_json())
    assert decoded["diameter"] is None
    assert decoded["girth"] is None
    assert decoded["agreement"] is True


def test_attached_k4_graph_shape():
    g, quad = attached_k4_graph()
    assert (g.n, g.m) == (14, 39)
    assert len(set(quad)) == 4 and all(0 <= v < g.n for v in quad)
    assert k4_attachment_bound(g, quad) == 2


def test_verify_accepts_enum_and_slug():
    by_enum = verify(TheoremId.ACYCLIC_RESIDUE_TWO)
    by_slug = verify("ACYCLIC_RESIDUE_TWO")
    assert len(by_enum) == len(by_slug) == 3
    assert all_pass(by_enum)
    assert [r.to_json() for r in by_enum] == [r.to_json() for r in by_slug]


def test_verify_triangle_rings():
    reports = verify(TheoremId.TRIANGLE_GRAPH_RINGS)
    assert len(reports) == 4
    assert all_pass(reports)
    assert all(r.clique == 3 for r in reports)


def test_verify_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        verify("no-such-claim")


def test_verify_reports_share_theorem_slug():
    reports = verify(TheoremId.EXPANSION_GE2_BIG_RESIDUE)
    assert reports and all(
        r.theorem == TheoremId.EXPANSION_GE2_BIG_RESIDUE.value
        for r in reports
    )
    assert all_pass(reports)


def test_product_spec_matches_catalog_product():
    table = build_ring(product(zmod(2), zmod(2), zmod(2)))
    assert iso_check(table, catalog_ring("Z_2×Z_2×Z_2")) is not None


@pytest.mark.parametrize("answer", [True, False])
def test_wrong_predicate_gives_failing_reports(monkeypatch, answer):
    monkeypatch.setattr(classify, "genus_one_clique3_predicate",
                        lambda roveri, isize: answer)
    reports = verify(TheoremId.GENUS_ONE_CLIQUE3)
    failing = [r for r in reports if not r.agreement and not r.inconclusive]
    assert failing and all(r.verdict is answer for r in failing)


def test_report_lower_bound_is_the_closed_form_bound():
    # Euler alone gives 2 on this 12-vertex graph; its K_{4,8} gives 3
    reports = verify(TheoremId.GENUS_ONE_CLIQUE_LE2)
    r, = (r for r in reports if (r.ring, r.ideal) == ("Z_8×Z_4", "0×Z_4"))
    assert r.genus_lower == 3
    assert r.detail.endswith("subgraph K_{4,8}")


@pytest.mark.parametrize("claims_ge2", [True, False])
def test_report_below_two_is_open_without_a_search(monkeypatch, claims_ge2):
    """A closed-form bound below 2 decides neither claim, and no search
    stands behind it; at 2 or more the report is decided as before."""
    def no_search(*args):
        pytest.fail("_lower_bound_report ran exact_genus")

    monkeypatch.setattr(classify, "exact_genus", no_search)

    def report(g):
        inst = classify._Instance("R", "I", 2, "R/I", g)
        return classify._lower_bound_report(
            TheoremId.GENUS_GE2, inst, "lower bound via ",
            claims_ge2=claims_ge2)

    for g in (complete_graph(5), complete_bipartite(3, 3)):
        r = report(g)
        assert (r.inconclusive, r.agreement, r.genus_lower) == (True, False, 1)
        assert r.detail.endswith("euler bound 1")
    r = report(complete_graph(8))
    assert (r.inconclusive, r.agreement, r.genus_lower) == (
        False, claims_ge2, 2)
    assert r.detail.endswith("euler bound 2")


def test_attachment_failure_reports_the_synthesized_graph(monkeypatch):
    monkeypatch.setattr(classify, "_h_embedding", lambda name: None)
    failures = verify(TheoremId.ATTACHED_K4_GRAPH)[1:]
    assert failures and all(not r.agreement for r in failures)
    assert all(r.ideal == "0×Z_2" and r.graph_order == 14 for r in failures)
