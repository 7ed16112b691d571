"""End-to-end tests for the command line interface.

Every test drives main(argv) in-process and inspects stdout, stderr,
exit codes, and any files the command writes.
"""

import csv
import json
from pathlib import Path

import pytest

from zdgenus import classify
from zdgenus.classify import TheoremId
from zdgenus.cli import main

GOLDEN_ATLAS = Path(__file__).parent / "golden" / "atlas_order27.csv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_summary(capsys):
    code, out, _ = run(capsys, "ring", "Z_16")
    assert code == 0
    assert "order: 16" in out
    assert "units: 8" in out
    assert "zero-divisors: 8" in out
    assert "local: yes" in out


def test_ring_product_shorthand(capsys):
    code, out, _ = run(capsys, "ring", "Z_2xZ_2xZ_2")
    assert code == 0
    assert "order: 8" in out
    assert "local: no" in out


def test_ring_json(capsys):
    code, out, _ = run(capsys, "ring", "Z_6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["local"] is False


def test_unknown_ring_exits_2(capsys):
    code, _, err = run(capsys, "ring", "Z_999")
    assert code == 2
    assert "error" in err


def test_file_named_like_a_catalog_ring_does_not_shadow_it(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("Z_6").write_text("not a spec", encoding="utf-8")
    Path("mine").write_text(json.dumps({"kind": "zmod", "n": 10}),
                            encoding="utf-8")
    code, out, _ = run(capsys, "ring", "Z_6")
    assert code == 0
    assert "order: 6" in out
    # a file that names no ring is still read as a spec
    code, out, _ = run(capsys, "ring", "mine")
    assert code == 0
    assert "order: 10" in out


def test_adhoc_triple_product_has_flat_labels(capsys):
    code, out, _ = run(capsys, "ring", "Z_2×Z_2×Z_5")
    assert code == 0
    assert "labels: (0, 0, 0) (0, 0, 1) (0, 0, 2)" in out
    assert "(1, 1, 4)\n" in out and "((" not in out
    code, out, _ = run(capsys, "graph", "Z_2xZ_2xZ_5", "gen:(0, 0, 1)")
    assert code == 0
    assert out.startswith("graph of Z_2×Z_2×Z_5 at ((0, 0, 1))\n")
    assert "vertices: 10" in out and "edges: 25" in out


_BAD_RELATIONS = ["x^-1", "sin(x)", "1.5*x", "2x", "x^y", "x/2",
                  "+".join(["x"] * 100000)]
BAD_SPECS = [
    {"kind": "zmod"},
    {"kind": "gf", "p": 2, "k": 100000},
    {"kind": "quotient", "base": 4, "variables": ["x"],
     "relations": [["x^2"]]},
] + [
    {"kind": "quotient", "base": 4, "variables": ["x"],
     "relations": [["x^2", rhs]]} for rhs in _BAD_RELATIONS
] + [
    # expands past the term-pair cap instead of running for seconds
    {"kind": "quotient", "base": 63, "variables": ["x", "y"],
     "relations": [["x^2", "(x+y+2)^300"]]},
] + [
    {"kind": "quotient", "base": 2, "variables": ["x"],
     "relations": [["x^2", "0"]], "expected_order": order}
    for order in ("4", True)
] + [
    # variables must be a list of distinct identifier strings
    {"kind": "quotient", "base": 2, "variables": variables,
     "relations": [["x^2", "0"], ["y^2", "0"]]}
    for variables in ("xy", [["x", "0"]], ["x", "x"], ["x", "2y"], [])
] + [
    # a relation is a [lhs, rhs] pair, not a two-letter string
    {"kind": "quotient", "base": 2, "variables": ["x"], "relations": ["x0"]},
    {"kind": "zmod", "n": 6, "name": ["a"]},
]
# written as is: JSON too deeply nested for the decoder
DEEP_JSON = ('{"kind": "product", "factors": '
             + "[" * 100000 + "]" * 100000 + "}")
# written as is: a spec file that is not UTF-8
LATIN1_JSON = '{"kind": "zmod", "n": 6, "name": "Z_6 \xe9"}'.encode("latin-1")


@pytest.mark.parametrize(
    "spec", BAD_SPECS + [DEEP_JSON, LATIN1_JSON],
    ids=[f"spec{i}" for i in range(len(BAD_SPECS) + 2)])
def test_bad_spec_json_exits_2(spec, capsys, tmp_path):
    path = tmp_path / "ring.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        text = spec if isinstance(spec, str) else json.dumps(spec)
        path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "ring", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_disagreeing_presentation_exits_2(capsys, tmp_path):
    # Z_2[x]/(x, x - 1) is the zero ring, not a ring of order 2
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(
        {"kind": "quotient", "base": 2, "variables": ["x"],
         "relations": [["x", "0"], ["x", "1"]]}), encoding="utf-8")
    code, out, err = run(capsys, "ring", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "x = 1" in err


@pytest.mark.parametrize("command", ["ring", "ideals"])
def test_output_flag_writes_the_payload(command, capsys, tmp_path):
    _, printed, _ = run(capsys, command, "Z_6")
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, command, "Z_6", "--output", str(path))
    assert code == 0
    assert out == f"wrote {path}\n"
    assert path.read_text(encoding="utf-8") == printed


def test_ideals_row_counts(capsys):
    code, out, _ = run(capsys, "ideals", "Z_6")
    assert code == 0
    assert "ideals of Z_6: 4" in out
    assert sum(line.startswith("#") for line in out.splitlines()) == 4

    code, out, _ = run(capsys, "ideals", "Z_16")
    assert code == 0
    assert "ideals of Z_16: 5" in out


def test_graph_summary(capsys):
    code, out, _ = run(capsys, "graph", "Z_6×Z_2", "gen:(0,1)")
    assert code == 0
    assert "vertices: 6" in out
    assert "edges: 8" in out


@pytest.mark.parametrize("selector", ["#+1", "#0_1", "# 1", "#1 ", "#\uff11"])
def test_ideal_index_takes_ascii_digits_only(selector, capsys):
    code, out, err = run(capsys, "graph", "Z_6", selector)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad ideal index" in err


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "Z_6", "#0", "--format", "dot")
    assert code == 0
    assert out.startswith("// vertices=3 edges=2")
    assert "graph G {" in out
    assert '"2" -- "3"' in out or "n0 -- n1" in out


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "Z_6", "#0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "Z_6"
    assert payload["graph"]["n"] == 3
    assert len(payload["graph"]["edges"]) == 2
    assert payload["invariants"]["diameter"] == 2


def test_genus_planar(capsys):
    code, out, _ = run(capsys, "genus", "Z_25", "#0")
    assert code == 0
    assert "genus: 0" in out
    assert "planar embedding" in out


def test_genus_certificate_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run(capsys, "genus", "Z_49", "#0", "--output", str(target))
    assert code == 0
    assert "genus: 1" in out
    payload = json.loads(target.read_text())
    assert payload["format"] == "zdgenus-embedding-1"
    assert payload["genus"] == 1
    assert len(payload["rotation"]) == 6


def test_genus_unsettled_exits_3(capsys):
    code, out, _ = run(capsys, "genus", "Z_30", "gen:6")
    assert code == 3
    assert "genus lower: 6" in out
    assert "genus upper: unknown" in out


def test_genus_settles_a_tight_biclique_class_at_the_minimum_budget(capsys):
    # Gamma_(8)(Z_32) is K_{1,1,1,1,8}, certified at 3 by a K_{4,8}; with
    # that witness's edges first it embeds well within 10 000 nodes
    code, out, _ = run(capsys, "genus", "Z_32", "gen:8", "--budget", "10000")
    assert code == 0
    assert "genus: 3" in out


def test_budget_floor_exits_2(capsys):
    code, _, err = run(capsys, "genus", "Z_25", "#0", "--budget", "100")
    assert code == 2
    assert "below minimum" in err


def test_unknown_theorem_exits_2(capsys):
    code, _, err = run(capsys, "verify", "NO_SUCH_FACT")
    assert code == 2
    assert "error" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "TRIANGLE_GRAPH_RINGS")
    assert code == 0
    assert "PASS" in out
    assert "instances=4" in out


def test_verify_slug_is_case_insensitive(capsys):
    code, out, _ = run(capsys, "verify", "TriangleGraphRings")
    assert code == 0
    assert "PASS" in out


def test_verify_json_reports(capsys):
    code, out, _ = run(capsys, "verify", "ACYCLIC_RESIDUE_TWO",
                       "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(reports) == 3
    assert all(r["agreement"] for r in reports)
    assert all(not r["inconclusive"] for r in reports)


def test_atlas_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a1.csv"
    second = tmp_path / "a2.csv"
    for target in (first, second):
        code, _, _ = run(capsys, "atlas", "--max-order", "8",
                         "--output", str(target))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == "# zdgenus atlas format 1"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 38
    assert rows[0]["ring"] == "Z_4"
    assert {"genus_lower", "genus_upper", "clique"} <= set(rows[0])
    assert all(row["genus_upper"] != "" for row in rows)


def test_atlas_matches_golden(capsys):
    code, out, _ = run(capsys, "atlas", "--max-order", "27")
    assert code == 0
    assert out == GOLDEN_ATLAS.read_text(encoding="utf-8")


def test_verify_all_timing_prints_one_stderr_line_per_fact(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(classify, "verify", lambda tid, budget: [])
    code, plain_out, plain_err = run(capsys, "verify", "all")
    assert code == 0 and plain_err == ""
    code, out, err = run(capsys, "verify", "all", "--timing")
    assert code == 0
    assert out == plain_out
    lines = err.splitlines()
    assert len(lines) == len(TheoremId) == 20
    assert [line.split(":")[0] for line in lines] == [
        f"verify {tid.value}" for tid in TheoremId]
    assert all(line.endswith("s") for line in lines)


def test_timing_prints_one_stderr_line(capsys):
    code, plain_out, plain_err = run(capsys, "ring", "Z_6")
    assert code == 0 and plain_err == ""
    code, out, err = run(capsys, "ring", "Z_6", "--timing")
    assert code == 0
    assert out == plain_out
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ring: ") and lines[0].endswith("s")


def test_budget_only_on_genus_search_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "Z_6", "#0", "--budget", "10000"])
    assert exc.value.code == 2
