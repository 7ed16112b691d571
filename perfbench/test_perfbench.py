"""Self-tests of the benchmark: checkers, query generator, runner smoke runs.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs start small zdgenus processes from src/ of this checkout
and take about half a minute.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def atlas_ref() -> str:
    return (checks.REFERENCE / "atlas.csv").read_text("utf-8")


@pytest.fixture(scope="module")
def verify_ref() -> str:
    return checks.read_gz(checks.REFERENCE / "verify.jsonl.gz")


@pytest.fixture(scope="module")
def query_ref() -> dict:
    return checks.load_query_reference()


def _edit_atlas(text: str, edit) -> str:
    lines = text.splitlines()
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    rows = edit(rows)
    buf = io.StringIO()
    buf.write(lines[0] + "\n")
    writer = csv.DictWriter(buf, fieldnames=lines[1].split(","),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _first(rows, pred):
    return next(r for r in rows if pred(r))


# === atlas checker ==========================================================


def test_atlas_reference_passes(atlas_ref):
    assert checks.check_atlas(atlas_ref, atlas_ref)[:3] == (301, 0, 1)


def test_atlas_closing_the_open_row_passes(atlas_ref):
    def close(rows):
        row = _first(rows, lambda r: r["genus_upper"] == "")
        row["genus_upper"] = row["genus_lower"]
        return rows

    assert checks.check_atlas(_edit_atlas(atlas_ref, close),
                              atlas_ref)[:3] == (301, 0, 0)


def _widen(rows):
    row = _first(rows, lambda r: r["genus_upper"] == "3")
    row["genus_lower"] = "2"
    return rows


def _vertex_count(rows):
    rows[5]["vertices"] = str(int(rows[5]["vertices"]) + 1)
    return rows


def _missing_row(rows):
    return rows[:-1]


def _open_upper(rows):
    _first(rows, lambda r: r["genus_upper"] == "3")["genus_upper"] = ""
    return rows


@pytest.mark.parametrize("tamper", [_widen, _vertex_count, _missing_row,
                                    _open_upper])
def test_atlas_tampering_fails(atlas_ref, tamper):
    attempted, failed, _open, problems = checks.check_atlas(
        _edit_atlas(atlas_ref, tamper), atlas_ref)
    assert attempted == 301 and failed >= 1 and problems


def test_atlas_format_line_checked(atlas_ref):
    text = atlas_ref.replace("format 1", "format 2", 1)
    assert checks.check_atlas(text, atlas_ref)[1] == 301


# === verify checker =========================================================


def _edit_reports(text: str, edit) -> str:
    reports = [json.loads(line) for line in text.splitlines()]
    return "".join(json.dumps(r, sort_keys=True) + "\n"
                   for r in edit(reports))


def test_verify_reference_passes(verify_ref):
    assert checks.check_verify(verify_ref, verify_ref)[:3] == (1394, 0, 0)


def test_verify_detail_is_ignored(verify_ref):
    def reword(reports):
        reports[0]["detail"] = "reworded"
        return reports

    assert checks.check_verify(_edit_reports(verify_ref, reword),
                               verify_ref)[1] == 0


def _widen_report(reports):
    rep = next(r for r in reports if r["genus_lower"] == 3)
    rep["genus_lower"] = 2
    return reports


def _graph_order(reports):
    reports[7]["graph_order"] += 1
    return reports


def _missing_report(reports):
    return reports[1:]


@pytest.mark.parametrize("tamper", [_widen_report, _graph_order,
                                    _missing_report])
def test_verify_tampering_fails(verify_ref, tamper):
    attempted, failed, _open, problems = checks.check_verify(
        _edit_reports(verify_ref, tamper), verify_ref)
    assert attempted == 1394 and failed >= 1 and problems


# === queries ================================================================


def test_query_stream_depends_only_on_seed(query_ref):
    a = checks.generate_queries(7, query_ref)
    assert a == checks.generate_queries(7, query_ref)
    assert a != checks.generate_queries(8, query_ref)
    assert len(a) == checks.QUERY_CALLS
    for command in checks.QUERY_COMMANDS:
        assert sum(c[0] == command for c in a) == checks.QUERY_CALLS // 4
    for command, ring, k in a:
        assert (k is None) == (command in ("ring", "ideals"))
        assert k is None or 0 <= k < len(query_ref[ring]["graph_out"])


def test_query_checker(query_ref):
    call = ("genus", "Z_49", 0)
    ref_header, lower, upper, _ = query_ref["Z_49"]["genus"][0]
    header = "graph of Z_49 at (0): 6 vertices, 15 edges"
    assert checks.digest(header) == ref_header and lower == upper == 1
    good = f"{header}\ngenus: 1\nprovenance: x\n"
    assert checks.check_query(call, 0, good, query_ref)[0]
    assert not checks.check_query(call, 3, good, query_ref)[0]
    widened = f"{header}\ngenus lower: 0\ngenus upper: 1\nprovenance: x\n"
    assert not checks.check_query(call, 0, widened, query_ref)[0]
    other = good.replace("6 vertices", "7 vertices")
    assert not checks.check_query(call, 0, other, query_ref)[0]
    assert not checks.check_query(("ring", "Z_49", None), 0, "ring: Z_49\n",
                                  query_ref)[0]


def test_nested_intervals():
    assert checks.nested(3, 3, 3, 3)
    assert checks.nested(6, 6, 6, None)
    assert checks.nested(6, None, 5, None)
    assert not checks.nested(2, 3, 3, 3)
    assert not checks.nested(3, None, 3, 3)
    assert not checks.nested(4, 3, 3, 4)


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    stats = tracing.span_stats([spans, [["b", 0.0, 3.0, -1]]])
    assert stats["a"]["self_s"] == pytest.approx(6.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0 + 3.0)
    assert stats["b"]["calls"] == 3 and stats["b"]["max_s"] == 3.0


# === smoke runs =============================================================


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return run.Runner(time.monotonic() + 120)


def test_setup_probe_smoke(runner):
    result = run.setup_probe(runner, 0)
    assert result["import_s"] > 0 and result["build_s"] > 0


@pytest.mark.parametrize("argv, first_line", [
    (["atlas", "--max-order", "6"], checks.ATLAS_FORMAT_LINE),
    (["verify", "DIAMETER_LE3", "--format", "json"], '{"agreement": true'),
])
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runner_smoke(runner, tmp_path, argv, first_line, traced):
    out, res = tmp_path / "out", tmp_path / "res.json"
    proc = runner.child("workload", str(out), str(res),
                        *(["--trace"] if traced else []), "--", *argv)
    assert proc.code == 0 and proc.rss_mb > 0
    assert out.read_text("utf-8").startswith(first_line)
    result = run.read_result(res)
    assert result["exit"] == 0 and result["wall_s"] > 0
    if traced:
        stats = tracing.span_stats([result["spans"]])
        assert stats["rings.build_ring"]["calls"] >= 100
        assert all(s["self_s"] >= 0 for s in stats.values())


@pytest.mark.parametrize("traced", [False, True])
def test_query_runner_smoke(runner, query_ref, traced):
    calls = [("ring", "Z_6×Z_2", None), ("ideals", "Z_12", None),
             ("graph", "Z_8", 1), ("genus", "Z_49", 0)]
    block = run.query_block(runner, calls, 0, traced)
    failed, problems, certified = run.check_block(block, query_ref)
    assert failed == 0, problems
    assert [c[0] for c in certified] == [("genus", "Z_49", 0)]
    assert run.recheck_certificates(certified) == (0, [])
    cert = certified[0][2]
    data = json.loads(cert.read_text("utf-8"))
    data["genus"] = 2
    cert.write_text(json.dumps(data), encoding="utf-8")
    assert run.recheck_certificates(certified)[0] == 1
    cert.unlink()
    assert run.recheck_certificates(certified)[0] == 1
    if traced:
        result = run.read_result(block["results"][3])
        assert result["genus"][0]["upper"] == 1
