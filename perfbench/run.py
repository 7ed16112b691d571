"""zdgenus benchmark: one workload per run, measured from outside the program.

    python3 perfbench/run.py --workload {atlas,verify,queries} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program under test is src/zdgenus of the checkout
this file sits in, run in fresh interpreters.  Workloads:

  atlas    `zdgenus atlas`: all 301 catalog (ring, ideal) pairs.
  verify   `zdgenus verify all --format json`: 1394 reports.
  queries  40 one-shot `python -m zdgenus` calls, equal shares of ring,
           ideals, graph and genus, drawn from --seed.

Each workload repeats its unit (an atlas pass, a verify pass, a block of
40 calls) until --seconds have been measured, at least once, in a closed
loop with one client.  Every output is checked against the references in
perfbench/reference/.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 the workload runs once
untraced and once traced, and the JSON holds the per-layer metrics.
Scratch files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Proc:
    """One finished child process."""

    code: int
    latency_s: float
    rss_mb: float
    stdout: str


class Runner:
    """Starts child processes with the checkout's src/ on the path, each
    waited for and killed at the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONIOENCODING="utf-8",
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [str(SRC),
                                          os.environ.get("PYTHONPATH")])))

    def run(self, argv: list[str], capture: bool = False) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        with open(WORK / "stderr.log", "ab") as err:
            start = time.perf_counter()
            p = subprocess.Popen(
                [sys.executable] + argv, cwd=WORK, env=self.env,
                stdin=subprocess.DEVNULL, stderr=err,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
            killer = threading.Timer(timeout, p.kill)
            killer.start()
            try:
                out = p.stdout.read() if capture else b""
                _pid, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                killer.cancel()
                if p.stdout:
                    p.stdout.close()
            latency = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode < 0:
            raise BenchError(f"{argv[:3]} killed by signal {-p.returncode}")
        return Proc(p.returncode, latency, usage.ru_maxrss / 1024,
                    out.decode("utf-8", errors="replace"))

    def child(self, *args: str, capture: bool = False) -> Proc:
        return self.run([str(HERE / "child.py"), *args], capture=capture)


def read_result(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"child wrote no result {path.name}: {exc}")


def setup_probe(runner: Runner, n: int) -> dict:
    """import_s and build_s of one fresh interpreter."""
    path = WORK / f"setup{n}.json"
    proc = runner.child("setup", str(path))
    if proc.code != 0:
        raise BenchError(f"set-up probe exited {proc.code}")
    return read_result(path)


def measure(min_seconds: float, unit) -> list:
    """Run unit(k) for k = 0, 1, ... until min_seconds have passed."""
    out, start = [], time.monotonic()
    while not out or time.monotonic() - start < min_seconds:
        out.append(unit(len(out)))
    return out


# === atlas and verify =======================================================


# name: (zdgenus argv, checker, reference text)
BATCH = {
    "atlas": (["atlas"], checks.check_atlas,
              lambda: (checks.REFERENCE / "atlas.csv").read_text("utf-8")),
    "verify": (["verify", "all", "--format", "json"], checks.check_verify,
               lambda: checks.read_gz(checks.REFERENCE / "verify.jsonl.gz")),
}


def batch_pass(runner: Runner, name: str, tag: str, traced: bool) -> dict:
    output, result_path = WORK / f"{tag}.out", WORK / f"{tag}.json"
    argv, check, reference = BATCH[name]
    proc = runner.child("workload", str(output), str(result_path),
                        *(["--trace"] if traced else []), "--", *argv)
    text = output.read_text("utf-8") if output.exists() else ""
    attempted, failed, open_count, problems = check(text, reference())
    if proc.code != 0:
        problems.insert(0, f"runner exited {proc.code}")
        failed = attempted
    result = read_result(result_path) if proc.code == 0 else {}
    if result.get("exit") != 0:
        problems.insert(0, f"zdgenus exited {result.get('exit')}")
        failed = attempted
    return {"proc": proc, "result": result, "attempted": attempted,
            "failed": failed, "open": open_count, "problems": problems}


def run_batch(runner: Runner, name: str, seconds: float, trace: bool):
    passes = measure(seconds, lambda k: batch_pass(runner, name, f"p{k}",
                                                   traced=False))
    outcome = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "open": passes[-1]["open"],
        "problems": [q for p in passes for q in p["problems"]],
        "passes": len(passes),
    }
    wall = statistics.median(p["result"].get("wall_s", 0.0) for p in passes)
    if not trace:
        outcome.update(end_to_end(
            wall, [p["proc"].latency_s for p in passes],
            max(p["proc"].rss_mb for p in passes)))
        return outcome
    traced = batch_pass(runner, name, "traced", traced=True)
    for key in ("attempted", "failed"):
        outcome[key] += traced[key]
    outcome["problems"] += traced["problems"]
    result = traced["result"]
    stats = tracing.span_stats([result.get("spans", [])])
    outcome["layers"] = layer_metrics(
        stats, result.get("genus", []),
        import_s=result.get("import_s", 0.0),
        build_s=result.get("build_s", 0.0),
        overhead=result.get("wall_s", 0.0) / wall if wall else 0.0)
    return outcome


# === queries ================================================================


def query_block(runner: Runner, calls, block: int, traced: bool) -> dict:
    """Run every call as its own process; check outputs afterwards."""
    procs, results = [], []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        argv = checks.query_argv(call)
        if call[0] == "genus":
            argv += ["--output", f"cert-{block}-{i}.json"]
        if traced:
            path = WORK / f"trace-{block}-{i}.json"
            procs.append(runner.child("query", str(path), "--", *argv,
                                      capture=True))
            results.append(path)
        else:
            procs.append(runner.run(["-m", "zdgenus", *argv], capture=True))
    wall = time.perf_counter() - start
    return {"calls": calls, "procs": procs, "wall_s": wall,
            "block": block, "results": results}


def check_block(block: dict, reference) -> tuple[int, list, list]:
    """(failed, problems, genus answers to re-check): every printed upper
    bound of a graph with vertices must come with a certificate."""
    failed, problems, certified = 0, [], []
    for i, (call, proc) in enumerate(zip(block["calls"], block["procs"])):
        ok, interval, problem = checks.check_query(
            call, proc.code, proc.stdout, reference)
        if not ok:
            failed += 1
            problems.append(f"{checks.query_argv(call)}: {problem}")
        elif interval is not None and interval[1] is not None \
                and ": 0 vertices," not in proc.stdout.splitlines()[0]:
            cert = WORK / f"cert-{block['block']}-{i}.json"
            certified.append((call, interval[1], cert))
    return failed, problems, certified


def recheck_certificates(items) -> tuple[int, list]:
    """Rebuild each graph and re-trace its saved rotation system; the genus
    must equal the printed upper bound.  Returns (failed, problems)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zdgenus.cli as cli
    from zdgenus.genus import certificate_from_json, face_trace

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"zdgenus imported from {cli.__file__}")
    failed, problems = 0, []
    for (command, ring, k), upper, path in items:
        try:
            table = cli.resolve_ring(ring)
            g = cli.ideal_zero_divisor_graph(
                table, cli.resolve_ideal(table, f"#{k}"))
            text = path.read_text(encoding="utf-8")
            cert = certificate_from_json(text)
            faces, genus = face_trace(g, cert.rotation)
            ok = (genus == upper == cert.genus and faces == cert.faces
                  and json.loads(text)["labels"] == list(g.labels))
        except Exception as exc:  # any failure to re-check is a failure
            ok, genus = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            problems.append(f"certificate {ring} #{k}: traced {genus}, "
                            f"printed {upper}")
    return failed, problems


def run_queries(runner: Runner, seed: int, seconds: float, trace: bool):
    reference = checks.load_query_reference()
    calls = checks.generate_queries(seed, reference)
    blocks = measure(seconds, lambda k: query_block(runner, calls, k, False))
    if trace:
        blocks.append(query_block(runner, calls, len(blocks), True))
    failed, problems, certified = 0, [], []
    for block in blocks:
        f, p, c = check_block(block, reference)
        failed, problems, certified = failed + f, problems + p, certified + c
    cert_failed, cert_problems = recheck_certificates(certified)
    untraced = [b for b in blocks if not b["results"]]
    outcome = {
        "attempted": sum(len(b["calls"]) for b in blocks),
        "failed": failed + cert_failed,
        "open": sum(p.code == 3 for p in untraced[0]["procs"]),
        "problems": problems + cert_problems,
        "passes": len(untraced),
    }
    wall = statistics.median(b["wall_s"] for b in untraced)
    if not trace:
        procs = [p for b in untraced for p in b["procs"]]
        outcome.update(end_to_end(
            wall, [p.latency_s for p in procs],
            statistics.median(p.rss_mb for p in procs)))
        return outcome
    traced = blocks[-1]
    # a call that crashed wrote no spans; it is already counted as failed
    results = [read_result(path) for path in traced["results"]
               if path.exists()]
    stats = tracing.span_stats([r["spans"] for r in results])
    outcome["layers"] = layer_metrics(
        stats, [g for r in results for g in r["genus"]],
        import_s=statistics.median(r["import_s"] for r in results),
        build_s=setup_probe(runner, 0)["build_s"],
        overhead=traced["wall_s"] / wall)
    return outcome


# === metrics ================================================================


def end_to_end(wall_s: float, latencies_s: list[float], rss_mb: float
               ) -> dict:
    """The end-to-end metrics except setup_s, and the latency sample count."""
    ms = [t * 1000 for t in latencies_s]
    p75 = statistics.quantiles(ms, n=4)[2] if len(ms) > 1 else ms[0]
    return {"samples": len(ms), "metrics": {
        "wall_s": (wall_s, "s"),
        "query_p50_ms": (statistics.median(ms), "ms"),
        "query_p75_ms": (p75, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }}


def layer_metrics(stats, genus_records, import_s: float, build_s: float,
                  overhead: float) -> dict:
    """Every per-layer metric of a traced run, by name: calls, self and
    max seconds per span, total seconds per theorem verified, and the
    counts and times that are not spans."""
    out = {}
    for span, s in sorted(stats.items()):
        if span.startswith("classify.verify."):
            out[f"{span}.s"] = (s["total_s"], "s")
            continue
        out[f"{span}.calls"] = (s["calls"], "count")
        out[f"{span}.self_s"] = (s["self_s"], "s")
        out[f"{span}.max_s"] = (s["max_s"], "s")
    out["genus.lower_bounds.self_s"] = (
        sum(stats[s]["self_s"] for s in tracing.LOWER_BOUND_SPANS
            if s in stats), "s")
    for name, value in tracing.genus_counts(genus_records).items():
        out[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    out["catalog.build_s"] = (build_s, "s")
    out["cli.import_s"] = (import_s, "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def declared_value(name: str, unit: str, metrics: dict):
    """A metric BENCHMARK.json declares; a span the run never entered reads
    0, any other missing name is an error."""
    if name in metrics:
        return metrics[name]
    if name.rsplit(".", 1)[0] in tracing.SPANS:
        return 0, unit
    raise BenchError(f"metric {name} was not measured")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("atlas", "verify", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "zdgenus" / "__init__.py").is_file():
        print(f"error: no zdgenus sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner(deadline)
    try:
        if args.workload == "queries":
            outcome = run_queries(runner, args.seed, args.seconds,
                                  bool(args.trace))
        else:
            outcome = run_batch(runner, args.workload, args.seconds,
                                bool(args.trace))
        if not args.trace:
            setups = [setup_probe(runner, n) for n in range(SETUP_PROBES)]
            outcome["metrics"]["setup_s"] = (statistics.median(
                r["import_s"] + r["build_s"] for r in setups), "s")
        metrics = outcome["layers" if args.trace else "metrics"]
        reported = {m["name"]: declared_value(m["name"], m["unit"], metrics)
                    for m in declared}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in outcome["problems"][:20]:
        print(f"mismatch: {problem}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{outcome['passes']} untraced pass(es)"
          + (f", {outcome['samples']} call latency sample(s)"
             if "samples" in outcome else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"open_count {outcome['open']} count")
    print(f"error_rate {outcome['failed'] / outcome['attempted']} ratio "
          f"({outcome['failed']} of {outcome['attempted']} items failed)")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
