"""Regenerate the reference outputs the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's references were made at the seed commit):

    python3 perfbench/make_reference.py

It writes three files under perfbench/reference/:

* atlas.csv        -- `zdgenus atlas` output, byte for byte;
* verify.jsonl.gz  -- `zdgenus verify all --format json` output;
* queries.jsonl.gz -- one line per ring of the query universe (catalog
  names, then two-factor ad-hoc products A×B of order <= 64), holding
  digests of the stdout of `ring`, `ideals` and `graph`, and for `genus`
  the digest of its header line, its genus interval and its exit code,
  for every proper ideal selector #k.

The query reference is computed in one process by calling the CLI entry
point with stdout captured; the benchmark compares it with the stdout of
separate `python -m zdgenus` processes.  Takes about half an hour.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from zdgenus import cli  # noqa: E402
from zdgenus.catalog import catalog_entries, catalog_ring  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def query_universe() -> list[tuple[str, bool]]:
    """(ring, is catalog name): catalog names, then every ad-hoc product of
    two non-product catalog rings (both orders) of order at most 64 that is
    not itself a catalog name."""
    entries = catalog_entries()
    names = [e.name for e in entries]
    factors = [e.name for e in entries if "product" not in e.tags]
    products = [
        f"{a}×{b}" for a in factors for b in factors
        if catalog_ring(a).order * catalog_ring(b).order <= 64
        and f"{a}×{b}" not in names
    ]
    return [(n, True) for n in names] + [(p, False) for p in products]


def query_line(ring: str, in_catalog: bool) -> dict:
    code, out = run_cli(["ring", ring])
    if code != 0:
        raise SystemExit(f"ring {ring!r} exited {code}")
    line = {"ring": ring, "catalog": in_catalog,
            "ring_out": checks.digest(out)}
    code, out = run_cli(["ideals", ring])
    if code != 0:
        raise SystemExit(f"ideals {ring!r} exited {code}")
    line["ideals_out"] = checks.digest(out)
    ideals = cli.enumerate_ideals(cli.resolve_ring(ring))
    if not ideals[-1].is_whole() or any(i.is_whole() for i in ideals[:-1]):
        raise SystemExit(f"{ring!r}: the whole ring is not the last ideal")
    line["graph_out"], line["genus"] = [], []
    for k in range(len(ideals) - 1):
        code, out = run_cli(["graph", ring, f"#{k}"])
        if code != 0:
            raise SystemExit(f"graph {ring!r} #{k} exited {code}")
        line["graph_out"].append(checks.digest(out))
        argv = ["genus", ring, f"#{k}", "--budget", str(checks.QUERY_BUDGET)]
        code, out = run_cli(argv)
        parsed = checks.parse_genus(out)
        if code not in (0, 3) or parsed is None:
            raise SystemExit(f"genus {ring!r} #{k} exited {code}: {out!r}")
        header, lower, upper = parsed
        line["genus"].append([checks.digest(header), lower, upper, code])
    return line


def write_gz(path: Path, text: str) -> None:
    path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))


def main() -> int:
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    code, atlas = run_cli(["atlas"])
    if code != 0:
        raise SystemExit(f"atlas exited {code}")
    (out_dir / "atlas.csv").write_text(atlas, encoding="utf-8")
    print("atlas done", flush=True)
    code, reports = run_cli(["verify", "all", "--format", "json"])
    if code != 0:
        raise SystemExit(f"verify exited {code}")
    write_gz(out_dir / "verify.jsonl.gz", reports)
    print("verify done", flush=True)
    lines = []
    for n, (ring, in_catalog) in enumerate(query_universe()):
        lines.append(json.dumps(query_line(ring, in_catalog),
                                ensure_ascii=False))
        if n % 50 == 0:
            print(f"queries: {n} rings", flush=True)
    write_gz(out_dir / "queries.jsonl.gz", "\n".join(lines) + "\n")
    print(f"queries done: {len(lines)} rings", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
