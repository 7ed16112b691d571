"""Correctness checks against the reference outputs, and the query stream.

The references under perfbench/reference/ were produced at the seed commit
by make_reference.py.  Genus answers may only get tighter: a new
[lower, upper] interval must lie inside the reference interval, where an
unknown upper bound is infinite.  Every other field must match exactly.
This module imports nothing from zdgenus.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import random
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

ATLAS_FORMAT_LINE = "# zdgenus atlas format 1"
GENUS_FIELDS = ("genus_lower", "genus_upper")
VERIFY_IGNORED = ("detail",)

# One-shot CLI calls: equal shares of the four commands, shuffled.  genus
# calls carry a search budget of 10^6 nodes, so that the slowest class in
# the universe ends in about ten seconds (exit 3) instead of minutes.
QUERY_COMMANDS = ("ring", "ideals", "graph", "genus")
QUERY_CALLS = 40
QUERY_BUDGET = 10**6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def read_gz(path: Path) -> str:
    return gzip.decompress(path.read_bytes()).decode("utf-8")


def nested(lower, upper, ref_lower, ref_upper) -> bool:
    """[lower, upper] lies inside [ref_lower, ref_upper]; None is infinite."""
    if lower is None or lower < ref_lower:
        return False
    if upper is not None and upper < lower:
        return False
    return ref_upper is None or (upper is not None and upper <= ref_upper)


def _int_or_none(text: str):
    return None if text == "" else int(text)


# === atlas ==================================================================


def check_atlas(text: str, ref_text: str) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, open rows, problems) for an atlas CSV.  Rows are
    compared by position; attempted is the reference row count."""
    ref_lines = ref_text.splitlines()
    ref_rows = list(csv.DictReader(io.StringIO("\n".join(ref_lines[1:]))))
    lines = text.splitlines()
    attempted = len(ref_rows)
    if not lines or lines[0] != ATLAS_FORMAT_LINE or \
            len(lines) < 2 or lines[1] != ref_lines[1]:
        return attempted, attempted, 0, ["format or header line differs"]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    problems = []
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
    failed = abs(len(rows) - len(ref_rows))
    for n, (row, ref) in enumerate(zip(rows, ref_rows)):
        same = all(row[k] == ref[k] for k in ref if k not in GENUS_FIELDS)
        try:
            inside = nested(_int_or_none(row["genus_lower"]),
                            _int_or_none(row["genus_upper"]),
                            int(ref["genus_lower"]),
                            _int_or_none(ref["genus_upper"]))
        except (TypeError, ValueError):
            inside = False
        if not (same and inside):
            failed += 1
            problems.append(f"row {n + 1}: {row} != {ref}")
    open_rows = sum(row["genus_upper"] == "" for row in rows)
    return attempted, min(failed, attempted), open_rows, problems


# === verify =================================================================


def check_verify(text: str, ref_text: str) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, inconclusive reports, problems) for the JSON
    lines of `verify all`, compared by position."""
    ref = [json.loads(line) for line in ref_text.splitlines()]
    attempted = len(ref)
    try:
        got = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        return attempted, attempted, 0, [f"bad JSON: {exc}"]
    problems = []
    if len(got) != len(ref):
        problems.append(f"{len(got)} reports, reference has {len(ref)}")
    failed = abs(len(got) - len(ref))
    for n, (rep, want) in enumerate(zip(got, ref)):
        keys = set(want) - set(VERIFY_IGNORED) - set(GENUS_FIELDS)
        same = isinstance(rep, dict) and set(rep) == set(want) \
            and all(rep[k] == want[k] for k in keys)
        if not same:
            inside = False
        elif want["genus_lower"] is None:
            inside = all(rep.get(k) == want[k] for k in GENUS_FIELDS)
        else:
            inside = nested(rep.get("genus_lower"), rep.get("genus_upper"),
                            want["genus_lower"], want["genus_upper"])
        if not (same and inside):
            failed += 1
            problems.append(f"report {n + 1}: {rep} != {want}")
    inconclusive = sum(bool(rep.get("inconclusive")) for rep in got)
    return attempted, min(failed, attempted), inconclusive, problems


# === queries ================================================================


_GENUS_EXACT = re.compile(r"^genus: (\d+)$", re.M)
_GENUS_LOWER = re.compile(r"^genus lower: (\d+)$", re.M)
_GENUS_UPPER = re.compile(r"^genus upper: (\d+|unknown)$", re.M)


def parse_genus(stdout: str):
    """(header line, lower, upper or None) from `zdgenus genus` table
    output, or None when it does not parse."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("graph of "):
        return None
    exact = _GENUS_EXACT.search(stdout)
    if exact:
        return lines[0], int(exact.group(1)), int(exact.group(1))
    lower, upper = _GENUS_LOWER.search(stdout), _GENUS_UPPER.search(stdout)
    if not (lower and upper):
        return None
    up = None if upper.group(1) == "unknown" else int(upper.group(1))
    return lines[0], int(lower.group(1)), up


def load_query_reference(path: Path = REFERENCE / "queries.jsonl.gz"
                         ) -> dict[str, dict]:
    return {entry["ring"]: entry
            for entry in map(json.loads, read_gz(path).splitlines())}


def generate_queries(seed: int, reference: dict[str, dict]
                     ) -> list[tuple[str, str, int | None]]:
    """(command, ring, ideal index or None) for every call of one run.

    Each command gets an equal share of the calls, in shuffled order.  A
    ring is a catalog name or an ad-hoc product with equal probability,
    then uniform within that group; an ideal is a uniform proper ideal."""
    rng = random.Random(seed)
    catalog = [r for r, e in reference.items() if e["catalog"]]
    adhoc = [r for r, e in reference.items() if not e["catalog"]]
    commands = [c for c in QUERY_COMMANDS
                for _ in range(QUERY_CALLS // len(QUERY_COMMANDS))]
    rng.shuffle(commands)
    calls = []
    for command in commands:
        ring = rng.choice(catalog if rng.random() < 0.5 else adhoc)
        k = None
        if command in ("graph", "genus"):
            k = rng.randrange(len(reference[ring]["graph_out"]))
        calls.append((command, ring, k))
    return calls


def query_argv(call: tuple[str, str, int | None]) -> list[str]:
    command, ring, k = call
    argv = [command, ring]
    if k is not None:
        argv.append(f"#{k}")
    if command == "genus":
        argv += ["--budget", str(QUERY_BUDGET)]
    return argv


def check_query(call, code: int, stdout: str, reference: dict[str, dict]):
    """(ok, interval or None, problem) for one call.  interval is
    (lower, upper) for genus calls; exit 3 with an unknown upper bound is an
    open answer, not an error."""
    command, ring, k = call
    ref = reference[ring]
    if command in ("ring", "ideals", "graph"):
        want = ref["graph_out"][k] if command == "graph" \
            else ref[f"{command}_out"]
        if code != 0:
            return False, None, f"exit {code}"
        if digest(stdout) != want:
            return False, None, "stdout differs from the reference"
        return True, None, ""
    parsed = parse_genus(stdout)
    if parsed is None:
        return False, None, f"exit {code}, unparsable output"
    header, lower, upper = parsed
    ref_header, ref_lower, ref_upper, _ref_code = ref["genus"][k]
    if code != (0 if upper is not None else 3):
        return False, (lower, upper), f"exit {code} with upper {upper}"
    if digest(header) != ref_header:
        return False, (lower, upper), "header line differs"
    if not nested(lower, upper, ref_lower, ref_upper):
        return False, (lower, upper), (
            f"[{lower}, {upper}] not inside [{ref_lower}, {ref_upper}]")
    return True, (lower, upper), ""
