"""Command-line front end.

Subcommands: ring, ideals, graph, genus, verify, atlas.  Output on stdout is
deterministic; --timing writes elapsed times to stderr only: one line per
command, or one per classification fact for verify.  --budget bounds the
genus search and exists only on genus, verify and atlas.  Exit codes: 0
success, 1 verification failure, 2 usage or input error, 3 an open answer
(genus without an upper bound, or verify inconclusive).

Importing this module loads rings, ideals and catalog.  graphs, genus and
classify are lazy modules of the package (see zdgenus/__init__.py), looked
up only inside the commands that use them: ring and ideals load none of
them, graph loads graphs, genus and atlas load graphs and genus, and
verify loads classify, which loads both.  ideal_zero_divisor_graph is
served as an attribute of this module too, looked up in graphs.  No
module uses dataclasses, and json and csv are imported inside the
functions that use them: json for --format json and for certificate and
spec files, csv for the atlas.  So a table-format call without --output
loads neither.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
import time
from math import inf
from pathlib import Path

from . import classify, genus, graphs
from .catalog import catalog_pairs, catalog_ring, find_catalog
from .errors import InvalidSpec, ZdgenusError
from .ideals import (
    IdealSet,
    enumerate_ideals,
    ideal_from_generators,
    is_prime,
    is_radical,
)
from .rings import (
    RingTable,
    build_ring,
    is_local,
    product_tables,
    spec_from_json,
    units,
    zero_divisors,
)

MIN_BUDGET = 10**4


def __getattr__(name: str):
    """Serve ideal_zero_divisor_graph from graphs, looked up at each access
    so that a wrapper installed there is the one returned."""
    if name == "ideal_zero_divisor_graph":
        return graphs.ideal_zero_divisor_graph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_GF_ALIAS = re.compile(r"GF\((\d+)\)", re.IGNORECASE)
# product split points: an ASCII x between a factor tail and a factor head
_PRODUCT_SPLIT = re.compile(r"(?<=[0-9)\]²³⁴⁵])[x×](?=[ZFG])")


def _resolve_factor(token: str) -> RingTable:
    token = _GF_ALIAS.sub(lambda m: f"F_{m.group(1)}", token.strip())
    return catalog_ring(find_catalog(token).name)


def resolve_ring(arg: str) -> RingTable:
    """Catalog name or product expression; else a ring spec JSON path.

    A path is read when it ends in .json, or when it is a file and no ring
    has that name, so a file named like a catalog ring does not shadow
    it."""
    path = Path(arg)
    if path.suffix != ".json":
        try:
            return _resolve_name(arg)
        except InvalidSpec:
            if not path.is_file():
                raise
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"{arg}: spec file is not UTF-8: {exc}") from exc
    except ValueError as exc:  # a NUL in the path
        raise InvalidSpec(f"{arg!r}: {exc}") from exc
    return build_ring(spec_from_json(text))


def _resolve_name(arg: str) -> RingTable:
    """Catalog name, GF(q) alias or product expression."""
    try:
        return _resolve_factor(arg)
    except InvalidSpec:
        pass
    tokens = _PRODUCT_SPLIT.split(arg)
    if len(tokens) < 2:
        raise InvalidSpec(f"unknown ring {arg!r}")
    return product_tables(*(_resolve_factor(token) for token in tokens))


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested in parentheses or brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


def resolve_ideal(table: RingTable, selector: str) -> IdealSet:
    """'#k' for the k-th ideal in enumeration order, or 'gen:a,b' for the
    ideal generated by the labeled elements a and b."""
    if selector.startswith("#"):
        ideals = enumerate_ideals(table)
        digits = selector[1:]
        # ASCII digits only: int() also takes signs, spaces, underscores
        # and other scripts' digits
        if not (digits.isascii() and digits.isdigit()):
            raise InvalidSpec(f"bad ideal index {selector!r}")
        k = int(digits)
        if not 0 <= k < len(ideals):
            raise InvalidSpec(
                f"ideal index {k} out of range 0..{len(ideals) - 1}")
        return ideals[k]
    if selector.startswith("gen:"):
        wanted = _split_top_level(selector[4:])
        if not wanted:
            raise InvalidSpec("empty generator list")
        return ideal_from_generators(table, map(table.index_of, wanted))
    raise InvalidSpec(f"bad ideal selector {selector!r}; use '#k' or 'gen:...'")


def _fmt(value) -> str:
    return "inf" if value == inf else str(value)


def _emit(payload: str, output: str | None, note: str = "") -> None:
    """Write payload to the --output path and say so, or print it."""
    if output:
        Path(output).write_text(payload, encoding="utf-8")
        print(f"wrote {output}{note}")
    else:
        sys.stdout.write(payload)


# === Subcommands ============================================================


def cmd_ring(args) -> int:
    table = resolve_ring(args.ring)
    n_units = len(units(table))
    n_zero_divisors = len(zero_divisors(table)) + 1  # the count includes 0
    local = is_local(table)
    if args.format == "json":
        import json

        payload = json.dumps({
            "name": table.name,
            "order": table.order,
            "units": n_units,
            "zero_divisors": n_zero_divisors,
            "local": local,
            "labels": list(table.labels),
        }, ensure_ascii=False) + "\n"
    else:
        payload = (f"ring: {table.name}\n"
                   f"order: {table.order}\n"
                   f"units: {n_units}\n"
                   f"zero-divisors: {n_zero_divisors}\n"
                   f"local: {'yes' if local else 'no'}\n"
                   "labels: " + " ".join(table.labels) + "\n")
    _emit(payload, args.output)
    return 0


def cmd_ideals(args) -> int:
    table = resolve_ring(args.ring)
    rows = [
        {
            "index": k,
            "ideal": i.describe(),
            "size": i.size,
            "prime": is_prime(i),
            "radical": is_radical(i),
        }
        for k, i in enumerate(enumerate_ideals(table))
    ]
    if args.format == "json":
        import json

        lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    else:
        lines = [f"ideals of {table.name}: {len(rows)}"]
        for r in rows:
            flags = (("prime " if r["prime"] else "") +
                     ("radical" if r["radical"] else "")).strip() or "-"
            lines.append(f"#{r['index']:<3} {r['ideal']:<24} "
                         f"size={r['size']:<3} {flags}")
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def cmd_graph(args) -> int:
    table = resolve_ring(args.ring)
    ideal = resolve_ideal(table, args.ideal)
    g = graphs.ideal_zero_divisor_graph(table, ideal)
    if g.n == 0:  # for a proper ideal, exactly when it is prime
        print(f"warning: {ideal.describe()} is prime; the graph is empty",
              file=sys.stderr)
    summary = {"vertices": g.n, "edges": g.m, **graphs.invariants(g)}
    if args.format == "dot":
        head = "// " + " ".join(
            f"{k}={_fmt(v)}" for k, v in summary.items())
        payload = head + "\n" + graphs.export_dot(g)
    elif args.format == "json":
        import json

        payload = json.dumps({
            "ring": table.name,
            "ideal": ideal.describe(),
            "invariants": {k: (None if v == inf else v)
                           for k, v in summary.items()},
            "graph": json.loads(graphs.export_json(g)),
        }, ensure_ascii=False, indent=2) + "\n"
    else:
        payload = (
            f"graph of {table.name} at {ideal.describe()}\n"
            + "\n".join(f"{k}: {_fmt(v)}" for k, v in summary.items())
            + "\n")
    _emit(payload, args.output)
    return 0


def cmd_genus(args) -> int:
    table = resolve_ring(args.ring)
    ideal = resolve_ideal(table, args.ideal)
    g = graphs.ideal_zero_divisor_graph(table, ideal)
    bounds = genus.exact_genus(g, args.budget)
    record = {
        "ring": table.name,
        "ideal": ideal.describe(),
        "vertices": g.n,
        "edges": g.m,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "provenance": list(bounds.provenance),
    }
    if args.format == "json":
        import json

        print(json.dumps(record, ensure_ascii=False))
    else:
        print(f"graph of {table.name} at {ideal.describe()}: "
              f"{g.n} vertices, {g.m} edges")
        if bounds.exact:
            print(f"genus: {bounds.lower}")
        else:
            print(f"genus lower: {bounds.lower}")
            print(f"genus upper: "
                  f"{'unknown' if bounds.upper is None else bounds.upper}")
        print("provenance: " + "; ".join(bounds.provenance))
    if args.output and bounds.certificate is not None:
        Path(args.output).write_text(
            genus.certificate_to_json(g, bounds.certificate), encoding="utf-8")
        print(f"wrote certificate {args.output}")
    return 0 if bounds.upper is not None else 3


def _resolve_theorem(token: str) -> classify.TheoremId:
    want = token.replace("_", "").replace("-", "").casefold()
    for tid in classify.TheoremId:
        if tid.value.replace("_", "").casefold() == want:
            return tid
    raise InvalidSpec(f"unknown theorem {token!r}; one of "
                      + ", ".join(t.value for t in classify.TheoremId)
                      + ", or 'all'")


def cmd_verify(args) -> int:
    selected = (list(classify.TheoremId) if args.theorem.casefold() == "all"
                else [_resolve_theorem(args.theorem)])
    results = {}
    for tid in selected:
        t0 = time.monotonic()
        results[tid] = classify.verify(tid, args.budget)
        if args.timing:
            print(f"verify {tid.value}: {time.monotonic() - t0:.1f}s",
                  file=sys.stderr)
    lines = []
    failures = 0
    inconclusive = 0
    for tid, reports in results.items():
        bad = [r for r in reports if not r.agreement]
        open_ = [r for r in reports if r.inconclusive]  # a subset of bad
        failed = len(bad) - len(open_)
        failures += failed
        inconclusive += len(open_)
        status = "FAIL" if failed else "OPEN" if open_ else "PASS"
        lines.append(
            f"{tid.value:<28} instances={len(reports):<4} "
            f"fail={failed:<3} open={len(open_):<3} {status}")
        for r in bad:
            lines.append(f"  !! {r.ring} | {r.ideal} | verdict={r.verdict} "
                         f"fact={r.fact} | {r.detail}")
    if args.format == "json":
        payload = "".join(
            r.to_json() + "\n" for reports in results.values()
            for r in reports)
    else:
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    if failures:
        return 1
    if inconclusive:
        return 3
    return 0


ATLAS_COLUMNS = (
    "ring", "ideal", "ideal_size", "prime", "radical", "quotient_order",
    "vertices", "edges", "diameter", "girth", "clique",
    "genus_lower", "genus_upper",
)


def atlas_rows(max_order: int, budget: int) -> list[dict]:
    """One row per catalog pair.  Rows whose graphs have equal adjacency
    share one genus search and one set of invariants: every value a row
    prints depends on the adjacency and the budget alone, and the budget
    is the same for every row."""
    rows = []
    by_adj: dict[tuple[int, ...], tuple] = {}
    for name, table, ideal in catalog_pairs(max_order):
        g = graphs.ideal_zero_divisor_graph(table, ideal)
        if g.adj not in by_adj:
            by_adj[g.adj] = (genus.exact_genus(g, budget),
                             graphs.invariants(g))
        bounds, inv = by_adj[g.adj]
        rows.append({
            "ring": name,
            "ideal": ideal.describe(),
            "ideal_size": ideal.size,
            "prime": str(is_prime(ideal)).lower(),
            "radical": str(is_radical(ideal)).lower(),
            "quotient_order": table.order // ideal.size,
            "vertices": g.n,
            "edges": g.m,
            "diameter": _fmt(inv["diameter"]),
            "girth": _fmt(inv["girth"]),
            "clique": inv["clique"],
            "genus_lower": bounds.lower,
            "genus_upper": "" if bounds.upper is None else bounds.upper,
        })
    return rows


def cmd_atlas(args) -> int:
    import csv

    rows = atlas_rows(args.max_order, args.budget)
    buf = io.StringIO()
    buf.write("# zdgenus atlas format 1\n")
    writer = csv.DictWriter(buf, fieldnames=ATLAS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.output, f": {len(rows)} rows")
    return 0


# === Parser =================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdgenus",
        description="Ideal-based zero-divisor graphs of small commutative "
                    "rings and their orientable genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices, budget=False):
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--output", help="write the payload to this path")
        if budget:
            p.add_argument("--budget", type=int, default=10**8,
                           help="search budget for genus (>= 10^4)")
        p.add_argument("--timing", action="store_true",
                       help="print elapsed times to stderr")

    p = sub.add_parser("ring", help="summarize a ring")
    p.add_argument("ring", help="catalog name, spec JSON path, or product")
    common(p, ("table", "json"))
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("ideals", help="list all ideals of a ring")
    p.add_argument("ring")
    common(p, ("table", "json"))
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("graph", help="emit the ideal-based zero-divisor graph")
    p.add_argument("ring")
    p.add_argument("ideal", help="'#k' or 'gen:a,b'")
    common(p, ("table", "dot", "json"))
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("genus", help="genus bounds for the graph of a pair")
    p.add_argument("ring")
    p.add_argument("ideal", help="'#k' or 'gen:a,b'")
    common(p, ("table", "json"), budget=True)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("verify", help="re-verify a classification fact")
    p.add_argument("theorem", help="a TheoremId or 'all'")
    common(p, ("table", "json"), budget=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("atlas", help="CSV of every catalog (ring, ideal) pair")
    p.add_argument("--max-order", type=int, default=64)
    common(p, ("csv",), budget=True)
    p.set_defaults(func=cmd_atlas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "budget" in args and args.budget < MIN_BUDGET:
        print(f"error: budget {args.budget} below minimum {MIN_BUDGET}",
              file=sys.stderr)
        return 2
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except BrokenPipeError:
        return 0
    except (ZdgenusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing and args.command != "verify":  # verify times each fact
        print(f"{args.command}: {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
