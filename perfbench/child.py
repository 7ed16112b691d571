"""The part of the benchmark that runs inside a fresh interpreter.

    python3 perfbench/child.py setup RESULT
        import zdgenus.cli, then build every catalog ring; write the two
        times to RESULT.
    python3 perfbench/child.py workload OUTPUT RESULT [--trace] -- ARGV...
        set up as above, then run the CLI command ARGV in this process with
        its payload written to OUTPUT; write the set-up times and the
        command's wall time (and, with --trace, the spans) to RESULT.
    python3 perfbench/child.py query RESULT -- ARGV...
        a traced one-shot CLI call: import zdgenus.cli, then main(ARGV);
        stdout is the CLI's, the import time and spans go to RESULT, and the
        exit code is the CLI's.

zdgenus is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))


def import_cli():
    start = time.perf_counter()
    import zdgenus.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"zdgenus imported from {cli.__file__}, not {SRC}")
    return cli, import_s


def build_catalog() -> float:
    catalog = sys.modules["zdgenus.catalog"]
    start = time.perf_counter()
    for entry in catalog.catalog_entries():
        catalog.catalog_ring(entry.name)
    return time.perf_counter() - start


def trace_result(tracer) -> dict:
    return {"spans": tracer.spans, "genus": tracer.genus_records()}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        _cli, import_s = import_cli()
        result = {"import_s": import_s, "build_s": build_catalog()}
        Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
        return 0

    if mode == "workload":
        output, result_path = argv[1:3]
        sep = argv.index("--")
        traced = "--trace" in argv[3:sep]
        cli, import_s = import_cli()
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        build_s = build_catalog()
        start = time.perf_counter()
        code = cli.main(argv[sep + 1:] + ["--output", output])
        wall_s = time.perf_counter() - start
        result = {"import_s": import_s, "build_s": build_s, "wall_s": wall_s,
                  "exit": code}
        if tracer is not None:
            result.update(trace_result(tracer))
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return 0

    if mode == "query":
        result_path, sep, *cli_argv = argv[1:]
        if sep != "--":
            raise SystemExit("usage: child.py query RESULT -- ARGV...")
        cli, import_s = import_cli()
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        code = cli.main(cli_argv)
        sys.stdout.flush()
        result = {"import_s": import_s, "exit": code, **trace_result(tracer)}
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return code

    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
