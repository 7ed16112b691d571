"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "zdgenus").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """python -O strips assert statements, so a check written as one would
    silently disappear; checks raise ZdgenusError instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def imported_at(path, module):
    """Lines of path that import module or one of its submodules."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == module for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == module
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_computer_algebra_imports(path):
    """Relation strings are parsed by recursive descent in rings.py; sympy
    is a test-only dependency and must not come back into the runtime."""
    lines = imported_at(path, "sympy")
    assert not lines, f"{path.name}: sympy imported at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_graph_library_imports(path):
    """Planarity is decided in genus.py; networkx is the test oracle only."""
    lines = imported_at(path, "networkx")
    assert not lines, f"{path.name}: networkx imported at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_imports(path):
    """Ring tables are tuples of bytes rows; numpy is the test oracle for
    validate_table only."""
    lines = imported_at(path, "numpy")
    assert not lines, f"{path.name}: numpy imported at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_imports(path):
    """dataclasses loads inspect and generates each class's methods from
    source at import, a cost every one-shot call paid before its work:
    value types are typing.NamedTuple, identity types plain classes."""
    lines = imported_at(path, "dataclasses")
    assert not lines, f"{path.name}: dataclasses imported at lines {lines}"


def run_python(code, *args):
    """Run code in a fresh interpreter that imports zdgenus from src/."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True)


def cli_import_loads(module):
    """'True' or 'False': whether importing zdgenus.cli in a fresh
    interpreter loads module."""
    proc = run_python(
        f"import sys, zdgenus.cli; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_sympy_unloaded():
    assert cli_import_loads("sympy") == "False"


def test_cli_import_leaves_networkx_unloaded():
    assert cli_import_loads("networkx") == "False"


def test_cli_import_leaves_numpy_unloaded():
    assert cli_import_loads("numpy") == "False"


ONE_SHOT_CALLS = [
    ["ring", "Z_2×Z_4"],
    ["ideals", "Z_2×Z_4"],
    ["graph", "Z_2×Z_4", "#1"],
    ["genus", "Z_2×Z_4", "#1"],
]


@pytest.mark.parametrize("argv", ONE_SHOT_CALLS, ids=lambda argv: argv[0])
def test_cli_runs_with_numpy_blocked(argv):
    """A None entry in sys.modules makes every import of numpy fail."""
    run = "from zdgenus.cli import main; sys.exit(main(sys.argv[1:]))"
    blocked = run_python(f"import sys; sys.modules['numpy'] = None; {run}",
                         *argv)
    plain = run_python(f"import sys; {run}", *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == plain.stdout


# A name that each lazy module's body defines: it is in the module's
# namespace exactly when the body has run.
LAZY_BODY_NAMES = {"zdgenus.graphs": "ideal_zero_divisor_graph",
                   "zdgenus.genus": "exact_genus", "zdgenus.classify": "verify"}


@pytest.mark.parametrize("argv, ran", [
    (["ring", "Z_2×Z_4"], []),
    (["ideals", "Z_2×Z_4"], []),
    (["graph", "Z_2×Z_4", "#1"], ["zdgenus.graphs"]),
    (["genus", "Z_2×Z_4", "#1"], ["zdgenus.graphs", "zdgenus.genus"]),
], ids=["ring", "ideals", "graph", "genus"])
def test_one_shot_commands_run_only_the_layers_they_use(argv, ran):
    """The namespace is read with object.__getattribute__, because any
    attribute access on a lazy module, __dict__ included, runs it."""
    code = (
        "import sys\n"
        "from zdgenus.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"body_names = {LAZY_BODY_NAMES!r}\n"
        "print([name for name, body in body_names.items() if body in "
        "object.__getattribute__(sys.modules[name], '__dict__')])\n"
        "sys.exit(code)\n")
    proc = run_python(code, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(ran)


def loaded_after_main(argv, modules):
    """Which of modules are in sys.modules after main(argv) in a fresh
    interpreter, as the printed list."""
    proc = run_python(
        "import sys\n"
        "from zdgenus.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
        "sys.exit(code)\n", *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv", ONE_SHOT_CALLS, ids=lambda argv: argv[0])
def test_one_shot_commands_leave_unused_stdlib_unloaded(argv):
    """json, csv and ast are imported inside the functions that use them,
    and no module imports dataclasses (and with it inspect)."""
    unused = ("dataclasses", "inspect", "json", "csv", "ast")
    assert loaded_after_main(argv, unused) == "[]"


def test_json_format_loads_json():
    """The positive control for the test above: the probe sees an import
    made inside a command."""
    argv = ["ring", "Z_2×Z_4", "--format", "json"]
    assert loaded_after_main(argv, ("json",)) == "['json']"


def test_cli_import_registers_the_traced_modules():
    """perfbench's Tracer looks these five modules up in sys.modules right
    after `import zdgenus.cli`, and its certificate recheck calls
    cli.ideal_zero_divisor_graph."""
    proc = run_python(
        "import sys, zdgenus.cli as cli\n"
        "print([m for m in ('rings', 'ideals', 'graphs', 'genus', "
        "'classify') if 'zdgenus.' + m not in sys.modules])\n"
        "print([f for f in ('resolve_ring', 'resolve_ideal', "
        "'ideal_zero_divisor_graph') if not callable(getattr(cli, f, None))])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


# Every name that zdgenus exported before genus and classify became lazy,
# by defining module, less canonical_certificate and graph_iso, which went
# with the canonical-form layer when nothing called it any more, plus
# LowerBound, the record the lower-bound functions return.
PACKAGE_EXPORTS = {
    "catalog": ("catalog", "catalog_entries", "catalog_ring", "find_catalog"),
    "classify": (
        "ClassificationReport", "TheoremId", "attached_k4_graph",
        "genus_ge2_predicate", "genus_one_clique3_predicate",
        "genus_one_clique_le2_predicate", "redmond_planar_predicate",
        "synthesize", "verify", "verify_all"),
    "errors": (
        "CliqueHypothesisViolated", "HypothesisNotMet", "InvalidSpec",
        "NonConfluentPresentation", "NotRadical", "WholeRingIdeal",
        "ZdgenusError"),
    "genus": (
        "EmbeddingCertificate", "GenusBounds", "LowerBound",
        "certificate_from_json", "certificate_to_json", "closed_form_bound",
        "euler_lower_bound", "exact_genus", "face_trace", "genus_biclique",
        "genus_complete", "is_planar", "k4_attachment_bound",
        "random_rotation", "subgraph_lower_bound"),
    "graphs": (
        "SimpleGraph", "clique_number", "complete_bipartite",
        "complete_graph", "complete_multipartite", "diameter", "expand",
        "export_dot", "export_json", "find_biclique",
        "find_complete_subgraph", "girth", "ideal_zero_divisor_graph",
        "induced_subgraph", "is_connected", "make_graph", "twin_quotient",
        "zero_divisor_graph"),
    "ideals": (
        "IdealSet", "QuotientRing", "cyclic_ideal", "enumerate_ideals",
        "ideal_from_generators", "is_prime", "is_radical", "maximal_ideals",
        "minimal_primes_over", "quotient", "validate_ideal"),
    "rings": (
        "RingSpec", "RingTable", "build_ring", "gf", "is_local", "iso_check",
        "product", "product_tables", "quotient_algebra", "spec_from_json",
        "spec_to_json", "units", "zmod"),
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_exports_keep_their_objects(module):
    import zdgenus

    defining = sys.modules[f"zdgenus.{module}"]
    names = PACKAGE_EXPORTS[module]
    imported = {}
    exec(f"from zdgenus import {', '.join(names)}", imported)
    assert [n for n in names if imported[n] is not getattr(defining, n)] == []
    assert [n for n in names if n not in dir(zdgenus)] == []


def test_package_catalog_is_the_function():
    """`from .catalog import catalog` shadows the submodule of that name."""
    import zdgenus

    assert zdgenus.catalog is sys.modules["zdgenus.catalog"].catalog
    assert callable(zdgenus.catalog)
