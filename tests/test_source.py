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
    """Relation strings are parsed by an AST walk in rings.py; sympy is a
    test-only dependency and must not come back into the runtime."""
    lines = imported_at(path, "sympy")
    assert not lines, f"{path.name}: sympy imported at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_graph_library_imports(path):
    """Planarity is decided in genus.py; networkx is the test oracle only."""
    lines = imported_at(path, "networkx")
    assert not lines, f"{path.name}: networkx imported at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_imports(path):
    """Ring tables are tuple rows of Python ints; numpy is the test oracle
    for validate_table only."""
    lines = imported_at(path, "numpy")
    assert not lines, f"{path.name}: numpy imported at lines {lines}"


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


@pytest.mark.parametrize("argv", [
    ["ring", "Z_2×Z_4"],
    ["ideals", "Z_2×Z_4"],
    ["graph", "Z_2×Z_4", "#1"],
    ["genus", "Z_2×Z_4", "#1"],
], ids=lambda argv: argv[0])
def test_cli_runs_with_numpy_blocked(argv):
    """A None entry in sys.modules makes every import of numpy fail."""
    run = "from zdgenus.cli import main; sys.exit(main(sys.argv[1:]))"
    blocked = run_python(f"import sys; sys.modules['numpy'] = None; {run}",
                         *argv)
    plain = run_python(f"import sys; {run}", *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == plain.stdout
