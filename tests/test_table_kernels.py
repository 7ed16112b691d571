"""The byte-row table kernels against the code they replaced.

Ring tables are tuples of bytes rows, built and checked by whole-row
translate, slice and join.  The references below are the earlier
per-entry versions, kept verbatim: the ast-walking relation parser, and
the ideal enumeration and generator search that read a full column per
element.  The 650 rings of the benchmark's queries universe (the catalog,
then every ad-hoc product of two non-product catalog rings of order at
most 64) cover products and quotients beyond the catalog's own.
"""

import hashlib
import itertools
import reprlib

from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdgenus import (
    InvalidSpec,
    catalog_entries,
    catalog_ring,
    enumerate_ideals,
)
from zdgenus.cli import resolve_ring
from zdgenus.rings import (
    MAX_ORDER,
    RingTable,
    ValidationReport,
    _parse_poly,
    _poly_add,
    _poly_mul,
    validate_table,
)


def _universe() -> list[str]:
    entries = catalog_entries()
    names = [e.name for e in entries]
    factors = [e.name for e in entries if "product" not in e.tags]
    return names + [
        f"{a}×{b}" for a in factors for b in factors
        if catalog_ring(a).order * catalog_ring(b).order <= MAX_ORDER
        and f"{a}×{b}" not in names]


UNIVERSE = _universe()

# SHA-256 over each universe ring's repr((name, order, zero, one, labels))
# and its add and mul entries as one byte each, row by row, as built
# before tables held bytes rows
UNIVERSE_DIGEST = (
    "a5ce3ad87e9bc9adf0121695e3bdfcba443f6744775ad307d7a003347526d3fd")


def test_universe_tables_unchanged():
    h = hashlib.sha256()
    for name in UNIVERSE:
        t = resolve_ring(name)
        h.update(repr((t.name, t.order, t.zero, t.one, t.labels)).encode())
        for op in (t.add, t.mul):
            h.update(bytes(itertools.chain.from_iterable(op)))
    assert len(UNIVERSE) == 650
    assert h.hexdigest() == UNIVERSE_DIGEST


def test_rows_are_bytes_whatever_they_were_given():
    t = catalog_ring("Z_6")
    u = RingTable(6, [list(r) for r in t.add], t.mul, 0, 1, t.labels)
    assert all(type(r) is bytes for r in (*t.add, *t.mul, *u.add, *u.mul))
    assert u.add == t.add and u.mul[4][5] == 2
    with pytest.raises(InvalidSpec, match="range"):
        RingTable(2, [[0, 256], [1, 0]], t.mul[:2], 0, 1, ("0", "1"))


# === validate_table on entries that are no element ==========================


def _z3(op, a, b, v):
    t = catalog_ring("Z_3")
    rows = {"add": [list(r) for r in t.add], "mul": [list(r) for r in t.mul]}
    rows[op][a][b] = v
    return RingTable(3, rows["add"], rows["mul"], 0, 1, t.labels)


@pytest.mark.parametrize("op, a, b, v", [
    ("add", 1, 2, 3), ("add", 0, 0, 255), ("mul", 2, 1, 3),
    ("mul", 2, 2, 64)])
def test_validate_table_refuses_an_entry_past_the_order(op, a, b, v):
    """An entry >= order is named with its place; it is never read as a
    translate table's padding, so no three-variable law is tried."""
    report = validate_table(_z3(op, a, b, v))
    assert not report.ok
    assert (f"{op}-closed", (a, b)) in report.violations
    assert not {name for name, _ in report.violations} & {
        "add-associative", "distributive", "mul-associative"}


# === validate_table against its per-entry version ==========================
#
# The reference is validate_table before it translated whole rows, kept
# verbatim with its generator search: itemgetter reads bytes rows as it
# read tuples of ints.


def _ref_additive_generators(t):
    gens = []
    reached = 0
    for e in (*range(t.zero + 1, t.order), *range(t.zero + 1)):
        if reached >> e & 1:
            continue
        gens.append(e)
        reached, todo = 0, list(gens)
        while todo:
            y = todo.pop()
            if not reached >> y & 1:
                reached |= 1 << y
                todo.extend(t.add[y][s] for s in gens)
    return gens


def _ref_validate_table(t):
    report = ValidationReport()
    n, A, M = t.order, t.add, t.mul

    if n < 2 or t.zero == t.one:
        report.violations.append(("zero-ne-one", (t.zero, t.one)))
    for name, op in (("add-commutative", A), ("mul-commutative", M)):
        for i, (row, col) in enumerate(zip(op, zip(*op))):
            if tuple(row) != col:
                j = next(j for j in range(n) if row[j] != col[j])
                report.violations.append((name, (i, j)))
                break

    At, Mt = tuple(zip(*A)), tuple(zip(*M))
    pick_a, pick_m = [itemgetter(*r) for r in A], [itemgetter(*r) for r in M]
    laws = (
        ("add-associative",  # (a + b) + c = a + (b + c)
         lambda c: [p(At[c]) for p in pick_a],
         lambda c: list(map(itemgetter(*At[c]), A))),
        ("distributive",  # a(b + c) = ab + ac
         lambda c: list(map(itemgetter(*At[c]), M)),
         lambda c: [p(At[M[a][c]]) for a, p in enumerate(pick_m)]),
        ("mul-associative",  # (ab)c = a(bc)
         lambda c: [p(Mt[c]) for p in pick_m],
         lambda c: list(map(itemgetter(*Mt[c]), M))),
    )
    gens = _ref_additive_generators(t)
    for name, lhs, rhs in laws:
        for c in gens:
            left, right = lhs(c), rhs(c)
            if left != right:
                a = next(a for a in range(n) if left[a] != right[a])
                b = next(b for b in range(n) if left[a][b] != right[a][b])
                report.violations.append((name, (a, b, c)))
                break

    for name, e, op in (("zero-identity", t.zero, A),
                        ("one-identity", t.one, M)):
        bad = next((b for b in range(n) if op[e][b] != b), None)
        if bad is not None:
            report.violations.append((name, (e, bad)))
    bad = next((a for a in range(n) if t.zero not in A[a]), None)
    if bad is not None:
        report.violations.append(("additive-inverse", (bad,)))
    return report


_SMALL = [e.name for e in catalog_entries()
          if catalog_ring(e.name).order <= 27]


@settings(max_examples=300)
@given(st.sampled_from(_SMALL), st.lists(
    st.tuples(st.sampled_from(["add", "mul"]), st.booleans(),
              st.integers(0, 10**6), st.integers(0, 10**6),
              st.integers(0, 10**6)), min_size=1, max_size=3))
def test_validate_table_names_the_reference_violations(name, edits):
    """Up to three entries changed, each maybe mirrored: the same names
    and the same witnesses, in the same order."""
    t = catalog_ring(name)
    rows = {"add": [list(r) for r in t.add], "mul": [list(r) for r in t.mul]}
    for op, mirror, a, b, v in edits:
        a, b, v = a % t.order, b % t.order, v % t.order
        rows[op][a][b] = v
        if mirror:
            rows[op][b][a] = v
    bad = RingTable(t.order, rows["add"], rows["mul"], t.zero, t.one,
                    t.labels)
    assert validate_table(bad).violations == \
        _ref_validate_table(bad).violations


# === enumerate_ideals and generator_labels ==================================
#
# The reference is the ideal layer before it read distinct columns, skipped
# covered cosets in a sum and iterated bits: kept verbatim, as functions of
# a table and masks.


def _ref_members(t, mask):
    return [i for i in range(t.order) if mask >> i & 1]


def _ref_ideal_sum(t, a, b):
    js = _ref_members(t, b)
    out = 0
    for i in _ref_members(t, a):
        row = t.add[i]
        for j in js:
            out |= 1 << row[j]
    return out


def _ref_cyclic(t, a):
    mask = 0
    for row in t.mul:
        mask |= 1 << row[a]
    return mask


def _ref_enumerate_ideals(t):
    sums = {1 << t.zero}
    for p in {_ref_cyclic(t, a) for a in range(t.order)}:
        sums |= {_ref_ideal_sum(t, s, p) for s in sums if s & p != p}
    return sorted(sums, key=lambda m: (m.bit_count(),
                                       tuple(_ref_members(t, m))))


def _ref_generator_labels(t, mask):
    cur = 1 << t.zero
    gens = []
    for e in _ref_members(t, mask):
        if cur >> e & 1:
            continue
        gens.append(e)
        cur = _ref_ideal_sum(t, cur, _ref_cyclic(t, e))
        if cur == mask:
            break
    return [t.labels[g] for g in gens]


def _ref_describe(t, mask):
    if mask == 1 << t.zero:
        return "(0)"
    if mask.bit_count() == t.order:
        return "(1)"
    return "(" + ", ".join(_ref_generator_labels(t, mask)) + ")"


def test_ideals_match_the_column_reference_on_the_universe():
    for name in UNIVERSE:
        t = resolve_ring(name)
        ideals = enumerate_ideals(t)
        ref = _ref_enumerate_ideals(t)
        assert [i.mask for i in ideals] == ref, name
        assert [i.describe() for i in ideals] == [
            _ref_describe(t, m) for m in ref], name
        assert [i.generator_labels() for i in ideals[1:-1]] == [
            _ref_generator_labels(t, m) for m in ref[1:-1]], name


# === The relation parser ====================================================
#
# The reference is the parser before the recursive descent: an ast walk,
# kept verbatim.


def _ref_parse_poly(text: str, variables: tuple[str, ...], n: int):
    import ast

    if not isinstance(text, str):
        raise InvalidSpec(f"relation sides must be strings, got {text!r}")
    index = {v: i for i, v in enumerate(variables)}
    const = (0,) * len(variables)

    def term(exps: tuple[int, ...], c: int) -> dict:
        return {exps: c % n} if c % n else {}

    def walk(node) -> dict:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return term(const, node.value)
        if isinstance(node, ast.Name) and node.id in index:
            return term(tuple(int(i == index[node.id])
                              for i in range(len(const))), 1)
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.UAdd, ast.USub)):
            sign = -1 if isinstance(node.op, ast.USub) else 1
            return _poly_add({}, walk(node.operand), n, sign)
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.Add, ast.Sub)):
            sign = -1 if isinstance(node.op, ast.Sub) else 1
            return _poly_add(walk(node.left), walk(node.right), n, sign)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return _poly_mul(walk(node.left), walk(node.right), n)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and \
                isinstance(node.right, ast.Constant) and \
                type(node.right.value) is int and node.right.value >= 0:
            base, e, out = walk(node.left), node.right.value, term(const, 1)
            while e:  # square and multiply
                if e & 1:
                    out = _poly_mul(out, base, n)
                e >>= 1
                base = _poly_mul(base, base, n) if e else base
            return out
        what = (f"symbol {node.id!r}" if isinstance(node, ast.Name)
                else type(node).__name__)
        raise InvalidSpec(f"undeclared or unsupported {what} in polynomial "
                          f"{reprlib.repr(text)}")

    try:
        return walk(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # the parser signals over-deep input with RecursionError or
        # MemoryError
        raise InvalidSpec(f"cannot parse polynomial {reprlib.repr(text)}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _outcome(parse, text, variables, n):
    try:
        return parse(text, variables, n)
    except InvalidSpec:
        return "InvalidSpec"


VARIABLES = ("a", "x", "y")


@st.composite
def _grammar_strings(draw):
    """Expressions of the grammar, by precedence level, with optional
    parentheses, spaces and either power operator."""
    def level(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(
                ["0", "1", "2", "3", "12", "00", "1_0", *VARIABLES]))
        kind = draw(st.sampled_from(["+", "-", "*", "^", "**", "u", "()"]))
        if kind == "u":
            return draw(st.sampled_from(["-", "+", "--"])) + level(depth - 1)
        if kind == "()":
            return f"({level(depth - 1)})"
        if kind in ("^", "**"):
            exponent = draw(st.sampled_from(["0", "1", "2", "3", "(2)"]))
            return f"{level(depth - 1)}{kind}{exponent}"
        space = draw(st.sampled_from(["", " "]))
        return f"{level(depth - 1)}{space}{kind}{space}{level(depth - 1)}"

    return level(4)


# tokens and stray characters, glued in any order: nearly all of these
# strings are outside the grammar, and both parsers must refuse them
_PIECES = ["x", "y", "z", "2", "0", "07", "1_0", "1_", "(", ")", "+", "-",
           "*", "^", "**", " ", "/", ".", "x2", "True", "%", ",", "'", "e5",
           "0x1", "[", "]", "\t"]


def _junk_strings():
    return st.lists(st.sampled_from(_PIECES), max_size=9).map("".join)


def _mutated(text_strategy):
    """A grammar string with one character inserted or deleted."""
    @st.composite
    def mutate(draw):
        text = draw(text_strategy)
        k = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and text:
            return text[:k] + text[k + 1:]
        return text[:k] + draw(st.sampled_from(_PIECES)) + text[k:]
    return mutate()


@given(st.one_of(_grammar_strings(), _junk_strings(),
                 _mutated(_grammar_strings()))
       # Python refuses leading whitespace as indentation, and reads a
       # non-decimal literal such as 0x1; the grammar skips whitespace
       # anywhere and has decimal literals only
       .filter(lambda s: not s[:1].isspace() and "0x" not in s),
       st.sampled_from([2, 3, 4, 9, 25]))
@example("x^(2)", 4)
@example("-x**2", 9)
@example("x**-1", 4)
@example("x^2^3", 4)
@example("2*-x--y", 25)
@example("x**((3))", 3)
@example("007", 2)
@example("0_0 + 00", 2)
@example("((x)", 2)
@example("", 2)
def test_parser_matches_the_ast_reference(text, n):
    assert _outcome(_parse_poly, text, VARIABLES, n) == \
        _outcome(_ref_parse_poly, text, VARIABLES, n)


def test_each_relation_is_parsed_once_per_process(monkeypatch):
    from zdgenus import rings

    calls = []
    parser = rings._Parser

    def counted(*args):
        calls.append(args)
        return parser(*args)

    monkeypatch.setattr(rings, "_Parser", counted)
    monkeypatch.setattr(rings, "_PARSED", {})
    spec = next(e.spec for e in catalog_entries()
                if e.spec.kind == "quotient" and len(e.spec.relations) > 2)
    for _ in range(2):
        rings.build_ring(spec)
    sides = {side for rule in spec.relations for side in rule}
    assert len(calls) == len(sides)


@pytest.mark.parametrize("text", [
    "(" * 101 + "x" + ")" * 101, "x^" + "(" * 101 + "2" + ")" * 101,
    "-" * 20000 + "x", "x+" * 5000 + "x"])
def test_parser_refuses_over_deep_or_long_input(text):
    with pytest.raises(InvalidSpec):
        _parse_poly(text, ("x",), 4)
    assert _parse_poly("(" * 100 + "x" + ")" * 100, ("x",), 4) == {(1,): 1}
