"""Quotient presentations: the built table is the presented ring or the
build is refused.  sympy's Gröbner bases over Z_p are the oracle."""

import hashlib
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import groebner, parse_expr, symbols

from zdgenus import (
    InvalidSpec,
    NonConfluentPresentation,
    build_ring,
    catalog_entries,
    catalog_ring,
    quotient_algebra,
)
from zdgenus.rings import _build_quotient, _deglex_key

# SHA-256 over name, order, zero, one, labels, the dtype "<i2" twice and
# the add and mul entries as int16 little-endian bytes of the 100 catalog
# tables, as built before presentations were checked; the check must
# refuse none of them and change none
CATALOG_DIGEST = (
    "5cea76e056f3afcffc0d5de6421441db4d4d8cbdf5edea916b1145f1be94b1f1")
X, Y = symbols("x y")


def test_catalog_tables_unchanged():
    h = hashlib.sha256()
    entries = catalog_entries()
    for entry in entries:
        t = catalog_ring(entry.name)
        for part in (t.name, t.order, t.zero, t.one, t.labels, "<i2", "<i2"):
            h.update(repr(part).encode())
        for op in (t.add, t.mul):
            h.update(struct.pack(f"<{t.order ** 2}h", *sum(op, ())))
    assert len(entries) == 100
    assert h.hexdigest() == CATALOG_DIGEST


def test_disagreeing_rules_are_refused():
    # Z_2[x]/(x, x - 1) is the zero ring; the first rule alone gives Z_2
    spec = quotient_algebra(2, ("x",), [("x", "0"), ("x", "1")], "zero")
    assert _build_quotient(spec)[0].order == 2
    with pytest.raises(NonConfluentPresentation, match="x = 1"):
        build_ring(spec)


def _render(poly: dict) -> str:
    terms = [f"{c}*x^{i}*y^{j}" for (i, j), c in poly.items()]
    return " + ".join(terms) or "0"


@st.composite
def rules(draw, p):
    """Rewrite rules in x and y over Z_p: a few drawn rules first, then
    pure powers of x and y, so the basis is finite; each right side is a
    drawn combination of monomials below the left side."""
    def rule(lhs):
        below = [(i, j) for i in range(4) for j in range(4)
                 if _deglex_key((i, j)) < _deglex_key(lhs)]
        rhs = draw(st.dictionaries(st.sampled_from(below),
                                   st.integers(1, p - 1), max_size=3))
        return (_render({lhs: 1}), _render(rhs))

    monomial = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
        lambda m: sum(m) >= 1)
    drawn = [rule(m) for m in draw(st.lists(monomial, max_size=3))]
    powers = [rule((draw(st.integers(1, 3)), 0)),
              rule((0, draw(st.integers(1, 3))))]
    return drawn + powers


def presented_order(p: int, relations) -> int:
    """|Z_p[x, y]/(relations)|: p to the number of standard monomials."""
    polys = [parse_expr(lhs.replace("^", "**")) -
             parse_expr(rhs.replace("^", "**")) for lhs, rhs in relations]
    basis = groebner(polys, X, Y, modulus=p, order="grlex")
    leading = [g.monoms(order="grlex")[0] for g in basis.polys]
    # the pure powers among the relations bound every standard monomial
    standard = [(i, j) for i in range(4) for j in range(4)
                if not any(a <= i and b <= j for a, b in leading)]
    return p ** len(standard)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda p: st.tuples(st.just(p), rules(p))))
@example((2, [("x", "0"), ("x", "1"), ("x^1", "0"), ("y", "0")]))
def test_built_order_matches_groebner(drawn):
    p, relations = drawn
    spec = quotient_algebra(p, ("x", "y"), relations, "drawn")
    try:
        unchecked = _build_quotient(spec)[0]
    except InvalidSpec:  # past the order cap
        return
    want = presented_order(p, relations)
    try:
        table = build_ring(spec)
    except NonConfluentPresentation:
        # the rewrites are sound, so a refused table is too large
        assert want < unchecked.order
    else:
        assert table.order == want
