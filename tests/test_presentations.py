"""Quotient presentations: the built table is the presented ring or the
build is refused.  sympy's Gröbner bases over Z_p are the oracle."""

import hashlib
import struct
from math import gcd
from unittest import mock

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
    find_catalog,
    quotient_algebra,
)
from zdgenus import rings
from zdgenus.rings import (
    MAX_ORDER,
    RingSpec,
    RingTable,
    _build_quotient,
    _deglex_key,
    _poly_add,
    _poly_label,
    _poly_mul,
    _QuotientEngine,
)

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
            h.update(struct.pack(f"<{t.order ** 2}h", *b"".join(op)))
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


# === Oracle for _build_quotient =============================================
#
# The reference below is the builder that rewrote every sum and product to
# its normal form, kept verbatim.  An accepted table is the presented ring,
# in which each normal form is the unique representative of its element, so
# both builders must give the same table entry by entry; a refused table is
# larger than the presented ring, whichever builder made it.


def _ref_build_quotient(spec: RingSpec) -> tuple[RingTable, list[int]]:
    """The table of Z_n[vars] modulo the rewrite rules, and the index of
    each variable's image."""
    eng = _QuotientEngine(spec)
    basis = eng.basis()
    moduli = [eng.modulus(m) for m in basis]
    order = 1
    for d in moduli:
        order *= d
    if order > MAX_ORDER:
        raise InvalidSpec(f"ring order {order} exceeds maximum {MAX_ORDER}")

    weights = [1] * len(basis)
    for i in range(1, len(basis)):
        weights[i] = weights[i - 1] * moduli[i - 1]

    def encode(poly: dict) -> int:
        idx = 0
        for m, c in poly.items():
            i = basis.index(m)
            idx += (c % moduli[i]) * weights[i]
        return idx

    def decode(idx: int) -> dict:
        out = {}
        for i in reversed(range(len(basis))):
            c, idx = divmod(idx, weights[i])
            if c:
                out[basis[i]] = c
        return out

    polys = [decode(i) for i in range(order)]
    add = [[0] * order for _ in range(order)]
    mul = [[0] * order for _ in range(order)]
    for a in range(order):
        pa = polys[a]
        for b in range(a, order):
            pb = polys[b]
            add[a][b] = add[b][a] = encode(
                eng.normal_form(_poly_add(pa, pb, eng.n)))
            # a normal form is irreducible with every coefficient nonzero
            # mod its monomial's modulus, and every such monomial is in
            # the basis, since its divisors are irreducible with a modulus
            # at least its own
            mul[a][b] = mul[b][a] = encode(
                eng.normal_form(_poly_mul(pa, pb, eng.n)))
    labels = tuple(_poly_label(p, spec.variables) for p in polys)
    one = encode(eng.normal_form({(0,) * eng.nv: 1}))
    degree_one = [tuple(int(i == j) for j in range(eng.nv))
                  for i in range(eng.nv)]
    images = [encode(eng.normal_form({m: 1})) for m in degree_one]
    return RingTable(
        order=order,
        add=tuple(map(tuple, add)),
        mul=tuple(map(tuple, mul)),
        zero=0,
        one=one,
        labels=labels,
        name=spec.name,
    ), images


def _outcome(spec: RingSpec, builder):
    """What build_ring makes of spec with builder for quotient algebras:
    the table's add, mul, one, labels and variable images, "refused", or
    the InvalidSpec message."""
    with mock.patch.object(rings, "_build_quotient", builder):
        try:
            t = build_ring(spec)
        except NonConfluentPresentation:
            return "refused"
        except InvalidSpec as exc:
            return f"InvalidSpec: {exc}"
    images = builder(spec)[1] if spec.kind == "quotient" else None
    return t.add, t.mul, t.one, t.labels, images


@st.composite
def presentations(draw):
    """Z_n[x, y]/(relations) for n in {2, 3, 4, 8, 9}: a few drawn rules,
    whose left coefficient may be a non-unit, then pure powers of x and y.
    A non-unit left coefficient mostly comes with right side 0, a modulus
    rule; otherwise the spec is invalid."""
    n = draw(st.sampled_from([2, 3, 4, 8, 9]))

    def rule(lhs, coeff=1):
        below = [(i, j) for i in range(4) for j in range(4)
                 if _deglex_key((i, j)) < _deglex_key(lhs)]
        rhs = draw(st.dictionaries(st.sampled_from(below),
                                   st.integers(1, n - 1), max_size=3))
        if gcd(coeff, n) > 1 and draw(st.integers(0, 3)):
            rhs = {}
        return (_render({lhs: coeff}), _render(rhs))

    monomial = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
        lambda m: sum(m) >= 1)
    drawn = [rule(m, draw(st.integers(1, n - 1)))
             for m in draw(st.lists(monomial, max_size=3))]
    powers = [rule((draw(st.integers(1, 3)), 0)),
              rule((0, draw(st.integers(1, 3))))]
    return n, drawn + powers


@settings(max_examples=200, deadline=None)
@given(presentations())
@example((4, [("2*x", "0"), ("x^2", "0"), ("y^2", "0")]))
@example((2, [("x", "0"), ("x", "1"), ("x^1", "0"), ("y", "0")]))
def test_builder_matches_rewriting_every_entry(drawn):
    n, relations = drawn
    spec = quotient_algebra(n, ("x", "y"), relations, "drawn")
    assert _outcome(spec, _build_quotient) == \
        _outcome(spec, _ref_build_quotient)


def test_builder_matches_rewriting_every_entry_on_catalog():
    for entry in catalog_entries():
        new = _outcome(entry.spec, _build_quotient)
        assert new == _outcome(entry.spec, _ref_build_quotient), entry.name
        assert not isinstance(new, str), entry.name


def test_quotient_build_rewrites_only_basis_products():
    # F_8[x]/(x²) has 64 elements on 6 basis monomials in a and x: 6²
    # products of basis monomials, then 1 and the two variables
    calls = []
    normal_form = _QuotientEngine.normal_form

    def counted(self, poly):
        calls.append(poly)
        return normal_form(self, poly)

    spec = find_catalog("F_8[x]/(x²)").spec  # catalog_ring caches tables
    with mock.patch.object(_QuotientEngine, "normal_form", counted):
        t = build_ring(spec)
    assert t.order == 64
    assert 0 < len(calls) <= 6 ** 2 + 2 + 1
