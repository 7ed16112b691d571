"""Frozen oracles for the ring catalog.

Four layers of pinning:

* census: entry count, tag counts, order histogram;
* tag claims: each entry's ring has the property its tags name;
* isomorphism structure: same-order entries are pairwise
  non-isomorphic except for a frozen list of intentional duplicates
  (CRT pairs like Z_6 / Z_2xZ_3 and alternate presentations of the
  same local ring);
* presentation exactness: every completed rewrite rule really lies in
  the ideal spanned by the verbatim generators, certified either by a
  sign match or by explicit cofactor polynomials checked with integer
  arithmetic mod n.
"""

import hashlib
import itertools
import random
from collections import Counter

import sympy

from zdgenus import (catalog_ring, exact_genus, is_local, is_planar,
                     iso_check, maximal_ideals, zero_divisor_graph)
from zdgenus.catalog import catalog_entries
from zdgenus.rings import spec_to_json, validate_table, zero_divisors

EXPECTED_ENTRY_COUNT = 100

EXPECTED_TAG_COUNTS = {
    "zmod": 32,
    "field": 14,
    "planar-local": 29,
    "genus-one-local": 18,
    "two-max": 24,
    "product": 26,
}

# SHA-256 over the entries in order, of each spec's JSON, the verbatim
# generators and the sorted tags; the table digest in test_presentations
# pins the built tables, this one the presentations that name them
CATALOG_SPEC_DIGEST = (
    "c6f449263750e3b02529687248d2a952f329b49933f24da5803c622cdda794d0")

EXPECTED_ORDER_HISTOGRAM = {
    2: 1, 3: 1, 4: 4, 5: 1, 6: 2, 7: 1, 8: 10, 9: 4, 10: 2, 11: 1,
    12: 5, 13: 1, 14: 2, 15: 2, 16: 24, 17: 1, 18: 4, 19: 1, 20: 1,
    21: 2, 22: 1, 23: 1, 24: 2, 25: 2, 26: 1, 27: 7, 28: 1, 29: 1,
    30: 1, 31: 1, 32: 7, 49: 2, 64: 3,
}

# Pairs of catalog entries that name the same ring on purpose: seven
# CRT factorizations kept alongside their Z_n form, plus three pairs
# of alternate presentations.  Witness bijections were re-verified as
# full ring homomorphisms when this list was frozen.
EXPECTED_ISO_PAIRS = frozenset(
    frozenset(pair)
    for pair in [
        ("Z_6", "Z_2×Z_3"),
        ("Z_10", "Z_2×Z_5"),
        ("Z_12", "Z_3×Z_4"),
        ("Z_14", "Z_2×Z_7"),
        ("Z_15", "Z_3×Z_5"),
        ("Z_18", "Z_2×Z_9"),
        ("Z_21", "Z_3×Z_7"),
        ("Z_4[x]/(x³-2,x⁵)", "Z_4[x]/(x⁴+x³-2,x⁵)"),
        ("Z_8[x]/(x²-2,x⁵)", "Z_8[x]/(3x²-2,x⁵)"),
        ("Z_4[x]/(x³+x+1)", "Z_4[x]/(x³-x+1)"),
    ]
)

# Cofactor certificates for completed rules that are not just a signed
# generator.  Key: (entry name, rule lhs).  Value: one cofactor per
# verbatim generator, in order; the assertion is that
# sum(cofactor_i * generator_i) - (lhs - rhs) has every integer
# coefficient divisible by the base modulus n.  Each identity was
# checked by hand, e.g. 2x = -x*(x^3 - 2) + 1*(x^4) in Z_4[x].
COMPLETION_CERTIFICATES = {
    ("Z_4[x]/(x³-2,x⁴)", "2*x"): ("-x", "1"),
    ("Z_4[x]/(x²-2,x³)", "2*x"): ("-x", "1"),
    ("Z_4[x]/(x³+x²-2,x⁴)", "x^2"): ("1 - x", "1"),
    ("Z_4[x,y]/(x²,y²,xy-2)", "2*x"): ("y", "0", "-x"),
    ("Z_4[x,y]/(x²,y²,xy-2)", "2*y"): ("0", "x", "-y"),
    ("Z_4[x,y]/(x³,x²-2,xy,y²-2)", "2*x"): ("1", "-x", "0", "0"),
    ("Z_4[x,y]/(x³,x²-2,xy,y²-2)", "2*y"): ("0", "-y", "x", "0"),
    ("Z_4[x,y]/(x³,x²-2,xy,y²)", "2*x"): ("1", "-x", "0", "0"),
    ("Z_4[x,y]/(x³,x²-2,xy,y²)", "2*y"): ("0", "-y", "x", "0"),
    ("Z_9[x]/(x²-3,x³)", "3*x"): ("-x", "1"),
    ("Z_9[x]/(x²+3,x³)", "3*x"): ("x", "-1"),
    ("Z_4[x]/(x³-2,x⁵)", "2*x^2"): ("-x^2", "1"),
    ("Z_4[x]/(x⁴-2,x⁵)", "2*x"): ("-x", "1"),
    ("Z_4[x]/(x⁴+x³-2,x⁵)", "x^3"): ("1 - x", "1"),
    ("Z_4[x]/(x⁴+x³-2,x⁵)", "2*x^2"): ("-x^2", "x + 1"),
    ("Z_8[x]/(x²-2,x⁵)", "4*x"): ("-x^3 - 2*x", "1"),
    ("Z_8[x]/(3x²-2,x⁵)", "4*x"): ("5*x^3 + 6*x", "1"),
}


def _quotient_entries():
    return [e for e in catalog_entries() if e.spec.kind == "quotient"]


def _poly(text):
    return sympy.sympify(text.replace("^", "**"))


def _zero_mod(expr, n):
    coeffs = sympy.expand(expr).as_coefficients_dict().values()
    return all(int(c) % n == 0 for c in coeffs)


def _scalar(table, c):
    value = table.zero
    for _ in range(abs(int(c))):
        value = table.add[value][table.one]
    return value if c >= 0 else table.neg(value)


def _eval_in_table(table, expr, var_index):
    """Evaluate an integer polynomial inside the multiplication table."""
    total = table.zero
    for mono, coeff in sympy.expand(expr).as_coefficients_dict().items():
        term = _scalar(table, coeff)
        if mono != 1:
            for sym, exp in mono.as_powers_dict().items():
                base = var_index[str(sym)]
                for _ in range(int(exp)):
                    term = table.mul[term][base]
        total = table.add[total][term]
    return total


def test_census():
    entries = catalog_entries()
    assert len(entries) == EXPECTED_ENTRY_COUNT
    names = [e.name for e in entries]
    assert len(set(names)) == EXPECTED_ENTRY_COUNT
    assert Counter(t for e in entries for t in e.tags) == EXPECTED_TAG_COUNTS
    histogram = Counter(e.spec.expected_order for e in entries)
    assert dict(histogram) == EXPECTED_ORDER_HISTOGRAM
    assert all(e.tags for e in entries)


def test_catalog_specs_unchanged():
    h = hashlib.sha256()
    for e in catalog_entries():
        for part in (spec_to_json(e.spec), e.generators, sorted(e.tags)):
            h.update(repr(part).encode())
    assert h.hexdigest() == CATALOG_SPEC_DIGEST


def _false_tags(entry):
    """The tags of entry whose claim about its ring fails."""
    table = catalog_ring(entry.name)
    claims = {
        "zmod": lambda: entry.spec.kind == "zmod",
        "product": lambda: entry.spec.kind == "product",
        "field": lambda: not zero_divisors(table),
        "planar-local": lambda: (is_local(table)
                                 and is_planar(zero_divisor_graph(table))),
        "genus-one-local": lambda: (
            is_local(table)
            and exact_genus(zero_divisor_graph(table))[:2] == (1, 1)),
        "two-max": lambda: (len(maximal_ideals(table)) == 2
                            and is_planar(zero_divisor_graph(table))),
    }
    return sorted(tag for tag in entry.tags if not claims[tag]())


def test_every_tag_claim_holds():
    false = {e.name: _false_tags(e) for e in catalog_entries()}
    assert {name: tags for name, tags in false.items() if tags} == {}


def test_orders_match_tables():
    for entry in catalog_entries():
        table = catalog_ring(entry.name)
        assert table.order == entry.spec.expected_order
        assert validate_table(table).ok


def test_same_order_pairs_distinct_up_to_frozen_duplicates():
    by_order = {}
    for entry in catalog_entries():
        by_order.setdefault(entry.spec.expected_order, []).append(entry.name)
    found = set()
    for names in by_order.values():
        for a, b in itertools.combinations(sorted(names), 2):
            if iso_check(catalog_ring(a), catalog_ring(b)) is not None:
                found.add(frozenset((a, b)))
    assert found == EXPECTED_ISO_PAIRS


def test_duplicate_pair_witnesses_are_ring_isomorphisms():
    for pair in EXPECTED_ISO_PAIRS:
        a, b = sorted(pair)
        t1, t2 = catalog_ring(a), catalog_ring(b)
        w = iso_check(t1, t2)
        assert w is not None and sorted(w) == list(range(t1.order))
        assert w[t1.zero] == t2.zero and w[t1.one] == t2.one
        for i in range(t1.order):
            for j in range(t1.order):
                assert w[t1.add[i][j]] == t2.add[w[i]][w[j]]
                assert w[t1.mul[i][j]] == t2.mul[w[i]][w[j]]


def test_verbatim_generators_vanish_in_tables():
    for entry in _quotient_entries():
        table = catalog_ring(entry.name)
        var_index = {v: table.index_of(v) for v in entry.spec.variables}
        for gen in entry.generators:
            value = _eval_in_table(table, _poly(gen), var_index)
            assert value == table.zero, (entry.name, gen)


def test_completed_rules_lie_in_verbatim_ideal():
    seen_keys = set()
    for entry in _quotient_entries():
        n = entry.spec.n
        gens = [_poly(g) for g in entry.generators]
        for rule in entry.spec.relations:
            target = _poly(rule.lhs) - _poly(rule.rhs)
            if any(
                _zero_mod(target - g, n) or _zero_mod(target + g, n)
                for g in gens
            ):
                continue
            key = (entry.name, rule.lhs)
            assert key in COMPLETION_CERTIFICATES, key
            seen_keys.add(key)
            cofactors = COMPLETION_CERTIFICATES[key]
            assert len(cofactors) == len(gens)
            combo = sum(_poly(c) * g for c, g in zip(cofactors, gens))
            assert _zero_mod(combo - target, n), key
    assert seen_keys == set(COMPLETION_CERTIFICATES)


def test_groebner_dimension_and_products_for_prime_bases():
    rng = random.Random(5)
    checked = 0
    for entry in _quotient_entries():
        p = entry.spec.n
        if not sympy.isprime(p):
            continue
        syms = sympy.symbols(entry.spec.variables)
        gens = [_poly(g) for g in entry.generators]
        basis = sympy.groebner(gens, *syms, modulus=p, order="grevlex")
        lead_exps = [
            tuple(sympy.Poly(g, *syms, modulus=p).LM(order="grevlex").exponents)
            for g in basis.exprs
        ]
        bounds = []
        for axis in range(len(syms)):
            pure = [
                e[axis]
                for e in lead_exps
                if all(e[k] == 0 for k in range(len(syms)) if k != axis)
            ]
            assert pure, (entry.name, axis)
            bounds.append(min(pure))
        standard = 0
        for exps in itertools.product(*(range(b) for b in bounds)):
            divisible = any(
                all(exps[k] >= le[k] for k in range(len(syms)))
                for le in lead_exps
            )
            if not divisible:
                standard += 1
        assert p**standard == entry.spec.expected_order, entry.name
        table = catalog_ring(entry.name)
        for _ in range(10):
            i = rng.randrange(table.order)
            j = rng.randrange(table.order)
            k = table.mul[i][j]
            expr = (
                sympy.sympify(table.labels[i]) * sympy.sympify(table.labels[j])
                - sympy.sympify(table.labels[k])
            )
            assert basis.reduce(expr)[1] == 0, (entry.name, i, j)
        checked += 1
    assert checked == 18
