import pytest

from zdgenus import (
    IdealSet,
    catalog_entries,
    catalog_ring,
    cyclic_ideal,
    enumerate_ideals,
    ideal_from_generators,
    is_local,
    is_prime,
    is_radical,
    iso_check,
    maximal_ideals,
    minimal_primes_over,
    product_tables,
    quotient,
    validate_ideal,
)


def test_enumerate_z16():
    t = catalog_ring("Z_16")
    ideals = enumerate_ideals(t)
    assert [(i.describe(), i.size) for i in ideals] == [
        ("(0)", 1), ("(8)", 2), ("(4)", 4), ("(2)", 8), ("(1)", 16)]


def test_enumerate_z12(z12):
    ideals = enumerate_ideals(z12)
    assert [(i.describe(), i.size) for i in ideals] == [
        ("(0)", 1), ("(6)", 2), ("(4)", 3), ("(3)", 4), ("(2)", 6), ("(1)", 12)]


def test_enumerate_counts():
    assert len(enumerate_ideals(catalog_ring("Z_6"))) == 4
    assert len(enumerate_ideals(catalog_ring("F_4"))) == 2


def test_cyclic_ideal(z12):
    assert cyclic_ideal(z12, 4).members() == [0, 4, 8]
    assert cyclic_ideal(z12, 5).size == 12  # unit generates everything


def test_validate_ideal(z12):
    assert validate_ideal(cyclic_ideal(z12, 4))
    assert not validate_ideal(IdealSet(z12, 0b10001))  # {0, 4}: not add-closed
    assert all(validate_ideal(i) for i in enumerate_ideals(z12))


def test_ideal_from_generators(z12):
    i = ideal_from_generators(z12, [4, 6])
    assert i.members() == [0, 2, 4, 6, 8, 10]


def test_quotient_z12_by_4(z12):
    q = quotient(z12, cyclic_ideal(z12, 4))
    assert q.table.order == 4
    assert iso_check(q.table, catalog_ring("Z_4")) is not None
    # the projection is a ring homomorphism onto coset indices
    for a in range(12):
        for b in range(12):
            assert q.projection[z12.add[a][b]] == \
                q.table.add[q.projection[a]][q.projection[b]]
            assert q.projection[z12.mul[a][b]] == \
                q.table.mul[q.projection[a]][q.projection[b]]


def test_quotient_coset_reps(z12):
    q = quotient(z12, cyclic_ideal(z12, 6))
    assert list(q.coset_reps) == [0, 1, 2, 3, 4, 5]


def test_prime_and_radical(z12):
    t = catalog_ring("Z_16")
    by_desc = {i.describe(): i for i in enumerate_ideals(t)}
    assert is_prime(by_desc["(2)"])
    assert not is_prime(by_desc["(4)"])
    assert not is_radical(by_desc["(4)"])  # 2^2 = 4 lies inside, 2 does not
    assert is_radical(by_desc["(2)"])
    six = cyclic_ideal(z12, 6)
    assert is_radical(six) and not is_prime(six)


def test_radical_zero_ideal():
    reduced = catalog_ring("Z_6")
    assert is_radical(IdealSet(reduced, 1 << reduced.zero))
    nonreduced = catalog_ring("Z_4")
    assert not is_radical(IdealSet(nonreduced, 1 << nonreduced.zero))


def test_minimal_primes_z6():
    t = catalog_ring("Z_6")
    primes = minimal_primes_over(IdealSet(t, 1 << t.zero))
    assert sorted(p.describe() for p in primes) == ["(2)", "(3)"]


def test_minimal_primes_requires_radical(z12):
    from zdgenus import NotRadical

    with pytest.raises(NotRadical):
        minimal_primes_over(cyclic_ideal(z12, 4))
    primes = minimal_primes_over(cyclic_ideal(z12, 6))
    assert sorted(p.describe() for p in primes) == ["(2)", "(3)"]


def test_minimal_primes_domain():
    t = catalog_ring("Z_7")
    primes = minimal_primes_over(IdealSet(t, 1 << t.zero))
    assert len(primes) == 1 and primes[0].is_zero()


# === Oracles for the ideal layer ============================================
#
# The reference below is the additive-closure code the ideal layer used
# before it read principal ideals off the multiplication table and built
# sums as one-step sumsets.  It is kept verbatim (as functions on masks) so
# the faster code is checked against it, not against itself.


def _ref_sum_closure(t, mask):
    while True:
        members = [i for i in range(t.order) if mask >> i & 1]
        new = mask
        for a in members:
            row = t.add[a]
            for b in members:
                new |= 1 << int(row[b])
        if new == mask:
            return mask
        mask = new


def _ref_cyclic(t, a):
    mask = 0
    for r in range(t.order):
        mask |= 1 << t.mul[r][a]
    return _ref_sum_closure(t, mask)


def _ref_enumerate(t):
    masks = {1 << t.zero}
    for a in range(t.order):
        masks.add(_ref_cyclic(t, a))
    while True:
        fresh = set()
        items = sorted(masks)
        for i, m1 in enumerate(items):
            for m2 in items[i + 1:]:
                u = m1 | m2
                if u not in masks:
                    u = _ref_sum_closure(t, u)
                    if u not in masks:
                        fresh.add(u)
        if not fresh:
            break
        masks |= fresh
    return sorted(masks, key=lambda m: (m.bit_count(), tuple(
        i for i in range(t.order) if m >> i & 1)))


def _ref_from_generators(t, elements):
    mask = 1 << t.zero
    for a in elements:
        mask |= _ref_cyclic(t, a)
    return _ref_sum_closure(t, mask)


def _ref_describe(t, mask):
    if mask == 1 << t.zero:
        return "(0)"
    if mask.bit_count() == t.order:
        return "(1)"
    cur = 1 << t.zero
    gens = []
    for e in range(t.order):
        if not mask >> e & 1 or cur >> e & 1:
            continue
        gens.append(e)
        cur = _ref_sum_closure(t, cur | _ref_cyclic(t, e))
        if cur == mask:
            break
    return "(" + ", ".join(t.labels[g] for g in gens) + ")"


def _catalog_tables():
    return [catalog_ring(e.name) for e in catalog_entries()]


def test_enumerate_is_every_ideal_of_small_rings():
    """Exhaustive: every subset containing 0 that passes validate_ideal."""
    for t in _catalog_tables():
        if t.order > 12:
            continue
        others = [e for e in range(t.order) if e != t.zero]
        every = set()
        for bits in range(1 << len(others)):
            mask = 1 << t.zero
            for k, e in enumerate(others):
                if bits >> k & 1:
                    mask |= 1 << e
            if validate_ideal(IdealSet(t, mask)):
                every.add(mask)
        assert {i.mask for i in enumerate_ideals(t)} == every, t.name


def test_ideals_match_closure_reference():
    for t in _catalog_tables():
        ideals = enumerate_ideals(t)
        ref = _ref_enumerate(t)
        assert [i.mask for i in ideals] == ref, t.name
        assert [i.describe() for i in ideals] == [
            _ref_describe(t, m) for m in ref], t.name
        for a in range(t.order):
            assert cyclic_ideal(t, a).mask == _ref_cyclic(t, a)
        step = max(1, t.order // 4)
        for a in range(0, t.order, step):
            for b in range(1, t.order, step):
                got = ideal_from_generators(t, [a, b])
                want = _ref_from_generators(t, [a, b])
                assert got.mask == want, (t.name, a, b)
                assert got.describe() == _ref_describe(t, want)


def test_is_local_is_one_maximal_ideal():
    tables = _catalog_tables()
    factors = [t for t, e in zip(tables, catalog_entries())
               if "product" not in e.tags]
    for a in factors:
        for b in factors:
            if a.order * b.order <= 64:
                tables.append(product_tables(a, b))
    assert len(tables) > 600
    for t in tables:
        assert is_local(t) == (len(maximal_ideals(t)) == 1), t.name
