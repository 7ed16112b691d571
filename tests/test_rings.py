import pytest

from zdgenus import (
    InvalidSpec,
    build_ring,
    catalog_entries,
    catalog_ring,
    gf,
    is_local,
    iso_check,
    maximal_ideals,
    product,
    product_tables,
    quotient_algebra,
    spec_from_json,
    spec_to_json,
    units,
    zmod,
)
from zdgenus.rings import MAX_ORDER, validate_table, zero_divisors


def test_zmod_tables():
    t = build_ring(zmod(6))
    assert t.order == 6 and t.zero == 0 and t.one == 1
    assert int(t.add[4, 5]) == 3
    assert int(t.mul[4, 5]) == 2
    assert t.labels == ("0", "1", "2", "3", "4", "5")


def test_zmod_bounds():
    with pytest.raises(InvalidSpec):
        build_ring(zmod(65))
    with pytest.raises(InvalidSpec):
        build_ring(zmod(1))


def test_validate_table_passes_on_catalog(z12):
    assert validate_table(z12).ok


def test_gf_fields():
    for spec, order in [(gf(2, 2), 4), (gf(2, 3), 8), (gf(3, 2), 9)]:
        t = build_ring(spec)
        assert t.order == order
        us = units(t)
        assert len(us) == order - 1  # every nonzero element invertible


def test_units_z12(z12):
    assert sorted(units(z12)) == [1, 5, 7, 11]


def test_units_closed(z8):
    us = set(units(z8))
    assert us == {1, 3, 5, 7}
    for a in us:
        for b in us:
            assert int(z8.mul[a, b]) in us


def test_power_and_neg(z8):
    assert z8.power(2, 3) == 0
    assert z8.power(3, 2) == 1
    assert [z8.power(3, k) for k in range(9)] == [pow(3, k, 8)
                                                  for k in range(9)]
    assert z8.power(3, 10**18) == 1  # square and multiply, not a k-fold loop
    assert z8.neg(3) == 5
    assert z8.index_of("6") == 6


def test_quotient_algebra_f4():
    t = build_ring(gf(2, 2))
    a = t.index_of("a")
    # a^2 = a + 1 and a^3 = 1 in F_4
    assert int(t.mul[a, a]) == int(t.add[a, t.one])
    assert t.power(a, 3) == t.one


def test_quotient_algebra_expected_order_mismatch():
    from zdgenus import NonConfluentPresentation

    with pytest.raises(NonConfluentPresentation):
        build_ring(quotient_algebra(
            2, ("x",), [("x^2", "0")], "bad", expected_order=8))


def test_local_detection(z12):
    assert is_local(catalog_ring("Z_16"))
    assert is_local(catalog_ring("Z_4[x]/(x²)"))
    assert not is_local(catalog_ring("Z_6"))
    assert not is_local(z12)
    assert len(maximal_ideals(catalog_ring("Z_6"))) == 2
    assert len(maximal_ideals(z12)) == 2


def test_product_tables_layout():
    t = product_tables(build_ring(zmod(2)), build_ring(zmod(3)))
    assert t.order == 6
    assert t.labels[0] == "(0, 0)"
    assert t.zero == 0 and t.labels[t.one] == "(1, 1)"
    # high digit is the first factor
    assert t.labels[3] == "(1, 0)"


def test_product_tables_n_ary_matches_product_spec():
    factors = [build_ring(zmod(2)), build_ring(zmod(2)), build_ring(zmod(5))]
    t = product_tables(*factors)
    spec_built = build_ring(product(zmod(2), zmod(2), zmod(5)))
    assert t.name == spec_built.name == "Z_2×Z_2×Z_5"
    assert t.labels == spec_built.labels
    assert t.labels[1] == "(0, 0, 1)" and t.labels[5] == "(0, 1, 0)"
    assert (t.add == spec_built.add).all() and (t.mul == spec_built.mul).all()
    assert (t.zero, t.one) == (spec_built.zero, spec_built.one) == (0, 16)
    assert t.spec is None and spec_built.spec is not None


def test_units_are_sorted_indices(z12):
    assert units(z12) == [1, 5, 7, 11]
    assert all(type(u) is int for u in units(z12))


def test_gf_rejects_bad_parameters():
    for p, k in [(4, 1), (67, 1), (2, 7), (2, 100000), (2, 0), (2.0, 1)]:
        with pytest.raises(InvalidSpec):
            gf(p, k)


def test_quotient_algebra_rejects_non_int_expected_order():
    for order in ("4", True, 4.0, 0):
        with pytest.raises(InvalidSpec, match="expected_order"):
            quotient_algebra(2, ("x",), [("x^2", "0")], "q", order)
    assert build_ring(quotient_algebra(2, ("x",), [("x^2", "0")], "q",
                                       4)).order == 4


def test_product_spec_builder():
    t = build_ring(product(zmod(2), zmod(2), zmod(2)))
    assert t.order == 8
    assert len(units(t)) == 1


def test_product_order_cap():
    big = build_ring(zmod(32))
    with pytest.raises(InvalidSpec):
        product_tables(big, build_ring(zmod(3)))
    assert product_tables(big, build_ring(zmod(2))).order == MAX_ORDER


def test_iso_check_positive():
    z6 = catalog_ring("Z_6")
    t = product_tables(build_ring(zmod(2)), build_ring(zmod(3)))
    witness = iso_check(z6, t)
    assert witness is not None
    # the witness must be an additive and multiplicative bijection
    assert sorted(witness) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert witness[int(z6.add[a, b])] == int(
                t.add[witness[a], witness[b]])
            assert witness[int(z6.mul[a, b])] == int(
                t.mul[witness[a], witness[b]])


def test_iso_check_negative():
    assert iso_check(catalog_ring("Z_4"), catalog_ring("Z_2[x]/(x²)")) is None
    assert iso_check(catalog_ring("Z_9"), catalog_ring("Z_3[x]/(x²)")) is None
    assert iso_check(catalog_ring("Z_4"), catalog_ring("Z_6")) is None


def test_spec_json_round_trip():
    for spec in [zmod(12), gf(3, 2),
                 product(zmod(2), zmod(4)),
                 quotient_algebra(4, ("x",), [("x^2", "2"), ("x^3", "0"),
                                              ("2*x", "0")],
                                  "Z_4[x]/(x²-2,x³)", expected_order=8)]:
        back = spec_from_json(spec_to_json(spec))
        assert back == spec
        assert build_ring(back).order == build_ring(spec).order


def test_spec_json_rejects_garbage():
    with pytest.raises(InvalidSpec):
        spec_from_json("{not json")
    with pytest.raises(InvalidSpec):
        spec_from_json('{"kind": "mystery", "name": "?"}')


def test_zero_divisors_match_definition():
    assert zero_divisors(catalog_ring("Z_12")) == [2, 3, 4, 6, 8, 9, 10]
    assert zero_divisors(catalog_ring("Z_7")) == []
    for entry in catalog_entries():
        t = catalog_ring(entry.name)
        z = t.zero
        expected = [
            x for x in range(t.order)
            if x != z and any(int(t.mul[x, y]) == z
                              for y in range(t.order) if y != z)
        ]
        assert zero_divisors(t) == expected, entry.name
