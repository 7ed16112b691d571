import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from zdgenus import rings
from zdgenus.errors import NonConfluentPresentation, ZdgenusError
from zdgenus.rings import (
    MAX_ORDER,
    RingSpec,
    RingTable,
    ValidationReport,
    _check_presentation,
    _fingerprint,
    _span,
    validate_table,
    zero_divisors,
)


def test_zmod_tables():
    t = build_ring(zmod(6))
    assert t.order == 6 and t.zero == 0 and t.one == 1
    assert t.add[4][5] == 3
    assert t.mul[4][5] == 2
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
            assert z8.mul[a][b] in us


def test_power_and_neg(z8):
    assert z8.power(2, 3) == 0
    assert z8.power(3, 2) == 1
    assert [z8.power(3, k) for k in range(9)] == [pow(3, k, 8)
                                                  for k in range(9)]
    assert z8.power(3, 10**18) == 1  # square and multiply, not a k-fold loop
    assert z8.neg(3) == 5
    assert z8.index_of("6") == 6


def test_index_of_ignores_spaces_and_refuses_unknown_labels():
    t = product_tables(build_ring(zmod(2)), build_ring(zmod(3)))
    assert t.index_of("(1,0)") == t.index_of("(1, 0)")
    assert t.labels[t.index_of("(1,0)")] == "(1, 0)"
    with pytest.raises(InvalidSpec, match="no element labeled"):
        t.index_of("(2, 0)")


def test_index_of_takes_the_first_of_labels_equal_up_to_spaces():
    # Z_2 with labels that differ only in their spaces
    t = RingTable(2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1,
                  ("a b", "ab"), "clash")
    assert t.index_of("ab") == 0
    assert t.index_of("a b") == 0
    assert t.index_of(" a  b ") == 0


def test_quotient_algebra_f4():
    t = build_ring(gf(2, 2))
    a = t.index_of("a")
    # a^2 = a + 1 and a^3 = 1 in F_4
    assert t.mul[a][a] == t.add[a][t.one]
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
    assert t.add == spec_built.add and t.mul == spec_built.mul
    assert (t.zero, t.one) == (spec_built.zero, spec_built.one) == (0, 16)


def test_units_are_sorted_indices(z12):
    assert units(z12) == [1, 5, 7, 11]
    assert all(type(u) is int for u in units(z12))


def test_gf_rejects_bad_parameters():
    for p, k in [(4, 1), (67, 1), (2, 7), (2, 100000), (2, 0), (2.0, 1),
                 (3, True), (True, 1)]:
        with pytest.raises(InvalidSpec):
            gf(p, k)


def test_gf_is_its_quotient_presentation():
    assert gf(3, 1) == zmod(3, "F_3")
    for (p, k), relations in rings._GF_RELATIONS.items():
        spec = gf(p, k)
        assert spec == quotient_algebra(p, ("a",), relations, f"F_{p**k}",
                                        p**k)
        assert '"kind": "quotient"' in spec_to_json(spec)
        assert spec_from_json(spec_to_json(spec)) == spec
    # an unrecorded field is refused when its spec is made, not built
    with pytest.raises(InvalidSpec, match="no irreducible polynomial"):
        gf(2, 4)
    with pytest.raises(InvalidSpec, match="unknown ring kind"):
        build_ring(RingSpec(kind="gf", name="F_4", expected_order=4))


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


def test_quotient_order_cap():
    # x^7 = 0 over Z_2 leaves the 7 monomials 1, x, ..., x^6: order 128
    with pytest.raises(InvalidSpec, match="exceeds the supported maximum"):
        build_ring(quotient_algebra(2, ("x",), [("x^7", "0")], "big"))


def test_iso_check_positive():
    z6 = catalog_ring("Z_6")
    t = product_tables(build_ring(zmod(2)), build_ring(zmod(3)))
    witness = iso_check(z6, t)
    assert witness is not None
    # the witness must be an additive and multiplicative bijection
    assert sorted(witness) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert witness[z6.add[a][b]] == t.add[witness[a]][witness[b]]
            assert witness[z6.mul[a][b]] == t.mul[witness[a]][witness[b]]


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
    # JSON true is not the integer 1
    with pytest.raises(InvalidSpec):
        spec_from_json('{"kind": "gf", "p": 3, "k": true}')


def test_zero_divisors_match_definition():
    assert zero_divisors(catalog_ring("Z_12")) == [2, 3, 4, 6, 8, 9, 10]
    assert zero_divisors(catalog_ring("Z_7")) == []
    for entry in catalog_entries():
        t = catalog_ring(entry.name)
        z = t.zero
        expected = [
            x for x in range(t.order)
            if x != z and any(t.mul[x][y] == z
                              for y in range(t.order) if y != z)
        ]
        assert zero_divisors(t) == expected, entry.name


# === Oracle for validate_table ==============================================
#
# The reference below is the brute-force numpy check validate_table used
# before it ran the three-variable laws over additive generators only.  It
# is kept verbatim, but for reading bytes rows into arrays, so the reduced
# check is tested against it and not against itself.


def _ref_validate(t):
    report = ValidationReport()
    n = t.order
    A, M = (np.array([list(r) for r in op], dtype=np.intp)
            for op in (t.add, t.mul))
    idx = np.arange(n)

    def witness(mask3) -> tuple:
        w = np.argwhere(mask3)[0]
        return tuple(int(x) for x in w)

    if n < 2 or t.zero == t.one:
        report.violations.append(("zero-ne-one", (t.zero, t.one)))
    if not np.array_equal(A, A.T):
        i, j = np.argwhere(A != A.T)[0]
        report.violations.append(("add-commutative", (int(i), int(j))))
    if not np.array_equal(M, M.T):
        i, j = np.argwhere(M != M.T)[0]
        report.violations.append(("mul-commutative", (int(i), int(j))))

    la = A[A, :]
    ra = A[idx[:, None, None], A[None, :, :]]
    if not np.array_equal(la, ra):
        report.violations.append(("add-associative", witness(la != ra)))
    lm = M[M, :]
    rm = M[idx[:, None, None], M[None, :, :]]
    if not np.array_equal(lm, rm):
        report.violations.append(("mul-associative", witness(lm != rm)))

    ld = M[idx[:, None, None], A[None, :, :]]
    rd = A[M[:, :, None], M[:, None, :]]
    if not np.array_equal(ld, rd):
        report.violations.append(("distributive", witness(ld != rd)))

    if not np.array_equal(A[t.zero], idx):
        bad = int(np.argwhere(A[t.zero] != idx)[0][0])
        report.violations.append(("zero-identity", (t.zero, bad)))
    if not np.array_equal(M[t.one], idx):
        bad = int(np.argwhere(M[t.one] != idx)[0][0])
        report.violations.append(("one-identity", (t.one, bad)))
    has_neg = (A == t.zero).any(axis=1)
    if not has_neg.all():
        bad = int(np.argwhere(~has_neg)[0][0])
        report.violations.append(("additive-inverse", (bad,)))
    return report


def _table(add, mul, zero=0, one=1):
    n = len(add)
    return RingTable(n, tuple(map(tuple, add)), tuple(map(tuple, mul)),
                     zero, one, tuple(str(i) for i in range(n)))


def _names(report):
    return {name for name, _ in report.violations}


# whether (a, b, c) breaks each three-variable law in t
_BREAKS = {
    "add-associative": lambda A, M, a, b, c: A[A[a][b]][c] != A[a][A[b][c]],
    "distributive": lambda A, M, a, b, c: M[a][A[b][c]] != A[M[a][b]][M[a][c]],
    "mul-associative": lambda A, M, a, b, c: M[M[a][b]][c] != M[a][M[b][c]],
}

_SMALL_RINGS = [e.name for e in catalog_entries()
                if catalog_ring(e.name).order <= 16]


@settings(max_examples=300)
@given(st.sampled_from(_SMALL_RINGS), st.sampled_from(["add", "mul"]),
       st.booleans(), st.data())
def test_validate_table_matches_brute_force_on_corruptions(name, op, mirror,
                                                           data):
    t = catalog_ring(name)
    idx = st.integers(min_value=0, max_value=t.order - 1)
    a, b, v = data.draw(idx), data.draw(idx), data.draw(idx)
    rows = {"add": [list(r) for r in t.add], "mul": [list(r) for r in t.mul]}
    rows[op][a][b] = v
    if mirror:  # keeps the table commutative
        rows[op][b][a] = v
    bad = _table(rows["add"], rows["mul"], t.zero, t.one)
    _assert_agrees(bad)


def _assert_agrees(t):
    new, ref = validate_table(t), _ref_validate(t)
    assert bool(new) == bool(ref)
    assert _names(new) <= _names(ref)
    # each three-variable law is decided exactly while the ones before hold
    for law in _BREAKS:
        assert (law in _names(new)) == (law in _names(ref))
        if law in _names(ref):
            break
    for law, w in new.violations:
        if law in _BREAKS:
            assert _BREAKS[law](t.add, t.mul, *w)


def test_validate_table_matches_brute_force_on_f2_algebras():
    """Every commutative F_2-algebra on 1, x, y: bilinear, so + is
    associative and · distributes, and ·-associativity needs every
    additive generator as c."""
    for x2, xy, y2 in itertools.product(range(8), repeat=3):
        _assert_agrees(_table(*_bilinear_f2(
            [[1, 2, 4], [2, x2, xy], [4, xy, y2]])))


def _z3(**changes):
    add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    mul = [[a * b % 3 for b in range(3)] for a in range(3)]
    for key, v in changes.items():
        op, a, b = key.split("_")
        (add if op == "add" else mul)[int(a)][int(b)] = v
    return add, mul


def _bilinear_f2(products):
    """The F_2-bilinear product on bit vectors with the given products of
    basis vectors, and XOR as addition."""
    n = 1 << len(products)
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for i, row in enumerate(products):
                for j, p in enumerate(row):
                    if a >> i & 1 and b >> j & 1:
                        mul[a][b] ^= p
    return [[a ^ b for b in range(n)] for a in range(n)], mul


@pytest.mark.parametrize("law, table", [
    ("zero-ne-one", lambda: _table(*_z3(), one=0)),
    ("add-commutative", lambda: _table(*_z3(add_0_1=2))),
    ("mul-commutative", lambda: _table(*_z3(mul_1_2=1))),
    ("add-associative", lambda: _table(*_z3(add_1_1=1))),
    ("distributive", lambda: _table(*_z3(mul_2_2=2))),
    # F_2-span of 1, x, y with x^2 = y, xy = x, y^2 = 0: commutative and
    # distributive, but (xx)y = 0 while x(xy) = y
    ("mul-associative", lambda: _table(*_bilinear_f2(
        [[1, 2, 4], [2, 4, 2], [4, 2, 0]]))),
    ("zero-identity", lambda: _table(
        [[(a + b + 1) % 3 for b in range(3)] for a in range(3)], _z3()[1])),
    ("one-identity", lambda: _table(*_z3(), one=2)),
    ("additive-inverse", lambda: _table(
        [[max(a, b) for b in range(3)] for a in range(3)], _z3()[1])),
], ids=lambda x: x if isinstance(x, str) else "")
def test_validate_table_names_each_law(law, table):
    t = table()
    names = _names(validate_table(t))
    assert law in names
    assert names <= _names(_ref_validate(t))


# === Oracle for iso_check ===================================================
#
# The reference below is the propagate-and-undo search iso_check used
# before it extended generator images along span recipes, kept verbatim,
# so the two are tested against each other on the same inputs.


def _ref_iso_check(a: RingTable, b: RingTable) -> list[int] | None:
    """Search for a ring isomorphism a -> b.

    Returns the witness index map (image of each element of ``a``) or None.
    Pruning: element fingerprints (additive order, nilpotency index, unit
    flag, annihilator size, idempotency) must match; partial maps are closed
    under both operations before branching.
    """
    if a.order != b.order:
        return None
    ua, ub = set(units(a)), set(units(b))
    fa, fb = _fingerprint(a, ua), _fingerprint(b, ub)
    if sorted(fa) != sorted(fb):
        return None

    n = a.order
    fwd = [-1] * n
    used = [False] * n
    trail: list[int] = []

    def assign(x: int, y: int) -> bool:
        """Map x -> y and propagate closure; record trail for undo."""
        if fwd[x] == y:
            return True
        if fwd[x] != -1 or used[y] or fa[x] != fb[y]:
            return False
        fwd[x] = y
        used[y] = True
        trail.append(x)
        work = [x]
        while work:
            u = work.pop()
            v = fwd[u]
            for w in range(n):
                if fwd[w] == -1:
                    continue
                for op_a, op_b in ((a.add, b.add), (a.mul, b.mul)):
                    s = op_a[u][w]
                    tgt = op_b[v][fwd[w]]
                    if fwd[s] == tgt:
                        continue
                    if fwd[s] != -1 or used[tgt] or fa[s] != fb[tgt]:
                        return False
                    fwd[s] = tgt
                    used[tgt] = True
                    trail.append(s)
                    work.append(s)
        return True

    def undo(mark: int):
        while len(trail) > mark:
            x = trail.pop()
            used[fwd[x]] = False
            fwd[x] = -1

    def solve() -> bool:
        best, cands = -1, None
        for x in range(n):
            if fwd[x] != -1:
                continue
            cx = [y for y in range(n) if not used[y] and fb[y] == fa[x]]
            if cands is None or len(cx) < len(cands):
                best, cands = x, cx
                if len(cx) <= 1:
                    break
        if cands is None:
            return True
        for y in cands:
            mark = len(trail)
            if assign(best, y) and solve():
                return True
            undo(mark)
        return False

    mark = len(trail)
    if not assign(a.zero, b.zero) or not assign(a.one, b.one):
        undo(mark)
        return None
    if solve():
        return list(fwd)
    undo(mark)
    return None


def _ref_closure(t, images):
    """The fixpoint closure _check_presentation used before _span."""
    have = {t.zero, t.one, *images}
    while True:
        grown = {op[a][b] for op in (t.add, t.mul) for a in have for b in have}
        if grown <= have:
            break
        have |= grown
    return have


def _assert_ring_isomorphism(a, b, w):
    assert sorted(w) == list(range(a.order))
    assert w[a.zero] == b.zero and w[a.one] == b.one
    for x in range(a.order):
        for y in range(a.order):
            assert w[a.add[x][y]] == b.add[w[x]][w[y]]
            assert w[a.mul[x][y]] == b.mul[w[x]][w[y]]


def _assert_iso_agrees(a, b):
    w = iso_check(a, b)
    assert (w is None) == (_ref_iso_check(a, b) is None), (a.name, b.name)
    if w is not None:
        _assert_ring_isomorphism(a, b, w)


def _relabel(t, perm):
    """t with element x renamed perm[x]."""
    inv = sorted(range(t.order), key=perm.__getitem__)
    return RingTable(
        t.order,
        tuple(tuple(perm[t.add[x][y]] for y in inv) for x in inv),
        tuple(tuple(perm[t.mul[x][y]] for y in inv) for x in inv),
        perm[t.zero], perm[t.one], tuple(t.labels[x] for x in inv),
        name=f"{t.name} relabelled")


_CATALOG = [e.name for e in catalog_entries()]
_PRODUCT_PAIRS = [
    (a, b) for i, a in enumerate(_CATALOG) for b in _CATALOG[i:]
    if catalog_ring(a).order * catalog_ring(b).order <= MAX_ORDER]


def _product(pair):
    return product_tables(*map(catalog_ring, pair))


def test_iso_check_matches_reference_on_same_order_catalog_pairs():
    for a, b in itertools.product(_CATALOG, repeat=2):
        if catalog_ring(a).order == catalog_ring(b).order:
            _assert_iso_agrees(catalog_ring(a), catalog_ring(b))


def test_iso_check_fingerprints_each_table_once(monkeypatch):
    # fresh tables, so that no earlier call has fingerprinted them
    tables = [build_ring(e.spec) for e in catalog_entries()]
    counts = {}

    def counting(t, unit_set):
        counts[id(t)] = counts.get(id(t), 0) + 1
        return _fingerprint(t, unit_set)

    monkeypatch.setattr(rings, "_fingerprint", counting)
    pairs = 0
    for a, b in itertools.product(tables, repeat=2):
        if a.order == b.order:
            iso_check(a, b)
            pairs += 1
    assert pairs == 904
    assert len(counts) == len(tables)
    assert set(counts.values()) == {1}


def test_iso_check_matches_reference_on_products_against_catalog():
    for pair in _PRODUCT_PAIRS:
        t = _product(pair)
        for name in _CATALOG:
            if catalog_ring(name).order == t.order:
                _assert_iso_agrees(t, catalog_ring(name))


@settings(max_examples=100)
@given(st.one_of(st.sampled_from(_CATALOG).map(catalog_ring),
                 st.sampled_from(_PRODUCT_PAIRS).map(_product)), st.data())
def test_iso_check_matches_reference_on_relabellings(t, data):
    perm = data.draw(st.permutations(range(t.order)))
    u = _relabel(t, perm)
    assert validate_table(u).ok
    _assert_iso_agrees(t, u)
    _assert_iso_agrees(u, t)


@settings(max_examples=200)
@given(st.sampled_from(_CATALOG).map(catalog_ring), st.data())
def test_span_matches_fixpoint_closure(t, data):
    seeds = data.draw(st.lists(st.integers(0, t.order - 1), max_size=3))
    span = _span(t, seeds)
    assert set(span) == _ref_closure(t, seeds)
    position = {x: k for k, x in enumerate(span)}
    for x, recipe in span.items():
        if recipe is None:
            assert x in (t.zero, t.one, *seeds)
            continue
        op, u, v = recipe
        assert op is t.add or op is t.mul
        assert op[u][v] == x
        assert position[u] < position[x] and position[v] < position[x]


def test_presentation_refused_when_variables_do_not_generate():
    z2 = build_ring(zmod(2))
    t = product_tables(z2, z2)
    spec = quotient_algebra(2, ("x",), [("x^2", "x")], "Z_2[x]/(x²-x)")
    with pytest.raises(NonConfluentPresentation,
                       match="the variables do not generate"):
        _check_presentation(t, spec, [t.index_of("(1, 1)")])
    _check_presentation(t, spec, [t.index_of("(1, 0)")])


def test_iso_check_refuses_a_map_respecting_only_multiplication():
    # F_8's multiplication with its addition conjugated by the transposition
    # of 3 and 4: no ring, but the identity respects ·
    t = catalog_ring("F_8")
    swap = [0, 1, 2, 4, 3, 5, 6, 7]
    add = tuple(tuple(swap[t.add[swap[x]][swap[y]]] for y in range(8))
                for x in range(8))
    u = RingTable(8, add, t.mul, t.zero, t.one, t.labels)
    assert not validate_table(u).ok
    assert iso_check(t, u) is None and _ref_iso_check(t, u) is None


def test_an_element_without_additive_order_is_a_package_error():
    # 1 + 1 = 1, so repeated addition of 1 never returns to 0
    u = RingTable(2, ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1, ("0", "1"))
    with pytest.raises(ZdgenusError, match="'1' has no additive order"):
        rings.additive_order(u, 1)
    with pytest.raises(ZdgenusError, match="no additive order"):
        iso_check(u, u)


def test_ring_tables_compare_by_identity_and_take_weak_references():
    """Equal tables stay distinct objects: ideals, quotients and the
    fingerprint memo all key on the table itself."""
    t = catalog_ring("Z_6")
    u = RingTable(t.order, t.add, t.mul, t.zero, t.one, t.labels, t.name)
    assert t == t and t != u and len({t, u}) == 2
    assert weakref.ref(u)() is u
    assert rings._fingerprints(u) == rings._fingerprints(t)
    assert u in rings._FINGERPRINTS
