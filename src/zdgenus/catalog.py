"""Named ring presentations used by the verifier and the CLI.

Every entry pairs a display name with a buildable RingSpec.  Quotient
presentations store their rewrite systems in completed form: where a listed
ideal generator is not itself a valid rewrite rule (non-unit leading
coefficient), the extra rules carry torsion consequences of the ideal.
Every quotient entry, the fields F_4, F_8 and F_9 included, keeps its
original generators verbatim so tests can certify the completion against
them.

Each tag names a property that every entry carrying it has:
  planar-local     local rings whose zero-divisor graph is planar
  genus-one-local  local rings whose zero-divisor graph has genus one
  two-max          rings with exactly two maximal ideals and planar graph
  zmod             the rings Z_n
  field            finite fields
  product          direct products
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidSpec
from .ideals import IdealSet, enumerate_ideals
from .rings import (RingSpec, RingTable, _shared_table, gf, is_prime_integer,
                    product, quotient_algebra, zmod)


class CatalogEntry(NamedTuple):
    name: str
    spec: RingSpec
    generators: tuple[str, ...]
    tags: frozenset[str]


def _q(name, n, variables, relations, generators, order, tags):
    spec = quotient_algebra(n, variables, relations, name, expected_order=order)
    return CatalogEntry(name, spec, tuple(generators), frozenset(tags))


def _p(factors, tags):
    spec = product(*factors)
    return CatalogEntry(spec.name, spec, (), frozenset(tags | {"product"}))


_PLANAR_ZMOD = {4, 8, 9, 16, 25, 27}
_GENUS_ONE_ZMOD = {32, 49}


def _build_entries() -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []

    # Z_n sweep
    for n in list(range(2, 33)) + [49]:
        tags = {"zmod"}
        if is_prime_integer(n):
            tags.add("field")
        if n in _PLANAR_ZMOD:
            tags.add("planar-local")
        if n in _GENUS_ONE_ZMOD:
            tags.add("genus-one-local")
        entries.append(CatalogEntry(f"Z_{n}", zmod(n), (), frozenset(tags)))

    # small fields beyond the primes, with their irreducible polynomials
    for p, k, generator in [(2, 2, "a^2 + a + 1"), (2, 3, "a^3 + a + 1"),
                            (3, 2, "a^2 + 2*a + 2")]:
        spec = gf(p, k)
        entries.append(CatalogEntry(spec.name, spec, (generator,),
                                    frozenset({"field"})))

    pl = {"planar-local"}
    g1 = {"genus-one-local"}

    # local quotient presentations with planar zero-divisor graphs
    entries += [
        _q("Z_2[x]/(x²)", 2, ("x",), [("x^2", "0")], ["x^2"], 4, pl),
        _q("Z_2[x]/(x³)", 2, ("x",), [("x^3", "0")], ["x^3"], 8, pl),
        _q("Z_2[x]/(x⁴)", 2, ("x",), [("x^4", "0")], ["x^4"], 16, pl),
        _q("Z_2[x,y]/(x²,xy,y²)", 2, ("x", "y"),
           [("x^2", "0"), ("x*y", "0"), ("y^2", "0")],
           ["x^2", "x*y", "y^2"], 8, pl),
        _q("Z_2[x,y]/(x²,y²)", 2, ("x", "y"),
           [("x^2", "0"), ("y^2", "0")], ["x^2", "y^2"], 16, pl),
        _q("Z_2[x,y]/(x³,xy,y²-x²)", 2, ("y", "x"),
           [("x^3", "0"), ("x*y", "0"), ("y^2", "x^2")],
           ["x^3", "x*y", "y^2 - x^2"], 16, pl),
        _q("F_4[x]/(x²)", 2, ("a", "x"),
           [("a^2", "a + 1"), ("x^2", "0")],
           ["a^2 + a + 1", "x^2"], 16, pl),
        _q("Z_3[x]/(x²)", 3, ("x",), [("x^2", "0")], ["x^2"], 9, pl),
        _q("Z_3[x]/(x³)", 3, ("x",), [("x^3", "0")], ["x^3"], 27, pl),
        _q("Z_4[x]/(x²)", 4, ("x",), [("x^2", "0")], ["x^2"], 16, pl),
        _q("Z_4[x]/(x²+x+1)", 4, ("x",), [("x^2", "3*x + 3")],
           ["x^2 + x + 1"], 16, pl),
        _q("Z_4[x]/(2x,x²)", 4, ("x",), [("2*x", "0"), ("x^2", "0")],
           ["2*x", "x^2"], 8, pl),
        _q("Z_4[x]/(x²-2,x⁴)", 4, ("x",), [("x^2", "2"), ("x^4", "0")],
           ["x^2 - 2", "x^4"], 16, pl),
        _q("Z_4[x]/(x³-2,x⁴)", 4, ("x",),
           [("x^3", "2"), ("x^4", "0"), ("2*x", "0")],
           ["x^3 - 2", "x^4"], 16, pl),
        _q("Z_4[x]/(x²-2,x³)", 4, ("x",),
           [("x^2", "2"), ("x^3", "0"), ("2*x", "0")],
           ["x^2 - 2", "x^3"], 8, pl),
        _q("Z_4[x]/(x³,x²-2x)", 4, ("x",), [("x^3", "0"), ("x^2", "2*x")],
           ["x^3", "x^2 - 2*x"], 16, pl),
        _q("Z_4[x]/(x³+x²-2,x⁴)", 4, ("x",),
           [("x^2", "2*x + 2"), ("x^4", "0")],
           ["x^3 + x^2 - 2", "x^4"], 16, pl),
        _q("Z_4[x,y]/(x²,y²,xy-2)", 4, ("x", "y"),
           [("x^2", "0"), ("y^2", "0"), ("x*y", "2"),
            ("2*x", "0"), ("2*y", "0")],
           ["x^2", "y^2", "x*y - 2"], 16, pl),
        _q("Z_4[x,y]/(x³,x²-2,xy,y²-2)", 4, ("x", "y"),
           [("x^3", "0"), ("x^2", "2"), ("x*y", "0"), ("y^2", "2"),
            ("2*x", "0"), ("2*y", "0")],
           ["x^3", "x^2 - 2", "x*y", "y^2 - 2"], 16, pl),
        _q("Z_5[x]/(x²)", 5, ("x",), [("x^2", "0")], ["x^2"], 25, pl),
        _q("Z_8[x]/(x²-4,2x)", 8, ("x",), [("x^2", "4"), ("2*x", "0")],
           ["x^2 - 4", "2*x"], 16, pl),
        _q("Z_9[x]/(x²-3,x³)", 9, ("x",),
           [("x^2", "3"), ("x^3", "0"), ("3*x", "0")],
           ["x^2 - 3", "x^3"], 27, pl),
        _q("Z_9[x]/(x²+3,x³)", 9, ("x",),
           [("x^2", "6"), ("x^3", "0"), ("3*x", "0")],
           ["x^2 + 3", "x^3"], 27, pl),
    ]

    # local quotient presentations with genus-one zero-divisor graphs
    entries += [
        _q("Z_2[x]/(x⁵)", 2, ("x",), [("x^5", "0")], ["x^5"], 32, g1),
        _q("F_8[x]/(x²)", 2, ("a", "x"),
           [("a^3", "a + 1"), ("x^2", "0")],
           ["a^3 + a + 1", "x^2"], 64, g1),
        _q("Z_2[x,y]/(x³,xy,y²)", 2, ("x", "y"),
           [("x^3", "0"), ("x*y", "0"), ("y^2", "0")],
           ["x^3", "x*y", "y^2"], 16, g1),
        _q("Z_2[x,y,z]/(x,y,z)²", 2, ("x", "y", "z"),
           [("x^2", "0"), ("x*y", "0"), ("x*z", "0"),
            ("y^2", "0"), ("y*z", "0"), ("z^2", "0")],
           ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 16, g1),
        _q("Z_4[x]/(x³+x+1)", 4, ("x",), [("x^3", "3*x + 3")],
           ["x^3 + x + 1"], 64, g1),
        _q("Z_4[x]/(x³-x+1)", 4, ("x",), [("x^3", "x + 3")],
           ["x^3 - x + 1"], 64, g1),
        _q("Z_4[x]/(x³-2,x⁵)", 4, ("x",),
           [("x^3", "2"), ("x^5", "0"), ("2*x^2", "0")],
           ["x^3 - 2", "x^5"], 32, g1),
        _q("Z_4[x]/(x⁴-2,x⁵)", 4, ("x",),
           [("x^4", "2"), ("x^5", "0"), ("2*x", "0")],
           ["x^4 - 2", "x^5"], 32, g1),
        _q("Z_4[x]/(x⁴+x³-2,x⁵)", 4, ("x",),
           [("x^3", "2*x + 2"), ("x^5", "0"), ("2*x^2", "0")],
           ["x^4 + x^3 - 2", "x^5"], 32, g1),
        _q("Z_4[x]/(x³,2x)", 4, ("x",), [("x^3", "0"), ("2*x", "0")],
           ["x^3", "2*x"], 16, g1),
        _q("Z_4[x,y]/(x³,x²-2,xy,y²)", 4, ("x", "y"),
           [("x^3", "0"), ("x^2", "2"), ("x*y", "0"), ("y^2", "0"),
            ("2*x", "0"), ("2*y", "0")],
           ["x^3", "x^2 - 2", "x*y", "y^2"], 16, g1),
        _q("Z_4[x,y]/(2x,2y,x²,xy,y²)", 4, ("x", "y"),
           [("2*x", "0"), ("2*y", "0"), ("x^2", "0"), ("x*y", "0"),
            ("y^2", "0")],
           ["2*x", "2*y", "x^2", "x*y", "y^2"], 16, g1),
        _q("Z_7[x]/(x²)", 7, ("x",), [("x^2", "0")], ["x^2"], 49, g1),
        _q("Z_8[x]/(x²,2x)", 8, ("x",), [("x^2", "0"), ("2*x", "0")],
           ["x^2", "2*x"], 16, g1),
        _q("Z_8[x]/(x²-2,x⁵)", 8, ("x",),
           [("x^2", "2"), ("x^5", "0"), ("4*x", "0")],
           ["x^2 - 2", "x^5"], 32, g1),
        _q("Z_8[x]/(3x²-2,x⁵)", 8, ("x",),
           [("3*x^2", "2"), ("x^5", "0"), ("4*x", "0")],
           ["3*x^2 - 2", "x^5"], 32, g1),
    ]

    # rings with exactly two maximal ideals and planar graphs at small
    # ideals; each factor is the spec of the entry of its name above
    tm = {"two-max"}
    spec = {e.name: e.spec for e in entries}
    for q in ["Z_2", "Z_3", "F_4", "Z_5", "Z_7", "F_8", "F_9"]:
        for base in ("Z_2", "Z_3"):
            pair = sorted([spec[base], spec[q]],
                          key=lambda s: (s.expected_order, s.name))
            entries.append(_p(pair, tm))
    for names in [("Z_2", "Z_9"), ("Z_2", "Z_3[x]/(x²)"), ("Z_2", "Z_4"),
                  ("Z_2", "Z_2[x]/(x²)"), ("Z_2", "Z_2[x]/(x³)"),
                  ("Z_2", "Z_4[x]/(x²-2,x³)"), ("Z_2", "Z_8"),
                  ("Z_3", "Z_9"), ("Z_3", "Z_3[x]/(x²)"), ("Z_3", "Z_4"),
                  ("Z_3", "Z_2[x]/(x²)")]:
        entries.append(_p([spec[n] for n in names], tm))
    # products of three fields, with three maximal ideals
    for names in [("Z_2", "Z_2", "Z_2"), ("Z_2", "Z_2", "Z_3")]:
        entries.append(_p([spec[n] for n in names], set()))

    # Z_2×Z_3 is listed twice, as equal entries
    return tuple({e.name: e for e in entries}.values())


@lru_cache(maxsize=1)
def catalog_entries() -> tuple[CatalogEntry, ...]:
    return _build_entries()


_SUPERSCRIPTS = str.maketrans(
    {"²": "^2", "³": "^3", "⁴": "^4", "⁵": "^5", "×": "x"}
)


def _normalize(name: str) -> str:
    return name.translate(_SUPERSCRIPTS).replace(" ", "").casefold()


@lru_cache(maxsize=1)
def _name_index() -> dict[str, CatalogEntry]:
    return {_normalize(e.name): e for e in catalog_entries()}


def find_catalog(name: str) -> CatalogEntry:
    key = _normalize(name)
    index = _name_index()
    if key not in index:
        raise InvalidSpec(f"no catalog ring named {name!r}")
    return index[key]


@lru_cache(maxsize=None)
def catalog_ring(name: str) -> RingTable:
    return _shared_table(find_catalog(name).spec)


def catalog_pairs(max_order: int) -> Iterator[tuple[str, RingTable, IdealSet]]:
    """Every catalog ring of order at most max_order with each of its proper
    nonzero ideals, in catalog order and then ideal enumeration order."""
    for e in catalog_entries():
        table = catalog_ring(e.name)
        if table.order > max_order:
            continue
        for ideal in enumerate_ideals(table):
            if not ideal.is_whole() and ideal.size > 1:
                yield e.name, table, ideal
