"""Ideal enumeration, quotient rings, and prime/radical structure.

Ideals of a finite commutative ring are represented as bitsets over element
indices.  Enumeration closes the set of principal ideals under pairwise
ideal sums, which reaches every ideal since each is a finite sum of
principal ones.  All decision procedures are exhaustive; orders are <= 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRadical, WholeRingIdeal, ZdgenusError
from .rings import RingTable


# === IdealSet ===============================================================


@dataclass(eq=False)
class IdealSet:
    """A subset of ring-element indices, closed as an ideal."""

    ring: RingTable
    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> list[int]:
        return [i for i in range(self.ring.order) if self.mask >> i & 1]

    def contains(self, a: int) -> bool:
        return bool(self.mask >> int(a) & 1)

    def labels(self) -> list[str]:
        return [self.ring.labels[i] for i in self.members()]

    def is_zero(self) -> bool:
        return self.mask == 1 << self.ring.zero

    def is_whole(self) -> bool:
        return self.size == self.ring.order

    def generator_labels(self) -> list[str]:
        """A small generating set, chosen greedily by element index."""
        t = self.ring
        cur = 1 << t.zero
        gens: list[int] = []
        for e in self.members():
            if cur >> e & 1:
                continue
            gens.append(e)
            cur = _sum_closure(t, cur | cyclic_ideal(t, e).mask)
            if cur == self.mask:
                break
        return [t.labels[g] for g in gens]

    def describe(self) -> str:
        if self.is_zero():
            return "(0)"
        if self.is_whole():
            return "(1)"
        return "(" + ", ".join(self.generator_labels()) + ")"

    def __eq__(self, other):
        return (
            isinstance(other, IdealSet)
            and self.ring is other.ring
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.ring), self.mask))

    def __repr__(self):
        return f"IdealSet({self.ring.name}, size={self.size})"


def _sum_closure(t: RingTable, mask: int) -> int:
    """Close a subset under pairwise addition."""
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


def validate_ideal(i: IdealSet) -> bool:
    """Exhaustive check of the ideal axioms for a bitset."""
    t = i.ring
    if not i.contains(t.zero):
        return False
    ms = i.members()
    for a in ms:
        for b in ms:
            if not i.contains(int(t.add[a, b])):
                return False
        for r in range(t.order):
            if not i.contains(int(t.mul[r, a])):
                return False
    return True


def cyclic_ideal(t: RingTable, a: int) -> IdealSet:
    """Smallest ideal containing a: additive closure of {r*a : r in R}."""
    x = int(a)
    mask = 0
    for r in range(t.order):
        mask |= 1 << int(t.mul[r, x])
    return IdealSet(t, _sum_closure(t, mask))


def enumerate_ideals(t: RingTable) -> list[IdealSet]:
    """All ideals, sorted by (size, member tuple); includes {0} and R."""
    masks = {1 << t.zero}
    for a in range(t.order):
        masks.add(cyclic_ideal(t, a).mask)
    while True:
        fresh = set()
        items = sorted(masks)
        for i, m1 in enumerate(items):
            for m2 in items[i + 1 :]:
                u = m1 | m2
                if u not in masks:
                    u = _sum_closure(t, u)
                    if u not in masks:
                        fresh.add(u)
        if not fresh:
            break
        masks |= fresh
    ideals = [IdealSet(t, m) for m in masks]
    ideals.sort(key=lambda i: (i.size, tuple(i.members())))
    return ideals


def ideal_from_generators(t: RingTable, elements) -> IdealSet:
    mask = 1 << t.zero
    for a in elements:
        mask |= cyclic_ideal(t, a).mask
    return IdealSet(t, _sum_closure(t, mask))


# === Quotients ==============================================================


@dataclass(eq=False)
class QuotientRing:
    """Coset table of R/I with the projection map and coset representatives."""

    table: RingTable
    projection: tuple[int, ...]
    coset_reps: tuple[int, ...]


def quotient(t: RingTable, i: IdealSet) -> QuotientRing:
    """Form R/I with cosets ordered by least representative."""
    if i.is_whole():
        raise WholeRingIdeal(f"cannot quotient {t.name} by the whole ring")
    proj = [-1] * t.order
    reps: list[int] = []
    members = i.members()
    for e in range(t.order):
        if proj[e] != -1:
            continue
        c = len(reps)
        reps.append(e)
        for m in members:
            proj[int(t.add[e, m])] = c
    order = len(reps)
    add = np.zeros((order, order), dtype=np.int16)
    mul = np.zeros((order, order), dtype=np.int16)
    for a, ra in enumerate(reps):
        for b, rb in enumerate(reps):
            add[a, b] = proj[int(t.add[ra, rb])]
            mul[a, b] = proj[int(t.mul[ra, rb])]
    labels = tuple(t.labels[r] for r in reps)
    qt = RingTable(
        order=order,
        add=add,
        mul=mul,
        zero=proj[t.zero],
        one=proj[t.one],
        labels=labels,
        name=f"{t.name}/{i.describe()}",
    )
    return QuotientRing(qt, tuple(proj), tuple(reps))


# === Prime / radical structure ==============================================


def is_prime(i: IdealSet) -> bool:
    """True iff R/I has no nonzero zero-divisors."""
    t = i.ring
    if i.is_whole():
        return False
    outside = [x for x in range(t.order) if not i.contains(x)]
    for a in outside:
        row = t.mul[a]
        for b in outside:
            if i.contains(int(row[b])):
                return False
    return True


def is_radical(i: IdealSet) -> bool:
    """True iff no element outside I has a power inside I."""
    t = i.ring
    for x in range(t.order):
        if i.contains(x):
            continue
        cur = x
        for _ in range(t.order):
            cur = int(t.mul[cur, x])
            if i.contains(cur):
                return False
    return True


def minimal_primes_over(i: IdealSet) -> list[IdealSet]:
    """Minimal prime ideals over a proper radical ideal."""
    t = i.ring
    if i.is_whole():
        raise WholeRingIdeal("minimal primes require a proper ideal")
    if not is_radical(i):
        raise NotRadical(f"{i.describe()} in {t.name} is not radical")
    primes = [
        p
        for p in enumerate_ideals(t)
        if not p.is_whole() and p.mask & i.mask == i.mask and is_prime(p)
    ]
    minimal = [
        p
        for p in primes
        if not any(
            q.mask != p.mask and q.mask & p.mask == q.mask for q in primes
        )
    ]
    inter = (1 << t.order) - 1
    for p in minimal:
        inter &= p.mask
    if inter != i.mask:
        raise ZdgenusError("minimal primes do not intersect to the ideal")
    return minimal
