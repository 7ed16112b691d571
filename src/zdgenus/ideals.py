"""Ideal enumeration, quotient rings, and prime/radical structure.

Ideals of a finite commutative ring are represented as bitsets over element
indices.  In a commutative ring with 1 the principal ideal Ra is the column
{r*a} of the multiplication table, and the sum I + J of two ideals is the
one-step sumset {i + j}; neither needs a closure.  Every ideal is the sum of
the principal ideals of its elements, so enumeration adds each principal
ideal to every sum found so far, in one pass.  All decision procedures are
exhaustive; orders are <= 64.
"""

from __future__ import annotations

from .errors import NotRadical, WholeRingIdeal, ZdgenusError
from .rings import RingTable


# === IdealSet ===============================================================


class IdealSet:
    """A subset of ring-element indices, closed as an ideal."""

    def __init__(self, ring: RingTable, mask: int):
        self.ring = ring
        self.mask = mask

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> list[int]:
        return _members(self.ring, self.mask)

    def contains(self, a: int) -> bool:
        return bool(self.mask >> a & 1)

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
            cur = _ideal_sum(t, cur, cyclic_ideal(t, e).mask)
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


def _members(t: RingTable, mask: int) -> list[int]:
    return [i for i in range(t.order) if mask >> i & 1]


def _ideal_sum(t: RingTable, a: int, b: int) -> int:
    """Mask of I + J = {i + j}, which is already an ideal."""
    js = _members(t, b)
    out = 0
    for i in _members(t, a):
        row = t.add[i]
        for j in js:
            out |= 1 << row[j]
    return out


def validate_ideal(i: IdealSet) -> bool:
    """Exhaustive check of the ideal axioms for a bitset."""
    t = i.ring
    if not i.contains(t.zero):
        return False
    ms = i.members()
    for a in ms:
        for b in ms:
            if not i.contains(t.add[a][b]):
                return False
        for r in range(t.order):
            if not i.contains(t.mul[r][a]):
                return False
    return True


def cyclic_ideal(t: RingTable, a: int) -> IdealSet:
    """The principal ideal Ra: column a of the multiplication table."""
    mask = 0
    for row in t.mul:
        mask |= 1 << row[a]
    return IdealSet(t, mask)


def enumerate_ideals(t: RingTable) -> list[IdealSet]:
    """All ideals, sorted by (size, member tuple); includes {0} and R."""
    sums = {1 << t.zero}
    for p in {cyclic_ideal(t, a).mask for a in range(t.order)}:
        sums |= {_ideal_sum(t, s, p) for s in sums if s & p != p}
    ideals = [IdealSet(t, m) for m in sums]
    ideals.sort(key=lambda i: (i.size, tuple(i.members())))
    return ideals


def ideal_from_generators(t: RingTable, elements) -> IdealSet:
    mask = 1 << t.zero
    for a in elements:
        mask = _ideal_sum(t, mask, cyclic_ideal(t, a).mask)
    return IdealSet(t, mask)


def maximal_ideals(t: RingTable) -> list[IdealSet]:
    """Proper ideals not contained in any larger proper ideal."""
    proper = [i for i in enumerate_ideals(t) if not i.is_whole()]
    return [
        i for i in proper
        if not any(j.size > i.size and i.mask & j.mask == i.mask
                   for j in proper)
    ]


# === Quotients ==============================================================


class QuotientRing:
    """Coset table of R/I with the projection map and coset representatives."""

    def __init__(self, table: RingTable, projection: tuple[int, ...],
                 coset_reps: tuple[int, ...]):
        self.table = table
        self.projection = projection
        self.coset_reps = coset_reps


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
            proj[t.add[e][m]] = c
    order = len(reps)
    add, mul = (
        tuple(tuple(proj[op[ra][rb]] for rb in reps) for ra in reps)
        for op in (t.add, t.mul))
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
    mask = i.mask
    outside = [x for x in range(t.order) if not mask >> x & 1]
    for a in outside:
        row = t.mul[a]
        for b in outside:
            if mask >> row[b] & 1:
                return False
    return True


def is_radical(i: IdealSet) -> bool:
    """True iff no element outside I has a power inside I, which holds iff
    no element outside I has its square inside I: if x^k lies in I with
    k >= 2 least, then y = x^(k-1) lies outside I and y² = x^(2k-2),
    a multiple of x^k since 2k-2 >= k, lies inside."""
    t, mask = i.ring, i.mask
    return not any(mask >> t.mul[x][x] & 1 for x in range(t.order)
                   if not mask >> x & 1)


def minimal_primes_over(i: IdealSet) -> list[IdealSet]:
    """Minimal prime ideals over a proper radical ideal.

    In a finite commutative ring every prime P is maximal, since R/P is a
    finite domain and hence a field; so the primes containing the ideal are
    pairwise incomparable and all of them are minimal over it.  A radical
    ideal is the intersection of the primes containing it, which is checked.
    """
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
    inter = (1 << t.order) - 1
    for p in primes:
        inter &= p.mask
    if inter != i.mask:
        raise ZdgenusError("minimal primes do not intersect to the ideal")
    return primes
