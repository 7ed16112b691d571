"""Ideal enumeration, quotient rings, and prime/radical structure.

Ideals of a finite commutative ring are represented as bitsets over element
indices.  In a commutative ring with 1 the principal ideal Ra is the column
{r*a} of the multiplication table, and the sum I + J of two ideals is the
one-step sumset {i + j}; neither needs a closure.  Every ideal is the sum of
the principal ideals of its elements, so enumeration adds each principal
ideal to every sum found so far, in one pass.  All decision procedures are
exhaustive; orders are <= 64.  A membership test over a whole table row
translates the bytes row through a 0/1 table of the ideal and reads the
result backwards as a binary mask.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import NotRadical, WholeRingIdeal, ZdgenusError
from .rings import _IDENTITY, RingTable, _elements, _pad


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
        return _elements(self.mask)

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


def _in_ideal(mask: int) -> bytes:
    """The translate table that maps an element in mask to b"1" and any
    other to b"0"."""
    return f"{mask:0256b}"[::-1].encode()


def _hits(row: bytes, in_ideal: bytes) -> int:
    """The mask of the positions of row whose entries lie in the ideal:
    the translated row, read backwards, in binary."""
    return int(row.translate(in_ideal)[::-1], 2)


def _ideal_sum(t: RingTable, a: int, b: int) -> int:
    """Mask of I + J = {i + j}, which is already an ideal: the union of
    the cosets i + J over i in I.  The coset i + J is the positions z of
    the row of -i with -i + z in J, and an i already in the union has its
    coset there."""
    A, zero, in_b = t.add, t.zero, _in_ideal(b)
    out = 0
    for i in _elements(a):
        if not out >> i & 1:
            out |= _hits(A[A[i].index(zero)], in_b)
    return out


# b"1" for the byte 255, b"0" for any other byte
_MARKED = b"0" * 255 + b"1"


def _value_mask(values: bytes, n: int) -> int:
    """The mask of the elements among values, in a ring of order n: every
    element goes through a table that sends each of values to 255, which
    no element is, and the marks read backwards are the mask in binary."""
    marks = _IDENTITY[:n].translate(
        bytes.maketrans(values, b"\xff" * len(values)))
    return int(marks.translate(_MARKED)[::-1], 2)


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
    return IdealSet(t, _value_mask(bytes(map(itemgetter(a), t.mul)),
                                   t.order))


def enumerate_ideals(t: RingTable) -> list[IdealSet]:
    """All ideals, sorted by (size, member tuple); includes {0} and R.
    Equal columns of mul give one principal ideal, so each distinct
    column is read once."""
    flat, n = b"".join(t.mul), t.order
    sums = {1 << t.zero}
    for p in {_value_mask(column, n) for column in
              {flat[a::n] for a in range(n)}}:
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
    # a proper ideal leaves at least two cosets, so pick returns a tuple
    pick, to_coset = itemgetter(*reps), _pad(bytes(proj))
    add, mul = (tuple(bytes(pick(op[r])).translate(to_coset) for r in reps)
                for op in (t.add, t.mul))
    labels = tuple(t.labels[r] for r in reps)
    qt = RingTable(
        order=len(reps),
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
    outside, in_i = (1 << t.order) - 1 & ~i.mask, _in_ideal(i.mask)
    return not any(_hits(t.mul[a], in_i) & outside
                   for a in _elements(outside))


def is_radical(i: IdealSet) -> bool:
    """True iff no element outside I has a power inside I, which holds iff
    no element outside I has its square inside I: if x^k lies in I with
    k >= 2 least, then y = x^(k-1) lies outside I and y² = x^(2k-2),
    a multiple of x^k since 2k-2 >= k, lies inside."""
    t, mask = i.ring, i.mask
    squares = b"".join(t.mul)[::t.order + 1]  # the diagonal
    return not _hits(squares, _in_ideal(mask)) & ~mask


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
