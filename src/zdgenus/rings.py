"""Finite commutative rings with identity as explicit operation tables.

A ring is described by a RingSpec (modular ring, direct product, or a
quotient algebra Z_n[x_1..x_k]/(relations)) and realized as a RingTable
holding full addition and multiplication tables over element indices.  A
finite field F_q with q = p^k is Z_p for k = 1 and otherwise the quotient
Z_p[a]/(an irreducible polynomial of degree k).  Quotient algebras are
built by monomial rewriting: each relation maps a monomial to a strictly
smaller polynomial in a degree-then-lex order, or pins the additive order
of a monomial (d*m -> 0).  The irreducible monomials form the basis; sums
are digit-wise on their coefficients, and products are bilinear, so only
the products of basis monomials are rewritten.  Correctness of the
resulting table is not assumed from confluence theory; it is enforced a
posteriori by complete axiom validation, a presentation check (n*1 = 0,
every relation holds at the variables' images, and those images generate
the table, which together make the table the presented ring), and an
expected-order check.

Supported orders are small (hard cap 64), so every element index fits in
a byte and every check is complete.  A table row is a bytes object, and
the kernels that build and check tables work on whole rows at C level:
a row translated through another row (padded to 256 bytes) composes the
two maps, slicing rotates a cyclic row, and join concatenates the blocks
of a product.  The catalog rings and the factors of products are built
and validated once per process for each distinct spec.
"""

from __future__ import annotations

import itertools
import re
import reprlib
import weakref
from array import array
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import InvalidSpec, NonConfluentPresentation

MAX_ORDER = 64
# a relation such as (x+y+2)^300 would otherwise expand for minutes
MAX_TERM_PAIRS = 2**20
# a longer relation string, or one nested deeper, is refused unparsed
MAX_RELATION_LENGTH = 10_000
MAX_NESTING = 100

# byte v at index v: sliced, the identity row of Z_n and a translate table
_IDENTITY = bytes(range(256))
# maps the digits b"0" and b"1" to the bytes 0 and 1
_BINARY = bytes.maketrans(b"01", b"\0\1")


def _elements(mask: int) -> list[int]:
    """The set bits of a mask of elements, least first: its binary digits,
    reversed, select positions at C level, in time that does not grow
    with the number of set bits, since such masks are often dense."""
    return list(itertools.compress(
        itertools.count(), bin(mask)[:1:-1].encode().translate(_BINARY)))


def _byte_rows(rows) -> tuple[bytes, ...]:
    """rows as a tuple of bytes rows, converting rows of ints."""
    try:
        return tuple(r if type(r) is bytes else bytes(r) for r in rows)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(
            f"table entries must be ints in range(256): {exc}") from exc


def _pad(row: bytes) -> bytes:
    """row as a translate table; entries past the row are never read."""
    return row.ljust(256)


# === Specs ==================================================================


class RewriteRule(NamedTuple):
    """One relation of a quotient-algebra presentation.

    ``lhs`` is a single monomial term (integer coefficient >= 1, degree >= 1)
    and ``rhs`` a polynomial, both as expression strings, e.g.
    ``RewriteRule("x^2", "2*x + 2")`` or ``RewriteRule("2*x", "0")``.
    A coefficient-1 lhs rewrites the monomial to the (strictly smaller) rhs;
    a non-unit coefficient d with rhs 0 pins the additive order of the
    monomial; a unit coefficient is normalized away by its modular inverse.
    """

    lhs: str
    rhs: str


class RingSpec(NamedTuple):
    """Presentation of a finite commutative ring.

    kind is one of "zmod", "product", "quotient"; gf() returns a zmod spec
    for a prime field and a quotient spec otherwise.  Unused fields stay at
    their defaults.  expected_order, when set, is checked after build.
    """

    kind: str
    name: str
    n: int | None = None
    factors: tuple[RingSpec, ...] = ()
    variables: tuple[str, ...] = ()
    relations: tuple[RewriteRule, ...] = ()
    expected_order: int | None = None


def zmod(n: int, name: str | None = None) -> RingSpec:
    if not isinstance(n, int) or n < 2:
        raise InvalidSpec(f"zmod requires an integer n >= 2, got {n!r}")
    return RingSpec(kind="zmod", name=name or f"Z_{n}", n=n, expected_order=n)


def is_prime_integer(n: int) -> bool:
    """Whether the integer n is a prime number, by trial division."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def product(*factors: RingSpec, name: str | None = None) -> RingSpec:
    if len(factors) < 2:
        raise InvalidSpec("product requires at least two factors")
    order = 1
    for f in factors:
        if f.expected_order is None:
            raise InvalidSpec("product factors need known expected_order")
        order *= f.expected_order
    return RingSpec(
        kind="product",
        name=name or "×".join(f.name for f in factors),
        factors=tuple(factors),
        expected_order=order,
    )


def quotient_algebra(
    n: int,
    variables: tuple[str, ...] | list[str],
    relations,
    name: str,
    expected_order: int | None = None,
) -> RingSpec:
    if expected_order is not None and (type(expected_order) is not int
                                       or expected_order < 1):
        raise InvalidSpec(f"expected_order must be a positive int, got "
                          f"{expected_order!r}")
    if not isinstance(variables, (list, tuple)) or not all(
            isinstance(v, str) and v.isidentifier() for v in variables):
        raise InvalidSpec("variables must be a list of identifier strings, "
                          f"got {reprlib.repr(variables)}")
    if not isinstance(relations, (list, tuple)) or not all(
            isinstance(r, RewriteRule)
            or isinstance(r, (list, tuple)) and len(r) == 2
            for r in relations):
        raise InvalidSpec("relations must be a list of [lhs, rhs] pairs, "
                          f"got {reprlib.repr(relations)}")
    rules = tuple(
        r if isinstance(r, RewriteRule) else RewriteRule(*r) for r in relations
    )
    return RingSpec(
        kind="quotient",
        name=name,
        n=n,
        variables=tuple(variables),
        relations=rules,
        expected_order=expected_order,
    )


# Fixed irreducible polynomials for the supported small fields.
_GF_RELATIONS = {
    (2, 2): (("a^2", "a + 1"),),   # a^2 + a + 1
    (2, 3): (("a^3", "a + 1"),),   # a^3 + a + 1
    (3, 2): (("a^2", "a + 1"),),   # a^2 + 2a + 2
}


def gf(p: int, k: int, name: str | None = None) -> RingSpec:
    """The field of p^k elements: Z_p for k = 1, else Z_p[a] modulo the
    irreducible polynomial recorded for (p, k)."""
    if type(p) is not int or not 2 <= p <= MAX_ORDER \
            or not is_prime_integer(p):
        raise InvalidSpec(f"gf requires a prime p <= {MAX_ORDER}, got {p!r}")
    # p >= 2, so k above the bit length of MAX_ORDER is already too large
    if type(k) is not int or not 1 <= k <= MAX_ORDER.bit_length() \
            or p**k > MAX_ORDER:
        raise InvalidSpec(
            f"gf requires k >= 1 and p^k <= {MAX_ORDER}, got k={k!r}")
    if k == 1:
        return zmod(p, name or f"F_{p}")
    if (p, k) not in _GF_RELATIONS:
        raise InvalidSpec(
            f"no irreducible polynomial recorded for GF({p}^{k})")
    return quotient_algebra(p, ("a",), _GF_RELATIONS[p, k],
                            name or f"F_{p**k}", p**k)


# === Tables =================================================================


class RingTable:
    """A finite commutative ring as explicit index tables.

    ``add`` and ``mul`` are tuples of bytes rows over element indices:
    ``add[a][b]`` is the index of a + b, an int.  Rows of ints are
    converted, so there is one representation, and bytes make a built
    table immutable.  Tables compare and hash by identity, and the
    fingerprint memo holds them by weak reference."""

    def __init__(self, order: int, add, mul, zero: int, one: int,
                 labels: tuple[str, ...], name: str = ""):
        self.order = order
        self.add = _byte_rows(add)
        self.mul = _byte_rows(mul)
        self.zero = zero
        self.one = one
        self.labels = labels
        self.name = name

    def neg(self, a: int) -> int:
        return self.add[a].index(self.zero)

    def power(self, a: int, k: int) -> int:
        """a**k by square and multiply; relation exponents may be large."""
        out = self.one
        while k > 0:
            if k & 1:
                out = self.mul[out][a]
            k >>= 1
            a = self.mul[a][a]
        return out

    def index_of(self, label: str) -> int:
        """Index of the first element labeled label, spaces ignored."""
        key = label.replace(" ", "")
        for i, s in enumerate(self.labels):
            if s.replace(" ", "") == key:
                return i
        raise InvalidSpec(f"no element labeled {label!r} in {self.name}")

    def __repr__(self):
        return f"RingTable({self.name or 'unnamed'}, order={self.order})"


class ValidationReport:
    """Axiom violations found in a table; empty iff the table is a ring."""

    def __init__(self):
        self.violations: list[tuple[str, tuple]] = []

    def __repr__(self):
        return f"ValidationReport({self.violations!r})"

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


# === Polynomial plumbing for quotient algebras ==============================


# one token: an integer literal, a name, an operator, or any other
# character; whitespace between tokens is skipped
_TOKEN = re.compile(r"(\d\w*)|([^\W\d]\w*)|(\*\*|[-+*()])|(\S)")
_INTEGER = re.compile(r"0(?:_?0)*|[1-9](?:_?[0-9])*")

# every relation side is parsed once per process: a quotient's build and
# its presentation check read the same strings, as do repeated builds
_PARSED: dict[tuple[str, tuple[str, ...], int], dict] = {}


def _parse_poly(text: str, variables: tuple[str, ...], n: int) -> dict:
    """Parse an expression string to {exponent tuple: coefficient mod n}.

    The grammar is that of Python expressions with ``^`` also meaning
    ``**``, restricted to decimal integer literals, the declared variables,
    parentheses, unary + and -, binary +, - and *, and powers whose
    exponent is an integer literal, maybe in parentheses.  Precedence is
    Python's: ``-x^2`` is -(x^2), and ``x^-1`` and ``x^2^3`` are refused.
    The string is parsed by recursive descent, never evaluated; one longer
    than MAX_RELATION_LENGTH or nested deeper than MAX_NESTING is refused.
    """
    if not isinstance(text, str):
        raise InvalidSpec(f"relation sides must be strings, got {text!r}")
    key = (text, tuple(variables), n)
    if key not in _PARSED:
        _PARSED[key] = _Parser(*key).poly
    return dict(_PARSED[key])


class _Parser:
    """One recursive-descent parse of a relation side.  Each rule returns
    the polynomial it read and, when that was a bare integer literal, its
    value, which is what a power's exponent has to be."""

    def __init__(self, text: str, variables: tuple[str, ...], n: int):
        self.text, self.n = text, n
        if len(text) > MAX_RELATION_LENGTH:
            raise self.error(f"longer than {MAX_RELATION_LENGTH} characters")
        self.const = (0,) * len(variables)
        unit = {v: tuple(int(i == k) for i in range(len(variables)))
                for k, v in enumerate(variables)}
        self.tokens = []
        for number, name, op, other in _TOKEN.findall(
                text.replace("^", "**")):
            if number:
                if not _INTEGER.fullmatch(number):
                    raise self.error(f"bad integer literal {number!r}")
                self.tokens.append(("int", int(number)))
            elif name:
                if name not in unit:
                    raise InvalidSpec(f"undeclared symbol {name!r} in "
                                      f"polynomial {reprlib.repr(text)}")
                self.tokens.append(("var", unit[name]))
            else:
                if other:
                    raise self.error(f"unsupported character {other!r}")
                self.tokens.append((op, None))
        self.tokens.append(("end", None))
        self.pos = 0
        self.poly, _ = self.sum(0)
        if self.peek() != "end":
            raise self.error(f"unexpected {self.peek()!r}")

    def error(self, why: str) -> InvalidSpec:
        return InvalidSpec(
            f"cannot parse polynomial {reprlib.repr(self.text)}: {why}")

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self) -> tuple:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def sum(self, depth: int):  # product (('+' | '-') product)*
        poly, literal = self.product(depth)
        while self.peek() in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            poly = _poly_add(poly, self.product(depth)[0], self.n, sign)
            literal = None
        return poly, literal

    def product(self, depth: int):  # signed ('*' signed)*
        poly, literal = self.signed(depth)
        while self.peek() == "*":
            self.take()
            poly = _poly_mul(poly, self.signed(depth)[0], self.n)
            literal = None
        return poly, literal

    def signed(self, depth: int):  # ('+' | '-')* power
        sign = 0
        while self.peek() in ("+", "-"):
            sign = (sign or 1) * (1 if self.take()[0] == "+" else -1)
        poly, literal = self.power(depth)
        if sign:
            return _poly_add({}, poly, self.n, sign), None
        return poly, literal

    def power(self, depth: int):  # atom ['**' signed]
        base, literal = self.atom(depth)
        if self.peek() != "**":
            return base, literal
        self.take()
        if depth >= MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING}")
        _, e = self.signed(depth + 1)
        if e is None:
            raise self.error("an exponent must be an integer literal")
        out = {self.const: 1}
        while e:  # square and multiply
            if e & 1:
                out = _poly_mul(out, base, self.n)
            e >>= 1
            base = _poly_mul(base, base, self.n) if e else base
        return out, None

    def atom(self, depth: int):  # integer | variable | '(' sum ')'
        kind, value = self.take()
        if kind == "int":
            return ({self.const: value % self.n} if value % self.n else {},
                    value)
        if kind == "var":
            return {value: 1}, None
        if kind != "(":
            raise self.error(f"unexpected {kind!r}")
        if depth >= MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING}")
        inner = self.sum(depth + 1)
        if self.take()[0] != ")":
            raise self.error("unbalanced parentheses")
        return inner


def _deglex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _poly_add(a: dict, b: dict, n: int, sign: int = 1) -> dict:
    """a + sign*b with coefficients mod n and zero terms dropped."""
    out = dict(a)
    for m, c in b.items():
        v = (out.get(m, 0) + sign * c) % n
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _poly_mul(a: dict, b: dict, n: int) -> dict:
    """a*b with coefficients mod n and zero terms dropped."""
    if len(a) * len(b) > MAX_TERM_PAIRS:
        raise InvalidSpec(f"polynomial product of {len(a)} by {len(b)} "
                          f"terms exceeds {MAX_TERM_PAIRS} term pairs")
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mm = _mono_mul(ma, mb)
            out[mm] = (out.get(mm, 0) + ca * cb) % n
    return {m: c for m, c in out.items() if c}


def _poly_label(poly: dict, variables: tuple[str, ...]) -> str:
    if not poly:
        return "0"
    terms = []
    for exps in sorted(poly, key=_deglex_key, reverse=True):
        c = poly[exps]
        parts = []
        for v, e in zip(variables, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        if not parts:
            terms.append(str(c))
        elif c == 1:
            terms.append("*".join(parts))
        else:
            terms.append(f"{c}*" + "*".join(parts))
    return " + ".join(terms)


class _QuotientEngine:
    """Monomial-rewriting normal forms for Z_n[vars]/(relations)."""

    def __init__(self, spec: RingSpec):
        if not isinstance(spec.n, int) or spec.n < 2:
            raise InvalidSpec("quotient base must be zmod n with n >= 2")
        if not spec.variables:
            raise InvalidSpec("quotient algebra needs at least one variable")
        if len(set(spec.variables)) != len(spec.variables):
            raise InvalidSpec("duplicate variable names")
        self.n = spec.n
        self.variables = spec.variables
        self.nv = len(spec.variables)
        self.rules: list[tuple[tuple[int, ...], dict]] = []
        self.modulus_rules: list[tuple[tuple[int, ...], int]] = []
        for rule in spec.relations:
            self._install(rule)

    def _install(self, rule: RewriteRule):
        lhs = _parse_poly(rule.lhs, self.variables, self.n)
        rhs = _parse_poly(rule.rhs, self.variables, self.n)
        if len(lhs) != 1:
            raise InvalidSpec(f"rule lhs must be a single term: {rule.lhs!r}")
        (mono, coeff), = lhs.items()
        if sum(mono) < 1:
            raise InvalidSpec(f"rule lhs must have degree >= 1: {rule.lhs!r}")
        d = gcd(self.n, coeff)
        if d == 1:
            if coeff != 1:
                inv = pow(coeff, -1, self.n)
                rhs = {m: (c * inv) % self.n for m, c in rhs.items()}
                rhs = {m: c for m, c in rhs.items() if c}
            key = _deglex_key(mono)
            for m in rhs:
                if _deglex_key(m) >= key:
                    raise InvalidSpec(
                        f"rule {rule.lhs!r} -> {rule.rhs!r} does not descend "
                        "in degree-then-lex order"
                    )
            self.rules.append((mono, rhs))
        else:
            if rhs:
                raise InvalidSpec(
                    f"non-unit coefficient rule {rule.lhs!r} must have rhs 0"
                )
            self.modulus_rules.append((mono, d))

    def modulus(self, mono: tuple[int, ...]) -> int:
        """Additive order bound of a monomial under the modulus rules."""
        d = self.n
        for rm, rd in self.modulus_rules:
            if _divides(rm, mono):
                d = gcd(d, rd)
        return d

    def _reducible_by(self, mono: tuple[int, ...]):
        for lhs, rhs in self.rules:
            if _divides(lhs, mono):
                return lhs, rhs
        return None

    def normal_form(self, poly: dict) -> dict:
        """poly rewritten until no rule applies, its terms settled largest
        first: a rewrite only adds terms below the one it replaces, so the
        largest term left is final once no rule applies to it."""
        p = {}
        for m, c in poly.items():
            c %= self.modulus(m)
            if c:
                p[m] = c
        out = {}
        while p:
            m = max(p, key=_deglex_key)
            c = p.pop(m)
            hit = self._reducible_by(m)
            if hit is None:
                out[m] = c
                continue
            lhs, rhs = hit
            q = tuple(a - b for a, b in zip(m, lhs))
            for rm, rc in rhs.items():
                mm = _mono_mul(rm, q)
                v = (p.get(mm, 0) + c * rc) % self.modulus(mm)
                if v:
                    p[mm] = v
                else:
                    p.pop(mm, None)
        return out

    def basis(self) -> list[tuple[int, ...]]:
        """All irreducible monomials of additive order >= 2 (BFS closure)."""
        from collections import deque

        start = (0,) * self.nv
        seen = {start}
        queue = deque([start])
        out = []
        live = 1
        while queue:
            m = queue.popleft()
            if self._reducible_by(m) is not None or self.modulus(m) < 2:
                continue
            out.append(m)
            live *= self.modulus(m)
            if live > MAX_ORDER:
                raise InvalidSpec(
                    "quotient algebra order exceeds the supported maximum "
                    f"{MAX_ORDER}"
                )
            for i in range(self.nv):
                child = tuple(
                    e + 1 if j == i else e for j, e in enumerate(m)
                )
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        out.sort(key=_deglex_key)
        return out


def _build_quotient(spec: RingSpec) -> tuple[RingTable, list[int]]:
    """The table of Z_n[vars] modulo the rewrite rules, and the index of
    each variable's image.

    An element is its coefficient vector on the basis monomials, read as
    mixed-radix digits with the first monomial least significant.  Sums
    are digit-wise, and products are bilinear in the normal forms of the
    |basis|^2 products of basis monomials; nothing else is rewritten.

    Rows are built a digit at a time, least significant first: the row of
    a over e, for e below the weight of digit k, is d_k blocks, the row so
    far shifted by 0, x, 2x, ... for x = a·b_k.  Labels are built the same
    way."""
    eng = _QuotientEngine(spec)
    basis = eng.basis()
    moduli = [eng.modulus(m) for m in basis]
    order = prod(moduli)  # at most MAX_ORDER, or basis() refused it
    weights = dict(zip(basis, itertools.accumulate([1, *moduli[:-1]],
                                                   lambda w, d: w * d)))

    def encode(poly: dict) -> int:
        # a normal form is irreducible with every coefficient nonzero mod
        # its monomial's modulus, and every such monomial is in the basis,
        # since its divisors are irreducible with a modulus at least its own
        return sum(c * weights[m] for m, c in poly.items())

    add = (b"\0",)  # Z_d for each digit, the first least significant
    for d in reversed(moduli):
        add = _product_rows(add, _cyclic_rows(d))
    shift = [_pad(row) for row in add]  # shift[x] maps y to x + y

    def spread(steps) -> bytes:
        """The row over e of the sum of digit_k(e)·steps[k]."""
        row = b"\0"
        for x, d in zip(steps, moduli):
            blocks, c = [row], x
            for _ in range(d - 1):
                blocks.append(row.translate(shift[c]))
                c = add[c][x]
            row = b"".join(blocks)
        return row

    basis_rows = [
        spread([encode(eng.normal_form({_mono_mul(m, m2): 1}))
                for m2 in basis])
        for m in basis]
    # a·b_k = b_k·a, read off the basis rows
    mul = tuple(spread(column) for column in zip(*basis_rows))
    labels = [""]
    for m, d in zip(basis, moduli):
        terms = [_poly_label({m: c}, spec.variables) for c in range(1, d)]
        labels += [f"{term} + {low}" if low else term
                   for term in terms for low in labels]
    one = encode(eng.normal_form({(0,) * eng.nv: 1}))
    degree_one = [tuple(int(i == j) for j in range(eng.nv))
                  for i in range(eng.nv)]
    images = [encode(eng.normal_form({m: 1})) for m in degree_one]
    return RingTable(
        order=order,
        add=add,
        mul=mul,
        zero=0,
        one=one,
        labels=("0", *labels[1:]),
        name=spec.name,
    ), images


def _check_presentation(t: RingTable, spec: RingSpec, images: list[int]):
    """Raise NonConfluentPresentation unless t is the ring spec presents.

    The rewrite rules fall short when rules with one leading monomial
    disagree: Z_2[x]/(x, x - 1) is the zero ring, but rewriting x by the
    first rule alone builds Z_2.  If n·1 = 0 in t, every relation holds at
    the variables' images, and the images generate t, then sending each
    variable to its image maps the presented ring R onto t.  The normal
    forms are sound rewrites in R, so |R| <= |t|, and the map is an
    isomorphism.  Relations come from the parse the rewrite rules were
    built from, and t is a validated table, so it is commutative."""

    def evaluate(poly: dict) -> int:
        total = t.zero
        for mono, c in poly.items():
            term = t.one
            for x, e in zip(images, mono):
                term = t.mul[term][t.power(x, e)]
            for _ in range(c):
                total = t.add[total][term]
        return total

    if evaluate({(0,) * len(images): spec.n}) != t.zero:
        raise NonConfluentPresentation(f"{spec.name}: {spec.n}·1 is not 0")
    for rule in spec.relations:
        lhs = _parse_poly(rule.lhs, spec.variables, spec.n)
        rhs = _parse_poly(rule.rhs, spec.variables, spec.n)
        if evaluate(lhs) != evaluate(rhs):
            raise NonConfluentPresentation(
                f"{spec.name}: relation {rule.lhs} = {rule.rhs} fails in "
                "the built table; its rewrite rules disagree")
    if _generated(t, images) != (1 << t.order) - 1:
        raise NonConfluentPresentation(
            f"{spec.name}: the variables do not generate the built table")


def _reach(op, todo: list[int], gens: list[int], reached: int = 0) -> int:
    """reached, as a bitmask, joined with every element reached from todo
    by the moves y -> op[y][g], g in gens."""
    while todo:
        y = todo.pop()
        if not reached >> y & 1:
            reached |= 1 << y
            todo.extend(map(op[y].__getitem__, gens))
    return reached


def _additive_span(t: RingTable, elements, gens: list[int],
                   reached: int = 0) -> int:
    """Grow gens greedily by the elements, in order, that the sums of one
    or more of gens (reached, as a bitmask) do not yet reach; return the
    sums of the grown gens.  A new generator g extends reached by g and
    by y + g for each y reached, then by every move from those."""
    A = t.add
    for g in elements:
        if not reached >> g & 1:
            gens.append(g)
            reached = _reach(A, [g, *(A[y][g] for y in _elements(reached))],
                             gens, reached)
    return reached


def _generated(t: RingTable, seeds) -> int:
    """Bitmask of the subring generated by 0, 1 and the seeds: the
    additive span of the products of seeds, 1 the empty product, which is
    closed under · since a product of such sums is a sum of products."""
    monomials = _reach(t.mul, [t.one], list(seeds))
    return _additive_span(t, _elements(monomials), [], 1 << t.zero)


# === Ring construction ======================================================


def _cyclic_rows(n: int) -> tuple[bytes, ...]:
    """The addition rows of Z_n: row a is 0..n-1 rotated left by a."""
    idx = _IDENTITY[:n]
    return tuple(idx[a:] + idx[:a] for a in range(n))


def _build_zmod(n: int, name: str) -> RingTable:
    if n > MAX_ORDER:
        raise InvalidSpec(f"ring order {n} exceeds maximum {MAX_ORDER}")
    idx = _IDENTITY[:n]
    return RingTable(
        order=n,
        add=_cyclic_rows(n),
        # a·b mod n over b: every a-th entry of a copies of 0..n-1
        mul=(bytes(n), *((idx * a)[::a] for a in range(1, n))),
        zero=0,
        one=1 % n,
        labels=tuple(map(str, range(n))),
        name=name,
    )


def _product_rows(a, b) -> tuple[bytes, ...]:
    """The operation on pairs (x, y), indexed x * len(b) + y, that acts as
    a on the first coordinate and as b on the second.  Row (x, y) is the
    blocks of row y of b shifted by p·len(b), one for each entry p of row
    x of a."""
    m = len(b)
    shifts = [_IDENTITY[k:] + bytes(k) for k in range(0, len(a) * m, m)]
    blocks = [[rb.translate(s) for s in shifts] for rb in b]
    return tuple(b"".join(map(row_blocks.__getitem__, ra))
                 for ra in a for row_blocks in blocks)


def product_tables(*tables: RingTable, name: str = "") -> RingTable:
    """Direct product of built tables; the first factor is the most
    significant digit of an element index, and labels are flat tuples."""
    order = prod(t.order for t in tables)
    if order > MAX_ORDER:
        raise InvalidSpec(f"ring order {order} exceeds maximum {MAX_ORDER}")
    strides = [1] * len(tables)
    for i in reversed(range(len(tables) - 1)):
        strides[i] = strides[i + 1] * tables[i + 1].order
    add, mul = tables[0].add, tables[0].mul
    for t in tables[1:]:
        add, mul = _product_rows(add, t.add), _product_rows(mul, t.mul)
    labels = tuple(
        "(" + ", ".join(parts) + ")"
        for parts in itertools.product(*(t.labels for t in tables)))
    return RingTable(
        order=order,
        add=add,
        mul=mul,
        zero=sum(t.zero * stride for t, stride in zip(tables, strides)),
        one=sum(t.one * stride for t, stride in zip(tables, strides)),
        labels=labels,
        name=name or "×".join(t.name for t in tables),
    )


def build_ring(spec: RingSpec) -> RingTable:
    """Construct and validate the table for a ring presentation."""
    if not isinstance(spec, RingSpec):
        raise InvalidSpec(f"expected a RingSpec, got {type(spec).__name__}")
    if spec.kind == "zmod":
        if spec.n is None or spec.n < 2:
            raise InvalidSpec("zmod requires n >= 2")
        table = _build_zmod(spec.n, spec.name)
    elif spec.kind == "product":
        table = product_tables(*map(_shared_table, spec.factors),
                               name=spec.name)
    elif spec.kind == "quotient":
        table, images = _build_quotient(spec)
    else:
        raise InvalidSpec(f"unknown ring kind {spec.kind!r}")

    report = validate_table(table)
    if not report.ok:
        raise NonConfluentPresentation(
            f"{spec.name}: table fails axioms: "
            + "; ".join(name for name, _ in report.violations)
        )
    if spec.kind == "quotient":
        _check_presentation(table, spec, images)
    if spec.expected_order is not None and table.order != spec.expected_order:
        raise NonConfluentPresentation(
            f"{spec.name}: built order {table.order}, "
            f"expected {spec.expected_order}"
        )
    return table


# shared tables by the repr of their spec, which tells 2 from 2.0 and True
# and needs no hashable fields
_SHARED_TABLES: dict[str, RingTable] = {}


def _shared_table(spec: RingSpec) -> RingTable:
    """build_ring(spec), built and validated once per process.  Catalog
    rings, product factors, and the Z_t factors and extra local ring of
    classify are such tables: each catalog product's factors are catalog
    specs, classify's Z_t is the catalog's own where the catalog has it,
    and a table is only ever read."""
    key = repr(spec)
    if key not in _SHARED_TABLES:
        _SHARED_TABLES[key] = build_ring(spec)
    return _SHARED_TABLES[key]


# === Validation =============================================================


def _additive_generators(t: RingTable) -> list[int]:
    """Elements S from which every element is reached by the moves
    y -> y + s, s in S: greedily, the least element not yet reached, with
    zero tried last, since repeated addition usually reaches it."""
    gens: list[int] = []
    _additive_span(t, (*range(t.zero + 1, t.order), *range(t.zero + 1)),
                   gens)
    return gens


def _first_difference(left, right) -> int:
    return next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)


def validate_table(t: RingTable) -> ValidationReport:
    """Check all commutative-ring-with-1 axioms, in O(n^2 |S|).

    Every entry must be an element index ("add-closed", "mul-closed"), or
    the three-variable laws are not checked.  Commutativity, the
    identities and inverses are read off the rows.  The three-variable
    laws are checked for every a and b but only for c in the additive
    generators S (Light's associativity test): the set of c for which a
    law holds for all a and b is closed under +, for +-associativity
    outright, for distributivity once + is associative, and for
    ·-associativity once · distributes.  The laws are checked in that
    order, so the table passes only if every law holds everywhere.  Each
    witness is a real counterexample; a table that fails one law may have
    a later law that also fails left unnamed.

    Each side of a law at c is the n^2 entries over (a, b), a major, built
    by translating whole rows: x.translate(_pad(r)) is r[x[b]] over b."""
    report = ValidationReport()
    n, A, M = t.order, t.add, t.mul
    identity = _IDENTITY[:n]

    if n < 2 or t.zero == t.one:
        report.violations.append(("zero-ne-one", (t.zero, t.one)))
    flat_a, flat_m = b"".join(A), b"".join(M)
    closed = True
    for name, flat in (("add-closed", flat_a), ("mul-closed", flat_m)):
        if flat.translate(None, identity):  # deletes every element index
            closed = False
            k = next(k for k, v in enumerate(flat) if v >= n)
            report.violations.append((name, divmod(k, n)))
    # columns, so no witness leans on commutativity
    At, Mt = ([flat[c::n] for c in range(n)] for flat in (flat_a, flat_m))
    for name, op, cols in (("add-commutative", A, At),
                           ("mul-commutative", M, Mt)):
        if list(op) != cols:
            i = _first_difference(op, cols)
            report.violations.append((name, (i, _first_difference(
                op[i], cols[i]))))

    if closed:
        PA, PM, PAt, PMt = (list(map(_pad, rows)) for rows in (A, M, At, Mt))
        laws = (
            ("add-associative",  # (a + b) + c = a + (b + c)
             lambda c: flat_a.translate(PAt[c]),
             lambda c: b"".join(map(At[c].translate, PA))),
            ("distributive",  # a(b + c) = ab + ac
             lambda c: b"".join(map(At[c].translate, PM)),
             lambda c: b"".join(map(bytes.translate, M,
                                    map(PAt.__getitem__, Mt[c])))),
            ("mul-associative",  # (ab)c = a(bc)
             lambda c: flat_m.translate(PMt[c]),
             lambda c: b"".join(map(Mt[c].translate, PM))),
        )
        gens = _additive_generators(t)
        for name, lhs, rhs in laws:
            for c in gens:
                left, right = lhs(c), rhs(c)
                if left != right:
                    a, b = divmod(_first_difference(left, right), n)
                    report.violations.append((name, (a, b, c)))
                    break

    for name, e, op in (("zero-identity", t.zero, A),
                        ("one-identity", t.one, M)):
        if op[e] != identity:
            report.violations.append(
                (name, (e, _first_difference(op[e], identity))))
    bad = next((a for a in range(n) if t.zero not in A[a]), None)
    if bad is not None:
        report.violations.append(("additive-inverse", (bad,)))
    return report


# === Element-level queries ==================================================


def units(t: RingTable) -> list[int]:
    """Sorted indices of the elements with a multiplicative inverse."""
    return [a for a, row in enumerate(t.mul) if t.one in row]


def zero_divisors(t: RingTable) -> list[int]:
    """Sorted indices of the nonzero elements annihilated by some nonzero
    element."""
    z = t.zero
    return [a for a, row in enumerate(t.mul)
            if a != z and z in row[:z] + row[z + 1:]]


def nilpotency_index(t: RingTable, a: int) -> int | None:
    """Smallest k >= 1 with a^k = 0, or None if a is not nilpotent."""
    cur = a
    for k in range(1, t.order + 1):
        if cur == t.zero:
            return k
        cur = t.mul[cur][a]
    return None


def additive_order(t: RingTable, a: int) -> int:
    """Smallest k >= 1 with k·a = 0; a table without one is not a ring."""
    cur = a
    for k in range(1, t.order + 1):
        if cur == t.zero:
            return k
        cur = t.add[cur][a]
    raise InvalidSpec(f"element {t.labels[a]!r} has no additive order: "
                      "the table is not a ring")


def is_local(t: RingTable) -> bool:
    """A ring is local when it has a single maximal ideal.  In a finite
    commutative ring that holds exactly when the non-units are closed under
    addition; they then form the maximal ideal."""
    us = set(units(t))
    nu = [a for a in range(t.order) if a not in us]
    return t.zero not in us and all(
        t.add[a][b] not in us for a in nu for b in nu)


# === Isomorphism search =====================================================


def _fingerprint(t: RingTable, unit_set: set[int]):
    fps = []
    for i in range(t.order):
        ann = t.mul[i].count(t.zero)
        nil = nilpotency_index(t, i) or 0
        idem = t.mul[i][i] == i
        fps.append((additive_order(t, i), nil, i in unit_set, ann, idem))
    return fps


# each table's fingerprints, computed once: catalog tables meet iso_check
# again and again.  RingTable compares by identity, so the keys do too.
_FINGERPRINTS: weakref.WeakKeyDictionary[RingTable, array] = (
    weakref.WeakKeyDictionary())


def _fingerprints(t: RingTable) -> array:
    """_fingerprint of t with its units, memoized per table.  Each element's
    fingerprint is packed into one machine int, its fields being at most
    MAX_ORDER, so the memo stays small while `verify all` keeps some 400
    tables alive."""
    if t not in _FINGERPRINTS:
        b = MAX_ORDER + 1
        _FINGERPRINTS[t] = array("l", [
            (((order * b + nil) * 2 + unit) * b + ann) * 2 + idem
            for order, nil, unit, ann, idem in _fingerprint(t, set(units(t)))])
    return _FINGERPRINTS[t]


def _span(t: RingTable, seeds) -> dict[int, tuple | None]:
    """The subring generated by 0, 1 and the seeds, each element once, in
    the order reached, with how it was reached: None for 0, 1 and the
    seeds, otherwise (op, x, y) with op t.add or t.mul and x, y earlier."""
    span = dict.fromkeys((t.zero, t.one, *seeds))
    have = list(span)
    for i, x in enumerate(have):  # have grows as the span is reached
        for y in have[:i + 1]:
            for op in (t.add, t.mul):
                z = op[x][y]
                if z not in span:
                    span[z] = (op, x, y)
                    have.append(z)
    return span


def iso_check(a: RingTable, b: RingTable) -> list[int] | None:
    """Search for a ring isomorphism a -> b.

    Returns the witness index map (image of each element of ``a``) or None.
    A ring map is fixed by the images of ring generators, so generators of
    ``a`` are picked greedily by index until their span covers ``a``; each
    tuple of images with matching element fingerprints (additive order,
    nilpotency index, unit flag, annihilator size, idempotency) is carried
    to every element along the span's recipes, and the first map that is a
    bijection respecting + and · is returned.  An isomorphism keeps every
    fingerprint, so its generator images are among the tuples tried, and
    the recipes rebuild it; a tuple is dropped once a rebuilt element's
    image has another fingerprint.
    """
    if a.order != b.order:
        return None
    fa, fb = _fingerprints(a), _fingerprints(b)
    if sorted(fa) != sorted(fb):
        return None
    gens: list[int] = []
    span = _span(a, gens)
    for x in range(a.order):
        if x not in span:
            gens.append(x)
            span = _span(a, gens)
    steps = [(x, b.add if r[0] is a.add else b.mul, r[1], r[2])
             for x, r in span.items() if r]
    choices = [[y for y in range(b.order) if fb[y] == fa[g]] for g in gens]
    for images in itertools.product(*choices):
        f = [0] * a.order
        f[a.zero], f[a.one] = b.zero, b.one
        for g, y in zip(gens, images):
            f[g] = y
        for x, op, u, v in steps:
            f[x] = op[f[u]][f[v]]
            if fb[f[x]] != fa[x]:  # no isomorphism sends gens to images
                break
        else:
            if len(set(f)) == a.order and all(
                    [f[z] for z in op_a[x]] == [op_b[f[x]][y] for y in f]
                    for x in range(a.order)
                    for op_a, op_b in ((a.add, b.add), (a.mul, b.mul))):
                return f
    return None


# === JSON presentation files ================================================


def spec_to_json(spec: RingSpec) -> str:
    import json

    def enc(s: RingSpec):
        if s.kind == "zmod":
            return {"kind": "zmod", "n": s.n, "name": s.name}
        if s.kind == "product":
            return {
                "kind": "product",
                "factors": [enc(f) for f in s.factors],
                "name": s.name,
            }
        return {
            "kind": "quotient",
            "base": s.n,
            "variables": list(s.variables),
            "relations": [[r.lhs, r.rhs] for r in s.relations],
            "name": s.name,
            "expected_order": s.expected_order,
        }

    return json.dumps(enc(spec), indent=2)


def spec_from_json(text: str) -> RingSpec:
    import json

    def dec(d) -> RingSpec:
        if not isinstance(d, dict) or "kind" not in d:
            raise InvalidSpec("ring spec JSON must be an object with a kind")
        kind, name = d["kind"], d.get("name")
        if name is not None and not isinstance(name, str):
            raise InvalidSpec(
                f"ring name must be a string, got {reprlib.repr(name)}")
        if kind == "zmod":
            return zmod(d["n"], name)
        if kind == "gf":
            return gf(d["p"], d["k"], name)
        if kind == "product":
            return product(*[dec(f) for f in d["factors"]], name=name)
        if kind == "quotient":
            return quotient_algebra(
                d["base"],
                d["variables"],
                d["relations"],
                name=name or "quotient",
                expected_order=d.get("expected_order"),
            )
        raise InvalidSpec(f"unknown ring kind {kind!r}")

    try:
        return dec(json.loads(text))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # json.JSONDecodeError is a ValueError; missing keys and wrongly
        # typed fields surface as the other three
        raise InvalidSpec(
            f"invalid ring spec JSON: {type(exc).__name__}: {exc}") from exc
