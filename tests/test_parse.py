"""The relation-string parser of quotient algebras, checked against sympy.

sympy is a test-only dependency: it is the reference the parser was
written to agree with, over the same grammar (Python expression syntax
with ``^`` for powers).
"""

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from zdgenus import InvalidSpec
from zdgenus.catalog import catalog_entries
from zdgenus.rings import _parse_poly

VARIABLE_SETS = (("x",), ("x", "y"), ("a", "x", "y"))


def _sympy_poly(text, variables, n):
    """The expansion sympy gives, as {exponent tuple: coefficient mod n}."""
    syms = sympy.symbols(variables)
    local = dict(zip(variables, syms))
    expr = sympy.expand(sympy.sympify(text.replace("^", "**"), locals=local))
    out = {}
    for exps, coeff in sympy.Poly(expr, *syms, domain="ZZ").terms():
        c = int(coeff) % n
        if c:
            out[tuple(int(e) for e in exps)] = c
    return out


def _expressions(variables):
    """Integer polynomial expressions rendered as strings, with ^ or **,
    parentheses and unary minus."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=40).map(str),
        st.sampled_from(variables),
    )

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner)
        power = st.tuples(inner, st.sampled_from(["^", "**"]),
                          st.integers(min_value=0, max_value=4))
        return st.one_of(
            binary.map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
            binary.map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
            power.map(lambda t: f"({t[0]}){t[1]}{t[2]}"),
            inner.map(lambda e: f"-({e})"),
            inner.map(lambda e: f"-{e}"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@given(st.data(), st.sampled_from(VARIABLE_SETS),
       st.sampled_from([2, 3, 4, 8, 9, 25]))
def test_parse_matches_sympy(data, variables, n):
    text = data.draw(_expressions(variables))
    assert _parse_poly(text, variables, n) == _sympy_poly(text, variables, n)


def test_catalog_relations_match_sympy():
    cases = [(side, spec.variables, spec.n, entry.name)
             for entry in catalog_entries() if entry.spec.kind == "quotient"
             for spec in [entry.spec]
             for rule in spec.relations for side in (rule.lhs, rule.rhs)]
    assert len(cases) == 198
    for text, variables, n, name in cases:
        assert _parse_poly(text, variables, n) == \
            _sympy_poly(text, variables, n), (name, text)


def test_large_exponent_parses_at_once():
    assert _parse_poly("x^100000000", ("x",), 4) == {(100000000,): 1}
    assert _parse_poly("3^100000000 + 0^0", ("x",), 4) == {(0,): 2}


@pytest.mark.parametrize("text", [
    "print('x') or 0",
    "__import__('os')",
    "print('x')",
    "x.real",
    "[x][0]",
])
def test_code_in_relations_is_rejected_unrun(text, capsys):
    with pytest.raises(InvalidSpec):
        _parse_poly(text, ("x",), 4)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text", [
    "x/2", "x^-1", "x^y", "x^(1+1)", "sin(x)", "1.5*x", "2x", "y", "True",
    "x % 2", "", "x +", "x\x00", "+".join(["x"] * 100000), "-" * 100000 + "x",
])
def test_outside_the_grammar_raises_invalid_spec(text):
    with pytest.raises(InvalidSpec):
        _parse_poly(text, ("x",), 4)


def test_non_string_relation_side_raises_invalid_spec():
    with pytest.raises(InvalidSpec, match="must be strings"):
        _parse_poly(["x^2"], ("x",), 4)
