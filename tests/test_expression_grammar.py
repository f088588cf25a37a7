"""The parser's trees and errors pinned on a table of texts, and a property over the grammar's characters."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc.expressions import (
    MAX_DEPTH,
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Var,
    parse,
    to_string,
)

M = MAX_DEPTH
DEEP = f"expression nested deeper than {M} levels"
EXPECTED_ATOM = "expected a number, variable, function or '('"

# (text, dim, tree) or (text, dim, (message, offset)).
PARSES = [
    pytest.param("x0^2.5", 1, ("unexpected trailing input", 4), id="fractional-exponent"),
    pytest.param("x0^ -2", 1, Pow(Var(0), -2), id="space-before-negative-exponent"),
    pytest.param("x0^- 2", 1, ("expected integer exponent", 3), id="space-inside-negative-exponent"),
    pytest.param("x0^x1", 2, ("expected integer exponent", 3), id="variable-exponent"),
    pytest.param("x0^2^3", 1, ("unexpected trailing input", 4), id="chained-powers"),
    pytest.param("(x0)^-1", 1, Pow(Var(0), -1), id="power-of-group"),
    pytest.param("x0 ^ 2", 1, Pow(Var(0), 2), id="spaced-power"),
    pytest.param("2^3", 0, Pow(Num(2.0), 3), id="power-of-number"),
    pytest.param("x0**2", 1, (EXPECTED_ATOM, 3), id="double-star"),
    pytest.param("2x0", 1, ("unexpected trailing input", 1), id="juxtaposed-number"),
    pytest.param("x0 x1", 2, ("unexpected trailing input", 3), id="juxtaposed-variables"),
    pytest.param("sin (x0)", 1, Call("sin", Var(0)), id="space-before-call"),
    pytest.param("sin x0", 1, ("expected '('", 4), id="call-without-parenthesis"),
    pytest.param("sin(x0", 1, ("expected ')'", 6), id="unclosed-call"),
    pytest.param("sin()", 1, (EXPECTED_ATOM, 4), id="empty-call"),
    pytest.param("sin(x0)(x0)", 1, ("unexpected trailing input", 7), id="call-then-group"),
    pytest.param("exp(log(x0))", 1, Call("exp", Call("log", Var(0))), id="nested-calls"),
    pytest.param("tan(x0)", 1, ("unknown identifier 'tan'", 0), id="unknown-function"),
    pytest.param("x0\u00a0+\u2003x1", 2, Add(Var(0), Var(1)), id="non-ascii-spaces"),
    pytest.param("x0\t*\nx1", 2, Mul(Var(0), Var(1)), id="tab-and-newline"),
    pytest.param("x0\u200b", 1, ("unexpected trailing input", 2), id="zero-width-space-is-not-space"),
    pytest.param("", 1, (EXPECTED_ATOM, 0), id="empty"),
    pytest.param("   ", 1, (EXPECTED_ATOM, 3), id="only-spaces"),
    pytest.param("x0 +", 1, (EXPECTED_ATOM, 4), id="missing-operand"),
    pytest.param("x0)", 1, ("unexpected trailing input", 2), id="unopened-parenthesis"),
    pytest.param("()", 1, (EXPECTED_ATOM, 1), id="empty-group"),
    pytest.param("(x0", 1, ("expected ')'", 3), id="unclosed-group"),
    pytest.param("y0 + 1", 1, ("unknown identifier 'y0'", 0), id="unknown-identifier"),
    pytest.param("x0y", 1, ("unknown identifier 'x0y'", 0), id="variable-with-suffix"),
    pytest.param("X0", 1, ("unknown identifier 'X0'", 0), id="upper-case-variable"),
    pytest.param("x3", 2, ("variable x3 out of range for dimension 2", 0), id="variable-out-of-range"),
    pytest.param("x0 + x3", 2, ("variable x3 out of range for dimension 2", 5), id="later-variable-out-of-range"),
    pytest.param("x0", 0, ("variable x0 out of range for dimension 0", 0), id="dimension-zero"),
    pytest.param("x01", 2, Var(1), id="leading-zero-index"),
    pytest.param("1e-3", 0, Num(0.001), id="exponent-literal"),
    pytest.param("1e", 0, ("unexpected trailing input", 1), id="exponent-without-digits"),
    pytest.param(".5", 0, Num(0.5), id="leading-point"),
    pytest.param("2.", 0, Num(2.0), id="trailing-point"),
    pytest.param(".", 0, (EXPECTED_ATOM, 0), id="lone-point"),
    pytest.param("1.2.3", 0, ("unexpected trailing input", 3), id="two-points"),
    pytest.param("1e999", 0, Num(math.inf), id="overflowing-literal"),
    pytest.param("\u0663", 0, Num(3.0), id="arabic-indic-digit"),
    pytest.param("x0^\u0663", 1, Pow(Var(0), 3), id="arabic-indic-exponent"),
    pytest.param("-x0^2", 1, Neg(Pow(Var(0), 2)), id="minus-of-power"),
    pytest.param("--x0", 1, Neg(Neg(Var(0))), id="double-minus"),
    pytest.param("-x0/x1", 2, Div(Neg(Var(0)), Var(1)), id="minus-binds-one-factor"),
    pytest.param("x0--x1", 2, Sub(Var(0), Neg(Var(1))), id="minus-after-minus"),
    pytest.param("x0-x1-x2", 3, Sub(Sub(Var(0), Var(1)), Var(2)), id="differences-left-associative"),
    pytest.param("x0/x1/x2", 3, Div(Div(Var(0), Var(1)), Var(2)), id="quotients-left-associative"),
    pytest.param(
        "x0-x1*x2+x0", 3, Add(Sub(Var(0), Mul(Var(1), Var(2))), Var(0)), id="product-inside-sums"
    ),
    pytest.param(
        "x0 - -x0 * -(x0)", 1, Sub(Var(0), Mul(Neg(Var(0)), Neg(Var(0)))), id="minus-operands"
    ),
    # Past the depth bound an opener is refused at the offset just after it,
    # before the spaces that follow it.
    pytest.param("( " * (M + 1) + "x0" + ")" * (M + 1), 1, (DEEP, 201), id="spaced-parentheses-past-bound"),
    pytest.param("- " * (M + 1) + "x0", 1, (DEEP, 201), id="spaced-minuses-past-bound"),
    pytest.param("sin( " * (M + 1) + "x0" + ")" * (M + 1), 1, (DEEP, 504), id="spaced-calls-past-bound"),
    pytest.param("sin (" * (M + 1) + "x0" + ")" * (M + 1), 1, (DEEP, 505), id="calls-spaced-before-past-bound"),
    pytest.param("( -" * (M // 2 + 1) + " x0" + ")" * (M // 2 + 1), 1, (DEEP, 151), id="groups-of-minuses-past-bound"),
    # A tree past the bound is refused at the end of the text.
    pytest.param("- " * M + "x0", 1, (DEEP, 202), id="spaced-minuses-tree-past-bound"),
    pytest.param(" * ".join(["x0"] * (M + 1)), 1, (DEEP, 502), id="spaced-product-past-bound"),
    pytest.param("( " * M + "x0" + " )" * M, 1, Var(0), id="spaced-parentheses-at-bound"),
]


@pytest.mark.parametrize("text, dim, expected", PARSES)
def test_parse_gives_the_pinned_tree_or_error(text, dim, expected):
    if isinstance(expected, tuple):
        message, offset = expected
        with pytest.raises(ParseError) as exc:
            parse(text, dim)
        assert str(exc.value) == f"{message} (offset {offset})"
        assert exc.value.offset == offset
    else:
        tree = parse(text, dim)
        assert tree == expected
        assert parse(to_string(tree), dim) == tree


# The characters the grammar reads, with the function names as tokens so
# that calls occur.
_TOKENS = list("x0123456789.eE+-*/^() \t\u00a0") + ["sin", "cos", "exp", "log", "x1", "x2"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join), st.integers(0, 3))
def test_parse_gives_a_printable_tree_or_an_offset_inside_the_text(text, dim):
    try:
        tree = parse(text, dim)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)
    else:
        assert parse(to_string(tree), dim) == tree
