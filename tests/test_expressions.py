import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc import jets
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
    evaluate,
    max_var_index,
    parse,
    to_string,
)


def test_parse_product_plus_function():
    ast = parse("x0*x1 + sin(x0)", 2)
    assert ast == Add(Mul(Var(0), Var(1)), Call("sin", Var(0)))
    assert evaluate(ast, [2.0, 3.0]) == pytest.approx(6.0 + math.sin(2.0))


def test_variable_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse("x3", 2)
    assert exc.value.offset == 0
    assert "x3" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse("x0 + x3", 2)
    assert exc.value.offset == 5


def test_unary_minus_binds_one_factor():
    # the grammar reads "-(x0^2)/x1" as a quotient whose numerator is negated
    ast = parse("-(x0^2)/x1", 2)
    assert ast == Div(Neg(Pow(Var(0), 2)), Var(1))
    assert parse("-x0^2/x1", 2) == ast
    assert parse("-x0/x1", 2) == Div(Neg(Var(0)), Var(1))
    assert parse("--x0", 1) == Neg(Neg(Var(0)))


def test_precedence_and_power():
    assert parse("x0+x1*x2^2", 3) == Add(Var(0), Mul(Var(1), Pow(Var(2), 2)))
    assert parse("x0^-2", 1) == Pow(Var(0), -2)
    assert parse("2^3", 0) == Pow(Num(2.0), 3)
    assert evaluate(parse("x0^-2", 1), [2.0]) == 0.25


def test_number_formats():
    assert parse("1e-3", 0) == Num(1e-3)
    assert parse(".5", 0) == Num(0.5)
    assert parse("2.", 0) == Num(2.0)
    assert parse("3e2", 0) == Num(300.0)


def test_whitespace_insensitive():
    assert parse(" x0 * ( x1 + 2 ) ", 2) == parse("x0*(x1+2)", 2)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse("x0)", 2)
    assert exc.value.offset == 2

    with pytest.raises(ParseError) as exc:
        parse("sin(x0", 1)
    assert exc.value.offset == 6

    with pytest.raises(ParseError) as exc:
        parse("y0 + 1", 1)
    assert exc.value.offset == 0

    with pytest.raises(ParseError) as exc:
        parse("x0^2.5", 1)
    assert exc.value.offset > 0

    with pytest.raises(ParseError):
        parse("", 1)

    assert issubclass(ParseError, ValueError)


def test_unknown_function_is_unknown_identifier():
    with pytest.raises(ParseError) as exc:
        parse("tan(x0)", 1)
    assert "tan" in str(exc.value)


def test_evaluate_functions_and_guards():
    assert evaluate(parse("exp(x0)", 1), [1.0]) == pytest.approx(
        2.718281828459045, abs=1e-15
    )
    assert evaluate(parse("sin(x0)", 1), [0.0]) == 0.0
    with pytest.raises(jets.DomainError):
        evaluate(parse("1/x0", 1), [0.0])
    with pytest.raises(jets.DomainError):
        evaluate(parse("log(x0)", 1), [-2.0])


def test_evaluate_over_jets():
    ast = parse("x0^2*x1", 2)
    x, y = jets.seed([3.0, 5.0])
    out = evaluate(ast, [x, y])
    assert out.value == 45.0
    assert out.partials == (30.0, 9.0)


def test_max_var_index():
    assert max_var_index(parse("1 + 2", 0)) == -1
    assert max_var_index(parse("x0 + sin(x4)", 5)) == 4


class _SubNum(Num):
    pass


@pytest.mark.parametrize("node", [1.5, "x0", _SubNum(1.5)], ids=["float", "str", "subclass"])
def test_walkers_reject_non_nodes(node):
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate(node, [1.0])
    with pytest.raises(TypeError, match="not an expression node"):
        max_var_index(node)


def test_to_string_round_trips_examples():
    for text, dim in [
        ("x0*x1 + sin(x0)", 2),
        ("-(x0^2)/x1", 2),
        ("(x0 + x1)*x1 - 2/x0", 2),
        ("exp(log(x0)) - x0^3", 1),
        ("1.5*x0^-1", 1),
    ]:
        ast = parse(text, dim)
        assert parse(to_string(ast), dim) == ast


def test_print_parse_idempotent_on_hand_built_negatives():
    ast = Mul(Num(-2.0), Var(0))
    once = parse(to_string(ast), 1)
    assert once == Mul(Neg(Num(2.0)), Var(0))
    assert parse(to_string(once), 1) == once


def _nodes(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Neg, children),
        st.builds(Pow, children, st.integers(min_value=-3, max_value=3)),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log"]), children),
    )


_exprs = st.recursive(
    st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(abs)),
        st.builds(Var, st.integers(min_value=0, max_value=2)),
    ),
    _nodes,
    max_leaves=50,
)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_round_trip_random_trees(ast):
    assert parse(to_string(ast), 3) == ast


def test_parse_accepts_expressions_at_the_depth_bound():
    deep = [
        "+".join(["x0"] * MAX_DEPTH),
        "(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH,
        "-" * (MAX_DEPTH - 1) + "x0",
        "sin(" * (MAX_DEPTH - 1) + "x0" + ")" * (MAX_DEPTH - 1),
    ]
    for text in deep:
        expr = parse(text, 1)
        assert parse(to_string(expr), 1) == expr
        evaluate(expr, jets.seed([0.5]))


@pytest.mark.parametrize(
    "text",
    [
        "+".join(["x0"] * (MAX_DEPTH + 1)),
        "*".join(["x0"] * (MAX_DEPTH + 1)),
        "(" * (MAX_DEPTH + 1) + "x0" + ")" * (MAX_DEPTH + 1),
        "-" * MAX_DEPTH + "x0",
        "exp(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH,
        "(" * 3000 + "x0" + ")" * 3000,
        "-" * 3000 + "x0",
        "+".join(["x0"] * 3000),
    ],
    ids=["sum", "product", "parentheses", "unary-minus", "calls", "parentheses-3000",
         "unary-minus-3000", "sum-3000"],
)
def test_parse_rejects_expressions_nested_past_the_depth_bound(text):
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse(text, 1)
