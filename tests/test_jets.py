import ast
import math
from pathlib import Path

import numpy as np
import pytest

from dvbcalc import jets
from dvbcalc.jets import (
    DomainError,
    powi,
    Jet,
    deep_value,
    generic_jacobian,
    jet_directional,
    jet_gradient,
    jet_jacobian,
    partials_of,
    seed,
)

RNG = np.random.default_rng(20240815)


def test_seed_and_arithmetic():
    x, y = seed([2.0, 3.0])
    out = x * y + jets.sin(x)
    assert out.value == 6.0 + math.sin(2.0)
    # d/dx (xy + sin x) = y + cos x, d/dy = x
    assert out.partials[0] == pytest.approx(3.0 + math.cos(2.0), abs=1e-15)
    assert out.partials[1] == 2.0


def test_product_rule_exact_on_integers():
    x, y = seed([5.0, 7.0])
    out = x * y
    assert out.partials == (7.0, 5.0)


def test_chain_rule_composite():
    (x,) = seed([0.7])
    out = jets.exp(jets.sin(x) + x ** 3)
    expected = math.exp(math.sin(0.7) + 0.7 ** 3) * (math.cos(0.7) + 3 * 0.7 ** 2)
    assert out.partials[0] == pytest.approx(expected, rel=1e-14)


def test_chain_rule_jacobian_of_composition():
    # jacobian(f o g) = jacobian(f) @ jacobian(g) at random points
    def g(vals):
        x, y = vals
        return [x * y, x + y, jets.sin(x)]

    def f(vals):
        u, v, w = vals
        return [u + v * w, jets.exp(w)]

    for _ in range(10):
        p = RNG.uniform(-1.0, 1.0, 2)
        jg = jet_jacobian(g, p)
        jf = jet_jacobian(f, g(list(p)))
        composed = jet_jacobian(lambda vals: f(g(vals)), p)
        assert np.allclose(composed, jf @ jg, rtol=1e-12, atol=1e-12)


def test_quotient_rule():
    x, y = seed([3.0, 4.0])
    out = x / y
    assert out.value == 0.75
    assert out.partials[0] == pytest.approx(1 / 4.0)
    assert out.partials[1] == pytest.approx(-3.0 / 16.0)


def test_negative_and_zero_powers():
    (x,) = seed([2.0])
    assert jets.powi(x, 0) == 1.0
    out = x ** -2
    assert out.value == 0.25
    assert out.partials[0] == pytest.approx(-2.0 * 2.0 ** -3)
    assert jets.powi(3.0, 3) == 27.0
    with pytest.raises(DomainError):
        jets.powi(0.0, -1)


def test_division_by_zero_raises():
    (x,) = seed([0.0])
    with pytest.raises(DomainError):
        1.0 / x
    with pytest.raises(DomainError):
        x / (x * 0.0)


def test_divisor_whose_square_underflows_raises_domain_error():
    # 1e-170 is nonzero, but the quotient rule divides by its square, 0.0.
    (x,) = seed([1e-170])
    with pytest.raises(DomainError):
        1.0 / x
    with pytest.raises(DomainError):
        x / x
    with pytest.raises(DomainError):
        Jet(1.0, (1.0,)) / 1e-170


def test_log_domain():
    with pytest.raises(DomainError):
        jets.log(0.0)
    with pytest.raises(DomainError):
        jets.log(-1.0)
    (x,) = seed([2.0])
    out = jets.log(x)
    assert out.partials[0] == 0.5


@pytest.mark.parametrize("fn", [jets.sin, jets.cos])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_sin_and_cos_of_an_infinite_argument_raise_domain_error(fn, value):
    with pytest.raises(DomainError):
        fn(value)
    with pytest.raises(DomainError):
        fn(seed([value])[0])
    with pytest.raises(DomainError):
        fn(seed(seed([value]))[0])
    assert math.isnan(fn(math.nan))


def test_domain_error_is_value_error():
    assert issubclass(DomainError, ValueError)


def test_finite_difference_oracle():
    cases = [
        (lambda v: [jets.sin(v[0] * v[1]) + v[1] ** 2], 2),
        (lambda v: [jets.exp(v[0]) / (2.0 + jets.cos(v[1]))], 2),
        (lambda v: [jets.log(3.0 + v[0]), v[0] * v[0] * v[1]], 2),
    ]
    h = 1e-6
    for fn, dim in cases:
        for _ in range(5):
            p = RNG.uniform(-1.0, 1.0, dim)
            exact = jet_jacobian(fn, p)
            fd = np.zeros_like(exact)
            for j in range(dim):
                step = np.zeros(dim)
                step[j] = h
                hi = np.array([deep_value(u) for u in fn(list(p + step))])
                lo = np.array([deep_value(u) for u in fn(list(p - step))])
                fd[:, j] = (hi - lo) / (2 * h)
            assert np.allclose(exact, fd, rtol=1e-6, atol=1e-6)


def test_nested_jets_give_hessian():
    # Hessian of sin(x*y) through jets over jets
    def f(vals):
        return jets.sin(vals[0] * vals[1])

    x0, y0 = 0.6, -0.3
    outer = seed([x0, y0])
    values, rows = generic_jacobian(lambda vs: [f(vs)], outer)
    hessian = np.array([[p for p in partials_of(entry, 2)] for entry in rows[0]])
    s, c = math.sin(x0 * y0), math.cos(x0 * y0)
    # The pass's value is sin(x*y) there, itself a jet of its gradient.
    assert values[0].value == s
    assert values[0].partials == tuple(entry.value for entry in rows[0])
    expected = np.array(
        [
            [-s * y0 * y0, c - s * x0 * y0],
            [c - s * x0 * y0, -s * x0 * x0],
        ]
    )
    assert np.allclose(hessian, expected, atol=1e-12)


def test_jet_directional_matches_gradient():
    def f(vals):
        return vals[0] * vals[0] * vals[1] + jets.cos(vals[1])

    p = [0.4, 1.3]
    d = [2.0, -1.0]
    grad = jet_gradient(f, p)
    assert jet_directional(f, p, d) == pytest.approx(grad @ np.array(d), rel=1e-14)


def test_gradient_example():
    grad = jet_gradient(lambda v: v[0] * v[1], [2.0, 3.0])
    assert grad.tolist() == [3.0, 2.0]


def test_arity_mismatch_raises():
    a = Jet(1.0, (1.0, 0.0))
    b = Jet(1.0, (1.0,))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        partials_of(a, 3)


def test_scalar_mixing():
    (x,) = seed([3.0])
    out = 2.0 * x + 1 - x / 2.0
    assert out.value == 5.5
    assert out.partials[0] == 1.5
    out = 6.0 / x
    assert out.partials[0] == pytest.approx(-6.0 / 9.0)


def test_constant_function_has_zero_derivative():
    assert jet_gradient(lambda v: 5.0, [1.0, 2.0]).tolist() == [0.0, 0.0]


# -- the ring operations against the general product rule ----------------------

def _general(op, u, w):
    """u op w by the general rule, a scalar standing for a jet of zero partials."""
    if isinstance(w, Jet):
        if w.arity != u.arity:
            raise ValueError(f"jet arity mismatch: {u.arity} vs {w.arity}")
        wv, wp = w.value, w.partials
    else:
        wv, wp = w, (0.0,) * u.arity
    if op == "add":
        return Jet(u.value + wv, tuple(p + q for p, q in zip(u.partials, wp)))
    if op == "sub":
        return Jet(u.value - wv, tuple(p - q for p, q in zip(u.partials, wp)))
    return Jet(u.value * wv, tuple(p * wv + u.value * q for p, q in zip(u.partials, wp)))


def _bits(u):
    """Type and exact bytes of every float inside a possibly nested jet.

    Any NaN reads the same: CPython's specialized and generic float paths
    may pick different operands' NaN when adding two NaNs.
    """
    if isinstance(u, Jet):
        return ("jet", _bits(u.value), tuple(_bits(p) for p in u.partials))
    return (type(u).__name__, "nan" if math.isnan(u) else np.float64(u).tobytes())


_SPECIAL = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]


def _special_jet(rng, arity, nested=False):
    pick = lambda: _SPECIAL[int(rng.integers(len(_SPECIAL)))]
    if nested:
        return Jet(_special_jet(rng, arity), [_special_jet(rng, arity) for _ in range(arity)])
    return Jet(pick(), [pick() for _ in range(arity)])


@pytest.mark.parametrize("nested", [False, True])
def test_ring_operations_match_the_general_rule_bitwise(nested):
    rng = np.random.default_rng(8)
    scalars = [0.0, -0.0, 2, -3, 0, np.float64(-0.0), np.float64(2.5), math.inf, math.nan, True]
    with np.errstate(all="ignore"):
        for _ in range(300):
            arity = int(rng.integers(0, 4))
            u = _special_jet(rng, arity, nested)
            others = [_special_jet(rng, arity, nested)] + scalars
            for w in others:
                assert _bits(u + w) == _bits(_general("add", u, w))
                assert _bits(u - w) == _bits(_general("sub", u, w))
                assert _bits(u * w) == _bits(_general("mul", u, w))
                if type(w) in (int, float, bool):  # numpy scalars dispatch reflected ops themselves
                    assert _bits(w + u) == _bits(_general("add", u, w))
                    assert _bits(w * u) == _bits(_general("mul", u, w))
            assert _bits(-u) == _bits(Jet(-u.value, tuple(-p for p in u.partials)))


def test_scalar_operand_keeps_signed_zero_and_nan_partials():
    u = Jet(-1.0, (0.0,))
    assert math.copysign(1.0, (u * 0.0).partials[0]) == 1.0  # 0*0 + (-1)*0 = 0 + -0 = 0
    assert math.copysign(1.0, (Jet(-1.0, (-0.0,)) * 2).partials[0]) == -1.0
    assert (Jet(-0.0, (-0.0,)) + 0).partials == (0.0,)
    assert math.copysign(1.0, (Jet(-0.0, (-0.0,)) - 0.0).partials[0]) == -1.0
    assert math.isnan((Jet(math.inf, (1.0,)) * 2.0).partials[0])


def test_arity_mismatch_message():
    a, b = Jet(1.0, (1.0, 0.0)), Jet(1.0, (1.0,))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError, match=r"^jet arity mismatch: 2 vs 1$"):
            op()
    with pytest.raises(ValueError, match=r"^jet arity mismatch: 1 vs 2$"):
        b * a


def test_ring_operations_leave_other_operands_to_them():
    u = Jet(1.0, (1.0,))
    assert u.__add__("x") is NotImplemented
    assert u.__sub__([1.0]) is NotImplemented
    assert u.__truediv__((1.0,)) is NotImplemented


def test_an_array_is_a_constant_operand_on_either_side():
    # An (N,) array holds one constant per row; numpy defers to the jet, so
    # no order of operands builds an object array.
    u, c = Jet(np.array([1.0, 2.0]), (1.0,)), np.array([3.0, 4.0])
    for out, value, partial in [
        (u * c, [3.0, 8.0], [3.0, 4.0]),
        (c * u, [3.0, 8.0], [3.0, 4.0]),
        (c + u, [4.0, 6.0], [1.0, 1.0]),
        (c - u, [2.0, 2.0], [-1.0, -1.0]),
        (c / u, [3.0, 2.0], [-3.0, -1.0]),
        (u / c, [1 / 3, 0.5], [1 / 3, 0.25]),
    ]:
        assert isinstance(out, Jet)
        np.testing.assert_allclose(out.value, value, rtol=1e-15)
        np.testing.assert_allclose(out.partials[0], partial, rtol=1e-15)


@pytest.mark.parametrize("n", [-1, -2, -3])
def test_powi_of_a_jet_at_a_negative_power_has_the_walks_value(n):
    # The value is numpy's u ** n bit for bit, at a batch and at each of its
    # floats alone; the derivative n u^(n-1) is the quotient rule's
    # -(k u^(k-1)) / (u^k u^k), k = -n, to a few ulps.
    us = RNG.uniform(0.5, 2.0, 500)
    k = -n
    for u, want in zip(us.tolist(), (us ** n).tolist()):
        out = powi(Jet(u, [1.0]), n)
        assert out.value.hex() == want.hex()
        quotient = -(k * u ** (k - 1) * 1.0) / (u ** k * u ** k)
        assert abs(out.partials[0] - quotient) <= 4 * math.ulp(quotient)
    batched = powi(Jet(us, [np.ones_like(us)]), n)
    assert batched.value.tobytes() == (us ** n).tobytes()
    quotient = -(k * us ** (k - 1) * 1.0) / (us ** k * us ** k)
    assert np.all(np.abs(batched.partials[0] - quotient) <= 4 * np.spacing(np.abs(quotient)))


def test_powi_of_a_batch_holding_zero_at_a_negative_power_is_a_domain_error():
    with pytest.raises(DomainError):
        powi(np.array([1.0, 0.0, 2.0]), -2)
    assert powi(np.array([1.0, 2.0]), -2).tolist() == [1.0, 0.25]


def test_jet_directional_refuses_mismatched_dimensions():
    with pytest.raises(ValueError):
        jet_directional(lambda vs: vs[0] * vs[1], [0.1, 0.2], [1.0])


@pytest.mark.parametrize(
    "point, direction",
    [
        pytest.param([1.0, 2.0], np.array([[1.0, 2.0], [3.0, 4.0]]), id="one-point-two-directions"),
        pytest.param(np.ones((3, 2)), np.ones((1, 2)), id="three-points-one-row"),
        pytest.param(np.ones((3, 2)), np.ones((2, 2)), id="three-points-two-rows"),
    ],
)
def test_jet_directional_refuses_a_batch_of_directions_of_another_shape(point, direction):
    with pytest.raises(ValueError, match="a batch of directions needs the shape of its points"):
        jet_directional(lambda vs: vs[0] * vs[1], point, direction)


def test_jet_directional_takes_one_direction_for_a_whole_batch():
    points = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = jet_directional(lambda vs: vs[0] * vs[1], points, np.array([1.0, -1.0]))
    assert out.tolist() == [p[1] - p[0] for p in points.tolist()]


def test_jet_directional_of_a_constant_at_a_batch_is_zero_per_row():
    out = jet_directional(lambda vs: 3.0, np.ones((4, 2)), np.ones((4, 2)))
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [0.0] * 4


def test_only_jets_turns_points_into_columns_and_back():
    # Other modules go through values_at and value_and_jacobian.
    private = {"_columns", "_as_array"}
    package = Path(jets.__file__).parent
    uses = []
    for path in sorted(package.rglob("*.py")):
        if path == Path(jets.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (
                isinstance(node, ast.Attribute) and node.attr in private
                and isinstance(node.value, ast.Name) and node.value.id == "jets"
            ) or (
                isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "jets"
                and any(alias.name in private for alias in node.names)
            )
            if named:
                uses.append(f"{path.relative_to(package)}:{node.lineno}")
    assert uses == []
