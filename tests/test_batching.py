"""The batch axis of the calculus layers: a call at an (N, dim) batch of
points returns, row by row, what the call at each point returns.

Two cases: random families, whose member r is the map of row r, called at
point r, and the deep named maps of ``perfbench/named_maps.json``, the same
maps at every row.  In the family case the degree-2 maps are
``PolyFamily`` coefficient arrays, as the calculus suites draw them, and
the connection's degree-1 coefficients a tree whose ``Num`` leaves hold one
coefficient per row; each row's reference is the tree ``_poly_tree``
builds from that row's draw.
"""

from functools import cache
from pathlib import Path

import numpy as np
import pytest

from dvbcalc import cotangent as ct
from dvbcalc import expressions, jets, tangent
from dvbcalc.charts import Chart, Connection, TrivialBundle
from dvbcalc.dvb import DualAElement, DvbElement
from dvbcalc.harness import suites
from dvbcalc.harness.problem import ProblemSpec
from dvbcalc.jets import DomainError, Jet
from dvbcalc.sections import SectionAt
from dvbcalc.smoothmaps import (
    MatrixMap,
    SmoothMap,
    directional_derivative,
    jacobian,
    lie_bracket,
    lie_bracket_generic,
)

import support

ROOT = Path(__file__).resolve().parents[1]
NAMED = ProblemSpec.from_file(str(ROOT / "perfbench" / "named_maps.json"))
SIZES = [1, 2, 64, 65]


class Case:
    """The maps of one batch: ``batch`` holds the maps called at all rows,
    ``rows[r]`` the maps that row r stands for, each called at one point."""

    def __init__(self, batch: dict, rows: list[dict], point: np.ndarray, fiber: np.ndarray):
        self.batch, self.rows, self.point, self.fiber = batch, rows, point, fiber


def _connection(coefficients: SmoothMap, chart, k: int) -> Connection:
    return Connection.from_smooth_map(TrivialBundle(chart, k), coefficients)


@cache
def _family_case(n: int) -> Case:
    # Replaying the seed gives each role's block; member r is the tree of
    # its row r, as _poly_map builds it.
    rng, replay = np.random.default_rng(n), np.random.default_rng(n)
    dim, k = 3, 2
    # role: (codim, degree); the connection's coefficients are of degree 1.
    roles = {"x": (dim, 2), "y": (dim, 2), "f": (1, 2), "mu": (k, 2), "phi": (k, 2)}
    roles["coeffs"] = (dim * k * k, 1)
    batch, rows = {}, [{} for _ in range(n)]
    for role, (codim, degree) in roles.items():
        family = suites._quadratic_family if degree == 2 else suites._poly_family
        batch[role] = family(rng, n, dim, codim)
        coeffs, pairs = suites._poly_draw(replay, n, dim, codim, degree)
        for r, maps in enumerate(rows):
            maps[role] = suites._poly_tree(dim, coeffs[r], None if pairs is None else pairs[r])
    chart = Chart(dim)
    for maps in [batch, *rows]:
        maps["conn"] = _connection(maps.pop("coeffs"), chart, k)
    return Case(batch, rows, rng.uniform(-1.0, 1.0, (n, dim)), rng.uniform(-1.0, 1.0, (n, k)))


@cache
def _named_case(n: int) -> Case:
    rng = np.random.default_rng(n)
    fields = NAMED.fields
    maps = {
        "x": fields["A"],
        "y": fields["B"],
        "f": SmoothMap(3, (fields["C"].components[0],)),
        "mu": NAMED.sections["mu"],
        "phi": fields["D"],
        "conn": NAMED.connection,
    }
    point = NAMED.chart.lows + NAMED.chart.spans * rng.random((n, 3))
    return Case(maps, [maps] * n, point, rng.uniform(-1.0, 1.0, (n, 3)))


CASES = {"family": _family_case, "named": _named_case}


def _eval(m, x, v):
    return np.asarray(m["x"].eval_generic(jets._columns(x)))


def _eval_batched(m, x, v):
    values = m["x"].eval_generic(list(x.T))
    return np.stack([np.broadcast_to(value, len(x)) for value in values], axis=1)


def _directional(m, x, v):
    at = np.concatenate([x, v], axis=-1)
    return jets.jet_directional(ct.momentum_function(m["phi"]), at, at)


def _directional_single(m, x, v):
    return jets.jet_directional(ct.momentum_function(m["phi"]), [*x, *v], [*x, *v])


def _bracket_jacobian(m, x, v):
    # Nested jets: lie_bracket_generic seeds its own jets over these.
    return jets.jet_jacobian(lambda vs: lie_bracket_generic(m["x"], m["y"], vs), x)


def _gradient(m, x, v):
    return jets.jet_gradient(lambda vs: m["f"].eval_generic(vs)[0], x)


def _cotangent_shape(k):
    return tangent.tangent_bundle_shape(TrivialBundle(Chart(3), k))


def _flat_cotangent_point(x, v):
    """A flat point (x, psi; chi, Y) of T*(A*) over the fiber of v."""
    return np.concatenate([x, v, x * 0.5, v[..., ::-1]], axis=-1)


def _flip_form_defects(m, x, v):
    at = _flat_cotangent_point(x, v)
    bundle = TrivialBundle(Chart(3), v.shape[-1])
    return np.stack(ct.flip_form_defects(bundle, at, at[..., ::-1], at * 0.5), axis=-1)


def _canonical_two_form(m, x, v):
    at = _flat_cotangent_point(x, v)
    return ct.canonical_two_form(at, at[..., ::-1], at * 0.5)


def _flip_relation(m, x, v):
    f = DualAElement(_cotangent_shape(v.shape[-1]), x, v, x * 0.5, v[..., ::-1])
    return ct.flip_relation_residual(f, x[..., ::-1], v * 0.5, v + 1.0)


def _via_sections(m, x, v):
    mu, phi = m["mu"], m["phi"]
    shape = _cotangent_shape(mu.codomain_dim)
    xc = DvbElement(shape, x, phi(x), x * 0.5, v)
    xi = DvbElement(shape, x, mu(x), x * 0.5, v[..., ::-1])
    return ct.tangent_pairing_via_sections(xc, xi, mu, phi)


# Each call, made at all rows at once and at each row alone: (batched, single),
# where single None means the same function at one point.
CALLS = {
    "evaluate": (_eval_batched, _eval),
    "call": (lambda m, x, v: m["x"](x), None),
    "jacobian": (lambda m, x, v: jacobian(m["x"], x), None),
    "lie_bracket": (lambda m, x, v: lie_bracket(m["x"], m["y"], x), None),
    "lie_bracket_generic_jacobian": (_bracket_jacobian, None),
    "lie_bracket_via_warp": (lambda m, x, v: tangent.lie_bracket_via_warp(m["x"], m["y"], x), None),
    "directional_derivative": (lambda m, x, v: directional_derivative(m["f"], m["x"], x), None),
    "jet_directional": (_directional, _directional_single),
    "jet_gradient": (_gradient, None),
    "matrix_from_smooth_map": (lambda m, x, v: MatrixMap.from_smooth_map(m["x"], 1, 3)(x), None),
    "matrix_from_jacobian": (lambda m, x, v: MatrixMap.from_jacobian(m["mu"])(x), None),
    "matrix_constant": (lambda m, x, v: MatrixMap.constant(np.eye(2, 3))(x), None),
    "coefficient_tensor": (lambda m, x, v: m["conn"].coefficient_tensor(x), None),
    "omega": (lambda m, x, v: m["conn"].omega(m["x"], x), None),
    "nabla": (lambda m, x, v: m["conn"].nabla(m["x"], m["mu"], x), None),
    "dual_nabla": (lambda m, x, v: m["conn"].dual_nabla(m["x"], m["phi"], x), None),
    "covariant_derivative_via_warp": (
        lambda m, x, v: tangent.covariant_derivative_via_warp(m["conn"], m["x"], m["mu"], x),
        None,
    ),
    "ell_differential": (lambda m, x, v: ct.ell_differential(m["mu"], x, v), None),
    "squarecap_tangent_lift": (lambda m, x, v: ct.squarecap_tangent_lift(m["y"], x, x * 0.5), None),
    "squarecap_horizontal": (lambda m, x, v: ct.squarecap_horizontal(m["conn"], m["x"], x, v), None),
    "tangent_lift_at": (lambda m, x, v: tangent.tangent_lift(m["mu"]).at(x), None),
    "horizontal_field_at": (lambda m, x, v: tangent.horizontal_field(m["conn"], m["x"]).at(x), None),
    "flip_form_defects": (_flip_form_defects, None),
    "canonical_two_form": (_canonical_two_form, None),
    "flip_relation_residual": (_flip_relation, None),
    "tangent_pairing_via_sections": (_via_sections, None),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_batched_call_equals_its_rows(call, case, n):
    data = CASES[case](n)
    batched_fn, single_fn = CALLS[call]
    single_fn = single_fn or batched_fn
    batched = batched_fn(data.batch, data.point, data.fiber)
    per_row = [single_fn(maps, x, v) for maps, x, v in zip(data.rows, data.point, data.fiber)]
    support.assert_rows(batched, per_row)


def test_a_batched_section_value_is_one_section_at():
    data = _family_case(5)
    value = tangent.complete_lift(data.batch["x"]).at(data.point)
    assert isinstance(value, SectionAt)
    assert (value.m.shape, value.base.shape, value.matrix.shape) == ((5, 3), (5, 3), (5, 3, 3))


def test_no_path_builds_an_object_array():
    u, c = Jet(np.array([1.0, 2.0]), (np.ones((2, 2)),)), np.array([3.0, 4.0])
    for value in (c * u, c + u, c - u, c / u, u ** 2, jets.sin(u), jets.exp(u), jets.log(u)):
        assert isinstance(value, Jet)
        assert value.value.dtype == np.float64 and value.partials[0].dtype == np.float64
    data = _named_case(3)
    for batched_fn, _ in CALLS.values():
        for array in support.arrays_of(batched_fn(data.batch, data.point, data.fiber)):
            assert array.dtype == np.float64


def test_a_float_point_keeps_the_float_path():
    # One point goes through math and float arithmetic.
    a = NAMED.fields["A"]
    point = [0.3, -0.2, 1.5]
    values = [expressions.evaluate(c, point) for c in a.components]
    assert all(type(v) is float for v in values)
    assert a(point).tolist() == values


@pytest.mark.parametrize(
    "text, good, bad, error",
    [
        ("log(x0)", 2.0, -0.5, DomainError),
        ("1/x0", 2.0, 0.0, DomainError),
        ("sin(x0*1e308*10)", 0.0, 1.0, DomainError),
        ("exp(exp(exp(exp(x0*10))))", -5.0, 1.0, OverflowError),
        ("(x0+10)^400", -5.0, 1.0, OverflowError),
    ],
)
def test_one_bad_row_raises_what_the_float_path_raises(text, good, bad, error):
    m = SmoothMap.parse([text], 1)
    good = np.full((4, 1), good)
    with pytest.raises(error):
        m([bad])
    with pytest.raises(error), np.errstate(all="ignore"):
        m(np.concatenate([good, [[bad]], good]))
    with pytest.raises(error), np.errstate(all="ignore"):
        jacobian(m, np.concatenate([good, [[bad]]]))
    m(good)


def test_a_multiplication_overflow_row_is_a_silent_inf():
    m = SmoothMap.parse(["x0*1e308*10"], 1)
    with np.errstate(all="ignore"):
        values = m(np.array([[1.0], [0.0]]))
    assert values[0, 0] == np.inf and values[1, 0] == 0.0
    assert m([1.0])[0] == np.inf
