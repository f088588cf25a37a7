import numpy as np
import pytest

from dvbcalc import jets
from dvbcalc.charts import Chart, Connection, TrivialBundle
from dvbcalc.dvb import DualAElement, DvbShape, IncompatibleElements, elements_equal
from dvbcalc.expressions import Add
from dvbcalc.smoothmaps import (
    DimensionMismatch,
    MatrixMap,
    SmoothMap,
    directional_derivative,
    jacobian,
    lie_bracket,
)
from dvbcalc.sections import LinearSectionA
from dvbcalc.tangent import (
    canonical_involution,
    complete_lift,
    connection_grid,
    covariant_derivative_via_warp,
    double_tangent_grid,
    horizontal_field,
    lie_bracket_via_warp,
    linear_vector_field_operator,
    tangent_bundle_shape,
    tangent_lift,
)

import support

RNG = np.random.default_rng(20240818)


def _bundle(n, k):
    return TrivialBundle(Chart(n), k)


def _random_connection(rng, bundle):
    n, k = bundle.chart.dim, bundle.fiber_dim
    coeff = support.poly_map(rng, n, n * k * k, degree=1)
    return Connection.from_smooth_map(bundle, coeff)


def test_complete_lift_formula():
    x_field = SmoothMap.parse(["x1", "-x0"], 2)
    lifted = complete_lift(x_field)([1.0, 2.0], [3.0, 4.0])
    assert lifted.m.tolist() == [1.0, 2.0]
    assert lifted.a.tolist() == [3.0, 4.0]
    assert lifted.b.tolist() == [2.0, -1.0]
    assert lifted.c.tolist() == [4.0, -3.0]


def test_complete_lift_is_involution_of_tangent_lift():
    for _ in range(10):
        n = int(RNG.integers(1, 4))
        x_field = support.poly_map(RNG, n, n)
        x = support.rand_vec(RNG, n)
        v = support.rand_vec(RNG, n)
        direct = complete_lift(x_field)(x, v)
        routed = canonical_involution(tangent_lift(x_field)(x, v))
        assert elements_equal(direct, routed)


def test_involution_is_involutive():
    t = support.tangent_point([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0])
    swapped = canonical_involution(t)
    assert swapped.a.tolist() == [5.0, 6.0]
    assert swapped.b.tolist() == [3.0, 4.0]
    assert swapped.c.tolist() == [7.0, 8.0]
    assert elements_equal(canonical_involution(swapped), t)
    rectangular = support.tangent_point([1.0, 2.0], [3.0], [5.0, 6.0], [7.0])
    with pytest.raises(DimensionMismatch):
        canonical_involution(rectangular)


def test_constant_field_lifts_with_zero_core():
    x_field = SmoothMap.constant([2.0, -1.0], 2)
    lifted = complete_lift(x_field)([0.3, 0.4], [1.0, 1.0])
    assert lifted.b.tolist() == [2.0, -1.0]
    assert lifted.c.tolist() == [0.0, 0.0]


def test_tangent_point_validation():
    with pytest.raises(DimensionMismatch):
        support.tangent_point([1.0, 2.0], [3.0], [5.0], [7.0])
    with pytest.raises(DimensionMismatch):
        complete_lift(SmoothMap.parse(["x0", "x0"], 1))


def test_points_equal_tolerance_and_types():
    t = support.tangent_point([1.0], [2.0], [3.0], [4.0])
    nudged = support.tangent_point([1.0], [2.0], [3.0], [4.0 + 1e-12])
    assert not elements_equal(t, nudged)
    assert elements_equal(t, support.tangent_point([1.0], [2.0], [3.0], [4.0]))
    cot = DualAElement(t.shape, [1.0], [2.0], [3.0], [4.0])
    assert not elements_equal(t, cot)


def test_bracket_via_warp_matches_oracle():
    for _ in range(20):
        n = int(RNG.integers(1, 4))
        x_field = support.poly_map(RNG, n, n)
        y_field = support.poly_map(RNG, n, n)
        m = support.rand_vec(RNG, n)
        from_warp = lie_bracket_via_warp(x_field, y_field, m)
        oracle = lie_bracket(x_field, y_field, m)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.allclose(from_warp, oracle, rtol=0.0, atol=1e-12 * scale)


def test_bracket_demo_pair():
    x_field = SmoothMap.parse(["1", "0"], 2)
    y_field = SmoothMap.parse(["0", "x0"], 2)
    for _ in range(3):
        m = support.rand_vec(RNG, 2)
        assert lie_bracket_via_warp(x_field, y_field, m).tolist() == [0.0, 1.0]
        assert lie_bracket_via_warp(y_field, x_field, m).tolist() == [0.0, -1.0]


def test_horizontal_lift_formula():
    bundle = _bundle(2, 2)
    tensor = RNG.uniform(-1.0, 1.0, (2, 2, 2))
    conn = Connection.constant(bundle, tensor)
    z_field = support.poly_map(RNG, 2, 2)
    x = support.rand_vec(RNG, 2)
    a = support.rand_vec(RNG, 2)
    lift = horizontal_field(conn, z_field)
    lifted = lift(x, a)
    omega = np.tensordot(z_field(x), tensor, axes=(0, 0))
    assert np.array_equal(lifted.b, z_field(x))
    assert np.allclose(lifted.c, -omega @ a, rtol=0.0, atol=1e-14)
    a2 = support.rand_vec(RNG, 2)
    summed = lift(x, a + a2)
    assert np.allclose(
        summed.c,
        lifted.c + lift(x, a2).c,
        rtol=0.0,
        atol=1e-12,
    )
    flat = Connection.flat(bundle)
    assert horizontal_field(flat, z_field)(x, a).c.tolist() == [0.0, 0.0]


def test_horizontal_lift_is_a_derivation_on_momentum_functions():
    # X^H applied to the fiberwise-linear function of a dual section equals
    # the function of the dual covariant derivative, and pullbacks of base
    # functions differentiate to the base directional derivative.
    bundle = _bundle(2, 2)
    conn = _random_connection(RNG, bundle)
    z_field = support.poly_map(RNG, 2, 2)
    phi = support.poly_map(RNG, 2, 2)
    x = support.rand_vec(RNG, 2)
    a = support.rand_vec(RNG, 2)
    lifted = horizontal_field(conn, z_field)(x, a)
    direction = np.concatenate([lifted.b, lifted.c])

    def momentum(vals):
        phi_vals = phi.eval_generic(vals[:2])
        total = 0.0
        for p, fib in zip(phi_vals, vals[2:]):
            total = total + p * fib
        return total

    derivative = jets.jet_directional(momentum, list(np.concatenate([x, a])), direction)
    expected = float(conn.dual_nabla(z_field, phi, x) @ a)
    assert abs(derivative - expected) <= 1e-12 * max(1.0, abs(expected))

    f = support.poly_map(RNG, 2, 1)
    pullback = jets.jet_directional(
        lambda vals: f.eval_generic(vals[:2])[0],
        list(np.concatenate([x, a])),
        direction,
    )
    assert abs(pullback - directional_derivative(f, z_field, x)) <= 1e-12


def test_covariant_warp_matches_nabla():
    for _ in range(10):
        n = int(RNG.integers(1, 3))
        k = int(RNG.integers(1, 4))
        bundle = _bundle(n, k)
        conn = _random_connection(RNG, bundle)
        z_field = support.poly_map(RNG, n, n)
        mu = support.poly_map(RNG, n, k)
        m = support.rand_vec(RNG, n)
        from_warp = covariant_derivative_via_warp(conn, z_field, mu, m)
        direct = conn.nabla(z_field, mu, m)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.allclose(from_warp, direct, rtol=0.0, atol=1e-12 * scale)


def test_flat_connection_warp_is_directional_derivative():
    bundle = _bundle(2, 3)
    conn = Connection.flat(bundle)
    z_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 3)
    m = support.rand_vec(RNG, 2)
    from_warp = covariant_derivative_via_warp(conn, z_field, mu, m)
    expected = jacobian(mu, m) @ z_field(m)
    assert np.allclose(from_warp, expected, rtol=0.0, atol=1e-12)
    constant_mu = SmoothMap.constant([1.0, 2.0, 3.0], 2)
    assert covariant_derivative_via_warp(conn, z_field, constant_mu, m).tolist() == [0.0, 0.0, 0.0]


def test_linear_vector_field_operator_closed_form():
    bundle = _bundle(2, 2)
    base = support.poly_map(RNG, 2, 2)
    matrix = support.matrix_map(RNG, 2, 2, 2)
    shape = tangent_bundle_shape(bundle)
    field = LinearSectionA(shape, base, matrix)
    mu = support.poly_map(RNG, 2, 2)
    m = support.rand_vec(RNG, 2)
    operator = linear_vector_field_operator(field)
    expected = jacobian(mu, m) @ base(m) - matrix(m) @ mu(m)
    assert np.allclose(operator(mu, m), expected, rtol=0.0, atol=1e-12)

    zero_field = LinearSectionA(
        shape, SmoothMap.constant([0.0, 0.0], 2), MatrixMap.constant(np.zeros((2, 2)))
    )
    assert linear_vector_field_operator(zero_field)(mu, m).tolist() == [0.0, 0.0]


def test_linear_vector_field_operator_is_additive_in_the_section():
    bundle = _bundle(2, 2)
    conn = _random_connection(RNG, bundle)
    z_field = support.poly_map(RNG, 2, 2)
    field = horizontal_field(conn, z_field)
    operator = linear_vector_field_operator(field)
    mu1 = support.poly_map(RNG, 2, 2)
    mu2 = support.poly_map(RNG, 2, 2)
    mu_sum = SmoothMap(
        2, tuple(Add(c1, c2) for c1, c2 in zip(mu1.components, mu2.components))
    )
    m = support.rand_vec(RNG, 2)
    combined = operator(mu_sum, m)
    separate = operator(mu1, m) + operator(mu2, m)
    assert np.allclose(combined, separate, rtol=0.0, atol=1e-12)
    # The horizontal-lift operator is exactly the covariant derivative.
    assert np.allclose(
        operator(mu1, m), conn.nabla(z_field, mu1, m), rtol=0.0, atol=1e-12
    )


def test_tangent_bundle_shape():
    assert tangent_bundle_shape(_bundle(3, 2)) == DvbShape(2, 3, 2, 3)


def test_connection_grid_rejects_a_section_of_another_rank():
    conn = _random_connection(RNG, _bundle(2, 3))
    with pytest.raises(IncompatibleElements):
        connection_grid(conn, support.poly_map(RNG, 2, 2), support.poly_map(RNG, 2, 2))


def test_lifts_equal_their_linear_sections():
    # The grids are built from the lifts: each grid section is bitwise the lift.
    x_field = support.poly_map(RNG, 2, 2)
    y_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 3)
    conn = _random_connection(RNG, _bundle(2, 3))
    assert tangent_lift(mu).shape == tangent_bundle_shape(conn.bundle)
    for _ in range(5):
        m = support.rand_vec(RNG, 2)
        v = support.rand_vec(RNG, 2)
        a = support.rand_vec(RNG, 3)
        grid = double_tangent_grid(x_field, y_field)
        assert elements_equal(complete_lift(x_field)(m, v), grid.eta(m, v))
        assert elements_equal(tangent_lift(y_field)(m, v), grid.xi(m, v))
        grid = connection_grid(conn, x_field, mu)
        assert elements_equal(tangent_lift(mu)(m, v), grid.xi(m, v))
        assert elements_equal(horizontal_field(conn, x_field)(m, a), grid.eta(m, a))


def test_connection_grid_shape_and_warp():
    bundle = _bundle(2, 2)
    conn = _random_connection(RNG, bundle)
    z_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 2)
    grid = connection_grid(conn, z_field, mu)
    assert grid.shape == DvbShape(2, 2, 2, 2)
    m = support.rand_vec(RNG, 2)
    assert np.allclose(
        covariant_derivative_via_warp(conn, z_field, mu, m),
        conn.nabla(z_field, mu, m),
        rtol=0.0,
        atol=1e-12,
    )


def test_double_tangent_grid_validation():
    # Grid's shape check rejects a Y on another chart and a Y that is not a vector field.
    with pytest.raises(IncompatibleElements):
        double_tangent_grid(SmoothMap.parse(["x0"], 1), SmoothMap.parse(["x0", "x1"], 2))
    with pytest.raises(IncompatibleElements):
        double_tangent_grid(SmoothMap.parse(["x0", "x1"], 2), SmoothMap.parse(["x0", "x0", "x1"], 2))


def test_linear_vector_field_validation():
    bundle = _bundle(2, 2)
    shape = tangent_bundle_shape(bundle)
    with pytest.raises(IncompatibleElements):
        LinearSectionA(shape, SmoothMap.parse(["x0"], 2), MatrixMap.constant(np.zeros((2, 2))))
    with pytest.raises(IncompatibleElements):
        LinearSectionA(
            shape, support.poly_map(RNG, 2, 2), MatrixMap.constant(np.zeros((1, 2)))
        )
    with pytest.raises(IncompatibleElements):
        horizontal_field(Connection.flat(bundle), SmoothMap.parse(["x0"], 2))
