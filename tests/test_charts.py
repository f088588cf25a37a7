import numpy as np
import pytest

from dvbcalc.charts import Chart, Connection, TrivialBundle
from dvbcalc.jets import DomainError
from dvbcalc.smoothmaps import DimensionMismatch, MatrixMap, SmoothMap

import support

RNG = np.random.default_rng(31)


def _counted(fn):
    """fn with a list of the points it was called at."""
    points = []

    def counted(m):
        points.append(list(m))
        return fn(m)

    return counted, points


def _connection(texts, n, k):
    bundle = TrivialBundle(Chart(n), k)
    coeff = SmoothMap.parse(texts, n)
    counted, points = _counted(lambda m: coeff(m).reshape(n, k, k))
    return Connection(bundle, MatrixMap((n, k, k), counted)), points


def test_coefficient_tensor_reuse_returns_fresh_arrays():
    conn, points = _connection(["x0", "x1"], 2, 1)
    first = conn.coefficient_tensor([2.0, 3.0])
    first[:] = 99.0
    second = conn.coefficient_tensor([2.0, 3.0])
    assert second.tolist() == [[[2.0]], [[3.0]]]
    assert second is not conn.coefficient_tensor([2.0, 3.0])
    assert len(points) == 1


def test_coefficient_tensor_reuse_keys_on_signed_zero():
    conn, points = _connection(["x0", "1"], 2, 1)
    assert not np.signbit(conn.coefficient_tensor([0.0, 1.0])[0, 0, 0])
    assert np.signbit(conn.coefficient_tensor([-0.0, 1.0])[0, 0, 0])
    assert len(points) == 2


def test_coefficient_tensor_domain_error_is_not_stored():
    conn, points = _connection(["log(x0)"], 1, 1)
    assert conn.coefficient_tensor([1.0]).tolist() == [[[0.0]]]
    for _ in range(2):
        with pytest.raises(DomainError):
            conn.coefficient_tensor([-1.0])
    assert len(points) == 3
    # The last good point is still the one kept.
    assert conn.coefficient_tensor([1.0]).tolist() == [[[0.0]]]
    assert len(points) == 3


def test_coefficient_tensor_of_the_wrong_shape_is_not_stored():
    conn = Connection(TrivialBundle(Chart(2), 2), MatrixMap((2, 2, 2), lambda m: np.zeros((2, 2))))
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            conn.coefficient_tensor([0.0, 0.0])


def test_coefficient_tensor_reuse_matches_a_fresh_connection_bitwise():
    texts = ["sin(x0*x1)", "exp(x1)/(2 + cos(x0))", "x0^3 - x1", "x1", "0.5", "x0", "x0*x0", "-x1"]
    conn, _ = _connection(texts, 2, 2)
    p, q = [0.3, -0.7], [0.3, -0.7000000000000001]
    for point in (p, q, p, p):
        fresh, _ = _connection(texts, 2, 2)
        assert conn.coefficient_tensor(point).tobytes() == fresh.coefficient_tensor(point).tobytes()


def test_connections_compare_equal_whatever_they_keep():
    bundle = TrivialBundle(Chart(1), 1)
    fn = lambda m: np.ones((1, 1, 1))
    used, unused = (Connection(bundle, MatrixMap((1, 1, 1), fn)) for _ in range(2))
    used.coefficient_tensor([0.5])
    assert used == unused


def test_omega_is_the_contraction_with_the_field():
    for _ in range(20):
        n, k = (int(v) for v in RNG.integers(1, 4, 2))
        tensor = RNG.uniform(-1.0, 1.0, (n, k, k))
        conn = Connection.constant(TrivialBundle(Chart(n), k), tensor)
        z_field = support.poly_map(RNG, n, n)
        m = support.rand_vec(RNG, n)
        # A point is a batch of one: its omega is the row of the batched contraction.
        expected = np.einsum("nj,njab->nab", z_field(m)[None], tensor[None])[0]
        assert conn.omega(z_field, m).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (1, 2, 2), (2, 2, 2, 1)])
def test_connection_coefficients_of_another_shape_are_refused_at_construction(shape):
    bundle = TrivialBundle(Chart(2), 2)
    with pytest.raises(DimensionMismatch):
        Connection(bundle, MatrixMap(shape, lambda m: np.zeros(shape)))
    with pytest.raises(DimensionMismatch):
        Connection.constant(bundle, np.zeros(shape))


def test_charts_and_bundles_refuse_empty_dimensions():
    with pytest.raises(ValueError):
        Chart(-1)
    with pytest.raises(ValueError):
        TrivialBundle(Chart(2), 0)


@pytest.mark.parametrize("dim", [2.0, True, "2", None])
def test_charts_refuse_dimensions_that_are_not_integers(dim):
    with pytest.raises(ValueError, match="a dimension must be an integer"):
        Chart(dim)


def test_a_chart_takes_a_numpy_integer_as_an_int():
    chart = Chart(np.int64(2))
    assert chart == Chart(2) and type(chart.dim) is int and chart.lows.shape == (2,)


@pytest.mark.parametrize("dim", [1.5, True, "1", None])
def test_bundles_refuse_fiber_dimensions_that_are_not_integers(dim):
    with pytest.raises(ValueError, match="a dimension must be an integer"):
        TrivialBundle(Chart(1), dim)


def test_a_bundle_takes_a_numpy_integer_fiber_dimension_as_an_int():
    bundle = TrivialBundle(Chart(1), np.int64(2))
    assert bundle == TrivialBundle(Chart(1), 2) and type(bundle.fiber_dim) is int
    assert Connection.flat(bundle).coefficient_tensor([0.5]).shape == (1, 2, 2)


def test_connection_refuses_fields_and_sections_of_the_wrong_dimension():
    conn = Connection.flat(TrivialBundle(Chart(2), 2))
    z_field, mu = support.poly_map(RNG, 2, 2), support.poly_map(RNG, 2, 2)
    m = [0.1, 0.2]
    with pytest.raises(DimensionMismatch):
        conn.omega(support.poly_map(RNG, 2, 3), m)
    with pytest.raises(DimensionMismatch):
        conn.nabla(z_field, support.poly_map(RNG, 2, 3), m)
    with pytest.raises(DimensionMismatch):
        conn.dual_nabla(z_field, support.poly_map(RNG, 2, 1), m)
    assert conn.nabla(z_field, mu, m).shape == conn.dual_nabla(z_field, mu, m).shape == (2,)


def test_connection_from_a_map_of_the_wrong_codimension_is_refused():
    bundle = TrivialBundle(Chart(2), 2)
    with pytest.raises(DimensionMismatch):
        Connection.from_smooth_map(bundle, support.poly_map(RNG, 2, 7))
    with pytest.raises(DimensionMismatch):
        Connection.from_smooth_map(bundle, support.poly_map(RNG, 3, 8))
