import numpy as np
import pytest

from dvbcalc.charts import Chart, Connection, TrivialBundle
from dvbcalc.jets import DomainError
from dvbcalc.smoothmaps import DimensionMismatch, SmoothMap

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
    return Connection(bundle, counted), points


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
    conn = Connection(TrivialBundle(Chart(2), 2), lambda m: np.zeros((2, 2)))
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
    used, unused = Connection(bundle, fn), Connection(bundle, fn)
    used.coefficient_tensor([0.5])
    assert used == unused


def test_omega_is_the_contraction_with_the_field():
    for _ in range(20):
        n, k = (int(v) for v in RNG.integers(1, 4, 2))
        tensor = RNG.uniform(-1.0, 1.0, (n, k, k))
        conn = Connection.constant(TrivialBundle(Chart(n), k), tensor)
        z_field = support.poly_map(RNG, n, n)
        m = support.rand_vec(RNG, n)
        expected = np.tensordot(z_field(m), tensor, axes=(0, 0))
        assert conn.omega(z_field, m).tobytes() == expected.tobytes()
