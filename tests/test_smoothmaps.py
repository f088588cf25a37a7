import numpy as np
import pytest

from dvbcalc import jets
from dvbcalc.expressions import ParseError
from dvbcalc.harness import suites
from dvbcalc.smoothmaps import (
    DimensionMismatch,
    MatrixMap,
    PolyFamily,
    SmoothMap,
    directional_derivative,
    jacobian,
    lie_bracket,
    lie_bracket_generic,
)

import support

RNG = np.random.default_rng(77)


def test_eval_componentwise():
    m = SmoothMap.parse(["x0*x1", "x0+x1", "x1^2"], 2)
    assert m([2.0, 3.0]).tolist() == [6.0, 5.0, 9.0]
    assert m.codomain_dim == 3


def test_constant_map():
    m = SmoothMap.constant([1.5, -2.0], 3)
    assert m([0.1, 0.2, 0.3]).tolist() == [1.5, -2.0]
    assert jacobian(m, [0.1, 0.2, 0.3]).tolist() == [[0.0] * 3, [0.0] * 3]


def test_jacobian_example():
    m = SmoothMap.parse(["x0*x1", "x0+x1", "x1^2"], 2)
    assert jacobian(m, [2.0, 3.0]).tolist() == [[3.0, 2.0], [1.0, 1.0], [0.0, 6.0]]


def test_jacobian_of_linear_map_is_constant():
    m = SmoothMap.parse(["2*x0 - x1", "x0 + 3*x1"], 2)
    expected = [[2.0, -1.0], [1.0, 3.0]]
    for _ in range(4):
        p = RNG.uniform(-5.0, 5.0, 2)
        assert jacobian(m, p).tolist() == expected


def test_jacobian_against_finite_differences():
    m = SmoothMap.parse(["sin(x0*x1)", "exp(x1)/(2 + cos(x0))", "x0^3 - x1"], 2)
    h = 1e-6
    for _ in range(5):
        p = RNG.uniform(-1.0, 1.0, 2)
        exact = jacobian(m, p)
        fd = np.zeros_like(exact)
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            fd[:, j] = (m(p + step) - m(p - step)) / (2 * h)
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-6)


def test_jacobian_reuse_keys_on_signed_zero():
    m = SmoothMap.parse(["x0^2"], 1)
    assert not np.signbit(jacobian(m, [0.0])[0, 0])
    assert np.signbit(jacobian(m, [-0.0])[0, 0])


def test_jacobian_reuse_returns_fresh_arrays():
    m = SmoothMap.parse(["x0*x1", "x0+x1"], 2)
    first = jacobian(m, [2.0, 3.0])
    first[:] = 99.0
    assert jacobian(m, [2.0, 3.0]).tolist() == [[3.0, 2.0], [1.0, 1.0]]


def test_jacobian_domain_error_is_not_reused():
    m = SmoothMap.parse(["log(x0)"], 1)
    for _ in range(2):
        with pytest.raises(jets.DomainError):
            jacobian(m, [-1.0])
    assert jacobian(m, [2.0]).tolist() == [[0.5]]


def test_jacobian_reuse_matches_fresh_map_bitwise():
    texts = ["sin(x0*x1)", "exp(x1)/(2 + cos(x0))", "x0^3 - x1"]
    m = SmoothMap.parse(texts, 2)
    p, q = [0.3, -0.7], [0.3, -0.7000000000000001]
    for point in (p, q, p):
        fresh = SmoothMap.parse(texts, 2)
        assert jacobian(m, point).tobytes() == jacobian(fresh, point).tobytes()
        assert m == fresh


def test_directional_derivative_example():
    f = SmoothMap.parse(["x0*x1"], 2)
    x_field = SmoothMap.parse(["x1", "x0"], 2)
    assert directional_derivative(f, x_field, [1.0, 2.0]) == pytest.approx(5.0)
    constant = SmoothMap.parse(["3"], 2)
    assert directional_derivative(constant, x_field, [1.0, 2.0]) == 0.0
    unit = SmoothMap.parse(["x0"], 2)
    ex = SmoothMap.parse(["1", "0"], 2)
    assert directional_derivative(unit, ex, [0.3, 0.4]) == 1.0


def test_directional_derivative_requires_scalar():
    f = SmoothMap.parse(["x0", "x1"], 2)
    x_field = SmoothMap.parse(["1", "0"], 2)
    with pytest.raises(DimensionMismatch):
        directional_derivative(f, x_field, [0.0, 0.0])


def test_lie_bracket_example():
    x_field = SmoothMap.parse(["1", "0"], 2)
    y_field = SmoothMap.parse(["0", "x0"], 2)
    for _ in range(3):
        p = RNG.uniform(-1.0, 1.0, 2)
        assert lie_bracket(x_field, y_field, p).tolist() == [0.0, 1.0]


def test_lie_bracket_antisymmetry_and_self():
    for _ in range(5):
        x_field = support.poly_map(RNG, 3, 3)
        y_field = support.poly_map(RNG, 3, 3)
        p = RNG.uniform(-1.0, 1.0, 3)
        forward = lie_bracket(x_field, y_field, p)
        backward = lie_bracket(y_field, x_field, p)
        assert np.allclose(forward, -backward, atol=1e-12)
        assert np.allclose(lie_bracket(x_field, x_field, p), 0.0, atol=1e-12)


def test_lie_bracket_constant_fields():
    x_field = SmoothMap.constant([1.0, 2.0], 2)
    y_field = SmoothMap.constant([-3.0, 0.5], 2)
    assert lie_bracket(x_field, y_field, [0.2, 0.4]).tolist() == [0.0, 0.0]


def _double_bracket(x_field, y_field, z_field, values):
    """[X, [Y, Z]] evaluated generically so the inner bracket is differentiated."""
    n = x_field.domain_dim
    inner = lambda vals: lie_bracket_generic(y_field, z_field, vals)
    xv = x_field.eval_generic(values)
    inner_v = inner(values)
    j_inner = jets.generic_jacobian(inner, values)
    j_x = jets.generic_jacobian(x_field.eval_generic, values)
    return [
        sum(j_inner[i][j] * xv[j] - j_x[i][j] * inner_v[j] for j in range(n))
        for i in range(n)
    ]


def test_jacobi_identity_via_nested_jets():
    for _ in range(5):
        x_field = support.poly_map(RNG, 2, 2)
        y_field = support.poly_map(RNG, 2, 2)
        z_field = support.poly_map(RNG, 2, 2)
        p = list(RNG.uniform(-1.0, 1.0, 2))
        total = np.zeros(2)
        for a, b, c in [
            (x_field, y_field, z_field),
            (y_field, z_field, x_field),
            (z_field, x_field, y_field),
        ]:
            total += np.array([float(v) for v in _double_bracket(a, b, c, p)])
        assert np.max(np.abs(total)) < 1e-9


def test_dimension_errors():
    with pytest.raises(ParseError):
        SmoothMap.parse(["x2"], 2)
    with pytest.raises(DimensionMismatch):
        SmoothMap(1, SmoothMap.parse(["x0*x1"], 2).components)
    m = SmoothMap.parse(["x0"], 1)
    with pytest.raises(DimensionMismatch):
        m([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        jacobian(m, [1.0, 2.0])
    field_a = SmoothMap.parse(["x0", "x1"], 2)
    field_b = SmoothMap.parse(["x0"], 1)
    with pytest.raises(DimensionMismatch):
        lie_bracket(field_a, field_b, [0.0, 0.0])
    not_square = SmoothMap.parse(["x0", "x1", "x0"], 2)
    with pytest.raises(DimensionMismatch):
        lie_bracket(not_square, field_a, [0.0, 0.0])


def test_matrix_map_reshape_row_major():
    m = SmoothMap.parse(["1", "2", "3", "4", "5", "6"], 0)
    mm = MatrixMap.from_smooth_map(m, 2, 3)
    assert mm([]).tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    with pytest.raises(DimensionMismatch):
        MatrixMap.from_smooth_map(m, 2, 2)


def test_matrix_map_from_jacobian_and_constant():
    m = SmoothMap.parse(["x0*x1", "x0+x1"], 2)
    mm = MatrixMap.from_jacobian(m)
    p = [2.0, 3.0]
    assert mm(p).tolist() == jacobian(m, p).tolist()
    const = MatrixMap.constant(np.array([[1.0, 2.0]]))
    assert const([0.0]).tolist() == [[1.0, 2.0]]
    with pytest.raises(DimensionMismatch):
        MatrixMap.constant(np.array([1.0, 2.0]))


def test_matrix_map_shape_enforced():
    bad = MatrixMap(2, 2, lambda p: np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        bad([0.0])


# -- polynomial families -------------------------------------------------------

def _family_and_rows(seed: int, n: int, dim: int, codim: int):
    """A ``_quadratic_family`` of n members and, replaying its draw, the
    tree ``_poly_tree`` builds from each row, with n points of the chart."""
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    family = suites._quadratic_family(rng, n, dim, codim)
    coeffs, pairs = suites._poly_draw(replay, n, dim, codim)
    rows = [support.poly_tree(dim, coeffs[r], pairs[r]) for r in range(n)]
    return family, rows, rng.uniform(-1.0, 1.0, (n, dim))


def _hessian(m, point):
    """Second partials [c * dim + i, j] from nested jets over eval_generic."""
    def first_partials(vs):
        return [e for row in jets.generic_jacobian(m.eval_generic, vs) for e in row]

    return jets.jet_jacobian(first_partials, point)


@pytest.mark.parametrize("n", [1, 2, 64, 65])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadratic_family_equals_its_row_trees(n, dim):
    family, rows, points = _family_and_rows(n * 10 + dim, n, dim, 2)
    support.assert_rows(family(points), [tree(x) for tree, x in zip(rows, points)])
    support.assert_rows(jacobian(family, points), [jacobian(tree, x) for tree, x in zip(rows, points)])
    hessians = _hessian(family, points)
    support.assert_rows(hessians, [_hessian(tree, x) for tree, x in zip(rows, points)])
    closed = family.quad + np.swapaxes(family.quad, -1, -2)
    assert np.array_equal(hessians, closed.reshape(n, 2 * dim, dim))


def test_a_family_takes_only_a_batch_of_its_own_rows():
    family, _, points = _family_and_rows(3, 4, 2, 2)
    for point in (points[:3], np.concatenate([points, points]), points[0], points[:, :1]):
        with pytest.raises(DimensionMismatch):
            family(point)
        with pytest.raises(DimensionMismatch):
            jacobian(family, point)
    for values in (list(points[0]), list(points[:3].T), [np.float64(0.5)] * 2, list(points.T)[:1]):
        with pytest.raises(DimensionMismatch):
            family.eval_generic(values)
    with pytest.raises(DimensionMismatch):
        PolyFamily(family.c0, family.lin[:, :1], family.quad)
