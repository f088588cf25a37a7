import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc import jets, tangent
from dvbcalc.expressions import Add, Num, ParseError, Var
from dvbcalc.harness import cli, suites
from dvbcalc.smoothmaps import (
    DimensionMismatch,
    MatrixMap,
    PolyFamily,
    SmoothMap,
    _point_key,
    directional_derivative,
    jacobian,
    lie_bracket,
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


def _counting_walks(monkeypatch):
    """Count SmoothMap.eval_generic calls on values that are not jets: tree walks for a value."""
    walks = []
    eval_generic = SmoothMap.eval_generic

    def counted(self, values):
        if not any(isinstance(v, jets.Jet) for v in values):
            walks.append(self)
        return eval_generic(self, values)

    monkeypatch.setattr(SmoothMap, "eval_generic", counted)
    return walks


def test_a_call_at_the_jacobians_point_reuses_its_value(monkeypatch):
    texts = ["sin(x0*x1)", "exp(x1)/(2 + cos(x0))", "x0^-2 - x1", "3"]
    m = SmoothMap.parse(texts, 2)
    p, batch = [0.3, -0.7], np.array([[0.3, -0.7], [1.5, 0.25], [-0.5, 2.0]])
    walks = _counting_walks(monkeypatch)
    for point in (p, batch):
        walked = SmoothMap.parse(texts, 2)(point)
        jacobian(m, point)
        reused = m(point)
        assert (reused.tobytes(), reused.strides) == (walked.tobytes(), walked.strides)
    assert len(walks) == 2  # the fresh maps' walks only


def test_a_point_and_its_batch_of_one_share_the_kept_pass(monkeypatch):
    # A MatrixMap takes the Jacobian at the batch of one, so the tangent lift's
    # value at a (dim,) point must come from that pass, as it does at the batch.
    spec = Path(__file__).resolve().parents[1] / "perfbench" / "named_maps.json"
    texts = json.loads(spec.read_text(encoding="utf-8"))["sections"]["mu"]
    mu = SmoothMap.parse(texts, 3)
    p, q = np.array([0.3, -0.7, 1.2]), np.array([[-0.4, 0.9, 0.6]])
    expected = [SmoothMap.parse(texts, 3)(x) for x in (p, q)]
    walks = _counting_walks(monkeypatch)
    for point, value in zip((p, q), expected):
        at = tangent.tangent_lift(mu).at(point)
        assert at.base.tobytes() == value.tobytes() and at.base.shape == value.shape
    assert walks == []
    m = SmoothMap.parse(["x0*x1", "sin(x1)"], 2)
    for taken, called in (([[0.5, 2.0]], [0.5, 2.0]), ([1.5, -1.0], [[1.5, -1.0]])):
        jacobian(m, taken)
        assert m(called).shape == np.shape(called)
        assert jacobian(m, called).shape == (*np.shape(called)[:-1], 2, 2)
    assert walks == []


def test_the_kept_value_is_returned_as_a_fresh_array():
    m = SmoothMap.parse(["x0*x1", "x0+x1"], 2)
    jacobian(m, [2.0, 3.0])
    first = m([2.0, 3.0])
    first[:] = 99.0
    again, third = m([2.0, 3.0]), m([2.0, 3.0])
    assert again.tolist() == [6.0, 5.0]
    assert not np.shares_memory(again, third)


def test_another_point_or_a_signed_zero_walks_the_tree(monkeypatch):
    m = SmoothMap.parse(["x0", "x1^2"], 2)
    jacobian(m, [0.0, 1.0])
    walks = _counting_walks(monkeypatch)
    assert np.signbit(m([-0.0, 1.0])[0])
    m([0.5, 1.0])
    m(np.array([[0.0, 1.0], [0.0, 1.0]]))  # a batch of two rows is another key than its point
    assert len(walks) == 3
    m([0.0, 1.0])
    assert len(walks) == 3


def test_a_jacobian_that_raises_keeps_no_value(monkeypatch):
    # x0^-1 is finite at 1e-160, but its derivative -x0^-2 overflows.
    m = SmoothMap.parse(["x0^-1"], 1)
    jacobian(m, [2.0])
    with pytest.raises(OverflowError):
        jacobian(m, [1e-160])
    walks = _counting_walks(monkeypatch)
    assert m([1e-160]).tolist() == [1e160]
    assert len(walks) == 1
    assert m([2.0]).tolist() == [0.5]  # the last pass that finished is still kept
    assert len(walks) == 1


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equal, except that a NaN matches any NaN (jets may flip a NaN's sign bit)."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def _texts(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.integers(min_value=-4, max_value=4)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda c: f"-({c})"),
    )


_leaves = st.one_of(
    st.sampled_from(["x0", "x1", "x2"]),
    st.sampled_from(["x0^-1", "x1^-2", "x2^-3"]),
    st.floats(min_value=0.0, max_value=4.0).map(repr),
)
_components = st.lists(st.recursive(_leaves, _texts, max_leaves=10), min_size=1, max_size=3)
_coordinates = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=300, deadline=None)
@given(
    _components,
    st.lists(st.lists(_coordinates, min_size=3, max_size=3), min_size=1, max_size=4),
)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a batch's inf and NaN rows
def test_a_seeded_pass_gives_the_walks_value_bitwise(texts, rows):
    # Through every node kind, negative powers included, the value kept by a
    # Jacobian's seeded pass is the tree walk's, at a point and at a batch.
    for point in (rows[0], np.array(rows)):
        m = SmoothMap.parse(texts, 3)
        try:
            walked = SmoothMap.parse(texts, 3)(point)
        except (jets.DomainError, OverflowError):
            # Every guard of the walk also guards the pass.
            with pytest.raises((jets.DomainError, OverflowError)):
                jacobian(m, point)
            continue
        try:
            jacobian(m, point)
        except (jets.DomainError, OverflowError):
            continue  # only a derivative left its domain; nothing is kept
        assert _same_bits(m(point), walked)


@np.errstate(over="ignore", invalid="ignore")  # the batch's inf and NaN rows
def test_a_kept_nan_value_has_the_walks_bits():
    # 2 - NaN keeps the NaN's sign bit; -NaN + 2 would flip it.
    texts = ["2 - (x0*1e300)*(x0*1e300)*0"]
    for point in ([1.0], np.array([[1.0], [2.0]])):
        walked = SmoothMap.parse(texts, 1)(point)
        m = SmoothMap.parse(texts, 1)
        jacobian(m, point)
        assert np.isnan(walked).all()
        assert m(point).tobytes() == walked.tobytes()


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
    inner = lambda vals: support.jet_bracket(y_field, z_field, vals)
    inner_v, j_inner = jets.generic_jacobian(inner, values)
    xv, j_x = jets.generic_jacobian(x_field.eval_generic, values)
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


def test_lie_bracket_refuses_what_is_not_a_pair_of_vector_fields():
    x_field = SmoothMap.parse(["x1", "x0"], 2)
    not_square = SmoothMap.parse(["x0*x1", "x1", "x0"], 2)
    with pytest.raises(DimensionMismatch, match="expected a vector field on the chart"):
        lie_bracket(x_field, not_square, [0.3, 0.7])
    with pytest.raises(DimensionMismatch, match="vector fields live on different charts"):
        lie_bracket(x_field, SmoothMap.parse(["x0"], 1), [0.3, 0.7])


def _float_bracket(x_field, y_field, point) -> np.ndarray:
    """[X, Y] row by row in Python floats, from the fields' own values and
    Jacobians: acc = acc + jY[i][j]*X[j] - jX[i][j]*Y[j] over j in order."""
    arrays = [jacobian(x_field, point), jacobian(y_field, point), x_field(point), y_field(point)]
    shape = arrays[2].shape
    if len(shape) == 1:  # one point: a batch of one row
        arrays = [a[None] for a in arrays]
    rows = []
    for jx, jy, xv, yv in zip(*(a.tolist() for a in arrays)):
        row = []
        for i in range(len(xv)):
            acc = 0.0
            for j in range(len(xv)):
                acc = acc + jy[i][j] * xv[j] - jx[i][j] * yv[j]
            row.append(acc)
        rows.append(row)
    return np.array(rows, dtype=float).reshape(shape)


def _bracket_case(kind: str, n: int | None):
    """Two fields and a float point (n None) or an (n, dim) batch."""
    rng = np.random.default_rng(n or 0)
    if kind == "tree":
        fields, dim = (support.poly_map(rng, 3, 3) for _ in range(2)), 3
    elif kind == "family":
        fields, dim = (suites._quadratic_family(rng, n, 3, 3) for _ in range(2)), 3
    else:
        fields, dim = (SmoothMap(0, ()), SmoothMap(0, ())), 0
    return (*fields, rng.uniform(-1.0, 1.0, dim if n is None else (n, dim)))


@pytest.mark.parametrize(
    "kind, n",
    [("tree", None), ("tree", 1), ("tree", 5), ("tree", 64),
     ("family", 1), ("family", 5), ("family", 64), ("zero-dim", None), ("zero-dim", 5)],
)
def test_lie_bracket_is_the_float_sum_of_each_row_bitwise(kind, n):
    x_field, y_field, point = _bracket_case(kind, n)
    want = _float_bracket(x_field, y_field, point)
    got = lie_bracket(x_field, y_field, point)
    assert got.dtype == np.float64 and got.shape == want.shape == point.shape
    assert got.tobytes() == want.tobytes()


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
    bad = MatrixMap((2, 2), lambda p: np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        bad([0.0])


def test_smooth_map_refuses_a_negative_domain():
    with pytest.raises(DimensionMismatch):
        SmoothMap(-1, ())


@pytest.mark.parametrize("dim", [1.5, True, "1", None])
def test_smooth_map_refuses_a_domain_dimension_that_is_not_an_integer(dim):
    with pytest.raises(ValueError, match="a dimension must be an integer"):
        SmoothMap(dim, (Num(1.0),))


def test_smooth_map_takes_a_numpy_integer_domain_as_an_int():
    m = SmoothMap(np.int64(1), (Num(1.0),))
    assert type(m.domain_dim) is int and m == SmoothMap(1, (Num(1.0),))
    assert m([0.5]).tolist() == [1.0]


def test_a_hand_built_tree_too_deep_to_walk_is_a_value_error():
    chain = Var(0)
    for _ in range(2000):  # a left Add chain, far deeper than Python's stack allows walking
        chain = Add(chain, Num(1.0))
    with pytest.raises(ValueError, match="nested too deep") as err:
        SmoothMap(1, (chain,))
    assert not isinstance(err.value, DimensionMismatch)


def test_directional_derivative_refuses_a_field_of_another_chart():
    f = SmoothMap.parse(["x0*x1"], 2)
    with pytest.raises(DimensionMismatch):
        directional_derivative(f, SmoothMap.parse(["1", "0", "0"], 3), [0.1, 0.2])


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
        return [e for row in jets.generic_jacobian(m.eval_generic, vs)[1] for e in row]

    return jets.jet_jacobian(first_partials, point)


@pytest.mark.parametrize("n", [1, 2, 64, 65])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadratic_family_equals_its_row_trees(n, dim):
    family, rows, points = _family_and_rows(n * 10 + dim, n, dim, 2)
    support.assert_rows(family(points), [tree(x) for tree, x in zip(rows, points)])
    support.assert_rows(jacobian(family, points), [jacobian(tree, x) for tree, x in zip(rows, points)])
    closed = family.quad + np.swapaxes(family.quad, -1, -2)
    assert np.array_equal(closed.reshape(n, 2 * dim, dim), [_hessian(tree, x) for tree, x in zip(rows, points)])


def test_jets_of_jets_do_not_pass_through_a_family():
    family, _, points = _family_and_rows(10, 4, 2, 2)
    with pytest.raises(TypeError):
        _hessian(family, points)


@pytest.mark.parametrize("n", [1, 4, 65])
def test_a_family_jet_pass_gives_the_family_value_bitwise(n):
    family, _, points = _family_and_rows(200 + n, n, 3, 2)
    points[0, 1] = -0.0
    points[n // 2, 2] = -0.0
    want = family(points).tobytes()
    value, jac = jets.value_and_jacobian(family.eval_generic, points)
    assert value.tobytes() == want
    support.assert_rows(jac, jacobian(family, points))
    seeded = [jets.Jet(v, (d,)) for v, d in zip(points.T, RNG.uniform(-1.0, 1.0, (3, n)))]
    assert np.stack([out.value for out in family.eval_generic(seeded)], axis=1).tobytes() == want


@pytest.mark.parametrize("n", [1, 4, 65])
def test_family_jets_equal_the_row_trees_jets(n):
    family, rows, points = _family_and_rows(300 + n, n, 3, 2)
    directions = RNG.uniform(-1.0, 1.0, (n, 3))

    def second(m):
        return lambda vs: m.eval_generic(vs)[1]

    support.assert_rows(jets.jet_gradient(second(family), points),
                        [jets.jet_gradient(second(tree), x) for tree, x in zip(rows, points)])
    # A batch of directions, and one direction for every row.
    for along, per_row in ((directions, directions), (directions[0], [directions[0]] * n)):
        support.assert_rows(jets.jet_directional(second(family), points, along),
                            [jets.jet_directional(second(tree), x, d) for tree, x, d in zip(rows, points, per_row)])


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


@pytest.mark.parametrize("shapes", [
    ((3,), (3, 1, 1), (3, 1, 1, 1)),
    ((3, 1), (3, 1), (3, 1, 1, 1)),
    ((3, 1, 1), (3, 1, 1, 1), (3, 1, 1, 1, 1)),
    ((3, 1), (3, 1, 2), (3, 1, 2)),
])
def test_a_family_of_coefficients_of_the_wrong_rank_is_refused(shapes):
    expected = f"coefficients of shapes {shapes[0]}, {shapes[1]} and {shapes[2]} are not one family"
    with pytest.raises(DimensionMismatch) as raised:
        PolyFamily(*map(np.zeros, shapes))
    assert str(raised.value) == expected


def _counting(monkeypatch):
    """Count the closed-form evaluations of every family, by method name."""
    counts = {"_values": 0, "_jacobians": 0}
    for name in counts:
        closed_form = getattr(PolyFamily, name)

        def counted(self, x, _name=name, _closed_form=closed_form):
            counts[_name] += 1
            return _closed_form(self, x)

        monkeypatch.setattr(PolyFamily, name, counted)
    return counts


def test_family_reuse_keys_on_signed_zero(monkeypatch):
    family, _, _ = _family_and_rows(5, 2, 2, 2)
    counts = _counting(monkeypatch)
    zero, negative = np.zeros((2, 2)), np.array([[0.0, 0.0], [0.0, -0.0]])
    for point in (zero, zero.copy(), negative, zero):
        family(point)
        jacobian(family, point)
    assert counts == {"_values": 3, "_jacobians": 3}


def test_family_reuse_returns_fresh_arrays():
    family, _, points = _family_and_rows(6, 3, 2, 2)
    fresh = family._replace()
    for method in (PolyFamily.__call__, jacobian):
        first = method(family, points)
        first[...] = 99.0
        assert method(family, points).tobytes() == method(fresh, points).tobytes()
        again, third = method(family, points), method(family, points)
        assert not np.shares_memory(again, third)


def test_family_error_is_not_reused(monkeypatch):
    family, _, points = _family_and_rows(7, 3, 2, 2)
    family(points)
    jacobian(family, points)
    counts = _counting(monkeypatch)
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            family(points[:2])
        with pytest.raises(DimensionMismatch):
            jacobian(family, points[:2])
    family(points)
    jacobian(family, points)
    assert counts == {"_values": 0, "_jacobians": 0}


def test_a_demo_run_evaluates_each_family_once_per_batch(monkeypatch, tmp_path):
    calls = {"__call__": [], "jacobian": []}
    for name, seen in calls.items():
        method = getattr(PolyFamily, name)

        def recorded(self, point, _method=method, _seen=seen):
            _seen.append((self, _point_key(point)))
            return _method(self, point)

        monkeypatch.setattr(PolyFamily, name, recorded)
    counts = _counting(monkeypatch)
    argv = ["verify", "--demo", "--samples", "24", "--seed", "1", "--quiet", "--json-out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    for name, evaluated in (("__call__", "_values"), ("jacobian", "_jacobians")):
        distinct = len({(id(family), key) for family, key in calls[name]})
        assert counts[evaluated] == distinct < len(calls[name])


def test_named_maps_walk_each_point_once(monkeypatch, tmp_path):
    # A map called where its Jacobian was taken reuses that pass's value (56
    # walks without it); the walks left are the spec connection's coefficient
    # map, which is never differentiated.
    walks = _counting_walks(monkeypatch)
    spec = Path(__file__).resolve().parents[1] / "perfbench" / "named_maps.json"
    suites_argv = [arg for name in ("bracket", "connection", "cotangent-duality", "duality-diagram",
                                    "bracket-pairing", "connection-pairing") for arg in ("--suite", name)]
    argv = ["verify", str(spec), *suites_argv, "--samples", "12", "--seed", "1", "--quiet",
            "--json-out", str(tmp_path / "named.json")]
    assert cli.main(argv) == 0
    assert len(walks) <= 4
    # The algebra suites take no Jacobian, so every call walks as before.
    walks.clear()
    argv = ["verify", "--demo", "--suite", "duality-solve", "--suite", "warp-pairing", "--samples", "10",
            "--seed", "1", "--quiet", "--json-out", str(tmp_path / "algebra.json")]
    assert cli.main(argv) == 0
    assert len(walks) == 48


def test_family_columns_must_all_have_its_rows():
    family, _, points = _family_and_rows(8, 1, 2, 2)
    with pytest.raises(DimensionMismatch):
        family.eval_generic([points[:, 0], np.array([0.5, -0.5])])
    family, _, points = _family_and_rows(9, 4, 3, 2)
    with pytest.raises(DimensionMismatch):
        family.eval_generic([points[:, 0], points[:, 1], points[:3, 2]])
    seeded = jets.Jet(points[:3, 1], [np.ones(3)])
    with pytest.raises(DimensionMismatch):
        family.eval_generic([points[:, 0], seeded, points[:, 2]])
