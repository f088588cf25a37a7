import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc import dvb
from dvbcalc.dvb import (
    DualAElement,
    DualBElement,
    DvbElement,
    DvbShape,
    IncompatibleElements,
    IterACElement,
    IterBCElement,
    _same,
    add_over_a,
    add_over_b,
    core_difference,
    core_embed,
    dual_iso_a,
    dual_iso_a_inverse,
    dual_iso_b,
    dual_iso_b_inverse,
    elements_equal,
    pair_a,
    pair_b,
    pair_cstar_a,
    pair_cstar_b,
    pair_duals_ab,
    pair_duals_ba,
    pairing_map_a,
    pairing_map_b,
    scale_over_a,
    scale_over_b,
    solve_dual_iso_a,
    sub_over_a,
    sub_over_b,
    zero_over_a,
    zero_over_b,
)
from dvbcalc.harness.problem import DEFAULT_SHAPES
from dvbcalc.smoothmaps import DimensionMismatch

import support

RNG = np.random.default_rng(20240816)

SCALAR_SHAPE = DvbShape(1, 1, 1)


def _scalar_dual_a(a, beta, kappa):
    return DualAElement(SCALAR_SHAPE, [], [a], [beta], [kappa])


def _scalar_dual_b(kappa, alpha, b):
    return DualBElement(SCALAR_SHAPE, [], [kappa], [alpha], [b])


def test_shape_validation():
    with pytest.raises(ValueError):
        DvbShape(0, 1, 1)
    with pytest.raises(ValueError):
        DvbShape(1, 1, 1, -1)
    shape = DvbShape(2, 3, 4, 1)
    assert (shape.dim_a, shape.dim_b, shape.dim_c, shape.base_dim) == (2, 3, 4, 1)
    with pytest.raises(ValueError):
        DvbElement(shape, [0.0], [1.0], [1.0, 2.0, 3.0], [0.0] * 4)


def test_element_outline_and_repr():
    shape = DvbShape(1, 2, 1, 1)
    d = DvbElement(shape, [0.5], [1.0], [2.0, 3.0], [4.0])
    assert d.a.tolist() == [1.0]
    assert d.b.tolist() == [2.0, 3.0]
    assert d.m.tolist() == [0.5]
    assert "a=" in repr(d)


def test_additive_structure_laws():
    shape = support.random_shape(RNG)
    m = support.rand_vec(RNG, shape.base_dim)
    a = support.rand_vec(RNG, shape.dim_a)
    b = support.rand_vec(RNG, shape.dim_b)
    d = DvbElement(shape, m, a, b, support.rand_vec(RNG, shape.dim_c))
    assert elements_equal(add_over_a(d, zero_over_a(shape, m, a)), d)
    assert elements_equal(add_over_b(d, zero_over_b(shape, m, b)), d)
    doubled = scale_over_a(2.0, d)
    assert np.array_equal(doubled.a, d.a)
    assert np.array_equal(doubled.b, 2.0 * d.b)
    assert np.array_equal(doubled.c, 2.0 * d.c)
    halved = scale_over_b(0.5, d)
    assert np.array_equal(halved.b, d.b)
    assert np.array_equal(halved.a, 0.5 * d.a)


def test_interchange_law_exact_on_integers():
    for _ in range(20):
        shape = support.random_shape(RNG)
        m = support.rand_vec(RNG, shape.base_dim)

        def ivec(dim):
            return RNG.integers(-9, 10, dim).astype(float)

        a1, a2 = ivec(shape.dim_a), ivec(shape.dim_a)
        b1, b2 = ivec(shape.dim_b), ivec(shape.dim_b)
        d11 = DvbElement(shape, m, a1, b1, ivec(shape.dim_c))
        d12 = DvbElement(shape, m, a1, b2, ivec(shape.dim_c))
        d21 = DvbElement(shape, m, a2, b1, ivec(shape.dim_c))
        d22 = DvbElement(shape, m, a2, b2, ivec(shape.dim_c))
        lhs = add_over_b(add_over_a(d11, d12), add_over_a(d21, d22))
        rhs = add_over_a(add_over_b(d11, d21), add_over_b(d12, d22))
        assert elements_equal(lhs, rhs)


def test_incompatible_elements_raise():
    shape = DvbShape(1, 1, 1, 1)
    d1 = DvbElement(shape, [0.0], [1.0], [2.0], [3.0])
    d2 = DvbElement(shape, [0.0], [9.0], [2.0], [3.0])
    with pytest.raises(IncompatibleElements):
        add_over_a(d1, d2)
    moved = DvbElement(shape, [1.0], [1.0], [2.0], [3.0])
    with pytest.raises(IncompatibleElements):
        add_over_b(d1, moved)
    other_shape = DvbShape(1, 1, 2, 1)
    fat = DvbElement(other_shape, [0.0], [1.0], [2.0], [3.0, 4.0])
    with pytest.raises(IncompatibleElements):
        add_over_a(d1, fat)
    phi = DualAElement(shape, [0.0], [9.0], [1.0], [1.0])
    with pytest.raises(IncompatibleElements):
        pair_a(phi, d1)
    psi = DualBElement(shape, [0.0], [1.0], [1.0], [9.0])
    with pytest.raises(IncompatibleElements):
        pair_b(psi, d1)


def test_core_difference_example():
    shape = DvbShape(1, 1, 2)
    a, b = [1.0], [2.0]
    d1 = DvbElement(shape, [], a, b, [5.0, 7.0])
    d2 = DvbElement(shape, [], a, b, [2.0, 3.0])
    assert core_difference(d1, d2).tolist() == [3.0, 4.0]
    assert np.array_equal(sub_over_a(d1, d2).c, sub_over_b(d1, d2).c)
    assert sub_over_a(d1, d2).b.tolist() == [0.0]
    assert sub_over_b(d1, d2).a.tolist() == [0.0]


def test_core_difference_requires_shared_outline():
    shape = DvbShape(1, 1, 1)
    d1 = DvbElement(shape, [], [1.0], [2.0], [3.0])
    d2 = DvbElement(shape, [], [1.0], [5.0], [3.0])
    with pytest.raises(IncompatibleElements):
        core_difference(d1, d2)


def test_core_difference_routes_bitwise_equal_random():
    for _ in range(50):
        shape = support.random_shape(RNG)
        m = support.rand_vec(RNG, shape.base_dim)
        a = support.rand_vec(RNG, shape.dim_a)
        b = support.rand_vec(RNG, shape.dim_b)
        d1 = DvbElement(shape, m, a, b, support.rand_vec(RNG, shape.dim_c))
        d2 = DvbElement(shape, m, a, b, support.rand_vec(RNG, shape.dim_c))
        diff = core_difference(d1, d2)
        assert np.array_equal(diff, d1.c - d2.c)


def test_core_embed_pairs_through_kappa():
    shape = DvbShape(2, 2, 3, 1)
    m = [0.25]
    c = support.rand_vec(RNG, 3)
    b = support.rand_vec(RNG, 2)
    psi = DualBElement(shape, m, support.rand_vec(RNG, 3), support.rand_vec(RNG, 2), b)
    carried = add_over_a(zero_over_b(shape, m, b), core_embed(shape, m, c))
    assert np.array_equal(carried.b, b)
    assert np.array_equal(carried.c, c)
    assert pair_b(psi, carried) == pytest.approx(float(psi.kappa @ c), abs=1e-15)


def test_pair_a_example():
    phi = _scalar_dual_a(2.0, 3.0, 5.0)
    d = DvbElement(SCALAR_SHAPE, [], [2.0], [7.0], [11.0])
    assert pair_a(phi, d) == 76.0


def test_pair_b_and_iterated_pairings():
    psi = _scalar_dual_b(5.0, 7.0, 11.0)
    d = DvbElement(SCALAR_SHAPE, [], [2.0], [11.0], [3.0])
    assert pair_b(psi, d) == 5.0 * 3.0 + 7.0 * 2.0
    mb = IterBCElement(SCALAR_SHAPE, [], [5.0], [3.0], [2.0])
    assert pair_cstar_b(mb, psi) == 3.0 * 11.0 + 7.0 * 2.0
    ma = IterACElement(SCALAR_SHAPE, [], [5.0], [7.0], [11.0])
    phi = _scalar_dual_a(2.0, 3.0, 5.0)
    assert pair_cstar_a(ma, phi) == 7.0 * 2.0 + 3.0 * 11.0


def test_dual_iso_a_closed_form():
    shape = support.random_shape(RNG)
    m = support.rand_vec(RNG, shape.base_dim)
    mb = IterBCElement(
        shape,
        m,
        support.rand_vec(RNG, shape.dim_c),
        support.rand_vec(RNG, shape.dim_b),
        support.rand_vec(RNG, shape.dim_a),
    )
    phi = dual_iso_a(mb)
    assert np.array_equal(phi.a, mb.a)
    assert np.array_equal(phi.beta, -mb.beta)
    assert np.array_equal(phi.kappa, mb.kappa)


def test_dual_iso_a_defining_property():
    for _ in range(30):
        shape = support.random_shape(RNG)
        m = support.rand_vec(RNG, shape.base_dim)
        kappa = support.rand_vec(RNG, shape.dim_c)
        mb = IterBCElement(
            shape, m, kappa, support.rand_vec(RNG, shape.dim_b), support.rand_vec(RNG, shape.dim_a)
        )
        phi = dual_iso_a(mb)
        psi = DualBElement(
            shape, m, kappa, support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b)
        )
        d = DvbElement(shape, m, phi.a, psi.b, support.rand_vec(RNG, shape.dim_c))
        lhs = pair_cstar_b(mb, psi) + pair_a(phi, d)
        rhs = pair_b(psi, d)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_solve_matches_closed_form():
    shapes = [
        DvbShape(1, 1, 1),
        DvbShape(2, 1, 3, 1),
        DvbShape(4, 2, 1, 2),
        DvbShape(3, 4, 2),
        DvbShape(1, 3, 4, 3),
    ]
    for shape in shapes:
        for _ in range(5):
            m = support.rand_vec(RNG, shape.base_dim)
            mb = IterBCElement(
                shape,
                m,
                support.rand_vec(RNG, shape.dim_c),
                support.rand_vec(RNG, shape.dim_b),
                support.rand_vec(RNG, shape.dim_a),
            )
            solved = solve_dual_iso_a(mb)
            closed = dual_iso_a(mb)
            gap = max(
                np.max(np.abs(solved.a - closed.a)),
                np.max(np.abs(solved.beta - closed.beta)),
                np.max(np.abs(solved.kappa - closed.kappa)),
            )
            assert gap <= 1e-12


def test_dual_iso_b_closed_form_and_duality():
    for _ in range(20):
        shape = support.random_shape(RNG)
        m = support.rand_vec(RNG, shape.base_dim)
        kappa = support.rand_vec(RNG, shape.dim_c)
        ma = IterACElement(
            shape, m, kappa, support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b)
        )
        psi = dual_iso_b(ma)
        assert np.array_equal(psi.alpha, ma.alpha)
        assert np.array_equal(psi.b, -ma.b)
        assert np.array_equal(psi.kappa, ma.kappa)
        mb = IterBCElement(
            shape, m, kappa, support.rand_vec(RNG, shape.dim_b), support.rand_vec(RNG, shape.dim_a)
        )
        lhs = pair_cstar_b(mb, dual_iso_b(ma))
        rhs = pair_cstar_a(ma, dual_iso_a(mb))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_iso_round_trips_exact():
    shape = support.random_shape(RNG)
    m = support.rand_vec(RNG, shape.base_dim)
    mb = IterBCElement(
        shape,
        m,
        support.rand_vec(RNG, shape.dim_c),
        support.rand_vec(RNG, shape.dim_b),
        support.rand_vec(RNG, shape.dim_a),
    )
    assert elements_equal(dual_iso_a_inverse(dual_iso_a(mb)), mb)
    phi = dual_iso_a(mb)
    assert elements_equal(dual_iso_a(dual_iso_a_inverse(phi)), phi)
    ma = IterACElement(
        shape,
        m,
        support.rand_vec(RNG, shape.dim_c),
        support.rand_vec(RNG, shape.dim_a),
        support.rand_vec(RNG, shape.dim_b),
    )
    assert elements_equal(dual_iso_b_inverse(dual_iso_b(ma)), ma)
    psi = dual_iso_b(ma)
    assert elements_equal(dual_iso_b(dual_iso_b_inverse(psi)), psi)


def test_elements_equal_discriminates_types():
    psi = _scalar_dual_b(1.0, 2.0, 3.0)
    ma = IterACElement(SCALAR_SHAPE, [], [1.0], [2.0], [3.0])
    assert not elements_equal(psi, ma)
    assert elements_equal(psi, _scalar_dual_b(1.0, 2.0, 3.0))
    assert not elements_equal(psi, _scalar_dual_b(1.0, 2.0, 4.0))


def test_pair_duals_example_and_antisymmetry():
    phi = _scalar_dual_a(2.0, 3.0, 5.0)
    psi = _scalar_dual_b(5.0, 7.0, 11.0)
    assert pair_duals_ba(phi, psi) == -19.0
    assert pair_duals_ab(phi, psi) == 19.0


def test_pair_duals_manual_d_independence():
    shape = DvbShape(2, 2, 2, 1)
    m = [0.5]
    kappa = support.rand_vec(RNG, 2)
    phi = DualAElement(shape, m, support.rand_vec(RNG, 2), support.rand_vec(RNG, 2), kappa)
    psi = DualBElement(shape, m, kappa, support.rand_vec(RNG, 2), support.rand_vec(RNG, 2))
    values = []
    for _ in range(5):
        d = DvbElement(shape, m, phi.a, psi.b, support.rand_vec(RNG, 2))
        values.append(pair_b(psi, d) - pair_a(phi, d))
    spread = max(values) - min(values)
    assert spread <= 1e-12 * max(1.0, *map(abs, values))
    assert pair_duals_ba(phi, psi) == pytest.approx(values[0], abs=1e-10)
    assert pair_duals_ba(phi, psi) == pytest.approx(
        float(psi.alpha @ phi.a - phi.beta @ psi.b), abs=1e-12
    )


bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    a1=bounded, a2=bounded, beta1=bounded, beta2=bounded,
    kappa=bounded, alpha=bounded, b=bounded,
)
def test_pair_duals_formula_and_additivity(a1, a2, beta1, beta2, kappa, alpha, b):
    psi = _scalar_dual_b(kappa, alpha, b)
    first = pair_duals_ba(_scalar_dual_a(a1, beta1, kappa), psi)
    second = pair_duals_ba(_scalar_dual_a(a2, beta2, kappa), psi)
    combined = pair_duals_ba(_scalar_dual_a(a1 + a2, beta1 + beta2, kappa), psi)
    assert first == pytest.approx(alpha * a1 - beta1 * b, abs=1e-9)
    assert combined == pytest.approx(first + second, abs=1e-9)


def test_pairing_nondegenerate_on_basis():
    shape = DvbShape(2, 3, 1)
    da, db = shape.dim_a, shape.dim_b
    kappa = [0.7]
    phis = [
        DualAElement(shape, [], row[:da], row[da:], kappa)
        for row in np.eye(da + db)
    ]
    psis = [
        DualBElement(shape, [], kappa, row[:da], row[da:])
        for row in np.eye(da + db)
    ]
    matrix = np.array([[pair_duals_ba(f, s) for s in psis] for f in phis])
    expected = np.block(
        [
            [np.eye(da), np.zeros((da, db))],
            [np.zeros((db, da)), -np.eye(db)],
        ]
    )
    assert np.array_equal(matrix, expected)
    assert np.linalg.matrix_rank(matrix) == da + db


def test_pairing_map_relations():
    for _ in range(20):
        shape = support.random_shape(RNG)
        m = support.rand_vec(RNG, shape.base_dim)
        kappa = support.rand_vec(RNG, shape.dim_c)
        phi = DualAElement(
            shape, m, support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b), kappa
        )
        psi = DualBElement(
            shape, m, kappa, support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b)
        )
        target = pair_duals_ab(phi, psi)
        scale = max(1.0, abs(target))
        assert abs(pair_cstar_b(pairing_map_a(phi), psi) - target) <= 1e-12 * scale
        assert abs(pair_cstar_a(pairing_map_b(psi), phi) - target) <= 1e-12 * scale
        assert abs(
            pair_cstar_b(dual_iso_a_inverse(phi), psi) + target
        ) <= 1e-12 * scale


def test_pairing_map_a_reconstructed_from_probes():
    shape = DvbShape(3, 2, 2, 1)
    m = [0.1]
    kappa = support.rand_vec(RNG, shape.dim_c)
    phi = DualAElement(
        shape, m, support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b), kappa
    )
    a_rec = np.array(
        [
            pair_duals_ab(phi, DualBElement(shape, m, kappa, e, np.zeros(shape.dim_b)))
            for e in np.eye(shape.dim_a)
        ]
    )
    beta_rec = np.array(
        [
            pair_duals_ab(phi, DualBElement(shape, m, kappa, np.zeros(shape.dim_a), e))
            for e in np.eye(shape.dim_b)
        ]
    )
    mapped = pairing_map_a(phi)
    assert np.max(np.abs(a_rec - mapped.a)) <= 1e-12
    assert np.max(np.abs(beta_rec - mapped.beta)) <= 1e-12
    assert np.array_equal(mapped.kappa, phi.kappa)


def test_dual_iso_a_additive_in_both_structures():
    shape = support.random_shape(RNG)
    m = support.rand_vec(RNG, shape.base_dim)
    kappa = support.rand_vec(RNG, shape.dim_c)
    beta1, beta2 = (support.rand_vec(RNG, shape.dim_b) for _ in range(2))
    a1, a2 = (support.rand_vec(RNG, shape.dim_a) for _ in range(2))

    # Addition in the bundle over C*: kappa fixed, (beta, a) slots add.
    summed = IterBCElement(shape, m, kappa, beta1 + beta2, a1 + a2)
    image_sum = dual_iso_a(summed)
    expected = DualAElement(shape, m, a1 + a2, (-beta1) + (-beta2), kappa)
    assert elements_equal(image_sum, expected)

    # Addition in the bundle over A: a fixed, (kappa, beta) slots add.
    kappa2 = support.rand_vec(RNG, shape.dim_c)
    summed_a = IterBCElement(shape, m, kappa + kappa2, beta1 + beta2, a1)
    expected_a = DualAElement(shape, m, a1, (-beta1) + (-beta2), kappa + kappa2)
    assert elements_equal(dual_iso_a(summed_a), expected_a)

    t = 1.75
    scaled = IterBCElement(shape, m, kappa, t * beta1, t * a1)
    expected_scaled = DualAElement(shape, m, t * a1, t * (-beta1), kappa)
    assert elements_equal(dual_iso_a(scaled), expected_scaled)


# -- the batch axis ------------------------------------------------------------

def _batched_operands(shape, rows, draw):
    """A batch of each record type over one shared base point and kappa, with their rows."""
    m = draw(shape.base_dim)
    kappa = draw(shape.dim_c)
    a, b, c = draw((rows, shape.dim_a)), draw((rows, shape.dim_b)), draw((rows, shape.dim_c))
    alpha, beta = draw((rows, shape.dim_a)), draw((rows, shape.dim_b))
    batched = (
        DualAElement(shape, m, a, beta, c),
        DualBElement(shape, m, c, alpha, b),
        DvbElement(shape, m, a, b, c),
        IterBCElement(shape, m, kappa, beta, a),
        IterACElement(shape, m, kappa, alpha, b),
        DualBElement(shape, m, kappa, alpha, b),
        DualAElement(shape, m, a, beta, kappa),
    )
    single = [
        (
            DualAElement(shape, m, a[i], beta[i], c[i]),
            DualBElement(shape, m, c[i], alpha[i], b[i]),
            DvbElement(shape, m, a[i], b[i], c[i]),
            IterBCElement(shape, m, kappa, beta[i], a[i]),
            IterACElement(shape, m, kappa, alpha[i], b[i]),
            DualBElement(shape, m, kappa, alpha[i], b[i]),
            DualAElement(shape, m, a[i], beta[i], kappa),
        )
        for i in range(rows)
    ]
    return batched, single


def _pairings(phi, psi, d, mb, ma, psi_k, phi_k):
    return (
        pair_a(phi, d),
        pair_b(psi, d),
        pair_cstar_b(mb, psi_k),
        pair_cstar_a(ma, phi_k),
    )


def test_batched_pairings_equal_their_rows():
    rows = 7
    integers = lambda size: RNG.integers(-8, 9, size).astype(float)
    for draw, exact in ((integers, True), (lambda size: support.rand_vec(RNG, size), False)):
        for _ in range(10):
            shape = support.random_shape(RNG)
            batched, single = _batched_operands(shape, rows, draw)
            values = _pairings(*batched)
            for value in values:
                assert isinstance(value, np.ndarray) and value.shape == (rows,)
            for i, row in enumerate(single):
                for value, expected in zip(values, _pairings(*row)):
                    assert type(expected) is float
                    if exact:
                        assert value[i] == expected
                    else:
                        assert abs(value[i] - expected) <= 1e-15 * max(1.0, abs(expected))


def test_batch_with_a_single_element_broadcasts():
    shape = DvbShape(2, 3, 1, 1)
    m = [0.5]
    phi = DualAElement(shape, m, [1.0, 2.0], [1.0, 0.0, -1.0], [2.0])
    d = DvbElement(shape, m, [1.0, 2.0], [[1.0, 1.0, 1.0], [0.0, 0.0, 2.0]], [[3.0], [4.0]])
    assert phi.batch is None and d.batch == 2
    assert pair_a(phi, d).tolist() == [0.0 + 6.0, -2.0 + 8.0]


def test_unequal_batch_lengths_raise():
    shape = DvbShape(1, 2, 1, 1)
    with pytest.raises(DimensionMismatch):
        DvbElement(shape, [0.0], np.zeros((3, 1)), np.zeros((4, 2)), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        DvbElement(shape, [0.0], np.zeros((3, 1, 1)), np.zeros(2), np.zeros(1))
    phi = DualAElement(shape, [0.0], np.zeros((3, 1)), np.zeros(2), np.zeros(1))
    d = DvbElement(shape, [0.0], np.zeros((4, 1)), np.zeros(2), np.zeros(1))
    with pytest.raises(IncompatibleElements):
        pair_a(phi, d)


def test_same_is_exact_and_rejects_a_wrong_trailing_length():
    with pytest.raises(IncompatibleElements):
        _same(np.zeros(1), np.zeros((3, 2)), "a side")
    with pytest.raises(IncompatibleElements):
        _same(np.zeros((2, 2)), np.zeros((3, 2)), "a side")
    _same(np.zeros(2), np.zeros((3, 2)), "a side")

    shape = DvbShape(1, 1, 1, 2)
    m = np.array([0.25, -0.5])
    d = DvbElement(shape, m, [1.0], [1.0], [1.0])
    for row in range(4):
        for col in range(2):
            ms = np.tile(m, (4, 1))
            ms[row, col] = np.nextafter(ms[row, col], 1.0)
            phi = DualAElement(shape, ms, np.ones((4, 1)), [1.0], [1.0])
            with pytest.raises(IncompatibleElements):
                pair_a(phi, d)
    assert pair_a(DualAElement(shape, np.tile(m, (4, 1)), np.ones((4, 1)), [1.0], [1.0]), d).tolist() == [2.0] * 4


def test_solve_uses_only_the_pairings(monkeypatch):
    closed_form = {}
    for shape in DEFAULT_SHAPES:
        m = support.rand_vec(RNG, shape.base_dim)
        mb = IterBCElement(
            shape,
            m,
            support.rand_vec(RNG, shape.dim_c),
            support.rand_vec(RNG, shape.dim_b),
            support.rand_vec(RNG, shape.dim_a),
        )
        closed_form[shape] = (mb, dual_iso_a(mb))

    def forbidden(mb):
        raise AssertionError("the solve must not use the closed form")

    monkeypatch.setattr(dvb, "dual_iso_a", forbidden)
    for mb, closed in closed_form.values():
        assert elements_equal(solve_dual_iso_a(mb), closed)


def _random_iter_bc(shape, rows):
    draw = lambda dim: support.rand_vec(RNG, (rows, dim))
    return IterBCElement(shape, draw(shape.base_dim), draw(shape.dim_c), draw(shape.dim_b), draw(shape.dim_a))


def _row(x, i):
    return type(x)(x.shape, *(getattr(x, name)[i] for name, _ in x._fields))


def test_batched_solve_equals_its_rows():
    rows = 6
    for shape in DEFAULT_SHAPES:
        mb = _random_iter_bc(shape, rows)
        solved = solve_dual_iso_a(mb)
        assert solved.batch == rows
        for i in range(rows):
            single = solve_dual_iso_a(_row(mb, i))
            for name, _ in single._fields:
                assert np.max(np.abs(getattr(solved, name)[i] - getattr(single, name)), initial=0.0) <= 1e-12
    # Unbatched components stand for every row.
    shape = DvbShape(2, 1, 2, 1)
    m, kappa = support.rand_vec(RNG, 1), support.rand_vec(RNG, 2)
    beta, a = support.rand_vec(RNG, (3, 1)), support.rand_vec(RNG, (3, 2))
    solved = solve_dual_iso_a(IterBCElement(shape, m, kappa, beta, a))
    for i in range(3):
        closed = dual_iso_a(IterBCElement(shape, m, kappa, beta[i], a[i]))
        assert np.allclose(solved.beta[i], closed.beta, rtol=0, atol=1e-12)
        assert np.allclose(solved.a[i], closed.a, rtol=0, atol=1e-12)


def test_batched_solve_splits_into_chunks_of_the_bound(monkeypatch):
    shape = DvbShape(1, 1, 1)  # size 3: 36 probe entries per row
    mb = _random_iter_bc(shape, 5)
    whole = solve_dual_iso_a(mb)
    chunks = []
    solve_rows = dvb._solve_rows

    def recording(mb, start, stop):
        chunks.append(stop - start)
        return solve_rows(mb, start, stop)

    monkeypatch.setattr(dvb, "_solve_rows", recording)
    monkeypatch.setattr(dvb, "SOLVE_CHUNK_ENTRIES", 2 * 36 + 35)
    chunked = solve_dual_iso_a(mb)
    assert chunks == [2, 2, 1]
    assert elements_equal(chunked, whole)
    chunks.clear()
    monkeypatch.setattr(dvb, "SOLVE_CHUNK_ENTRIES", 1)  # below one row's cost: one row at a time
    assert elements_equal(solve_dual_iso_a(mb), whole)
    assert chunks == [1] * 5


def test_elements_equal_lets_an_unbatched_component_stand_for_every_row():
    shape = DvbShape(2, 1, 1, 1)
    m, a = np.array([0.5]), np.array([1.0, -2.0])
    single = DvbElement(shape, m, a, [3.0], [4.0])
    batch = DvbElement(shape, np.tile(m, (3, 1)), np.tile(a, (3, 1)), [3.0], [[4.0]] * 3)
    assert elements_equal(single, batch) and elements_equal(batch, single)
    changed = np.tile(a, (3, 1))
    changed[2, 1] = 0.0
    assert not elements_equal(single, DvbElement(shape, m, changed, [3.0], [4.0]))
    longer = DvbElement(shape, m, np.tile(a, (4, 1)), [3.0], [4.0])
    assert not elements_equal(batch, longer)


def test_same_matches_nan_in_the_same_positions_only():
    nan = float("nan")
    u = np.array([nan, 1.0])
    _same(u, u, "b side")
    _same(np.array([nan, 1.0]), np.array([nan, 1.0]), "b side")
    _same(np.array([nan, 1.0]), np.array([[nan, 1.0], [nan, 1.0]]), "b side")
    for other in ([1.0, nan], [nan, 2.0], [0.0, 1.0], [[nan, 1.0], [nan, 0.0]]):
        with pytest.raises(IncompatibleElements):
            _same(np.array([nan, 1.0]), np.array(other), "b side")


def test_a_record_shares_an_owned_read_only_float_array():
    shape = DvbShape(2, 1, 1, 1)
    a = np.array([1.0, -2.0])
    a.flags.writeable = False
    d = DvbElement(shape, [0.5], a, [3.0], [4.0])
    assert d.a is a
    assert DualAElement(shape, d.m, d.a, d.b, d.c).m is d.m
    assert not any(getattr(d, name).flags.writeable for name in "mabc")


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda rows: np.array(rows), id="writeable"),
        pytest.param(lambda rows: rows, id="list"),
        pytest.param(lambda rows: np.array(rows, dtype=int), id="int"),
        pytest.param(lambda rows: np.array(rows, dtype=np.float32), id="float32"),
        pytest.param(lambda rows: np.broadcast_to(np.array(rows[0]), (3, 2)), id="broadcast-view"),
    ],
)
def test_a_record_copies_every_other_component(make):
    rows = [[1.0, -2.0]] * 3
    a = make(rows)
    d = DvbElement(DvbShape(2, 1, 1, 1), [0.5], a, [3.0], [4.0])
    assert d.a is not a and d.a.dtype == np.float64 and d.a.base is None
    assert d.a.tolist() == rows and d.batch == 3
    assert not any(getattr(d, name).flags.writeable for name in "mabc")
    if isinstance(a, np.ndarray) and a.flags.writeable:
        a[0, 0] = 9.0
        assert d.a.tolist() == rows


def test_elements_equal_never_matches_a_nan_component():
    d = DvbElement(DvbShape(1, 1, 2, 0), [], [1.0], [2.0], [np.nan, 1.0])
    assert not elements_equal(d, d)


def test_common_compares_shapes_by_value():
    equal, other = DvbShape(1, 2, 1, 1), DvbShape(1, 2, 2, 1)
    d = DvbElement(DvbShape(1, 2, 1, 1), [0.5], [1.0], [2.0, 3.0], [4.0])
    phi = DualAElement(equal, d.m, d.a, [1.0, 1.0], [1.0])
    assert phi.shape is not d.shape and pair_a(phi, d) == 9.0
    with pytest.raises(IncompatibleElements, match="shape mismatch"):
        pair_a(DualAElement(other, d.m, d.a, [1.0, 1.0], [1.0, 1.0]), d)
