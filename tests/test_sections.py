import numpy as np
import pytest

from dvbcalc.dvb import (
    DualAElement,
    DualBElement,
    DvbShape,
    IncompatibleElements,
    IterACElement,
    IterBCElement,
    add_over_a,
    core_embed,
    pair_b,
    pair_cstar_a,
    pair_cstar_b,
    zero_over_b,
)
from dvbcalc.sections import (
    Grid,
    LinearSectionA,
    LinearSectionB,
    cstar_projection,
    ell_a,
    ell_b,
    squarecap_a,
    squarecap_b,
    squarecap_pairing,
    swap_grid,
    warp,
    warp_pairing_check,
)
from dvbcalc import sections
from dvbcalc.charts import Chart
from dvbcalc.harness import suites
from dvbcalc.harness.problem import ProblemSpec
from dvbcalc.smoothmaps import MatrixMap, SmoothMap
from dvbcalc.tangent import double_tangent_grid

import support

RNG = np.random.default_rng(20240817)

SCALAR_SHAPE = DvbShape(1, 1, 1)


def test_warp_frozen_example():
    grid = support.constant_grid(SCALAR_SHAPE, [1.0], [1.0], [[2.0]], [[3.0]])
    assert warp(grid, []).tolist() == [-1.0]


def test_warp_closed_form():
    for _ in range(20):
        shape = support.random_shape(RNG)
        grid = support.random_grid(RNG, shape)
        m = support.rand_vec(RNG, shape.base_dim)
        x_val = grid.xi.base_section(m)
        y_val = grid.eta.base_section(m)
        expected = grid.xi.fiber_matrix(m) @ y_val - grid.eta.fiber_matrix(m) @ x_val
        assert np.array_equal(warp(grid, m), expected)


def test_swap_negates_warp():
    for _ in range(20):
        shape = support.random_shape(RNG)
        grid = support.random_grid(RNG, shape)
        m = support.rand_vec(RNG, shape.base_dim)
        assert np.array_equal(warp(swap_grid(grid), m), -warp(grid, m))
        assert np.array_equal(warp(swap_grid(swap_grid(grid)), m), warp(grid, m))


def test_section_evaluation():
    shape = DvbShape(1, 2, 2, 1)
    xi = LinearSectionB(
        shape,
        SmoothMap.parse(["x0"], 1),
        MatrixMap.constant([[1.0, 0.0], [0.0, 2.0]]),
    )
    d = xi([3.0], [4.0, 5.0])
    assert d.a.tolist() == [3.0]
    assert d.b.tolist() == [4.0, 5.0]
    assert d.c.tolist() == [4.0, 10.0]
    eta = LinearSectionA(
        shape,
        SmoothMap.constant([1.0, -1.0], 1),
        MatrixMap.constant([[2.0], [0.0]]),
    )
    e = eta([3.0], [7.0])
    assert e.a.tolist() == [7.0]
    assert e.b.tolist() == [1.0, -1.0]
    assert e.c.tolist() == [14.0, 0.0]


def test_squarecap_b_frozen_example():
    xi = LinearSectionB(
        SCALAR_SHAPE,
        SmoothMap.constant([5.0], 0),
        MatrixMap.constant([[2.0]]),
    )
    cap = squarecap_b(xi, [], [3.0])
    assert support.elements_equal(cap, IterBCElement(SCALAR_SHAPE, [], [3.0], [6.0], [5.0]))


def test_squarecap_defining_property():
    for _ in range(10):
        shape = support.random_shape(RNG)
        grid = support.random_grid(RNG, shape)
        m = support.rand_vec(RNG, shape.base_dim)
        kappa = support.rand_vec(RNG, shape.dim_c)
        cap_b = squarecap_b(grid.xi, m, kappa)
        cap_a = squarecap_a(grid.eta, m, kappa)
        for _ in range(20):
            psi = DualBElement(
                shape, m, kappa,
                support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b),
            )
            lhs = pair_cstar_b(cap_b, psi)
            rhs = ell_b(grid.xi, psi)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
            phi = DualAElement(
                shape, m,
                support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b),
                kappa,
            )
            lhs = pair_cstar_a(cap_a, phi)
            rhs = ell_a(grid.eta, phi)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_ell_b_on_zero_side_reads_base_section():
    shape = support.random_shape(RNG)
    grid = support.random_grid(RNG, shape)
    m = support.rand_vec(RNG, shape.base_dim)
    psi = DualBElement(
        shape, m,
        support.rand_vec(RNG, shape.dim_c),
        support.rand_vec(RNG, shape.dim_a),
        np.zeros(shape.dim_b),
    )
    expected = float(psi.alpha @ grid.xi.base_section(m))
    assert ell_b(grid.xi, psi) == pytest.approx(expected, abs=1e-12)


def test_squarecap_pairing_example():
    mb = IterBCElement(SCALAR_SHAPE, [], [5.0], [3.0], [2.0])
    ma = IterACElement(SCALAR_SHAPE, [], [5.0], [7.0], [11.0])
    assert squarecap_pairing(mb, ma) == -19.0


def test_warp_pairing_frozen_example():
    grid = support.constant_grid(SCALAR_SHAPE, [1.0], [1.0], [[2.0]], [[3.0]])
    lhs, rhs = warp_pairing_check(grid, [], [3.0])
    assert lhs == 3.0
    assert rhs == 3.0


def test_warp_pairing_random():
    for _ in range(100):
        shape = support.random_shape(RNG)
        grid = support.random_grid(RNG, shape)
        m = support.rand_vec(RNG, shape.base_dim)
        kappa = support.rand_vec(RNG, shape.dim_c)
        lhs, rhs = warp_pairing_check(grid, m, kappa)
        assert abs(lhs - rhs) <= 1e-9
        swapped_lhs, swapped_rhs = warp_pairing_check(swap_grid(grid), m, kappa)
        assert abs(swapped_lhs + lhs) <= 1e-9
        assert abs(swapped_rhs + rhs) <= 1e-9


def test_cstar_projection_characterization():
    shape = DvbShape(2, 3, 4, 2)
    m = support.rand_vec(RNG, 2)
    psi = DualBElement(
        shape, m, support.rand_vec(RNG, 4), support.rand_vec(RNG, 2), support.rand_vec(RNG, 3)
    )
    proj = cstar_projection(psi)
    assert np.array_equal(proj, psi.kappa)
    for j, basis_core in enumerate(np.eye(shape.dim_c)):
        carried = add_over_a(
            zero_over_b(shape, m, psi.b), core_embed(shape, m, basis_core)
        )
        assert pair_b(psi, carried) == proj[j]


def test_squarecap_linear_in_kappa():
    shape = support.random_shape(RNG)
    grid = support.random_grid(RNG, shape)
    m = support.rand_vec(RNG, shape.base_dim)
    k1 = support.rand_vec(RNG, shape.dim_c)
    k2 = support.rand_vec(RNG, shape.dim_c)
    cap1 = squarecap_b(grid.xi, m, k1)
    cap2 = squarecap_b(grid.xi, m, k2)
    cap12 = squarecap_b(grid.xi, m, k1 + k2)
    assert np.allclose(cap12.beta, cap1.beta + cap2.beta, rtol=0.0, atol=1e-12)
    assert np.array_equal(cap12.a, cap1.a)
    scaled = squarecap_b(grid.xi, m, 3.0 * k1)
    assert np.allclose(scaled.beta, 3.0 * cap1.beta, rtol=0.0, atol=1e-12)
    acap1 = squarecap_a(grid.eta, m, k1)
    acap12 = squarecap_a(grid.eta, m, k1 + k2)
    acap2 = squarecap_a(grid.eta, m, k2)
    assert np.allclose(acap12.alpha, acap1.alpha + acap2.alpha, rtol=0.0, atol=1e-12)


def test_linear_section_validation():
    shape = DvbShape(1, 2, 2, 1)
    good_base = SmoothMap.parse(["x0"], 1)
    with pytest.raises(IncompatibleElements):
        LinearSectionB(shape, SmoothMap.parse(["x0", "x0"], 1), MatrixMap.constant(np.zeros((2, 2))))
    with pytest.raises(IncompatibleElements):
        LinearSectionB(shape, good_base, MatrixMap.constant(np.zeros((2, 1))))
    with pytest.raises(IncompatibleElements):
        LinearSectionB(shape, SmoothMap.parse(["x0"], 2), MatrixMap.constant(np.zeros((2, 2))))
    with pytest.raises(IncompatibleElements):
        LinearSectionA(shape, good_base, MatrixMap.constant(np.zeros((2, 1))))
    xi = LinearSectionB(shape, good_base, MatrixMap.constant(np.zeros((2, 2))))
    other = DvbShape(2, 1, 2, 1)
    eta = LinearSectionA(other, good_base, MatrixMap.constant(np.zeros((2, 2))))
    with pytest.raises(IncompatibleElements):
        Grid(xi=xi, eta=eta)


def test_grid_rejects_sections_in_the_wrong_slots():
    # Swapped, this grid's warp would be minus the bracket [X, Y] = (0, 1), and
    # its pairing check would still pass on the wrong sign.
    grid = double_tangent_grid(SmoothMap.parse(["1", "0"], 2), SmoothMap.parse(["0", "x0"], 2))
    assert warp(grid, [0.3, 0.7]).tolist() == [0.0, 1.0]
    at = grid.at(np.array([0.3, 0.7]))
    for xi, eta in ((grid.xi, grid.eta), (at.xi, at.eta)):
        for swapped in ((eta, xi), (xi, xi), (eta, eta)):
            with pytest.raises(IncompatibleElements, match="over B"):
                Grid(*swapped)
        assert Grid(xi, eta).xi is xi


# -- one evaluation per point ----------------------------------------------------

def _count_map_calls(monkeypatch) -> list[int]:
    calls = [0]
    original = SmoothMap.__call__

    def counted(self, point):
        calls[0] += 1
        return original(self, point)

    monkeypatch.setattr(SmoothMap, "__call__", counted)
    return calls


def test_at_evaluates_each_section_map_once(monkeypatch):
    calls = _count_map_calls(monkeypatch)
    for _ in range(10):
        shape = support.random_shape(RNG)
        grid = support.random_grid(RNG, shape)
        m = support.rand_vec(RNG, shape.base_dim)
        kappa = support.rand_vec(RNG, shape.dim_c)
        psi = DualBElement(
            shape, m, kappa,
            support.rand_vec(RNG, (20, shape.dim_a)), support.rand_vec(RNG, (20, shape.dim_b)),
        )
        phi = DualAElement(
            shape, m,
            support.rand_vec(RNG, (20, shape.dim_a)), support.rand_vec(RNG, (20, shape.dim_b)), kappa,
        )

        calls[0] = 0
        at_m = grid.at(m)
        # Two maps per section: the base section and the fiber matrix.
        assert calls[0] == 4
        warp(at_m, m)
        squarecap_b(at_m.xi, m, kappa)
        squarecap_a(at_m.eta, m, kappa)
        ell_b(at_m.xi, psi)
        ell_a(at_m.eta, phi)
        warp_pairing_check(at_m, m, kappa)
        at_m.xi(psi.b)
        at_m.eta(phi.a)
        assert calls[0] == 4

        calls[0] = 0
        warp(grid, m)
        assert calls[0] == 4


def test_section_at_rejects_another_point():
    shape = DvbShape(1, 1, 1, 1)
    grid = support.random_grid(RNG, shape)
    at_m = grid.at([0.5])
    assert at_m.at(np.array([0.5])) == at_m
    with pytest.raises(IncompatibleElements):
        warp(at_m, [0.25])
    with pytest.raises(IncompatibleElements):
        squarecap_b(at_m.xi, [0.25], [1.0])


def test_a_grid_of_values_at_m_is_its_own_value_at_m(monkeypatch):
    shape = DvbShape(2, 1, 2, 2)
    grid = support.random_grid(RNG, shape)
    for m in (np.array([0.5, -0.25]), support.rand_vec(RNG, (3, 2))):
        at_m = grid.at(m)
        assert at_m.at(m) is at_m and at_m.at(m.copy()) is at_m
        built = []
        monkeypatch.setattr(Grid, "__init__", lambda self, *args: built.append(args))
        warp_pairing_check(at_m, m, support.rand_vec(RNG, shape.dim_c))
        monkeypatch.undo()
        assert built == []
    with pytest.raises(IncompatibleElements):
        grid.at(np.array([0.5, -0.25])).at(np.array([0.5, 0.25]))


def test_section_values_equal_their_formulas_bitwise():
    for _ in range(20):
        shape = support.random_shape(RNG)
        grid = support.random_grid(RNG, shape)
        m = support.rand_vec(RNG, shape.base_dim)
        kappa = support.rand_vec(RNG, shape.dim_c)
        x_val, lam = grid.xi.base_section(m), grid.xi.fiber_matrix(m)
        y_val, mu = grid.eta.base_section(m), grid.eta.fiber_matrix(m)

        assert np.array_equal(warp(grid, m), lam @ y_val - mu @ x_val)
        assert support.elements_equal(
            squarecap_b(grid.xi, m, kappa), IterBCElement(shape, m, kappa, lam.T @ kappa, x_val)
        )
        assert support.elements_equal(
            squarecap_a(grid.eta, m, kappa), IterACElement(shape, m, kappa, mu.T @ kappa, y_val)
        )
        alpha, b = support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b)
        psi = DualBElement(shape, m, kappa, alpha, b)
        assert ell_b(grid.xi, psi) == float(kappa @ (lam @ b)) + float(alpha @ x_val)
        a, beta = support.rand_vec(RNG, shape.dim_a), support.rand_vec(RNG, shape.dim_b)
        phi = DualAElement(shape, m, a, beta, kappa)
        assert ell_a(grid.eta, phi) == float(beta @ y_val) + float(kappa @ (mu @ a))


def test_batched_fibers_equal_their_rows():
    rows = 6
    for _ in range(20):
        shape = support.random_shape(RNG)
        grid = support.random_grid(RNG, shape)
        m = support.rand_vec(RNG, shape.base_dim)
        at_m = grid.at(m)
        kappas = support.rand_vec(RNG, (rows, shape.dim_c))
        psi = DualBElement(
            shape, m, kappas,
            support.rand_vec(RNG, (rows, shape.dim_a)), support.rand_vec(RNG, (rows, shape.dim_b)),
        )
        lhs, rhs = warp_pairing_check(at_m, m, kappas)
        ells = ell_b(at_m.xi, psi)
        caps = squarecap_a(at_m.eta, m, kappas)
        assert lhs.shape == rhs.shape == ells.shape == (rows,)
        for i in range(rows):
            row_lhs, row_rhs = warp_pairing_check(grid, m, kappas[i])
            row_psi = DualBElement(shape, m, kappas[i], psi.alpha[i], psi.b[i])
            row_cap = squarecap_a(grid.eta, m, kappas[i])
            for value, expected in ((lhs[i], row_lhs), (rhs[i], row_rhs),
                                    (ells[i], ell_b(grid.xi, row_psi))):
                assert abs(value - expected) <= 2e-15 * max(1.0, abs(expected))
            assert np.allclose(caps.alpha[i], row_cap.alpha, rtol=2e-15, atol=2e-15)
            assert np.array_equal(caps.b, row_cap.b)


def test_family_grid_values_equal_their_rows(monkeypatch):
    """warp-pairing evaluates one grid of families per batch.  Replaying its
    stream block by block gives each row's own grid and point: row r's grid
    is the tree of row r of each role's block, as ``poly_map`` builds it.
    The row's base values and fiber matrices must be that grid's there,
    bitwise, and what is built from them must match the row's own within a
    few ulps."""
    seen = []

    def recorded(grid, m, kappa):
        seen.append((grid, m, kappa))
        return warp_pairing_check(grid, m, kappa)

    monkeypatch.setattr(sections, "warp_pairing_check", recorded)
    for samples in (1, 5, 65):
        for _ in range(6):
            shape = support.random_shape(RNG)
            da, db, dc, dim = shape.dim_a, shape.dim_b, shape.dim_c, shape.base_dim
            seed = int(RNG.integers(2**32))
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            seen.clear()
            suites._run_warp_pairing(ProblemSpec(Chart(dim), dvb_shapes=(shape,)), samples, rng)
            # Each batch checks its grid's values, then the swapped grid's.
            batches = list(zip(seen[::2], seen[1::2], strict=True))
            assert sum(len(m) for (_, m, _), _ in batches) == samples

            for (value, m, kappa), (flipped, _, _) in batches:
                rows = len(m)
                # One degree-1 block per role: X, Lambda, Y, then Mu.
                blocks = [
                    suites._poly_draw(replay, rows, dim, codim, degree=1)[0] for codim in support.grid_codims(shape)
                ]
                grids = [
                    support.grid_of(shape, *(support.poly_tree(dim, block[r], None) for block in blocks))
                    for r in range(rows)
                ]
                width = dim + dc + suites._SQUARECAP_DRAWS * 2 * (da + db) + da + db + 2 * dc
                block = replay.uniform(-1.0, 1.0, (rows, width))
                replay.integers(-8, 9, (rows, 2 * (da + db) + 4 * dc))
                assert np.array_equal(m, block[:, :dim])
                assert np.array_equal(kappa, block[:, dim:dim + dc])

                per_row = [grid.at(point) for grid, point in zip(grids, m)]
                swapped = [swap_grid(grid).at(point) for grid, point in zip(grids, m)]
                for batch, singles in ((value, per_row), (flipped, swapped)):
                    for i, single in enumerate(singles):
                        for got, want in ((batch.xi, single.xi), (batch.eta, single.eta)):
                            assert np.array_equal(got.base[i], want.base)
                            assert np.array_equal(got.matrix[i], want.matrix)

                psi = DualBElement(shape, m, kappa, support.rand_vec(RNG, (rows, da)),
                                   support.rand_vec(RNG, (rows, db)))
                phi = DualAElement(shape, m, support.rand_vec(RNG, (rows, da)),
                                   support.rand_vec(RNG, (rows, db)), kappa)
                row_psi = [DualBElement(shape, m[i], kappa[i], psi.alpha[i], psi.b[i]) for i in range(rows)]
                row_phi = [DualAElement(shape, m[i], phi.a[i], phi.beta[i], kappa[i]) for i in range(rows)]
                row_checks = [warp_pairing_check(v, m[i], kappa[i]) for i, v in enumerate(per_row)]
                lhs, rhs = warp_pairing_check(value, m, kappa)
                support.assert_rows(lhs, [check[0] for check in row_checks])
                support.assert_rows(rhs, [check[1] for check in row_checks])
                support.assert_rows(warp(value, m), [warp(v, m[i]) for i, v in enumerate(per_row)])
                support.assert_rows(squarecap_b(value.xi, m, kappa),
                                    [squarecap_b(v.xi, m[i], kappa[i]) for i, v in enumerate(per_row)])
                support.assert_rows(squarecap_a(value.eta, m, kappa),
                                    [squarecap_a(v.eta, m[i], kappa[i]) for i, v in enumerate(per_row)])
                support.assert_rows(ell_b(value.xi, psi), [ell_b(v.xi, p) for v, p in zip(per_row, row_psi)])
                support.assert_rows(ell_a(value.eta, phi), [ell_a(v.eta, p) for v, p in zip(per_row, row_phi)])
            assert rng.bit_generator.state == replay.bit_generator.state
