"""Shared helpers for the tests: the harness's random generators and the
tree of one draw, equality of dvb records, both sides of the two pairing
identities at a point, a random grid, the grid of given maps and a constant
grid, a row-by-row check of batched results, tangent points and covectors of
T(A) from their coordinates, substitution into an expression, a change of
decomposition, and a Lie bracket over jets."""

import numpy as np

from dvbcalc import (
    DualAElement,
    DualBElement,
    DvbElement,
    DvbShape,
    Grid,
    IterACElement,
    IterBCElement,
    LinearSectionA,
    LinearSectionB,
    MatrixMap,
    SmoothMap,
    ell_differential,
    jets,
    lie_bracket,
    momentum_pairing,
    squarecap_complete_lift,
    squarecap_horizontal,
    squarecap_tangent_lift,
)
from dvbcalc.dvb import Record
from dvbcalc.expressions import Expr, Var
from dvbcalc.sections import SectionAt
from dvbcalc.harness.suites import _poly_draw as poly_draw, _poly_tree as poly_tree


EPS = np.finfo(float).eps


def rand_vec(rng, size) -> np.ndarray:
    """Uniform [-1, 1) entries: a vector of length size, or an array of shape size."""
    return rng.uniform(-1.0, 1.0, size)


def arrays_of(value) -> list[np.ndarray]:
    """An array result as itself; a dvb record or a SectionAt as its arrays."""
    if isinstance(value, Record):
        return [getattr(value, name) for name, _ in value._fields]
    if isinstance(value, SectionAt):
        return [value.m, value.base, value.matrix]
    return [np.asarray(value)]


def elements_equal(x: Record, y: Record) -> bool:
    """Same type, same shape, and bitwise-equal components.

    An unbatched component equals a batched one when it equals every row;
    two batches of different lengths are never equal.
    """
    if type(x) is not type(y) or x.shape != y.shape:
        return False
    for name, _ in x._fields:
        u, v = getattr(x, name), getattr(y, name)
        if (u.shape != v.shape and u.ndim == v.ndim) or not (u == v).all():
            return False
    return True


def assert_rows(batched, per_row, ulps: int = 16) -> None:
    """Row r of each batched array equals per_row[r] within a few ulps of the row's scale."""
    for r, single in enumerate(per_row):
        for got, want in zip(arrays_of(batched), arrays_of(single), strict=True):
            assert got.dtype == np.float64
            want = np.asarray(want, dtype=float)
            row = got[r] if got.ndim > want.ndim else got
            assert row.shape == want.shape
            scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
            assert np.max(np.abs(row - want), initial=0.0) <= ulps * EPS * scale


def random_shape(rng, max_dim: int = 4, max_base: int = 3) -> DvbShape:
    """A random dvb shape: side and core dimensions in 1..max_dim, base in 0..max_base."""
    dims = rng.integers(1, max_dim + 1, 3)
    base = int(rng.integers(0, max_base + 1))
    return DvbShape(int(dims[0]), int(dims[1]), int(dims[2]), base)


def poly_map(rng, dim: int, codim: int, degree: int = 2) -> SmoothMap:
    """A random polynomial map: the tree of one ``poly_draw``."""
    coeffs, pairs = poly_draw(rng, 1, dim, codim, degree)
    return poly_tree(dim, coeffs[0], None if pairs is None else pairs[0])


def bracket_pairing(x_field: SmoothMap, y_field: SmoothMap, x, p):
    """Both sides of the bracket pairing identity at x, p: d ell_Y paired with
    the complete-lift squarecap of X, against minus the momentum of [X, Y]."""
    return momentum_pairing(
        squarecap_tangent_lift(y_field, x, p),
        squarecap_complete_lift(x_field, x, p),
        lie_bracket(x_field, y_field, x),
        p,
    )


def connection_pairing(conn, x_field: SmoothMap, mu: SmoothMap, x, kappa):
    """Both sides of the connection pairing identity at x, kappa: d ell_mu paired
    with the horizontal squarecap of X, against minus the momentum of nabla_X mu."""
    return momentum_pairing(
        ell_differential(mu, x, kappa),
        squarecap_horizontal(conn, x_field, x, kappa),
        conn.nabla(x_field, mu, x),
        kappa,
    )


def matrix_map(rng, dim: int, rows: int, cols: int) -> MatrixMap:
    """A random degree-1 rows x cols matrix map on a dim-chart, drawn by ``poly_map``."""
    return MatrixMap.from_smooth_map(poly_map(rng, dim, rows * cols, degree=1), rows, cols)


def grid_codims(shape: DvbShape) -> tuple[int, int, int, int]:
    """The codimensions of a grid's X, Lambda, Y and Mu, in that order."""
    return shape.dim_a, shape.dim_c * shape.dim_b, shape.dim_b, shape.dim_c * shape.dim_a


def grid_of(shape: DvbShape, x: SmoothMap, lam: SmoothMap, y: SmoothMap, mu: SmoothMap) -> Grid:
    """The grid of X and Y with fiber matrices Lambda and Mu, each given as a map of ``grid_codims``."""
    return Grid(
        xi=LinearSectionB(shape, x, MatrixMap.from_smooth_map(lam, shape.dim_c, shape.dim_b)),
        eta=LinearSectionA(shape, y, MatrixMap.from_smooth_map(mu, shape.dim_c, shape.dim_a)),
    )


def random_grid(rng, shape: DvbShape) -> Grid:
    """A random degree-1 grid: X, Lambda, Y and Mu drawn in that order by ``poly_map``."""
    return grid_of(shape, *(poly_map(rng, shape.base_dim, codim, degree=1) for codim in grid_codims(shape)))


def constant_grid(shape, x_value, y_value, lam, mu):
    """Grid with constant base sections and constant fiber matrices."""
    return Grid(
        xi=LinearSectionB(
            shape,
            SmoothMap.constant(x_value, shape.base_dim),
            MatrixMap.constant(np.asarray(lam, dtype=float)),
        ),
        eta=LinearSectionA(
            shape,
            SmoothMap.constant(y_value, shape.base_dim),
            MatrixMap.constant(np.asarray(mu, dtype=float)),
        ),
    )


def tangent_point(x, fiber, x_dot, fiber_dot):
    """The point (x, fiber; x_dot, fiber_dot) of T(A), A of rank len(fiber) over a len(x)-chart."""
    n, k = len(x), len(fiber)
    return DvbElement(DvbShape(k, n, k, n), x, fiber, x_dot, fiber_dot)


def covector(x, fiber, cov_x, cov_fiber):
    """The covector (x, fiber; cov_x, cov_fiber) of T*(A), A of rank len(fiber) over a len(x)-chart."""
    n, k = len(x), len(fiber)
    return DualAElement(DvbShape(k, n, k, n), x, fiber, cov_x, cov_fiber)


def compose(expr: Expr, subs) -> Expr:
    """expr with each variable x_i replaced by the expression subs[i]."""
    if type(expr) is Var:
        return subs[expr.index]
    fields = (getattr(expr, name) for name in expr.__match_args__)
    return type(expr)(*(compose(v, subs) if isinstance(v, Expr) else v for v in fields))


# -- a change of decomposition -------------------------------------------------
#
# sigma is a bilinear map A x B -> C at the point in question, held as a
# (dim_c, dim_a, dim_b) array: sigma(a, b)_k = sum_ij sigma[k, i, j] a_i b_j.
# It changes the decomposition by (a, b, c) -> (a, b, c + sigma(a, b)).


def sigma_of(sigma, a, b):
    """sigma(a, b), in C."""
    return np.einsum("kij,i,j->k", sigma, a, b)


def sigma_a_dual(sigma, a, kappa):
    """sigma(a, .)^T kappa, in B*."""
    return np.einsum("kij,i,k->j", sigma, a, kappa)


def sigma_b_dual(sigma, b, kappa):
    """sigma(., b)^T kappa, in A*."""
    return np.einsum("kij,j,k->i", sigma, b, kappa)


def change_decomposition(sigma, x):
    """x written in the decomposition changed by sigma.

    On D: c -> c + sigma(a, b).  On the duals: beta -> beta - sigma(a, .)^T kappa
    and alpha -> alpha - sigma(., b)^T kappa, which keep the pairings with D.
    On the iterated duals: the opposite shifts, which keep their C*-pairings.
    On linear sections at a point: Lambda -> Lambda + sigma(X, .) and
    Mu -> Mu + sigma(., Y).
    """
    if isinstance(x, SectionAt):
        if isinstance(x.section, LinearSectionB):
            return x._replace(matrix=x.matrix + np.einsum("kij,i->kj", sigma, x.base))
        return x._replace(matrix=x.matrix + np.einsum("kij,j->ki", sigma, x.base))
    shape, m = x.shape, x.m
    if isinstance(x, DvbElement):
        return DvbElement(shape, m, x.a, x.b, x.c + sigma_of(sigma, x.a, x.b))
    if isinstance(x, DualAElement):
        return DualAElement(shape, m, x.a, x.beta - sigma_a_dual(sigma, x.a, x.kappa), x.kappa)
    if isinstance(x, DualBElement):
        return DualBElement(shape, m, x.kappa, x.alpha - sigma_b_dual(sigma, x.b, x.kappa), x.b)
    if isinstance(x, IterBCElement):
        return IterBCElement(shape, m, x.kappa, x.beta + sigma_a_dual(sigma, x.a, x.kappa), x.a)
    if isinstance(x, IterACElement):
        return IterACElement(shape, m, x.kappa, x.alpha + sigma_b_dual(sigma, x.b, x.kappa), x.b)
    raise TypeError(f"no change of decomposition for {type(x).__name__}")


def jet_bracket(x_field: SmoothMap, y_field: SmoothMap, values) -> list:
    """[X, Y] at coordinate values that may be jets, each field's values and
    Jacobian rows from one ``jets.generic_jacobian`` pass: a reference
    bracket that nested jets differentiate."""
    xv, jx = jets.generic_jacobian(x_field.eval_generic, values)
    yv, jy = jets.generic_jacobian(y_field.eval_generic, values)
    dim = range(len(values))
    return [sum(jy[i][j] * xv[j] - jx[i][j] * yv[j] for j in dim) for i in dim]
