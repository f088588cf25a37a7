"""Shared helpers for the tests: the harness's random generators, a constant
grid, and tangent points and covectors of T(A) from their coordinates."""

import numpy as np

from dvbcalc import (
    DualAElement,
    DvbElement,
    DvbShape,
    Grid,
    LinearSectionA,
    LinearSectionB,
    MatrixMap,
    SmoothMap,
)
from dvbcalc.harness.suites import (  # noqa: F401
    _matrix_map as matrix_map,
    _poly_map as poly_map,
    _rand_vec as rand_vec,
    _random_grid as random_grid,
    _random_shape as random_shape,
)


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
