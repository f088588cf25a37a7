"""Shared random generators for the tests: the harness's own, plus a constant grid."""

import numpy as np

from dvbcalc import Grid, LinearSectionA, LinearSectionB, MatrixMap, SmoothMap
from dvbcalc.harness.suites import (  # noqa: F401
    _matrix_map as matrix_map,
    _poly_expr as poly_expr,
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
