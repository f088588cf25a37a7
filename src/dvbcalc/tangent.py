"""Tangent bundles of vector bundles in chart coordinates.

The tangent bundle of a trivialized bundle A over an n-chart is the double
vector bundle with sides A and TM and core the A-fiber; an element is
stored as (x, fiber, x_dot, fiber_dot).  The double tangent bundle is the
special case fiber = x-velocity.

The decomposed grids built here are the two standard ones:

  * on T(TM): the tangent lift of a vector field Y paired with the
    complete lift of X; the warp is the Lie bracket [X, Y];
  * on T(A): the tangent lift of a section mu paired with the horizontal
    lift of Z; the warp is the covariant derivative nabla_Z mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Connection, TrivialBundle
from .dvb import DvbShape, Record
from .sections import Grid, LinearSectionA, LinearSectionB, warp
from .smoothmaps import DimensionMismatch, MatrixMap, SmoothMap, jacobian


class TangentPoint(Record):
    """Element (x, fiber; x_dot, fiber_dot) of T(A) for a trivialized bundle A.

    Outline: projects to the bundle point (x, fiber) and to the base
    tangent (x, x_dot); the core component is fiber_dot.
    """

    __slots__ = ("x", "fiber", "x_dot", "fiber_dot")
    _fields = (("x", "n"), ("fiber", "k"), ("x_dot", "n"), ("fiber_dot", "k"))

    def __init__(self, x, fiber, x_dot, fiber_dot):
        super().__init__(None, x, fiber, x_dot, fiber_dot)

    def bundle_point(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.fiber

    def base_tangent(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.x_dot


class CotangentPoint(Record):
    """Element of T*(A): a covector (cov_x, cov_fiber) at the point (x, fiber)."""

    __slots__ = ("x", "fiber", "cov_x", "cov_fiber")
    _fields = (("x", "n"), ("fiber", "k"), ("cov_x", "n"), ("cov_fiber", "k"))

    def __init__(self, x, fiber, cov_x, cov_fiber):
        super().__init__(None, x, fiber, cov_x, cov_fiber)

    def bundle_point(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.fiber


class ProlongationDual(Record):
    """Functional on double tangent vectors sharing the base tangent (x, x_dot).

    Pairs (sigma_fiber, sigma_fiber_dot) against the (fiber, fiber_dot)
    components; this is the dual of T(TM) over TM through the tangent
    projection.
    """

    __slots__ = ("x", "x_dot", "sigma_fiber", "sigma_fiber_dot")
    _fields = (("x", "n"), ("x_dot", "n"), ("sigma_fiber", "n"), ("sigma_fiber_dot", "n"))

    def __init__(self, x, x_dot, sigma_fiber, sigma_fiber_dot):
        super().__init__(None, x, x_dot, sigma_fiber, sigma_fiber_dot)


# -- lifts to the double tangent bundle ---------------------------------------

def _check_field(x_field: SmoothMap) -> None:
    if x_field.codomain_dim != x_field.domain_dim:
        raise DimensionMismatch("expected a vector field on the chart")


def complete_lift(x_field: SmoothMap, x, v) -> TangentPoint:
    """Complete lift of X at (x, v) in TM: (x, v; X(x), DX(x) v)."""
    _check_field(x_field)
    v = np.asarray(v, dtype=float)
    return TangentPoint(x, v, x_field(x), jacobian(x_field, x) @ v)


def canonical_involution(t: TangentPoint) -> TangentPoint:
    """Swap the two tangent slots of a double tangent vector."""
    if t.fiber.shape != t.x_dot.shape:
        raise DimensionMismatch("canonical involution needs a double tangent vector")
    return TangentPoint(t.x, t.x_dot, t.fiber, t.fiber_dot)


def tangent_section_lift(mu: SmoothMap, x, x_dot) -> TangentPoint:
    """Tangent of a section: T(mu)(x, x_dot) = (x, mu(x); x_dot, Dmu(x) x_dot)."""
    x_dot = np.asarray(x_dot, dtype=float)
    return TangentPoint(x, mu(x), x_dot, jacobian(mu, x) @ x_dot)


# -- linear vector fields and horizontal lifts ---------------------------------

@dataclass(frozen=True)
class LinearVectorField:
    """Vector field on a trivialized bundle, linear over the base field.

    At (x, a) the value is (base_field(x), fiber_matrix(x) a), a tangent
    vector to the total space.
    """

    bundle: TrivialBundle
    base_field: SmoothMap
    fiber_matrix: MatrixMap

    def __post_init__(self):
        n, k = self.bundle.chart.dim, self.bundle.fiber_dim
        if self.base_field.domain_dim != n or self.base_field.codomain_dim != n:
            raise DimensionMismatch("base field must be a vector field on the chart")
        if (self.fiber_matrix.rows, self.fiber_matrix.cols) != (k, k):
            raise DimensionMismatch("fiber matrix must act on the fiber")

    def __call__(self, x, a) -> TangentPoint:
        a = np.asarray(a, dtype=float)
        return TangentPoint(x, a, self.base_field(x), self.fiber_matrix(x) @ a)


def horizontal_field(conn: Connection, z_field: SmoothMap) -> LinearVectorField:
    """Horizontal lift of Z as a linear vector field: fiber part -omega(Z) a."""
    k = conn.bundle.fiber_dim
    return LinearVectorField(
        conn.bundle,
        z_field,
        MatrixMap(k, k, lambda m: -conn.omega(z_field, m)),
    )


def horizontal_lift(conn: Connection, z_field: SmoothMap, x, a) -> TangentPoint:
    """Value of the horizontal lift of Z at the bundle point (x, a)."""
    return horizontal_field(conn, z_field)(x, a)


# -- decomposed grids on tangent bundles ---------------------------------------

def tangent_bundle_shape(bundle: TrivialBundle) -> DvbShape:
    """The shape of T(A): sides A and TM, core the A fiber."""
    n, k = bundle.chart.dim, bundle.fiber_dim
    return DvbShape(dim_a=k, dim_b=n, dim_c=k, base_dim=n)


def section_lift_pair(bundle: TrivialBundle, mu: SmoothMap) -> LinearSectionB:
    """The linear section (T(mu), mu) of T(A) over TM in decomposed form."""
    if mu.domain_dim != bundle.chart.dim or mu.codomain_dim != bundle.fiber_dim:
        raise DimensionMismatch("section must map the chart into the fiber")
    return LinearSectionB(
        tangent_bundle_shape(bundle), mu, MatrixMap.from_jacobian(mu)
    )


def linear_field_pair(field: LinearVectorField) -> LinearSectionA:
    """A linear vector field on A as a linear section of T(A) over A."""
    return LinearSectionA(
        tangent_bundle_shape(field.bundle), field.base_field, field.fiber_matrix
    )


def double_tangent_grid(x_field: SmoothMap, y_field: SmoothMap) -> Grid:
    """Grid on T(TM): tangent lift of Y against the complete lift of X."""
    _check_field(x_field)
    _check_field(y_field)
    if x_field.domain_dim != y_field.domain_dim:
        raise DimensionMismatch("vector fields live on different charts")
    n = x_field.domain_dim
    shape = DvbShape(dim_a=n, dim_b=n, dim_c=n, base_dim=n)
    return Grid(
        xi=LinearSectionB(shape, y_field, MatrixMap.from_jacobian(y_field)),
        eta=LinearSectionA(shape, x_field, MatrixMap.from_jacobian(x_field)),
    )


def connection_grid(conn: Connection, z_field: SmoothMap, mu: SmoothMap) -> Grid:
    """Grid on T(A): tangent lift of mu against the horizontal lift of Z."""
    return Grid(
        xi=section_lift_pair(conn.bundle, mu),
        eta=linear_field_pair(horizontal_field(conn, z_field)),
    )


def lie_bracket_via_warp(x_field: SmoothMap, y_field: SmoothMap, m) -> np.ndarray:
    """[X, Y] at m computed as the warp of the double tangent grid."""
    return warp(double_tangent_grid(x_field, y_field), m)


def covariant_derivative_via_warp(
    conn: Connection, z_field: SmoothMap, mu: SmoothMap, m
) -> np.ndarray:
    """nabla_Z mu at m computed as the warp of the connection grid."""
    return warp(connection_grid(conn, z_field, mu), m)


def linear_vector_field_operator(
    field: LinearVectorField,
) -> Callable[[SmoothMap, np.ndarray], np.ndarray]:
    """The first-order operator on sections attached to a linear vector field.

    For field (x, a) -> (X(x), L(x) a) the operator sends mu to
    Dmu X - L mu, realized as the warp of the grid (T(mu), mu), (field, X).
    """

    def apply(mu: SmoothMap, m) -> np.ndarray:
        grid = Grid(
            xi=section_lift_pair(field.bundle, mu),
            eta=linear_field_pair(field),
        )
        return warp(grid, m)

    return apply
