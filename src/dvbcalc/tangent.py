"""Tangent bundles of vector bundles in chart coordinates.

The tangent bundle T(A) of a trivialized bundle A of rank k over an n-chart
is the double vector bundle with sides A and TM and core the A-fiber, of
shape ``tangent_bundle_shape(bundle)``.  Its points, and the covectors of
T*(A), are the decomposed elements of that shape:

    point (x, fiber; x_dot, fiber_dot) of T(A)
        = DvbElement(shape, m=x, a=fiber, b=x_dot, c=fiber_dot)
    covector (x, fiber; cov_x, cov_fiber) of T*(A)
        = DualAElement(shape, m=x, a=fiber, beta=cov_x, kappa=cov_fiber)

so a covector evaluates on a tangent vector at the same point by
``dvb.pair_a``.  The double tangent bundle T(TM) is the case A = TM, where
fiber is the second velocity.

Lifts are linear sections of T(A), one function each: ``tangent_lift(mu)``
is linear over TM (a ``LinearSectionB``), while ``complete_lift(X)`` and
``horizontal_field(conn, Z)`` are linear over A (``LinearSectionA``s, i.e.
linear vector fields on A).  A lift's value over a point is the section
called there, e.g. ``complete_lift(X)(x, v)``.  The grids built here are:

  * on T(TM): the tangent lift of a vector field Y paired with the
    complete lift of X; the warp is the Lie bracket [X, Y];
  * on T(A): the tangent lift of a section mu paired with the horizontal
    lift of Z; the warp is the covariant derivative nabla_Z mu.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .charts import Connection, TrivialBundle
from .dvb import DvbElement, DvbShape
from .sections import Grid, LinearSectionA, LinearSectionB, SectionAt, warp
from .smoothmaps import DimensionMismatch, MatrixMap, SmoothMap, _check_vector_field


def _shape(n: int, k: int) -> DvbShape:
    """The shape of T(A) for a rank-k bundle over an n-chart."""
    return DvbShape(dim_a=k, dim_b=n, dim_c=k, base_dim=n)


def tangent_bundle_shape(bundle: TrivialBundle) -> DvbShape:
    """The shape of T(A): sides A and TM, core the A fiber."""
    return _shape(bundle.chart.dim, bundle.fiber_dim)


# -- lifts to the tangent bundle ------------------------------------------------

def tangent_lift(mu: SmoothMap) -> LinearSectionB:
    """T(mu) over TM: x_dot over x goes to (x, mu(x); x_dot, Dmu(x) x_dot)."""
    return LinearSectionB(_shape(mu.domain_dim, mu.codomain_dim), mu, MatrixMap.from_jacobian(mu))


def complete_lift(x_field: SmoothMap) -> LinearSectionA:
    """The complete lift of X over TM: v over x goes to (x, v; X(x), DX(x) v)."""
    _check_vector_field(x_field)
    n = x_field.domain_dim
    return LinearSectionA(_shape(n, n), x_field, MatrixMap.from_jacobian(x_field))


def horizontal_field(conn: Connection, z_field: SmoothMap) -> LinearSectionA:
    """Horizontal lift of Z as a linear vector field: fiber part -omega(Z) a."""
    k = conn.bundle.fiber_dim
    return LinearSectionA(
        tangent_bundle_shape(conn.bundle),
        z_field,
        MatrixMap(k, k, lambda m: -conn.omega(z_field, m)),
    )


def canonical_involution(t: DvbElement) -> DvbElement:
    """Swap the two tangent slots of a double tangent vector."""
    if t.shape.dim_a != t.shape.dim_b:
        raise DimensionMismatch("canonical involution needs a double tangent vector")
    return DvbElement(t.shape, t.m, t.b, t.a, t.c)


# -- decomposed grids on tangent bundles ---------------------------------------

def double_tangent_grid(x_field: SmoothMap, y_field: SmoothMap) -> Grid:
    """Grid on T(TM): tangent lift of Y against the complete lift of X.

    A Y that is not a vector field on X's chart gives a tangent lift of
    another shape, which ``Grid`` rejects.
    """
    return Grid(xi=tangent_lift(y_field), eta=complete_lift(x_field))


def connection_grid(conn: Connection, z_field: SmoothMap, mu: SmoothMap) -> Grid:
    """Grid on T(A): tangent lift of mu against the horizontal lift of Z."""
    return Grid(xi=tangent_lift(mu), eta=horizontal_field(conn, z_field))


def lie_bracket_via_warp(x_field: SmoothMap, y_field: SmoothMap, m) -> np.ndarray:
    """[X, Y] at m computed as the warp of the double tangent grid."""
    return warp(double_tangent_grid(x_field, y_field), m)


def covariant_derivative_via_warp(
    conn: Connection, z_field: SmoothMap, mu: SmoothMap, m
) -> np.ndarray:
    """nabla_Z mu at m computed as the warp of the connection grid."""
    return warp(connection_grid(conn, z_field, mu), m)


def linear_vector_field_operator(
    field: LinearSectionA | SectionAt,
) -> Callable[[SmoothMap, np.ndarray], np.ndarray]:
    """The first-order operator on sections attached to a linear vector field.

    For field (x, a) -> (X(x), L(x) a) the operator sends mu to
    Dmu X - L mu, realized as the warp of the grid (T(mu), mu), (field, X).
    The field may be its value at one point (``field.at(m)``); the operator
    then applies at that point only.
    """

    def apply(mu: SmoothMap, m) -> np.ndarray:
        return warp(Grid(xi=tangent_lift(mu), eta=field), m)

    return apply
