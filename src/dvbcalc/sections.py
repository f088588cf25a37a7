"""Linear sections, grids, warps, and the induced sections of iterated duals.

A linear section of the decomposed bundle over the B side is a pair
(base section X: M -> A-fiber, matrix map Lambda: M -> C x B): it sends b
over m to the element (m; X(m), b, Lambda(m) b).  Likewise over the A side
with (Y, Mu).  A grid is one linear section of each kind, and its warp at
m is the core vector

    warp = Lambda(m) Y(m) - Mu(m) X(m),

the core difference of the two counterclockwise/clockwise composites; the
composite through the B-side section enters with the positive sign.

Each linear section induces a section of the matching iterated dual over
C* (its "squarecap"); pairing the two squarecaps of a grid recovers the
warp with a minus sign, evaluated against kappa.

``section.at(m)`` evaluates a linear section's two maps at m once and
returns a ``SectionAt``, the fiber-linear map over m.  Its own ``at(m)`` is
itself, so every function here that takes a section (or a grid) and a
point also takes its value at that point, and repeated use at one point
costs no further map evaluation.  Fibers and kappa may be (N, dim)
batches; see ``dvb``.  At an (N, dim) batch of points ``at`` returns one
batched ``SectionAt``, and every function here that takes a value also
takes such a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dvb import (
    DvbElement,
    DvbShape,
    DualAElement,
    DualBElement,
    IncompatibleElements,
    IterACElement,
    IterBCElement,
    _dot,
    _same,
    core_difference,
    dual_iso_a,
    pair_a,
    pair_b,
    pair_cstar_a,
)
from .smoothmaps import MatrixMap, SmoothMap, _matvec


@dataclass(frozen=True)
class LinearSectionB:
    """Section of D -> B, linear over the base section M -> A-fiber."""

    shape: DvbShape
    base_section: SmoothMap
    fiber_matrix: MatrixMap

    def __post_init__(self):
        if self.base_section.domain_dim != self.shape.base_dim:
            raise IncompatibleElements("base section domain must match the chart")
        if self.base_section.codomain_dim != self.shape.dim_a:
            raise IncompatibleElements("base section must take values in the A fiber")
        if (self.fiber_matrix.rows, self.fiber_matrix.cols) != (self.shape.dim_c, self.shape.dim_b):
            raise IncompatibleElements("fiber matrix must map the B fiber to the core")

    def at(self, m) -> SectionAt:
        m = np.asarray(m, dtype=float)
        return SectionAt(self, m, self.base_section(m), self.fiber_matrix(m))

    def __call__(self, m, b) -> DvbElement:
        return self.at(m)(b)


@dataclass(frozen=True)
class LinearSectionA:
    """Section of D -> A, linear over the base section M -> B-fiber."""

    shape: DvbShape
    base_section: SmoothMap
    fiber_matrix: MatrixMap

    def __post_init__(self):
        if self.base_section.domain_dim != self.shape.base_dim:
            raise IncompatibleElements("base section domain must match the chart")
        if self.base_section.codomain_dim != self.shape.dim_b:
            raise IncompatibleElements("base section must take values in the B fiber")
        if (self.fiber_matrix.rows, self.fiber_matrix.cols) != (self.shape.dim_c, self.shape.dim_a):
            raise IncompatibleElements("fiber matrix must map the A fiber to the core")

    def at(self, m) -> SectionAt:
        m = np.asarray(m, dtype=float)
        return SectionAt(self, m, self.base_section(m), self.fiber_matrix(m))

    def __call__(self, m, a) -> DvbElement:
        return self.at(m)(a)


class SectionAt(NamedTuple):
    """A linear section at one base point m: its base value and fiber matrix there.

    Called on a fiber vector, or an (N, dim) batch of them, it gives the
    section's element over it: (m; base, b, matrix b) for a LinearSectionB,
    (m; a, base, matrix a) for a LinearSectionA.

    A batch, the value of ``section.at`` at (N, dim) points, holds N such
    values: m, base and matrix carry a leading axis of length N, and row i
    is the section at point i (member i's, if its maps are families).
    """

    section: LinearSectionA | LinearSectionB
    m: np.ndarray
    base: np.ndarray
    matrix: np.ndarray

    @property
    def shape(self) -> DvbShape:
        return self.section.shape

    def at(self, m) -> SectionAt:
        """Itself; m must be the point it was evaluated at."""
        if m is not self.m:
            _same(np.asarray(m, dtype=float), self.m, "base point")
        return self

    def __call__(self, fiber) -> DvbElement:
        fiber = np.asarray(fiber, dtype=float)
        core = _matvec(self.matrix, fiber)
        if isinstance(self.section, LinearSectionB):
            return DvbElement(self.shape, self.m, self.base, fiber, core)
        return DvbElement(self.shape, self.m, fiber, self.base, core)


@dataclass(frozen=True)
class Grid:
    """One linear section of each kind, or both sections' values at one point (``at``)."""

    xi: LinearSectionB | SectionAt
    eta: LinearSectionA | SectionAt

    def __post_init__(self):
        if self.xi.shape != self.eta.shape:
            raise IncompatibleElements("grid sections live on different shapes")

    @property
    def shape(self) -> DvbShape:
        return self.xi.shape

    def at(self, m) -> Grid:
        """Both sections evaluated once at m."""
        return Grid(self.xi.at(m), self.eta.at(m))


def swap_grid(grid: Grid) -> Grid:
    """Exchange the roles of the two sides; the warp changes sign.

    Takes a grid of sections, not of their values at a point.
    """
    old = grid.shape
    shape = DvbShape(old.dim_b, old.dim_a, old.dim_c, old.base_dim)
    return Grid(
        xi=LinearSectionB(shape, grid.eta.base_section, grid.eta.fiber_matrix),
        eta=LinearSectionA(shape, grid.xi.base_section, grid.xi.fiber_matrix),
    )


def warp(grid: Grid, m) -> np.ndarray:
    """Core difference of the two ways around the grid square at m."""
    xi, eta = grid.xi.at(m), grid.eta.at(m)
    return core_difference(xi(eta.base), eta(xi.base))


def squarecap_b(xi: LinearSectionB | SectionAt, m, kappa) -> IterBCElement:
    """Section of the iterated dual over C* induced by a B-side linear section.

    Characterized by <squarecap_b(xi, m, kappa), psi>_C* = ell_b(xi, psi)
    for every psi over kappa.
    """
    xi = xi.at(m)
    kappa = np.asarray(kappa, dtype=float)
    return IterBCElement(xi.shape, xi.m, kappa, _matvec(np.swapaxes(xi.matrix, -1, -2), kappa), xi.base)


def squarecap_a(eta: LinearSectionA | SectionAt, m, kappa) -> IterACElement:
    """A-side analogue of squarecap_b, landing in the other iterated dual."""
    eta = eta.at(m)
    kappa = np.asarray(kappa, dtype=float)
    return IterACElement(eta.shape, eta.m, kappa, _matvec(np.swapaxes(eta.matrix, -1, -2), kappa), eta.base)


def ell_b(xi: LinearSectionB | SectionAt, psi: DualBElement) -> float | np.ndarray:
    """The linear function on the dual over B attached to a B-side section."""
    return pair_b(psi, xi.at(psi.m)(psi.b))


def ell_a(eta: LinearSectionA | SectionAt, phi: DualAElement) -> float | np.ndarray:
    """The linear function on the dual over A attached to an A-side section."""
    return pair_a(phi, eta.at(phi.m)(phi.a))


def squarecap_pairing(mb: IterBCElement, ma: IterACElement) -> float | np.ndarray:
    """Pairing of the two iterated duals over C*, routed through dual_iso_a.

    Decomposes as <alpha, a> - <beta, b>.
    """
    return pair_cstar_a(ma, dual_iso_a(mb))


def warp_pairing_check(grid: Grid, m, kappa) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Both sides of the squarecap-pairing identity at kappa over m.

    Left: the pairing of the grid's two squarecaps.  Right: kappa paired
    with minus the warp.  The two agree up to rounding.  For an (N, dim)
    batch of kappa both sides are (N,) arrays.
    """
    grid = grid.at(m)
    kappa = np.asarray(kappa, dtype=float)
    lhs = squarecap_pairing(
        squarecap_b(grid.xi, m, kappa), squarecap_a(grid.eta, m, kappa)
    )
    rhs = _dot(kappa, -warp(grid, m))
    return lhs, rhs


def cstar_projection(psi: DualBElement) -> np.ndarray:
    """Projection of the dual over B to C*.

    In the decomposition this reads off kappa; it is characterized by
    <cstar_projection(psi), c> = <psi, 0_b +_A c> over core vectors c.
    """
    return psi.kappa
