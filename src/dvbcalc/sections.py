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
returns a ``SectionAt``, the fiber-linear map over m, whose base and
matrix are read-only; the records it builds share its base and the cores
it makes (see ``dvb``'s sharing rule).  Its own ``at(m)`` is itself, as
is that of a grid of two such values, so every function here that takes
a section (or a grid) and a point also takes its value at that point,
and repeated use at one point costs no further map evaluation.  Fibers
and kappa may be (N, dim) batches; see ``dvb``.  At an (N, dim) batch
of points ``at`` returns one batched ``SectionAt``, and every function
here that takes a value also takes such a batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._value import Value
from .dvb import (
    DvbElement,
    DvbShape,
    DualAElement,
    DualBElement,
    IncompatibleElements,
    IterACElement,
    IterBCElement,
    _Derived,
    _checked_over,
    _dot,
    _frozen,
    _same,
    core_difference,
    dual_iso_a,
    pair_a,
    pair_b,
    pair_cstar_a,
)
from .smoothmaps import MatrixMap, SmoothMap, _matvec


class LinearSection(Value):
    """A section of D over one side, linear over a base section M -> the other side's fiber.

    ``LinearSectionB`` and ``LinearSectionA`` name the two sides in ``_sides``:
    the one the section is over, then the one its base section takes values in.
    """

    __slots__ = ("shape", "base_section", "fiber_matrix")
    _sides: tuple[str, str]

    def __init__(self, shape: DvbShape, base_section: SmoothMap, fiber_matrix: MatrixMap):
        fiber, base = self._sides
        dims = {"A": shape.dim_a, "B": shape.dim_b}
        if base_section.domain_dim != shape.base_dim:
            raise IncompatibleElements("base section domain must match the chart")
        if base_section.codomain_dim != dims[base]:
            raise IncompatibleElements(f"base section must take values in the {base} fiber")
        if fiber_matrix.shape != (shape.dim_c, dims[fiber]):
            raise IncompatibleElements(f"fiber matrix must map the {fiber} fiber to the core")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "base_section", base_section)
        object.__setattr__(self, "fiber_matrix", fiber_matrix)

    def at(self, m) -> SectionAt:
        """The section at m.  The fiber matrix is evaluated first: where it is
        the base section's Jacobian, the base value is that pass's.

        The value's base is a read-only array of its own, which every record
        built from the value shares.  Its matrix is a read-only view of the
        fiber matrix's value, whose array a user's ``MatrixMap`` may still
        hold; it keeps that array's memory layout, and so its rounding.
        """
        m = np.asarray(m, dtype=float)
        matrix = self.fiber_matrix(m).view()
        matrix.setflags(write=False)
        return SectionAt(self, m, _frozen(self.base_section(m)), matrix)

    def __call__(self, m, fiber) -> DvbElement:
        return self.at(m)(fiber)


class LinearSectionB(LinearSection):
    """Section of D -> B, linear over the base section M -> A-fiber."""

    __slots__ = ()
    _sides = ("B", "A")


class LinearSectionA(LinearSection):
    """Section of D -> A, linear over the base section M -> B-fiber."""

    __slots__ = ()
    _sides = ("A", "B")


class SectionAt(NamedTuple):
    """A linear section at one base point m: its base value and fiber matrix there.

    Called on a fiber vector, or an (N, dim) batch of them, it gives the
    section's element over it: (m; base, b, matrix b) for a LinearSectionB,
    (m; a, base, matrix a) for a LinearSectionA.

    A batch, the value of ``section.at`` at (N, dim) points, holds N such
    values: m, base and matrix carry a leading axis of length N, and row i
    is the section at point i (member i's, if its maps are families).
    """

    section: LinearSection
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
        shape = self.shape
        fiber = np.asarray(fiber, dtype=float)
        core = _frozen(_matvec(self.matrix, fiber))
        # Only m and the fiber come from a caller; the base and the core are
        # the library's, and their rows are m's and the fiber's.
        if isinstance(self.section, LinearSectionB):
            m, fiber = _checked_over(shape, self.m, "b", fiber, shape.dim_b)
            return DvbElement(_Derived(shape), m, self.base, fiber, core)
        m, fiber = _checked_over(shape, self.m, "a", fiber, shape.dim_a)
        return DvbElement(_Derived(shape), m, fiber, self.base, core)


class Grid(Value):
    """A linear section xi over B and one eta over A, or both sections' values at one point (``at``)."""

    __slots__ = ("xi", "eta")

    def __init__(self, xi: LinearSectionB | SectionAt, eta: LinearSectionA | SectionAt):
        if xi.shape != eta.shape:
            raise IncompatibleElements("grid sections live on different shapes")
        # Swapped sections would negate the warp in silence; a value's side is its section's.
        if tuple(getattr(s, "section", s)._sides[0] for s in (xi, eta)) != ("B", "A"):
            raise IncompatibleElements("a grid's xi must be over B and its eta over A")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)

    @property
    def shape(self) -> DvbShape:
        return self.xi.shape

    def at(self, m) -> Grid:
        """Both sections evaluated once at m; itself if both are values at m already."""
        xi, eta = self.xi.at(m), self.eta.at(m)
        if xi is self.xi and eta is self.eta:
            return self
        return Grid(xi, eta)


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
    return _squarecap(IterBCElement, xi, m, kappa)


def squarecap_a(eta: LinearSectionA | SectionAt, m, kappa) -> IterACElement:
    """A-side analogue of squarecap_b, landing in the other iterated dual."""
    return _squarecap(IterACElement, eta, m, kappa)


def _squarecap(iterated_dual: type, section: LinearSection | SectionAt, m, kappa):
    """(m; kappa, matrix^T kappa, base) in the iterated dual of the section's side."""
    section = section.at(m)
    shape = section.shape
    kappa = np.asarray(kappa, dtype=float)
    fiber = _frozen(_matvec(np.swapaxes(section.matrix, -1, -2), kappa))
    # As in SectionAt.__call__, only m and kappa come from a caller.
    m, kappa = _checked_over(shape, section.m, "kappa", kappa, shape.dim_c)
    return iterated_dual(_Derived(shape), m, kappa, fiber, section.base)


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
