"""Decomposed double vector bundles, their duals, and the duality algebra.

Everything here works in a decomposition D = A x_M B x_M C over a chart of
the base M: an element of D is stored as (m; a, b, c) with a, b the two
side components and c the core component.  The two duals, the two iterated
duals over C*, and the pairings between them are all realized on explicit
coordinate tuples:

    dual over A:              (m; a, beta, kappa)   in A x B* x C*
    dual over B:              (m; kappa, alpha, b)  in C* x A* x B
    iterated dual (B then C*): (m; kappa, beta, a)   in C* x B* x A
    iterated dual (A then C*): (m; kappa, alpha, b)  in C* x A* x B

Pairings follow the decomposed formulas

    <phi, d>_A       = <beta, b> + <kappa, c>
    <psi, d>_B       = <kappa, c> + <alpha, a>
    <mb, psi>_C*     = <beta, b> + <alpha, a>
    <ma, phi>_C*     = <alpha, a> + <beta, b>

Compatibility of base points and shared side components is checked by
exact float equality; elements meant to interact must be built from the
same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smoothmaps import DimensionMismatch


class IncompatibleElements(ValueError):
    pass


@dataclass(frozen=True)
class DvbShape:
    """Fiber dimensions of the two sides and the core, plus the base chart dimension."""

    dim_a: int
    dim_b: int
    dim_c: int
    base_dim: int = 0

    def __post_init__(self):
        if min(self.dim_a, self.dim_b, self.dim_c) < 1:
            raise ValueError("side and core dimensions must be at least 1")
        if self.base_dim < 0:
            raise ValueError("base dimension must be non-negative")


def _same(u: np.ndarray, v: np.ndarray, what: str) -> None:
    if not np.array_equal(u, v):
        raise IncompatibleElements(f"elements disagree on {what}: {u} vs {v}")


class Record:
    """A point in decomposed form: named coordinate vectors, each read-only.

    ``_fields`` pairs each component name with a length key.  A key that
    is an attribute of ``shape`` fixes the component's length; any other
    key is fixed by the first component that carries it, and later
    components with the same key must match it.
    """

    __slots__ = ("shape",)

    _fields: tuple[tuple[str, str], ...] = ()

    def __init__(self, shape, *values) -> None:
        self.shape = shape
        lengths: dict[str, int] = {}
        for (name, key), value in zip(self._fields, values):
            arr = np.array(value, dtype=float).reshape(-1)
            dim = getattr(shape, key, None)
            if dim is None:
                dim = lengths.setdefault(key, arr.size)
            if arr.shape != (dim,):
                raise DimensionMismatch(f"{name} must have length {dim}, got {arr.shape}")
            arr.flags.writeable = False
            setattr(self, name, arr)

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)}" for name, _ in self._fields)
        return f"{type(self).__name__}({parts})"


class DvbElement(Record):
    """Element (m; a, b, c) of the decomposed double vector bundle."""

    __slots__ = ("m", "a", "b", "c")
    _fields = (("m", "base_dim"), ("a", "dim_a"), ("b", "dim_b"), ("c", "dim_c"))

    def __init__(self, shape: DvbShape, m, a, b, c):
        super().__init__(shape, m, a, b, c)

    def outline(self):
        return (self.a, self.b, self.m)


class DualAElement(Record):
    """Element (m; a, beta, kappa) of the dual over the A side."""

    __slots__ = ("m", "a", "beta", "kappa")
    _fields = (("m", "base_dim"), ("a", "dim_a"), ("beta", "dim_b"), ("kappa", "dim_c"))

    def __init__(self, shape: DvbShape, m, a, beta, kappa):
        super().__init__(shape, m, a, beta, kappa)

    def outline(self):
        return (self.a, self.kappa, self.m)


class DualBElement(Record):
    """Element (m; kappa, alpha, b) of the dual over the B side."""

    __slots__ = ("m", "kappa", "alpha", "b")
    _fields = (("m", "base_dim"), ("kappa", "dim_c"), ("alpha", "dim_a"), ("b", "dim_b"))

    def __init__(self, shape: DvbShape, m, kappa, alpha, b):
        super().__init__(shape, m, kappa, alpha, b)

    def outline(self):
        return (self.kappa, self.b, self.m)


class IterBCElement(Record):
    """Element (m; kappa, beta, a) of the dual-over-B dualized again over C*.

    Sides are C* and A; the core is B*.
    """

    __slots__ = ("m", "kappa", "beta", "a")
    _fields = (("m", "base_dim"), ("kappa", "dim_c"), ("beta", "dim_b"), ("a", "dim_a"))

    def __init__(self, shape: DvbShape, m, kappa, beta, a):
        super().__init__(shape, m, kappa, beta, a)

    def outline(self):
        return (self.kappa, self.a, self.m)


class IterACElement(Record):
    """Element (m; kappa, alpha, b) of the dual-over-A dualized again over C*.

    Sides are C* and B; the core is A*.
    """

    __slots__ = ("m", "kappa", "alpha", "b")
    _fields = (("m", "base_dim"), ("kappa", "dim_c"), ("alpha", "dim_a"), ("b", "dim_b"))

    def __init__(self, shape: DvbShape, m, kappa, alpha, b):
        super().__init__(shape, m, kappa, alpha, b)

    def outline(self):
        return (self.kappa, self.b, self.m)


def elements_equal(x: Record, y: Record) -> bool:
    """Same type, same shape, and bitwise-equal components."""
    if type(x) is not type(y) or x.shape != y.shape:
        return False
    return all(
        np.array_equal(getattr(x, name), getattr(y, name)) for name, _ in x._fields
    )


def _common(x, y):
    if x.shape != y.shape:
        raise IncompatibleElements(f"shape mismatch: {x.shape} vs {y.shape}")
    _same(x.m, y.m, "base point")


# -- additive structure on D -------------------------------------------------

def add_over_a(d1: DvbElement, d2: DvbElement) -> DvbElement:
    """Addition in the bundle D -> A; both summands must sit over the same a."""
    _common(d1, d2)
    _same(d1.a, d2.a, "a side")
    return DvbElement(d1.shape, d1.m, d1.a, d1.b + d2.b, d1.c + d2.c)


def add_over_b(d1: DvbElement, d2: DvbElement) -> DvbElement:
    """Addition in the bundle D -> B; both summands must sit over the same b."""
    _common(d1, d2)
    _same(d1.b, d2.b, "b side")
    return DvbElement(d1.shape, d1.m, d1.a + d2.a, d1.b, d1.c + d2.c)


def scale_over_a(t: float, d: DvbElement) -> DvbElement:
    return DvbElement(d.shape, d.m, d.a, t * d.b, t * d.c)


def scale_over_b(t: float, d: DvbElement) -> DvbElement:
    return DvbElement(d.shape, d.m, t * d.a, d.b, t * d.c)


def sub_over_a(d1: DvbElement, d2: DvbElement) -> DvbElement:
    return add_over_a(d1, scale_over_a(-1.0, d2))


def sub_over_b(d1: DvbElement, d2: DvbElement) -> DvbElement:
    return add_over_b(d1, scale_over_b(-1.0, d2))


def zero_over_a(shape: DvbShape, m, a) -> DvbElement:
    """Zero of D -> A over the point a."""
    return DvbElement(shape, m, a, np.zeros(shape.dim_b), np.zeros(shape.dim_c))


def zero_over_b(shape: DvbShape, m, b) -> DvbElement:
    """Zero of D -> B over the point b."""
    return DvbElement(shape, m, np.zeros(shape.dim_a), b, np.zeros(shape.dim_c))


def core_embed(shape: DvbShape, m, c) -> DvbElement:
    """Core vector c placed over the zeros of both sides."""
    return DvbElement(shape, m, np.zeros(shape.dim_a), np.zeros(shape.dim_b), c)


def core_difference(d1: DvbElement, d2: DvbElement) -> np.ndarray:
    """Core vector c with d1 -_A d2 = c +_B 0_a and d1 -_B d2 = c +_A 0_b.

    Requires d1, d2 to share the full outline; the value is c1 - c2.
    """
    _common(d1, d2)
    _same(d1.a, d2.a, "a side")
    _same(d1.b, d2.b, "b side")
    return d1.c - d2.c


# -- pairings ----------------------------------------------------------------

def pair_a(phi: DualAElement, d: DvbElement) -> float:
    """Duality of D over A: <(a, beta, kappa), (a, b, c)> = <beta, b> + <kappa, c>."""
    _common(phi, d)
    _same(phi.a, d.a, "a side")
    return float(phi.beta @ d.b + phi.kappa @ d.c)


def pair_b(psi: DualBElement, d: DvbElement) -> float:
    """Duality of D over B: <(kappa, alpha, b), (a, b, c)> = <kappa, c> + <alpha, a>."""
    _common(psi, d)
    _same(psi.b, d.b, "b side")
    return float(psi.kappa @ d.c + psi.alpha @ d.a)


def pair_cstar_b(mb: IterBCElement, psi: DualBElement) -> float:
    """Duality over C* between the iterated dual and the dual over B."""
    _common(mb, psi)
    _same(mb.kappa, psi.kappa, "kappa")
    return float(mb.beta @ psi.b + psi.alpha @ mb.a)


def pair_cstar_a(ma: IterACElement, phi: DualAElement) -> float:
    """Duality over C* between the iterated dual and the dual over A."""
    _common(ma, phi)
    _same(ma.kappa, phi.kappa, "kappa")
    return float(ma.alpha @ phi.a + phi.beta @ ma.b)


# -- the canonical isomorphisms between iterated duals and duals -------------

def dual_iso_a(mb: IterBCElement) -> DualAElement:
    """Canonical isomorphism onto the dual over A: (kappa, beta, a) -> (a, -beta, kappa).

    Defining property: <mb, psi>_C* + <dual_iso_a(mb), d>_A = <psi, d>_B for
    every psi and d making the pairings meaningful.
    """
    return DualAElement(mb.shape, mb.m, mb.a, -mb.beta, mb.kappa)


def dual_iso_a_inverse(phi: DualAElement) -> IterBCElement:
    return IterBCElement(phi.shape, phi.m, phi.kappa, -phi.beta, phi.a)


def solve_dual_iso_a(mb: IterBCElement) -> DualAElement:
    """Recover dual_iso_a(mb) from its defining property by a dense linear solve.

    Probes the identity <mb, psi>_C* + <phi, d>_A = <psi, d>_B with basis
    choices of psi and d and solves the assembled system for the unknown
    coordinates (a, beta, kappa) of phi.  Serves as an independent check on
    the closed form; the system is square and always nonsingular.
    """
    shape = mb.shape
    da, db, dc = shape.dim_a, shape.dim_b, shape.dim_c
    size = da + db + dc

    def residual(u: np.ndarray, alpha: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
        phi = DualAElement(shape, mb.m, u[:da], u[da:da + db], u[da + db:])
        psi = DualBElement(shape, mb.m, mb.kappa, alpha, b)
        d = DvbElement(shape, mb.m, phi.a, b, c)
        return pair_cstar_b(mb, psi) + pair_a(phi, d) - pair_b(psi, d)

    probes = []
    for i in range(da):
        probes.append((np.eye(da)[i], np.zeros(db), np.zeros(dc)))
    for i in range(db):
        probes.append((np.zeros(da), np.eye(db)[i], np.zeros(dc)))
    for i in range(dc):
        probes.append((np.zeros(da), np.zeros(db), np.eye(dc)[i]))

    matrix = np.zeros((size, size))
    rhs = np.zeros(size)
    zero = np.zeros(size)
    for row, (alpha, b, c) in enumerate(probes):
        base = residual(zero, alpha, b, c)
        rhs[row] = -base
        for col in range(size):
            matrix[row, col] = residual(np.eye(size)[col], alpha, b, c) - base
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise RuntimeError("duality system unexpectedly singular") from err
    return DualAElement(shape, mb.m, solution[:da], solution[da:da + db], solution[da + db:])


def dual_iso_b(ma: IterACElement) -> DualBElement:
    """The C*-dual of dual_iso_a: (kappa, alpha, b) -> (kappa, alpha, -b).

    Identity on the core A*, minus the identity on the side B.  Defining
    property: <mb, dual_iso_b(ma)>_C* = <ma, dual_iso_a(mb)>_C* for every mb
    over the same kappa.
    """
    return DualBElement(ma.shape, ma.m, ma.kappa, ma.alpha, -ma.b)


def dual_iso_b_inverse(psi: DualBElement) -> IterACElement:
    return IterACElement(psi.shape, psi.m, psi.kappa, psi.alpha, -psi.b)


# -- the nonstandard pairing of the two duals ---------------------------------

def pair_duals_ba(phi: DualAElement, psi: DualBElement) -> float:
    """Pairing of the duals over C*, BA sign convention.

    Equals <psi, d>_B - <phi, d>_A for any d with the right outline; the
    value is independent of d and comes out as <alpha, a> - <beta, b>.  It
    is evaluated through the d with zero core.
    """
    _common(phi, psi)
    _same(phi.kappa, psi.kappa, "kappa")
    d = DvbElement(phi.shape, phi.m, phi.a, psi.b, np.zeros(phi.shape.dim_c))
    return pair_b(psi, d) - pair_a(phi, d)


def pair_duals_ab(phi: DualAElement, psi: DualBElement) -> float:
    """Same pairing with the opposite (AB) sign convention."""
    return -pair_duals_ba(phi, psi)


def pairing_map_a(phi: DualAElement) -> IterBCElement:
    """Realize the AB pairing against a fixed phi as an iterated dual element.

    Characterized by <pairing_map_a(phi), psi>_C* = pair_duals_ab(phi, psi)
    for all psi over the same kappa; related to dual_iso_a_inverse by
    negation in the bundle over C*.
    """
    return IterBCElement(phi.shape, phi.m, phi.kappa, phi.beta, -phi.a)


def pairing_map_b(psi: DualBElement) -> IterACElement:
    """Characterized by <pairing_map_b(psi), phi>_C* = pair_duals_ab(phi, psi)."""
    return IterACElement(psi.shape, psi.m, psi.kappa, -psi.alpha, psi.b)
