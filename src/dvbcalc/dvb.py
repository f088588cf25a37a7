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

Sharing.  A record keeps a component as it is when it is a read-only
float64 ndarray that owns its memory (``base is None``), such as another
record's component; anything else (a writeable array, a list, an array of
another dtype, a read-only view) is copied and the copy made read-only.
Records built from one array therefore hold that one object, and an
outline check between them returns at once.  A caller must not make a
shared array writeable again.

Batches.  A component is either one vector of shape (dim,) or a batch of N
vectors of shape (N, dim); every batched component of one record has the
same N, and the record's ``batch`` is that N (None when nothing is
batched).  An unbatched component, such as a shared base point, stands for
every row of a batch: it is compared against a batch by broadcasting over
the leading axis only, and the trailing lengths must agree exactly.  The
four pairings return a float for single elements and an (N,) array, one
value per row, when either argument is a batch.  Two batches that interact
must have the same N.  A batched record is built, and traced, once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smoothmaps import DimensionMismatch


_FLOAT = np.dtype(float)


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
    """Exact equality of two components, a single vector standing for every row of a batch.

    NaN matches NaN in the same position: both arrays then come from the
    same value, and the NaN is left to the residual that carries it.  One
    array passes against itself without a comparison.
    """
    if u is v:
        return
    if u.shape != v.shape and (u.shape[-1] != v.shape[-1] or u.ndim == v.ndim):
        raise IncompatibleElements(f"elements disagree on {what}: shapes {u.shape} vs {v.shape}")
    if not (u == v).all() and not ((u == v) | (np.isnan(u) & np.isnan(v))).all():
        raise IncompatibleElements(f"elements disagree on {what}: {u} vs {v}")


def _dot(u: np.ndarray, v: np.ndarray):
    """<u, v>: a float for two vectors, one value per row when either is a batch."""
    if u.ndim == v.ndim == 1:
        return float(u @ v)
    return np.einsum("...i,...i->...", u, v)


def _per_row(value, batch: int | None):
    """A pairing's value, repeated over the rows of a batch if no batched component entered it."""
    if batch is None or np.ndim(value) == 1:
        return value
    return np.full(batch, value)


class Record:
    """A point in decomposed form, or a batch of them: named coordinate arrays, each read-only.

    ``_fields`` pairs each component name with the ``DvbShape`` attribute
    that fixes its length.  ``batch`` is the common leading length of the
    batched components, or None.  A component is shared or copied by the
    module's sharing rule.
    """

    __slots__ = ("shape", "batch")

    _fields: tuple[tuple[str, str], ...] = ()

    def __init__(self, shape: DvbShape, *values) -> None:
        self.shape = shape
        batch = None
        for (name, key), value in zip(self._fields, values):
            if (type(value) is not np.ndarray or value.flags.writeable
                    or value.base is not None or value.dtype != _FLOAT):
                value = np.array(value, dtype=float)
                value.flags.writeable = False
            dims, dim = value.shape, getattr(shape, key)
            if len(dims) == 2 and dims[1] == dim:
                if batch is None:
                    batch = dims[0]
                elif dims[0] != batch:
                    raise DimensionMismatch(
                        f"{name} has {dims[0]} rows, other components have {batch}"
                    )
            elif dims != (dim,):
                raise DimensionMismatch(
                    f"{name} must have shape ({dim},) or (N, {dim}), got {dims}"
                )
            setattr(self, name, value)
        self.batch = batch

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)}" for name, _ in self._fields)
        return f"{type(self).__name__}({parts})"


class DvbElement(Record):
    """Element (m; a, b, c) of the decomposed double vector bundle."""

    __slots__ = ("m", "a", "b", "c")
    _fields = (("m", "base_dim"), ("a", "dim_a"), ("b", "dim_b"), ("c", "dim_c"))

    def __init__(self, shape: DvbShape, m, a, b, c):
        super().__init__(shape, m, a, b, c)


class DualAElement(Record):
    """Element (m; a, beta, kappa) of the dual over the A side."""

    __slots__ = ("m", "a", "beta", "kappa")
    _fields = (("m", "base_dim"), ("a", "dim_a"), ("beta", "dim_b"), ("kappa", "dim_c"))

    def __init__(self, shape: DvbShape, m, a, beta, kappa):
        super().__init__(shape, m, a, beta, kappa)


class DualBElement(Record):
    """Element (m; kappa, alpha, b) of the dual over the B side."""

    __slots__ = ("m", "kappa", "alpha", "b")
    _fields = (("m", "base_dim"), ("kappa", "dim_c"), ("alpha", "dim_a"), ("b", "dim_b"))

    def __init__(self, shape: DvbShape, m, kappa, alpha, b):
        super().__init__(shape, m, kappa, alpha, b)


class IterBCElement(Record):
    """Element (m; kappa, beta, a) of the dual-over-B dualized again over C*.

    Sides are C* and A; the core is B*.
    """

    __slots__ = ("m", "kappa", "beta", "a")
    _fields = (("m", "base_dim"), ("kappa", "dim_c"), ("beta", "dim_b"), ("a", "dim_a"))

    def __init__(self, shape: DvbShape, m, kappa, beta, a):
        super().__init__(shape, m, kappa, beta, a)


class IterACElement(Record):
    """Element (m; kappa, alpha, b) of the dual-over-A dualized again over C*.

    Sides are C* and B; the core is A*.
    """

    __slots__ = ("m", "kappa", "alpha", "b")
    _fields = (("m", "base_dim"), ("kappa", "dim_c"), ("alpha", "dim_a"), ("b", "dim_b"))

    def __init__(self, shape: DvbShape, m, kappa, alpha, b):
        super().__init__(shape, m, kappa, alpha, b)


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


def _common(x, y) -> int | None:
    """Check that x and y can interact; return their batch length, or None."""
    if x.shape is not y.shape and x.shape != y.shape:
        raise IncompatibleElements(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.batch is None:
        batch = y.batch
    elif y.batch is None or y.batch == x.batch:
        batch = x.batch
    else:
        raise IncompatibleElements(f"batches of {x.batch} and {y.batch} rows")
    _same(x.m, y.m, "base point")
    return batch


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

def pair_a(phi: DualAElement, d: DvbElement) -> float | np.ndarray:
    """Duality of D over A: <(a, beta, kappa), (a, b, c)> = <beta, b> + <kappa, c>."""
    batch = _common(phi, d)
    _same(phi.a, d.a, "a side")
    return _per_row(_dot(phi.beta, d.b) + _dot(phi.kappa, d.c), batch)


def pair_b(psi: DualBElement, d: DvbElement) -> float | np.ndarray:
    """Duality of D over B: <(kappa, alpha, b), (a, b, c)> = <kappa, c> + <alpha, a>."""
    batch = _common(psi, d)
    _same(psi.b, d.b, "b side")
    return _per_row(_dot(psi.kappa, d.c) + _dot(psi.alpha, d.a), batch)


def pair_cstar_b(mb: IterBCElement, psi: DualBElement) -> float | np.ndarray:
    """Duality over C* between the iterated dual and the dual over B."""
    batch = _common(mb, psi)
    _same(mb.kappa, psi.kappa, "kappa")
    return _per_row(_dot(mb.beta, psi.b) + _dot(psi.alpha, mb.a), batch)


def pair_cstar_a(ma: IterACElement, phi: DualAElement) -> float | np.ndarray:
    """Duality over C* between the iterated dual and the dual over A."""
    batch = _common(ma, phi)
    _same(ma.kappa, phi.kappa, "kappa")
    return _per_row(_dot(ma.alpha, phi.a) + _dot(phi.beta, ma.b), batch)


# -- the canonical isomorphisms between iterated duals and duals -------------

def dual_iso_a(mb: IterBCElement) -> DualAElement:
    """Canonical isomorphism onto the dual over A: (kappa, beta, a) -> (a, -beta, kappa).

    Defining property: <mb, psi>_C* + <dual_iso_a(mb), d>_A = <psi, d>_B for
    every psi and d making the pairings meaningful.
    """
    return DualAElement(mb.shape, mb.m, mb.a, -mb.beta, mb.kappa)


def dual_iso_a_inverse(phi: DualAElement) -> IterBCElement:
    return IterBCElement(phi.shape, phi.m, phi.kappa, -phi.beta, phi.a)


# A batch of n rows assembles n * size**2 * (size + 1) probe entries; a
# batch larger than this budget is solved in chunks of rows, so memory stays
# bounded whatever the batch length.
SOLVE_CHUNK_ENTRIES = 100_000


def solve_dual_iso_a(mb: IterBCElement) -> DualAElement:
    """Recover dual_iso_a(mb) from its defining property by a dense linear solve.

    Probes the identity <mb, psi>_C* + <phi, d>_A = <psi, d>_B with basis
    choices of psi and d and solves the assembled system for the unknown
    coordinates (a, beta, kappa) of phi.  The probes are the rows of one
    batch: row i * (size + 1) takes (alpha, b, c) the i-th unit vector and
    phi = 0, row i * (size + 1) + 1 + j the same (alpha, b, c) and phi the
    j-th unit vector, so the identity is evaluated once, through the
    batched pairings.  A batched mb repeats each of its rows over a block
    of probes, and every row's system goes into one stacked solve (one per
    chunk of SOLVE_CHUNK_ENTRIES).  Serves as an independent check on the
    closed form; the system is square and always nonsingular.
    """
    shape = mb.shape
    da, db = shape.dim_a, shape.dim_b
    size = da + db + shape.dim_c
    rows = 1 if mb.batch is None else mb.batch
    chunk = max(1, SOLVE_CHUNK_ENTRIES // (size * size * (size + 1)))
    solution = np.concatenate(
        [_solve_rows(mb, start, min(start + chunk, rows)) for start in range(0, rows, chunk)]
    )
    if mb.batch is None:
        solution = solution[0]
    return DualAElement(shape, mb.m, solution[..., :da], solution[..., da:da + db], solution[..., da + db:])


def _solve_rows(mb: IterBCElement, start: int, stop: int) -> np.ndarray:
    """The (stop - start, size) solutions for rows start:stop of mb (0:1 if unbatched).

    Each row of a batched mb is repeated over its own block of probes.
    """
    shape = mb.shape
    da, db = shape.dim_a, shape.dim_b
    size = da + db + shape.dim_c
    n, per_row = stop - start, size * (size + 1)

    def repeat(x):
        return x if x.ndim == 1 else np.repeat(x[start:stop], per_row, axis=0)

    probes = np.tile(np.repeat(np.eye(size), size + 1, axis=0), (n, 1))
    unknowns = np.tile(np.vstack([np.zeros(size), np.eye(size)]), (n * size, 1))
    if mb.batch is not None:
        mb = IterBCElement(shape, repeat(mb.m), repeat(mb.kappa), repeat(mb.beta), repeat(mb.a))
    phi = DualAElement(shape, mb.m, unknowns[:, :da], unknowns[:, da:da + db], unknowns[:, da + db:])
    psi = DualBElement(shape, mb.m, mb.kappa, probes[:, :da], probes[:, da:da + db])
    d = DvbElement(shape, mb.m, phi.a, psi.b, probes[:, da + db:])
    residual = pair_cstar_b(mb, psi) + pair_a(phi, d) - pair_b(psi, d)
    residual = residual.reshape(n, size, size + 1)

    base = residual[:, :, :1]
    try:
        return np.linalg.solve(residual[:, :, 1:] - base, -base)[:, :, 0]
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise RuntimeError("duality system unexpectedly singular") from err


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
