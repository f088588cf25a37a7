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
The library freezes each array it makes where it makes it (``_frozen``):
the sums, scalings, zeros and negations here, and in ``sections`` a
section's cores and squarecap fibers and the values of ``section.at(m)``,
which are read-only.  A caller's array is never frozen in place.  Records
built from one array therefore hold that one object, and an outline check
between them returns at once.  A caller must not make a shared array
writeable again.

The operations here (sums, differences, scalings, the dual isomorphisms
and their inverses, the pairing maps, ``pair_duals_ba``'s element) and in
``sections`` (a section's elements and squarecaps) build their records
without checking every component again (``_Derived``): each component is
then a checked record's, an array the library has just frozen, or a
caller's argument the operation has put through the same check
(``core_embed`` and ``zero_over_a/b`` check m and the caller's vector, a
section's value m and the fiber or kappa).  A caller's input is therefore
copied or refused exactly as a record's constructor would.

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

import numpy as np

from ._value import Value, dimension
from .smoothmaps import DimensionMismatch


_FLOAT = np.dtype(float)


class IncompatibleElements(ValueError):
    pass


class DvbShape(Value):
    """Fiber dimensions of the two sides and the core, plus the base chart dimension."""

    __slots__ = ("dim_a", "dim_b", "dim_c", "base_dim")

    def __init__(self, dim_a: int, dim_b: int, dim_c: int, base_dim: int = 0):
        dim_a, dim_b, dim_c, base_dim = map(dimension, (dim_a, dim_b, dim_c, base_dim))
        if min(dim_a, dim_b, dim_c) < 1:
            raise ValueError("side and core dimensions must be at least 1")
        if base_dim < 0:
            raise ValueError("base dimension must be non-negative")
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "dim_c", dim_c)
        object.__setattr__(self, "base_dim", base_dim)


def _same(u: np.ndarray, v: np.ndarray, what: str) -> None:
    """Exact equality of two components, a single vector standing for every row of a batch.

    NaN matches NaN in the same position: both arrays then come from the
    same value, and the NaN is left to the residual that carries it.  One
    array passes against itself without a comparison, and two float arrays
    of one shape pass on equal bytes; only arrays whose bytes differ are
    compared by value, so -0.0 still matches 0.0.
    """
    if u is v or (u.shape == v.shape and u.tobytes() == v.tobytes()):
        return
    if u.shape != v.shape and (u.shape[-1] != v.shape[-1] or u.ndim == v.ndim):
        raise IncompatibleElements(f"elements disagree on {what}: shapes {u.shape} vs {v.shape}")
    if not (u == v).all() and not ((u == v) | (np.isnan(u) & np.isnan(v))).all():
        raise IncompatibleElements(f"elements disagree on {what}: {u} vs {v}")


def _frozen(x: np.ndarray) -> np.ndarray:
    """x, a float array the library has just made and no caller holds, made read-only.

    A view is copied first, in its own memory layout, so the result owns
    its memory and every record built from it shares it.
    """
    if x.base is not None:
        x = x.copy(order="K")
    x.setflags(write=False)
    return x


def _dot(u: np.ndarray, v: np.ndarray):
    """<u, v> by ``np.vecdot``: a scalar for two vectors, one value per row when either is a batch."""
    return np.vecdot(u, v)


def _per_row(value, batch: int | None):
    """A pairing's value: a float for single elements, else one per row of the
    batch, repeated if no batched component entered it."""
    if batch is None:
        return float(value)
    return value if np.ndim(value) == 1 else np.full(batch, value)


def _checked(name: str, value, dim: int, batch: int | None):
    """A component as a record keeps it, by the sharing rule, and the record's batch so far.

    The component must have shape (dim,) or (batch, dim); its rows fix the
    batch if nothing before it was batched.
    """
    if (type(value) is not np.ndarray or value.base is not None
            or value.dtype is not _FLOAT or value.flags.writeable):
        value = np.array(value, dtype=float)
        value.setflags(write=False)
    dims = value.shape
    if len(dims) == 2 and dims[1] == dim:
        if batch is None:
            batch = dims[0]
        elif dims[0] != batch:
            raise DimensionMismatch(f"{name} has {dims[0]} rows, other components have {batch}")
    elif dims != (dim,):
        raise DimensionMismatch(f"{name} must have shape ({dim},) or (N, {dim}), got {dims}")
    return value, batch


def _checked_over(shape: DvbShape, m, name: str, value, dim: int):
    """A caller's base point m and a component over it, each checked as a record checks it."""
    m, batch = _checked("m", m, shape.base_dim, None)
    return m, _checked(name, value, dim, batch)[0]


class _Derived:
    """A record's shape, in its shape slot when its components are already
    checked (see the module docstring): the record keeps them as they are."""

    __slots__ = ("shape",)

    def __init__(self, shape: DvbShape):
        self.shape = shape


class Record:
    """A point in decomposed form, or a batch of them: named coordinate arrays, each read-only.

    ``_fields`` pairs each component name with the ``DvbShape`` attribute
    that fixes its length.  ``batch`` is the common leading length of the
    batched components, or None.  A component is shared or copied by the
    module's sharing rule; a record built by an operation below keeps the
    components it was given (``_Derived``).
    """

    __slots__ = ("shape", "batch")

    _fields: tuple[tuple[str, str], ...] = ()

    def __init__(self, shape: DvbShape, *values) -> None:
        batch = None
        if type(shape) is _Derived:
            shape = shape.shape
            for (name, _), value in zip(self._fields, values):
                if value.ndim == 2:
                    batch = len(value)
                setattr(self, name, value)
        else:
            for (name, key), value in zip(self._fields, values):
                value, batch = _checked(name, value, getattr(shape, key), batch)
                setattr(self, name, value)
        self.shape = shape
        self.batch = batch

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)}" for name, _ in self._fields)
        return f"{type(self).__name__}({parts})"


# Each element class keeps its own __init__: perfbench's tracer counts dvb.elements_built by them.
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
    return DvbElement(_Derived(d1.shape), d1.m, d1.a, _frozen(d1.b + d2.b), _frozen(d1.c + d2.c))


def add_over_b(d1: DvbElement, d2: DvbElement) -> DvbElement:
    """Addition in the bundle D -> B; both summands must sit over the same b."""
    _common(d1, d2)
    _same(d1.b, d2.b, "b side")
    return DvbElement(_Derived(d1.shape), d1.m, _frozen(d1.a + d2.a), d1.b, _frozen(d1.c + d2.c))


def scale_over_a(t: float, d: DvbElement) -> DvbElement:
    """Scalar multiplication in the bundle D -> A by the number t."""
    t = float(t)
    return DvbElement(_Derived(d.shape), d.m, d.a, _frozen(t * d.b), _frozen(t * d.c))


def scale_over_b(t: float, d: DvbElement) -> DvbElement:
    """Scalar multiplication in the bundle D -> B by the number t."""
    t = float(t)
    return DvbElement(_Derived(d.shape), d.m, _frozen(t * d.a), d.b, _frozen(t * d.c))


def sub_over_a(d1: DvbElement, d2: DvbElement) -> DvbElement:
    """d1 -_A d2: bitwise add_over_a(d1, scale_over_a(-1.0, d2)), built as one record."""
    _common(d1, d2)
    _same(d1.a, d2.a, "a side")
    return DvbElement(_Derived(d1.shape), d1.m, d1.a, _frozen(d1.b - d2.b), _frozen(d1.c - d2.c))


def sub_over_b(d1: DvbElement, d2: DvbElement) -> DvbElement:
    """d1 -_B d2: bitwise add_over_b(d1, scale_over_b(-1.0, d2)), built as one record."""
    _common(d1, d2)
    _same(d1.b, d2.b, "b side")
    return DvbElement(_Derived(d1.shape), d1.m, _frozen(d1.a - d2.a), d1.b, _frozen(d1.c - d2.c))


def _zeros(dim: int) -> np.ndarray:
    return _frozen(np.zeros(dim))


def zero_over_a(shape: DvbShape, m, a) -> DvbElement:
    """Zero of D -> A over the point a."""
    m, a = _checked_over(shape, m, "a", a, shape.dim_a)
    return DvbElement(_Derived(shape), m, a, _zeros(shape.dim_b), _zeros(shape.dim_c))


def zero_over_b(shape: DvbShape, m, b) -> DvbElement:
    """Zero of D -> B over the point b."""
    m, b = _checked_over(shape, m, "b", b, shape.dim_b)
    return DvbElement(_Derived(shape), m, _zeros(shape.dim_a), b, _zeros(shape.dim_c))


def core_embed(shape: DvbShape, m, c) -> DvbElement:
    """Core vector c placed over the zeros of both sides."""
    m, c = _checked_over(shape, m, "c", c, shape.dim_c)
    return DvbElement(_Derived(shape), m, _zeros(shape.dim_a), _zeros(shape.dim_b), c)


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
    return DualAElement(_Derived(mb.shape), mb.m, mb.a, _frozen(-mb.beta), mb.kappa)


def dual_iso_a_inverse(phi: DualAElement) -> IterBCElement:
    return IterBCElement(_Derived(phi.shape), phi.m, phi.kappa, _frozen(-phi.beta), phi.a)


def solve_dual_iso_a(mb: IterBCElement) -> DualAElement:
    """Recover dual_iso_a(mb) from its defining property by a dense linear solve.

    Probes the identity <mb, psi>_C* + <phi, d>_A = <psi, d>_B with basis
    choices of psi and d and solves the assembled system for the unknown
    coordinates (a, beta, kappa) of phi.  The identity is affine in phi and
    its linear part does not depend on mb, so one matrix serves every row:
    mb's first row probes each i-th unit (alpha, b, c) with phi = 0 and with
    each unit phi, which gives the matrix and that row's right-hand side,
    and every other row probes phi = 0 only, which gives its right-hand
    side.  All probes are the rows of one batch, evaluated once through the
    batched pairings, and every row is solved by one solve.  Serves as an
    independent check on the closed form; the system is square and always
    nonsingular.
    """
    shape = mb.shape
    da, db = shape.dim_a, shape.dim_b
    size = da + db + shape.dim_c
    rows = 1 if mb.batch is None else mb.batch
    head = size * (size + 1)  # the first row's probes
    counts = np.full(rows, size)
    counts[0] = head

    def repeat(x):
        return x if x.ndim == 1 else _frozen(np.repeat(x, counts, axis=0))

    eye = np.eye(size)
    probes = np.concatenate([np.repeat(eye, size + 1, axis=0), np.tile(eye, (rows - 1, 1))])
    unknowns = np.zeros_like(probes)
    unknowns[:head].reshape(size, size + 1, size)[:, 1:] = eye  # phi = 0, then each unit phi
    probed = IterBCElement(shape, repeat(mb.m), repeat(mb.kappa), repeat(mb.beta), repeat(mb.a))
    phi = DualAElement(shape, probed.m, unknowns[:, :da], unknowns[:, da:da + db], unknowns[:, da + db:])
    psi = DualBElement(shape, probed.m, probed.kappa, probes[:, :da], probes[:, da:da + db])
    d = DvbElement(shape, probed.m, phi.a, psi.b, probes[:, da + db:])
    residual = pair_cstar_b(probed, psi) + pair_a(phi, d) - pair_b(psi, d)

    system = residual[:head].reshape(size, size + 1)
    base = np.concatenate([system[:, 0], residual[head:]]).reshape(rows, size)
    try:
        solution = np.linalg.solve(system[:, 1:] - system[:, :1], -base.T).T
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise RuntimeError("duality system unexpectedly singular") from err
    if mb.batch is None:
        solution = solution[0]
    return DualAElement(shape, mb.m, solution[..., :da], solution[..., da:da + db], solution[..., da + db:])


def dual_iso_b(ma: IterACElement) -> DualBElement:
    """The C*-dual of dual_iso_a: (kappa, alpha, b) -> (kappa, alpha, -b).

    Identity on the core A*, minus the identity on the side B.  Defining
    property: <mb, dual_iso_b(ma)>_C* = <ma, dual_iso_a(mb)>_C* for every mb
    over the same kappa.
    """
    return DualBElement(_Derived(ma.shape), ma.m, ma.kappa, ma.alpha, _frozen(-ma.b))


def dual_iso_b_inverse(psi: DualBElement) -> IterACElement:
    return IterACElement(_Derived(psi.shape), psi.m, psi.kappa, psi.alpha, _frozen(-psi.b))


# -- the nonstandard pairing of the two duals ---------------------------------

def pair_duals_ba(phi: DualAElement, psi: DualBElement) -> float:
    """Pairing of the duals over C*, BA sign convention.

    Equals <psi, d>_B - <phi, d>_A for any d with the right outline; the
    value is independent of d and comes out as <alpha, a> - <beta, b>.  It
    is evaluated through the d with zero core.
    """
    _common(phi, psi)
    _same(phi.kappa, psi.kappa, "kappa")
    d = DvbElement(_Derived(phi.shape), phi.m, phi.a, psi.b, _zeros(phi.shape.dim_c))
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
    return IterBCElement(_Derived(phi.shape), phi.m, phi.kappa, phi.beta, _frozen(-phi.a))


def pairing_map_b(psi: DualBElement) -> IterACElement:
    """Characterized by <pairing_map_b(psi), phi>_C* = pair_duals_ab(phi, psi)."""
    return IterACElement(_Derived(psi.shape), psi.m, psi.kappa, _frozen(-psi.alpha), psi.b)
