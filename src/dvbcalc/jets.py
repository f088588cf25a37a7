"""Forward-mode jets: values paired with directional derivatives.

A ``Jet`` carries a value together with its partial derivatives along a
fixed number of seed directions.  Arithmetic propagates derivatives by the
product, quotient and chain rules, and an integer power u^n, negative n
too, as n*u^(n-1); so a jet's value is computed as a walk without jets
computes it, bit for bit.  One exception: reflected + and * are the
plain operators with the operands swapped (perfbench's tests assert that
``Jet.__radd__ is Jet.__add__``), so when both operands of c + u or c * u
are NaN the result may carry the other NaN's sign bit.
Components of a jet may themselves be jets, which is how second (and
higher) order derivatives are obtained: seed over already-seeded values
and read the partials of the partials.

Derivatives computed this way are exact up to float rounding; finite
differences appear in this codebase only as a test oracle.

Batches.  A value, a partial or a scalar operand may be a float or an (N,)
array holding one value per row of a batch of N points; a float stands for
every row.  Seeding over (N,) arrays carries all N points through one pass
(vector-mode forward differentiation).  An (N, dim) batch becomes
coordinate columns and a map's results become arrays in three entry
points: ``values_at``, one walk, ``value_and_jacobian``, one seeded pass,
and ``jet_directional``.  Each takes one (dim,) point as a batch of one and
returns its row, so a point and its row in a batch are computed alike.
A float operand still arrives from a constant subtree, such as ``sin(1)``,
or as a nested jet's inner value; it goes through the numpy function and
guard an array does.  Every guard applies row by row: if any row leaves a
domain, the whole call raises ``DomainError`` or ``OverflowError``.
``Jet.__array_ufunc__`` is None, so numpy hands ``array * jet`` back to
the jet instead of building an object array.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

Scalar = Union[float, np.ndarray, "Jet"]

# Operands that act as constants in jet arithmetic: floats and (N,) batches.
_CONSTANTS = (int, float, np.ndarray)


class DomainError(ValueError):
    """Evaluation left the domain of a function (log of x <= 0, division by zero)."""


class Jet:
    __slots__ = ("value", "partials")
    __array_ufunc__ = None

    def __init__(self, value: Scalar, partials: Sequence[Scalar]):
        self.value = value
        self.partials = tuple(partials)

    @property
    def arity(self) -> int:
        return len(self.partials)

    def __repr__(self) -> str:
        return f"Jet({self.value!r}, {self.partials!r})"

    # The ring operations build partials directly.  A scalar operand has
    # zero partials, so each partial is still computed as p + 0.0, p - 0.0
    # or p*c + v*0.0, and signed zeros and NaNs come out as in the general
    # product rule.

    def __add__(self, other):
        if isinstance(other, Jet):
            if len(other.partials) != len(self.partials):
                raise _arity_mismatch(self, other)
            return Jet(
                self.value + other.value,
                [p + q for p, q in zip(self.partials, other.partials)],
            )
        if isinstance(other, _CONSTANTS):
            return Jet(self.value + other, [p + 0.0 for p in self.partials])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, [-p for p in self.partials])

    def __sub__(self, other):
        if isinstance(other, Jet):
            if len(other.partials) != len(self.partials):
                raise _arity_mismatch(self, other)
            return Jet(
                self.value - other.value,
                [p - q for p, q in zip(self.partials, other.partials)],
            )
        if isinstance(other, _CONSTANTS):
            return Jet(self.value - other, [p - 0.0 for p in self.partials])
        return NotImplemented

    def __rsub__(self, other):
        return Jet(other - self.value, [0.0 - p for p in self.partials])

    def __mul__(self, other):
        v = self.value
        if isinstance(other, Jet):
            if len(other.partials) != len(self.partials):
                raise _arity_mismatch(self, other)
            ov = other.value
            return Jet(
                v * ov,
                [p * ov + v * q for p, q in zip(self.partials, other.partials)],
            )
        if isinstance(other, _CONSTANTS):
            zero = v * 0.0
            return Jet(v * other, [p * other + zero for p in self.partials])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if len(other.partials) != len(self.partials):
                raise _arity_mismatch(self, other)
            ov, op = other.value, other.partials
        elif isinstance(other, _CONSTANTS):
            ov, op = other, (0.0,) * len(self.partials)
        else:
            return NotImplemented
        _guard_divisor(ov)
        den = _square_divisor(ov)
        return Jet(
            self.value / ov,
            tuple((p * ov - self.value * q) / den for p, q in zip(self.partials, op)),
        )

    def __rtruediv__(self, other):
        _guard_divisor(self.value)
        den = _square_divisor(self.value)
        return Jet(
            other / self.value,
            tuple(-other * p / den for p in self.partials),
        )

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return powi(self, exponent)


def _arity_mismatch(u: Jet, w: Jet) -> ValueError:
    return ValueError(f"jet arity mismatch: {u.arity} vs {w.arity}")


def deep_value(u: Scalar) -> float | np.ndarray:
    """The underlying float, or (N,) array, of a possibly nested jet."""
    while isinstance(u, Jet):
        u = u.value
    return u if isinstance(u, np.ndarray) else float(u)


def _has_zero(v) -> bool:
    """v == 0.0 for a float; some row equal to 0.0 for an (N,) array."""
    if isinstance(v, np.ndarray):
        return np.count_nonzero(v) < v.size
    return v == 0.0


def partials_of(u: Scalar, arity: int) -> tuple[Scalar, ...]:
    if isinstance(u, Jet):
        if u.arity != arity:
            raise ValueError(f"jet arity mismatch: {u.arity} vs {arity}")
        return u.partials
    # A constant result carries zero derivatives.
    return (0.0,) * arity


def _guard_divisor(v: Scalar) -> None:
    if _has_zero(deep_value(v)):
        raise DomainError("division by zero")


def _square_divisor(v: Scalar) -> Scalar:
    """v*v, the quotient rule's denominator, for a nonzero divisor v.

    A tiny float v squares to 0.0; that is a domain error, as overflow is,
    not a ZeroDivisionError.  A jet square is guarded by its own division.
    """
    den = v * v
    if not isinstance(den, Jet) and _has_zero(den):
        raise DomainError(f"divisor {_first(v, den == 0.0)!r} underflows to zero when squared")
    return den


def _first(u, bad):
    """u, or for an (N,) array its first row where bad holds: the value a message names."""
    return u[bad][0] if isinstance(u, np.ndarray) else u


def _no_infinity(u: np.ndarray, name: str) -> np.ndarray:
    """u, unless some row is infinite: there sin and cos leave their domain."""
    bad = np.isinf(u)
    if np.count_nonzero(bad):
        raise DomainError(f"{name} of non-finite value {_first(u, bad)}")
    return u


def _overflow_guard(result: np.ndarray, u: np.ndarray, what: str) -> np.ndarray:
    """result, unless some row overflowed to infinity from a finite u."""
    bad = np.isinf(result)
    if np.count_nonzero(bad):
        bad &= np.isfinite(u)
        if np.count_nonzero(bad):
            raise OverflowError(f"{what} of {_first(u, bad)} overflows")
    return result


def sin(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        c = cos(u.value)
        return Jet(sin(u.value), tuple(c * p for p in u.partials))
    return np.sin(_no_infinity(u, "sin"))


def cos(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        s = sin(u.value)
        return Jet(cos(u.value), tuple(-s * p for p in u.partials))
    return np.cos(_no_infinity(u, "cos"))


def exp(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        e = exp(u.value)
        return Jet(e, tuple(e * p for p in u.partials))
    with np.errstate(over="ignore"):
        return _overflow_guard(np.exp(u), u, "exp")


def log(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        v = u.value
        return Jet(log(v), tuple(p / v for p in u.partials))
    bad = u <= 0.0
    if np.count_nonzero(bad):
        raise DomainError(f"log of non-positive value {_first(u, bad)}")
    return np.log(u)


def powi(u: Scalar, n: int) -> Scalar:
    """Integer power with exact derivative n*u^(n-1), for negative n too."""
    if isinstance(u, Jet):
        if n == 0:
            return 1.0
        return Jet(
            powi(u.value, n),
            tuple(n * powi(u.value, n - 1) * p for p in u.partials),
        )
    if n < 0 and _has_zero(u):
        raise DomainError("zero raised to a negative power")
    if not isinstance(u, np.ndarray):  # a float raises to numpy's power, not Python's
        u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        return _overflow_guard(u ** n, u, f"power {n}")


def _vector_mode(values: Sequence[Scalar]) -> bool:
    """Whether values are the (N,) coordinate arrays of a batch of points."""
    return bool(values) and isinstance(values[0], np.ndarray)


def seed(values: Sequence[Scalar]) -> list[Jet]:
    """Wrap a point so each coordinate differentiates as itself.

    Over (N,) arrays the seeds are in vector mode: each jet has one
    partial, an (n, N) block whose row j is the derivative along
    coordinate j, so every operation carries all n directions at once.
    """
    n = len(values)
    if _vector_mode(values):
        blocks = np.zeros((n, n, len(values[0])))
        for i in range(n):
            blocks[i, i] = 1.0
        return [Jet(v, (block,)) for v, block in zip(values, blocks)]
    return [
        Jet(v, tuple(1.0 if j == i else 0.0 for j in range(n)))
        for i, v in enumerate(values)
    ]


VectorFn = Callable[[Sequence[Scalar]], Sequence[Scalar]]


def _as_batch(point) -> tuple[np.ndarray, bool]:
    """point as an (N, dim) float batch, and whether it was one (dim,) point, now a batch of one."""
    x = np.asarray(point, dtype=float)
    return (x[None], True) if x.ndim == 1 else (x, False)


def _columns(x: np.ndarray) -> list[np.ndarray]:
    """An (N, dim) batch's coordinates as (N,) arrays, one per axis."""
    return list(np.ascontiguousarray(x.T))


def _as_array(entries, batch: int, shape: tuple[int, ...]) -> np.ndarray:
    """Entries, a list or a list of rows, as one float array of shape (batch, *shape).

    Entry i is a float standing for every row, an (N,) array, or a block
    of shape shape[1:] + (N,).
    """
    out = np.empty((*shape, batch))
    for i, entry in enumerate(entries):
        out[i] = entry
    return out.transpose(len(shape), *range(len(shape)))


def generic_jacobian(
    fn: VectorFn, values: Sequence[Scalar]
) -> tuple[list[Scalar], list[list[Scalar]]]:
    """The values of ``fn`` at ``values`` and their rows of partials, from one seeded pass.

    An output's value is a jet's ``.value``, or a constant output itself,
    so it is the value a walk over ``values`` computes.  Entries stay jets
    when seeded over jets.  Over (N,) arrays (see ``seed``) row i is an
    (n, N) block, its entry j the (N,) partials along coordinate j.
    """
    n = len(values)
    outputs = fn(seed(values))
    value = [out.value if isinstance(out, Jet) else out for out in outputs]
    if _vector_mode(values):
        zero = np.zeros((n, len(values[0])))
        return value, [out.partials[0] if isinstance(out, Jet) else zero for out in outputs]
    return value, [list(partials_of(out, n)) for out in outputs]


def values_at(fn: VectorFn, point) -> np.ndarray:
    """fn's (N, rows) values at an (N, dim) batch from one walk, or the (rows,) row of a point."""
    x, single = _as_batch(point)
    values = fn(_columns(x))
    out = _as_array(values, len(x), (len(values),))
    return out[0] if single else out


def value_and_jacobian(fn: VectorFn, point) -> tuple[np.ndarray, np.ndarray]:
    """fn's values and Jacobian at an (N, dim) batch from one seeded pass,
    (N, rows) and (N, rows, dim), or their rows at a (dim,) point."""
    x, single = _as_batch(point)
    values, rows = generic_jacobian(fn, _columns(x))
    value = _as_array(values, len(x), (len(values),))
    jacobian = _as_array(rows, len(x), (len(rows), x.shape[1]))
    return (value[0], jacobian[0]) if single else (value, jacobian)


def jet_jacobian(fn: VectorFn, point) -> np.ndarray:
    """The Jacobian of fn at a point, or (N, rows, dim) at an (N, dim) batch."""
    return value_and_jacobian(fn, point)[1]


def jet_gradient(fn: Callable[[Sequence[Scalar]], Scalar], point) -> np.ndarray:
    grad = jet_jacobian(lambda vs: [fn(vs)], point)
    return grad[..., 0, :]


def jet_directional(
    fn: Callable[[Sequence[Scalar]], Scalar],
    values,
    direction,
) -> float | np.ndarray:
    """Derivative of ``fn`` at ``values`` along ``direction`` from a single seeded pass.

    At an (N, dim) batch the direction is one (dim,) vector or an (N, dim)
    batch of the same shape, and the result is (N,); at a (dim,) point it
    is a float.
    """
    x, single = _as_batch(values)
    along = np.asarray(direction, dtype=float)
    if along.ndim == 2 and along.shape != np.shape(values):
        raise ValueError("a batch of directions needs the shape of its points")
    if along.shape[-1:] != x.shape[-1:]:
        raise ValueError("point and direction dimensions differ")
    seeded = [Jet(v, (d,)) for v, d in zip(_columns(x), _columns(np.broadcast_to(along, x.shape)))]
    out = partials_of(fn(seeded), 1)[0]
    if not isinstance(out, np.ndarray):  # a constant's zero, for every row
        out = np.full(len(x), out)
    return float(out[0]) if single else out
