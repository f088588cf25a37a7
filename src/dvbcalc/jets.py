"""Forward-mode jets: values paired with directional derivatives.

A ``Jet`` carries a value together with its partial derivatives along a
fixed number of seed directions.  Arithmetic propagates derivatives by the
product, quotient and chain rules.  Components of a jet may themselves be
jets, which is how second (and higher) order derivatives are obtained:
seed over already-seeded values and read the partials of the partials.

Derivatives computed this way are exact up to float rounding; finite
differences appear in this codebase only as a test oracle.

Batches.  A value, a partial or a scalar operand may be a float or an (N,)
array holding one value per row of a batch of N points; a float stands for
every row.  Seeding over (N,) arrays carries all N points through one pass
(vector-mode forward differentiation).  The float path calls ``math`` and
is unchanged; an array goes through the matching numpy function.  Every
guard applies row by row: if any row leaves a domain, the whole call
raises the ``DomainError`` or ``OverflowError`` that a float would raise
there.  ``Jet.__array_ufunc__`` is None, so numpy hands ``array * jet``
back to the jet instead of building an object array.
"""

from __future__ import annotations

import math
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
        return (-self) + other

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
            _div(self.value, ov),
            tuple(_div(p * ov - self.value * q, den) for p, q in zip(self.partials, op)),
        )

    def __rtruediv__(self, other):
        _guard_divisor(self.value)
        den = _square_divisor(self.value)
        return Jet(
            _div(other, self.value),
            tuple(_div(-other * p, den) for p in self.partials),
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


def _div(num: Scalar, den: Scalar):
    if isinstance(num, Jet) or isinstance(den, Jet):
        if not isinstance(num, Jet):
            return den.__rtruediv__(num)
        return num / den
    return num / den


def _no_infinity(u: np.ndarray, name: str) -> np.ndarray:
    """u, unless some row is infinite: there sin and cos leave their domain, as for a float."""
    bad = np.isinf(u)
    if np.count_nonzero(bad):
        raise DomainError(f"{name} of non-finite value {_first(u, bad)}")
    return u


def _overflow_guard(result: np.ndarray, u: np.ndarray, what: str) -> np.ndarray:
    """result, unless some row overflowed to infinity from a finite u, as a float would raise."""
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
    if isinstance(u, np.ndarray):
        return np.sin(_no_infinity(u, "sin"))
    try:
        return math.sin(u)
    except ValueError:  # an infinite argument
        raise DomainError(f"sin of non-finite value {u}") from None


def cos(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        s = sin(u.value)
        return Jet(cos(u.value), tuple(-s * p for p in u.partials))
    if isinstance(u, np.ndarray):
        return np.cos(_no_infinity(u, "cos"))
    try:
        return math.cos(u)
    except ValueError:  # an infinite argument
        raise DomainError(f"cos of non-finite value {u}") from None


def exp(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        e = exp(u.value)
        return Jet(e, tuple(e * p for p in u.partials))
    if isinstance(u, np.ndarray):
        with np.errstate(over="ignore"):
            return _overflow_guard(np.exp(u), u, "exp")
    return math.exp(u)


def log(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        v = u.value
        return Jet(log(v), tuple(_div(p, v) for p in u.partials))
    if isinstance(u, np.ndarray):
        bad = u <= 0.0
        if np.count_nonzero(bad):
            raise DomainError(f"log of non-positive value {_first(u, bad)}")
        return np.log(u)
    if u <= 0.0:
        raise DomainError(f"log of non-positive value {u}")
    return math.log(u)


def powi(u: Scalar, n: int) -> Scalar:
    """Integer power with exact derivative n*u^(n-1); negative n goes through division."""
    if isinstance(u, Jet):
        if n == 0:
            return 1.0
        if n < 0:
            return 1.0 / powi(u, -n)
        return Jet(
            powi(u.value, n),
            tuple(n * powi(u.value, n - 1) * p for p in u.partials),
        )
    if isinstance(u, np.ndarray):
        if n < 0 and _has_zero(u):
            raise DomainError("zero raised to a negative power")
        with np.errstate(over="ignore"):
            return _overflow_guard(u ** n, u, f"power {n}")
    if n < 0 and u == 0.0:
        raise DomainError("zero raised to a negative power")
    return float(u) ** n


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


def _batch_of(point) -> int | None:
    """N for an (N, dim) array of points, None for one point."""
    if isinstance(point, np.ndarray) and point.ndim == 2:
        return point.shape[0]
    return None


def _columns(point) -> list:
    """A point's coordinates as floats, or an (N, dim) batch's as (N,) arrays, one per axis."""
    if _batch_of(point) is None:
        return [float(v) for v in point]
    return list(np.ascontiguousarray(point.T))


def _as_array(entries, batch: int | None, shape: tuple[int, ...]) -> np.ndarray:
    """Entries, a list or a list of rows, as one float array of the given shape.

    For a batch of N, entry i is a float standing for every row, an (N,)
    array, or a block of shape shape[1:] + (N,); the result then has a
    leading axis of length N.
    """
    if batch is None:
        out = np.array(entries, dtype=float)
        return out if out.shape == shape else out.reshape(shape)
    out = np.empty((*shape, batch))
    for i, entry in enumerate(entries):
        out[i] = entry
    return out.transpose(len(shape), *range(len(shape)))


def generic_jacobian(fn: VectorFn, values: Sequence[Scalar]) -> list[list[Scalar]]:
    """Rows of partials of ``fn`` at ``values``; entries stay jets when seeded over jets.

    Over (N,) arrays (see ``seed``) row i is an (n, N) block, its entry j
    the (N,) partials along coordinate j.
    """
    n = len(values)
    outputs = fn(seed(values))
    if _vector_mode(values):
        zero = np.zeros((n, len(values[0])))
        return [out.partials[0] if isinstance(out, Jet) else zero for out in outputs]
    return [list(partials_of(out, n)) for out in outputs]


def jet_jacobian(fn: VectorFn, point) -> np.ndarray:
    """The Jacobian of fn at a point, or (N, rows, dim) at an (N, dim) batch."""
    values = _columns(point)
    rows = generic_jacobian(fn, values)
    return _as_array(rows, _batch_of(point), (len(rows), len(values)))


def jet_gradient(fn: Callable[[Sequence[Scalar]], Scalar], point) -> np.ndarray:
    grad = jet_jacobian(lambda vs: [fn(vs)], point)
    return grad[..., 0, :]


def jet_directional(
    fn: Callable[[Sequence[Scalar]], Scalar],
    values,
    direction,
) -> Scalar:
    """Derivative of ``fn`` at ``values`` along ``direction`` from a single seeded pass.

    Values and direction may be (N, dim) batches; the result is then (N,).
    """
    batch = _batch_of(values)
    if batch is not None:
        values, direction = _columns(values), _columns(direction)
    if len(values) != len(direction):
        raise ValueError("point and direction dimensions differ")
    seeded = [Jet(v, (d,)) for v, d in zip(values, direction)]
    out = partials_of(fn(seeded), 1)[0]
    if batch is None or isinstance(out, np.ndarray):
        return out
    return np.full(batch, float(out))
