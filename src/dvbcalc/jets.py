"""Forward-mode jets: values paired with directional derivatives.

A ``Jet`` carries a value together with its partial derivatives along a
fixed number of seed directions.  Arithmetic propagates derivatives by the
product, quotient and chain rules.  Components of a jet may themselves be
jets, which is how second (and higher) order derivatives are obtained:
seed over already-seeded values and read the partials of the partials.

Derivatives computed this way are exact up to float rounding; finite
differences appear in this codebase only as a test oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

Scalar = Union[float, "Jet"]


class DomainError(ValueError):
    """Evaluation left the domain of a function (log of x <= 0, division by zero)."""


class Jet:
    __slots__ = ("value", "partials")

    def __init__(self, value: Scalar, partials: Sequence[Scalar]):
        self.value = value
        self.partials = tuple(partials)

    @property
    def arity(self) -> int:
        return len(self.partials)

    def __repr__(self) -> str:
        return f"Jet({self.value!r}, {self.partials!r})"

    def _paired(self, other: Scalar) -> tuple[Scalar, tuple[Scalar, ...]]:
        # Split an operand into value and partials of matching arity.
        if isinstance(other, Jet):
            if other.arity != self.arity:
                raise ValueError(
                    f"jet arity mismatch: {self.arity} vs {other.arity}"
                )
            return other.value, other.partials
        return other, (0.0,) * self.arity

    def __add__(self, other):
        if not isinstance(other, (Jet, int, float)):
            return NotImplemented
        ov, op = self._paired(other)
        return Jet(self.value + ov, tuple(p + q for p, q in zip(self.partials, op)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, tuple(-p for p in self.partials))

    def __sub__(self, other):
        if not isinstance(other, (Jet, int, float)):
            return NotImplemented
        ov, op = self._paired(other)
        return Jet(self.value - ov, tuple(p - q for p, q in zip(self.partials, op)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (Jet, int, float)):
            return NotImplemented
        ov, op = self._paired(other)
        return Jet(
            self.value * ov,
            tuple(p * ov + self.value * q for p, q in zip(self.partials, op)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (Jet, int, float)):
            return NotImplemented
        ov, op = self._paired(other)
        _guard_divisor(ov)
        den = ov * ov
        return Jet(
            _div(self.value, ov),
            tuple(_div(p * ov - self.value * q, den) for p, q in zip(self.partials, op)),
        )

    def __rtruediv__(self, other):
        _guard_divisor(self.value)
        den = self.value * self.value
        return Jet(
            _div(other, self.value),
            tuple(_div(-other * p, den) for p in self.partials),
        )

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return powi(self, exponent)


def deep_value(u: Scalar) -> float:
    """The underlying float of a possibly nested jet."""
    while isinstance(u, Jet):
        u = u.value
    return float(u)


def partials_of(u: Scalar, arity: int) -> tuple[Scalar, ...]:
    if isinstance(u, Jet):
        if u.arity != arity:
            raise ValueError(f"jet arity mismatch: {u.arity} vs {arity}")
        return u.partials
    # A constant result carries zero derivatives.
    return (0.0,) * arity


def _guard_divisor(v: Scalar) -> None:
    if deep_value(v) == 0.0:
        raise DomainError("division by zero")


def _div(num: Scalar, den: Scalar):
    if isinstance(num, Jet) or isinstance(den, Jet):
        if not isinstance(num, Jet):
            return den.__rtruediv__(num)
        return num / den
    return num / den


def sin(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        c = cos(u.value)
        return Jet(sin(u.value), tuple(c * p for p in u.partials))
    return math.sin(u)


def cos(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        s = sin(u.value)
        return Jet(cos(u.value), tuple(-s * p for p in u.partials))
    return math.cos(u)


def exp(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        e = exp(u.value)
        return Jet(e, tuple(e * p for p in u.partials))
    return math.exp(u)


def log(u: Scalar) -> Scalar:
    if isinstance(u, Jet):
        v = u.value
        return Jet(log(v), tuple(_div(p, v) for p in u.partials))
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
    if n < 0 and u == 0.0:
        raise DomainError("zero raised to a negative power")
    return float(u) ** n


def seed(values: Sequence[Scalar]) -> list[Jet]:
    """Wrap a point so each coordinate differentiates as itself."""
    n = len(values)
    return [
        Jet(v, tuple(1.0 if j == i else 0.0 for j in range(n)))
        for i, v in enumerate(values)
    ]


VectorFn = Callable[[Sequence[Scalar]], Sequence[Scalar]]


def generic_jacobian(fn: VectorFn, values: Sequence[Scalar]) -> list[list[Scalar]]:
    """Rows of partials of ``fn`` at ``values``; entries stay jets when seeded over jets."""
    n = len(values)
    outputs = fn(seed(values))
    return [list(partials_of(out, n)) for out in outputs]


def jet_jacobian(fn: VectorFn, point: Sequence[float]) -> np.ndarray:
    rows = generic_jacobian(fn, [float(v) for v in point])
    return np.array(rows, dtype=float)


def jet_gradient(fn: Callable[[Sequence[Scalar]], Scalar], point: Sequence[float]) -> np.ndarray:
    grad = jet_jacobian(lambda vs: [fn(vs)], point)
    return grad[0]


def jet_directional(
    fn: Callable[[Sequence[Scalar]], Scalar],
    values: Sequence[Scalar],
    direction: Sequence[Scalar],
) -> Scalar:
    """Derivative of ``fn`` at ``values`` along ``direction`` from a single seeded pass."""
    if len(values) != len(direction):
        raise ValueError("point and direction dimensions differ")
    seeded = [Jet(v, (d,)) for v, d in zip(values, direction)]
    out = fn(seeded)
    return partials_of(out, 1)[0]
