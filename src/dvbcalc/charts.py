"""Charts, trivialized vector bundles, and linear connections on them.

A connection on a trivial bundle of rank k over an n-dimensional chart is
stored as its coefficient tensor omega: one k x k matrix per coordinate
direction, with entries depending on the base point.  For a vector field
Z, omega(Z) = sum_j Z^j omega_j and

    nabla_Z mu  = Z(mu) + omega(Z) mu            (sections of the bundle)
    nabla*_Z phi = Z(phi) - omega(Z)^T phi       (sections of the dual)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .smoothmaps import DimensionMismatch, SmoothMap, jacobian


@dataclass(frozen=True)
class Chart:
    """Coordinate box used for sampling base points."""

    dim: int
    box: tuple[tuple[float, float], ...] = ()
    # The box's lower corner and side lengths, as arrays for ``sample``.
    lows: np.ndarray = field(init=False, repr=False, compare=False)
    spans: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("chart dimension must be non-negative")
        box = tuple(tuple(float(v) for v in pair) for pair in self.box)
        if not box:
            box = ((-1.0, 1.0),) * self.dim
        if len(box) != self.dim or not all(
            math.isfinite(hi - lo) and lo < hi for lo, hi in box
        ):
            raise ValueError("box must give one finite (lo, hi) interval with lo < hi per axis")
        object.__setattr__(self, "box", box)
        lows = np.array([lo for lo, _ in box])
        spans = np.array([hi for _, hi in box]) - lows
        lows.flags.writeable = spans.flags.writeable = False
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "spans", spans)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform point of the box: bitwise ``rng.uniform(lows, highs)``,
        which numpy computes as low + (high - low) * next_double."""
        return self.lows + self.spans * rng.random(self.dim)


@dataclass(frozen=True)
class TrivialBundle:
    chart: Chart
    fiber_dim: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be at least 1")


@dataclass(frozen=True)
class Connection:
    """A linear connection, given by its coefficient tensor as a function of the point.

    Each connection keeps the tensor of its previous ``coefficient_tensor``
    call, keyed by the exact bytes of the float point (so ``0.0`` and
    ``-0.0`` are different points), and a call at that same point reuses
    it.  The result is always a fresh array that the caller may modify,
    and a call that raises stores nothing.
    """

    bundle: TrivialBundle
    coefficients: Callable[[Sequence[float]], np.ndarray] = field(repr=False)
    # (point bytes, tensor) of the last ``coefficient_tensor`` call.
    _last_tensor: tuple[bytes, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def coefficient_tensor(self, m) -> np.ndarray:
        key = np.asarray(m, dtype=float).tobytes()
        last = self._last_tensor
        if last is not None and last[0] == key:
            return last[1].copy()
        n, k = self.bundle.chart.dim, self.bundle.fiber_dim
        out = np.array(self.coefficients(m), dtype=float)
        if out.shape != (n, k, k):
            raise DimensionMismatch(
                f"connection coefficients have shape {out.shape}, expected {(n, k, k)}"
            )
        object.__setattr__(self, "_last_tensor", (key, out))
        return out.copy()

    def omega(self, z_field: SmoothMap, m) -> np.ndarray:
        """The k x k matrix omega(Z)(m) = sum_j Z^j(m) omega_j(m)."""
        z_val = z_field(m)
        if z_field.codomain_dim != self.bundle.chart.dim:
            raise DimensionMismatch("vector field does not match the chart")
        n, k = self.bundle.chart.dim, self.bundle.fiber_dim
        return (z_val @ self.coefficient_tensor(m).reshape(n, k * k)).reshape(k, k)

    def nabla(self, z_field: SmoothMap, mu: SmoothMap, m) -> np.ndarray:
        """Covariant derivative of a section mu along Z at m."""
        if mu.codomain_dim != self.bundle.fiber_dim:
            raise DimensionMismatch("section does not take values in the fiber")
        return jacobian(mu, m) @ z_field(m) + self.omega(z_field, m) @ mu(m)

    def dual_nabla(self, z_field: SmoothMap, phi: SmoothMap, m) -> np.ndarray:
        """Covariant derivative on the dual bundle along Z at m."""
        if phi.codomain_dim != self.bundle.fiber_dim:
            raise DimensionMismatch("section does not take values in the dual fiber")
        return jacobian(phi, m) @ z_field(m) - self.omega(z_field, m).T @ phi(m)

    @classmethod
    def from_smooth_map(cls, bundle: TrivialBundle, coeff_map: SmoothMap) -> "Connection":
        n, k = bundle.chart.dim, bundle.fiber_dim
        if coeff_map.domain_dim != n or coeff_map.codomain_dim != n * k * k:
            raise DimensionMismatch(
                f"coefficient map must have {n * k * k} components on the chart"
            )
        return cls(bundle, lambda m: coeff_map(m).reshape(n, k, k))

    @classmethod
    def constant(cls, bundle: TrivialBundle, tensor: np.ndarray) -> "Connection":
        arr = np.array(tensor, dtype=float)
        return cls(bundle, lambda m: arr)

    @classmethod
    def flat(cls, bundle: TrivialBundle) -> "Connection":
        n, k = bundle.chart.dim, bundle.fiber_dim
        return cls.constant(bundle, np.zeros((n, k, k)))
