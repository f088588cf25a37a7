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

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        lows = np.array([lo for lo, _ in self.box])
        highs = np.array([hi for _, hi in self.box])
        return rng.uniform(lows, highs) if self.dim else np.zeros(0)


@dataclass(frozen=True)
class TrivialBundle:
    chart: Chart
    fiber_dim: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be at least 1")


@dataclass(frozen=True)
class Connection:
    bundle: TrivialBundle
    coefficients: Callable[[Sequence[float]], np.ndarray] = field(repr=False)

    def coefficient_tensor(self, m) -> np.ndarray:
        n, k = self.bundle.chart.dim, self.bundle.fiber_dim
        out = np.asarray(self.coefficients(m), dtype=float)
        if out.shape != (n, k, k):
            raise DimensionMismatch(
                f"connection coefficients have shape {out.shape}, expected {(n, k, k)}"
            )
        return out

    def omega(self, z_field: SmoothMap, m) -> np.ndarray:
        """The k x k matrix omega(Z)(m)."""
        z_val = z_field(m)
        if z_field.codomain_dim != self.bundle.chart.dim:
            raise DimensionMismatch("vector field does not match the chart")
        tensor = self.coefficient_tensor(m)
        return np.tensordot(z_val, tensor, axes=(0, 0))

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
