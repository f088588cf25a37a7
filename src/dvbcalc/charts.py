"""Charts, trivialized vector bundles, and linear connections on them.

A connection on a trivial bundle of rank k over an n-dimensional chart is
stored as its coefficient tensor omega: one k x k matrix per coordinate
direction, with entries depending on the base point.  For a vector field
Z, omega(Z) = sum_j Z^j omega_j and

    nabla_Z mu  = Z(mu) + omega(Z) mu            (sections of the bundle)
    nabla*_Z phi = Z(phi) - omega(Z)^T phi       (sections of the dual)

A connection's methods also take an (N, dim) batch of base points, as the
maps of ``smoothmaps`` do, and return one result per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import jets
from .smoothmaps import DimensionMismatch, SmoothMap, _matvec, _point_key, jacobian


@dataclass(frozen=True)
class Chart:
    """Coordinate box used for sampling base points."""

    dim: int
    box: tuple[tuple[float, float], ...] = ()
    # The box's lower corner and side lengths, as arrays for sampling points.
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
    call, keyed by the shape and exact bytes of the float point or batch
    (so ``0.0`` and ``-0.0`` are different points), and a call at that same
    point reuses it.  The result is always a fresh array that the caller
    may modify, and a call that raises stores nothing.  At an (N, dim)
    batch the tensor is (N, n, k, k); a coefficient function that returns
    one (n, k, k) tensor, such as a constant, gives it for every row.
    """

    bundle: TrivialBundle
    coefficients: Callable[[Sequence[float]], np.ndarray] = field(repr=False)
    # (point bytes, tensor) of the last ``coefficient_tensor`` call.
    _last_tensor: tuple[bytes, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def coefficient_tensor(self, m) -> np.ndarray:
        key = _point_key(m)
        last = self._last_tensor
        if last is not None and last[0] == key:
            return last[1].copy()
        n, k = self.bundle.chart.dim, self.bundle.fiber_dim
        out = np.array(self.coefficients(m), dtype=float)
        expected = (n, k, k)
        batch = jets._batch_of(m)
        if batch is not None:
            if out.shape == expected:
                out = np.tile(out, (batch, 1, 1, 1))
            expected = (batch, *expected)
        if out.shape != expected:
            raise DimensionMismatch(
                f"connection coefficients have shape {out.shape}, expected {expected}"
            )
        object.__setattr__(self, "_last_tensor", (key, out))
        return out.copy()

    def omega(self, z_field: SmoothMap, m) -> np.ndarray:
        """The k x k matrix omega(Z)(m) = sum_j Z^j(m) omega_j(m)."""
        return self._omega_at(self._field_at(z_field, m), m)

    def _field_at(self, z_field: SmoothMap, m) -> np.ndarray:
        """Z(m) for a vector field Z on the chart."""
        if z_field.codomain_dim != self.bundle.chart.dim:
            raise DimensionMismatch("vector field does not match the chart")
        return z_field(m)

    def _omega_at(self, z_val: np.ndarray, m) -> np.ndarray:
        """omega(Z)(m) from the value Z(m), or from its (N, n) values at a batch."""
        n, k = self.bundle.chart.dim, self.bundle.fiber_dim
        tensor = self.coefficient_tensor(m)
        if z_val.ndim == 1:
            return (z_val @ tensor.reshape(n, k * k)).reshape(k, k)
        return np.einsum("nj,njab->nab", z_val, tensor)

    def nabla(self, z_field: SmoothMap, mu: SmoothMap, m) -> np.ndarray:
        """Covariant derivative of a section mu along Z at m; Z is evaluated once."""
        if mu.codomain_dim != self.bundle.fiber_dim:
            raise DimensionMismatch("section does not take values in the fiber")
        z_val = self._field_at(z_field, m)
        return _matvec(jacobian(mu, m), z_val) + _matvec(self._omega_at(z_val, m), mu(m))

    def dual_nabla(self, z_field: SmoothMap, phi: SmoothMap, m) -> np.ndarray:
        """Covariant derivative on the dual bundle along Z at m; Z is evaluated once."""
        if phi.codomain_dim != self.bundle.fiber_dim:
            raise DimensionMismatch("section does not take values in the dual fiber")
        z_val = self._field_at(z_field, m)
        omega_t = np.swapaxes(self._omega_at(z_val, m), -1, -2)
        return _matvec(jacobian(phi, m), z_val) - _matvec(omega_t, phi(m))

    @classmethod
    def from_smooth_map(cls, bundle: TrivialBundle, coeff_map: SmoothMap) -> "Connection":
        n, k = bundle.chart.dim, bundle.fiber_dim
        if coeff_map.domain_dim != n or coeff_map.codomain_dim != n * k * k:
            raise DimensionMismatch(
                f"coefficient map must have {n * k * k} components on the chart"
            )

        def tensor(m):
            out = coeff_map(m)
            return out.reshape(*out.shape[:-1], n, k, k)

        return cls(bundle, tensor)

    @classmethod
    def constant(cls, bundle: TrivialBundle, tensor: np.ndarray) -> "Connection":
        arr = np.array(tensor, dtype=float)
        return cls(bundle, lambda m: arr)

    @classmethod
    def flat(cls, bundle: TrivialBundle) -> "Connection":
        n, k = bundle.chart.dim, bundle.fiber_dim
        return cls.constant(bundle, np.zeros((n, k, k)))
