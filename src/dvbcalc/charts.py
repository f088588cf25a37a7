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
import numpy as np

from ._value import Value, dimension
from .smoothmaps import DimensionMismatch, MatrixMap, SmoothMap, _kept, _matvec, _point_key, jacobian


class Chart(Value):
    """Coordinate box used for sampling base points."""

    # lows, spans: the box's lower corner and side lengths, as arrays for sampling points.
    __slots__ = ("dim", "box", "lows", "spans")

    def __init__(self, dim: int, box: tuple[tuple[float, float], ...] = ()):
        dim = dimension(dim)
        if dim < 0:
            raise ValueError("chart dimension must be non-negative")
        box = tuple(tuple(float(v) for v in pair) for pair in box) or ((-1.0, 1.0),) * dim
        if len(box) != dim or not all(math.isfinite(hi - lo) and lo < hi for lo, hi in box):
            raise ValueError("box must give one finite (lo, hi) interval with lo < hi per axis")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "box", box)
        lows = np.array([lo for lo, _ in box])
        spans = np.array([hi for _, hi in box]) - lows
        lows.flags.writeable = spans.flags.writeable = False
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "spans", spans)


class TrivialBundle(Value):
    __slots__ = ("chart", "fiber_dim")

    def __init__(self, chart: Chart, fiber_dim: int):
        fiber_dim = dimension(fiber_dim)
        if fiber_dim < 1:
            raise ValueError("fiber dimension must be at least 1")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "fiber_dim", fiber_dim)


class Connection(Value):
    """A linear connection, given by its coefficient tensor: a ``MatrixMap`` of shape (n, k, k).

    Each connection keeps the tensor of its previous ``coefficient_tensor``
    call, as ``smoothmaps.jacobian`` keeps a map's Jacobian: keyed by the
    point's shape and exact bytes (so ``0.0`` and ``-0.0`` differ), returned
    as a fresh array, and not kept when the call raises.  At an (N, dim)
    batch the tensor is (N, n, k, k).
    """

    # _last_tensor: (point key, tensor) of the last ``coefficient_tensor`` call.
    __slots__ = ("bundle", "coefficients", "_last_tensor")
    _hidden = ("coefficients",)

    def __init__(self, bundle: TrivialBundle, coefficients: MatrixMap):
        n, k = bundle.chart.dim, bundle.fiber_dim
        if coefficients.shape != (n, k, k):
            raise DimensionMismatch(f"connection coefficients must have shape {(n, k, k)}")
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "coefficients", coefficients)

    def coefficient_tensor(self, m) -> np.ndarray:
        return _kept(self, "_last_tensor", _point_key(m), lambda: self.coefficients(m)).copy()

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
        return np.einsum("...j,...jab->...ab", z_val, self.coefficient_tensor(m))

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
        if coeff_map.domain_dim != n:
            raise DimensionMismatch("coefficient map must be defined on the chart")
        return cls(bundle, MatrixMap.from_smooth_map(coeff_map, n, k, k))

    @classmethod
    def constant(cls, bundle: TrivialBundle, tensor: np.ndarray) -> "Connection":
        return cls(bundle, MatrixMap.constant(tensor))

    @classmethod
    def flat(cls, bundle: TrivialBundle) -> "Connection":
        n, k = bundle.chart.dim, bundle.fiber_dim
        return cls.constant(bundle, np.zeros((n, k, k)))
