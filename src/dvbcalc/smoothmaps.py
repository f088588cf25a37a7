"""Vector-valued smooth maps between chart domains.

A ``SmoothMap`` is a list of coordinate expressions.  Jacobians and
directional derivatives are computed by evaluating the expressions over
seeded jets, so they are exact up to rounding.  ``lie_bracket_generic``
also takes jets, so brackets can themselves be differentiated, e.g. for
Jacobi-identity checks; ``lie_bracket`` at float points shares its formula
and takes its Jacobians from the memoized ``jacobian``.

Batches.  Every function here that takes a point also takes an (N, dim)
array of N points and returns its result with a leading axis of length N:
``m(points)`` is (N, codomain_dim), ``jacobian`` (N, codomain_dim, dim),
``lie_bracket`` (N, dim) and ``directional_derivative`` (N,).  One pass of
the expressions over (N,) arrays evaluates all N points (see ``jets``); a
single (dim,) point keeps the float path.  A map whose ``Num`` leaves hold
(N,) arrays is a family of N maps of one form, and at an (N, dim) batch
row i is member i at point i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import expressions, jets
from .expressions import Expr
from .jets import Scalar


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SmoothMap:
    """Map R^domain_dim -> R^codomain_dim given by component expressions."""

    domain_dim: int
    components: tuple[Expr, ...]
    # (point bytes, Jacobian) of the last ``jacobian`` call; see there.
    _last_jacobian: tuple[bytes, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.domain_dim < 0:
            raise DimensionMismatch("domain dimension must be non-negative")
        for comp in self.components:
            if expressions.max_var_index(comp) >= self.domain_dim:
                raise DimensionMismatch(
                    f"component uses variable outside dimension {self.domain_dim}"
                )

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    @classmethod
    def parse(cls, texts: Sequence[str], domain_dim: int) -> "SmoothMap":
        comps = tuple(expressions.parse(t, domain_dim) for t in texts)
        return cls(domain_dim, comps)

    @classmethod
    def constant(cls, values: Sequence[float], domain_dim: int) -> "SmoothMap":
        return cls(domain_dim, tuple(expressions.Num(float(v)) for v in values))

    def eval_generic(self, values: Sequence[Scalar]) -> list[Scalar]:
        if len(values) != self.domain_dim:
            raise DimensionMismatch(
                f"expected point of dimension {self.domain_dim}, got {len(values)}"
            )
        return [expressions.evaluate(c, values) for c in self.components]

    def __call__(self, point) -> np.ndarray:
        batch = jets._batch_of(point)
        if batch is None:
            return np.array(self.eval_generic([float(v) for v in point]), dtype=float)
        values = self.eval_generic(jets._columns(point))
        return jets._as_array(values, batch, (len(values),))


def _matvec(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v, row by row for (N, rows, cols) matrices or (N, cols) vectors."""
    if v.ndim == 1:
        return matrix @ v
    if matrix.ndim == 2:
        return v @ matrix.T
    return (matrix @ v[:, :, None])[:, :, 0]


def _point_key(point) -> tuple:
    """A point, or a batch of points, as its shape and exact bytes (so 0.0 and -0.0 differ)."""
    point = np.asarray(point, dtype=float)
    return point.shape, point.tobytes()


def jacobian(m: SmoothMap, point) -> np.ndarray:
    """codomain_dim x domain_dim matrix of partials at ``point``.

    Each map keeps the Jacobian of its previous call, keyed by the shape
    and exact bytes of the float point or batch (so ``0.0`` and ``-0.0``
    are different points).  A call at that same point reuses it.  The
    result is always a fresh array that the caller may modify.
    """
    batch = jets._batch_of(point)
    dim = len(point) if batch is None else point.shape[1]
    if dim != m.domain_dim:
        raise DimensionMismatch(f"expected point of dimension {m.domain_dim}, got {dim}")
    if batch is None:
        point = [float(v) for v in point]
    key = _point_key(point)
    last = m._last_jacobian
    if last is not None and last[0] == key:
        return last[1].copy()
    jac = jets.jet_jacobian(m.eval_generic, point)
    object.__setattr__(m, "_last_jacobian", (key, jac))
    return jac.copy()


def directional_derivative(f: SmoothMap, x_field: SmoothMap, point) -> float | np.ndarray:
    """<df, X> at ``point`` for scalar f and vector field X on the same chart."""
    if f.codomain_dim != 1:
        raise DimensionMismatch("directional derivative expects a scalar map")
    if f.domain_dim != x_field.domain_dim or x_field.codomain_dim != f.domain_dim:
        raise DimensionMismatch("vector field must match the chart dimension")
    out = jets.jet_directional(lambda vs: f.eval_generic(vs)[0], point, x_field(point))
    return out if jets._batch_of(point) is not None else float(out)


def _check_vector_field(x_field: SmoothMap) -> None:
    if x_field.codomain_dim != x_field.domain_dim:
        raise DimensionMismatch("expected a vector field on the chart")


def _bracket(xv: Sequence[Scalar], yv: Sequence[Scalar], jx, jy) -> list[Scalar]:
    """[X,Y]^i = sum_j X^j dY^i/dx_j - Y^j dX^i/dx_j from values and Jacobian rows."""
    out = []
    for i in range(len(xv)):
        acc = 0.0
        for j in range(len(xv)):
            acc = acc + jy[i][j] * xv[j] - jx[i][j] * yv[j]
        out.append(acc)
    return out


def lie_bracket_generic(
    x_field: SmoothMap, y_field: SmoothMap, values: Sequence[Scalar]
) -> list[Scalar]:
    """The bracket over floats or jets, with Jacobians from seeded jets."""
    xv = x_field.eval_generic(values)
    yv = y_field.eval_generic(values)
    jx = jets.generic_jacobian(x_field.eval_generic, values)
    jy = jets.generic_jacobian(y_field.eval_generic, values)
    return _bracket(xv, yv, jx, jy)


def _entries(jac: np.ndarray, batch: int | None):
    """A Jacobian's entries [i][j]: floats, or for a batch the (N,) arrays of their rows."""
    return jac.tolist() if batch is None else np.moveaxis(jac, 0, -1)


def lie_bracket(x_field: SmoothMap, y_field: SmoothMap, point) -> np.ndarray:
    """[X, Y] at a float point, or (N, dim) at an (N, dim) batch.

    The Jacobians come from ``jacobian``, so a field already differentiated
    at this point is not differentiated again.
    """
    _check_vector_field(x_field)
    _check_vector_field(y_field)
    if x_field.domain_dim != y_field.domain_dim:
        raise DimensionMismatch("vector fields live on different charts")
    batch = jets._batch_of(point)
    values = jets._columns(point)
    if len(values) != x_field.domain_dim:
        raise DimensionMismatch(
            f"expected point of dimension {x_field.domain_dim}, got {len(values)}"
        )
    xv = x_field.eval_generic(values)
    yv = y_field.eval_generic(values)
    jx = _entries(jacobian(x_field, point), batch)
    jy = _entries(jacobian(y_field, point), batch)
    return jets._as_array(_bracket(xv, yv, jx, jy), batch, (len(values),))


@dataclass(frozen=True)
class MatrixMap:
    """Matrix-valued map on a chart, e.g. the fiber part of a linear section.

    Wraps either reshaped smooth-map components or a jacobian closure, so
    every derivative in a matrix entry still comes from the jet machinery.
    """

    rows: int
    cols: int
    fn: Callable[[Sequence[float]], np.ndarray] = field(repr=False)

    def __call__(self, point) -> np.ndarray:
        """The matrix at a point, or the (N, rows, cols) matrices at an (N, dim) batch.

        A function that returns one matrix for a batch, such as a constant,
        gives that matrix for every row.
        """
        out = np.asarray(self.fn(point), dtype=float)
        expected = (self.rows, self.cols)
        batch = jets._batch_of(point)
        if batch is not None:
            if out.shape == expected:
                out = np.broadcast_to(out, (batch, *expected))
            expected = (batch, *expected)
        if out.shape != expected:
            raise DimensionMismatch(f"matrix map returned shape {out.shape}, expected {expected}")
        return out

    @classmethod
    def from_smooth_map(cls, m: SmoothMap, rows: int, cols: int) -> "MatrixMap":
        if m.codomain_dim != rows * cols:
            raise DimensionMismatch(
                f"need {rows * cols} components for a {rows}x{cols} matrix, got {m.codomain_dim}"
            )

        def matrix(p):
            out = m(p)
            return out.reshape(*out.shape[:-1], rows, cols)

        return cls(rows, cols, matrix)

    @classmethod
    def from_jacobian(cls, m: SmoothMap) -> "MatrixMap":
        return cls(m.codomain_dim, m.domain_dim, lambda p: jacobian(m, p))

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "MatrixMap":
        arr = np.array(matrix, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch("constant matrix map needs a 2-d array")
        return cls(arr.shape[0], arr.shape[1], lambda p: arr)
