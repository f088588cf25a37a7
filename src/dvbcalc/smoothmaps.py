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
single (dim,) point keeps the float path.

Families.  A family of N maps is called only at (N, dim) batches, and row
i of a result is member i at point i.  A map whose ``Num`` leaves hold
(N,) arrays is such a family, walked like any tree.  A ``PolyFamily``
holds N polynomial maps of degree at most 2 as coefficient arrays, with
members on the leading axis: its values and Jacobians are closed-form
products of those arrays (``jacobian`` takes its closed form), and its
``eval_generic`` runs the arithmetic of the tree on the coefficient
columns, so jets, nested ones too, pass through it as through a tree.
Both kinds go wherever a ``SmoothMap`` is called at a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class PolyFamily:
    """N polynomial maps R^dim -> R^codim of degree at most 2, member r in row r.

    Component c of member r is c0[r, c] + sum_i x_i (lin[r, c, i] +
    sum_{j >= i} quad[r, c, i, j] x_j): c0 is (N, codim), lin
    (N, codim, dim) and quad (N, codim, dim, dim), zero below its diagonal.
    """

    c0: np.ndarray
    lin: np.ndarray
    quad: np.ndarray

    def __post_init__(self):
        n, codim = self.c0.shape
        dim = self.lin.shape[2]
        if self.lin.shape != (n, codim, dim) or self.quad.shape != (n, codim, dim, dim):
            raise DimensionMismatch(
                f"coefficients of shapes {self.c0.shape}, {self.lin.shape} and "
                f"{self.quad.shape} are not one family"
            )

    @property
    def domain_dim(self) -> int:
        return self.lin.shape[2]

    @property
    def codomain_dim(self) -> int:
        return self.c0.shape[1]

    def _batch(self, point) -> np.ndarray:
        """point, which must be an (N, dim) batch: one point per member."""
        x = np.asarray(point, dtype=float)
        expected = (len(self.c0), self.domain_dim)
        if x.shape != expected:
            raise DimensionMismatch(f"a family takes a batch of shape {expected}, got {x.shape}")
        return x

    # Both closed forms multiply (N, codim * dim, dim) stacks by the (N, dim, 1)
    # points; broadcasting the points over the components instead, or a
    # three-operand einsum, is slower at large N.

    def __call__(self, point) -> np.ndarray:
        """The (N, codim) values: c0 + (lin + quad x) x."""
        x = self._batch(point)[:, :, None]
        n, codim, dim = self.lin.shape
        inner = self.lin + (self.quad.reshape(n, codim * dim, dim) @ x).reshape(n, codim, dim)
        return self.c0 + (inner @ x)[..., 0]

    def jacobian(self, point) -> np.ndarray:
        """The (N, codim, dim) Jacobians: lin + (quad + quad^T) x."""
        x = self._batch(point)[:, :, None]
        n, codim, dim = self.lin.shape
        sym = self.quad + np.swapaxes(self.quad, -1, -2)
        return self.lin + (sym.reshape(n, codim * dim, dim) @ x).reshape(n, codim, dim)

    @cached_property
    def _terms(self) -> list:
        """Per component, its (N,) constant column and per i the linear
        column and the (j, column) of the pairs i <= j some member uses."""
        dim = self.domain_dim
        c0 = self.c0.T.copy()
        lin = np.moveaxis(self.lin, 0, -1).copy()
        quad = np.moveaxis(self.quad, 0, -1).copy()
        used = quad.any(axis=-1).tolist()
        return [
            (c0[c], [(lin[c, i], [(j, quad[c, i, j]) for j in range(i, dim) if used[c][i][j]])
                     for i in range(dim)])
            for c in range(len(c0))
        ]

    def eval_generic(self, values: Sequence[Scalar]) -> list[Scalar]:
        """The components at (N,) coordinate columns, or jets over them."""
        if len(values) != self.domain_dim:
            raise DimensionMismatch(
                f"expected point of dimension {self.domain_dim}, got {len(values)}"
            )
        if values and np.shape(jets.deep_value(values[0])) != (len(self.c0),):
            raise DimensionMismatch(f"a family takes columns of {len(self.c0)} rows")
        out = []
        for const, terms in self._terms:
            acc = const
            for value, (coeff, pairs) in zip(values, terms):
                inner = coeff
                for j, a in pairs:
                    inner = inner + a * values[j]
                acc = acc + inner * value
            out.append(acc)
        return out


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

    A ``PolyFamily`` gives its closed form.  Every other map keeps the
    Jacobian of its previous call, keyed by the shape
    and exact bytes of the float point or batch (so ``0.0`` and ``-0.0``
    are different points).  A call at that same point reuses it.  The
    result is always a fresh array that the caller may modify.
    """
    if isinstance(m, PolyFamily):
        return m.jacobian(point)
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
    """A value's entries [i] or a Jacobian's [i][j]: floats, or for a batch (N,) arrays."""
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
    xv = _entries(x_field(point), batch)
    yv = _entries(y_field(point), batch)
    jx = _entries(jacobian(x_field, point), batch)
    jy = _entries(jacobian(y_field, point), batch)
    return jets._as_array(_bracket(xv, yv, jx, jy), batch, (x_field.domain_dim,))


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
