"""Vector-valued smooth maps between chart domains.

A ``SmoothMap`` is a list of coordinate expressions.  Jacobians and
directional derivatives are computed by evaluating the expressions over
seeded jets, so they are exact up to rounding.  ``lie_bracket`` combines
the fields' values and Jacobians, from the memoized ``jacobian``, as arrays.

Batches.  Every function here that takes a point also takes an (N, dim)
array of N points and returns its result with a leading axis of length N:
``m(points)`` is (N, codomain_dim), ``jacobian`` (N, codomain_dim, dim),
``lie_bracket`` (N, dim) and ``directional_derivative`` (N,).  One pass of
the expressions over (N,) arrays evaluates all N points (see ``jets``).  A
single (dim,) point is a batch of one: the result is that batch's row, and
``directional_derivative`` a float.

Families.  A family of N maps is called only at (N, dim) batches, and row
i of a result is member i at point i.  A map whose ``Num`` leaves hold
(N,) arrays is such a family, walked like any tree.  A ``PolyFamily``
holds N polynomial maps of degree at most 2 as coefficient arrays, with
members on the leading axis: its values and Jacobians are closed-form
products of those arrays, and jets pass through it by the chain rule on
those closed forms, not term by term; jets of jets raise ``TypeError``.
Both kinds go wherever a ``SmoothMap`` is called at a batch.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import expressions, jets
from ._value import Value, dimension
from .expressions import Expr
from .jets import Jet, Scalar


class DimensionMismatch(ValueError):
    pass


class SmoothMap(Value):
    """Map R^domain_dim -> R^codomain_dim given by component expressions."""

    # _last_pass: (batch key, (value, Jacobian)) of the last ``jacobian`` call's seeded pass; see there.
    __slots__ = ("domain_dim", "components", "_last_pass")

    def __init__(self, domain_dim: int, components: tuple[Expr, ...]):
        components, domain_dim = tuple(components), dimension(domain_dim)
        if domain_dim < 0:
            raise DimensionMismatch("domain dimension must be non-negative")
        for comp in components:
            try:
                top = expressions.max_var_index(comp)
            except RecursionError:  # a hand-built tree; parsed ones are depth-bounded
                raise ValueError("component expression is nested too deep to walk") from None
            if top >= domain_dim:
                raise DimensionMismatch(f"component uses variable outside dimension {domain_dim}")
        object.__setattr__(self, "domain_dim", domain_dim)
        object.__setattr__(self, "components", components)

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
        x, single = jets._as_batch(point)
        last = getattr(self, "_last_pass", None)  # the value ``jacobian`` computed at its batch
        if last is not None and last[0] == _point_key(x):
            value = last[1][0].copy(order="K")  # in the walk's memory layout too
        else:
            value = jets.values_at(self.eval_generic, x)
        return value[0] if single else value


class PolyFamily(Value):
    """N polynomial maps R^dim -> R^codim of degree at most 2, member r in row r.

    Component c of member r is c0[r, c] + sum_i x_i (lin[r, c, i] +
    sum_{j >= i} quad[r, c, i, j] x_j): c0 is (N, codim), lin
    (N, codim, dim) and quad (N, codim, dim, dim), zero below its diagonal.

    ``__call__`` and ``jacobian`` each keep the result of their previous
    call, as ``smoothmaps.jacobian`` does for a tree: keyed by the batch's
    shape and exact bytes, returned as a fresh array, and not kept when the
    call raises.  The coefficient arrays must not change after a call.  A
    family is equal only to itself.
    Jets pass through ``eval_generic`` by the chain rule on the closed
    forms (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 3).
    """

    # _last_value, _last_jacobian: (batch key, result) of the last ``__call__`` and ``jacobian``.
    __slots__ = ("c0", "lin", "quad", "_last_value", "_last_jacobian")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, c0: np.ndarray, lin: np.ndarray, quad: np.ndarray):
        shape = lin.shape  # (n, codim, dim)
        if len(shape) != 3 or c0.shape != shape[:2] or quad.shape != shape + shape[2:]:
            raise DimensionMismatch(
                f"coefficients of shapes {c0.shape}, {lin.shape} and {quad.shape} are not one family"
            )
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "quad", quad)

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
        x = self._batch(point)
        return _kept(self, "_last_value", _point_key(x), lambda: self._values(x)).copy()

    def _values(self, x: np.ndarray) -> np.ndarray:
        x = x[:, :, None]
        n, codim, dim = self.lin.shape
        inner = self.lin + (self.quad.reshape(n, codim * dim, dim) @ x).reshape(n, codim, dim)
        return self.c0 + (inner @ x)[..., 0]

    def jacobian(self, point) -> np.ndarray:
        """The (N, codim, dim) Jacobians: lin + (quad + quad^T) x."""
        x = self._batch(point)
        return _kept(self, "_last_jacobian", _point_key(x), lambda: self._jacobians(x)).copy()

    def _jacobians(self, x: np.ndarray) -> np.ndarray:
        x = x[:, :, None]
        n, codim, dim = self.lin.shape
        sym = self.quad + np.swapaxes(self.quad, -1, -2)
        return self.lin + (sym.reshape(n, codim * dim, dim) @ x).reshape(n, codim, dim)

    def eval_generic(self, values: Sequence[Scalar]) -> list[Scalar]:
        """The components at (N,) coordinate columns, or jets over them: one
        jet each, whose value is bitwise ``__call__``'s at the jets' values
        and whose partials are the Jacobian there times the input partials.
        Jets of jets raise ``TypeError``: their values are not floats."""
        rows = len(self.c0)
        if len(values) != self.domain_dim or any(np.shape(jets.deep_value(v)) != (rows,) for v in values):
            raise DimensionMismatch(f"a family takes {self.domain_dim} columns of {rows} rows")
        seeded = [v for v in values if isinstance(v, Jet)]
        inner = [v.value if isinstance(v, Jet) else v for v in values]
        x = np.ascontiguousarray(np.array(inner, dtype=float).reshape(-1, rows).T)
        if not seeded:
            return list(self(x).T)
        # All partials in one (dim * arity, *block, N) array, a float standing for every row.
        flat = [p for v in values for p in jets.partials_of(v, seeded[0].arity)]
        stacked = np.empty((len(flat), *max((np.shape(p) for p in flat), key=len)[:-1], rows))
        for i, p in enumerate(flat):
            stacked[i] = p
        pushed = self.jacobian(x) @ stacked.reshape(self.domain_dim, -1, rows).transpose(2, 0, 1)
        pushed = pushed.transpose(1, 2, 0).reshape(self.codomain_dim, -1, *stacked.shape[1:])
        return [Jet(v, tuple(p)) for v, p in zip(self(x).T, pushed)]


def _matvec(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v, row by row for (N, rows, cols) matrices or (N, cols) vectors."""
    return (matrix @ v[..., None])[..., 0]


def _point_key(point) -> tuple:
    """A point, or a batch of points, as its shape and exact bytes (so 0.0 and -0.0 differ)."""
    point = np.asarray(point, dtype=float)
    return point.shape, point.tobytes()


def _kept(owner, slot: str, key: tuple, compute):
    """compute(), kept in owner's slot with its key; a call with the key of
    the previous one reuses it.  Nothing is kept if compute raises.  The
    caller copies what it hands out."""
    last = getattr(owner, slot, None)
    if last is None or last[0] != key:
        last = (key, compute())
        object.__setattr__(owner, slot, last)
    return last[1]


def jacobian(m: SmoothMap, point) -> np.ndarray:
    """codomain_dim x domain_dim matrix of partials at ``point``.

    A ``PolyFamily`` gives its closed form.  A tree's Jacobian and value
    come from one seeded pass, ``jets.value_and_jacobian``, whose value is
    bitwise the walk's (see ``jets``).  Every map keeps both from its
    previous call, keyed by the shape and exact bytes of the batch, a
    point's being its batch of one (so ``0.0`` and ``-0.0`` are different
    points); a call of ``jacobian``, or of the map, there reuses them.  The
    result is always a fresh array that the caller may modify.
    """
    if isinstance(m, PolyFamily):
        return m.jacobian(point)
    x, single = jets._as_batch(point)
    last = _kept(m, "_last_pass", _point_key(x), lambda: jets.value_and_jacobian(m.eval_generic, x))
    return (last[1][0] if single else last[1]).copy()


def directional_derivative(f: SmoothMap, x_field: SmoothMap, point) -> float | np.ndarray:
    """<df, X> at ``point`` for scalar f and vector field X on the same chart."""
    if f.codomain_dim != 1:
        raise DimensionMismatch("directional derivative expects a scalar map")
    if f.domain_dim != x_field.domain_dim or x_field.codomain_dim != f.domain_dim:
        raise DimensionMismatch("vector field must match the chart dimension")
    return jets.jet_directional(lambda vs: f.eval_generic(vs)[0], point, x_field(point))


def _check_vector_field(*fields: SmoothMap) -> None:
    """Each field is a vector field on its chart, and all share one chart."""
    if any(f.codomain_dim != f.domain_dim for f in fields):
        raise DimensionMismatch("expected a vector field on the chart")
    if len({f.domain_dim for f in fields}) > 1:
        raise DimensionMismatch("vector fields live on different charts")


def lie_bracket(x_field: SmoothMap, y_field: SmoothMap, point) -> np.ndarray:
    """[X, Y]^i = sum_j X^j dY^i/dx_j - Y^j dX^i/dx_j, (N, dim) at an (N, dim)
    batch or (dim,) at a point, summed over j in order.

    The Jacobians come from ``jacobian``, so a field already differentiated
    at this point is not differentiated again; they are taken first, so
    each field's value is its Jacobian pass's.
    """
    _check_vector_field(x_field, y_field)
    jx, jy = jacobian(x_field, point), jacobian(y_field, point)
    xv, yv = x_field(point), y_field(point)
    out = np.zeros_like(xv)  # keeps the (0,) and (N, 0) shapes of a 0-dim chart
    for j in range(x_field.domain_dim):
        out = out + jy[..., j] * xv[..., j, None] - jx[..., j] * yv[..., j, None]
    return out


class MatrixMap(Value):
    """Array-valued map on a chart, e.g. the fiber part of a linear section
    or a connection's coefficient tensor: any function of an (N, dim) batch,
    such as reshaped smooth-map components, a Jacobian closure or an array
    polynomial.  The library only evaluates it at points, so its entries
    need not be expressions."""

    __slots__ = ("shape", "fn")
    _hidden = ("fn",)

    def __init__(self, shape: tuple[int, ...], fn: Callable[[np.ndarray], np.ndarray]):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "fn", fn)

    def __call__(self, point) -> np.ndarray:
        """The (N, *shape) arrays at an (N, dim) batch, or the row of a point's batch of one.

        A function that returns one array for a batch, such as a constant,
        gives it for every row, as a read-only broadcast view.
        """
        x, single = jets._as_batch(point)
        out = np.asarray(self.fn(x), dtype=float)
        expected = (len(x), *self.shape)
        if out.shape == self.shape:
            out = np.broadcast_to(out, expected)
        if out.shape != expected:
            raise DimensionMismatch(f"matrix map returned shape {out.shape}, expected {expected}")
        return out[0] if single else out

    @classmethod
    def from_smooth_map(cls, m: SmoothMap, *shape: int) -> "MatrixMap":
        """The components of m, reshaped row-major to an array of the given shape."""
        size = math.prod(shape)
        if m.codomain_dim != size:
            raise DimensionMismatch(f"need {size} components for shape {shape}, got {m.codomain_dim}")

        def array(p):
            out = m(p)
            return out.reshape(*out.shape[:-1], *shape)

        return cls(shape, array)

    @classmethod
    def from_jacobian(cls, m: SmoothMap) -> "MatrixMap":
        return cls((m.codomain_dim, m.domain_dim), lambda p: jacobian(m, p))

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "MatrixMap":
        arr = np.array(matrix, dtype=float)
        if arr.ndim < 2:
            raise DimensionMismatch("constant matrix map needs an array of at least 2 dimensions")
        return cls(arr.shape, lambda p: arr)
