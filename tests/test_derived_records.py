"""Records built by the library's operations skip the component checks, and lose nothing by it.

An operation whose components are a checked record's, arrays the library
has just frozen, or a caller's argument it has checked itself builds its
record without ``Record.__init__``'s per-component checks (see the ``dvb``
module docstring).  Each such record must be the record the checked path
builds from the same components: the same component objects and the same
batch.  A caller's argument is still copied or refused as the checked path
copies or refuses it.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc import dvb, sections
from dvbcalc.dvb import DualAElement, DualBElement, DvbElement, DvbShape, IterACElement, IterBCElement
from dvbcalc.smoothmaps import DimensionMismatch

import support


def _built(call):
    """call()'s records, each kept by a spy on ``Record.__init__``."""
    records = []
    init = dvb.Record.__init__

    def spy(self, shape, *values):
        init(self, shape, *values)
        records.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dvb.Record, "__init__", spy)
        call()
    return records


def _components(record):
    return [getattr(record, name) for name, _ in record._fields]


class _Draw:
    """Frozen operands over one shape, each component a point or a batch of ``rows``.

    A component shared between operands (a base point, a side the operation
    compares) is one point, passed to each operand as itself or repeated
    over the batch.  Mode "point" batches nothing, "batch" everything, and
    "mix" picks each component's form at random.
    """

    def __init__(self, seed: int, mode: str):
        self.rng = np.random.default_rng(seed)
        self.shape = support.random_shape(self.rng, max_dim=3, max_base=2)
        self.rows = int(self.rng.integers(2, 5))
        self.mode = mode
        self.shared = {}

    def _batched(self) -> bool:
        if self.mode == "mix":
            return bool(self.rng.integers(2))
        return self.mode == "batch"

    def _as_drawn(self, point):
        value = np.repeat(point[None], self.rows, axis=0) if self._batched() else point.copy()
        value.setflags(write=False)
        return value

    def fresh(self, key: str):
        return self._as_drawn(support.rand_vec(self.rng, getattr(self.shape, key)))

    def same(self, name: str, key: str):
        """The shared point called name, as itself or repeated."""
        if name not in self.shared:
            self.shared[name] = support.rand_vec(self.rng, getattr(self.shape, key))
        return self._as_drawn(self.shared[name])

    def element(self, cls, **shared):
        """A cls record whose components named in shared are the shared points of those names."""
        values = [self.same(shared[name], key) if name in shared else self.fresh(key)
                  for name, key in cls._fields]
        return cls(self.shape, *values)


def _binary(op, side):
    def run(draw):
        common = {"m": "m", side: side}
        op(draw.element(DvbElement, **common), draw.element(DvbElement, **common))
    return run


def _unary(op, cls):
    return lambda draw: op(cls(draw.shape, *(draw.fresh(key) for _, key in cls._fields)))


def _pair_duals(draw):
    dvb.pair_duals_ba(draw.element(DualAElement, m="m", kappa="kappa"),
                      draw.element(DualBElement, m="m", kappa="kappa"))


def _section_call(side):
    def run(draw):
        grid = support.random_grid(draw.rng, draw.shape)
        section = grid.xi if side == "B" else grid.eta
        section.at(draw.fresh("base_dim"))(draw.fresh("dim_b" if side == "B" else "dim_a"))
    return run


def _squarecap(cap, side):
    def run(draw):
        grid = support.random_grid(draw.rng, draw.shape)
        cap(grid.xi if side == "B" else grid.eta, draw.fresh("base_dim"), draw.fresh("dim_c"))
    return run


def _over_point(op, key):
    return lambda draw: op(draw.shape, draw.fresh("base_dim"), draw.fresh(key))


OPERATIONS = {
    "add_over_a": _binary(dvb.add_over_a, "a"),
    "add_over_b": _binary(dvb.add_over_b, "b"),
    "sub_over_a": _binary(dvb.sub_over_a, "a"),
    "sub_over_b": _binary(dvb.sub_over_b, "b"),
    "scale_over_a": _unary(lambda d: dvb.scale_over_a(-1.5, d), DvbElement),
    "scale_over_b": _unary(lambda d: dvb.scale_over_b(2, d), DvbElement),
    "dual_iso_a": _unary(dvb.dual_iso_a, IterBCElement),
    "dual_iso_a_inverse": _unary(dvb.dual_iso_a_inverse, DualAElement),
    "dual_iso_b": _unary(dvb.dual_iso_b, IterACElement),
    "dual_iso_b_inverse": _unary(dvb.dual_iso_b_inverse, DualBElement),
    "pairing_map_a": _unary(dvb.pairing_map_a, DualAElement),
    "pairing_map_b": _unary(dvb.pairing_map_b, DualBElement),
    "pair_duals_ba": _pair_duals,
    "SectionAt.__call__ (B)": _section_call("B"),
    "SectionAt.__call__ (A)": _section_call("A"),
    "squarecap_b": _squarecap(sections.squarecap_b, "B"),
    "squarecap_a": _squarecap(sections.squarecap_a, "A"),
    "core_embed": _over_point(dvb.core_embed, "dim_c"),
    "zero_over_a": _over_point(dvb.zero_over_a, "dim_a"),
    "zero_over_b": _over_point(dvb.zero_over_b, "dim_b"),
}


@pytest.mark.parametrize("mode", ["point", "batch", "mix"])
@pytest.mark.parametrize("operation", OPERATIONS.values(), ids=OPERATIONS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_derived_record_is_the_checked_record_of_its_components(operation, mode, seed):
    draw = _Draw(seed, mode)
    # The operands are built before the spy, which sees only the operation's records.
    records = _built(lambda: operation(draw))
    assert records
    for record in records:
        assert type(record.shape) is DvbShape
        rebuilt = type(record)(record.shape, *_components(record))
        assert all(x is y for x, y in zip(_components(rebuilt), _components(record), strict=True))
        assert rebuilt.batch == record.batch
        if mode == "point":
            assert record.batch is None
        if mode == "batch":
            assert record.batch == draw.rows


# -- a caller's argument -------------------------------------------------------

SHAPE = DvbShape(2, 3, 2, 1)
ROWS = 3
_RNG = np.random.default_rng(36)
_GRID = support.random_grid(_RNG, SHAPE)


def _given(lead, key):
    """A frozen point, or batch of len lead[0] points, of the component of SHAPE sized by key."""
    x = support.rand_vec(_RNG, (*lead, getattr(SHAPE, key)))
    x.setflags(write=False)
    return x


class _Taker:
    """An operation that takes a caller's argument x beside one other argument, given frozen.

    ``name`` is the component that keeps x, sized by ``key``; ``other`` is the
    component the other argument becomes.  A section multiplies x by its
    matrix before the record checks it, so numpy refuses some x first.
    """

    def __init__(self, call, name, key, other, other_key, multiplied=False):
        self.call, self.name, self.key = call, name, key
        self.other, self.other_key, self.multiplied = other, other_key, multiplied

    def __call__(self, x, lead=()):
        """The record built from x and another argument with leading shape lead."""
        return self.call(x, _given(lead, self.other_key))


TAKERS = {
    "SectionAt.__call__ (B)": _Taker(lambda x, m: _GRID.xi.at(m)(x), "b", "dim_b", "m", "base_dim", True),
    "SectionAt.__call__ (A)": _Taker(lambda x, m: _GRID.eta.at(m)(x), "a", "dim_a", "m", "base_dim", True),
    "squarecap_b": _Taker(lambda x, m: sections.squarecap_b(_GRID.xi, m, x), "kappa", "dim_c", "m", "base_dim", True),
    "squarecap_a": _Taker(lambda x, m: sections.squarecap_a(_GRID.eta, m, x), "kappa", "dim_c", "m", "base_dim", True),
    "core_embed": _Taker(lambda x, m: dvb.core_embed(SHAPE, m, x), "c", "dim_c", "m", "base_dim"),
    "zero_over_a": _Taker(lambda x, m: dvb.zero_over_a(SHAPE, m, x), "a", "dim_a", "m", "base_dim"),
    "zero_over_b": _Taker(lambda x, m: dvb.zero_over_b(SHAPE, m, x), "b", "dim_b", "m", "base_dim"),
    "core_embed (m)": _Taker(lambda x, c: dvb.core_embed(SHAPE, x, c), "m", "base_dim", "c", "dim_c"),
    "zero_over_a (m)": _Taker(lambda x, a: dvb.zero_over_a(SHAPE, x, a), "m", "base_dim", "a", "dim_a"),
    "zero_over_b (m)": _Taker(lambda x, b: dvb.zero_over_b(SHAPE, x, b), "m", "base_dim", "b", "dim_b"),
}


@pytest.mark.parametrize("lead", [(), (ROWS,)], ids=["point", "batch"])
@pytest.mark.parametrize("take", TAKERS.values(), ids=TAKERS)
def test_a_callers_list_or_writeable_array_is_copied(take, lead):
    dim = getattr(SHAPE, take.key)
    for x in (support.rand_vec(_RNG, (*lead, dim)), support.rand_vec(_RNG, (*lead, dim)).tolist()):
        record = take(x)
        kept = getattr(record, take.name)
        assert kept is not x and kept.dtype == np.float64 and kept.base is None
        assert not kept.flags.writeable and np.array_equal(kept, x)
        assert record.batch == (lead[0] if lead else None)
        if isinstance(x, np.ndarray):
            assert x.flags.writeable
            x[...] = 7.0
            assert not np.array_equal(kept, x)


def _refusal(take, x_lead, other_lead, label):
    """The DimensionMismatch message, as a pattern, that the checked path gives
    for x; None where numpy's ValueError comes first."""
    dim = getattr(SHAPE, take.key)
    if label in ("wrong length", "scalar", "3-D"):
        if take.multiplied and label != "3-D":
            return None
        got = {"wrong length": f"({dim + 1},)", "scalar": "()", "3-D": f"(3, 1, {dim})"}[label]
        return rf"{take.name} must have shape \({dim},\) or \(N, {dim}\), got {re.escape(got)}"
    if take.multiplied and 1 not in (x_lead[0], other_lead[0]):
        return None  # the rows do not broadcast through the matrix
    # The base point is checked first, and the second component names the clash.
    if take.name == "m":
        return f"{take.other} has {other_lead[0]} rows, other components have {x_lead[0]}"
    return f"{take.name} has {x_lead[0]} rows, other components have {other_lead[0]}"


REFUSED = {
    "wrong length": (lambda dim: [0.5] * (dim + 1), ()),
    "scalar": (lambda dim: 1.0, ()),
    "3-D": (lambda dim: np.zeros((3, 1, dim)), ()),
    "one row against three": (lambda dim: np.zeros((1, dim)), (3,)),
    "three rows against one": (lambda dim: np.zeros((3, dim)), (1,)),
    "two rows against three": (lambda dim: np.zeros((2, dim)), (3,)),
}


@pytest.mark.parametrize("label", REFUSED)
@pytest.mark.parametrize("take", TAKERS.values(), ids=TAKERS)
def test_a_callers_argument_is_refused_as_the_checked_path_refuses_it(take, label):
    make, other_lead = REFUSED[label]
    x = make(getattr(SHAPE, take.key))
    message = _refusal(take, np.shape(x), other_lead, label)
    with pytest.raises(ValueError) as caught:
        take(x, other_lead)
    if message is None:
        assert type(caught.value) is ValueError
    else:
        assert type(caught.value) is DimensionMismatch
        assert re.fullmatch(message, str(caught.value))


def test_an_operand_batched_only_where_the_record_drops_it_leaves_the_record_unbatched():
    # d2 is a batch only in its base point, whose rows all equal d1's; the sum
    # keeps d1's base point and side, so nothing in it is batched.
    shape = DvbShape(1, 1, 1, 1)
    point = DvbElement(shape, [0.5], [1.0], [2.0], [3.0])
    rows = DvbElement(shape, [[0.5], [0.5]], [1.0], [2.0], [3.0])
    for total in (dvb.add_over_a(point, rows), dvb.sub_over_b(point, rows)):
        assert total.batch is None and type(total)(shape, *_components(total)).batch is None
