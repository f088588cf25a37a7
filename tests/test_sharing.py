"""Records share the arrays the library makes, and never freeze a caller's.

A ``dvb`` record keeps a read-only float array that owns its memory as it
is and copies anything else (see the ``dvb`` module docstring).  The
library freezes each array it makes where it makes it, so the records
built from it share it; an array a caller or a user's ``MatrixMap`` may
still hold is copied, and keeps its writeable flag.
"""

import numpy as np
import pytest

from dvbcalc import dvb, sections
from dvbcalc.dvb import DualAElement, DualBElement, DvbElement, DvbShape, IterACElement, IterBCElement
from dvbcalc.harness import cli
from dvbcalc.smoothmaps import MatrixMap, SmoothMap

import support

RNG = np.random.default_rng(2611)
SHAPE = DvbShape(3, 2, 4, 2)
ROWS = 5


def _copies(value) -> bool:
    """Whether a record copies value rather than keeping it (the module's sharing rule)."""
    return (type(value) is not np.ndarray or value.base is not None
            or value.dtype != np.float64 or value.flags.writeable)


@pytest.fixture
def built(monkeypatch):
    """Every record built while the test runs, as (record, names of its copied components)."""
    records = []
    init = dvb.Record.__init__

    def spy(self, shape, *values):
        copied = {name for (name, _), value in zip(self._fields, values) if _copies(value)}
        init(self, shape, *values)
        records.append((self, copied))

    monkeypatch.setattr(dvb.Record, "__init__", spy)
    return records


def test_an_algebra_call_copies_few_components(built, tmp_path):
    argv = ["verify", "--demo", "--suite", "duality-solve", "--suite", "warp-pairing",
            "--samples", "10", "--seed", "1", "--quiet", "--json-out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    components = sum(len(record._fields) for record, _ in built)
    copied = sum(len(names) for _, names in built)
    assert len(built) <= 408 and components <= 1632
    # The copies left are column slices, which are views: solve_dual_iso_a's
    # probe, unknown and solution columns (54), and warp-pairing's
    # squarecap draws (24); and duality-solve's np.ones core (6).
    assert copied <= 100


def _frozen(*size):
    x = RNG.uniform(-1.0, 1.0, size)
    x.setflags(write=False)
    return x


_M, _A, _B = _frozen(ROWS, SHAPE.base_dim), _frozen(ROWS, SHAPE.dim_a), _frozen(ROWS, SHAPE.dim_b)
_KAPPA = _frozen(ROWS, SHAPE.dim_c)
_GRID = support.random_grid(RNG, SHAPE)


def _element():
    return DvbElement(SHAPE, _M, _A, _B, _frozen(ROWS, SHAPE.dim_c))


def _squarecap(cap, section):
    return cap(section.at(_M), _M, _KAPPA)


# Each case makes a record, a section value or a pairing from shared
# read-only inputs: no component of a record it builds is copied.
CASES = {
    "add_over_a": lambda: dvb.add_over_a(_element(), _element()),
    "add_over_b": lambda: dvb.add_over_b(_element(), _element()),
    "sub_over_a": lambda: dvb.sub_over_a(_element(), _element()),
    "sub_over_b": lambda: dvb.sub_over_b(_element(), _element()),
    "scale_over_a": lambda: dvb.scale_over_a(2.0, _element()),
    "scale_over_b": lambda: dvb.scale_over_b(2.0, _element()),
    "zero_over_a": lambda: dvb.zero_over_a(SHAPE, _M, _A),
    "zero_over_b": lambda: dvb.zero_over_b(SHAPE, _M, _B),
    "core_embed": lambda: dvb.core_embed(SHAPE, _M, _KAPPA),
    "dual_iso_a": lambda: dvb.dual_iso_a(IterBCElement(SHAPE, _M, _KAPPA, _B, _A)),
    "dual_iso_a_inverse": lambda: dvb.dual_iso_a_inverse(DualAElement(SHAPE, _M, _A, _B, _KAPPA)),
    "dual_iso_b": lambda: dvb.dual_iso_b(IterACElement(SHAPE, _M, _KAPPA, _A, _B)),
    "dual_iso_b_inverse": lambda: dvb.dual_iso_b_inverse(DualBElement(SHAPE, _M, _KAPPA, _A, _B)),
    "pairing_map_a": lambda: dvb.pairing_map_a(DualAElement(SHAPE, _M, _A, _B, _KAPPA)),
    "pairing_map_b": lambda: dvb.pairing_map_b(DualBElement(SHAPE, _M, _KAPPA, _A, _B)),
    "pair_duals_ba": lambda: dvb.pair_duals_ba(
        DualAElement(SHAPE, _M, _A, _B, _KAPPA), DualBElement(SHAPE, _M, _KAPPA, _A, _B)
    ),
    "LinearSection.at": lambda: _GRID.xi.at(_M),
    "SectionAt.__call__ (B)": lambda: _GRID.xi.at(_M)(_B),
    "SectionAt.__call__ (A)": lambda: _GRID.eta.at(_M)(_A),
    "squarecap_b": lambda: _squarecap(sections.squarecap_b, _GRID.xi),
    "squarecap_a": lambda: _squarecap(sections.squarecap_a, _GRID.eta),
}


@pytest.mark.parametrize("make", CASES.values(), ids=CASES)
def test_the_library_freezes_what_it_makes(built, make):
    value = make()
    assert all(not copied for _, copied in built)
    if isinstance(value, sections.SectionAt):  # builds no record; its base is shared by those built from it
        assert value.base.base is None
        assert not value.base.flags.writeable and not value.matrix.flags.writeable
    else:
        assert built


def test_solve_shares_its_repeated_rows(built):
    mb = IterBCElement(SHAPE, _M, _KAPPA, _B, _A)
    built.clear()
    dvb.solve_dual_iso_a(mb)
    probed, copied = built[0]
    assert not copied and probed.batch > ROWS


def _writeable_maps():
    held = RNG.uniform(-1.0, 1.0, (SHAPE.dim_c, SHAPE.dim_b))
    user = MatrixMap(held.shape, lambda p: held)
    constant = MatrixMap.constant(RNG.uniform(-1.0, 1.0, (SHAPE.dim_c, SHAPE.dim_b)))
    return [(user, held), (constant, constant.fn(None))]


@pytest.mark.parametrize("lead", [(), (ROWS,)], ids=["point", "batch"])
def test_a_callers_arrays_keep_their_writeable_flag(lead):
    for matrix_map, held in _writeable_maps():
        m = RNG.uniform(-1.0, 1.0, (*lead, SHAPE.base_dim))
        base_section = SmoothMap.constant([0.5] * SHAPE.dim_a, SHAPE.base_dim)
        value = sections.LinearSectionB(SHAPE, base_section, matrix_map).at(m)
        assert not value.base.flags.writeable and not value.matrix.flags.writeable
        fiber = RNG.uniform(-1.0, 1.0, (*lead, SHAPE.dim_b))
        d = value(fiber)
        assert m.flags.writeable and held.flags.writeable and fiber.flags.writeable
        assert d.m is not m and d.b is not fiber
