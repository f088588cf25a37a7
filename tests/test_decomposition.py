"""Every identity holds in every decomposition.

A change of decomposition (a, b, c) -> (a, b, c + sigma(a, b)), with sigma
a bilinear map A x B -> C, acts on each record type and on linear sections
(``support.change_decomposition``).  The pairings, the pairing of the two
duals, warps and squarecap pairings are intrinsic, so they must not change,
and ``dual_iso_a`` must still satisfy its defining identity.  A sign slip
made in one fixed decomposition, in both a formula and its reference, is
caught here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc.dvb import (
    DualAElement,
    DualBElement,
    DvbElement,
    DvbShape,
    IterACElement,
    IterBCElement,
    dual_iso_a,
    pair_a,
    pair_b,
    pair_cstar_a,
    pair_cstar_b,
    pair_duals_ba,
)
from dvbcalc.harness.problem import DEFAULT_SHAPES
from dvbcalc.sections import (
    Grid,
    squarecap_a,
    squarecap_b,
    squarecap_pairing,
    warp,
    warp_pairing_check,
)

import support
from support import change_decomposition

TOL = 1e-9

coordinate = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def decomposed(draw):
    """A shape, a point m, sigma, and one vector or matrix of each role over m."""
    shape = DvbShape(*(draw(st.integers(1, 3)) for _ in range(3)), draw(st.integers(0, 2)))

    def array(*size):
        values = draw(st.lists(coordinate, min_size=int(np.prod(size)), max_size=int(np.prod(size))))
        return np.array(values, dtype=float).reshape(size)

    da, db, dc = shape.dim_a, shape.dim_b, shape.dim_c
    names = {
        "m": (shape.base_dim,), "sigma": (dc, da, db),
        "a": (da,), "b": (db,), "c": (dc,), "kappa": (dc,),
        "alpha": (da,), "beta": (db,), "alpha2": (da,), "beta2": (db,),
        "lam": (dc, db), "mu": (dc, da),
    }
    return shape, {name: array(*size) for name, size in names.items()}


def _records(shape, v):
    """Records over v's m and kappa whose outlines let every pairing meet."""
    m, kappa = v["m"], v["kappa"]
    return (
        DvbElement(shape, m, v["a"], v["b"], v["c"]),
        DualAElement(shape, m, v["a"], v["beta"], kappa),
        DualBElement(shape, m, kappa, v["alpha"], v["b"]),
        IterBCElement(shape, m, kappa, v["beta2"], v["a"]),
        IterACElement(shape, m, kappa, v["alpha2"], v["b"]),
    )


def _invariants(d, phi, psi, mb, ma):
    return np.array([
        pair_a(phi, d),
        pair_b(psi, d),
        pair_cstar_b(mb, psi),
        pair_cstar_a(ma, phi),
        pair_duals_ba(phi, psi),
        squarecap_pairing(mb, ma),
    ])


@settings(max_examples=60, deadline=None)
@given(decomposed())
def test_pairings_and_the_dual_isomorphism_are_intrinsic(case):
    shape, v = case
    records = _records(shape, v)
    changed = [change_decomposition(v["sigma"], x) for x in records]
    assert np.allclose(_invariants(*changed), _invariants(*records), rtol=0, atol=TOL)

    d, _, psi, mb, _ = changed
    # d's a side is mb's, so the defining identity of dual_iso_a applies.
    image = dual_iso_a(mb)
    assert pair_cstar_b(mb, psi) + pair_a(image, d) - pair_b(psi, d) == pytest.approx(0.0, abs=TOL)
    expected = change_decomposition(v["sigma"], dual_iso_a(records[3]))
    assert np.allclose(image.beta, expected.beta, rtol=0, atol=TOL)
    assert np.array_equal(image.a, expected.a) and np.array_equal(image.kappa, expected.kappa)


@settings(max_examples=60, deadline=None)
@given(decomposed())
def test_warp_and_squarecaps_are_intrinsic(case):
    shape, v = case
    m, kappa, sigma = v["m"], v["kappa"], v["sigma"]
    grid = support.constant_grid(shape, v["a"], v["b"], v["lam"], v["mu"]).at(m)
    moved = Grid(change_decomposition(sigma, grid.xi), change_decomposition(sigma, grid.eta))

    assert np.allclose(warp(moved, m), warp(grid, m), rtol=0, atol=TOL)
    assert np.allclose(warp_pairing_check(moved, m, kappa), warp_pairing_check(grid, m, kappa),
                       rtol=0, atol=TOL)
    # A section's squarecap moves as an element of its iterated dual.
    for cap, section in ((squarecap_b, "xi"), (squarecap_a, "eta")):
        got = cap(getattr(moved, section), m, kappa)
        want = change_decomposition(sigma, cap(getattr(grid, section), m, kappa))
        for name, _ in got._fields:
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=0, atol=TOL)


def test_a_wrong_action_on_the_dual_over_a_is_caught():
    rng = np.random.default_rng(20261018)
    for shape in DEFAULT_SHAPES:
        v = {
            "m": support.rand_vec(rng, shape.base_dim),
            "sigma": support.rand_vec(rng, (shape.dim_c, shape.dim_a, shape.dim_b)),
            **{name: support.rand_vec(rng, shape.dim_a) for name in ("a", "alpha", "alpha2")},
            **{name: support.rand_vec(rng, shape.dim_b) for name in ("b", "beta", "beta2")},
            **{name: support.rand_vec(rng, shape.dim_c) for name in ("c", "kappa")},
        }
        records = _records(shape, v)
        changed = [change_decomposition(v["sigma"], x) for x in records]
        phi = records[1]
        # beta's shift with the wrong sign.
        changed[1] = DualAElement(
            shape, phi.m, phi.a, phi.beta + support.sigma_a_dual(v["sigma"], phi.a, phi.kappa), phi.kappa
        )
        moved = _invariants(*changed) - _invariants(*records)
        shift = 2 * float(v["kappa"] @ support.sigma_of(v["sigma"], v["a"], v["b"]))
        assert abs(shift) > 1e-3
        # pair_a, pair_cstar_a and pair_duals_ba see phi; the others do not.
        assert moved == pytest.approx([shift, 0.0, 0.0, shift, -shift, 0.0], abs=TOL)
