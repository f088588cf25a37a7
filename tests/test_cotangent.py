import numpy as np
import pytest

from dvbcalc import jets
from dvbcalc.charts import Chart, Connection, TrivialBundle
from dvbcalc.cotangent import (
    DNU_SHARP_SIGN,
    bracket_pairing,
    bracket_pairing_check,
    canonical_one_form,
    canonical_two_form,
    complete_lift_squarecap,
    connection_pairing,
    connection_pairing_check,
    cotangent_flip,
    diagram_check,
    dnu_sharp,
    dual_horizontal_field,
    ell_differential,
    flip_coords,
    flip_relation_residual,
    i_components,
    j_star,
    pairing_potential,
    squarecap_complete_lift,
    squarecap_horizontal,
    squarecap_tangent_lift,
    symplectic_checks,
    tangent_pairing,
    tangent_pairing_via_sections,
)
from dvbcalc.dvb import (
    DvbElement,
    DvbShape,
    IncompatibleElements,
    IterBCElement,
    dual_iso_a,
    elements_equal,
    pair_a,
)
from dvbcalc.expressions import Add, Num
from dvbcalc.sections import squarecap_a, squarecap_b, squarecap_pairing, warp_pairing_check
from dvbcalc.smoothmaps import (
    DimensionMismatch,
    SmoothMap,
    jacobian,
    lie_bracket,
)
from dvbcalc.tangent import connection_grid, double_tangent_grid, tangent_bundle_shape

import support

RNG = np.random.default_rng(20240819)


def _random_cotangent(rng, n, k):
    return support.covector(
        support.rand_vec(rng, n),
        support.rand_vec(rng, k),
        support.rand_vec(rng, n),
        support.rand_vec(rng, k),
    )


def _section_through(rng, n, k, x, value):
    base = support.poly_map(rng, n, k)
    offset = value - base(x)
    return SmoothMap(n, tuple(Add(c, Num(float(o))) for c, o in zip(base.components, offset)))


def _random_connection(rng, bundle):
    n, k = bundle.chart.dim, bundle.fiber_dim
    return Connection.from_smooth_map(bundle, support.poly_map(rng, n, n * k * k, degree=1))


def test_flip_formula():
    f = support.covector([1.0, 2.0], [3.0], [4.0, 5.0], [6.0])
    g = cotangent_flip(f)
    assert g.m.tolist() == [1.0, 2.0]
    assert g.a.tolist() == [6.0]
    assert g.beta.tolist() == [-4.0, -5.0]
    assert g.kappa.tolist() == [3.0]


def test_flip_coords_matches_point_flip():
    for _ in range(5):
        n, k = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
        f = _random_cotangent(RNG, n, k)
        flat = list(f.m) + list(f.a) + list(f.beta) + list(f.kappa)
        g = cotangent_flip(f)
        expected = list(g.m) + list(g.a) + list(g.beta) + list(g.kappa)
        assert flip_coords(flat, n, k) == expected


def test_flip_relation_random():
    for _ in range(100):
        n, k = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
        f = _random_cotangent(RNG, n, k)
        residual = flip_relation_residual(
            f,
            support.rand_vec(RNG, n),
            support.rand_vec(RNG, k),
            support.rand_vec(RNG, k),
        )
        assert residual <= 1e-12


def test_tangent_pairing_frozen_example():
    xc = support.tangent_point([0.5], [2.0], [1.0], [3.0])
    xi = support.tangent_point([0.5], [5.0], [1.0], [7.0])
    assert tangent_pairing(xc, xi) == 29.0


def test_tangent_pairing_requires_shared_base_tangent():
    xc = support.tangent_point([0.5], [2.0], [1.0], [3.0])
    with pytest.raises(IncompatibleElements):
        tangent_pairing(xc, support.tangent_point([0.6], [5.0], [1.0], [7.0]))
    with pytest.raises(IncompatibleElements):
        tangent_pairing(xc, support.tangent_point([0.5], [5.0], [2.0], [7.0]))
    with pytest.raises(IncompatibleElements):
        tangent_pairing(xc, support.tangent_point([0.5], [5.0, 1.0], [1.0], [7.0, 1.0]))


def test_batched_tangent_pairing_equals_its_rows():
    # Exact on integer-valued samples; otherwise the batched sum may round
    # in another order, as for the dvb pairings.
    n, k, rows = 2, 3, 6
    integers = lambda size: RNG.integers(-8, 9, size).astype(float)
    floats = lambda size: RNG.uniform(-1.0, 1.0, size)
    for draw, exact in ((integers, True), (floats, False)):
        x, x_dot = draw(n), draw(n)
        shape = DvbShape(k, n, k, n)
        xc = DvbElement(shape, x, draw((rows, k)), x_dot, draw((rows, k)))
        xi = DvbElement(shape, x, draw((rows, k)), x_dot, draw((rows, k)))
        one = support.tangent_point(x, xc.a[0], x_dot, xc.c[0])
        batched, broadcast = tangent_pairing(xc, xi), tangent_pairing(one, xi)
        assert batched.shape == broadcast.shape == (rows,)
        for j in range(rows):
            row_xc = support.tangent_point(x, xc.a[j], x_dot, xc.c[j])
            row_xi = support.tangent_point(x, xi.a[j], x_dot, xi.c[j])
            # A single element pairs with every row of a batch.
            for value, expected in (
                (batched[j], tangent_pairing(row_xc, row_xi)),
                (broadcast[j], tangent_pairing(one, row_xi)),
            ):
                assert type(expected) is float
                if exact:
                    assert value == expected
                else:
                    assert abs(value - expected) <= 1e-15 * max(1.0, abs(expected))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cotangent_flip_is_the_iterated_dual_isomorphism(k):
    # Mackenzie-Xu's flip T*(A*) -> T*(A) is dual_iso_a at the shape of T(A):
    # (x, psi; chi, Y) read as (m; kappa=psi, beta=chi, a=Y) in the iterated dual.
    for _ in range(5):
        f = _random_cotangent(RNG, 2, k)
        assert f.shape == tangent_bundle_shape(TrivialBundle(Chart(2), k))
        iso = dual_iso_a(IterBCElement(f.shape, f.m, f.a, f.beta, f.kappa))
        assert elements_equal(cotangent_flip(f), iso)


def test_tangent_pairing_via_sections_is_extension_independent():
    n, k = 2, 2
    for _ in range(5):
        x = support.rand_vec(RNG, n)
        x_dot = support.rand_vec(RNG, n)
        xc = support.tangent_point(x, support.rand_vec(RNG, k), x_dot, support.rand_vec(RNG, k))
        xi = support.tangent_point(x, support.rand_vec(RNG, k), x_dot, support.rand_vec(RNG, k))
        direct = tangent_pairing(xc, xi)
        for _ in range(3):
            mu = _section_through(RNG, n, k, x, xi.a)
            phi = _section_through(RNG, n, k, x, xc.a)
            routed = tangent_pairing_via_sections(xc, xi, mu, phi)
            assert abs(routed - direct) <= 1e-10 * max(1.0, abs(direct))


def test_tangent_pairing_via_sections_checks_the_points():
    x = np.array([0.1, 0.2])
    xc = support.tangent_point(x, [1.0, 1.0], [0.5, 0.5], [0.0, 0.0])
    xi = support.tangent_point(x, [2.0, 2.0], [0.5, 0.5], [0.0, 0.0])
    good_mu = _section_through(RNG, 2, 2, x, xi.a)
    bad = SmoothMap.constant([9.0, 9.0], 2)
    with pytest.raises(ValueError):
        tangent_pairing_via_sections(xc, xi, bad, good_mu)
    with pytest.raises(ValueError):
        tangent_pairing_via_sections(xc, xi, good_mu, bad)


def test_tangent_pairing_via_sections_rejects_a_section_of_another_rank():
    # A rank-1 section whose value equals every entry of a rank-2 fiber point
    # must not pass the pass-through check by broadcasting.
    x = np.array([0.1, 0.2])
    xc = support.tangent_point(x, [1.0, 1.0], [0.5, 0.5], [0.0, 0.0])
    xi = support.tangent_point(x, [2.0, 2.0], [0.5, 0.5], [0.0, 0.0])
    good_phi = _section_through(RNG, 2, 2, x, xc.a)
    good_mu = _section_through(RNG, 2, 2, x, xi.a)
    with pytest.raises(DimensionMismatch):
        tangent_pairing_via_sections(xc, xi, SmoothMap.constant([2.0], 2), good_phi)
    with pytest.raises(DimensionMismatch):
        tangent_pairing_via_sections(xc, xi, good_mu, SmoothMap.constant([1.0], 2))


def test_i_components_and_j_star_read_the_functional():
    xc = support.tangent_point([0.1, 0.2], [1.0, 2.0], [0.3, 0.4], [5.0, 6.0])
    psi = i_components(xc)
    assert np.array_equal(psi.alpha, xc.c)
    assert np.array_equal(psi.kappa, xc.a)
    cov = j_star(psi)
    assert np.array_equal(cov.m, xc.m)
    assert np.array_equal(cov.a, xc.b)
    assert np.array_equal(cov.beta, xc.c)
    assert np.array_equal(cov.kappa, xc.a)


def test_dnu_sharp_pinned_sign():
    assert DNU_SHARP_SIGN == 1.0
    f = support.covector([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0])
    sharp = dnu_sharp(f)
    assert sharp.b.tolist() == [7.0, 8.0]
    assert sharp.c.tolist() == [-5.0, -6.0]
    flipped = dnu_sharp(f, sign=-1.0)
    assert flipped.b.tolist() == [-7.0, -8.0]
    assert flipped.c.tolist() == [5.0, 6.0]


def test_dnu_sharp_inverts_the_two_form():
    # d nu(w, sharp(sigma)) recovers sigma(w) for every direction w.
    for _ in range(10):
        d = int(RNG.integers(1, 4))
        f = _random_cotangent(RNG, d, d)
        sharp = dnu_sharp(f)
        point = list(f.m) + list(f.a)
        sharp_dir = list(sharp.b) + list(sharp.c)
        w = support.rand_vec(RNG, 2 * d)
        value = canonical_two_form(point, list(w), sharp_dir)
        expected = float(f.beta @ w[:d] + f.kappa @ w[d:])
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_squarecap_tangent_lift_frozen_example():
    y_field = SmoothMap.parse(["0", "x0"], 2)
    cap = squarecap_tangent_lift(y_field, [2.0, 3.0], [5.0, 7.0])
    assert cap.m.tolist() == [2.0, 3.0]
    assert cap.a.tolist() == [5.0, 7.0]
    assert cap.beta.tolist() == [7.0, 0.0]
    assert cap.kappa.tolist() == [0.0, 2.0]
    with pytest.raises(DimensionMismatch):
        squarecap_tangent_lift(SmoothMap.parse(["x0"], 2), [1.0, 1.0], [1.0, 1.0])


def test_squarecap_tangent_lift_constant_field():
    y_field = SmoothMap.constant([2.0, -1.0], 2)
    cap = squarecap_tangent_lift(y_field, [0.3, 0.4], [1.0, 2.0])
    assert cap.beta.tolist() == [0.0, 0.0]
    assert cap.kappa.tolist() == [2.0, -1.0]


def test_squarecap_complete_lift_closed_form():
    for _ in range(10):
        n = int(RNG.integers(1, 4))
        x_field = support.poly_map(RNG, n, n)
        x = support.rand_vec(RNG, n)
        p = support.rand_vec(RNG, n)
        cap = squarecap_complete_lift(x_field, x, p)
        assert np.allclose(cap.b, -x_field(x), rtol=0.0, atol=1e-13)
        assert np.allclose(cap.c, jacobian(x_field, x).T @ p, rtol=0.0, atol=1e-12)
    constant = SmoothMap.constant([1.0, -2.0], 2)
    cap = squarecap_complete_lift(constant, [0.1, 0.2], [0.3, 0.4])
    assert cap.b.tolist() == [-1.0, 2.0]
    assert cap.c.tolist() == [0.0, 0.0]


def test_bracket_pairing_identity():
    for _ in range(20):
        n = int(RNG.integers(1, 4))
        x_field = support.poly_map(RNG, n, n)
        y_field = support.poly_map(RNG, n, n)
        x = support.rand_vec(RNG, n)
        p = support.rand_vec(RNG, n)
        lhs, rhs = bracket_pairing_check(x_field, y_field, x, p)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert abs(rhs + float(p @ lie_bracket(x_field, y_field, x))) <= 1e-12 * scale


def test_bracket_pairing_flipped_sign_fails():
    x_field = SmoothMap.parse(["1", "0"], 2)
    y_field = SmoothMap.parse(["0", "x0"], 2)
    x = [0.5, 0.25]
    p = [0.3, 0.7]
    lhs, rhs = bracket_pairing_check(x_field, y_field, x, p)
    assert lhs == pytest.approx(-0.7, abs=1e-14)
    assert rhs == pytest.approx(-0.7, abs=1e-14)
    flipped_lhs, flipped_rhs = bracket_pairing_check(x_field, y_field, x, p, sign=-1.0)
    assert flipped_rhs == pytest.approx(rhs, abs=1e-14)
    assert abs(flipped_lhs - flipped_rhs) == pytest.approx(1.4, abs=1e-12)


def test_bracket_pairing_of_pieces_is_the_check_bitwise():
    for _ in range(10):
        n = int(RNG.integers(1, 4))
        x_field = support.poly_map(RNG, n, n)
        y_field = support.poly_map(RNG, n, n)
        x = support.rand_vec(RNG, n)
        p = support.rand_vec(RNG, n)
        dell_x = ell_differential(x_field, x, p)
        dell_y = ell_differential(y_field, x, p)
        bracket = lie_bracket(x_field, y_field, x)
        for sign in (None, -1.0):
            assert bracket_pairing(dell_x, dell_y, bracket, p, sign) == bracket_pairing_check(
                x_field, y_field, x, p, sign
            )
        cap = complete_lift_squarecap(dell_x)
        assert elements_equal(cap, squarecap_complete_lift(x_field, x, p))


def test_bracket_pairing_pieces_must_lie_over_the_point():
    x_field = support.poly_map(RNG, 2, 2)
    y_field = support.poly_map(RNG, 2, 2)
    x, other_x = np.array([0.5, 0.25]), np.array([0.5, -0.25])
    p, other_p = np.array([0.3, 0.7]), np.array([0.3, -0.7])
    dell_x = ell_differential(x_field, x, p)
    dell_y = ell_differential(y_field, x, p)
    bracket = lie_bracket(x_field, y_field, x)
    with pytest.raises(IncompatibleElements, match="base point"):
        bracket_pairing(ell_differential(x_field, other_x, p), dell_y, bracket, p)
    with pytest.raises(IncompatibleElements, match="a side"):
        bracket_pairing(dell_x, ell_differential(y_field, x, other_p), bracket, other_p)
    with pytest.raises(IncompatibleElements, match="fiber point"):
        bracket_pairing(dell_x, dell_y, bracket, other_p)


def test_connection_pairing_of_pieces_is_the_check_bitwise():
    bundle = TrivialBundle(Chart(2), 2)
    conn = _random_connection(RNG, bundle)
    x_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 2)
    for _ in range(5):
        x = support.rand_vec(RNG, 2)
        kappa = support.rand_vec(RNG, 2)
        pieces = (
            ell_differential(mu, x, kappa),
            squarecap_horizontal(conn, x_field, x, kappa),
            conn.nabla(x_field, mu, x),
        )
        assert connection_pairing(*pieces, kappa) == connection_pairing_check(
            conn, x_field, mu, x, kappa
        )


def test_connection_pairing_pieces_must_lie_over_the_point():
    bundle = TrivialBundle(Chart(2), 2)
    conn = _random_connection(RNG, bundle)
    x_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 2)
    x, other_x = np.array([0.5, 0.25]), np.array([0.5, -0.25])
    kappa, other_kappa = np.array([0.3, 0.7]), np.array([0.3, -0.7])
    dell_mu = ell_differential(mu, x, kappa)
    cap_h = squarecap_horizontal(conn, x_field, x, kappa)
    nabla = conn.nabla(x_field, mu, x)
    with pytest.raises(IncompatibleElements, match="base point"):
        connection_pairing(dell_mu, squarecap_horizontal(conn, x_field, other_x, kappa), nabla, kappa)
    with pytest.raises(IncompatibleElements, match="a side"):
        connection_pairing(ell_differential(mu, x, other_kappa), cap_h, nabla, other_kappa)
    with pytest.raises(IncompatibleElements, match="fiber point"):
        connection_pairing(dell_mu, cap_h, nabla, other_kappa)


def test_diagram_commutes():
    for _ in range(20):
        n = int(RNG.integers(1, 4))
        f = _random_cotangent(RNG, n, n)
        composite, direct, residual = diagram_check(f)
        assert residual <= 1e-12
        assert np.array_equal(direct.kappa, f.a)
    with pytest.raises(DimensionMismatch):
        diagram_check(support.covector([1.0, 2.0], [3.0], [4.0, 5.0], [6.0]))


def test_diagram_fails_with_opposite_sharp_sign():
    f = support.covector([0.1, 0.2], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    wrong = j_star(i_components(dnu_sharp(f, sign=-1.0)))
    direct = cotangent_flip(f)
    defect = max(
        float(np.max(np.abs(getattr(wrong, name) - getattr(direct, name))))
        for name in ("m", "a", "beta", "kappa")
    )
    assert defect >= 1.0


def test_canonical_two_form_block_structure():
    d = 3
    point = support.rand_vec(RNG, 2 * d)
    u = support.rand_vec(RNG, 2 * d)
    v = support.rand_vec(RNG, 2 * d)
    value = canonical_two_form(point, u, v)
    expected = float(u[d:] @ v[:d] - v[d:] @ u[:d])
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
    assert canonical_two_form(point, v, u) == pytest.approx(-value, abs=1e-12)
    other_point = support.rand_vec(RNG, 2 * d)
    assert canonical_two_form(other_point, u, v) == pytest.approx(value, abs=1e-12)


def test_canonical_one_form_validation():
    with pytest.raises(DimensionMismatch):
        canonical_one_form([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_pairing_potential_reads_the_pairing():
    n, k = 2, 3
    x = support.rand_vec(RNG, n)
    psi = support.rand_vec(RNG, k)
    chi = support.rand_vec(RNG, n)
    y = support.rand_vec(RNG, k)
    vals = list(x) + list(psi) + list(chi) + list(y)
    assert pairing_potential(vals, n, k) == pytest.approx(float(psi @ y), abs=1e-14)
    zero_section = list(x) + [0.0] * k + list(chi) + list(y)
    assert pairing_potential(zero_section, n, k) == 0.0


def test_symplectic_checks_across_fiber_dims():
    for k in (1, 2, 3):
        bundle = TrivialBundle(Chart(2), k)
        result = symplectic_checks(bundle, samples=25, rng=np.random.default_rng(7))
        assert result["samples"] == 25
        assert result["antisymplectomorphism"] <= 1e-12
        assert result["liouville"] <= 1e-12


def test_ell_differential_formula_and_validation():
    mu = support.poly_map(RNG, 2, 3)
    x = support.rand_vec(RNG, 2)
    kappa = support.rand_vec(RNG, 3)
    cap = ell_differential(mu, x, kappa)
    assert np.allclose(cap.beta, jacobian(mu, x).T @ kappa, rtol=0.0, atol=1e-12)
    assert np.allclose(cap.kappa, mu(x), rtol=0.0, atol=1e-13)
    with pytest.raises(DimensionMismatch):
        ell_differential(mu, [1.0, 2.0, 3.0], kappa)


def test_connection_pairing_identity_and_flat_case():
    bundle = TrivialBundle(Chart(2), 2)
    conn = _random_connection(RNG, bundle)
    x_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 2)
    for _ in range(10):
        x = support.rand_vec(RNG, 2)
        kappa = support.rand_vec(RNG, 2)
        lhs, rhs = connection_pairing_check(conn, x_field, mu, x, kappa)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert abs(rhs + float(kappa @ conn.nabla(x_field, mu, x))) <= 1e-15 * scale
    flat = Connection.flat(bundle)
    x = support.rand_vec(RNG, 2)
    kappa = support.rand_vec(RNG, 2)
    lhs, rhs = connection_pairing_check(flat, x_field, mu, x, kappa)
    expected = -float(kappa @ (jacobian(mu, x) @ x_field(x)))
    assert abs(rhs - expected) <= 1e-12 * max(1.0, abs(expected))
    assert abs(lhs - expected) <= 1e-12 * max(1.0, abs(expected))


def test_dual_horizontal_field_momentum_characterization():
    # The dual horizontal lift differentiates ell_mu into ell of nabla_X mu.
    bundle = TrivialBundle(Chart(2), 2)
    conn = _random_connection(RNG, bundle)
    x_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 2)
    lift = dual_horizontal_field(conn, x_field)
    for _ in range(5):
        x = support.rand_vec(RNG, 2)
        kappa = support.rand_vec(RNG, 2)
        at_point = lift(x, kappa)
        direction = list(at_point.b) + list(at_point.c)

        def ell_mu(vals):
            mus = mu.eval_generic(list(vals[:2]))
            return sum(vals[2 + i] * mus[i] for i in range(2))

        derivative = jets.jet_directional(ell_mu, list(x) + list(kappa), direction)
        expected = float(kappa @ conn.nabla(x_field, mu, x))
        assert abs(derivative - expected) <= 1e-12 * max(1.0, abs(expected))


def test_squarecap_horizontal_formula():
    bundle = TrivialBundle(Chart(2), 2)
    conn = _random_connection(RNG, bundle)
    x_field = support.poly_map(RNG, 2, 2)
    x = support.rand_vec(RNG, 2)
    kappa = support.rand_vec(RNG, 2)
    cap = squarecap_horizontal(conn, x_field, x, kappa)
    omega = conn.omega(x_field, x)
    assert np.array_equal(cap.b, -x_field(x))
    assert np.allclose(cap.c, -(omega.T @ kappa), rtol=0.0, atol=1e-13)


def test_bracket_sections_match_decomposed_grid():
    x_field = support.poly_map(RNG, 2, 2)
    y_field = support.poly_map(RNG, 2, 2)
    grid = double_tangent_grid(x_field, y_field)
    for _ in range(5):
        x = support.rand_vec(RNG, 2)
        p = support.rand_vec(RNG, 2)
        cap_b = squarecap_b(grid.xi, x, p)
        cap_a = squarecap_a(grid.eta, x, p)
        cap_y = squarecap_tangent_lift(y_field, x, p)
        cap_x = squarecap_complete_lift(x_field, x, p)
        assert np.allclose(cap_b.beta, cap_y.beta, rtol=0.0, atol=1e-12)
        assert np.allclose(cap_b.a, cap_y.kappa, rtol=0.0, atol=1e-13)
        assert np.allclose(cap_a.b, -cap_x.b, rtol=0.0, atol=1e-13)
        assert np.allclose(cap_a.alpha, cap_x.c, rtol=0.0, atol=1e-12)
        lhs, rhs = bracket_pairing_check(x_field, y_field, x, p)
        paired = squarecap_pairing(cap_b, cap_a)
        scale = max(1.0, abs(lhs), abs(paired))
        assert abs(paired - lhs) <= 1e-12 * scale
        glhs, grhs = warp_pairing_check(grid, x, p)
        assert abs(glhs - lhs) <= 1e-12 * scale
        assert abs(grhs - rhs) <= 1e-12 * scale


def test_connection_sections_match_decomposed_grid():
    bundle = TrivialBundle(Chart(2), 2)
    conn = _random_connection(RNG, bundle)
    x_field = support.poly_map(RNG, 2, 2)
    mu = support.poly_map(RNG, 2, 2)
    grid = connection_grid(conn, x_field, mu)
    for _ in range(5):
        x = support.rand_vec(RNG, 2)
        kappa = support.rand_vec(RNG, 2)
        cap_h = squarecap_horizontal(conn, x_field, x, kappa)
        cap_a = squarecap_a(grid.eta, x, kappa)
        assert np.allclose(cap_a.alpha, cap_h.c, rtol=0.0, atol=1e-12)
        assert np.allclose(cap_a.b, -cap_h.b, rtol=0.0, atol=1e-13)
        lhs, rhs = connection_pairing_check(conn, x_field, mu, x, kappa)
        glhs, grhs = warp_pairing_check(grid, x, kappa)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(glhs - lhs) <= 1e-12 * scale
        assert abs(grhs - rhs) <= 1e-12 * scale


def test_cotangent_pairing_requires_matching_point():
    cov = support.covector([0.0], [1.0], [2.0], [3.0])
    tan = support.tangent_point([0.0], [5.0], [1.0], [1.0])
    with pytest.raises(IncompatibleElements):
        pair_a(cov, tan)
