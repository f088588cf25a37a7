"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single ``[acceptance] name: PASS/FAIL`` line (visible
under ``pytest -s``) and then asserts, so the suite doubles as a human
readable checklist.
"""

import numpy as np

from dvbcalc.charts import Chart, Connection, TrivialBundle
from dvbcalc.cotangent import (
    bracket_pairing_check,
    connection_pairing_check,
    cotangent_flip,
    diagram_check,
    dnu_sharp,
    flip_relation_residual,
    i_components,
    j_star,
    symplectic_checks,
)
from dvbcalc.dvb import (
    DualAElement,
    DualBElement,
    DvbElement,
    DvbShape,
    IterBCElement,
    add_over_a,
    add_over_b,
    core_difference,
    core_embed,
    dual_iso_a,
    elements_equal,
    pair_a,
    pair_b,
    pair_cstar_a,
    pair_cstar_b,
    pair_duals_ab,
    pair_duals_ba,
    pairing_map_a,
    pairing_map_b,
    solve_dual_iso_a,
    sub_over_a,
    sub_over_b,
    zero_over_b,
)
from dvbcalc.sections import (
    ell_a,
    ell_b,
    squarecap_a,
    squarecap_b,
    swap_grid,
    warp_pairing_check,
)
from dvbcalc.smoothmaps import SmoothMap, jacobian, lie_bracket
from dvbcalc.tangent import covariant_derivative_via_warp, lie_bracket_via_warp

import support


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"acceptance criterion {name} failed{suffix}"


def test_acceptance_duality_solve():
    rng = np.random.default_rng(101)
    shapes = [
        DvbShape(1, 2, 3, 0),
        DvbShape(4, 3, 2, 1),
        DvbShape(2, 4, 1, 2),
        DvbShape(3, 1, 4, 3),
        DvbShape(1, 1, 1, 0),
        DvbShape(4, 4, 4, 2),
        DvbShape(2, 1, 4, 1),
        DvbShape(3, 2, 1, 0),
    ]
    worst = 0.0
    for shape in shapes:
        for _ in range(100):
            mb = IterBCElement(
                shape,
                support.rand_vec(rng, shape.base_dim),
                support.rand_vec(rng, shape.dim_c),
                support.rand_vec(rng, shape.dim_b),
                support.rand_vec(rng, shape.dim_a),
            )
            solved = solve_dual_iso_a(mb)
            closed = dual_iso_a(mb)
            worst = max(
                worst,
                float(np.max(np.abs(solved.a - closed.a))),
                float(np.max(np.abs(solved.beta - closed.beta))),
                float(np.max(np.abs(solved.kappa - closed.kappa))),
            )
    _report("duality-solve", worst <= 1e-12, f"max residual {worst:.3e}")


def test_acceptance_dual_pairing():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        shape = support.random_shape(rng)
        m = support.rand_vec(rng, shape.base_dim)
        kappa = support.rand_vec(rng, shape.dim_c)
        phi = DualAElement(
            shape, m, support.rand_vec(rng, shape.dim_a), support.rand_vec(rng, shape.dim_b), kappa
        )
        psi = DualBElement(
            shape, m, kappa, support.rand_vec(rng, shape.dim_a), support.rand_vec(rng, shape.dim_b)
        )
        diffs = []
        for core in (support.rand_vec(rng, shape.dim_c), support.rand_vec(rng, shape.dim_c)):
            d = DvbElement(shape, m, phi.a, psi.b, core)
            diffs.append(pair_b(psi, d) - pair_a(phi, d))
        worst = max(worst, abs(diffs[0] - diffs[1]))
        value = pair_duals_ba(phi, psi)
        worst = max(worst, abs(value - float(psi.alpha @ phi.a - phi.beta @ psi.b)))
        worst = max(worst, abs(pair_duals_ab(phi, psi) + value))
        worst = max(worst, abs(pair_cstar_b(pairing_map_a(phi), psi) + value))
        worst = max(worst, abs(pair_cstar_a(pairing_map_b(psi), phi) + value))
    _report("dual-pairing", worst <= 1e-12, f"max residual {worst:.3e}")


def test_acceptance_warp_pairing():
    rng = np.random.default_rng(103)
    worst = 0.0
    swap_worst = 0.0
    for _ in range(1000):
        shape = support.random_shape(rng)
        grid = support.random_grid(rng, shape)
        m = support.rand_vec(rng, shape.base_dim)
        kappa = support.rand_vec(rng, shape.dim_c)
        lhs, rhs = warp_pairing_check(grid, m, kappa)
        worst = max(worst, abs(lhs - rhs))
        slhs, srhs = warp_pairing_check(swap_grid(grid), m, kappa)
        swap_worst = max(swap_worst, abs(slhs + lhs), abs(srhs + rhs))
    ok = worst < 1e-9 and swap_worst < 1e-9
    _report("warp-pairing", ok, f"max residual {worst:.3e}, swap {swap_worst:.3e}")


def test_acceptance_bracket():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(200):
        dim = 1 + i % 3
        x_field = support.poly_map(rng, dim, dim)
        y_field = support.poly_map(rng, dim, dim)
        point = support.rand_vec(rng, dim)
        via_warp = lie_bracket_via_warp(x_field, y_field, point)
        direct = lie_bracket(x_field, y_field, point)
        worst = max(worst, float(np.max(np.abs(via_warp - direct))))
    demo = lie_bracket_via_warp(
        SmoothMap.parse(["1", "0"], 2), SmoothMap.parse(["0", "x0"], 2), [0.3, 0.7]
    )
    ok = worst < 1e-9 and demo.tolist() == [0.0, 1.0]
    _report("bracket", ok, f"max residual {worst:.3e}")


def test_acceptance_connection():
    rng = np.random.default_rng(105)
    worst = 0.0
    flat_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        bundle = TrivialBundle(Chart(n), k)
        conn = Connection.from_smooth_map(
            bundle, support.poly_map(rng, n, n * k * k, degree=1)
        )
        z_field = support.poly_map(rng, n, n)
        mu = support.poly_map(rng, n, k)
        m = support.rand_vec(rng, n)
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(
                        covariant_derivative_via_warp(conn, z_field, mu, m)
                        - conn.nabla(z_field, mu, m)
                    )
                )
            ),
        )
        flat = Connection.flat(bundle)
        flat_worst = max(
            flat_worst,
            float(
                np.max(
                    np.abs(
                        covariant_derivative_via_warp(flat, z_field, mu, m)
                        - jacobian(mu, m) @ z_field(m)
                    )
                )
            ),
        )
    ok = worst < 1e-9 and flat_worst < 1e-9
    _report("connection", ok, f"max residual {worst:.3e}, flat {flat_worst:.3e}")


def test_acceptance_cotangent_duality():
    rng = np.random.default_rng(106)
    flip_worst = 0.0
    for i in range(100):
        n = 1 + i % 3
        k = 1 + (i // 3) % 3
        f = support.covector(
            support.rand_vec(rng, n),
            support.rand_vec(rng, k),
            support.rand_vec(rng, n),
            support.rand_vec(rng, k),
        )
        flip_worst = max(
            flip_worst,
            flip_relation_residual(
                f,
                support.rand_vec(rng, n),
                support.rand_vec(rng, k),
                support.rand_vec(rng, k),
            ),
        )
    sympl_worst = 0.0
    for k in (1, 2, 3):
        result = symplectic_checks(TrivialBundle(Chart(2), k), samples=100, rng=rng)
        sympl_worst = max(sympl_worst, result["antisymplectomorphism"], result["liouville"])
    ok = flip_worst < 1e-9 and sympl_worst < 1e-9
    _report(
        "cotangent-duality", ok,
        f"flip {flip_worst:.3e}, symplectic {sympl_worst:.3e}",
    )


def test_acceptance_duality_diagram():
    rng = np.random.default_rng(107)
    triangle_worst = 0.0
    for i in range(100):
        n = 1 + i % 3
        f = support.covector(
            support.rand_vec(rng, n),
            support.rand_vec(rng, n),
            support.rand_vec(rng, n),
            support.rand_vec(rng, n),
        )
        _, _, residual = diagram_check(f)
        triangle_worst = max(triangle_worst, residual)

    pairing_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        x_field = support.poly_map(rng, n, n)
        y_field = support.poly_map(rng, n, n)
        x = support.rand_vec(rng, n)
        p = support.rand_vec(rng, n)
        lhs, rhs = bracket_pairing_check(x_field, y_field, x, p)
        pairing_worst = max(
            pairing_worst,
            abs(lhs - rhs),
            abs(rhs + float(p @ lie_bracket(x_field, y_field, x))),
        )
        k = int(rng.integers(1, 4))
        bundle = TrivialBundle(Chart(n), k)
        conn = Connection.from_smooth_map(
            bundle, support.poly_map(rng, n, n * k * k, degree=1)
        )
        mu = support.poly_map(rng, n, k)
        kappa = support.rand_vec(rng, k)
        clhs, crhs = connection_pairing_check(conn, x_field, mu, x, kappa)
        pairing_worst = max(
            pairing_worst,
            abs(clhs - crhs),
            abs(crhs + float(kappa @ conn.nabla(x_field, mu, x))),
        )

    # The opposite sharp sign must break both the pairing and the triangle.
    x_field = SmoothMap.parse(["1", "0"], 2)
    y_field = SmoothMap.parse(["0", "x0"], 2)
    flipped_lhs, flipped_rhs = bracket_pairing_check(
        x_field, y_field, [0.5, 0.25], [0.3, 0.7], sign=-1.0
    )
    flipped_gap = abs(flipped_lhs - flipped_rhs)
    ones = support.covector([0.1, 0.2], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    wrong = j_star(i_components(dnu_sharp(ones, sign=-1.0)))
    direct = cotangent_flip(ones)
    triangle_gap = max(
        float(np.max(np.abs(getattr(wrong, name) - getattr(direct, name))))
        for name in ("m", "a", "beta", "kappa")
    )
    ok = (
        triangle_worst < 1e-9
        and pairing_worst < 1e-9
        and flipped_gap > 1e-6
        and triangle_gap > 1e-6
    )
    _report(
        "duality-diagram", ok,
        f"triangle {triangle_worst:.3e}, pairings {pairing_worst:.3e}, "
        f"flipped sign breaks by {flipped_gap:.2f}",
    )


def test_acceptance_structural():
    rng = np.random.default_rng(108)
    ok = True
    detail = []

    for _ in range(100):
        shape = support.random_shape(rng)
        m = support.rand_vec(rng, shape.base_dim)

        def ivec(dim):
            return rng.integers(-9, 10, dim).astype(float)

        a1, a2 = ivec(shape.dim_a), ivec(shape.dim_a)
        b1, b2 = ivec(shape.dim_b), ivec(shape.dim_b)
        quads = [
            DvbElement(shape, m, a1, b1, ivec(shape.dim_c)),
            DvbElement(shape, m, a1, b2, ivec(shape.dim_c)),
            DvbElement(shape, m, a2, b1, ivec(shape.dim_c)),
            DvbElement(shape, m, a2, b2, ivec(shape.dim_c)),
        ]
        lhs = add_over_b(add_over_a(quads[0], quads[1]), add_over_a(quads[2], quads[3]))
        rhs = add_over_a(add_over_b(quads[0], quads[2]), add_over_b(quads[1], quads[3]))
        ok = ok and elements_equal(lhs, rhs)

        d1 = DvbElement(shape, m, a1, b1, support.rand_vec(rng, shape.dim_c))
        d2 = DvbElement(shape, m, a1, b1, support.rand_vec(rng, shape.dim_c))
        routes_equal = np.array_equal(sub_over_a(d1, d2).c, sub_over_b(d1, d2).c)
        ok = ok and routes_equal
        ok = ok and np.array_equal(core_difference(d1, d2), sub_over_a(d1, d2).c)
    if not ok:
        detail.append("interchange/core routes")

    cap_worst = 0.0
    for _ in range(25):
        shape = support.random_shape(rng)
        grid = support.random_grid(rng, shape)
        m = support.rand_vec(rng, shape.base_dim)
        kappa = support.rand_vec(rng, shape.dim_c)
        cap_b = squarecap_b(grid.xi, m, kappa)
        cap_a = squarecap_a(grid.eta, m, kappa)
        for _ in range(20):
            psi = DualBElement(
                shape, m, kappa,
                support.rand_vec(rng, shape.dim_a), support.rand_vec(rng, shape.dim_b),
            )
            cap_worst = max(cap_worst, abs(pair_cstar_b(cap_b, psi) - ell_b(grid.xi, psi)))
            phi = DualAElement(
                shape, m,
                support.rand_vec(rng, shape.dim_a), support.rand_vec(rng, shape.dim_b),
                kappa,
            )
            cap_worst = max(cap_worst, abs(pair_cstar_a(cap_a, phi) - ell_a(grid.eta, phi)))
    if cap_worst > 1e-12:
        ok = False
        detail.append(f"squarecap defining property {cap_worst:.3e}")

    for _ in range(25):
        shape = support.random_shape(rng)
        m = support.rand_vec(rng, shape.base_dim)
        psi = DualBElement(
            shape, m,
            support.rand_vec(rng, shape.dim_c),
            support.rand_vec(rng, shape.dim_a),
            support.rand_vec(rng, shape.dim_b),
        )
        for j, basis_core in enumerate(np.eye(shape.dim_c)):
            carried = add_over_a(
                zero_over_b(shape, m, psi.b), core_embed(shape, m, basis_core)
            )
            if pair_b(psi, carried) != psi.kappa[j]:
                ok = False
                detail.append("core projection")
    _report(
        "structural", ok,
        "; ".join(detail) if detail else f"squarecap residual {cap_worst:.3e}",
    )
