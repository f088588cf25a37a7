"""The eight verification suites run by the harness.

Each suite draws its own deterministic random stream (seeded from the run
seed and the suite's fixed index, so a subset run reproduces the same
numbers), samples the identities it is responsible for, and reports one
CheckResult per identity with the maximum absolute residual observed.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

from .. import cotangent as ct
from .. import dvb, sections, tangent
from ..charts import Chart, Connection, TrivialBundle
from ..expressions import Add, Mul, Num, Var
from ..jets import DomainError, jet_directional
from ..smoothmaps import MatrixMap, SmoothMap, directional_derivative, jacobian, lie_bracket
from .problem import ProblemSpec
from .report import CheckResult


# -- random data ---------------------------------------------------------------

def _rand_vec(rng, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n)


def _poly_expr(rng, dim: int, degree: int = 2):
    expr = Num(float(rng.uniform(-1.0, 1.0)))
    if dim == 0:
        return expr
    for i in range(dim):
        expr = Add(expr, Mul(Num(float(rng.uniform(-1.0, 1.0))), Var(i)))
    if degree >= 2:
        for _ in range(dim):
            i, j = rng.integers(0, dim, 2)
            term = Mul(Mul(Num(float(rng.uniform(-1.0, 1.0))), Var(int(i))), Var(int(j)))
            expr = Add(expr, term)
    return expr


def _poly_map(rng, dim: int, codim: int, degree: int = 2) -> SmoothMap:
    return SmoothMap(dim, tuple(_poly_expr(rng, dim, degree) for _ in range(codim)))


def _matrix_map(rng, dim: int, rows: int, cols: int) -> MatrixMap:
    return MatrixMap.from_smooth_map(_poly_map(rng, dim, rows * cols, degree=1), rows, cols)


def _random_shape(rng, max_dim: int = 4, max_base: int = 3) -> dvb.DvbShape:
    dims = rng.integers(1, max_dim + 1, 3)
    base = int(rng.integers(0, max_base + 1))
    return dvb.DvbShape(int(dims[0]), int(dims[1]), int(dims[2]), base)


def _random_grid(rng, shape: dvb.DvbShape) -> sections.Grid:
    return sections.Grid(
        xi=sections.LinearSectionB(
            shape,
            _poly_map(rng, shape.base_dim, shape.dim_a, degree=1),
            _matrix_map(rng, shape.base_dim, shape.dim_c, shape.dim_b),
        ),
        eta=sections.LinearSectionA(
            shape,
            _poly_map(rng, shape.base_dim, shape.dim_b, degree=1),
            _matrix_map(rng, shape.base_dim, shape.dim_c, shape.dim_a),
        ),
    )


def _random_connection(rng, chart: Chart, fiber_dim: int) -> Connection:
    bundle = TrivialBundle(chart, fiber_dim)
    n, k = chart.dim, fiber_dim
    coeff_map = _poly_map(rng, n, n * k * k, degree=1)
    return Connection.from_smooth_map(bundle, coeff_map)


class _Residuals:
    def __init__(self):
        self.max = 0.0
        self.count = 0
        self.finite = True

    def add(self, value: float) -> None:
        value = abs(float(value))
        if math.isfinite(value):
            self.max = max(self.max, value)
        else:
            self.finite = False
        self.count += 1

    def result(self, name: str, suite: str, description: str, tol: float, **details) -> CheckResult:
        # A non-finite residual fails the check and reads as the largest
        # finite float, because JSON has no NaN or infinity.
        return CheckResult(
            name=name,
            suite=suite,
            description=description,
            samples=self.count,
            max_residual=self.max if self.finite else sys.float_info.max,
            passed=self.finite and self.max <= tol,
            details=details.get("details", {}),
        )


# -- suite: duality-solve --------------------------------------------------------

def _run_duality_solve(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "duality-solve"
    shapes = spec.dvb_shapes
    solve = _Residuals()
    defining = _Residuals()
    round_trip = _Residuals()
    second_iso = _Residuals()
    pairing = _Residuals()

    for i in range(samples):
        shape = shapes[i % len(shapes)]
        m = _rand_vec(rng, shape.base_dim)
        mb = dvb.IterBCElement(
            shape, m, _rand_vec(rng, shape.dim_c), _rand_vec(rng, shape.dim_b), _rand_vec(rng, shape.dim_a)
        )
        phi = dvb.dual_iso_a(mb)
        solved = dvb.solve_dual_iso_a(mb)
        solve.add(
            max(
                np.max(np.abs(solved.a - phi.a), initial=0.0),
                np.max(np.abs(solved.beta - phi.beta), initial=0.0),
                np.max(np.abs(solved.kappa - phi.kappa), initial=0.0),
            )
        )

        psi = dvb.DualBElement(shape, m, mb.kappa, _rand_vec(rng, shape.dim_a), _rand_vec(rng, shape.dim_b))
        d = dvb.DvbElement(shape, m, phi.a, psi.b, _rand_vec(rng, shape.dim_c))
        defining.add(
            dvb.pair_cstar_b(mb, psi) + dvb.pair_a(phi, d) - dvb.pair_b(psi, d)
        )

        back = dvb.dual_iso_a_inverse(phi)
        round_trip.add(0.0 if dvb.elements_equal(back, mb) else 1.0)
        ma = dvb.IterACElement(shape, m, mb.kappa, _rand_vec(rng, shape.dim_a), _rand_vec(rng, shape.dim_b))
        round_trip.add(
            0.0 if dvb.elements_equal(dvb.dual_iso_b_inverse(dvb.dual_iso_b(ma)), ma) else 1.0
        )

        second_iso.add(
            dvb.pair_cstar_b(mb, dvb.dual_iso_b(ma)) - dvb.pair_cstar_a(ma, phi)
        )

        phi2 = dvb.DualAElement(shape, m, _rand_vec(rng, shape.dim_a), _rand_vec(rng, shape.dim_b), mb.kappa)
        psi2 = dvb.DualBElement(shape, m, mb.kappa, _rand_vec(rng, shape.dim_a), _rand_vec(rng, shape.dim_b))
        ba = dvb.pair_duals_ba(phi2, psi2)
        # The pairing must not depend on the d it is evaluated through.
        d_ones = dvb.DvbElement(shape, m, phi2.a, psi2.b, np.ones(shape.dim_c))
        through_ones = dvb.pair_b(psi2, d_ones) - dvb.pair_a(phi2, d_ones)
        pairing.add(
            max(
                abs(ba - (float(psi2.alpha @ phi2.a) - float(phi2.beta @ psi2.b))),
                abs(through_ones - ba),
            )
        )
        pairing.add(dvb.pair_duals_ab(phi2, psi2) + ba)
        pairing.add(dvb.pair_cstar_b(dvb.pairing_map_a(phi2), psi2) - dvb.pair_duals_ab(phi2, psi2))
        pairing.add(dvb.pair_cstar_a(dvb.pairing_map_b(psi2), phi2) - dvb.pair_duals_ab(phi2, psi2))
        pairing.add(
            dvb.pair_cstar_b(dvb.dual_iso_a_inverse(phi2), psi2)
            + dvb.pair_cstar_b(dvb.pairing_map_a(phi2), psi2)
        )

    return [
        solve.result("solve-vs-closed-form", suite,
                     "brute-force duality solve matches the closed-form isomorphism", tol),
        defining.result("defining-identity", suite,
                        "iterated-dual pairing plus A-pairing equals the B-pairing", tol),
        round_trip.result("iso-round-trips", suite,
                          "both dual isomorphisms invert exactly", tol),
        second_iso.result("second-iso-duality", suite,
                          "the B-side isomorphism is dual over C* to the A-side one", tol),
        pairing.result("dual-pairing", suite,
                       "pairing of duals: decomposed formula, sign conventions, induced maps", tol),
    ]


# -- suite: warp-pairing ----------------------------------------------------------

def _run_warp_pairing(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "warp-pairing"
    identity = _Residuals()
    swap = _Residuals()
    defining = _Residuals()
    interchange = _Residuals()
    routes = _Residuals()
    projection = _Residuals()

    for i in range(samples):
        shape = spec.dvb_shapes[i % len(spec.dvb_shapes)]
        grid = _random_grid(rng, shape)
        m = _rand_vec(rng, shape.base_dim)
        kappa = _rand_vec(rng, shape.dim_c)

        lhs, rhs = sections.warp_pairing_check(grid, m, kappa)
        identity.add(lhs - rhs)

        flipped = sections.swap_grid(grid)
        lhs2, rhs2 = sections.warp_pairing_check(flipped, m, kappa)
        swap.add(lhs2 + lhs)
        swap.add(rhs2 + rhs)
        swap.add(np.max(np.abs(sections.warp(flipped, m) + sections.warp(grid, m)), initial=0.0))

        cap_b = sections.squarecap_b(grid.xi, m, kappa)
        cap_a = sections.squarecap_a(grid.eta, m, kappa)
        for _ in range(20):
            psi = dvb.DualBElement(shape, m, kappa, _rand_vec(rng, shape.dim_a), _rand_vec(rng, shape.dim_b))
            defining.add(dvb.pair_cstar_b(cap_b, psi) - sections.ell_b(grid.xi, psi))
            phi = dvb.DualAElement(shape, m, _rand_vec(rng, shape.dim_a), _rand_vec(rng, shape.dim_b), kappa)
            defining.add(dvb.pair_cstar_a(cap_a, phi) - sections.ell_a(grid.eta, phi))

        ints = lambda n: rng.integers(-8, 9, n).astype(float)
        a1, a2 = ints(shape.dim_a), ints(shape.dim_a)
        b1, b2 = ints(shape.dim_b), ints(shape.dim_b)
        d11 = dvb.DvbElement(shape, m, a1, b1, ints(shape.dim_c))
        d12 = dvb.DvbElement(shape, m, a1, b2, ints(shape.dim_c))
        d21 = dvb.DvbElement(shape, m, a2, b1, ints(shape.dim_c))
        d22 = dvb.DvbElement(shape, m, a2, b2, ints(shape.dim_c))
        left = dvb.add_over_b(dvb.add_over_a(d11, d12), dvb.add_over_a(d21, d22))
        right = dvb.add_over_a(dvb.add_over_b(d11, d21), dvb.add_over_b(d12, d22))
        interchange.add(0.0 if dvb.elements_equal(left, right) else 1.0)

        base = dvb.DvbElement(shape, m, a1, b1, _rand_vec(rng, shape.dim_c))
        other = dvb.DvbElement(shape, m, a1, b1, _rand_vec(rng, shape.dim_c))
        diff = dvb.core_difference(base, other)
        via_a = dvb.sub_over_a(base, other)
        via_b = dvb.sub_over_b(base, other)
        rebuilt_a = dvb.add_over_b(dvb.core_embed(shape, m, via_a.c), dvb.zero_over_a(shape, m, a1))
        rebuilt_b = dvb.add_over_a(dvb.core_embed(shape, m, via_b.c), dvb.zero_over_b(shape, m, b1))
        decomposed = dvb.elements_equal(via_a, rebuilt_a) and dvb.elements_equal(via_b, rebuilt_b)
        routes.add(
            max(
                np.max(np.abs(via_a.c - diff), initial=0.0),
                np.max(np.abs(via_b.c - diff), initial=0.0),
                0.0 if decomposed else 1.0,
            )
        )

        psi = dvb.DualBElement(shape, m, kappa, _rand_vec(rng, shape.dim_a), _rand_vec(rng, shape.dim_b))
        recovered = sections.cstar_projection(psi)
        for j in range(shape.dim_c):
            core = dvb.core_embed(shape, m, np.eye(shape.dim_c)[j])
            carried = dvb.add_over_a(dvb.zero_over_b(shape, m, psi.b), core)
            projection.add(dvb.pair_b(psi, carried) - recovered[j])

    return [
        identity.result("pairing-identity", suite,
                        "squarecap pairing of a grid equals kappa against minus the warp", tol),
        swap.result("swap-negation", suite,
                    "exchanging the grid's sections negates the warp and the pairing", tol),
        defining.result("squarecap-defining", suite,
                        "squarecaps reproduce the linear functions of their sections", tol),
        interchange.result("interchange-law", suite,
                           "the two additions commute on integer-valued samples", 0.0),
        routes.result("core-difference-routes", suite,
                      "both subtraction routes produce the same core vector", 0.0),
        projection.result("cstar-projection", suite,
                          "the C* projection is recovered by pairing with carried core vectors", tol),
    ]


# -- suite: bracket ----------------------------------------------------------------

def _run_bracket(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "bracket"
    checks: list[CheckResult] = []

    names = list(spec.fields)
    pairs = [(a, b) for a in names for b in names if a != b]
    if pairs:
        res = _Residuals()
        first_values: dict[str, list[float]] = {}
        points = [spec.chart.sample(rng) for _ in range(max(1, samples // max(1, len(pairs))))]
        for a, b in pairs:
            x_field, y_field = spec.fields[a], spec.fields[b]
            for idx, point in enumerate(points):
                via_warp = tangent.lie_bracket_via_warp(x_field, y_field, point)
                direct = lie_bracket(x_field, y_field, point)
                res.add(np.max(np.abs(via_warp - direct), initial=0.0))
                if idx == 0:
                    first_values[f"{a},{b}"] = [float(v) for v in via_warp]
        checks.append(
            res.result("field-pairs", suite,
                       "warp of the double tangent grid equals the coordinate bracket",
                       tol, details={"first_point_values": first_values})
        )

    res = _Residuals()
    for i in range(samples):
        dim = 1 + i % 3
        chart = Chart(dim)
        x_field = _poly_map(rng, dim, dim)
        y_field = _poly_map(rng, dim, dim)
        point = chart.sample(rng)
        via_warp = tangent.lie_bracket_via_warp(x_field, y_field, point)
        direct = lie_bracket(x_field, y_field, point)
        res.add(np.max(np.abs(via_warp - direct), initial=0.0))
    checks.append(
        res.result("random-polynomials", suite,
                   "warp route agrees with the bracket oracle on random polynomial fields", tol)
    )
    return checks


# -- suite: connection ---------------------------------------------------------------

def _spec_connections(spec: ProblemSpec, rng, count: int) -> list[Connection]:
    conns = []
    if spec.connection is not None:
        conns.append(spec.connection)
    while len(conns) < count:
        fiber_dim = 1 + len(conns) % 3
        conns.append(_random_connection(rng, spec.chart, fiber_dim))
    return conns


def _run_connection(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "connection"
    covariant = _Residuals()
    flat = _Residuals()
    momentum = _Residuals()
    pullback = _Residuals()
    operator = _Residuals()

    conns = _spec_connections(spec, rng, 3)
    for i in range(samples):
        conn = conns[i % len(conns)]
        n, k = conn.bundle.chart.dim, conn.bundle.fiber_dim
        z_field = _poly_map(rng, n, n)
        mu = _poly_map(rng, n, k)
        point = conn.bundle.chart.sample(rng)

        via_warp = tangent.covariant_derivative_via_warp(conn, z_field, mu, point)
        covariant.add(np.max(np.abs(via_warp - conn.nabla(z_field, mu, point)), initial=0.0))

        flat_conn = Connection.flat(conn.bundle)
        flat_value = tangent.covariant_derivative_via_warp(flat_conn, z_field, mu, point)
        flat.add(np.max(np.abs(flat_value - jacobian(mu, point) @ z_field(point)), initial=0.0))

        a = _rand_vec(rng, k)
        lift = tangent.horizontal_lift(conn, z_field, point, a)
        phi = _poly_map(rng, n, k)

        def ell_phi(vals):
            phis = phi.eval_generic(list(vals[:n]))
            return sum(phis[j] * vals[n + j] for j in range(k))

        derived = jet_directional(
            ell_phi, list(point) + list(a), list(lift.x_dot) + list(lift.fiber_dot)
        )
        momentum.add(derived - float(conn.dual_nabla(z_field, phi, point) @ a))

        f = _poly_map(rng, n, 1)
        pulled = jet_directional(
            lambda vals: f.eval_generic(list(vals[:n]))[0],
            list(point) + list(a),
            list(lift.x_dot) + list(lift.fiber_dot),
        )
        pullback.add(pulled - directional_derivative(f, z_field, point))

        apply_op = tangent.linear_vector_field_operator(tangent.horizontal_field(conn, z_field))
        operator.add(np.max(np.abs(apply_op(mu, point) - conn.nabla(z_field, mu, point)), initial=0.0))

    return [
        covariant.result("covariant-derivative", suite,
                         "warp of the connection grid equals the covariant derivative", tol),
        flat.result("flat-reduction", suite,
                    "with zero coefficients the warp is the plain directional derivative", tol),
        momentum.result("horizontal-momentum", suite,
                        "the horizontal lift differentiates momentum functions by the dual connection", tol),
        pullback.result("horizontal-pullback", suite,
                        "the horizontal lift acts on pullbacks as the base field", tol),
        operator.result("linear-operator", suite,
                        "the operator of the horizontal field is the covariant derivative", tol),
    ]


# -- suite: cotangent-duality ----------------------------------------------------------

def _run_cotangent_duality(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "cotangent-duality"
    relation = _Residuals()
    local = _Residuals()
    anti = _Residuals()
    liouville = _Residuals()

    n = spec.chart.dim
    for fiber_dim in (1, 2, 3):
        bundle = TrivialBundle(spec.chart, fiber_dim)
        per = max(1, samples // 3)
        for _ in range(per):
            x = spec.chart.sample(rng)
            f = tangent.CotangentPoint(
                x, _rand_vec(rng, fiber_dim), _rand_vec(rng, n), _rand_vec(rng, fiber_dim)
            )
            relation.add(
                ct.flip_relation_residual(
                    f, _rand_vec(rng, n), _rand_vec(rng, fiber_dim), _rand_vec(rng, fiber_dim)
                )
            )
            flat_image = ct.flip_coords(
                list(f.x) + list(f.fiber) + list(f.cov_x) + list(f.cov_fiber), n, fiber_dim
            )
            direct = ct.cotangent_flip(f)
            direct_flat = list(direct.x) + list(direct.fiber) + list(direct.cov_x) + list(direct.cov_fiber)
            local.add(max(abs(u - v) for u, v in zip(flat_image, direct_flat)))
        report = ct.symplectic_checks(bundle, samples=per, rng=rng)
        anti.add(report["antisymplectomorphism"])
        liouville.add(report["liouville"])

    return [
        relation.result("flip-relation", suite,
                        "the flip satisfies its defining relation against the tangent pairing", tol),
        local.result("flip-local-formula", suite,
                     "the flip agrees with its flat coordinate formula", 0.0),
        anti.result("antisymplectomorphism", suite,
                    "pulling back the canonical two-form along the flip reverses its sign", tol),
        liouville.result("liouville-relation", suite,
                         "flip* lambda + lambda equals the differential of the pairing potential", tol),
    ]


# -- suite: duality-diagram ------------------------------------------------------------

def _run_duality_diagram(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "duality-diagram"
    triangle = _Residuals()
    independence = _Residuals()
    ranks = _Residuals()

    n = spec.chart.dim
    for _ in range(samples):
        x = spec.chart.sample(rng)
        f = tangent.CotangentPoint(x, _rand_vec(rng, n), _rand_vec(rng, n), _rand_vec(rng, n))
        _, _, residual = ct.diagram_check(f)
        triangle.add(residual)

    for _ in range(max(1, samples // 4)):
        x = spec.chart.sample(rng)
        k = int(rng.integers(1, 4))
        x_dot = _rand_vec(rng, n)
        xc = tangent.TangentPoint(x, _rand_vec(rng, k), x_dot, _rand_vec(rng, k))
        xi = tangent.TangentPoint(x, _rand_vec(rng, k), x_dot, _rand_vec(rng, k))
        direct = ct.tangent_pairing(xc, xi)
        for _ in range(3):
            mu = _shifted_section(rng, n, k, x, xi.fiber)
            phi = _shifted_section(rng, n, k, x, xc.fiber)
            independence.add(ct.tangent_pairing_via_sections(xc, xi, mu, phi) - direct)

        matrix = np.zeros((2 * k, 2 * k))
        zeros = np.zeros(k)
        for row in range(2 * k):
            fiber = np.eye(k)[row] if row < k else zeros
            fiber_dot = np.eye(k)[row - k] if row >= k else zeros
            probe = tangent.TangentPoint(x, fiber, x_dot, fiber_dot)
            for col in range(2 * k):
                pfiber = np.eye(k)[col] if col < k else zeros
                pfiber_dot = np.eye(k)[col - k] if col >= k else zeros
                matrix[row, col] = ct.tangent_pairing(
                    tangent.TangentPoint(x, pfiber, x_dot, pfiber_dot), probe
                )
        ranks.add(2 * k - np.linalg.matrix_rank(matrix))

    return [
        triangle.result("triangle", suite,
                        "sharp followed by the functional reading and the involution transpose is the flip", tol),
        independence.result("pairing-section-independence", suite,
                            "the section route to the tangent pairing is extension-independent", tol),
        ranks.result("functional-rank", suite,
                     "the tangent pairing is nondegenerate on the fiber coordinates", 0.0),
    ]


def _shifted_section(rng, n: int, k: int, x: np.ndarray, value: np.ndarray) -> SmoothMap:
    base = _poly_map(rng, n, k)
    offset = value - base(x)
    comps = tuple(Add(c, Num(float(o))) for c, o in zip(base.components, offset))
    return SmoothMap(n, comps)


# -- suite: bracket-pairing --------------------------------------------------------------

def _run_bracket_pairing(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "bracket-pairing"
    momentum = _Residuals()
    closed = _Residuals()
    cross = _Residuals()
    guard = _Residuals()
    flipped_max = 0.0

    n = spec.chart.dim
    named = [f for f in spec.fields.values() if f.codomain_dim == n]
    for i in range(samples):
        if len(named) >= 2 and i % 2 == 0:
            x_field, y_field = named[0], named[1]
        else:
            x_field, y_field = _poly_map(rng, n, n), _poly_map(rng, n, n)
        x = spec.chart.sample(rng)
        p = _rand_vec(rng, n)

        lhs, rhs = ct.bracket_pairing_check(x_field, y_field, x, p)
        momentum.add(lhs - rhs)

        cap_y = ct.squarecap_tangent_lift(y_field, x, p)
        closed.add(np.max(np.abs(cap_y.cov_x - jacobian(y_field, x).T @ p), initial=0.0))
        closed.add(np.max(np.abs(cap_y.cov_fiber - y_field(x)), initial=0.0))
        cap_x = ct.squarecap_complete_lift(x_field, x, p)
        closed.add(np.max(np.abs(cap_x.x_dot + x_field(x)), initial=0.0))
        closed.add(np.max(np.abs(cap_x.fiber_dot - jacobian(x_field, x).T @ p), initial=0.0))

        grid = tangent.double_tangent_grid(x_field, y_field)
        dec_lhs, dec_rhs = sections.warp_pairing_check(grid, x, p)
        cross.add(dec_lhs - lhs)
        cross.add(dec_rhs - rhs)
        cap_b = sections.squarecap_b(grid.xi, x, p)
        cross.add(np.max(np.abs(cap_b.beta - cap_y.cov_x), initial=0.0))
        cross.add(np.max(np.abs(cap_b.a - cap_y.cov_fiber), initial=0.0))
        cap_a = sections.squarecap_a(grid.eta, x, p)
        cross.add(np.max(np.abs(cap_a.b + cap_x.x_dot), initial=0.0))
        cross.add(np.max(np.abs(cap_a.alpha - cap_x.fiber_dot), initial=0.0))

        wrong_lhs, wrong_rhs = ct.bracket_pairing_check(x_field, y_field, x, p, sign=-1.0)
        flipped_max = max(flipped_max, abs(wrong_lhs - wrong_rhs))
        guard.add(lhs - rhs)

    guard_check = guard.result(
        "sharp-sign-pinned", suite,
        "the pinned sharp sign verifies while the opposite sign fails", tol,
        details={"max_flipped_residual": flipped_max},
    )
    guard_check.passed = guard_check.passed and flipped_max > 100 * tol

    return [
        momentum.result("momentum-identity", suite,
                        "pairing the two induced sections gives minus the bracket momentum", tol),
        closed.result("closed-forms", suite,
                      "induced sections match their coordinate formulas", tol),
        cross.result("decomposed-cross-check", suite,
                     "cotangent route agrees with the decomposed grid computation", tol),
        guard_check,
    ]


# -- suite: connection-pairing --------------------------------------------------------------

def _run_connection_pairing(spec: ProblemSpec, samples: int, rng, tol: float) -> list[CheckResult]:
    suite = "connection-pairing"
    momentum = _Residuals()
    flat = _Residuals()
    cross = _Residuals()

    conns = _spec_connections(spec, rng, 3)
    for i in range(samples):
        conn = conns[i % len(conns)]
        n, k = conn.bundle.chart.dim, conn.bundle.fiber_dim
        x_field = _poly_map(rng, n, n)
        mu = _poly_map(rng, n, k)
        x = conn.bundle.chart.sample(rng)
        kappa = _rand_vec(rng, k)

        lhs, rhs = ct.connection_pairing_check(conn, x_field, mu, x, kappa)
        momentum.add(lhs - rhs)

        flat_conn = Connection.flat(conn.bundle)
        flat_lhs, flat_rhs = ct.connection_pairing_check(flat_conn, x_field, mu, x, kappa)
        flat.add(flat_lhs - flat_rhs)
        flat.add(flat_rhs + float(kappa @ (jacobian(mu, x) @ x_field(x))))

        grid = tangent.connection_grid(conn, x_field, mu)
        dec_lhs, dec_rhs = sections.warp_pairing_check(grid, x, kappa)
        cross.add(dec_lhs - lhs)
        cross.add(dec_rhs - rhs)
        cap_a = sections.squarecap_a(grid.eta, x, kappa)
        lifted = ct.squarecap_horizontal(conn, x_field, x, kappa)
        cross.add(np.max(np.abs(cap_a.b + lifted.x_dot), initial=0.0))
        cross.add(np.max(np.abs(cap_a.alpha - lifted.fiber_dot), initial=0.0))

    return [
        momentum.result("momentum-identity", suite,
                        "pairing with the horizontal squarecap gives minus the covariant momentum", tol),
        flat.result("flat-reduction", suite,
                    "with zero coefficients the pairing is minus the directional momentum", tol),
        cross.result("decomposed-cross-check", suite,
                     "dual-bundle route agrees with the decomposed grid computation", tol),
    ]


SUITES: dict[str, tuple[int, Callable, str]] = {
    "duality-solve": (0, _run_duality_solve, "dual isomorphisms and the pairing of duals"),
    "warp-pairing": (1, _run_warp_pairing, "grids, warps and squarecap pairings"),
    "bracket": (2, _run_bracket, "Lie bracket as the warp of the double tangent grid"),
    "connection": (3, _run_connection, "covariant derivative as the warp of the connection grid"),
    "cotangent-duality": (4, _run_cotangent_duality, "the canonical flip and its symplectic properties"),
    "duality-diagram": (5, _run_duality_diagram, "the sharp/functional/involution triangle"),
    "bracket-pairing": (6, _run_bracket_pairing, "induced sections on the double tangent side"),
    "connection-pairing": (7, _run_connection_pairing, "induced sections on the dual-bundle side"),
}


def run_suites(
    spec: ProblemSpec,
    suite_names: Sequence[str] | None = None,
    samples: int | None = None,
    seed: int | None = None,
    tolerance: float | None = None,
) -> list[CheckResult]:
    names = list(SUITES) if not suite_names else list(suite_names)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite: {name}")
    names.sort(key=lambda n: SUITES[n][0])
    effective_samples = spec.samples if samples is None else samples
    effective_seed = spec.seed if seed is None else seed
    effective_tol = spec.tolerance if tolerance is None else tolerance

    checks: list[CheckResult] = []
    for name in names:
        index, runner, _ = SUITES[name]
        rng = np.random.default_rng([effective_seed, index])
        try:
            checks.extend(runner(spec, effective_samples, rng, effective_tol))
        except (DomainError, OverflowError) as exc:
            # A spec map left its domain (log/division) or the float range
            # (exp/power overflow); report a failing check instead of
            # crashing the run.  The residual is the largest finite float
            # because JSON has no infinity.
            checks.append(
                CheckResult(
                    name="domain-error",
                    suite=name,
                    description="suite aborted: a map left its domain during sampling",
                    samples=0,
                    max_residual=sys.float_info.max,
                    passed=False,
                    details={"error": str(exc)},
                )
            )
    return checks
