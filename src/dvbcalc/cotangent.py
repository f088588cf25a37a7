"""Cotangent models: the canonical flip T*(A*) -> T*(A) and its pairings.

Coordinates: a point of T*(A*) over a trivialized bundle A of rank k on an
n-chart is (x, psi; chi, Y) with chi the base covector part and Y (a fiber
vector of A) the part dual to psi.  The canonical flip sends it to

    (x, Y; -chi, psi)  in  T*(A),

and is characterized by <F, Xc> + <flip(F), xi> = <<Xc, xi>> over pairs of
tangent vectors Xc in T(A*), xi in T(A) with a common base tangent, where
<< , >> is the tangent pairing

    <<(x, phi; x', phi'), (x, a; x', a')>> = <phi', a> + <phi, a'>.

The flip reverses canonical symplectic forms and satisfies the Liouville
relation flip*(lambda_A) + lambda_{A*} = dP with P = <psi, Y>.

The sharp map of the canonical symplectic form on T*M is pinned here as

    (sigma_q, sigma_p) |-> (sigma_p, -sigma_q),

equivalently d nu(w, sharp(sigma)) = sigma(w); with this choice the induced
section of a complete lift is minus the Hamiltonian field of its momentum
function, and the triangle flip = j_star o i o sharp commutes.  The
opposite sign breaks both, which the test suite checks explicitly.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import jets
from .charts import Connection, TrivialBundle
from .jets import Scalar
from .smoothmaps import DimensionMismatch, MatrixMap, SmoothMap, _check_vector_field, lie_bracket
from .tangent import (
    CotangentPoint,
    LinearVectorField,
    ProlongationDual,
    TangentPoint,
)

DNU_SHARP_SIGN = 1.0


def cotangent_pairing(cov: CotangentPoint, tan: TangentPoint) -> float:
    """Evaluate a covector on a tangent vector at the same bundle point."""
    if not (np.array_equal(cov.x, tan.x) and np.array_equal(cov.fiber, tan.fiber)):
        raise DimensionMismatch("covector and tangent vector sit at different points")
    return float(cov.cov_x @ tan.x_dot + cov.cov_fiber @ tan.fiber_dot)


def tangent_pairing(xc: TangentPoint, xi: TangentPoint) -> float:
    """Tangent pairing of T(A*) with T(A) over a shared base tangent."""
    if not np.array_equal(xc.x, xi.x):
        raise DimensionMismatch("tangent vectors sit over different base points")
    if not np.array_equal(xc.x_dot, xi.x_dot):
        raise DimensionMismatch("tangent vectors have different base velocities")
    if xc.fiber.shape != xi.fiber.shape:
        raise DimensionMismatch("fiber dimensions disagree")
    return float(xc.fiber_dot @ xi.fiber + xc.fiber @ xi.fiber_dot)


def tangent_pairing_via_sections(
    xc: TangentPoint,
    xi: TangentPoint,
    mu: SmoothMap,
    phi: SmoothMap,
    tol: float = 1e-9,
) -> float:
    """The tangent pairing computed from extending sections.

    mu must pass through xi's fiber point and phi through xc's, up to tol.
    The value Xc(ell_mu) + xi(ell_phi) - x(<phi, mu>) does not depend on
    the choice of extensions.
    """
    x = xc.x
    n, k = x.size, xc.fiber.size
    if np.max(np.abs(mu(x) - xi.fiber), initial=0.0) > tol:
        raise ValueError("section mu does not pass through the tangent vector's point")
    if np.max(np.abs(phi(x) - xc.fiber), initial=0.0) > tol:
        raise ValueError("section phi does not pass through the covector's point")

    def ell_mu(vals: Sequence[Scalar]) -> Scalar:
        mus = mu.eval_generic(list(vals[:n]))
        return sum(vals[n + i] * mus[i] for i in range(k))

    def ell_phi(vals: Sequence[Scalar]) -> Scalar:
        phis = phi.eval_generic(list(vals[:n]))
        return sum(phis[i] * vals[n + i] for i in range(k))

    def phi_dot_mu(vals: Sequence[Scalar]) -> Scalar:
        mus = mu.eval_generic(list(vals))
        phis = phi.eval_generic(list(vals))
        return sum(phis[i] * mus[i] for i in range(k))

    first = jets.jet_directional(
        ell_mu, list(x) + list(xc.fiber), list(xc.x_dot) + list(xc.fiber_dot)
    )
    second = jets.jet_directional(
        ell_phi, list(x) + list(xi.fiber), list(xi.x_dot) + list(xi.fiber_dot)
    )
    third = jets.jet_directional(phi_dot_mu, list(x), list(xc.x_dot))
    return float(first + second - third)


def i_map(xc: TangentPoint) -> Callable[[TangentPoint], float]:
    """Realize a T(A*) element as a functional on compatible T(A) elements."""
    return lambda xi: tangent_pairing(xc, xi)


def i_components(xc: TangentPoint) -> ProlongationDual:
    """Coordinates of i_map(xc) read off against basis double tangent vectors."""
    functional = i_map(xc)
    k = xc.fiber.size
    zeros = np.zeros(k)
    sigma_fiber = [
        functional(TangentPoint(xc.x, np.eye(k)[i], xc.x_dot, zeros)) for i in range(k)
    ]
    sigma_fiber_dot = [
        functional(TangentPoint(xc.x, zeros, xc.x_dot, np.eye(k)[i])) for i in range(k)
    ]
    return ProlongationDual(xc.x, xc.x_dot, sigma_fiber, sigma_fiber_dot)


def j_star(pd: ProlongationDual) -> CotangentPoint:
    """Transpose of the canonical involution: reread the functional as a covector.

    The output covector lives at the tangent-bundle point (x, x_dot).
    """
    return CotangentPoint(pd.x, pd.x_dot, pd.sigma_fiber, pd.sigma_fiber_dot)


# -- the canonical flip --------------------------------------------------------

def flip_coords(vals: Sequence[Scalar], n: int, k: int) -> list[Scalar]:
    """The flip on flat coordinate lists; generic so jets pass through."""
    x = list(vals[:n])
    psi = list(vals[n:n + k])
    chi = list(vals[n + k:2 * n + k])
    y = list(vals[2 * n + k:])
    return x + y + [-c for c in chi] + psi


def cotangent_flip(f: CotangentPoint) -> CotangentPoint:
    """The canonical map T*(A*) -> T*(A): (x, psi; chi, Y) -> (x, Y; -chi, psi)."""
    return CotangentPoint(f.x, f.cov_fiber, -f.cov_x, f.fiber)


def flip_relation_residual(
    f: CotangentPoint, x_dot, psi_dot, a_dot
) -> float:
    """Defect in the defining relation of the flip for one compatible pair."""
    g = cotangent_flip(f)
    xc = TangentPoint(f.x, f.fiber, x_dot, psi_dot)
    xi = TangentPoint(g.x, g.fiber, x_dot, a_dot)
    lhs = cotangent_pairing(f, xc) + cotangent_pairing(g, xi)
    return abs(lhs - tangent_pairing(xc, xi))


# -- canonical forms, evaluated through jets -----------------------------------

def canonical_one_form(coords: Sequence[Scalar], w: Sequence[float]) -> Scalar:
    """Liouville form of T*(N) at flat coordinates (q, p), evaluated on w."""
    d = len(w) // 2
    if len(coords) != 2 * d or len(w) != 2 * d:
        raise DimensionMismatch("flat cotangent coordinates must split evenly")
    return sum(coords[d + i] * w[i] for i in range(d))


def canonical_two_form(point: Sequence[float], u: Sequence[float], v: Sequence[float]) -> float:
    """d of the Liouville form on constant extensions of u and v."""
    point = [float(t) for t in point]
    along_u = jets.jet_directional(lambda cs: canonical_one_form(cs, v), point, u)
    along_v = jets.jet_directional(lambda cs: canonical_one_form(cs, u), point, v)
    return float(along_u - along_v)


def pairing_potential(vals: Sequence[Scalar], n: int, k: int) -> Scalar:
    """P(x, psi, chi, Y) = <psi, Y>, the potential in the Liouville relation."""
    return sum(vals[n + i] * vals[2 * n + k + i] for i in range(k))


def symplectic_checks(bundle: TrivialBundle, samples: int, rng: np.random.Generator) -> dict:
    """Residual maxima for the two symplectic properties of the flip.

    "antisymplectomorphism": the pullback along the flip of the canonical
    two-form of T*(A) plus the canonical two-form of T*(A*).
    "liouville": the defect in flip*(lambda_A) + lambda_{A*} = dP.
    Both forms are evaluated through jets at uniform random points.
    """
    n, k = bundle.chart.dim, bundle.fiber_dim
    size = 2 * (n + k)
    flip_fn = lambda vals: flip_coords(vals, n, k)
    anti = 0.0
    liouville = 0.0
    for _ in range(samples):
        point = list(bundle.chart.sample(rng)) + list(rng.uniform(-1.0, 1.0, size - n))
        jac = jets.jet_jacobian(flip_fn, point)
        image = flip_fn(point)
        u, v = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size)
        pushed_u, pushed_v = jac @ u, jac @ v
        anti = max(
            anti,
            abs(
                canonical_two_form(image, pushed_u, pushed_v)
                + canonical_two_form(point, u, v)
            ),
        )
        grad_p = jets.jet_gradient(lambda vals: pairing_potential(vals, n, k), point)
        liouville = max(
            liouville,
            abs(
                canonical_one_form(image, pushed_u)
                + canonical_one_form(point, u)
                - float(grad_p @ u)
            ),
        )
    return {"antisymplectomorphism": anti, "liouville": liouville, "samples": samples}


# -- sharp map and induced sections of the iterated duals -----------------------

def dnu_sharp(f: CotangentPoint, sign: float | None = None) -> TangentPoint:
    """Invert the canonical two-form: covector (sigma_q, sigma_p) to a tangent vector.

    With the pinned sign the image is (sigma_p, -sigma_q).
    """
    s = DNU_SHARP_SIGN if sign is None else float(sign)
    return TangentPoint(f.x, f.fiber, s * f.cov_fiber, -s * f.cov_x)


def ell_differential(mu: SmoothMap, x, kappa) -> CotangentPoint:
    """d of the momentum function ell_mu(x, kappa) = <kappa, mu(x)> on the dual bundle."""
    x = np.asarray(x, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    n, k = x.size, kappa.size
    if mu.domain_dim != n or mu.codomain_dim != k:
        raise DimensionMismatch("section does not match the chart or fiber")

    def ell(vals: Sequence[Scalar]) -> Scalar:
        mus = mu.eval_generic(list(vals[:n]))
        return sum(vals[n + i] * mus[i] for i in range(k))

    grad = jets.jet_gradient(ell, list(x) + list(kappa))
    return CotangentPoint(x, kappa, grad[:n], grad[n:])


def squarecap_tangent_lift(y_field: SmoothMap, x, p) -> CotangentPoint:
    """Induced section of T*(T*M) attached to the tangent lift of Y: d ell_Y."""
    _check_vector_field(y_field)
    return ell_differential(y_field, x, p)


def negate_tangent(t: TangentPoint) -> TangentPoint:
    """Negation in the tangent bundle of the total space."""
    return TangentPoint(t.x, t.fiber, -t.x_dot, -t.fiber_dot)


def squarecap_complete_lift(
    x_field: SmoothMap, x, p, sign: float | None = None
) -> TangentPoint:
    """Induced section attached to the complete lift of X, as a T(T*M) element.

    Equals minus the Hamiltonian vector field of ell_X; in coordinates
    (-X(x), DX(x)^T p) under the pinned sharp sign.
    """
    _check_vector_field(x_field)
    return negate_tangent(dnu_sharp(ell_differential(x_field, x, p), sign))


def bracket_pairing_check(
    x_field: SmoothMap, y_field: SmoothMap, x, p, sign: float | None = None
) -> tuple[float, float]:
    """Pair the two induced sections on T*M against minus the bracket momentum.

    Returns (pairing value, -<p, [X, Y](x)>); the two agree under the
    pinned sharp sign and disagree under the opposite one.
    """
    p = np.asarray(p, dtype=float)
    lhs = cotangent_pairing(
        squarecap_tangent_lift(y_field, x, p),
        squarecap_complete_lift(x_field, x, p, sign),
    )
    rhs = -float(p @ lie_bracket(x_field, y_field, x))
    return lhs, rhs


def diagram_check(f: CotangentPoint) -> tuple[CotangentPoint, CotangentPoint, float]:
    """Compose sharp, the functional reading, and the involution transpose.

    Returns (composite image, direct flip image, max coordinate defect);
    the triangle commutes on T*(T*M).
    """
    if f.x.shape != f.fiber.shape:
        raise DimensionMismatch("diagram check lives on the double cotangent of a chart")
    composite = j_star(i_components(dnu_sharp(f)))
    direct = cotangent_flip(f)
    residual = max(
        float(np.max(np.abs(getattr(composite, name) - getattr(direct, name)), initial=0.0))
        for name, _ in CotangentPoint._fields
    )
    return composite, direct, residual


# -- connection pairing on the dual bundle --------------------------------------

def dual_horizontal_field(conn: Connection, x_field: SmoothMap) -> LinearVectorField:
    """Horizontal lift of X to the dual bundle: fiber part +omega(X)^T kappa.

    Characterized by sending the momentum function of a section mu to the
    momentum function of nabla_X mu.
    """
    k = conn.bundle.fiber_dim
    return LinearVectorField(
        conn.bundle,
        x_field,
        MatrixMap(k, k, lambda m: conn.omega(x_field, m).T),
    )


def squarecap_horizontal(conn: Connection, x_field: SmoothMap, x, kappa) -> TangentPoint:
    """Induced section attached to the horizontal lift: minus the dual horizontal lift."""
    return negate_tangent(dual_horizontal_field(conn, x_field)(x, kappa))


def connection_pairing_check(
    conn: Connection, x_field: SmoothMap, mu: SmoothMap, x, kappa
) -> tuple[float, float]:
    """Pair d ell_mu with the horizontal squarecap on the dual bundle.

    Returns (pairing value, -<kappa, nabla_X mu  at x>); the two agree.
    """
    kappa = np.asarray(kappa, dtype=float)
    lhs = cotangent_pairing(
        ell_differential(mu, x, kappa),
        squarecap_horizontal(conn, x_field, x, kappa),
    )
    rhs = -float(kappa @ conn.nabla(x_field, mu, x))
    return lhs, rhs
