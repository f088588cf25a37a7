"""Cotangent models: the canonical flip T*(A*) -> T*(A) and its pairings.

Coordinates: tangent vectors and covectors are ``dvb`` elements of the
shape of T(A) (sides A and TM, core A; see ``tangent``), which is also the
shape of T(A*) for the dual bundle A* of the same rank:

    tangent vector (x, fiber; x_dot, fiber_dot)
        = DvbElement(shape, m=x, a=fiber, b=x_dot, c=fiber_dot)
    covector (x, fiber; cov_x, cov_fiber)
        = DualAElement(shape, m=x, a=fiber, beta=cov_x, kappa=cov_fiber)

A covector evaluates on a tangent vector at the same point by
``dvb.pair_a``, and negation of tangent vectors is ``scale_over_a(-1, .)``.
An element of T(A*) read as a functional on T(A) over TM (``i_components``)
is the DualBElement (m=x, kappa=fiber, alpha=fiber_dot, b=x_dot); the
tangent pairing is its ``dvb.pair_b``, T(A*) being the dual of T(A) over TM.

A point of T*(A*) over a trivialized bundle A of rank k on an n-chart is
(x, psi; chi, Y) with chi the base covector part and Y (a fiber vector of
A) the part dual to psi.  The canonical flip sends it to

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

The two pairing checks take maps and evaluate what they pair at the
point; ``bracket_pairing`` and ``connection_pairing`` pair pieces already
evaluated there (a d ell from ``ell_differential``, a squarecap, and the
bracket or covariant derivative), as the ``sections`` functions take a
``SectionAt``.  A caller that needs the same pieces for several checks
computes each one once and pairs them with these.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import jets
from .charts import Connection, TrivialBundle
from .dvb import DualAElement, DualBElement, DvbElement, _dot, _same, pair_a, pair_b, scale_over_a
from .jets import Scalar
from .sections import LinearSectionA
from .smoothmaps import DimensionMismatch, MatrixMap, SmoothMap, _check_vector_field, lie_bracket
from .tangent import _shape, tangent_bundle_shape

DNU_SHARP_SIGN = 1.0

# How far an extending section may miss the point it must pass through.
_PASS_THROUGH_TOL = 1e-9


def momentum_function(mu: SmoothMap) -> Callable[[Sequence[Scalar]], Scalar]:
    """ell_mu(x, kappa) = <kappa, mu(x)> on flat coordinates (x, kappa) of the dual bundle.

    Generic, so jets pass through.
    """
    n, k = mu.domain_dim, mu.codomain_dim

    def ell(vals: Sequence[Scalar]) -> Scalar:
        mus = mu.eval_generic(list(vals[:n]))
        return sum(vals[n + i] * mus[i] for i in range(k))

    return ell


def i_components(xc: DvbElement) -> DualBElement:
    """xc in T(A*) as a functional on T(A) over TM: the tangent pairing with xc.

    It lands in the dual of T(A) over TM, with alpha pairing the fiber and
    kappa the fiber_dot.
    """
    return DualBElement(xc.shape, xc.m, kappa=xc.a, alpha=xc.c, b=xc.b)


def tangent_pairing(xc: DvbElement, xi: DvbElement) -> float | np.ndarray:
    """Tangent pairing of T(A*) with T(A) over a shared base tangent; batches pair by row."""
    return pair_b(i_components(xc), xi)


def tangent_pairing_via_sections(
    xc: DvbElement, xi: DvbElement, mu: SmoothMap, phi: SmoothMap
) -> float:
    """The tangent pairing computed from extending sections.

    mu must pass through xi's fiber point and phi through xc's, up to
    _PASS_THROUGH_TOL.  The value Xc(ell_mu) + xi(ell_phi) - x(<phi, mu>)
    does not depend on the choice of extensions.
    """
    x = xc.m
    k = xc.a.size
    mu_x, phi_x = mu(x), phi(x)
    if mu_x.shape != xi.a.shape or phi_x.shape != xc.a.shape:
        raise DimensionMismatch("extending sections must take values in the points' fibers")
    if np.max(np.abs(mu_x - xi.a), initial=0.0) > _PASS_THROUGH_TOL:
        raise ValueError("section mu does not pass through the tangent vector's point")
    if np.max(np.abs(phi_x - xc.a), initial=0.0) > _PASS_THROUGH_TOL:
        raise ValueError("section phi does not pass through the covector's point")

    def phi_dot_mu(vals: Sequence[Scalar]) -> Scalar:
        mus = mu.eval_generic(list(vals))
        phis = phi.eval_generic(list(vals))
        return sum(phis[i] * mus[i] for i in range(k))

    first = jets.jet_directional(
        momentum_function(mu), list(x) + list(xc.a), list(xc.b) + list(xc.c)
    )
    second = jets.jet_directional(
        momentum_function(phi), list(x) + list(xi.a), list(xi.b) + list(xi.c)
    )
    third = jets.jet_directional(phi_dot_mu, list(x), list(xc.b))
    return float(first + second - third)


def j_star(psi: DualBElement) -> DualAElement:
    """Transpose of the canonical involution: reread the functional as a covector.

    The output covector lives at the tangent-bundle point (x, x_dot).
    """
    return DualAElement(psi.shape, psi.m, psi.b, psi.alpha, psi.kappa)


# -- the canonical flip --------------------------------------------------------

def flip_coords(vals: Sequence[Scalar], n: int, k: int) -> list[Scalar]:
    """The flip on flat coordinate lists; generic so jets pass through."""
    x = list(vals[:n])
    psi = list(vals[n:n + k])
    chi = list(vals[n + k:2 * n + k])
    y = list(vals[2 * n + k:])
    return x + y + [-c for c in chi] + psi


def cotangent_flip(f: DualAElement) -> DualAElement:
    """The canonical map T*(A*) -> T*(A): (x, psi; chi, Y) -> (x, Y; -chi, psi)."""
    return DualAElement(f.shape, f.m, f.kappa, -f.beta, f.a)


def flip_relation_residual(f: DualAElement, x_dot, psi_dot, a_dot) -> float:
    """Defect in the defining relation of the flip for one compatible pair."""
    g = cotangent_flip(f)
    xc = DvbElement(f.shape, f.m, f.a, x_dot, psi_dot)
    xi = DvbElement(g.shape, g.m, g.a, x_dot, a_dot)
    lhs = pair_a(f, xc) + pair_a(g, xi)
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

def dnu_sharp(f: DualAElement, sign: float | None = None) -> DvbElement:
    """Invert the canonical two-form: covector (sigma_q, sigma_p) to a tangent vector.

    With the pinned sign the image is (sigma_p, -sigma_q).
    """
    s = DNU_SHARP_SIGN if sign is None else float(sign)
    return DvbElement(f.shape, f.m, f.a, s * f.kappa, -s * f.beta)


def ell_differential(mu: SmoothMap, x, kappa) -> DualAElement:
    """d of the momentum function ell_mu(x, kappa) = <kappa, mu(x)> on the dual bundle.

    x and kappa may be (N, dim) batches of one N; the differential is then one per row.
    """
    x = np.asarray(x, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    n, k = x.shape[-1], kappa.shape[-1]
    if mu.domain_dim != n or mu.codomain_dim != k:
        raise DimensionMismatch("section does not match the chart or fiber")
    grad = jets.jet_gradient(momentum_function(mu), np.concatenate([x, kappa], axis=-1))
    return DualAElement(_shape(n, k), x, kappa, grad[..., :n], grad[..., n:])


def squarecap_tangent_lift(y_field: SmoothMap, x, p) -> DualAElement:
    """Induced section of T*(T*M) attached to the tangent lift of Y: d ell_Y."""
    _check_vector_field(y_field)
    return ell_differential(y_field, x, p)


def complete_lift_squarecap(dell_x: DualAElement, sign: float | None = None) -> DvbElement:
    """The complete-lift squarecap from d ell_X at its point: minus sharp of d ell_X."""
    return scale_over_a(-1.0, dnu_sharp(dell_x, sign))


def squarecap_complete_lift(
    x_field: SmoothMap, x, p, sign: float | None = None
) -> DvbElement:
    """Induced section attached to the complete lift of X, as a T(T*M) element.

    Equals minus the Hamiltonian vector field of ell_X; in coordinates
    (-X(x), DX(x)^T p) under the pinned sharp sign.
    """
    _check_vector_field(x_field)
    return complete_lift_squarecap(ell_differential(x_field, x, p), sign)


def bracket_pairing(
    dell_x: DualAElement, dell_y: DualAElement, bracket, p, sign: float | None = None
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """The bracket pairing of d ell_X, d ell_Y and [X, Y](x), evaluated at (x, p).

    The two differentials must lie over (x, p).  For (N, dim) batches both
    values are (N,) arrays.
    """
    p = np.asarray(p, dtype=float)
    _same(p, dell_y.a, "fiber point")
    lhs = pair_a(dell_y, complete_lift_squarecap(dell_x, sign))
    return lhs, -_dot(p, np.asarray(bracket, dtype=float))


def bracket_pairing_check(
    x_field: SmoothMap, y_field: SmoothMap, x, p, sign: float | None = None
) -> tuple[float, float]:
    """Pair the two induced sections on T*M against minus the bracket momentum.

    Returns (pairing value, -<p, [X, Y](x)>); the two agree under the
    pinned sharp sign and disagree under the opposite one.
    """
    dell_y = squarecap_tangent_lift(y_field, x, p)
    _check_vector_field(x_field)
    dell_x = ell_differential(x_field, x, p)
    return bracket_pairing(dell_x, dell_y, lie_bracket(x_field, y_field, x), p, sign)


def diagram_check(f: DualAElement) -> tuple[DualAElement, DualAElement, float]:
    """Compose sharp, the functional reading, and the involution transpose.

    Returns (composite image, direct flip image, max coordinate defect);
    the triangle commutes on T*(T*M).
    """
    if f.m.shape != f.a.shape:
        raise DimensionMismatch("diagram check lives on the double cotangent of a chart")
    composite = j_star(i_components(dnu_sharp(f)))
    direct = cotangent_flip(f)
    residual = max(
        float(np.max(np.abs(getattr(composite, name) - getattr(direct, name)), initial=0.0))
        for name, _ in DualAElement._fields
    )
    return composite, direct, residual


# -- connection pairing on the dual bundle --------------------------------------

def dual_horizontal_field(conn: Connection, x_field: SmoothMap) -> LinearSectionA:
    """Horizontal lift of X to the dual bundle: fiber part +omega(X)^T kappa.

    Characterized by sending the momentum function of a section mu to the
    momentum function of nabla_X mu.
    """
    k = conn.bundle.fiber_dim
    return LinearSectionA(
        tangent_bundle_shape(conn.bundle),
        x_field,
        MatrixMap(k, k, lambda m: np.swapaxes(conn.omega(x_field, m), -1, -2)),
    )


def squarecap_horizontal(conn: Connection, x_field: SmoothMap, x, kappa) -> DvbElement:
    """Induced section attached to the horizontal lift: minus the dual horizontal lift."""
    return scale_over_a(-1.0, dual_horizontal_field(conn, x_field)(x, kappa))


def connection_pairing(
    dell_mu: DualAElement, cap_h: DvbElement, nabla, kappa
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """The connection pairing of d ell_mu, the horizontal squarecap and nabla_X mu, at (x, kappa).

    The two pieces must lie over (x, kappa).  For (N, dim) batches both
    values are (N,) arrays.
    """
    kappa = np.asarray(kappa, dtype=float)
    _same(kappa, dell_mu.a, "fiber point")
    return pair_a(dell_mu, cap_h), -_dot(kappa, np.asarray(nabla, dtype=float))


def connection_pairing_check(
    conn: Connection, x_field: SmoothMap, mu: SmoothMap, x, kappa
) -> tuple[float, float]:
    """Pair d ell_mu with the horizontal squarecap on the dual bundle.

    Returns (pairing value, -<kappa, nabla_X mu  at x>); the two agree.
    """
    return connection_pairing(
        ell_differential(mu, x, kappa),
        squarecap_horizontal(conn, x_field, x, kappa),
        conn.nabla(x_field, mu, x),
        kappa,
    )
