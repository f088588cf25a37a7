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
opposite convention is the over-A negation ``scale_over_a(-1, dnu_sharp(.))``;
it breaks both.  The harness's ``sharp-sign-pinned`` check compares
``canonical_two_form`` on w and sharp(sigma) with sigma(w).

The bracket and the covariant derivative are both warps, and both
pairing identities are one statement: d ell of a section paired with a
squarecap is minus the momentum of the warp.  ``momentum_pairing`` pairs
pieces already evaluated at the point (a d ell, a squarecap from
``squarecap_complete_lift`` or ``squarecap_horizontal``, and the bracket
or covariant derivative).  A caller that needs the same pieces for
several checks computes each one once and pairs them with it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import jets
from .charts import Connection, TrivialBundle
from .dvb import DualAElement, DualBElement, DvbElement, _dot, _same, pair_a, pair_b, scale_over_a
from .jets import Scalar
from .sections import LinearSectionA
from .smoothmaps import DimensionMismatch, MatrixMap, SmoothMap, _check_vector_field, _matvec
from .tangent import _shape, tangent_bundle_shape

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
) -> float | np.ndarray:
    """The tangent pairing computed from extending sections.

    xc and xi must share the base point x and tangent x_dot; mu must pass
    through xi's fiber point and phi through xc's, up to _PASS_THROUGH_TOL.
    The value Xc(ell_mu) + xi(ell_phi) - x_dot(<phi, mu>) does not depend
    on the extensions.  It is one derivative, each section pushed once: of
    <alpha, mu> + <beta, phi> - <phi, mu> at (x, xc.a, xi.a) along (x_dot,
    xc.c, xi.c).  For (N, dim) batches the value is (N,), and the sections
    may be families of N members.
    """
    x, n, k = xc.m, xc.m.shape[-1], xc.a.shape[-1]
    _same(x, xi.m, "base point")
    _same(xc.b, xi.b, "base tangent")
    for name, section, fiber in (("mu", mu, xi.a), ("phi", phi, xc.a)):
        value = section(x)
        if value.shape != fiber.shape:
            raise DimensionMismatch(f"extending section {name} must take values in the points' fibers")
        if np.max(np.abs(value - fiber), initial=0.0) > _PASS_THROUGH_TOL:
            raise ValueError(f"section {name} does not pass through its fiber point")

    def extended(vals: Sequence[Scalar]) -> Scalar:
        mus, phis = mu.eval_generic(vals[:n]), phi.eval_generic(vals[:n])
        return sum(a * m + b * p - p * m for a, b, m, p in zip(vals[n:n + k], vals[n + k:], mus, phis))

    return jets.jet_directional(
        extended, np.concatenate([x, xc.a, xi.a], axis=-1), np.concatenate([xc.b, xc.c, xi.c], axis=-1)
    )


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


def flip_relation_residual(f: DualAElement, x_dot, psi_dot, a_dot) -> float | np.ndarray:
    """Signed defect in the defining relation of the flip for one compatible
    pair, or one per row of (N, dim) batches."""
    g = cotangent_flip(f)
    xc = DvbElement(f.shape, f.m, f.a, x_dot, psi_dot)
    xi = DvbElement(g.shape, g.m, g.a, x_dot, a_dot)
    return pair_a(f, xc) + pair_a(g, xi) - tangent_pairing(xc, xi)


# -- canonical forms, evaluated through jets -----------------------------------

def canonical_one_form(coords: Sequence[Scalar], w) -> Scalar:
    """Liouville form of T*(N) at flat coordinates (q, p), evaluated on w.

    w may be an (N, 2d) batch; each coordinate is then an (N,) array or a
    jet over (N,) arrays.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[-1] // 2
    if len(coords) != 2 * d or w.shape[-1] != 2 * d:
        raise DimensionMismatch("flat cotangent coordinates must split evenly")
    return sum(coords[d + i] * w[..., i] for i in range(d))


def canonical_two_form(point, u, v) -> float | np.ndarray:
    """d of the Liouville form on constant extensions of u and v; (N,) at (N, dim) batches."""
    along_u = jets.jet_directional(lambda cs: canonical_one_form(cs, v), point, u)
    along_v = jets.jet_directional(lambda cs: canonical_one_form(cs, u), point, v)
    return along_u - along_v


def pairing_potential(vals: Sequence[Scalar], n: int, k: int) -> Scalar:
    """P(x, psi, chi, Y) = <psi, Y>, the potential in the Liouville relation."""
    return sum(vals[n + i] * vals[2 * n + k + i] for i in range(k))


def flip_form_defects(
    bundle: TrivialBundle, point, u, v
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Signed defects of the flip's two symplectic properties at a flat point of T*(A*).

    Returns (anti, liouville): the pullback along the flip of the canonical
    two-form of T*(A), plus the canonical two-form of T*(A*), on (u, v);
    and the defect in flip*(lambda_A) + lambda_{A*} = dP on u.  Both are
    evaluated through jets; at (N, 2(n + k)) batches both are (N,) arrays.
    """
    n, k = bundle.chart.dim, bundle.fiber_dim
    point, u, v = (np.asarray(w, dtype=float) for w in (point, u, v))
    image, jac = jets.value_and_jacobian(lambda vals: flip_coords(vals, n, k), point)
    pushed_u, pushed_v = _matvec(jac, u), _matvec(jac, v)
    anti = canonical_two_form(image, pushed_u, pushed_v) + canonical_two_form(point, u, v)
    grad_p = jets.jet_gradient(lambda vals: pairing_potential(vals, n, k), point)
    liouville = canonical_one_form(image.T, pushed_u) + canonical_one_form(point.T, u)
    return anti, liouville - _dot(grad_p, u)


# -- sharp map and induced sections of the iterated duals -----------------------

def dnu_sharp(f: DualAElement) -> DvbElement:
    """Invert the canonical two-form: covector (sigma_q, sigma_p) to the
    tangent vector (sigma_p, -sigma_q)."""
    return DvbElement(f.shape, f.m, f.a, f.kappa, -f.beta)


def ell_differential(mu: SmoothMap, x, kappa) -> DualAElement:
    """d of the momentum function ell_mu(x, kappa) = <kappa, mu(x)> on the dual bundle.

    x and kappa may be (N, dim) batches of one N; the differential is then one per row.
    """
    x = np.asarray(x, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    n, k = x.shape[-1], kappa.shape[-1]
    if mu.domain_dim != n or mu.codomain_dim != k or x.shape[:-1] != kappa.shape[:-1]:
        raise DimensionMismatch(f"a section of R^{mu.domain_dim} -> R^{mu.codomain_dim} at points of shape "
                                f"{x.shape} and fibers of shape {kappa.shape}: not one chart, fiber and batch")
    grad = jets.jet_gradient(momentum_function(mu), np.concatenate([x, kappa], axis=-1))
    return DualAElement(_shape(n, k), x, kappa, grad[..., :n], grad[..., n:])


def squarecap_tangent_lift(y_field: SmoothMap, x, p) -> DualAElement:
    """Induced section of T*(T*M) attached to the tangent lift of Y: d ell_Y."""
    _check_vector_field(y_field)
    return ell_differential(y_field, x, p)


def squarecap_complete_lift(x_field: SmoothMap, x, p) -> DvbElement:
    """Induced section attached to the complete lift of X, as a T(T*M) element.

    Minus sharp of d ell_X, that is minus the Hamiltonian vector field of
    ell_X; in coordinates (-X(x), DX(x)^T p).
    """
    _check_vector_field(x_field)
    return scale_over_a(-1.0, dnu_sharp(ell_differential(x_field, x, p)))


def momentum_pairing(
    dell: DualAElement, cap: DvbElement, value, fiber
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Pair d ell with a squarecap against minus the momentum of value at the fiber point.

    Returns (<dell, cap>, -<fiber, value>); dell and cap must lie over the
    same point, with fiber as its fiber part.  For (N, dim) batches both
    values are (N,) arrays.
    """
    fiber = np.asarray(fiber, dtype=float)
    _same(fiber, dell.a, "fiber point")
    return pair_a(dell, cap), -_dot(fiber, np.asarray(value, dtype=float))


def diagram_check(f: DualAElement) -> tuple[DualAElement, DualAElement]:
    """Compose sharp, the functional reading, and the involution transpose.

    Returns (composite image, direct flip image); the triangle commutes on
    T*(T*M), so the two agree.
    """
    if f.m.shape != f.a.shape:
        raise DimensionMismatch("diagram check lives on the double cotangent of a chart")
    return j_star(i_components(dnu_sharp(f))), cotangent_flip(f)


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
        MatrixMap((k, k), lambda m: np.swapaxes(conn.omega(x_field, m), -1, -2)),
    )


def squarecap_horizontal(conn: Connection, x_field: SmoothMap, x, kappa) -> DvbElement:
    """Induced section attached to the horizontal lift: minus the dual horizontal lift."""
    return scale_over_a(-1.0, dual_horizontal_field(conn, x_field)(x, kappa))

