"""Pointwise geometry of a regular Lagrangian on the tangent bundle.

Everything here is derived from one scalar field L(x, y) at one phase
point: the metric g_ij = (1/2) d2L/dy_i dy_j, the energy E = y.dL/dy - L,
the Cartan 1- and 2-forms, the canonical semispray

    G0^i = (1/4) g^{ik} ( d2L/dy_k dx_h y^h - dL/dx_k ),

its nonlinear connection N0^i_j = dG0^i/dy_j, the Cartan tensor
C_ijk = (1/4) d3L/dy_i dy_j dy_k, and the dynamical covariant derivative
of the metric along a (spray, connection) pair.

Sign conventions: a tangent vector on TM is a length-2n component vector
(x-slots then y-slots) in the natural basis, and the wedge product is
normalized as (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).  All identity checks
in the test suite pin this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import (
    Jet,
    eval_jet,
    push_direction,
    seed_point,
    sym_invert,
    SymMatrix,
    tangent_part,
    tower_concat,
    tower_vector,
    value_part,
)
from .phase import PhasePoint, ScalarField

__all__ = [
    "LagrangeGeometry",
    "metric_at",
    "energy_at",
    "theta_at",
    "two_form_eval",
    "canonical_spray_at",
    "canonical_connection_at",
    "cartan_tensor_at",
    "spray_equation_residual",
    "dyn_cov_deriv_g",
    "lagrange_geometry",
]


def metric_at(L: ScalarField, p: PhasePoint) -> SymMatrix:
    """Metric tensor g_ij = (1/2) d2L/dy_i dy_j with its inverse.

    Raises :class:`~lagmech.errors.SingularMetric` when the Hessian loses
    rank at ``p`` (the point is outside the regular domain).
    """
    j = eval_jet(L, p, order=2)
    return sym_invert(j.d_yy * 0.5)


def theta_at(L: ScalarField, p: PhasePoint) -> np.ndarray:
    """Components dL/dy_i of the Cartan 1-form."""
    return eval_jet(L, p, order=1).d_y


def energy_at(L: ScalarField, p: PhasePoint):
    """Energy E = y^i dL/dy_i - L and its differential in the (x, y) basis.

    Returns ``(E, dE)`` with ``dE`` of length 2n: first the dE/dx_k slots,
    then dE/dy_k = y^i d2L/dy_i dy_k.
    """
    e, de_x, de_y = _energy_parts(eval_jet(L, p, order=2), tower_vector(p.y))
    return e, tower_concat([de_x, de_y])


def _energy_parts(j: Jet, yv):
    """E and its x- and y-differentials from a jet of L, in any tower."""
    return yv @ j.d_y - j.value, yv @ j.d_xy - j.d_x, yv @ j.d_yy


def _two_form_pieces(j: Jet):
    g = j.d_yy * 0.5
    a = (j.d_xy - j.d_xy.T) * 0.5
    return g, a


def _two_form_value(g, a, X, Y):
    n = g.shape[0]
    xx, xy = X[:n], X[n:]
    yx, yy = Y[:n], Y[n:]
    term1 = 2.0 * (yx @ g @ xy - xx @ g @ yy)
    term2 = yx @ a @ xx - xx @ a @ yx
    return term1 + term2


def two_form_eval(L: ScalarField, p: PhasePoint, X, Y) -> float:
    """The Cartan 2-form d(dL/dy_i dx^i) on two tangent vectors.

    In coordinates: 2 g_ij dy^j ^ dx^i plus the antisymmetrized mixed
    block (1/2)(d2L/dy_i dx_j - d2L/dy_j dx_i) dx^j ^ dx^i.  Valid at any
    smooth point; metric regularity is not required.
    """
    j = eval_jet(L, p, order=2)
    g, a = _two_form_pieces(j)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != (2 * p.n,) or Y.shape != (2 * p.n,):
        raise ValueError("tangent vectors must have 2n components")
    return float(_two_form_value(g, a, X, Y))


def _canonical_pass(L: ScalarField, p: PhasePoint):
    """The jet of L (order 2), the metric, y and G0 at ``p``, in whatever
    tower ``p`` carries: at a seeded point each output carries tangents."""
    j = eval_jet(L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    return j, g, yv, g.inverse @ (j.d_xy @ yv - j.d_x) * 0.25


def canonical_spray_at(L: ScalarField, p: PhasePoint):
    """Coefficients G0^i of the canonical semispray of the Lagrange space."""
    return _canonical_pass(L, p)[3]


def canonical_connection_at(L: ScalarField, p: PhasePoint) -> np.ndarray:
    """Canonical nonlinear connection N0^i_j = dG0^i/dy_j.

    Computed in one pass of the spray pipeline seeded along every fiber
    basis direction; column j is the derivative along e_j.
    """
    return push_direction(lambda q: canonical_spray_at(L, q), p, np.eye(p.n), wrt="y")


def cartan_tensor_at(L: ScalarField, p: PhasePoint) -> np.ndarray:
    """Cartan tensor C_ijk = (1/4) d3L/dy_i dy_j dy_k (totally symmetric)."""
    return eval_jet(L, p, order=3).d_yyy * 0.25


def _sode_residual(j: Jet, yv, spray, sigma=None) -> float:
    """Max residual of i_S omega = -dE (+ sigma) over the 2n basis vectors.

    S has natural components (y, -2 spray); sigma acts on x-slots only.
    """
    g, a = _two_form_pieces(j)
    _, de_x, de_y = _energy_parts(j, yv)
    sy = spray * (-2.0)
    res_x = (g @ sy) * 2.0 + (a @ yv) * 2.0 + de_x
    if sigma is not None:
        res_x = res_x - sigma
    res_y = (g @ yv) * (-2.0) + de_y
    return float(np.abs(np.concatenate([res_x, res_y])).max())


def spray_equation_residual(L: ScalarField, p: PhasePoint) -> float:
    """Numerical residual of the defining equation of the canonical spray.

    Evaluates | omega(S0, B) + dE(B) | over all 2n natural basis vectors B
    and returns the maximum; zero up to roundoff for a regular Lagrangian.
    """
    j, _, yv, spray = _canonical_pass(L, p)
    return _sode_residual(j, yv, spray)


def _metric_x_pass(L: ScalarField, p: PhasePoint):
    """g and its position derivatives ``dgdx[a, b, c] = dg_ab/dx_c`` from
    one jet of L with x seeded along every base direction."""
    g = eval_jet(L, seed_point(p, np.eye(p.n), wrt="x"), order=2).d_yy * 0.5
    return value_part(g), tangent_part(g, p.n)


def _dyn_cov(g, dgdx, d_yyy, yv, spray, conn):
    """S(g_ij) - g_im N^m_j - g_mj N^m_i with S(g) = y^k dg/dx_k - 2 G^k dg/dy_k."""
    s_g = dgdx @ yv - d_yyy @ np.asarray(spray, dtype=float)
    gn = g @ np.asarray(conn, dtype=float)
    return s_g - gn - gn.T


def dyn_cov_deriv_g(L: ScalarField, p: PhasePoint, spray, conn) -> np.ndarray:
    """Dynamical covariant derivative of the metric along a spray pair.

    Computes S(g_ij) - g_im N^m_j - g_mj N^m_i where
    S(g_ij) = y^k dg_ij/dx_k - 2 G^k dg_ij/dy_k.  The same formula serves
    the canonical pair (where it vanishes) and the evolution pair of a
    forced system; the caller chooses which (spray, conn) to pass.

    Position derivatives of g come from one x-seeded jet of L; fiber
    derivatives are read off the third-order jet.
    """
    j3 = eval_jet(L, p, order=3)
    _, dgdx = _metric_x_pass(L, p)
    return _dyn_cov(j3.d_yy * 0.5, dgdx, j3.d_yyy, tower_vector(p.y), spray, conn)


def _christoffel(ginv, dgdx):
    """gamma^i_jk = (1/2) g^{ih} (dg_hj/dx_k + dg_hk/dx_j - dg_jk/dx_h)."""
    a = dgdx + dgdx.transpose(0, 2, 1) - dgdx.transpose(2, 0, 1)
    return 0.5 * np.einsum("ih,hjk->ijk", ginv, a)


@dataclass
class LagrangeGeometry:
    """All pointwise canonical tensors of a Lagrange space at one point."""

    g: SymMatrix
    E: float
    dE: np.ndarray
    theta: np.ndarray
    spray0: np.ndarray
    conn0: np.ndarray
    cartan: np.ndarray


def lagrange_geometry(L: ScalarField, p: PhasePoint) -> LagrangeGeometry:
    """Assemble the canonical geometry bundle at a point."""
    j, g, yv, spray0 = _canonical_pass(L, p)
    e, de_x, de_y = _energy_parts(j, yv)
    return LagrangeGeometry(g=g, E=float(e), dE=np.concatenate([de_x, de_y]), theta=j.d_y,
                            spray0=spray0, conn0=canonical_connection_at(L, p),
                            cartan=cartan_tensor_at(L, p))
