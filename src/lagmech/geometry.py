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
    sym_invert,
    SymMatrix,
    tower_concat,
    tower_vector,
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
    j = eval_jet(L, p, order=2)
    yv = tower_vector(p.y)
    e = yv @ j.d_y - j.value
    de_x = yv @ j.d_xy - j.d_x
    de_y = yv @ j.d_yy
    return e, tower_concat([de_x, de_y])


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


def _spray_from_jet(j: Jet, ginv, yv):
    w = j.d_xy @ yv - j.d_x
    return ginv @ w * 0.25


def canonical_spray_at(L: ScalarField, p: PhasePoint):
    """Coefficients G0^i of the canonical semispray of the Lagrange space."""
    j = eval_jet(L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    return _spray_from_jet(j, g.inverse, tower_vector(p.y))


def canonical_connection_at(L: ScalarField, p: PhasePoint) -> np.ndarray:
    """Canonical nonlinear connection N0^i_j = dG0^i/dy_j.

    Computed in one pass of the spray pipeline seeded along every fiber
    basis direction; column j is the derivative along e_j.
    """
    return push_direction(lambda q: canonical_spray_at(L, q), p, np.eye(p.n), wrt="y")


def cartan_tensor_at(L: ScalarField, p: PhasePoint) -> np.ndarray:
    """Cartan tensor C_ijk = (1/4) d3L/dy_i dy_j dy_k (totally symmetric)."""
    return eval_jet(L, p, order=3).d_yyy * 0.25


def _sode_residual(j: Jet, yv, spray, de, sigma=None):
    """Residual of i_S omega = -dE (+ sigma) over the 2n basis vectors.

    S has natural components (y, -2 spray); sigma acts on x-slots only.
    """
    g, a = _two_form_pieces(j)
    sy = spray * (-2.0)
    res_x = (g @ sy) * 2.0 + (a @ yv) * 2.0 + de[: len(yv)]
    if sigma is not None:
        res_x = res_x - sigma
    res_y = (g @ yv) * (-2.0) + de[len(yv):]
    return np.concatenate([res_x, res_y])


def spray_equation_residual(L: ScalarField, p: PhasePoint) -> float:
    """Numerical residual of the defining equation of the canonical spray.

    Evaluates | omega(S0, B) + dE(B) | over all 2n natural basis vectors B
    and returns the maximum; zero up to roundoff for a regular Lagrangian.
    """
    j = eval_jet(L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    spray = _spray_from_jet(j, g.inverse, yv)
    e, de = energy_at(L, p)
    res = _sode_residual(j, yv, spray, de)
    return float(np.abs(res).max())


def dyn_cov_deriv_g(L: ScalarField, p: PhasePoint, spray, conn) -> np.ndarray:
    """Dynamical covariant derivative of the metric along a spray pair.

    Computes S(g_ij) - g_im N^m_j - g_mj N^m_i where
    S(g_ij) = y^k dg_ij/dx_k - 2 G^k dg_ij/dy_k.  The same formula serves
    the canonical pair (where it vanishes) and the evolution pair of a
    forced system; the caller chooses which (spray, conn) to pass.

    Position derivatives of g come from an x-directional push of the
    metric pipeline; fiber derivatives are read off the third-order jet.
    """
    j3 = eval_jet(L, p, order=3)
    ydir = [float(v) for v in p.y]
    dg_along_y = push_direction(lambda q: eval_jet(L, q, order=2).d_yy * 0.5,
                                p, ydir, wrt="x")
    s_g = dg_along_y - j3.d_yyy @ np.asarray(spray, dtype=float)
    g = j3.d_yy * 0.5
    gn = g @ np.asarray(conn, dtype=float)
    return s_g - gn - gn.T


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
    j = eval_jet(L, p, order=3)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    spray0 = _spray_from_jet(j, g.inverse, yv)
    conn0 = canonical_connection_at(L, p)
    e = yv @ j.d_y - j.value
    de = np.concatenate([yv @ j.d_xy - j.d_x, yv @ j.d_yy])
    return LagrangeGeometry(
        g=g,
        E=float(e),
        dE=de,
        theta=j.d_y,
        spray0=spray0,
        conn0=conn0,
        cartan=j.d_yyy * 0.25,
    )
