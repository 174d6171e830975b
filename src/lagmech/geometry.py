"""Pointwise geometry of a regular Lagrangian on the tangent bundle.

Everything here is derived from one scalar field L(x, y) at one phase
point: the metric g_ij = (1/2) d2L/dy_i dy_j, the energy E = y.dL/dy - L,
the Cartan 1- and 2-forms, the canonical semispray

    G0^i = (1/4) g^{ik} ( d2L/dy_k dx_h y^h - dL/dx_k ),

its nonlinear connection N0^i_j = dG0^i/dy_j, the Cartan tensor
C_ijk = (1/4) d3L/dy_i dy_j dy_k, and the dynamical covariant derivative
of the metric along a (spray, connection) pair.  These are the canonical
building blocks of :class:`~lagmech.mechanics.PointGeometry`, which is
the public way to read them.

Sign conventions: a tangent vector on TM is a length-2n component vector
(x-slots then y-slots) in the natural basis, and the wedge product is
normalized as (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).  All identity checks
in the test suite pin this convention.
"""

from __future__ import annotations

import numpy as np

from .jets import (
    Jet,
    eval_jet,
    seed_point,
    sym_invert,
    tangent_part,
    tower_vector,
    value_part,
)
from .phase import PhasePoint, ScalarField

# the building blocks below are read through mechanics.PointGeometry
__all__: list = []


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


def _canonical_pass(L: ScalarField, p: PhasePoint):
    """The jet of L (order 2), the metric, y and G0 at ``p``, in whatever
    tower ``p`` carries: at a seeded point each output carries tangents."""
    j = eval_jet(L, p, order=2)
    g = sym_invert(j.d_yy * 0.5)
    yv = tower_vector(p.y)
    return j, g, yv, g.inverse @ (j.d_xy @ yv - j.d_x) * 0.25


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


def _christoffel(ginv, dgdx):
    """gamma^i_jk = (1/2) g^{ih} (dg_hj/dx_k + dg_hk/dx_j - dg_jk/dx_h)."""
    a = dgdx + dgdx.transpose(0, 2, 1) - dgdx.transpose(2, 0, 1)
    return 0.5 * np.einsum("ih,hjk->ijk", ginv, a)
