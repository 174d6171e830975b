"""Reference routes to the pointwise geometry, for the tests.

Each route is built from the reference tower's primitives (``eval_jet``,
``sym_invert``, ``push_direction`` and the evolution pass of
:mod:`tower`) on its own, not through the engine's compiled programs, so
a test can compare the context with it.  The routes run in whatever
tower the point carries, so a test can also push them with
``push_direction``.
"""

import numpy as np

from lagmech.mechanics import MechanicalSystem
from lagmech.phase import VerticalField
from tower import eval_jet, evolution_pass, metric_x_pass, push_direction, sym_invert, tower_vector
from tower import energy_parts as _energy_parts


def free_system(L) -> MechanicalSystem:
    """The unforced system of a bare scalar field."""
    return MechanicalSystem(L, VerticalField.zero(L.n), L.n)


def metric(L, p):
    """g = (1/2) d2L/dy2 with its inverse, from one order-2 jet."""
    return sym_invert(eval_jet(L, p, order=2).d_yy * 0.5)


def energy(L, p):
    """(E, dE/dx, dE/dy) from one order-2 jet."""
    return _energy_parts(eval_jet(L, p, order=2), tower_vector(p.y))


def canonical_spray(L, p):
    return evolution_pass(free_system(L), p)[4]


def canonical_connection(L, p):
    """N0 as the y-Jacobian of the canonical spray."""
    return push_direction(lambda q: canonical_spray(L, q), p, np.eye(p.n), wrt="y")


def evolution_spray(sys, p):
    return evolution_pass(sys, p)[5]


def evolution_connection(sys, p):
    """N as the y-Jacobian of the evolution spray."""
    return push_direction(lambda q: evolution_spray(sys, q), p, np.eye(p.n), wrt="y")


def sigma(sys, p):
    _, g, _, v, _, _ = evolution_pass(sys, p)
    return g.entries @ v


def cartan(L, p):
    """C = (1/4) d3L/dy3 from an order-3 jet."""
    return eval_jet(L, p, order=3).d_yyy * 0.25


def dyn_cov_deriv_g(L, p, spray, conn) -> np.ndarray:
    """S(g_ij) - g_im N^m_j - g_mj N^m_i along a (spray, conn) pair, with
    S(g_ij) = y^k dg_ij/dx_k - 2 G^k dg_ij/dy_k.

    Position derivatives of g come from one x-seeded jet of L; fiber
    derivatives are read off the third-order jet.
    """
    j3 = eval_jet(L, p, order=3)
    dgdx = metric_x_pass(L, p)[1]
    yv = tower_vector(p.y)
    g = j3.d_yy * 0.5
    s_g = dgdx @ yv - j3.d_yyy @ np.asarray(spray, dtype=float)
    gn = g @ np.asarray(conn, dtype=float)
    return s_g - gn - gn.T
