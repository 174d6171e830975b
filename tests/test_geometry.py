"""Pointwise canonical geometry: metric, energy, forms, spray, connection."""

import math

import numpy as np
import pytest

from lagmech.dsl import bind_scalar, parse
from lagmech.errors import SingularMetric
from lagmech.jets import eval_jet
from tower import call, push_direction
from lagmech.mechanics import PointGeometry
from lagmech.phase import PhasePoint
from lagmech.systems import instantiate, standard_samples
from oracle import fd_oracle
import routes

SQRT2 = math.sqrt(2.0)


def field(source, n):
    return bind_scalar(parse(source, n), n)


def euclid_L():
    return field("y1*y1 + y2*y2", 2)


def free_at(L, p):
    """The canonical geometry of L at p: the context of the unforced system."""
    return PointGeometry(routes.free_system(L), p)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_metric_euclidean_identity():
    g = free_at(euclid_L(), PhasePoint((0.3, -2.0), (1.0, 0.2))).metric
    assert np.array_equal(g.entries, np.eye(2))


def test_metric_sys_b_diagonal(sys_b):
    g = PointGeometry(sys_b.free(), PhasePoint((1.0, 0.0), (0.5, 0.5))).metric
    assert np.abs(g.entries - np.diag([2.0, 1.0])).max() < 1e-14


def test_metric_cross_term_regular():
    L = field("y1*y2", 2)
    g = free_at(L, PhasePoint((0.0, 0.0), (1.0, 1.0))).metric
    assert np.abs(g.entries - np.array([[0.0, 0.5], [0.5, 0.0]])).max() < 1e-15
    assert np.abs(g.inverse - np.array([[0.0, 2.0], [2.0, 0.0]])).max() < 1e-14


def test_metric_singular_on_quartic_axis(sys_c):
    with pytest.raises(SingularMetric):
        PointGeometry(sys_c.free(), PhasePoint((0.0, 0.0), (1.0, 0.0)))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_homogeneous_equals_lagrangian(sys_c, samples_c):
    for p in samples_c[:20]:
        e = PointGeometry(sys_c.free(), p).energy
        lval = call(sys_c.L, p.x, p.y)
        assert abs(e - lval) <= 1e-10 * (1.0 + abs(lval))


def test_energy_oscillator_value(sys_a, p_oscillator):
    # E = y dL/dy - L = 2y^2 - (y^2 - x^2) = y^2 + x^2 = 5 at (1, 2)
    ctx = PointGeometry(sys_a.free(), p_oscillator)
    e, de = ctx.energy, ctx.dE
    assert e == pytest.approx(5.0, abs=1e-14)
    assert de[0] == pytest.approx(2.0, abs=1e-14)  # dE/dx = 2x
    assert de[1] == pytest.approx(4.0, abs=1e-14)  # dE/dy = 2y


def test_energy_constant_lagrangian():
    # a constant L has no metric, so no context: read the reference route
    L = field("4.5", 1)
    p = PhasePoint((0.2,), (1.7,))
    e, de_x, de_y = routes.energy(L, p)
    assert e == -4.5
    assert np.all(de_x == 0.0) and np.all(de_y == 0.0)
    with pytest.raises(SingularMetric):
        free_at(L, p)


# ---------------------------------------------------------------------------
# two-form
# ---------------------------------------------------------------------------


def test_two_form_vanishes_on_equal_arguments(sys_b, rng):
    ctx = PointGeometry(sys_b.free(), PhasePoint((0.4, -0.3), (1.0, 0.7)))
    for _ in range(10):
        X = rng.normal(size=4)
        assert ctx.omega(X, X) == 0.0


def test_two_form_euclid_canonical_pairing():
    p = PhasePoint((0.0, 0.0), (1.0, 1.0))
    X = np.array([0.0, 0.0, 1.0, 0.0])  # d/dy1
    Y = np.array([1.0, 0.0, 0.0, 0.0])  # d/dx1
    assert free_at(euclid_L(), p).omega(X, Y) == pytest.approx(2.0)


def test_two_form_antisymmetry(sys_b, rng):
    ctx = PointGeometry(sys_b.free(), PhasePoint((0.9, 0.1), (0.6, -1.1)))
    for _ in range(100):
        X = rng.normal(size=4)
        Y = rng.normal(size=4)
        w1 = ctx.omega(X, Y)
        w2 = ctx.omega(Y, X)
        assert abs(w1 + w2) <= 1e-12 * (1.0 + abs(w1))


def test_two_form_adapted_basis_formula(sys_b, rng):
    # against 2 g_ij (delta y)^j wedge dx^i with the canonical connection
    ctx = PointGeometry(sys_b.free(), PhasePoint((1.1, -0.4), (0.8, 1.3)))
    g = ctx.metric.entries
    n0 = ctx.conn0

    def adapted(X, Y):
        dyx = X[2:] + n0.dot(X[:2])
        dyy = Y[2:] + n0.dot(Y[:2])
        return 2.0 * (Y[:2].dot(g).dot(dyx) - X[:2].dot(g).dot(dyy))

    for _ in range(100):
        X = rng.normal(size=4)
        Y = rng.normal(size=4)
        w = ctx.omega(X, Y)
        assert abs(w - adapted(X, Y)) <= 1e-8 * (1.0 + abs(w))


# ---------------------------------------------------------------------------
# canonical spray and connection
# ---------------------------------------------------------------------------


def test_spray_euclid_zero():
    s = free_at(euclid_L(), PhasePoint((0.5, 0.5), (1.0, -2.0))).spray0
    assert np.all(s == 0.0)


def test_spray_oscillator_value(sys_a, p_oscillator):
    # quarter of g^-1 (0 - dL/dx) = (1/4)(2x) = x/2
    s = PointGeometry(sys_a.free(), p_oscillator).spray0
    assert s[0] == pytest.approx(0.5, abs=1e-14)


def test_spray_x_independent_finsler_zero(sys_c, samples_c):
    for p in samples_c[:10]:
        assert np.abs(PointGeometry(sys_c.free(), p).spray0).max() == 0.0


def test_connection_euclid_zero():
    n0 = free_at(euclid_L(), PhasePoint((0.0, 0.0), (1.0, 1.0))).conn0
    assert np.all(n0 == 0.0)


def test_connection_oscillator_y_independent(sys_a, p_oscillator):
    n0 = PointGeometry(sys_a.free(), p_oscillator).conn0
    assert np.abs(n0).max() <= 1e-14


def test_connection_matches_fd_jacobian(sys_b):
    p = PhasePoint((1.0, 0.0), (1.0, 1.0))
    n0 = PointGeometry(sys_b.free(), p).conn0
    assert n0[0, 0] == pytest.approx(0.5, rel=1e-12)  # x y1 / (1 + x^2) at x=1, y1=1
    h = 1e-5
    for j in range(2):
        dy = np.zeros(2)
        dy[j] = h
        up = PointGeometry(sys_b.free(), PhasePoint(p.x, np.array(p.y) + dy)).spray0
        dn = PointGeometry(sys_b.free(), PhasePoint(p.x, np.array(p.y) - dy)).spray0
        fd = (up - dn) / (2.0 * h)
        assert np.abs(n0[:, j] - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


# ---------------------------------------------------------------------------
# Cartan tensor
# ---------------------------------------------------------------------------


def test_cartan_zero_for_quadratic(sys_b):
    c = PointGeometry(sys_b.free(), PhasePoint((0.7, 0.2), (1.0, -0.6))).cartan
    assert np.all(c == 0.0)


def test_cartan_quartic_vs_fd(sys_c):
    p = PhasePoint((0.0, 0.0), (1.0, 1.0))
    c = PointGeometry(sys_c.free(), p).cartan
    fd = fd_oracle(sys_c.L, p, order=3, h=1e-5)
    assert np.abs(c - 0.25 * fd.d_yyy).max() <= 1e-5 * (1.0 + np.abs(fd.d_yyy).max())


def test_cartan_total_symmetry(sys_c, samples_c):
    for p in samples_c[:6]:
        c = PointGeometry(sys_c.free(), p).cartan
        for perm in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
            assert np.array_equal(c, c.transpose(perm))


# ---------------------------------------------------------------------------
# defining equation of the spray
# ---------------------------------------------------------------------------


def test_spray_equation_euclid():
    assert free_at(euclid_L(), PhasePoint((0.2, 0.4), (1.0, -1.0))).evolution_equation_residual() <= 1e-12


def test_spray_equation_oscillator(sys_a, p_oscillator):
    assert PointGeometry(sys_a.free(), p_oscillator).evolution_equation_residual() <= 1e-9


def test_spray_equation_sys_b_sweep(sys_b, rng):
    for _ in range(100):
        p = PhasePoint(rng.uniform(-1.5, 1.5, 2), rng.uniform(-2.0, 2.0, 2))
        assert PointGeometry(sys_b.free(), p).evolution_equation_residual() <= 1e-8


# ---------------------------------------------------------------------------
# dynamical derivative of the metric
# ---------------------------------------------------------------------------


def test_dyn_cov_euclid_zero():
    ctx = free_at(euclid_L(), PhasePoint((0.1, 0.9), (1.0, 2.0)))
    assert np.all(ctx.dyn_cov_deriv_g(ctx.spray0, ctx.conn0) == 0.0)


@pytest.mark.parametrize("builtin,params", [
    ("SYS-A", {"c": 0.1}), ("SYS-B", {}), ("SYS-C", {}), ("EUCLID", {"n": 2}),
])
def test_canonical_pair_is_metric(builtin, params):
    sys_ = instantiate(builtin, params)
    for p in standard_samples(builtin, params, count=25):
        ctx = PointGeometry(sys_.free(), p)
        gbar = ctx.dyn_cov_deriv_g(ctx.spray0, ctx.conn0)
        assert np.abs(gbar).max() <= 1e-8 * (1.0 + np.abs(ctx.metric.entries).max())


def test_bundle_consistency(sys_b):
    p = PhasePoint((0.8, -0.5), (1.2, 0.4))
    ctx = PointGeometry(sys_b.free(), p)
    jac = push_direction(lambda q: routes.canonical_spray(sys_b.L, q), p, np.eye(2))
    assert np.abs(ctx.conn0 - jac).max() <= 1e-10
    assert ctx.energy == pytest.approx(routes.energy(sys_b.L, p)[0])


def test_free_context_equals_the_reference_routes(sys_b, sys_c, samples_b, samples_c):
    # the context's one pass gives the bits of the jet program at every
    # order, and what the reference tower's single-quantity routes give to
    # 1e-12
    blocks = ("value", "d_x", "d_y", "d_yy", "d_xy", "d_yyy")
    for sys_, samples in ((sys_b, samples_b), (sys_c, samples_c)):
        for p in samples[:4]:
            ctx = PointGeometry(sys_.free(), p)
            for order, count in ((0, 1), (1, 3), (2, 5), (3, 6)):
                j = eval_jet(sys_.L, p, order=order)
                for name in blocks[:count]:
                    assert np.array_equal(getattr(ctx.jet, name), getattr(j, name)), (order, name)
            g = routes.metric(sys_.L, p)
            e, de_x, de_y = routes.energy(sys_.L, p)
            pairs = [(ctx.metric.entries, g.entries), (ctx.metric.inverse, g.inverse),
                     (ctx.energy, e), (ctx.dE, np.concatenate([de_x, de_y])),
                     (ctx.spray0, routes.canonical_spray(sys_.L, p)),
                     (ctx.conn0, routes.canonical_connection(sys_.L, p)),
                     (ctx.cartan, routes.cartan(sys_.L, p))]
            for a, b in pairs:
                assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max())
