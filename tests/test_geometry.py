"""Pointwise canonical geometry: metric, energy, forms, spray, connection."""

import math

import numpy as np
import pytest

from lagmech.errors import SingularMetric
from lagmech.geometry import (
    canonical_connection_at,
    canonical_spray_at,
    cartan_tensor_at,
    dyn_cov_deriv_g,
    energy_at,
    lagrange_geometry,
    metric_at,
    spray_equation_residual,
    two_form_eval,
)
from lagmech.jets import push_direction
from lagmech.phase import PhasePoint, ScalarField
from lagmech.systems import instantiate, standard_samples
from oracle import fd_oracle

SQRT2 = math.sqrt(2.0)


def euclid_L():
    return ScalarField(2, lambda x, y: y[0] * y[0] + y[1] * y[1])


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_metric_euclidean_identity():
    g = metric_at(euclid_L(), PhasePoint((0.3, -2.0), (1.0, 0.2)))
    assert np.array_equal(g.entries, np.eye(2))


def test_metric_sys_b_diagonal(sys_b):
    g = metric_at(sys_b.L, PhasePoint((1.0, 0.0), (0.5, 0.5)))
    assert np.abs(g.entries - np.diag([2.0, 1.0])).max() < 1e-14


def test_metric_cross_term_regular():
    L = ScalarField(2, lambda x, y: y[0] * y[1])
    g = metric_at(L, PhasePoint((0.0, 0.0), (1.0, 1.0)))
    assert np.abs(g.entries - np.array([[0.0, 0.5], [0.5, 0.0]])).max() < 1e-15
    assert np.abs(g.inverse - np.array([[0.0, 2.0], [2.0, 0.0]])).max() < 1e-14


def test_metric_singular_on_quartic_axis(sys_c):
    with pytest.raises(SingularMetric):
        metric_at(sys_c.L, PhasePoint((0.0, 0.0), (1.0, 0.0)))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_homogeneous_equals_lagrangian(sys_c, samples_c):
    for p in samples_c[:20]:
        e, _ = energy_at(sys_c.L, p)
        lval = sys_c.L.at(p)
        assert abs(e - lval) <= 1e-10 * (1.0 + abs(lval))


def test_energy_oscillator_value(sys_a, p_oscillator):
    # E = y dL/dy - L = 2y^2 - (y^2 - x^2) = y^2 + x^2 = 5 at (1, 2)
    e, de = energy_at(sys_a.L, p_oscillator)
    assert e == pytest.approx(5.0, abs=1e-14)
    assert de[0] == pytest.approx(2.0, abs=1e-14)  # dE/dx = 2x
    assert de[1] == pytest.approx(4.0, abs=1e-14)  # dE/dy = 2y


def test_energy_constant_lagrangian():
    L = ScalarField(1, lambda x, y: 4.5)
    e, de = energy_at(L, PhasePoint((0.2,), (1.7,)))
    assert e == -4.5
    assert np.all(de == 0.0)


# ---------------------------------------------------------------------------
# two-form
# ---------------------------------------------------------------------------


def test_two_form_vanishes_on_equal_arguments(sys_b, rng):
    p = PhasePoint((0.4, -0.3), (1.0, 0.7))
    for _ in range(10):
        X = rng.normal(size=4)
        assert two_form_eval(sys_b.L, p, X, X) == 0.0


def test_two_form_euclid_canonical_pairing():
    p = PhasePoint((0.0, 0.0), (1.0, 1.0))
    X = np.array([0.0, 0.0, 1.0, 0.0])  # d/dy1
    Y = np.array([1.0, 0.0, 0.0, 0.0])  # d/dx1
    assert two_form_eval(euclid_L(), p, X, Y) == pytest.approx(2.0)


def test_two_form_antisymmetry(sys_b, rng):
    p = PhasePoint((0.9, 0.1), (0.6, -1.1))
    for _ in range(100):
        X = rng.normal(size=4)
        Y = rng.normal(size=4)
        w1 = two_form_eval(sys_b.L, p, X, Y)
        w2 = two_form_eval(sys_b.L, p, Y, X)
        assert abs(w1 + w2) <= 1e-12 * (1.0 + abs(w1))


def test_two_form_adapted_basis_formula(sys_b, rng):
    # against 2 g_ij (delta y)^j wedge dx^i with the canonical connection
    p = PhasePoint((1.1, -0.4), (0.8, 1.3))
    g = metric_at(sys_b.L, p).entries
    n0 = canonical_connection_at(sys_b.L, p)

    def adapted(X, Y):
        dyx = X[2:] + n0.dot(X[:2])
        dyy = Y[2:] + n0.dot(Y[:2])
        return 2.0 * (Y[:2].dot(g).dot(dyx) - X[:2].dot(g).dot(dyy))

    for _ in range(100):
        X = rng.normal(size=4)
        Y = rng.normal(size=4)
        w = two_form_eval(sys_b.L, p, X, Y)
        assert abs(w - adapted(X, Y)) <= 1e-8 * (1.0 + abs(w))


# ---------------------------------------------------------------------------
# canonical spray and connection
# ---------------------------------------------------------------------------


def test_spray_euclid_zero():
    s = canonical_spray_at(euclid_L(), PhasePoint((0.5, 0.5), (1.0, -2.0)))
    assert np.all(s == 0.0)


def test_spray_oscillator_value(sys_a, p_oscillator):
    # quarter of g^-1 (0 - dL/dx) = (1/4)(2x) = x/2
    s = canonical_spray_at(sys_a.L, p_oscillator)
    assert s[0] == pytest.approx(0.5, abs=1e-14)


def test_spray_x_independent_finsler_zero(sys_c, samples_c):
    for p in samples_c[:10]:
        assert np.abs(canonical_spray_at(sys_c.L, p)).max() == 0.0


def test_connection_euclid_zero():
    n0 = canonical_connection_at(euclid_L(), PhasePoint((0.0, 0.0), (1.0, 1.0)))
    assert np.all(n0 == 0.0)


def test_connection_oscillator_y_independent(sys_a, p_oscillator):
    n0 = canonical_connection_at(sys_a.L, p_oscillator)
    assert np.abs(n0).max() <= 1e-14


def test_connection_matches_fd_jacobian(sys_b):
    p = PhasePoint((1.0, 0.0), (1.0, 1.0))
    n0 = canonical_connection_at(sys_b.L, p)
    assert n0[0, 0] == pytest.approx(0.5, rel=1e-12)  # x y1 / (1 + x^2) at x=1, y1=1
    h = 1e-5
    for j in range(2):
        dy = np.zeros(2)
        dy[j] = h
        up = canonical_spray_at(sys_b.L, PhasePoint(p.x, np.array(p.y) + dy))
        dn = canonical_spray_at(sys_b.L, PhasePoint(p.x, np.array(p.y) - dy))
        fd = (up - dn) / (2.0 * h)
        assert np.abs(n0[:, j] - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


# ---------------------------------------------------------------------------
# Cartan tensor
# ---------------------------------------------------------------------------


def test_cartan_zero_for_quadratic(sys_b):
    c = cartan_tensor_at(sys_b.L, PhasePoint((0.7, 0.2), (1.0, -0.6)))
    assert np.all(c == 0.0)


def test_cartan_quartic_vs_fd(sys_c):
    p = PhasePoint((0.0, 0.0), (1.0, 1.0))
    c = cartan_tensor_at(sys_c.L, p)
    fd = fd_oracle(sys_c.L, p, order=3, h=1e-5)
    assert np.abs(c - 0.25 * fd.d_yyy).max() <= 1e-5 * (1.0 + np.abs(fd.d_yyy).max())


def test_cartan_total_symmetry(sys_c, samples_c):
    for p in samples_c[:6]:
        c = cartan_tensor_at(sys_c.L, p)
        for perm in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
            assert np.array_equal(c, c.transpose(perm))


# ---------------------------------------------------------------------------
# defining equation of the spray
# ---------------------------------------------------------------------------


def test_spray_equation_euclid():
    assert spray_equation_residual(euclid_L(), PhasePoint((0.2, 0.4), (1.0, -1.0))) <= 1e-12


def test_spray_equation_oscillator(sys_a, p_oscillator):
    assert spray_equation_residual(sys_a.L, p_oscillator) <= 1e-9


def test_spray_equation_sys_b_sweep(sys_b, rng):
    for _ in range(100):
        p = PhasePoint(rng.uniform(-1.5, 1.5, 2), rng.uniform(-2.0, 2.0, 2))
        assert spray_equation_residual(sys_b.L, p) <= 1e-8


# ---------------------------------------------------------------------------
# dynamical derivative of the metric
# ---------------------------------------------------------------------------


def test_dyn_cov_euclid_zero():
    L = euclid_L()
    p = PhasePoint((0.1, 0.9), (1.0, 2.0))
    s = canonical_spray_at(L, p)
    n0 = canonical_connection_at(L, p)
    assert np.all(dyn_cov_deriv_g(L, p, s, n0) == 0.0)


@pytest.mark.parametrize("builtin,params", [
    ("SYS-A", {"c": 0.1}), ("SYS-B", {}), ("SYS-C", {}), ("EUCLID", {"n": 2}),
])
def test_canonical_pair_is_metric(builtin, params):
    sys_ = instantiate(builtin, params)
    for p in standard_samples(builtin, params, count=25):
        g = metric_at(sys_.L, p)
        s = canonical_spray_at(sys_.L, p)
        n0 = canonical_connection_at(sys_.L, p)
        gbar = dyn_cov_deriv_g(sys_.L, p, s, n0)
        assert np.abs(gbar).max() <= 1e-8 * (1.0 + np.abs(g.entries).max())


def test_bundle_consistency(sys_b):
    p = PhasePoint((0.8, -0.5), (1.2, 0.4))
    geo = lagrange_geometry(sys_b.L, p)
    jac = push_direction(lambda q: canonical_spray_at(sys_b.L, q), p, np.eye(2))
    assert np.abs(geo.conn0 - jac).max() <= 1e-10
    assert geo.E == pytest.approx(energy_at(sys_b.L, p)[0])
