"""Forced systems: sigma, evolution pair, dissipation, classification."""

import math

import numpy as np
import pytest

from lagmech.dsl import bind_scalar, bind_vertical, parse
from lagmech.geometry import cartan_tensor_at, metric_at
from lagmech.mechanics import (
    MechanicalSystem,
    classify,
    dissipation_power,
    evolution_bundle_at,
    evolution_connection_at,
    evolution_equation_residual,
    evolution_spray_at,
    first_integral_conditions,
    horizontal_dE,
    horizontal_dL,
    lie_theta_residual,
    sigma_at,
    symplectic_defect,
)
from lagmech.phase import PhasePoint
from lagmech.systems import instantiate, standard_samples

SQRT2 = math.sqrt(2.0)
# sigma of the normalized Liouville force at y=(1,1) on the quartic-root
# base: (e/F) (g y)_i = e * 2^(-3/4) per component
SIGMA_D_UNIT = 2.0 ** (-0.75)


def forced_sys_b():
    """SYS-B base with a polynomial velocity-dependent force."""
    base = instantiate("SYS-B")
    V = bind_vertical([parse("0.3*y2^2 - x1*y1", 2), parse("0.1*y1*y2", 2)], 2)
    return MechanicalSystem(base.L, V, 2, label="SYS-B+poly")


def quartic_lagrange_base(e=-1.0):
    """A Lagrange (non-homogeneous) base with nonzero Cartan contraction,
    carrying the Liouville force V = e y."""
    n = 2
    L = bind_scalar(parse("y1^2 + y2^2 + 0.25*y1^4", n), n)
    V = bind_vertical([parse(f"({e})*y{i}", n) for i in (1, 2)], n)
    return MechanicalSystem(L, V, n, params={"e": e}, label="liouville-lagrange")


# ---------------------------------------------------------------------------
# sigma and power
# ---------------------------------------------------------------------------


def test_sigma_zero_force(sys_b):
    p = PhasePoint((0.5, 0.5), (1.0, 2.0))
    assert np.all(sigma_at(sys_b, p) == 0.0)


def test_sigma_euclid_liouville(sys_e_euclid):
    p = PhasePoint((0.0, 0.0), (1.0, 2.0))
    s = sigma_at(sys_e_euclid, p)
    assert np.abs(s - np.array([-0.5, -1.0]) * 2.0).max() < 1e-14  # g=I, V=-y => sigma=-y
    # e = -0.5 variant of the worked example
    half = instantiate("SYS-E", {"e": -0.5, "base": "EUCLID"})
    assert np.abs(sigma_at(half, p) - np.array([-0.5, -1.0])).max() < 1e-14


def test_sigma_normalized_liouville(sys_d):
    p = PhasePoint((0.0, 0.0), (1.0, 1.0))
    s = sigma_at(sys_d, p)
    assert np.abs(s - (-0.5) * SIGMA_D_UNIT).max() <= 1e-10


def test_power_identity_two_routes(sys_d, samples_c):
    for p in samples_c[:15]:
        g = metric_at(sys_d.L, p)
        v = np.array(sys_d.V.at(p))
        yv = np.array([float(t) for t in p.y])
        direct = yv.dot(g.entries).dot(v)
        assert abs(dissipation_power(sys_d, p) - direct) <= 1e-10 * (1.0 + abs(direct))


def test_power_oscillator(sys_a, p_oscillator):
    assert dissipation_power(sys_a, p_oscillator) == pytest.approx(-0.8, abs=1e-14)


def test_power_liouville_finsler(sys_e_finsler, samples_c):
    # power = e F^2 for V = e y over a homogeneous base
    for p in samples_c[:15]:
        f2 = sys_e_finsler.L.at(p)
        assert dissipation_power(sys_e_finsler, p) == pytest.approx(-f2, rel=1e-12)


# ---------------------------------------------------------------------------
# evolution spray and connection
# ---------------------------------------------------------------------------


def test_evolution_spray_free_reduces(sys_b):
    from lagmech.geometry import canonical_spray_at

    p = PhasePoint((1.0, 0.2), (0.5, 1.0))
    assert np.array_equal(evolution_spray_at(sys_b, p),
                          canonical_spray_at(sys_b.L, p))


def test_evolution_spray_oscillator(sys_a, p_oscillator):
    # G = G0 - V/4 = 0.5 - (-0.4)/4 = 0.6
    assert evolution_spray_at(sys_a, p_oscillator)[0] == pytest.approx(0.6, abs=1e-14)


def test_evolution_connection_liouville_shift(sys_e_euclid):
    p = PhasePoint((0.0, 0.0), (1.0, 2.0))
    n = evolution_connection_at(sys_e_euclid, p)
    assert np.abs(n - 0.25 * np.eye(2)).max() <= 1e-10


def test_evolution_connection_dual_route(rng):
    sys_ = forced_sys_b()
    for _ in range(5):
        p = PhasePoint(rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.5, 1.5, 2))
        n = evolution_connection_at(sys_, p)  # internal 1e-10 cross-check
        assert np.isfinite(n).all()


def test_evolution_connection_finsler_liouville(sys_e_finsler, samples_c):
    from lagmech.geometry import canonical_connection_at

    for p in samples_c[:8]:
        n = evolution_connection_at(sys_e_finsler, p)
        n0 = canonical_connection_at(sys_e_finsler.L, p)
        assert np.abs(n - n0 - 0.25 * np.eye(2)).max() <= 1e-10


# ---------------------------------------------------------------------------
# defining equation with force
# ---------------------------------------------------------------------------


def test_evolution_equation_free_matches_spray_equation(sys_b):
    from lagmech.geometry import spray_equation_residual

    p = PhasePoint((0.4, 0.6), (1.1, -0.3))
    assert evolution_equation_residual(sys_b, p) == pytest.approx(
        spray_equation_residual(sys_b.L, p), abs=1e-15
    )


def test_evolution_equation_oscillator(sys_a, p_oscillator):
    assert evolution_equation_residual(sys_a, p_oscillator) <= 1e-9


def test_evolution_equation_sys_d_sweep(sys_d):
    for p in standard_samples("SYS-D", {"e": -0.5}, count=100):
        assert evolution_equation_residual(sys_d, p) <= 1e-8


# ---------------------------------------------------------------------------
# evolution bundle: decomposition, helicoidal, gbar
# ---------------------------------------------------------------------------


def test_bundle_zero_force(sys_b):
    b = evolution_bundle_at(sys_b, PhasePoint((0.4, 0.1), (1.0, 0.5)))
    assert np.all(b.sigma == 0.0)
    assert np.all(b.helicoidal == 0.0)
    assert np.all(b.gbar == 0.0)
    assert b.power == 0.0


def test_bundle_decomposition_identity(sys_d, samples_c):
    for p in samples_c[:10]:
        b = evolution_bundle_at(sys_d, p)
        j = b.dsigma_dy
        assert np.abs(4.0 * b.gbar - (j + j.T)).max() <= 1e-12
        assert np.abs(2.0 * b.helicoidal - (j - j.T)).max() <= 1e-12
        assert np.array_equal(b.helicoidal, -b.helicoidal.T)
        assert np.array_equal(b.gbar, b.gbar.T)


def test_bundle_liouville_lagrange_base(rng):
    # For V = e y the force one-form derivative is e (2 C_ijk y^k + g_ij),
    # so the metric derivative along the evolution pair is e/2 times that.
    sys_ = quartic_lagrange_base(e=-1.0)
    for _ in range(6):
        p = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(0.3, 1.5, 2))
        b = evolution_bundle_at(sys_, p)
        g = metric_at(sys_.L, p).entries
        c = cartan_tensor_at(sys_.L, p)
        yv = np.array([float(v) for v in p.y])
        expected = (-1.0 / 2.0) * (2.0 * c.dot(yv) + g)
        assert np.abs(b.gbar - expected).max() <= 1e-8


def test_bundle_sys_d_helicoidal_vanishes(sys_d, samples_c):
    for p in samples_c[:20]:
        b = evolution_bundle_at(sys_d, p)
        assert np.abs(b.helicoidal).max() <= 1e-10


def test_bundle_liouville_finsler_gbar(sys_e_finsler, samples_c):
    for p in samples_c[:20]:
        b = evolution_bundle_at(sys_e_finsler, p)
        g = metric_at(sys_e_finsler.L, p).entries
        assert np.abs(b.gbar - (-0.5) * g).max() <= 1e-8 * (1.0 + np.abs(g).max())


# ---------------------------------------------------------------------------
# symplectic compatibility
# ---------------------------------------------------------------------------


def test_symplectic_defect_free(sys_b):
    assert symplectic_defect(sys_b, PhasePoint((0.7, -0.2), (0.9, 1.4))) <= 1e-8


def test_symplectic_defect_liouville(sys_e_finsler, samples_c):
    for p in samples_c[:10]:
        assert symplectic_defect(sys_e_finsler, p) <= 1e-8


def test_symplectic_defect_matches_helicoidal():
    sys_ = forced_sys_b()
    p = PhasePoint((0.6, 0.3), (1.0, 0.8))
    d = symplectic_defect(sys_, p)  # internal sign cross-check runs
    b = evolution_bundle_at(sys_, p)
    assert d == pytest.approx(np.abs(b.helicoidal).max(), rel=1e-9)
    assert d > 1e-3  # this force is genuinely non-symplectic


# ---------------------------------------------------------------------------
# horizontal derivatives and first integrals
# ---------------------------------------------------------------------------


def test_horizontal_dl_euclid_free(euclid):
    out = horizontal_dL(euclid, PhasePoint((0.2, 0.8), (1.0, -1.0)))
    assert np.abs(out).max() <= 1e-14


def test_horizontal_dl_zero_homogeneous_force(sys_d, samples_c):
    # contraction with y vanishes: L is constant along horizontal curves
    for p in samples_c[:10]:
        out = horizontal_dL(sys_d, p)
        yv = np.array([float(v) for v in p.y])
        assert abs(out.dot(yv)) <= 1e-8


def test_horizontal_dl_routes_agree_forced():
    sys_ = forced_sys_b()
    out = horizontal_dL(sys_, PhasePoint((0.5, -0.1), (1.2, 0.7)))
    assert np.isfinite(out).all()


def test_horizontal_de_euclid_free(euclid):
    out = horizontal_dE(euclid, PhasePoint((0.0, 0.0), (1.0, 2.0)))
    assert np.abs(out).max() <= 1e-14


def test_horizontal_de_sys_d_vanishes(sys_d, samples_c):
    for p in samples_c[:10]:
        assert np.abs(horizontal_dE(sys_d, p)).max() <= 1e-8


def test_horizontal_de_finsler_force_term(sys_e_finsler, samples_c):
    from lagmech.jets import push_direction

    V = sys_e_finsler.V
    for p in samples_c[:8]:
        out = horizontal_dE(sys_e_finsler, p)
        g = metric_at(sys_e_finsler.L, p).entries
        yv = np.array([float(v) for v in p.y])
        dv_dy = push_direction(lambda q: V(q.x, q.y), p, np.eye(2))
        rhs = 0.5 * g.dot(yv).dot(dv_dy)
        assert np.abs(out - rhs).max() <= 1e-8


def test_first_integrals_zero_homogeneous(sys_d, samples_c):
    for p in samples_c[:10]:
        res_l, res_e = first_integral_conditions(sys_d, p)
        assert abs(res_l) <= 1e-8
        assert abs(res_e) <= 1e-8


def test_first_integrals_euclid_free(euclid):
    res_l, res_e = first_integral_conditions(euclid, PhasePoint((0.1, 0.1), (1.0, 2.0)))
    assert res_l == 0.0
    assert res_e == 0.0


def test_horizontal_dl_contraction_identity(sys_a, sys_d, samples_c, rng):
    # contracting the horizontal derivative of L with y must reproduce
    # (1/2) [ C(S0 L) + (1/2) (dV/dy y) . dL/dy ] for any force
    from lagmech.jets import eval_jet, push_direction

    cases = [(sys_a, [PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(0.5, 2, 1))
                      for _ in range(5)]),
             (sys_d, samples_c[:5])]
    for sys_, pts in cases:
        for p in pts:
            out = horizontal_dL(sys_, p)
            yv = np.array([float(v) for v in p.y])
            lhs = 2.0 * out.dot(yv)
            from lagmech.mechanics import _evolution_pass, _scalar_s

            def scalar_sl_free(q):
                r = _evolution_pass(sys_, q)
                return _scalar_s(r, r.spray0)

            theta = eval_jet(sys_.L, p, order=1).d_y
            csl = push_direction(scalar_sl_free, p, list(yv), wrt="y")
            dvy = push_direction(lambda q: sys_.V(q.x, q.y), p, list(yv), wrt="y")
            rhs = csl + 0.5 * dvy.dot(theta)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_first_integrals_oscillator_nonzero(sys_a, p_oscillator):
    # independent evaluation at (1, 2), c=0.1:
    #   L-condition: (dV/dy y) dL/dy + 2 (d(S0 L)/dy) y
    #     = (-0.4)(4) + 2 (-4 x y)'_y y = -1.6 - 16 = -17.6
    #   E-condition: g (dV/dy) y y + 4 g (2 G0 - N0 y) y = -0.8 + 8 = 7.2
    res_l, res_e = first_integral_conditions(sys_a, p_oscillator)
    assert res_l == pytest.approx(-17.6, abs=1e-10)
    assert res_e == pytest.approx(7.2, abs=1e-10)


# ---------------------------------------------------------------------------
# Cartan 1-form transport
# ---------------------------------------------------------------------------


def test_lie_theta_euclid(euclid):
    assert lie_theta_residual(euclid, PhasePoint((0.3, 0.3), (1.0, -2.0))) <= 1e-12


def test_lie_theta_oscillator_sweep(sys_a, rng):
    for _ in range(100):
        p = PhasePoint(rng.uniform(-1.5, 1.5, 1), rng.uniform(-2, 2, 1))
        assert lie_theta_residual(sys_a, p) <= 1e-8


def test_lie_theta_sys_d_sweep(sys_d, rng):
    for _ in range(100):
        y = rng.uniform(0.3, 2.0, 2)
        p = PhasePoint(rng.uniform(-1, 1, 2), y)
        assert lie_theta_residual(sys_d, p) <= 1e-7


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_free_system(sys_b, samples_b):
    rep = classify(sys_b, samples_b[:30])
    assert rep.is_metric and rep.is_symplectic
    assert rep.dissipative_at_samples["worst_power"] == 0.0
    assert rep.dissipative_at_samples["weak"] is True
    assert rep.dissipative_at_samples["strict"] is False


def test_classify_sys_d(samples_c, sys_d):
    rep = classify(sys_d, samples_c[:30])
    assert rep.is_symplectic
    assert not rep.is_metric
    assert rep.dissipative_at_samples["strict"] is True
    rising = instantiate("SYS-D", {"e": 0.5})
    rep2 = classify(rising, samples_c[:30])
    assert rep2.dissipative_at_samples["weak"] is False


def test_classify_liouville_euclid_not_metric(sys_e_euclid):
    samples = standard_samples("SYS-E", {"e": -1.0, "base": "EUCLID"}, count=30)
    rep = classify(sys_e_euclid, samples)
    assert not rep.is_metric          # metric is 0-homogeneous, not (-1)
    assert rep.is_symplectic
    assert rep.dissipative_at_samples["strict"] is True


def test_classify_collects_failures(sys_c):
    pts = [PhasePoint((0.0, 0.0), (1.0, 0.0)),  # metric singular on the axis
           PhasePoint((0.0, 0.0), (1.0, 1.0))]
    rep = classify(sys_c, pts)
    assert rep.points_tested == 1
    assert len(rep.failures) == 1
    assert rep.failures[0]["error"] == "SingularMetric"


def test_report_serialization_fields(sys_d, samples_c):
    d = classify(sys_d, samples_c[:5]).to_dict()
    for key in ("dissipative_at_samples", "metric_defect", "symplectic_defect",
                "is_metric", "is_symplectic", "tolerances"):
        assert key in d


# ---------------------------------------------------------------------------
# verify reports a route disagreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("owner, target, residual", [
    ("PointGeometry", "gbar", "metric_derivative_agreement"),
    ("PointGeometry", "dyn_cov_deriv_g", "metric_derivative_agreement"),
    ("PointGeometry", "helicoidal", "symplectic_vs_helicoidal"),
    ("verify", "_horizontal_two_form", "symplectic_vs_helicoidal"),
    ("PointGeometry", "horizontal_dL", "lagrangian_horizontal_routes"),
    ("PointGeometry", "dSL_dy", "lagrangian_horizontal_routes"),
    ("PointGeometry", "horizontal_dE", "energy_horizontal_routes"),
    ("PointGeometry", "horizontal_dE_closed", "energy_horizontal_routes"),
])
def test_route_disagreement_is_a_verify_offender(monkeypatch, sys_d, owner, target, residual):
    # shift one side of a route comparison by one unit so the two disagree
    import inspect
    from functools import cached_property

    from lagmech import mechanics, verify

    samples = standard_samples("SYS-D", {"e": -0.5}, count=4)
    assert verify.run_verification(sys_d, samples)["offenders"] == []
    obj = mechanics.PointGeometry if owner == "PointGeometry" else verify
    original = inspect.getattr_static(obj, target)
    if isinstance(original, property):
        shifted = property(lambda self: original.fget(self) + 1.0)
    elif isinstance(original, cached_property):
        shifted = property(lambda self: original.func(self) + 1.0)
    else:
        shifted = lambda *a, **kw: original(*a, **kw) + 1.0  # noqa: E731
    monkeypatch.setattr(obj, target, shifted)
    assert residual in verify.run_verification(sys_d, samples)["offenders"]
