"""Forced systems: sigma, evolution pair, dissipation, classification."""

import math

import numpy as np
import pytest

from lagmech.dsl import bind_scalar, bind_vertical, parse
from lagmech.errors import ConfigError, LagmechError
from lagmech.jets import eval_jet
from lagmech.mechanics import MechanicalSystem, PointGeometry, classify, stack_points
from lagmech.phase import PhasePoint, VerticalField
from lagmech.sampling import halton, sample_box
from lagmech.systems import instantiate, standard_samples
from lagmech.trajectories import IntegratorConfig
import routes
import tower
from residual_routes import horizontal_two_form, sode_residual

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
    assert np.all(PointGeometry(sys_b, p).sigma == 0.0)


def test_sigma_euclid_liouville(sys_e_euclid):
    p = PhasePoint((0.0, 0.0), (1.0, 2.0))
    s = PointGeometry(sys_e_euclid, p).sigma
    assert np.abs(s - np.array([-0.5, -1.0]) * 2.0).max() < 1e-14  # g=I, V=-y => sigma=-y
    # e = -0.5 variant of the worked example
    half = instantiate("SYS-E", {"e": -0.5, "base": "EUCLID"})
    assert np.abs(PointGeometry(half, p).sigma - np.array([-0.5, -1.0])).max() < 1e-14


def test_sigma_normalized_liouville(sys_d):
    p = PhasePoint((0.0, 0.0), (1.0, 1.0))
    s = PointGeometry(sys_d, p).sigma
    assert np.abs(s - (-0.5) * SIGMA_D_UNIT).max() <= 1e-10


def test_power_identity_two_routes(sys_d, samples_c):
    for p in samples_c[:15]:
        g = routes.metric(sys_d.L, p)
        v = np.array(tower.call(sys_d.V, p.x, p.y))
        yv = np.array([float(t) for t in p.y])
        direct = yv.dot(g.entries).dot(v)
        assert abs(PointGeometry(sys_d, p).power - direct) <= 1e-10 * (1.0 + abs(direct))


def test_power_oscillator(sys_a, p_oscillator):
    assert PointGeometry(sys_a, p_oscillator).power == pytest.approx(-0.8, abs=1e-14)


def test_power_liouville_finsler(sys_e_finsler, samples_c):
    # power = e F^2 for V = e y over a homogeneous base
    for p in samples_c[:15]:
        f2 = tower.call(sys_e_finsler.L, p.x, p.y)
        assert PointGeometry(sys_e_finsler, p).power == pytest.approx(-f2, rel=1e-12)


# ---------------------------------------------------------------------------
# evolution spray and connection
# ---------------------------------------------------------------------------


def test_evolution_spray_free_reduces(sys_b):
    p = PhasePoint((1.0, 0.2), (0.5, 1.0))
    assert np.array_equal(PointGeometry(sys_b, p).spray,
                          routes.canonical_spray(sys_b.L, p))


def test_evolution_spray_oscillator(sys_a, p_oscillator):
    # G = G0 - V/4 = 0.5 - (-0.4)/4 = 0.6
    assert PointGeometry(sys_a, p_oscillator).spray[0] == pytest.approx(0.6, abs=1e-14)


def test_evolution_connection_liouville_shift(sys_e_euclid):
    p = PhasePoint((0.0, 0.0), (1.0, 2.0))
    n = PointGeometry(sys_e_euclid, p).conn
    assert np.abs(n - 0.25 * np.eye(2)).max() <= 1e-10


def test_evolution_connection_dual_route(rng):
    sys_ = forced_sys_b()
    for _ in range(5):
        p = PhasePoint(rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.5, 1.5, 2))
        n = PointGeometry(sys_, p).conn  # internal 1e-10 cross-check
        assert np.isfinite(n).all()


def test_evolution_connection_finsler_liouville(sys_e_finsler, samples_c):
    for p in samples_c[:8]:
        n = PointGeometry(sys_e_finsler, p).conn
        n0 = PointGeometry(sys_e_finsler.free(), p).conn
        assert np.abs(n - n0 - 0.25 * np.eye(2)).max() <= 1e-10


# ---------------------------------------------------------------------------
# defining equation with force
# ---------------------------------------------------------------------------


def test_evolution_equation_free_matches_spray_equation(sys_b):
    ctx = PointGeometry(sys_b, PhasePoint((0.4, 0.6), (1.1, -0.3)))
    assert ctx.evolution_equation_residual() == pytest.approx(
        sode_residual(ctx.jet, ctx.y, ctx.spray0), abs=1e-15
    )


def test_evolution_equation_oscillator(sys_a, p_oscillator):
    assert PointGeometry(sys_a, p_oscillator).evolution_equation_residual() <= 1e-9


def test_evolution_equation_sys_d_sweep(sys_d):
    for p in standard_samples("SYS-D", {"e": -0.5}, count=100):
        assert PointGeometry(sys_d, p).evolution_equation_residual() <= 1e-8


# ---------------------------------------------------------------------------
# evolution bundle: decomposition, helicoidal, gbar
# ---------------------------------------------------------------------------


def test_bundle_zero_force(sys_b):
    b = PointGeometry(sys_b, PhasePoint((0.4, 0.1), (1.0, 0.5)))
    assert np.all(b.sigma == 0.0)
    assert np.all(b.helicoidal == 0.0)
    assert np.all(b.gbar == 0.0)
    assert b.power == 0.0


def test_bundle_decomposition_identity(sys_d, samples_c):
    for p in samples_c[:10]:
        b = PointGeometry(sys_d, p)
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
        b = PointGeometry(sys_, p)
        g = b.metric.entries
        c = b.cartan
        yv = np.array([float(v) for v in p.y])
        expected = (-1.0 / 2.0) * (2.0 * c.dot(yv) + g)
        assert np.abs(b.gbar - expected).max() <= 1e-8


def test_bundle_sys_d_helicoidal_vanishes(sys_d, samples_c):
    for p in samples_c[:20]:
        b = PointGeometry(sys_d, p)
        assert np.abs(b.helicoidal).max() <= 1e-10


def test_bundle_liouville_finsler_gbar(sys_e_finsler, samples_c):
    for p in samples_c[:20]:
        b = PointGeometry(sys_e_finsler, p)
        g = b.metric.entries
        assert np.abs(b.gbar - (-0.5) * g).max() <= 1e-8 * (1.0 + np.abs(g).max())


# ---------------------------------------------------------------------------
# symplectic compatibility
# ---------------------------------------------------------------------------


def test_symplectic_defect_free(sys_b):
    assert PointGeometry(sys_b, PhasePoint((0.7, -0.2), (0.9, 1.4))).symplectic_defect() <= 1e-8


def test_symplectic_defect_liouville(sys_e_finsler, samples_c):
    for p in samples_c[:10]:
        assert PointGeometry(sys_e_finsler, p).symplectic_defect() <= 1e-8


def test_symplectic_defect_matches_helicoidal():
    sys_ = forced_sys_b()
    p = PhasePoint((0.6, 0.3), (1.0, 0.8))
    d = PointGeometry(sys_, p).symplectic_defect()  # internal sign cross-check runs
    b = PointGeometry(sys_, p)
    assert d == pytest.approx(np.abs(b.helicoidal).max(), rel=1e-9)
    assert d > 1e-3  # this force is genuinely non-symplectic


def magnetic_sys():
    """A Lagrangian whose mixed block d2L/dy dx is not symmetric (the
    magnetic terms x1 y2 - x2 y1 / 2), with a velocity-dependent force."""
    n = 2
    L = bind_scalar(parse("(1 + x2^2)*y1^2 + y2^2 + x1*y2 - 0.5*x2*y1 + 0.1*y1^2*y2^2", n), n)
    V = bind_vertical([parse("-0.2*y1 + 0.1*x2*y2", n), parse("-0.1*y2*y1^2", n)], n)
    return MechanicalSystem(L, V, n, label="magnetic")


@pytest.mark.parametrize("make", [
    lambda: instantiate("SYS-A", {"c": 0.1}), forced_sys_b, magnetic_sys,
    lambda: instantiate("SYS-D", {"e": -0.5}),
    lambda: instantiate("SYS-E", {"e": -1.0, "base": "EUCLID", "n": 4}),
], ids=["SYS-A", "SYS-B+poly", "magnetic", "SYS-D", "SYS-E/EUCLID"])
def test_horizontal_two_form_is_omega_on_the_horizontal_basis(make, rng):
    # the closed form 2 (g N - (g N)^T) + a^T - a is, bit for bit, omega on
    # each pair of delta_i = (e_i, -N[:, i]), for N and N0, at a point and
    # over a batch
    sys_ = make()
    n = sys_.n
    points = [PhasePoint(tuple(rng.uniform(-0.5, 0.5, n)), tuple(rng.uniform(0.5, 1.5, n)))
              for _ in range(5)]
    for p in (points[0], stack_points(points)):
        ctx = PointGeometry(sys_, p)
        lanes = ctx.conn.shape[2:]
        eye = np.broadcast_to(np.eye(n).reshape((n, n) + (1,) * len(lanes)), (n, n) + lanes)
        for conn in (ctx.conn, ctx.conn0):
            delta = np.concatenate([eye, -conn])  # column i: delta_i
            closed = horizontal_two_form(ctx.jet, conn)
            for i in range(n):
                for k in range(n):
                    omega = np.asarray(ctx.omega(delta[:, i], delta[:, k]), dtype=float)
                    assert omega.tobytes() == np.asarray(closed[i, k]).tobytes(), (i, k)


# ---------------------------------------------------------------------------
# horizontal derivatives and first integrals
# ---------------------------------------------------------------------------


def test_horizontal_dl_euclid_free(euclid):
    out = PointGeometry(euclid, PhasePoint((0.2, 0.8), (1.0, -1.0))).horizontal_dL()
    assert np.abs(out).max() <= 1e-14


def test_horizontal_dl_zero_homogeneous_force(sys_d, samples_c):
    # contraction with y vanishes: L is constant along horizontal curves
    for p in samples_c[:10]:
        out = PointGeometry(sys_d, p).horizontal_dL()
        yv = np.array([float(v) for v in p.y])
        assert abs(out.dot(yv)) <= 1e-8


def test_horizontal_dl_routes_agree_forced():
    sys_ = forced_sys_b()
    out = PointGeometry(sys_, PhasePoint((0.5, -0.1), (1.2, 0.7))).horizontal_dL()
    assert np.isfinite(out).all()


def test_horizontal_de_euclid_free(euclid):
    out = PointGeometry(euclid, PhasePoint((0.0, 0.0), (1.0, 2.0))).horizontal_dE()
    assert np.abs(out).max() <= 1e-14


def test_horizontal_de_sys_d_vanishes(sys_d, samples_c):
    for p in samples_c[:10]:
        assert np.abs(PointGeometry(sys_d, p).horizontal_dE()).max() <= 1e-8


def test_horizontal_de_finsler_force_term(sys_e_finsler, samples_c):
    from tower import call, push_direction

    V = sys_e_finsler.V
    for p in samples_c[:8]:
        ctx = PointGeometry(sys_e_finsler, p)
        out = ctx.horizontal_dE()
        g = ctx.metric.entries
        yv = np.array([float(v) for v in p.y])
        dv_dy = push_direction(lambda q: call(V, q.x, q.y), p, np.eye(2))
        rhs = 0.5 * g.dot(yv).dot(dv_dy)
        assert np.abs(out - rhs).max() <= 1e-8


def test_first_integrals_zero_homogeneous(sys_d, samples_c):
    for p in samples_c[:10]:
        res_l, res_e = PointGeometry(sys_d, p).first_integral_conditions()
        assert abs(res_l) <= 1e-8
        assert abs(res_e) <= 1e-8


def test_first_integrals_euclid_free(euclid):
    res_l, res_e = PointGeometry(euclid, PhasePoint((0.1, 0.1), (1.0, 2.0))).first_integral_conditions()
    assert res_l == 0.0
    assert res_e == 0.0


def test_horizontal_dl_contraction_identity(sys_a, sys_d, samples_c, rng):
    # contracting the horizontal derivative of L with y must reproduce
    # (1/2) [ C(S0 L) + (1/2) (dV/dy y) . dL/dy ] for any force
    from lagmech.jets import eval_jet
    from tower import call, evolution_pass, push_direction, scalar_s

    cases = [(sys_a, [PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(0.5, 2, 1))
                      for _ in range(5)]),
             (sys_d, samples_c[:5])]
    for sys_, pts in cases:
        for p in pts:
            out = PointGeometry(sys_, p).horizontal_dL()
            yv = np.array([float(v) for v in p.y])
            lhs = 2.0 * out.dot(yv)
            def scalar_sl_free(q):
                j, _, yv, _, spray0, _ = evolution_pass(sys_, q)
                return scalar_s(j, yv, spray0)

            theta = eval_jet(sys_.L, p, order=1).d_y
            csl = push_direction(scalar_sl_free, p, list(yv), wrt="y")
            dvy = push_direction(lambda q: call(sys_.V, q.x, q.y), p, list(yv), wrt="y")
            rhs = csl + 0.5 * dvy.dot(theta)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_first_integrals_oscillator_nonzero(sys_a, p_oscillator):
    # independent evaluation at (1, 2), c=0.1:
    #   L-condition: (dV/dy y) dL/dy + 2 (d(S0 L)/dy) y
    #     = (-0.4)(4) + 2 (-4 x y)'_y y = -1.6 - 16 = -17.6
    #   E-condition: g (dV/dy) y y + 4 g (2 G0 - N0 y) y = -0.8 + 8 = 7.2
    res_l, res_e = PointGeometry(sys_a, p_oscillator).first_integral_conditions()
    assert res_l == pytest.approx(-17.6, abs=1e-10)
    assert res_e == pytest.approx(7.2, abs=1e-10)


# ---------------------------------------------------------------------------
# Cartan 1-form transport
# ---------------------------------------------------------------------------


def test_lie_theta_euclid(euclid):
    assert PointGeometry(euclid, PhasePoint((0.3, 0.3), (1.0, -2.0))).lie_theta_residual() <= 1e-12


def test_lie_theta_oscillator_sweep(sys_a, rng):
    for _ in range(100):
        p = PhasePoint(rng.uniform(-1.5, 1.5, 1), rng.uniform(-2, 2, 1))
        assert PointGeometry(sys_a, p).lie_theta_residual() <= 1e-8


def test_lie_theta_sys_d_sweep(sys_d, rng):
    for _ in range(100):
        y = rng.uniform(0.3, 2.0, 2)
        p = PhasePoint(rng.uniform(-1, 1, 2), y)
        assert PointGeometry(sys_d, p).lie_theta_residual() <= 1e-7


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


@pytest.mark.parametrize("target, residual", [
    pytest.param(target, residual, id=f"{owner}-{target}-{residual}")
    for owner, target, residual in [
        ("PointGeometry", "gbar", "metric_derivative_agreement"),
        ("PointGeometry", "dyn_cov_deriv_g", "metric_derivative_agreement"),
        ("PointGeometry", "helicoidal", "symplectic_vs_helicoidal"),
        ("verify", "_horizontal_two_form", "symplectic_vs_helicoidal"),
        ("PointGeometry", "horizontal_dL", "lagrangian_horizontal_routes"),
        ("PointGeometry", "dSL_dy", "lagrangian_horizontal_routes"),
        ("PointGeometry", "horizontal_dE", "energy_horizontal_routes"),
        ("PointGeometry", "horizontal_dE_closed", "energy_horizontal_routes"),
    ]])
def test_route_disagreement_is_a_verify_offender(monkeypatch, request, sys_d, target, residual):
    # shift one side of a route comparison by one unit, where the verify
    # program lowers it, so that the two disagree; the id names the
    # quantity's public owner (PointGeometry, or verify alone)
    import inspect
    from functools import cached_property

    from lagmech import compiled, verify

    samples = standard_samples("SYS-D", {"e": -0.5}, count=4)
    assert verify.run_verification(sys_d, samples)["offenders"] == []
    request.addfinalizer(compiled._program.cache_clear)  # no shifted program outlives the test
    compiled._program.cache_clear()
    obj, name = compiled._Geometry, target.lstrip("_")
    original = inspect.getattr_static(obj, name, None)
    if original is None:  # a tensor of the point program's nodes
        update = obj.update

        def shifted_update(self, **parts):
            update(self, **parts)
            if name in parts:
                setattr(self, name, getattr(self, name) + 1.0)

        monkeypatch.setattr(obj, "update", shifted_update)
    elif isinstance(original, cached_property):
        monkeypatch.setattr(obj, name, property(lambda self: original.func(self) + 1.0))
    else:
        monkeypatch.setattr(obj, name, lambda *a, **kw: original(*a, **kw) + 1.0)
    assert residual in verify.run_verification(sys_d, samples)["offenders"]


_SYS_B = instantiate("SYS-B")
_BOX = [(0.0, 1.0)]
# each check of a caller's argument the library makes, as a call that fails it
_BAD_ARGUMENTS = {
    "validate method": (lambda: IntegratorConfig(method="euler").validate(),
                        "unknown integrator method"),
    "validate finite": (lambda: IntegratorConfig(t_end=math.inf).validate(),
                        "t_end must be finite"),
    "validate step": (lambda: IntegratorConfig(step=0.0).validate(), "fixed step must be positive"),
    "validate tolerance": (lambda: IntegratorConfig(method="rk45_adaptive", rel_tol=1.0).validate(),
                           r"rel_tol=1.0 outside \[1e-14, 1e-2\]"),
    "validate max_step": (lambda: IntegratorConfig(method="rk45_adaptive", max_step=0.0).validate(),
                          "max_step must be positive"),
    "validate t_end": (lambda: IntegratorConfig(t_end=-1.0).validate(), "t_end must be non-negative"),
    "validate record_every": (lambda: IntegratorConfig(record_every=0).validate(),
                              "record_every must be at least 1"),
    "halton dims": (lambda: halton(1, 21), "at most 20 dimensions"),
    "sample_box dims": (lambda: sample_box(_BOX, _BOX * 2, 1), "the same dimension"),
    "sample_box bounds": (lambda: sample_box([(1.0, 0.0)], _BOX, 1), "lo <= hi"),
    "sample_box mode": (lambda: sample_box(_BOX, _BOX, 1, mode="sobol"), "unknown sampling mode"),
    "sample_box fiber": (lambda: sample_box(_BOX, _BOX, 1, mode="random", min_y_norm=2.0),
                         "could not draw enough samples"),
    "PhasePoint": (lambda: PhasePoint((0.0,), (1.0, 0.0)), "dimensions differ"),
    "MechanicalSystem": (lambda: MechanicalSystem(_SYS_B.L, VerticalField.zero(1), 2),
                         "field dimensions"),
    "bind_vertical": (lambda: bind_vertical([parse("y1", 2)], 2), "force needs 2 components"),
    "omega": (lambda: PointGeometry(_SYS_B, PhasePoint((0.2, 0.1), (1.0, 0.5))).omega(
        np.zeros(3), np.zeros(4)), "2n components"),
    "eval_jet order": (lambda: eval_jet(_SYS_B.L, PhasePoint((0.2, 0.1), (1.0, 0.5)), order=4),
                       "jet order must be 0..3"),
}


@pytest.mark.parametrize("site", _BAD_ARGUMENTS)
def test_a_bad_argument_is_a_typed_config_error(site):
    call, message = _BAD_ARGUMENTS[site]
    with pytest.raises(ConfigError, match=message) as err:
        call()
    assert isinstance(err.value, LagmechError)
