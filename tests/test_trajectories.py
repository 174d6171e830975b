"""SODE integration: evolution, horizontal and geodesic curves."""

import math

import numpy as np
import pytest

from lagmech.phase import PhasePoint
from lagmech.systems import instantiate
from lagmech.trajectories import (
    IntegratorConfig,
    energy_audit,
    integrate_evolution,
    integrate_geodesic,
    integrate_horizontal,
)
from trajectory_csv import read_csv


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4_fixed", step=0.0).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk45_adaptive", rel_tol=1e-1).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler").validate()
    with pytest.raises(ValueError):
        IntegratorConfig(record_every=0).validate()
    IntegratorConfig().validate()


def test_single_sample_at_zero_time(sys_b):
    traj = integrate_evolution(sys_b, PhasePoint((0.1, 0.2), (1.0, 0.0)),
                               IntegratorConfig(t_end=0.0))
    assert len(traj.t) == 1
    assert traj.status == "completed"
    assert traj.xs[0, 0] == 0.1


def test_undamped_oscillator_period(sys_a_free):
    cfg = IntegratorConfig(step=1e-3, t_end=2.0 * math.pi, record_every=500)
    traj = integrate_evolution(sys_a_free, PhasePoint((1.0,), (0.0,)), cfg)
    assert abs(traj.xs[-1, 0] - 1.0) <= 1e-6
    assert traj.t[-1] == pytest.approx(2.0 * math.pi)


def test_damped_energy_decreases(sys_a):
    cfg = IntegratorConfig(step=1e-3, t_end=4.0, record_every=1)
    traj = integrate_evolution(sys_a, PhasePoint((1.0,), (0.0,)), cfg)
    err, monotone = energy_audit(traj, sys_a)
    assert monotone
    assert err <= 1e-5
    assert traj.energy[-1] < traj.energy[0]


def test_antidamped_energy_grows():
    sys_ = instantiate("SYS-A", {"c": -0.1})
    cfg = IntegratorConfig(step=1e-3, t_end=4.0, record_every=1)
    traj = integrate_evolution(sys_, PhasePoint((1.0,), (0.0,)), cfg)
    _, monotone = energy_audit(traj, sys_)
    assert not monotone
    assert np.all(np.diff(traj.energy) >= 0.0)


def test_el_residual_along_evolution(sys_a):
    cfg = IntegratorConfig(step=1e-3, t_end=2.0, record_every=10)
    traj = integrate_evolution(sys_a, PhasePoint((1.0,), (0.5,)), cfg)
    sigma_scale = 1.0 + np.abs(traj.power).max()
    assert traj.el_residual.max() <= 1e-6 * sigma_scale


def test_free_system_power_zero_energy_constant(euclid):
    cfg = IntegratorConfig(step=1e-3, t_end=2.0, record_every=1)
    traj = integrate_evolution(euclid, PhasePoint((0.0, 0.0), (1.0, 0.5)), cfg)
    assert np.all(traj.power == 0.0)
    err, _ = energy_audit(traj, euclid)
    assert err <= 1e-6
    assert np.abs(traj.energy - traj.energy[0]).max() <= 1e-10


def test_euclid_straight_line(euclid):
    cfg = IntegratorConfig(step=1e-2, t_end=3.0, record_every=10)
    traj = integrate_horizontal(euclid, PhasePoint((0.0, 0.0), (0.4, -0.7)), cfg)
    expected = np.outer(traj.t, [0.4, -0.7])
    assert np.abs(traj.xs - expected).max() <= 1e-12


def test_horizontal_finsler_energy_constant(sys_c):
    cfg = IntegratorConfig(step=1e-3, t_end=2.0, record_every=20)
    traj = integrate_horizontal(sys_c, PhasePoint((0.0, 0.0), (1.0, 0.5)), cfg)
    drift = np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
    assert drift <= 1e-6


def test_geodesic_matches_free_evolution(sys_c):
    p0 = PhasePoint((0.2, -0.1), (0.8, 1.1))
    cfg = IntegratorConfig(step=1e-3, t_end=2.0, record_every=20)
    tg = integrate_geodesic(sys_c, p0, cfg)
    te = integrate_evolution(sys_c, p0, cfg)
    dev = max(np.abs(tg.xs - te.xs).max(), np.abs(tg.ys - te.ys).max())
    assert dev <= 1e-8


def test_geodesic_requires_finsler_mode(sys_a):
    from lagmech.errors import FinslerModeError

    with pytest.raises(FinslerModeError):
        integrate_geodesic(sys_a, PhasePoint((1.0,), (2.0,)), IntegratorConfig(t_end=0.1))


def test_geodesic_sys_b_energy_constant(sys_b):
    cfg = IntegratorConfig(step=1e-3, t_end=3.0, record_every=30)
    traj = integrate_geodesic(sys_b, PhasePoint((1.0, 0.0), (1.0, 0.0)), cfg)
    drift = np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
    assert drift <= 1e-6


def test_geodesic_equals_free_evolution_sys_b(sys_b):
    p0 = PhasePoint((1.0, -0.3), (0.6, 0.9))
    cfg = IntegratorConfig(step=1e-3, t_end=2.0, record_every=20)
    tg = integrate_geodesic(sys_b, p0, cfg)
    te = integrate_evolution(sys_b, p0, cfg)
    dev = max(np.abs(tg.xs - te.xs).max(), np.abs(tg.ys - te.ys).max())
    assert dev <= 1e-8


def test_rk4_fourth_order_convergence(sys_a):
    p0 = PhasePoint((1.0,), (0.0,))
    t_end = 10.0
    ref = integrate_evolution(sys_a, p0, IntegratorConfig(step=0.0025, t_end=t_end, record_every=4))
    r1 = integrate_evolution(sys_a, p0, IntegratorConfig(step=0.01, t_end=t_end, record_every=1))
    r2 = integrate_evolution(sys_a, p0, IntegratorConfig(step=0.005, t_end=t_end, record_every=2))
    e1 = max(np.abs(r1.xs - ref.xs).max(), np.abs(r1.ys - ref.ys).max())
    e2 = max(np.abs(r2.xs - ref.xs).max(), np.abs(r2.ys - ref.ys).max())
    assert 12.0 <= e1 / e2 <= 20.0


def test_rk45_adaptive_accuracy(sys_a_free):
    cfg = IntegratorConfig(method="rk45_adaptive", t_end=2.0 * math.pi,
                           rel_tol=1e-10, abs_tol=1e-12, max_step=0.2)
    traj = integrate_evolution(sys_a_free, PhasePoint((1.0,), (0.0,)), cfg)
    assert abs(traj.xs[-1, 0] - 1.0) <= 1e-7
    assert traj.status == "completed"


def test_singular_stop_at_start(sys_c):
    traj = integrate_evolution(sys_c, PhasePoint((0.0, 0.0), (1.0, 0.0)),
                               IntegratorConfig(t_end=1.0))
    assert traj.status == "singular_metric_stop"
    assert len(traj.t) == 0


def test_partial_trajectory_on_domain_exit():
    # force drives the velocity through the singular axis of the metric
    from lagmech.dsl import bind_scalar, bind_vertical, parse
    from lagmech.mechanics import MechanicalSystem

    L = bind_scalar(parse("(y1^4 + y2^4)^(1/2)", 2), 2)
    V = bind_vertical([parse("0", 2), parse("-8", 2)], 2)
    sys_ = MechanicalSystem(L, V, 2, domain_guard="y_nonzero")
    traj = integrate_evolution(sys_, PhasePoint((0.0, 0.0), (1.0, 0.6)),
                               IntegratorConfig(step=1e-3, t_end=2.0))
    assert traj.status in ("singular_metric_stop", "domain_stop")
    assert 0 < len(traj.t)
    assert traj.t[-1] < 2.0


def test_csv_round_trip(sys_a):
    cfg = IntegratorConfig(step=1e-2, t_end=1.0, record_every=7)
    traj = integrate_evolution(sys_a, PhasePoint((1.0,), (0.0,)), cfg)
    text = traj.to_csv()
    back = read_csv(text)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.xs, traj.xs)
    assert np.array_equal(back.ys, traj.ys)
    assert np.array_equal(back.energy, traj.energy)
    assert np.array_equal(back.power, traj.power)
    assert np.array_equal(back.el_residual, traj.el_residual)


def test_trajectory_state_property(sys_a):
    traj = integrate_evolution(sys_a, PhasePoint((1.0,), (0.0,)),
                               IntegratorConfig(step=1e-2, t_end=0.1))
    # the recorded states are the rows of xs and ys, one per time
    assert traj.xs.shape == traj.ys.shape == (len(traj.t), 1)
    assert traj.xs[0].tolist() == [1.0] and traj.ys[0].tolist() == [0.0]
    assert np.all(np.diff(traj.t) > 0.0)
