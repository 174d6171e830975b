"""SODE integration: evolution, horizontal and geodesic curves."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import lagmech.trajectories as trajectories
from lagmech.cli import build_system
from lagmech.phase import PhasePoint
from lagmech.systems import instantiate
from lagmech.trajectories import (
    IntegratorConfig,
    Trajectory,
    energy_audit,
    integrate_evolution,
    integrate_geodesic,
    integrate_horizontal,
)
import trajectory_routes
from trajectory_csv import read_csv

INTEGRATE = {"evolution": integrate_evolution, "horizontal": integrate_horizontal,
             "geodesic": integrate_geodesic}


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


# -- one pass per stage: the same bits as the reference drivers -------------

# every function of the language, and powers whose exponents vary with x
# (a float exponent of a base pushed along y) and with y
_EVERY_FUNCTION = {"n": 2, "lagrangian": "exp(0.1*x1)*y1^2 + (2 + sin(x2))*y2^2 + 0.1*tan(0.2*x1)*y1*y2"
                   " + 0.1*log(2 + x2^2)*sqrt(1 + y1^2 + y2^2) + 0.01*cos(x1*y2)",
                   "force": ["-0.1*y1*pow(2 + y2^2, 0.3*sin(x1))", "-0.1*pow(1.5 + x2^2, y1)*y2"]}
# each run's system config section, initial state and, where it is not
# 1e-10, the adaptive rel_tol (abs_tol is 1e-2 of it).  At 1e-10 the step
# controller of EVERY-FUNCTION's horizontal curve turns the 1e-16 by which
# its compiled and jet stages differ into 2e-8 in a step size; its earlier
# jet-route test ran at the defaults, 1e-8 and 1e-10
_RUNS = {
    "SYS-A": ({"builtin": "SYS-A", "params": {"c": 0.1}}, (1.0,), (0.5,)),
    "SYS-B": ({"builtin": "SYS-B"}, (1.0, -0.3), (0.6, 0.9)),
    "SYS-D": ({"builtin": "SYS-D", "params": {"e": -0.5}}, (0.1, 0.2), (1.0, 0.5)),
    "SYS-E/EUCLID6": ({"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID", "n": 6}},
                      (0.1,) * 6, (1.0, 0.5, -0.3, 0.2, 0.4, -0.6)),
    "EVERY-FUNCTION": (_EVERY_FUNCTION, (0.5, 0.0), (-1.0, 0.5), 1e-8),
}
# SYS-D from the origin: the velocity decays onto the zero section, and the
# adaptive run ends domain_stop at t = 4.0611
_STOP = ({"builtin": "SYS-D", "params": {"e": -0.5}}, (0.0, 0.0), (1.0, 0.5))
# the geodesic needs a 2-homogeneous L
_GRID = [(name, curve, method, every)
         for name in _RUNS
         for curve in INTEGRATE
         if not (curve == "geodesic" and name in ("SYS-A", "EVERY-FUNCTION"))
         for method in ("rk4_fixed", "rk45_adaptive")
         for every in (1, 3)]


def _run(spec, t_end, method, every):
    system, x, y, *rel_tol = spec
    rel_tol = rel_tol[0] if rel_tol else 1e-10
    cfg = IntegratorConfig(method=method, step=0.02, t_end=t_end, record_every=every,
                           rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
    return build_system({"system": system}), PhasePoint(x, y), cfg


@pytest.mark.parametrize("name, curve, method, every",
                         _GRID + [("stop", "evolution", "rk45_adaptive", e) for e in (1, 3)])
def test_integrators_match_reference_routes(name, curve, method, every):
    spec, t_end = (_STOP, 10.0) if name == "stop" else (_RUNS[name], 0.5)
    sys_, p0, cfg = _run(spec, t_end, method, every)
    got = INTEGRATE[curve](sys_, p0, cfg)
    ref = trajectory_routes.integrate(curve, sys_, p0, cfg)
    assert got.status == ref.status
    for key in ("t", "xs", "ys", "energy", "lagrangian", "power", "el_residual"):
        a, b = getattr(got, key), getattr(ref, key)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
    if name == "stop":
        assert got.status == "domain_stop" and 4.06 < got.t[-1] < 4.07


def test_dormand_prince_tableau_is_fsal():
    # the last stage is evaluated at the 5th-order solution, bit for bit
    assert trajectories._DP_A[6] == list(trajectory_routes.DP_B5[:6])
    assert trajectory_routes.DP_B5[6] == 0.0


def test_run_stats():
    sys_, p0, cfg = _run(_RUNS["SYS-A"], 2.0, "rk45_adaptive", 1)
    traj = integrate_evolution(sys_, p0, cfg)
    st = traj.stats
    assert traj.status == "completed" and st.stop is None
    assert st.rejected > 0  # the step controller is exercised
    assert st.rhs_calls == 6 * (st.accepted + st.rejected) + 1
    assert st.min_step <= cfg.max_step

    sys_, p0, cfg = _run(_RUNS["SYS-D"], 0.3, "rk4_fixed", 3)
    st = integrate_horizontal(sys_, p0, cfg).stats
    assert (st.accepted, st.rejected, st.min_step) == (15, 0, 0.02)
    assert st.rhs_calls == 4 * st.accepted + 1

    sys_, p0, cfg = _run(_STOP, 10.0, "rk45_adaptive", 1)
    traj = integrate_evolution(sys_, p0, cfg)
    stop = traj.stats.stop
    assert stop["error"] == "DomainError" and "zero section" in stop["detail"]
    assert traj.t[-1] <= stop["t"] < 4.07
    assert math.hypot(*stop["point"]["y"]) < 1e-8

    # the stats stay out of the serialized trajectory and of comparisons
    assert "stats" not in traj.to_dict()
    assert not {f.name: f for f in dataclasses.fields(Trajectory)}["stats"].compare


def test_nan_error_estimate_rejects_the_step(sys_a):
    # from x = 0.5 on the right-hand side returns NaN without raising, and
    # keeps doing so: each attempt is rejected with the smallest factor
    # until the step collapses (a NaN estimate must not grow the step)
    calls = Counter()
    evolution, observe = trajectories._route(sys_a, "evolution")

    def rhs(z):
        calls["rhs"] += 1
        assert calls["rhs"] < 2000, "the controller never gives up on a NaN estimate"
        if calls["nan"] or z[0] > 0.5:
            calls["nan"] += 1
            return np.array([z[1], math.nan]), None
        return evolution(z)

    cfg = IntegratorConfig(method="rk45_adaptive", t_end=5.0)
    traj = trajectories._integrate(sys_a, PhasePoint((0.0,), (1.0,)), cfg, (rhs, observe))
    assert traj.status == "domain_stop"
    assert traj.stats.stop["detail"] == "adaptive step collapsed"
    assert traj.t[-1] == traj.stats.stop["t"] < 0.6 and np.isfinite(traj.xs).all()


def test_adaptive_end_rule():
    # the parent's 101st step was 1.95e-14 long: a step ending that close
    # to t_end is stretched to end on it
    sys_, p0, cfg = _run(_STOP, 10.0, "rk45_adaptive", 1)
    for curve in ("horizontal", "geodesic"):
        traj = INTEGRATE[curve](sys_, p0, cfg)
        assert (traj.stats.accepted, traj.stats.rhs_calls) == (100, 601), curve
        assert traj.t[-1] == 10.0 and len(traj.t) == 101, curve


def test_non_finite_force_stops_the_run():
    sys_ = build_system({"system": {"n": 1, "lagrangian": "y1^2",
                                    "force": ["1e200*y1*1e200"]}})
    for method in ("rk4_fixed", "rk45_adaptive"):
        traj = integrate_evolution(sys_, PhasePoint((0.0,), (1.0,)),
                                   IntegratorConfig(method=method, t_end=0.1))
        assert traj.status == "domain_stop" and len(traj.t) == 0, method
        assert traj.stats.stop["detail"] == "force evaluation produced a non-finite value"


def test_singular_stop_records_eigen_range(sys_c):
    traj = integrate_evolution(sys_c, PhasePoint((0.0, 0.0), (1.0, 0.0)),
                               IntegratorConfig(t_end=1.0))
    stop = traj.stats.stop
    assert stop["error"] == "SingularMetric" and stop["t"] == 0.0
    lo, hi = stop["eigen_range"]
    assert 0.0 <= lo < 1e-10 * hi


def _counting(monkeypatch, calls, module, name):
    """Count the calls of ``module.name`` under its name."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _counted_programs(monkeypatch, calls):
    """Count the calls of every compiled program the integrators fetch, by
    kind."""
    import lagmech.compiled as compiled

    build = compiled.program

    def counted_program(kind, L, V):
        fn = build(kind, L, V)

        def run(z):
            calls[kind] += 1
            return fn(z)

        return run

    monkeypatch.setattr(compiled, "program", counted_program)


@pytest.mark.parametrize("curve", list(INTEGRATE))
def test_pass_budget(monkeypatch, curve):
    # with every state recorded, a run makes exactly one compiled call per
    # right-hand side and no pointwise pass but the geodesic's Finsler gate
    # at the initial point; a geodesic record runs V's value program once
    import lagmech.compiled as compiled

    calls = Counter()
    _counting(monkeypatch, calls, compiled, "run")
    _counted_programs(monkeypatch, calls)
    for method in ("rk4_fixed", "rk45_adaptive"):
        calls.clear()
        sys_, p0, cfg = _run(_RUNS["SYS-D"], 0.3, method, 1)
        traj = INTEGRATE[curve](sys_, p0, cfg)
        geodesic = {"run": 1, "value": len(traj.t)} if curve == "geodesic" else {}
        assert dict(calls) == {curve: traj.stats.rhs_calls, **geodesic}, method


def test_one_compile_per_tree(monkeypatch):
    # two instantiations of SYS-D carry equal trees and share each program,
    # the geodesic's Finsler gate (an order-1 jet) and its records' V included
    import lagmech.compiled as compiled

    compiled._program.cache_clear()
    builds = Counter()
    build = compiled._build

    def counted(kind, *args):
        builds[kind] += 1
        return build(kind, *args)

    monkeypatch.setattr(compiled, "_build", counted)
    for _ in range(2):
        sys_, p0, cfg = _run(_RUNS["SYS-D"], 0.1, "rk4_fixed", 1)
        for curve in INTEGRATE:
            INTEGRATE[curve](sys_, p0, cfg)
    assert builds == {"evolution": 1, "horizontal": 1, "geodesic": 1, "jet": 1, "value": 1}


@pytest.mark.parametrize("t_end", [0.3, 0.7])
def test_rk4_ends_on_t_end(sys_a, t_end):
    # 0.1 * 3 is 0.30000000000000004: the dropped remainder must not move
    # the last record off t_end
    cfg = IntegratorConfig(step=0.1, t_end=t_end, record_every=1)
    p0 = PhasePoint((1.0,), (0.5,))
    traj = integrate_evolution(sys_a, p0, cfg)
    ref = trajectory_routes.integrate("evolution", sys_a, p0, cfg)
    assert traj.t[-1] == ref.t[-1] == t_end
    assert len(traj.t) == round(t_end / 0.1) + 1


# Compiled against jet-route trajectories, relative to 1 + max|trace|.  The
# two differ by rounding only: measured worst cases are 1.1e-16 over the
# builtins (SYS-D's power trace; every state there is bit-equal) and
# 1.8e-16 on EVERY-FUNCTION.
_JET_TOL = 1e-14


@pytest.mark.parametrize("name, curve, method, every", _GRID)
def test_trajectories_match_the_jet_route(name, curve, method, every):
    sys_, p0, cfg = _run(_RUNS[name], 0.5, method, every)
    got = INTEGRATE[curve](sys_, p0, cfg)
    ref = trajectory_routes.integrate(curve, sys_, p0, cfg, jet=True)
    assert got.status == ref.status == "completed"
    assert got.t.shape == ref.t.shape
    for key in ("t", "xs", "ys", "energy", "lagrangian", "power", "el_residual"):
        a, b = getattr(got, key), getattr(ref, key)
        assert np.abs(a - b).max() <= _JET_TOL * (1.0 + np.abs(b).max()), key


# L = y1^2 + y2^2 - log(x1) pulls x1 through zero, out of log's domain
_LOG_EXIT = ({"n": 2, "lagrangian": "y1^2 + y2^2 - log(x1)", "force": ["-0.1*y1", "0"]},
             (0.5, 0.0), (-1.0, 0.5))


@pytest.mark.parametrize("case, method", [("stop", "rk45_adaptive"), ("log", "rk4_fixed"),
                                          ("log", "rk45_adaptive")])
def test_stop_records_match_the_jet_route(case, method):
    if case == "stop":
        sys_, p0, cfg = _run(_STOP, 10.0, method, 3)
    else:
        spec, x, y = _LOG_EXIT
        sys_, p0 = build_system({"system": spec}), PhasePoint(x, y)
        cfg = IntegratorConfig(method=method, step=0.02, t_end=2.0, record_every=3)
    got = integrate_evolution(sys_, p0, cfg)
    ref = trajectory_routes.integrate("evolution", sys_, p0, cfg, jet=True)
    assert got.status == ref.status == "domain_stop"
    assert {key: got.stats.stop[key] for key in ref.stats.stop} == ref.stats.stop
    assert got.t.shape == ref.t.shape and np.abs(got.xs - ref.xs).max() <= 1e-12


def test_geodesic_records_check_the_force():
    # both routes: the record at t=0 evaluates V, which overflows
    sys_ = build_system({"system": {"n": 2, "lagrangian": "y1^2 + y2^2",
                                    "force": ["1e200*y1*1e200", "0"]}})
    p0 = PhasePoint((0.0, 0.0), (1.0, 0.5))
    cfg = IntegratorConfig(step=0.01, t_end=0.05)
    for traj in (integrate_geodesic(sys_, p0, cfg),
                 trajectory_routes.integrate("geodesic", sys_, p0, cfg, jet=True)):
        assert traj.status == "domain_stop" and len(traj.t) == 0
        assert traj.stats.stop["detail"] == "force evaluation produced a non-finite value"


# V = (-0.1 y1 log(x1), 0) leaves log's domain as the geodesic x1 = 0.5 - t
# crosses zero.  V is read at the records alone, never at a stage between
# them: RK4 records every step and stops at t = 0.5, where x1 is
# -3.1e-16; DP5(4) takes steps of 0.1 and stops at the record at t = 0.6
_LOG_FORCE = {"n": 2, "lagrangian": "y1^2 + y2^2", "force": ["-0.1*y1*log(x1)", "0"]}


@pytest.mark.parametrize("method, t, x", [
    ("rk4_fixed", 0.5, [-3.0878077872387166e-16, 0.2500000000000001]),
    ("rk45_adaptive", 0.6, [-0.09999999999999987, 0.29999999999999993]),
])
def test_geodesic_reads_the_force_at_records(method, t, x):
    sys_ = build_system({"system": _LOG_FORCE})
    cfg = IntegratorConfig(method=method, step=0.01, t_end=2.0)
    traj = integrate_geodesic(sys_, PhasePoint((0.5, 0.0), (-1.0, 0.5)), cfg)
    assert traj.status == "domain_stop"
    assert traj.stats.stop == {"t": t, "error": "DomainError",
                               "detail": "log of a non-positive value",
                               "point": {"x": x, "y": [-1.0, 0.5]}}


# the force drives the fiber to about 1e297 within a step: the zero-section
# guard's norm must not overflow (a float's v ** 2 raises), so the run ends
# at the next pass's finiteness check
_FIBER_OVERFLOW = {"n": 2, "lagrangian": "(y1^4 + y2^4)^(1/2)", "force": ["1e300*y1", "1e300*y2"],
                   "domain_guard": "y_nonzero"}


@pytest.mark.parametrize("method", ["rk4_fixed", "rk45_adaptive"])
def test_zero_section_guard_does_not_overflow(method):
    sys_ = build_system({"system": _FIBER_OVERFLOW})
    p0 = PhasePoint((0.1, 0.2), (0.7, 0.8))
    cfg = IntegratorConfig(method=method, step=0.01, t_end=1.0)
    traj = integrate_evolution(sys_, p0, cfg)
    assert traj.status == "domain_stop" and len(traj.t) == 1
    stop = traj.stats.stop
    assert stop["detail"] == "field evaluation produced a non-finite value"
    assert min(map(abs, stop["point"]["y"])) > 1e296
    with np.errstate(over="ignore", invalid="ignore"):
        ref = trajectory_routes.integrate("evolution", sys_, p0, cfg)
    assert ref.status == "domain_stop" and ref.t.tobytes() == traj.t.tobytes()
