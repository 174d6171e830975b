"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every expected value is either an exact identity, a
published closed form of the builtin systems, or cross-checked against
the finite-difference oracle; nothing is calibrated after the fact.
"""

import math

import numpy as np
import pytest

from lagmech.finsler import finsler_identities
from lagmech.jets import eval_jet
from lagmech.mechanics import PointGeometry, classify
from lagmech.phase import PhasePoint
from lagmech.systems import instantiate, standard_samples
from lagmech.trajectories import (
    IntegratorConfig,
    energy_audit,
    integrate_evolution,
    integrate_geodesic,
    integrate_horizontal,
)
from oracle import fd_oracle

COUNT = 200

_ALL = [
    ("EUCLID", {"n": 2}),
    ("SYS-A", {"c": 0.1}),
    ("SYS-B", {}),
    ("SYS-C", {}),
    ("SYS-D", {"e": -0.5}),
    ("SYS-E", {"e": -1.0, "base": "SYS-C"}),
]


def _report(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


@pytest.fixture(scope="module")
def suites():
    out = {}
    for builtin, params in _ALL:
        out[builtin] = (
            instantiate(builtin, params),
            standard_samples(builtin, params, count=COUNT),
        )
    return out


def test_criterion_01_jets_match_fd_oracle(suites):
    """Every jet block equals the FD oracle (h=1e-5) to 1e-6 relative."""
    worst = 0.0
    for builtin, (sys_, pts) in suites.items():
        for p in pts:
            j = eval_jet(sys_.L, p, order=3)
            fd = fd_oracle(sys_.L, p, order=3, h=1e-5)
            for name in ("d_x", "d_y", "d_yy", "d_xy", "d_yyy"):
                a, b = getattr(j, name), getattr(fd, name)
                rel = np.abs(a - b).max() / (1.0 + np.abs(b).max())
                worst = max(worst, rel)
                assert rel <= 1e-6, (builtin, name, p)
    _report("criterion 1 (differentiation kernel)",
            f"{len(suites) * COUNT} points, worst block error {worst:.3e} <= 1e-6")


def test_criterion_02_canonical_pair_metric_and_symplectic(suites):
    """Canonical metricity and Lagrangian horizontal subbundle."""
    worst_m = 0.0
    worst_w = 0.0
    for builtin, (sys_, pts) in suites.items():
        for p in pts:
            ctx = PointGeometry(sys_.free(), p)
            scale = 1.0 + np.abs(ctx.metric.entries).max()
            n0 = ctx.conn0
            gbar = ctx.dyn_cov_deriv_g(ctx.spray0, n0)
            m = np.abs(gbar).max()
            assert m <= 1e-8 * scale, (builtin, p)
            worst_m = max(worst_m, m / scale)
            n = sys_.n
            for i in range(n):
                di = np.concatenate([np.eye(n)[i], -n0[:, i]])
                for k in range(i + 1, n):
                    dk = np.concatenate([np.eye(n)[k], -n0[:, k]])
                    w = abs(ctx.omega(di, dk))
                    assert w <= 1e-8, (builtin, p)
                    worst_w = max(worst_w, w)
    _report("criterion 2 (canonical pair metric+symplectic)",
            f"max scaled |gbar| {worst_m:.3e}, max |omega(d_i,d_j)| {worst_w:.3e} <= 1e-8")


def test_criterion_03_evolution_equation(suites):
    """Defining equation of the evolution semispray at 200 points/builtin."""
    worst = 0.0
    for builtin, (sys_, pts) in suites.items():
        for p in pts:
            r = PointGeometry(sys_, p).evolution_equation_residual()
            worst = max(worst, r)
            assert r <= 1e-8, (builtin, p)
    _report("criterion 3 (forced spray equation)", f"max residual {worst:.3e} <= 1e-8")


def test_criterion_04_metric_derivative_agreement(suites):
    """sigma-route vs dynamical-derivative route for the metric derivative."""
    worst = 0.0
    for builtin, (sys_, pts) in suites.items():
        for p in pts:
            b = PointGeometry(sys_, p)
            alt = b.dyn_cov_deriv_g(b.spray, b.conn)
            d = np.abs(b.gbar - alt).max()
            worst = max(worst, d)
            assert d <= 1e-8, (builtin, p)
    _report("criterion 4 (metric-derivative routes)", f"max disagreement {worst:.3e} <= 1e-8")


def test_criterion_05_symplectic_criterion(suites):
    """Horizontal two-form equals the helicoidal tensor; zero for the
    Liouville-type builtins."""
    worst_eq = 0.0
    worst_zero = 0.0
    for builtin, (sys_, pts) in suites.items():
        for p in pts:
            b = PointGeometry(sys_, p)
            n = sys_.n
            for i in range(n):
                di = np.concatenate([np.eye(n)[i], -b.conn[:, i]])
                for k in range(i + 1, n):
                    dk = np.concatenate([np.eye(n)[k], -b.conn[:, k]])
                    w = b.omega(di, dk)
                    worst_eq = max(worst_eq, abs(w + b.helicoidal[i, k]))
                    assert abs(w + b.helicoidal[i, k]) <= 1e-8
            if builtin in ("SYS-D", "SYS-E"):
                d = b.symplectic_defect()
                worst_zero = max(worst_zero, d)
                assert d <= 1e-8, (builtin, p)
    _report("criterion 5 (symplectic criterion)",
            f"two-form vs helicoidal {worst_eq:.3e}; Liouville defect {worst_zero:.3e}")


def test_criterion_06_dissipation_along_evolution():
    """Damped oscillator: monotone energy, pointwise power balance, and
    the sign flip under force reversal."""
    cfg = IntegratorConfig(step=1e-3, t_end=10.0, record_every=1)
    p0 = PhasePoint((1.0,), (0.0,))
    damped = instantiate("SYS-A", {"c": 0.1})
    tr = integrate_evolution(damped, p0, cfg)
    err, monotone = energy_audit(tr, damped)
    assert monotone, "energy trace must be non-increasing at every step"
    assert err <= 1e-5, f"power balance error {err:.3e}"
    flipped = instantiate("SYS-A", {"c": -0.1})
    tr2 = integrate_evolution(flipped, p0, cfg)
    assert np.all(np.diff(tr2.energy) >= 0.0), "flipped force must grow energy"
    _report("criterion 6 (dissipation)",
            f"monotone; |dE/dt - power| max {err:.3e} <= 1e-5; flip non-decreasing")


def test_criterion_07_finsler_identities(suites):
    """Energy equals the squared norm, Christoffel contraction, and the
    vanishing energy slope for the normalized Liouville force."""
    worst_e = 0.0
    worst_c = 0.0
    for builtin in ("EUCLID", "SYS-B", "SYS-C", "SYS-D"):
        sys_, pts = suites[builtin]
        rep = finsler_identities(sys_, pts)
        assert rep.points_tested == len(pts)
        assert rep.energy_residual <= 1e-10, builtin
        assert rep.christoffel_residual <= 1e-8, builtin
        worst_e = max(worst_e, rep.energy_residual)
        worst_c = max(worst_c, rep.christoffel_residual)
    sys_d, pts_c = suites["SYS-D"]
    worst_f = 0.0
    for p in pts_c:
        worst_f = max(worst_f, np.abs(PointGeometry(sys_d, p).horizontal_dE()).max())
    assert worst_f <= 1e-8
    _report("criterion 7 (homogeneity identities)",
            f"E-F^2 {worst_e:.3e} <= 1e-10; contraction {worst_c:.3e}; "
            f"energy slope {worst_f:.3e} <= 1e-8")


def test_criterion_08_geodesic_coincidence():
    """Horizontal curves of the zero-homogeneous force coincide with the
    free geodesics; the energy rides along unchanged."""
    sys_d = instantiate("SYS-D", {"e": -0.5})
    p0 = PhasePoint((0.0, 0.0), (1.0, 0.5))
    cfg = IntegratorConfig(step=1e-3, t_end=10.0, record_every=10)
    th = integrate_horizontal(sys_d, p0, cfg)
    tg = integrate_geodesic(sys_d.free(), p0, cfg)
    assert th.status == tg.status == "completed"
    dev = max(np.abs(th.xs - tg.xs).max(), np.abs(th.ys - tg.ys).max())
    drift = np.abs(th.energy - th.energy[0]).max() / abs(th.energy[0])
    assert dev <= 1e-6, f"state deviation {dev:.3e}"
    assert drift <= 1e-6, f"energy drift {drift:.3e}"
    _report("criterion 8 (geodesic coincidence)",
            f"state deviation {dev:.3e} <= 1e-6; energy drift {drift:.3e} <= 1e-6")


def test_criterion_09_liouville_family(suites):
    """Connection shift by -(e/4) I, the metric derivative over the
    homogeneous base, and the dissipativity flip at e = 0."""
    worst_shift = 0.0
    worst_gbar = 0.0
    for builtin, params, e in (("SYS-E", {"e": -1.0, "base": "SYS-C"}, -1.0),
                               ("SYS-E", {"e": -1.0, "base": "EUCLID"}, -1.0),
                               ("SYS-A", {"c": 0.1}, -0.2)):
        sys_ = instantiate(builtin, params)
        pts = standard_samples(builtin, params, count=50)
        for p in pts:
            n = PointGeometry(sys_, p).conn
            n0 = PointGeometry(sys_.free(), p).conn
            shift = np.abs(n - n0 + (e / 4.0) * np.eye(sys_.n)).max()
            worst_shift = max(worst_shift, shift)
            assert shift <= 1e-10, (builtin, p)
    sys_ef, pts_c = suites["SYS-E"]
    for p in pts_c:
        b = PointGeometry(sys_ef, p)
        g = b.metric.entries
        d = np.abs(b.gbar - (-0.5) * g).max() / (1.0 + np.abs(g).max())
        worst_gbar = max(worst_gbar, d)
        assert d <= 1e-8, p
    flip_pts = standard_samples("SYS-E", {"e": 1.0, "base": "SYS-C"}, count=30)
    verdicts = {}
    for e in (-0.5, 0.0, 0.5):
        rep = classify(instantiate("SYS-E", {"e": e, "base": "SYS-C"}), flip_pts)
        verdicts[e] = rep.dissipative_at_samples
    assert verdicts[-0.5]["strict"] is True
    assert verdicts[0.0]["weak"] is True and verdicts[0.0]["strict"] is False
    assert verdicts[0.5]["weak"] is False
    _report("criterion 9 (Liouville family)",
            f"connection shift {worst_shift:.3e} <= 1e-10; gbar-(e/2)g "
            f"{worst_gbar:.3e} <= 1e-8; verdict flips at e=0")


def test_criterion_10_rk4_convergence_order():
    """Step halving contracts the error by a fourth-order factor."""
    sys_a = instantiate("SYS-A", {"c": 0.1})
    p0 = PhasePoint((1.0,), (0.0,))
    t_end = 10.0
    ref = integrate_evolution(sys_a, p0, IntegratorConfig(step=0.0025, t_end=t_end, record_every=4))
    r1 = integrate_evolution(sys_a, p0, IntegratorConfig(step=0.01, t_end=t_end, record_every=1))
    r2 = integrate_evolution(sys_a, p0, IntegratorConfig(step=0.005, t_end=t_end, record_every=2))
    e1 = max(np.abs(r1.xs - ref.xs).max(), np.abs(r1.ys - ref.ys).max())
    e2 = max(np.abs(r2.xs - ref.xs).max(), np.abs(r2.ys - ref.ys).max())
    factor = e1 / e2
    assert 12.0 <= factor <= 20.0, f"convergence factor {factor:.2f}"
    _report("criterion 10 (integrator order)", f"halving factor {factor:.2f} in [12, 20]")


def test_criterion_11_undamped_oscillator_regression():
    """One full period returns the undamped oscillator to its start."""
    sys_free = instantiate("SYS-A", {"c": 0.0})
    cfg = IntegratorConfig(step=1e-3, t_end=2.0 * math.pi, record_every=1000)
    tr = integrate_evolution(sys_free, PhasePoint((1.0,), (0.0,)), cfg)
    err = abs(tr.xs[-1, 0] - 1.0)
    assert err <= 1e-6, f"period return error {err:.3e}"
    _report("criterion 11 (oscillator regression)", f"|x(2pi) - 1| = {err:.3e} <= 1e-6")
