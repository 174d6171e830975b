"""Reference integrators for the tests: the seven-stage Dormand-Prince
driver, which evaluates every stage of every attempt afresh, and the RK4
driver whose records run their own right-hand side and evolution pass.

Both take :class:`~lagmech.trajectories.IntegratorConfig` and return a
:class:`~lagmech.trajectories.Trajectory` (with empty stats), so a test
can compare the engine's integrators with them bit for bit.
"""

import math

import numpy as np

from lagmech.errors import DomainError, SingularMetric
from lagmech.finsler import christoffel_at, require_finsler_mode
from lagmech.jets import push_direction
from lagmech.mechanics import _evolution_pass
from lagmech.phase import PhasePoint
from lagmech.trajectories import _DP_A, _DP_B4, _MIN_FIBER_NORM, Trajectory

# the 5th-order weights of the pair
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])


def evolution_accel(sys, p):
    return -2.0 * _evolution_pass(sys, p)[5]


def horizontal_accel(sys, p):
    ny = push_direction(lambda q: _evolution_pass(sys, q)[5], p,
                        [float(v) for v in p.y], wrt="y")
    return -np.asarray(ny, dtype=float)


def geodesic_accel(sys, p):
    gamma = christoffel_at(sys, p)
    yv = np.array([float(v) for v in p.y])
    return -(gamma @ yv @ yv)


ACCEL = {"evolution": evolution_accel, "horizontal": horizontal_accel,
         "geodesic": geodesic_accel}


def observe(sys, p, accel):
    """E, L, power and the Lagrange defect from a fresh evolution pass;
    ``accel=None`` takes the evolution acceleration from that pass."""
    j, g, yv, v, _, spray = _evolution_pass(sys, p)
    sigma = g.entries @ v
    if accel is None:
        accel = -2.0 * spray
    energy = float(yv @ j.d_y - j.value)
    power = float(sigma @ yv)
    el = j.d_xy @ yv + j.d_yy @ accel - j.d_x - sigma
    return energy, float(j.value), power, float(np.abs(el).max())


def integrate(curve, sys, p0, cfg) -> Trajectory:
    cfg.validate()
    if curve == "geodesic":
        require_finsler_mode(sys, p0)
    accel_fn = ACCEL[curve]
    n = sys.n
    guard_fiber = sys.domain_guard == "y_nonzero"

    def rhs(z):
        p = PhasePoint(z[:n], z[n:])
        if guard_fiber and p.y_norm() < _MIN_FIBER_NORM:
            raise DomainError("velocity collapsed onto the zero section")
        return np.concatenate([z[n:], accel_fn(sys, p)])

    rows = []

    def record(t, z):
        p = PhasePoint(z[:n], z[n:])
        a = None if curve == "evolution" else accel_fn(sys, p)
        rows.append((t, np.array(z[:n]), np.array(z[n:]), *observe(sys, p, a)))

    z = np.concatenate([np.array([float(v) for v in p0.x]),
                        np.array([float(v) for v in p0.y])])
    status = "completed"
    try:
        record(0.0, z)
        if cfg.t_end > 0.0:
            drive = drive_rk4 if cfg.method == "rk4_fixed" else drive_rk45
            drive(rhs, record, z, cfg)
    except SingularMetric:
        status = "singular_metric_stop"
    except DomainError:
        status = "domain_stop"
    t, xs, ys, e, lv, w, r = zip(*rows) if rows else [()] * 7
    return Trajectory(t=np.array(t), xs=np.stack(xs) if xs else np.zeros((0, n)),
                      ys=np.stack(ys) if ys else np.zeros((0, n)),
                      energy=np.array(e), lagrangian=np.array(lv), power=np.array(w),
                      el_residual=np.array(r), status=status)


def rk4_step(rhs, z, h):
    k1 = rhs(z)
    k2 = rhs(z + 0.5 * h * k1)
    k3 = rhs(z + 0.5 * h * k2)
    k4 = rhs(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def drive_rk4(rhs, record, z, cfg):
    h = cfg.step
    total = cfg.t_end
    nfull = int(math.floor(total / h + 1e-9))
    rem = total - nfull * h
    if rem < 1e-12 * max(1.0, total):
        rem = 0.0
    for k in range(1, nfull + 1):
        z = rk4_step(rhs, z, h)
        t = k * h
        if k % cfg.record_every == 0 or (k == nfull and rem == 0.0):
            record(t, z)
    if rem > 0.0:
        z = rk4_step(rhs, z, rem)
        record(total, z)


def drive_rk45(rhs, record, z, cfg):
    t = 0.0
    h = min(cfg.max_step, cfg.t_end)
    accepted = 0
    while t < cfg.t_end - 1e-14:
        h = min(h, cfg.t_end - t)
        ks = [rhs(z)]
        for i in range(1, 7):
            zi = z + h * sum(a * k for a, k in zip(_DP_A[i], ks))
            ks.append(rhs(zi))
        z5 = z + h * sum(b * k for b, k in zip(DP_B5, ks))
        z4 = z + h * sum(b * k for b, k in zip(_DP_B4, ks))
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z), np.abs(z5))
        err = float(np.sqrt(np.mean((np.asarray(z5 - z4) / scale) ** 2)))
        if err <= 1.0:
            t += h
            z = z5
            accepted += 1
            if accepted % cfg.record_every == 0 or t >= cfg.t_end - 1e-14:
                record(t, z)
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h = min(cfg.max_step, h * min(5.0, max(0.2, factor)))
        if h < 1e-15:
            raise DomainError("adaptive step collapsed")
