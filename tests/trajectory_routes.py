"""Reference integrators for the tests: the seven-stage Dormand-Prince
driver, which evaluates every stage of every attempt afresh, and the RK4
driver whose records run their own right-hand side and pass.  A dropped
RK4 remainder leaves the last state on t_end, as in the engine.

Both take :class:`~lagmech.trajectories.IntegratorConfig` and return a
:class:`~lagmech.trajectories.Trajectory` whose stats hold only the stop
of a run that did not complete: the error, its detail and the state of
the evaluation that raised (the current state for a collapsed adaptive
step), without its time.  By default they read the engine's
accelerations (the compiled curve programs) and compute the traces with
numpy and the jets' contractions from L's blocks by the order-2 ``jet``
program and V as the curve's stage reads it (:func:`contract_traces`),
so a test can compare the engine's drivers and its compiled records with
them bit for bit.  With ``jet=True`` they
read the jet route instead, the engine's reference for the compiled
programs: the reference tower's float evolution pass, a push of it along
y, and its Christoffel symbols (:mod:`tower`).
"""

import math

import numpy as np

from lagmech.compiled import program, run
from lagmech.errors import DomainError, SingularMetric
from lagmech.finsler import require_finsler_mode
from lagmech.phase import PhasePoint
from lagmech.trajectories import _DP_A, _DP_B4, _MIN_FIBER_NORM, RunStats, Trajectory
from tower import call, christoffel, matvec, push_direction, vecdot
from tower import evolution_pass as _evolution_pass

# the 5th-order weights of the pair
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])


def evolution_accel(sys, p):
    return -2.0 * _evolution_pass(sys, p)[5]


def horizontal_accel(sys, p):
    ny = push_direction(lambda q: _evolution_pass(sys, q)[5], p,
                        [float(v) for v in p.y], wrt="y")
    return -np.asarray(ny, dtype=float)


def geodesic_accel(sys, p):
    gamma = christoffel(sys.L, p)
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


def contract_traces(sys, curve, z, accel):
    """E, L, power and the Lagrange defect at z with the acceleration accel,
    by numpy and the tower's contractions, from L's blocks by the order-2 ``jet``
    program (row-major lists) and V as the curve's stage reads it: the
    value for evolution curves and geodesics, the ``point`` program's,
    pushed along y, for horizontal curves."""
    n = sys.n
    zl = np.asarray(z).tolist()
    value, d_x, d_y, d_yy, d_xy = (np.array(b) for b in program("jet", sys.L, None, 2)(zl)[:5])
    d_yy, d_xy, yv, value = d_yy.reshape(n, n), d_xy.reshape(n, n), np.array(zl[n:]), value[0]
    if curve == "horizontal":
        v = run("report", sys.L, sys.V, PhasePoint(zl[:n], zl[n:]), "point")["V"]
    else:
        v = call(sys.V, zl[:n], zl[n:])
        if not all(map(math.isfinite, v)):
            raise DomainError("force evaluation produced a non-finite value")
    sigma = matvec(d_yy * 0.5, v)
    el = matvec(d_xy, yv) + matvec(d_yy, accel) - d_x - sigma
    return (float(vecdot(yv, d_y) - value), float(value), float(vecdot(sigma, yv)),
            float(np.abs(el).max()))


def integrate(curve, sys, p0, cfg, jet=False) -> Trajectory:
    cfg.validate()
    if curve == "geodesic":
        require_finsler_mode(sys, p0)
    n = sys.n
    guard_fiber = sys.domain_guard == "y_nonzero"
    if jet:
        def accel(z):
            return ACCEL[curve](sys, PhasePoint(z[:n], z[n:]))

        def traces(z):
            p = PhasePoint(z[:n], z[n:])
            return observe(sys, p, None if curve == "evolution" else accel(z))
    else:
        stage = program(curve, sys.L, None if curve == "geodesic" else sys.V)

        def accel(z):
            return stage(z.tolist())[n:]

        def traces(z):
            return contract_traces(sys, curve, z, accel(z))

    at = [None]  # the state of the latest evaluation

    def rhs(z):
        at[0] = z
        if guard_fiber and math.hypot(*z[n:]) < _MIN_FIBER_NORM:
            raise DomainError("velocity collapsed onto the zero section")
        return np.concatenate([z[n:], accel(z)])

    rows = []

    def record(t, z):
        at[0] = z
        rows.append((t, np.array(z[:n]), np.array(z[n:]), *traces(z)))

    z = np.concatenate([np.array([float(v) for v in p0.x]),
                        np.array([float(v) for v in p0.y])])
    status, stats = "completed", RunStats()
    try:
        record(0.0, z)
        if cfg.t_end > 0.0:
            if cfg.method == "rk4_fixed":
                drive_rk4(rhs, record, z, cfg)
            else:
                drive_rk45(rhs, record, z, cfg, at)
    except (SingularMetric, DomainError) as err:
        status = "singular_metric_stop" if isinstance(err, SingularMetric) else "domain_stop"
        stats.stop = {"error": type(err).__name__, "detail": str(err),
                      "point": {"x": at[0][:n].tolist(), "y": at[0][n:].tolist()}}
    t, xs, ys, e, lv, w, r = zip(*rows) if rows else [()] * 7
    return Trajectory(t=np.array(t), xs=np.stack(xs) if xs else np.zeros((0, n)),
                      ys=np.stack(ys) if ys else np.zeros((0, n)),
                      energy=np.array(e), lagrangian=np.array(lv), power=np.array(w),
                      el_residual=np.array(r), status=status, stats=stats)


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
        if k == nfull and rem == 0.0:
            record(total, z)
        elif k % cfg.record_every == 0:
            record(t, z)
    if rem > 0.0:
        z = rk4_step(rhs, z, rem)
        record(total, z)


def drive_rk45(rhs, record, z, cfg, at):
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
            at[0] = z
            raise DomainError("adaptive step collapsed")
