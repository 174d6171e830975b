"""Second-order ODE integration for the three curve families.

Evolution curves solve   x'' = -2 G(x, x'),
horizontal curves solve  x'' = -N(x, x') x',
geodesics (Finsler mode) x'' = -gamma^i_jk(x, x') x'^j x'^k.

The default integrator is classical fixed-step RK4, which keeps
convergence-order tests crisp; an adaptive Dormand-Prince 5(4) pair
(explicit, so not meant for stiff force fields) controls the local error
instead.  A step costs 4 right-hand sides under RK4 and 6 under
Dormand-Prince, whose last stage is evaluated at the new state and
serves as the next step's first (FSAL); a rejected step keeps its first
stage, and a NaN error estimate rejects with the smallest step factor.
A Dormand-Prince step that would end within 1e-12 max(1, t_end) of t_end
is stretched to end on it (RK4 drops a remainder that short).  A step that lands on a singular metric, leaves a
field's domain (a non-finite force included), or (for slit-bundle
systems) collapses the velocity below 1e-8 truncates the trajectory
with an explicit status instead of propagating non-finite values.

Along every trajectory the energy, Lagrangian, dissipation power and the
pointwise Lagrange-equation residual (with the curve's own right-hand
side substituted for the second derivative) are recorded.  Each
right-hand side returns the pass it ran (the jet of L, the metric, y and
V, seeded for horizontal curves and geodesics) next to the acceleration,
and a record reads the value parts of the pass of the stage evaluated at
its state, so recording costs no pass of its own.  ``Trajectory.stats``
counts what the run did and says where and why it stopped.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularMetric
from .finsler import require_finsler_mode
from .jets import (
    eval_jet,
    push_direction,
    seed_point,
    sym_invert,
    tangent_part,
    tower_vector,
    value_part,
)
from .mechanics import MechanicalSystem, _christoffel, _evolution_pass
from .phase import PhasePoint

__all__ = [
    "IntegratorConfig",
    "RunStats",
    "Trajectory",
    "integrate_evolution",
    "integrate_horizontal",
    "integrate_geodesic",
    "energy_audit",
]

_MIN_FIBER_NORM = 1e-8


@dataclass
class IntegratorConfig:
    """Integration settings.

    ``method`` is "rk4_fixed" (default) or "rk45_adaptive".  Fixed-step
    integration uses ``step``; the adaptive pair uses ``rel_tol``,
    ``abs_tol`` and ``max_step``.  States are recorded at t=0, every
    ``record_every`` accepted steps, and at the final time.
    """

    method: str = "rk4_fixed"
    step: float = 1e-3
    t_end: float = 10.0
    record_every: int = 1
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 0.1

    def validate(self):
        if self.method not in ("rk4_fixed", "rk45_adaptive"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        for name in ("step", "t_end", "max_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.method == "rk4_fixed" and self.step <= 0.0:
            raise ValueError("fixed step must be positive")
        if self.method == "rk45_adaptive":
            for name, v in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
                if not (1e-14 <= v <= 1e-2):
                    raise ValueError(f"{name}={v} outside [1e-14, 1e-2]")
            if self.max_step <= 0.0:
                raise ValueError("max_step must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be non-negative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass
class RunStats:
    """What an integration did, after DOPRI5's nfcn / naccpt / nrejct.

    ``rhs_calls`` counts right-hand-side evaluations (one pass each),
    ``accepted`` and ``rejected`` the steps (RK4 rejects none), and
    ``min_step`` is the smallest step size the run chose before shortening
    a last step to end at t_end (inf when it took none).
    ``stop`` is None for a completed run; otherwise it records the time
    and state of the evaluation that failed, the error type and message
    (which tell the zero-section guard, a field's domain, a singular
    metric and a collapsed adaptive step apart) and, for a singular
    metric, the ``eigen_range`` [min |eig|, max |eig|] it met.
    """

    rhs_calls: int = 0
    accepted: int = 0
    rejected: int = 0
    min_step: float = math.inf
    stop: dict | None = None


@dataclass
class Trajectory:
    """Time-sampled curve with state and conservation traces.

    ``xs`` and ``ys`` are (m, n) arrays; velocities are the time
    derivatives of the positions.  ``el_residual`` holds, per sample, the
    max-norm of the Lagrange-equation defect with the integrated SODE
    substituted for the acceleration.  ``stats`` describes the run; it is
    not serialized and takes no part in comparisons.
    """

    t: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    energy: np.ndarray
    lagrangian: np.ndarray
    power: np.ndarray
    el_residual: np.ndarray
    status: str = "completed"
    stats: RunStats = field(default_factory=RunStats, compare=False)

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    # -- serialization --------------------------------------------------

    def csv_header(self) -> str:
        n = self.n
        cols = ["t"]
        cols += [f"x{i+1}" for i in range(n)]
        cols += [f"y{i+1}" for i in range(n)]
        cols += ["E", "L", "power", "el_residual"]
        return ",".join(cols)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(self.csv_header() + "\n")
        for k in range(len(self.t)):
            row = [self.t[k], *self.xs[k], *self.ys[k],
                   self.energy[k], self.lagrangian[k],
                   self.power[k], self.el_residual[k]]
            out.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return out.getvalue()

    def to_dict(self) -> dict:
        return {
            "t": self.t.tolist(),
            "x": self.xs.tolist(),
            "y": self.ys.tolist(),
            "energy": self.energy.tolist(),
            "lagrangian": self.lagrangian.tolist(),
            "power": self.power.tolist(),
            "el_residual": self.el_residual.tolist(),
            "status": self.status,
        }


# ---------------------------------------------------------------------------
# right-hand sides: each returns the acceleration and the pass (jet of L,
# metric, y, V) it ran at p, whose value parts are the float pass at p
# ---------------------------------------------------------------------------


def _evolution_rhs(sys: MechanicalSystem, p: PhasePoint):
    j, g, yv, v, _, spray = _evolution_pass(sys, p)
    return -2.0 * spray, (j, g, yv, v)


def _horizontal_rhs(sys: MechanicalSystem, p: PhasePoint):
    # N^i_j y^j is the y-directional derivative of the evolution spray
    # along y itself; one dual pass delivers the whole contraction.
    passes = []

    def spray(q):
        passes.append(_evolution_pass(sys, q))
        return passes[-1][5]

    ny = push_direction(spray, p, [float(v) for v in p.y], wrt="y")
    return -np.asarray(ny, dtype=float), passes[0][:4]


def _geodesic_rhs(sys: MechanicalSystem, p: PhasePoint):
    # the Christoffel symbols of finsler.christoffel_at, from one jet of L
    # with x seeded along every base direction.  This pass never evaluates
    # V: a record does (None here).
    d = eval_jet(sys.L, seed_point(p, np.eye(p.n), wrt="x"), 2)
    gx = d.d_yy * 0.5
    g = sym_invert(value_part(gx))
    gamma = _christoffel(g.inverse, tangent_part(gx, p.n))
    yv = np.array([float(v) for v in p.y])
    return -(gamma @ yv @ yv), (d, g, yv, None)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _observe(j, g, yv, v, accel):
    """Energy, Lagrangian, power, and Lagrange-equation defect from a float
    pass at a point and the curve's acceleration there; along evolution
    curves the defect vanishes identically."""
    sigma = g.entries @ v
    energy = float(yv @ j.d_y - j.value)
    power = float(sigma @ yv)
    el = j.d_xy @ yv + j.d_yy @ accel - j.d_x - sigma
    return energy, float(j.value), power, float(np.abs(el).max())


class _Run:
    """One integration: its right-hand side, the zero-section guard, the
    records and the stats.  A stage is the pair (z', the pass and the
    acceleration) at a state z.
    """

    def __init__(self, sys: MechanicalSystem, rhs):
        self.sys = sys
        self.rhs = rhs
        self.guard_fiber = sys.domain_guard == "y_nonzero"
        self.stats = RunStats()
        self.at = (0.0, None)  # time and state of the latest evaluation
        self.rows = []

    def _guard(self, p: PhasePoint):
        if self.guard_fiber and p.y_norm() < _MIN_FIBER_NORM:
            raise DomainError("velocity collapsed onto the zero section")

    def stage(self, t, z, record=False, last=False):
        """The stage at the state z, reached at time t.

        The guard applies before the pass.  At a state due for a record
        the pass runs and is recorded first, so a state off the guard is
        still recorded, and the guard applies after the record unless the
        state is the ``last``, from which no step starts.
        """
        n = self.sys.n
        p = PhasePoint(z[:n], z[n:])
        self.at = (t, z)
        if not record:
            self._guard(p)
        self.stats.rhs_calls += 1
        accel, seen = self.rhs(self.sys, p)
        f = (np.concatenate([z[n:], accel]), (*seen, accel))
        if record:
            self.record(t, z, f)
            if not last:
                self._guard(p)
        return f

    def record(self, t, z, stage):
        n = self.sys.n
        j, g, yv, v, accel = stage[1]
        if v is None:
            p = PhasePoint(z[:n], z[n:])
            v = tower_vector(self.sys.V(p.x, p.y))
        obs = _observe(j.primal(), g.primal(), value_part(yv), value_part(v), accel)
        self.rows.append((t, np.array(z[:n]), np.array(z[n:]), *obs))

    def stop(self, err):
        t, z = self.at
        n = self.sys.n
        self.stats.stop = {"t": float(t), "error": type(err).__name__, "detail": str(err),
                           "point": {"x": z[:n].tolist(), "y": z[n:].tolist()}}
        if isinstance(err, SingularMetric):
            self.stats.stop["eigen_range"] = [err.min_abs_eigen, err.max_abs_eigen]

    def trajectory(self, status: str) -> Trajectory:
        n = self.sys.n
        t, xs, ys, e, lv, w, r = zip(*self.rows) if self.rows else [()] * 7
        return Trajectory(
            t=np.array(t),
            xs=np.stack(xs) if xs else np.zeros((0, n)),
            ys=np.stack(ys) if ys else np.zeros((0, n)),
            energy=np.array(e),
            lagrangian=np.array(lv),
            power=np.array(w),
            el_residual=np.array(r),
            status=status,
            stats=self.stats,
        )


def _integrate(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig, rhs):
    cfg.validate()
    run = _Run(sys, rhs)
    z = np.concatenate([
        np.array([float(v) for v in p0.x]),
        np.array([float(v) for v in p0.y]),
    ])
    status = "completed"
    try:
        (_drive_rk4 if cfg.method == "rk4_fixed" else _drive_rk45)(run, z, cfg)
    except SingularMetric as err:
        status = "singular_metric_stop"
        run.stop(err)
    except DomainError as err:
        status = "domain_stop"
        run.stop(err)
    return run.trajectory(status)


def _rk4_step(run, t, z, h, f):
    """One RK4 step of size h from the state z at time t, whose stage f
    is given."""
    k1 = f[0]
    k2 = run.stage(t + 0.5 * h, z + 0.5 * h * k1)[0]
    k3 = run.stage(t + 0.5 * h, z + 0.5 * h * k2)[0]
    k4 = run.stage(t + h, z + h * k3)[0]
    run.stats.accepted += 1
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _drive_rk4(run, z, cfg):
    h = cfg.step
    total = cfg.t_end
    nfull = int(math.floor(total / h + 1e-9))
    rem = total - nfull * h
    if rem < 1e-12 * max(1.0, total):
        rem = 0.0
    f = run.stage(0.0, z, record=True, last=not (nfull or rem))
    if nfull or rem:
        run.stats.min_step = h
    for k in range(1, nfull + 1):
        z = _rk4_step(run, (k - 1) * h, z, h, f)
        last = k == nfull and rem == 0.0
        # the new state's stage is the next step's first; a record reads it
        f = run.stage(k * h, z, record=last or k % cfg.record_every == 0, last=last)
    if rem > 0.0:
        z = _rk4_step(run, nfull * h, z, rem, f)
        run.stage(total, z, record=True, last=True)


# Dormand-Prince 5(4) tableau; the last row of A holds the 5th-order
# weights b5, whose seventh entry is 0
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _drive_rk45(run, z, cfg):
    stats = run.stats
    t = 0.0
    h = min(cfg.max_step, cfg.t_end)
    # a step that would stop this close to t_end is stretched to end on it
    end_tol = 1e-12 * max(1.0, cfg.t_end)
    f = run.stage(0.0, z, record=True, last=not t < cfg.t_end - 1e-14)
    while t < cfg.t_end - 1e-14:
        stats.min_step = min(stats.min_step, h)
        last = cfg.t_end - (t + h) < end_tol
        if last:
            h = cfg.t_end - t
        ks = [f[0]]
        for i in range(1, 7):
            zi = z + h * sum(a * k for a, k in zip(_DP_A[i], ks))
            f7 = run.stage(t + _DP_C[i] * h, zi)
            ks.append(f7[0])
        # FSAL: the last stage ran at the 5th-order solution; accepted, it
        # is the next step's first stage and the record's pass
        z5 = zi
        z4 = z + h * sum(b * k for b, k in zip(_DP_B4, ks))
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z), np.abs(z5))
        err = float(np.sqrt(np.mean((np.asarray(z5 - z4) / scale) ** 2)))
        if err <= 1.0:
            t = cfg.t_end if last else t + h
            z, f = z5, f7
            stats.accepted += 1
            if stats.accepted % cfg.record_every == 0 or last:
                run.record(t, z, f)
        else:
            stats.rejected += 1
        # a NaN estimate (no stage raised) rejects with the smallest factor
        factor = 0.2 if math.isnan(err) else 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h = min(cfg.max_step, h * min(5.0, max(0.2, factor)))
        if h < 1e-15:
            run.at = (t, z)
            raise DomainError("adaptive step collapsed")


# ---------------------------------------------------------------------------
# public integrators
# ---------------------------------------------------------------------------


def integrate_evolution(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the forced evolution SODE x'' = -2 G(x, x')."""
    return _integrate(sys, p0, cfg, _evolution_rhs)


def integrate_horizontal(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the horizontal-curve SODE x'' = -N(x, x') x' with the
    evolution connection."""
    return _integrate(sys, p0, cfg, _horizontal_rhs)


def integrate_geodesic(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the geodesic SODE via the Christoffel contraction.

    Requires Finsler mode (checked at ``p0``): only then do the formal
    Christoffel symbols of g contract to the canonical spray, making this
    route equivalent to the free evolution equations.
    """
    require_finsler_mode(sys, p0)
    return _integrate(sys, p0, cfg, _geodesic_rhs)


def energy_audit(traj: Trajectory, sys: MechanicalSystem):
    """Compare the numerical energy rate with the recorded power trace.

    Returns ``(max_balance_error, monotone_nonincreasing)``.  The rate is
    estimated from the energy trace by second-order differences (centered
    inside, one-sided at the ends), so the balance error reflects both
    integrator and differencing accuracy.
    """
    if len(traj.t) < 3:
        return 0.0, True
    dedt = np.gradient(traj.energy, traj.t, edge_order=2)
    max_err = float(np.abs(dedt - traj.power).max())
    monotone = bool(np.all(np.diff(traj.energy) <= 0.0))
    return max_err, monotone
