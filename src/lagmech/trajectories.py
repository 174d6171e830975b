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
is stretched to end on it; RK4 drops a remainder that short and records
its last state at t_end.  A step that lands on a singular metric, leaves
a field's domain (a non-finite force included), or (for slit-bundle
systems) collapses the velocity below 1e-8 truncates the trajectory
with an explicit status instead of propagating non-finite values.

Along every trajectory the energy, Lagrangian, dissipation power and the
Lagrange-equation residual (the curve's own acceleration substituted)
are recorded.  A right-hand side is one call of the curve's compiled
program (:mod:`lagmech.compiled`), built from the bound trees of L and V
under the same domain rules as every pointwise pass, which returns z'.
An RK4 step and its new state's stage, or a Dormand-Prince attempt, is
one call of a function generated around it (:func:`lagmech.compiled.stepper`)
that forms the stages in floats, in numpy's order of operations, and
checks the zero section inline.  A step that raises runs again stage by
stage through the driver, so its stop, rows and ``rhs_calls`` (which
counts right-hand sides) are a stage-by-stage run's.  A record is one
call of the ``record`` program at the recorded state and its
acceleration, which returns the four traces (a geodesic's record is
where V is read and checked, at records alone); the arrays are built at
the end.  ``Trajectory.stats`` counts what the run did and says where
and why it stopped.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SingularMetric
from .finsler import require_finsler_mode
from .mechanics import MechanicalSystem
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
            raise ConfigError(f"unknown integrator method {self.method!r}")
        for name in ("step", "t_end", "max_step"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.method == "rk4_fixed" and self.step <= 0.0:
            raise ConfigError("fixed step must be positive")
        if self.method == "rk45_adaptive":
            for name, v in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
                if not (1e-14 <= v <= 1e-2):
                    raise ConfigError(f"{name}={v} outside [1e-14, 1e-2]")
            if self.max_step <= 0.0:
                raise ConfigError("max_step must be positive")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be non-negative")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")


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
        xy = [f"{c}{i + 1}" for c in "xy" for i in range(self.n)]
        return ",".join(["t", *xy, "E", "L", "power", "el_residual"])

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
# driver
# ---------------------------------------------------------------------------


class _Run:
    """One integration: its stage and record programs, the zero-section
    guard, the records and the stats.  A stage is z' at a state z.
    """

    def __init__(self, sys: MechanicalSystem, programs):
        self.n = sys.n
        self.rhs, self.traces = programs
        self.guard = (_MIN_FIBER_NORM, "velocity collapsed onto the zero section") \
            if sys.domain_guard == "y_nonzero" else None
        self.stats = RunStats()
        self.at = (0.0, None)  # time and state of the latest evaluation
        self.rows = []

    def _guard(self, z):
        if self.guard and math.hypot(*z[self.n:]) < self.guard[0]:
            raise DomainError(self.guard[1])

    def stage(self, t, z, record=False, last=False):
        """The stage at the state z, reached at time t.

        The guard applies before the pass.  At a state due for a record
        the pass runs and is recorded first, so a state off the guard is
        still recorded, and the guard applies after the record unless the
        state is the ``last``, from which no step starts.
        """
        self.at = (t, z)
        if not record:
            self._guard(z)
        self.stats.rhs_calls += 1
        f = self.rhs(z)
        if record:
            self.record(t, z, f)
            if not last:
                self._guard(z)
        return f

    def replay(self, states, staged, times, *args):
        """A step that raised, again: its generated function of ``states`` at
        args, each stage through :meth:`stage` at its time in ``times``."""
        from .compiled import stepper

        times = iter(times)
        return stepper(states, staged, self.n)(lambda z: self.stage(next(times), z), *args)

    def record(self, t, z, stage):
        self.rows.append((t, z[:self.n], z[self.n:], *self.traces(z + stage[self.n:])))

    def stop(self, err):
        t, z = self.at
        self.stats.stop = {"t": float(t), "error": type(err).__name__, "detail": str(err),
                           "point": {"x": z[:self.n], "y": z[self.n:]}}
        if isinstance(err, SingularMetric):
            self.stats.stop["eigen_range"] = [err.min_abs_eigen, err.max_abs_eigen]

    def trajectory(self, status: str) -> Trajectory:
        t, xs, ys, *traces = zip(*self.rows) if self.rows else [()] * 7
        xs, ys = (np.array(v) if v else np.zeros((0, self.n)) for v in (xs, ys))
        return Trajectory(np.array(t), xs, ys, *map(np.array, traces), status=status,
                          stats=self.stats)


def _integrate(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig, curve):
    """Integrate from p0 along a curve family by its compiled programs: the
    stage, z -> z', and the ``record``, z + z'' -> (E, L, power, defect)."""
    from .compiled import program, stepper  # compiled at the first run, not at import

    cfg.validate()
    run = _Run(sys, (program(curve, sys.L, None if curve == "geodesic" else sys.V),
                     program("record", sys.L, sys.V, curve)))
    z = [float(v) for v in p0.x] + [float(v) for v in p0.y]
    rk4 = cfg.method == "rk4_fixed"
    step = stepper(_RK4, 4, sys.n, run.guard) if rk4 else stepper(_DP5, 6, sys.n, run.guard)
    status = "completed"
    try:
        # numpy's overflow becomes a non-finite value, which the finiteness
        # checks of the next pass turn into a DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            (_drive_rk4 if rk4 else _drive_rk45)(run, z, cfg, step)
    except (SingularMetric, DomainError) as err:
        status = "singular_metric_stop" if isinstance(err, SingularMetric) else "domain_stop"
        run.stop(err)
    return run.trajectory(status)


# the states of an RK4 step in its stages {0}..{3}, the new state's stage
# being the next step's first
_RK4 = ("hh * {0}", "hh * {1}", "h * {2}", "h6 * ({0} + 2.0 * {1} + 2.0 * {2} + {3})")


def _drive_rk4(run, z, cfg, step):
    h, total = cfg.step, cfg.t_end
    nfull = int(math.floor(total / h + 1e-9))
    rem = total - nfull * h
    if rem < 1e-12 * max(1.0, total):
        rem = 0.0
    steps = nfull + (rem > 0.0)
    f = run.stage(0.0, z, record=True, last=not steps)
    if steps:
        run.stats.min_step = h
    for k in range(1, steps + 1):
        # the last step takes the remainder; a dropped one leaves it on t_end
        t, hk, last = (k - 1) * h, h if k <= nfull else rem, k == steps
        t_new, record = total if last else k * h, last or k % cfg.record_every == 0
        try:
            z, f = step(run.rhs, z, f, hk)
        except (DomainError, SingularMetric):  # replayed for its stop, rows and counts
            z = run.replay(_RK4, 3, [t + 0.5 * hk, t + 0.5 * hk, t + hk], z, f, hk)[1]
            run.stats.accepted += 1
            f = run.stage(t_new, z, record=record, last=last)
        else:
            run.stats.rhs_calls += 4
            run.stats.accepted += 1
            run.at = (t_new, z)  # where a record that raises stops the run
            if record:
                run.record(t_new, z, f)


# Dormand-Prince 5(4) tableau; the last row of A holds the 5th-order
# weights b5, whose seventh entry is 0
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
# the states of an attempt, z + h * sum(c * k), as numpy arrays add: each
# stage's, the last z5, then z4
_DP5 = tuple("h * (0.0" + "".join(f" + ({c!r}) * {{{i}}}" for i, c in enumerate(row)) + ")"
             for row in _DP_A[1:] + [_DP_B4])


def _drive_rk45(run, z, cfg, step):
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
        try:
            z5, z4, f5 = step(run.rhs, z, f, h)
        except (DomainError, SingularMetric):  # replayed for its stop, rows and counts
            z5, z4, f5 = run.replay(_DP5, 6, [t + c * h for c in _DP_C[1:]], z, f, h)
        else:
            stats.rhs_calls += 6
            run.at = (t + h, z5)  # the last stage's, where a record that raises stops
        # FSAL: the last stage ran at the 5th-order solution; accepted, it
        # is the next step's first stage and gives the record its acceleration
        za, z5a, z4a = np.array([z, z5, z4])
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(za), np.abs(z5a))
        err = float(np.sqrt(np.mean(((z5a - z4a) / scale) ** 2)))
        if err <= 1.0:
            t = cfg.t_end if last else t + h
            z, f = z5, f5
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
    return _integrate(sys, p0, cfg, "evolution")


def integrate_horizontal(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the horizontal-curve SODE x'' = -N(x, x') x' with the
    evolution connection."""
    return _integrate(sys, p0, cfg, "horizontal")


def integrate_geodesic(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the geodesic SODE via the Christoffel contraction.

    Requires Finsler mode (checked at ``p0``): only then do the formal
    Christoffel symbols of g contract to the canonical spray, making this
    route equivalent to the free evolution equations.
    """
    require_finsler_mode(sys, p0)
    return _integrate(sys, p0, cfg, "geodesic")


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
