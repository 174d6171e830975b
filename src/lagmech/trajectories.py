"""Second-order ODE integration for the three curve families.

Evolution curves solve   x'' = -2 G(x, x'),
horizontal curves solve  x'' = -N(x, x') x',
geodesics (Finsler mode) x'' = -gamma^i_jk(x, x') x'^j x'^k.

The default integrator is classical fixed-step RK4, which keeps
convergence-order tests crisp; an adaptive Dormand-Prince 5(4) pair is
available for stiff force fields.  A step that lands on a singular
metric, leaves a field's domain, or (for slit-bundle systems) collapses
the velocity below 1e-8 truncates the trajectory with an explicit status
instead of propagating non-finite values.

Along every trajectory the energy, Lagrangian, dissipation power and the
pointwise Lagrange-equation residual (with the curve's own right-hand
side substituted for the second derivative) are recorded.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMetric
from .finsler import christoffel_at, require_finsler_mode
from .jets import push_direction
from .mechanics import MechanicalSystem, _evolution_pass, evolution_spray_at
from .phase import PhasePoint

__all__ = [
    "IntegratorConfig",
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
class Trajectory:
    """Time-sampled curve with state and conservation traces.

    ``xs`` and ``ys`` are (m, n) arrays; velocities are the time
    derivatives of the positions.  ``el_residual`` holds, per sample, the
    max-norm of the Lagrange-equation defect with the integrated SODE
    substituted for the acceleration.
    """

    t: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    energy: np.ndarray
    lagrangian: np.ndarray
    power: np.ndarray
    el_residual: np.ndarray
    status: str = "completed"

    @property
    def state(self) -> list:
        return [PhasePoint(self.xs[k], self.ys[k]) for k in range(len(self.t))]

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

    @classmethod
    def from_csv(cls, text: str) -> "Trajectory":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        header = lines[0].split(",")
        n = sum(1 for c in header if c.startswith("x"))
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        return cls(
            t=rows[:, 0],
            xs=rows[:, 1:1 + n],
            ys=rows[:, 1 + n:1 + 2 * n],
            energy=rows[:, 1 + 2 * n],
            lagrangian=rows[:, 2 + 2 * n],
            power=rows[:, 3 + 2 * n],
            el_residual=rows[:, 4 + 2 * n],
        )

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
# right-hand sides
# ---------------------------------------------------------------------------


def _evolution_accel(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    return -2.0 * _evolution_pass(sys, p).spray


def _horizontal_accel(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    # N^i_j y^j is the y-directional derivative of the evolution spray
    # along y itself; one dual pass delivers the whole contraction.
    ny = push_direction(lambda q: evolution_spray_at(sys, q), p,
                        [float(v) for v in p.y], wrt="y")
    return -np.asarray(ny, dtype=float)


def _geodesic_accel(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    gamma = christoffel_at(sys, p)
    yv = np.array([float(v) for v in p.y])
    return -(gamma @ yv @ yv)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _observe(sys: MechanicalSystem, p: PhasePoint, accel: np.ndarray | None):
    """Energy, Lagrangian, power, and Lagrange-equation defect at a point.

    With ``accel=None`` the evolution acceleration -2G is derived from the
    same jet (one evaluation serves both), which makes the defect vanish
    identically along evolution curves; other curve families pass their
    own right-hand side in.
    """
    r = _evolution_pass(sys, p)
    j, yv, sigma = r.jet, r.y, r.sigma
    if accel is None:
        accel = -2.0 * r.spray
    energy = float(yv @ j.d_y - j.value)
    power = float(sigma @ yv)
    el = j.d_xy @ yv + j.d_yy @ accel - j.d_x - sigma
    return energy, float(j.value), power, float(np.abs(el).max())


def _integrate(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig, accel_fn,
               observe_with_own_accel: bool = False):
    cfg.validate()
    n = sys.n
    guard_fiber = sys.domain_guard == "y_nonzero"

    def rhs(z):
        p = PhasePoint(z[:n], z[n:])
        if guard_fiber and p.y_norm() < _MIN_FIBER_NORM:
            raise DomainError("velocity collapsed onto the zero section")
        a = accel_fn(sys, p)
        return np.concatenate([z[n:], a])

    t_rec, x_rec, y_rec = [], [], []
    e_rec, l_rec, w_rec, r_rec = [], [], [], []
    status = "completed"

    def record(t, z):
        p = PhasePoint(z[:n], z[n:])
        a = None if observe_with_own_accel else accel_fn(sys, p)
        e, lv, w, r = _observe(sys, p, a)
        t_rec.append(t)
        x_rec.append(np.array(z[:n]))
        y_rec.append(np.array(z[n:]))
        e_rec.append(e)
        l_rec.append(lv)
        w_rec.append(w)
        r_rec.append(r)

    z = np.concatenate([
        np.array([float(v) for v in p0.x]),
        np.array([float(v) for v in p0.y]),
    ])
    t = 0.0
    try:
        record(0.0, z)
        if cfg.t_end > 0.0:
            if cfg.method == "rk4_fixed":
                _drive_rk4(rhs, record, z, cfg)
            else:
                _drive_rk45(rhs, record, z, cfg)
    except SingularMetric:
        status = "singular_metric_stop"
    except DomainError:
        status = "domain_stop"

    xs = np.stack(x_rec) if x_rec else np.zeros((0, n))
    ys = np.stack(y_rec) if y_rec else np.zeros((0, n))
    return Trajectory(
        t=np.array(t_rec),
        xs=xs,
        ys=ys,
        energy=np.array(e_rec),
        lagrangian=np.array(l_rec),
        power=np.array(w_rec),
        el_residual=np.array(r_rec),
        status=status,
    )


def _rk4_step(rhs, z, h):
    k1 = rhs(z)
    k2 = rhs(z + 0.5 * h * k1)
    k3 = rhs(z + 0.5 * h * k2)
    k4 = rhs(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _drive_rk4(rhs, record, z, cfg):
    h = cfg.step
    total = cfg.t_end
    nfull = int(math.floor(total / h + 1e-9))
    rem = total - nfull * h
    if rem < 1e-12 * max(1.0, total):
        rem = 0.0
    t = 0.0
    for k in range(1, nfull + 1):
        z = _rk4_step(rhs, z, h)
        t = k * h
        if k % cfg.record_every == 0 or (k == nfull and rem == 0.0):
            record(t, z)
    if rem > 0.0:
        z = _rk4_step(rhs, z, rem)
        record(total, z)


# Dormand-Prince 5(4) tableau
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
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _drive_rk45(rhs, record, z, cfg):
    t = 0.0
    h = min(cfg.max_step, cfg.t_end)
    accepted = 0
    while t < cfg.t_end - 1e-14:
        h = min(h, cfg.t_end - t)
        ks = [rhs(z)]
        for i in range(1, 7):
            zi = z + h * sum(a * k for a, k in zip(_DP_A[i], ks))
            ks.append(rhs(zi))
        z5 = z + h * sum(b * k for b, k in zip(_DP_B5, ks))
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


# ---------------------------------------------------------------------------
# public integrators
# ---------------------------------------------------------------------------


def integrate_evolution(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the forced evolution SODE x'' = -2 G(x, x')."""
    return _integrate(sys, p0, cfg, _evolution_accel, observe_with_own_accel=True)


def integrate_horizontal(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the horizontal-curve SODE x'' = -N(x, x') x' with the
    evolution connection."""
    return _integrate(sys, p0, cfg, _horizontal_accel)


def integrate_geodesic(sys: MechanicalSystem, p0: PhasePoint, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the geodesic SODE via the Christoffel contraction.

    Requires Finsler mode (checked at ``p0``): only then do the formal
    Christoffel symbols of g contract to the canonical spray, making this
    route equivalent to the free evolution equations.
    """
    require_finsler_mode(sys, p0)
    return _integrate(sys, p0, cfg, _geodesic_accel)


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
