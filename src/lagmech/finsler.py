"""Diagnostics for velocity-homogeneous (Finslerian) systems.

A Lagrange structure is Finslerian when L is positively 2-homogeneous in
the fiber coordinates; Euler's relation (dL/dy_i) y^i = 2L is the
runtime test.  Homogeneity is checked, never declared: near-homogeneous
Lagrangians can be probed with the same tooling.

Consequences verified here: the energy coincides with L, the canonical
spray contracts out of the formal Christoffel symbols of g,

    2 G0^i = gamma^i_jk y^j y^k,

and for a zero-homogeneous force the evolution horizontal curves drop
the force term, so the energy is constant along them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, FinslerModeError, SingularMetric, failure_record
from .geometry import _christoffel, _metric_x_pass
from .jets import eval_jet, push_direction, sym_invert, tower_vector
from .mechanics import MechanicalSystem, PointGeometry
from .phase import PhasePoint

__all__ = [
    "HomogeneityReport",
    "FinslerIdentityReport",
    "homogeneity_report",
    "homogeneity_residual_at",
    "is_finsler_mode",
    "require_finsler_mode",
    "christoffel_at",
    "finsler_identities",
]

_GATE_TOL = 1e-8


@dataclass
class HomogeneityReport:
    """Euler-relation residuals over a sample sweep.

    ``lagrangian_residual``: max |(dL/dy_i) y^i - 2L| (degree-2 test for L)
    ``metric_residual``:     max |(dg_ij/dy_k) y^k|   (degree-0 test for g)
    ``force_residual``:      max |(dV^i/dy_j) y^j|    (degree-0 test for V)
    """

    lagrangian_residual: float
    metric_residual: float
    force_residual: float
    points_tested: int
    accepted: bool
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _euler_defect(j, p: PhasePoint) -> float:
    """|(dL/dy_i) y^i - 2L| from a jet of L at ``p``."""
    return float(abs(tower_vector(p.y) @ j.d_y - 2.0 * j.value))


def homogeneity_residual_at(sys: MechanicalSystem, p: PhasePoint) -> float:
    """|Euler defect| of L at one point: |(dL/dy_i) y^i - 2L|."""
    return _euler_defect(eval_jet(sys.L, p, order=1), p)


def is_finsler_mode(sys: MechanicalSystem, probes, tol: float = _GATE_TOL) -> bool:
    """Whether L passes the Euler test, |defect| <= tol (1 + |L|), at each
    of the first 8 probes where it can be evaluated.

    Probes outside the domain (or where the metric is singular) are
    skipped, as a sweep skips such points; false when none evaluates.
    """
    tested = 0
    for p in probes:
        try:
            j = eval_jet(sys.L, p, order=1)
        except (SingularMetric, DomainError):
            continue
        if _euler_defect(j, p) > tol * (1.0 + abs(j.value)):
            return False
        tested += 1
        if tested == 8:
            break
    return tested > 0


def require_finsler_mode(sys: MechanicalSystem, p: PhasePoint, tol: float = _GATE_TOL):
    """Gate an operation on the homogeneity of L at a reference point."""
    j = eval_jet(sys.L, p, order=1)
    res = _euler_defect(j, p)
    if res > tol * (1.0 + abs(j.value)):
        raise FinslerModeError(
            f"Lagrangian is not 2-homogeneous at {p} (Euler defect {res:.3e})"
        )


def homogeneity_report(sys: MechanicalSystem, samples) -> HomogeneityReport:
    """Run the three Euler tests over a sample set.

    The system is accepted as Finsler-mode when the Lagrangian residual
    stays below 1e-8 (1 + |L|) at every sampled point.
    """
    lag_res = 0.0
    met_res = 0.0
    frc_res = 0.0
    tested = 0
    accepted = True
    failures = []
    for idx, p in enumerate(samples):
        try:
            j = eval_jet(sys.L, p, order=3)
            dvy = push_direction(lambda q: sys.V(q.x, q.y), p,
                                 [float(v) for v in p.y], wrt="y")
        except (SingularMetric, DomainError) as err:
            failures.append(failure_record(idx, err, p))
            continue
        tested += 1
        lag = _euler_defect(j, p)
        if lag > _GATE_TOL * (1.0 + abs(j.value)):
            accepted = False
        lag_res = max(lag_res, lag)
        met_res = max(met_res, float(np.abs((j.d_yyy @ tower_vector(p.y)) * 0.5).max()))
        frc_res = max(frc_res, float(np.abs(dvy).max()))
    return HomogeneityReport(
        lagrangian_residual=lag_res,
        metric_residual=met_res,
        force_residual=frc_res,
        points_tested=tested,
        accepted=accepted and tested > 0,
        failures=failures,
    )


def christoffel_at(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Formal Christoffel symbols of second kind of g(x, y).

    gamma^i_jk = (1/2) g^{ih} (dg_hj/dx_k + dg_hk/dx_j - dg_jk/dx_h),
    with g and its position derivatives from one jet of L with x seeded
    along every base direction.  For a homogeneous L these contract to
    the canonical spray: gamma^i_jk y^j y^k = 2 G0^i.
    """
    g, dgdx = _metric_x_pass(sys.L, p)
    return _christoffel(sym_invert(g).inverse, dgdx)


@dataclass
class FinslerIdentityReport:
    """Residuals of the homogeneity-forced identities over a sweep.

    ``energy_residual``            max |E - L| / (1 + |L|)
    ``spray_homogeneity_residual`` max |2 G0^i - N0^i_j y^j|
    ``energy_slope_residual``      max |dE_horiz - (1/2)(g y)^T dV/dy|
    ``christoffel_residual``       max |gamma^i_jk y^j y^k - 2 G0^i|
    """

    energy_residual: float
    spray_homogeneity_residual: float
    energy_slope_residual: float
    christoffel_residual: float
    points_tested: int
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def finsler_identities(sys: MechanicalSystem, samples) -> FinslerIdentityReport:
    """Verify the identities forced by 2-homogeneity over a sample set."""
    res_e = 0.0
    res_h = 0.0
    res_s = 0.0
    res_c = 0.0
    tested = 0
    failures = []
    for idx, p in enumerate(samples):
        try:
            require_finsler_mode(sys, p)
            ctx = PointGeometry(sys, p)
            gamma = ctx.christoffel
        except (SingularMetric, DomainError, FinslerModeError) as err:
            failures.append(failure_record(idx, err, p))
            continue
        tested += 1
        lv, yv, spray0 = ctx.jet.value, ctx.y, ctx.spray0
        res_e = max(res_e, float(abs(ctx.energy - lv)) / (1.0 + abs(float(lv))))
        res_h = max(res_h, float(np.abs(2.0 * spray0 - ctx.conn0 @ yv).max()))
        rhs = 0.5 * (ctx.metric.entries @ yv @ ctx.dV_dy)
        res_s = max(res_s, float(np.abs(ctx.horizontal_dE() - rhs).max()))
        res_c = max(res_c, float(np.abs(gamma @ yv @ yv - 2.0 * spray0).max()))
    return FinslerIdentityReport(
        energy_residual=res_e,
        spray_homogeneity_residual=res_h,
        energy_slope_residual=res_s,
        christoffel_residual=res_c,
        points_tested=tested,
        failures=failures,
    )
