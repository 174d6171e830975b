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

The Euler tests run the compiled ``jet`` program (order 1 for the mode
gate; order 2 with the partials along y in the direction y for
:func:`homogeneity_report`), which does not invert the metric, so a
singular metric does not fail them; the Christoffel symbols read g and
dg/dx from the ``metric_x`` program (:mod:`lagmech.compiled`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, FinslerModeError
from .jets import batch_shape, eval_jet, matvec, max_abs, sym_invert, value_of, vecdot, vecmat
from .mechanics import MechanicalSystem, PointGeometry, _christoffel, _run, each_point, sweep
from .phase import PhasePoint

__all__ = [
    "HomogeneityReport",
    "FinslerIdentityReport",
    "homogeneity_report",
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


def _euler_defect(value, d_y, p: PhasePoint) -> float:
    """|(dL/dy_i) y^i - 2L| from L and dL/dy at ``p`` (per point of a batch);
    a DomainError where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = value_of(abs(vecdot(np.array(p.y), d_y) - 2.0 * value))
    if not np.isfinite(defect).all():
        raise DomainError("field evaluation produced a non-finite value")
    return defect


def _fails_euler(defect, value, tol: float = _GATE_TOL):
    """Whether a defect fails the Euler test, defect <= tol (1 + |L|), per point."""
    return np.logical_not(defect <= tol * (1.0 + abs(value)))


def _probe_values(sys: MechanicalSystem, p: PhasePoint) -> dict:
    value, _, d_y = _run("jet", sys.L, None, p, 1)[:3]
    return {"defect": _euler_defect(value, d_y, p), "value": value}


def is_finsler_mode(sys: MechanicalSystem, probes, tol: float = _GATE_TOL) -> bool:
    """Whether L passes the Euler test, |defect| <= tol (1 + |L|), at each
    of the first 8 probes where it can be evaluated.

    Probes outside the domain (or where the metric is singular) are
    skipped, as a sweep skips such points; false when none evaluates.
    The probes run as one batch of up to 8, and a further batch only for
    as many as were skipped.
    """
    probes = list(probes)
    tested = start = 0
    while tested < 8 and start < len(probes):
        batch = probes[start:start + 8 - tested]
        start += len(batch)
        for _, _, values, err in each_point(batch, lambda q: _probe_values(sys, q)):
            if err is not None:
                continue
            if _fails_euler(values["defect"], values["value"], tol):
                return False
            tested += 1
    return tested > 0


def _require_euler(j, p: PhasePoint):
    """Raise FinslerModeError unless a jet of L at ``p`` passes the Euler
    test (at every point of a batch)."""
    res = _euler_defect(j.value, j.d_y, p)
    bad = _fails_euler(res, j.value)
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise FinslerModeError(
                f"Lagrangian is not 2-homogeneous at {int(bad.sum())} of {bad.size} points")
    elif bad:
        raise FinslerModeError(
            f"Lagrangian is not 2-homogeneous at {p} (Euler defect {res:.3e})"
        )


def require_finsler_mode(sys: MechanicalSystem, p: PhasePoint):
    """Gate an operation on the homogeneity of L at a reference point."""
    _require_euler(eval_jet(sys.L, p, order=1), p)


def _euler_values(sys: MechanicalSystem, p: PhasePoint) -> dict:
    b = bool(batch_shape(p))
    value, d_y, dg_y, dv_y = _run("jet", sys.L, sys.V, p)
    lag = _euler_defect(value, d_y, p)
    return {"lagrangian_residual": lag,
            "metric_residual": max_abs(dg_y, b),
            "force_residual": max_abs(dv_y, b),
            "rejected": _fails_euler(lag, value)}


def homogeneity_report(sys: MechanicalSystem, samples) -> HomogeneityReport:
    """Run the three Euler tests over a sample set.

    The system is accepted as Finsler-mode when the Lagrangian residual
    stays below 1e-8 (1 + |L|) at every sampled point.  Each point costs
    one pass of L and V with their partials along y in the direction y:
    L and dL/dy give the Euler defect, and the pass also gives (dg/dy) y
    and (dV/dy) y.
    """
    worst, tested, failures = sweep(samples, lambda p: _euler_values(sys, p))
    return HomogeneityReport(
        lagrangian_residual=worst.get("lagrangian_residual", 0.0),
        metric_residual=worst.get("metric_residual", 0.0),
        force_residual=worst.get("force_residual", 0.0),
        points_tested=tested,
        accepted=tested > 0 and not worst["rejected"],
        failures=failures,
    )


def christoffel_at(sys: MechanicalSystem, p: PhasePoint) -> np.ndarray:
    """Formal Christoffel symbols of second kind of g(x, y).

    gamma^i_jk = (1/2) g^{ih} (dg_hj/dx_k + dg_hk/dx_j - dg_jk/dx_h),
    with g and its position derivatives from one ``metric_x`` pass.  For a
    homogeneous L these contract to the canonical spray:
    gamma^i_jk y^j y^k = 2 G0^i.
    """
    g, dgdx = _run("metric_x", sys.L, None, p)
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


def _finsler_residuals(ctx: PointGeometry) -> tuple:
    """The 2-homogeneity identities at a context, as finsler_identities and
    verify report them: max |gamma y y - 2 G0| and max |dE_h - (g y)^T dV/dy / 2|."""
    yv = ctx.y
    slope = 0.5 * vecmat(matvec(ctx.metric.entries, yv), ctx.dV_dy)
    return (ctx.peak(matvec(matvec(ctx.christoffel, yv), yv) - 2.0 * ctx.spray0),
            ctx.peak(ctx.horizontal_dE() - slope))


def _identity_values(sys: MechanicalSystem, p: PhasePoint) -> dict:
    ctx = PointGeometry(sys, p)
    _require_euler(ctx.jet, p)
    lv = value_of(ctx.jet.value)
    christoffel, energy_slope = _finsler_residuals(ctx)
    return {
        "energy_residual": abs(ctx.energy - lv) / (1.0 + abs(lv)),
        "spray_homogeneity_residual": ctx.peak(2.0 * ctx.spray0 - matvec(ctx.conn0, ctx.y)),
        "energy_slope_residual": energy_slope,
        "christoffel_residual": christoffel,
    }


def finsler_identities(sys: MechanicalSystem, samples) -> FinslerIdentityReport:
    """Verify the identities forced by 2-homogeneity over a sample set."""
    worst, tested, failures = sweep(samples, lambda p: _identity_values(sys, p))
    return FinslerIdentityReport(
        energy_residual=worst.get("energy_residual", 0.0),
        spray_homogeneity_residual=worst.get("spray_homogeneity_residual", 0.0),
        energy_slope_residual=worst.get("energy_slope_residual", 0.0),
        christoffel_residual=worst.get("christoffel_residual", 0.0),
        points_tested=tested,
        failures=failures,
    )
