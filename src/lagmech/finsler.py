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

The Euler tests run the compiled ``euler`` program (order 1 for the mode
gate; order 2 with the partials along y in the direction y for
:func:`homogeneity_report`), which does not invert the metric, so a
singular metric does not fail them; :func:`finsler_identities` runs the
``identities`` report (:mod:`lagmech.compiled`).  Each returns its
outputs by name.  The Christoffel symbols are a member of the free
system's context, ``PointGeometry(sys.free(), p).christoffel``.  The
reports and the gate take a list of points or one batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import FinslerModeError
from .mechanics import MechanicalSystem, _lanes, _report, _run, _take, stack_points, sweep
from .phase import PhasePoint

__all__ = [
    "HomogeneityReport",
    "FinslerIdentityReport",
    "homogeneity_report",
    "is_finsler_mode",
    "require_finsler_mode",
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


def _maxima(report, worst) -> dict:
    """A report's ``*_residual`` fields: the sweep's maxima, 0.0 where no
    point was tested."""
    return {f.name: worst.get(f.name, 0.0) for f in fields(report) if f.name.endswith("_residual")}


def _fails_euler(defect, value, tol: float = _GATE_TOL):
    """Whether a defect fails the Euler test, defect <= tol (1 + |L|), per point."""
    return np.logical_not(defect <= tol * (1.0 + abs(value)))


def _probe_values(sys: MechanicalSystem, p: PhasePoint) -> dict:
    """L's Euler ``defect`` and its ``value`` at ``p``."""
    return _run("euler", sys.L, None, p, 1)


def is_finsler_mode(sys: MechanicalSystem, probes, tol: float = _GATE_TOL) -> bool:
    """Whether L passes the Euler test, |defect| <= tol (1 + |L|), at each
    of the first 8 probes where it can be evaluated.

    Probes outside the domain (or where the metric is singular) are
    skipped, as a sweep skips such points; false when none evaluates.
    The probes run as one batch of up to 8, and a further batch only for
    as many as were skipped.
    """
    probes = stack_points(probes)
    tested = start = 0
    while tested < 8 and start < _lanes(probes):
        stop = start + 8 - tested
        worst, count, _ = sweep(_take(probes, slice(start, stop)), lambda q: {
            "fails": _fails_euler(**_probe_values(sys, q), tol=tol)})
        if worst.get("fails"):
            return False
        tested, start = tested + count, stop
    return tested > 0


def _require_euler(defect, value, p: PhasePoint):
    """Raise FinslerModeError unless L passes the Euler test at ``p`` (at
    every point of a batch), given its Euler defect and value there."""
    bad = _fails_euler(defect, value)
    if bad.any():
        where = f"{int(bad.sum())} of {bad.size} points" if bad.ndim else \
            f"{p} (Euler defect {defect:.3e})"
        raise FinslerModeError(f"Lagrangian is not 2-homogeneous at {where}")


def require_finsler_mode(sys: MechanicalSystem, p: PhasePoint):
    """Gate an operation on the homogeneity of L at a reference point."""
    _require_euler(**_probe_values(sys, p), p=p)


def _euler_values(sys: MechanicalSystem, p: PhasePoint) -> dict:
    out = _run("euler", sys.L, sys.V, p)
    return {"lagrangian_residual": out["defect"], "metric_residual": out["metric_residual"],
            "force_residual": out["force_residual"],
            "rejected": _fails_euler(out["defect"], out["value"])}


def homogeneity_report(sys: MechanicalSystem, samples) -> HomogeneityReport:
    """Run the three Euler tests over a sample set.

    The system is accepted as Finsler-mode when the Lagrangian residual
    stays below 1e-8 (1 + |L|) at every sampled point.  Each point costs
    one pass of L and V with their partials along y in the direction y:
    L and dL/dy give the Euler defect, and the pass also gives (dg/dy) y
    and (dV/dy) y.
    """
    worst, tested, failures = sweep(samples, lambda p: _euler_values(sys, p))
    return HomogeneityReport(**_maxima(HomogeneityReport, worst), points_tested=tested,
                             accepted=tested > 0 and not worst["rejected"], failures=failures)


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
    worst, tested, failures = sweep(samples, _report(sys, "identities"))
    return FinslerIdentityReport(**_maxima(FinslerIdentityReport, worst), points_tested=tested,
                                 failures=failures)
