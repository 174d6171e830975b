"""Aggregated identity suite over a sample sweep.

Every structural identity of the engine is evaluated as a numerical
residual and reduced to its maximum over the sample set:

``canonical_spray_equation``      defining equation of the free spray
``canonical_metricity``           metric derivative along the free pair
``canonical_horizontal_two_form`` 2-form on free horizontal pairs
``evolution_spray_equation``      defining equation of the forced spray
``metric_derivative_agreement``   sigma-route vs dynamical-derivative route
``symplectic_vs_helicoidal``      2-form on forced horizontal pairs vs F
``lagrangian_horizontal_routes``  two computations of the horizontal dL
``cartan_form_transport``         Lie transport of the Cartan 1-form
``energy_horizontal_routes``      two computations of the horizontal dE
``christoffel_contraction``       spray vs Christoffel contraction (Finsler)
``finsler_energy_formula``        horizontal dE vs its force-only form (Finsler)

The last two report null for systems that fail the homogeneity gate.
Points where the metric degenerates are collected, not fatal.
"""

from __future__ import annotations

from .finsler import _finsler_residuals, is_finsler_mode
from .mechanics import (
    MechanicalSystem,
    PointGeometry,
    _horizontal_two_form,
    _sode_residual,
    sweep,
)
from .phase import PhasePoint

__all__ = ["run_verification"]


def _point_residuals(sys: MechanicalSystem, p: PhasePoint, finsler: bool) -> dict:
    ctx = PointGeometry(sys, p)
    j = ctx.jet
    scale = 1.0 + ctx.peak(ctx.metric.entries)
    out = {
        "canonical_spray_equation": _sode_residual(j, ctx.y, ctx.spray0),
        "evolution_spray_equation": ctx.evolution_equation_residual(),
        "cartan_form_transport": ctx.lie_theta_residual(),
        "canonical_metricity": ctx.peak(ctx.dyn_cov_deriv_g(ctx.spray0, ctx.conn0)) / scale,
        "canonical_horizontal_two_form": ctx.peak(_horizontal_two_form(j, ctx.conn0)),
        "metric_derivative_agreement": ctx.peak(
            ctx.gbar - ctx.dyn_cov_deriv_g(ctx.spray, ctx.conn)),
        "symplectic_vs_helicoidal": ctx.peak(_horizontal_two_form(j, ctx.conn) + ctx.helicoidal),
        # horizontal derivatives of L and of E, both routes each
        "lagrangian_horizontal_routes": ctx.peak(
            ctx.horizontal_dL() - (ctx.dSL_dy - ctx.sigma) * 0.5),
        "energy_horizontal_routes": ctx.peak(
            ctx.horizontal_dE() - ctx.horizontal_dE_closed()),
    }
    if finsler:
        out["christoffel_contraction"], out["finsler_energy_formula"] = _finsler_residuals(ctx)
    return out


def run_verification(sys: MechanicalSystem, samples, tol: float = 1e-8) -> dict:
    """Evaluate every identity residual over the samples.

    Returns a report with the max residual per identity, the offenders
    exceeding ``tol``, and the sample indices where the metric was
    singular or a field left its domain.  The two Finsler residuals are
    reported when L passes the Euler test at each of the first 8 samples
    where it can be evaluated (:func:`~lagmech.finsler.is_finsler_mode`).
    """
    finsler = is_finsler_mode(sys, samples, tol)
    residuals, tested, singular = sweep(samples, lambda p: _point_residuals(sys, p, finsler))
    if not finsler:
        residuals["christoffel_contraction"] = None
        residuals["finsler_energy_formula"] = None
    offenders = sorted(
        name for name, v in residuals.items() if v is not None and v > tol
    )
    return {
        "residuals": residuals,
        "tolerance": tol,
        "offenders": offenders,
        "points_tested": tested,
        "finsler_mode": finsler,
        "singular_points": singular,
    }
