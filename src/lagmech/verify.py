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

Each chunk is one run of the compiled ``verify_finsler`` report, or of
``verify`` (the last two null) for a system that fails the homogeneity
gate.  Points where the metric degenerates are collected, not fatal.
"""

from __future__ import annotations

from .finsler import is_finsler_mode
from .mechanics import MechanicalSystem, _report, stack_points, sweep

__all__ = ["run_verification"]


def run_verification(sys: MechanicalSystem, samples, tol: float = 1e-8) -> dict:
    """Evaluate every identity residual over the samples.

    Returns a report with the max residual per identity, the offenders
    exceeding ``tol``, and the sample indices where the metric was
    singular or a field left its domain.  The two Finsler residuals are
    reported when L passes the Euler test at each of the first 8 samples
    where it can be evaluated (:func:`~lagmech.finsler.is_finsler_mode`).
    """
    samples = stack_points(samples)
    finsler = is_finsler_mode(sys, samples, tol)
    report = _report(sys, "verify_finsler" if finsler else "verify")
    residuals, tested, singular = sweep(samples, report)
    if not finsler:
        residuals.update(christoffel_contraction=None, finsler_energy_formula=None)
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
