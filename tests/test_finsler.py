"""Homogeneity gates, Christoffel contraction, Finsler identities."""

import json
import math

import numpy as np
import pytest

from lagmech.cli import main
from lagmech.dsl import bind_scalar, parse
from lagmech.errors import DomainError, FinslerModeError
from lagmech.finsler import (
    _fails_euler,
    finsler_identities,
    homogeneity_report,
    is_finsler_mode,
    require_finsler_mode,
)
from lagmech.mechanics import MechanicalSystem, PointGeometry
from lagmech.phase import PhasePoint, VerticalField
from lagmech.systems import from_sources, instantiate, standard_samples


def test_homogeneity_quartic_root(sys_c, samples_c):
    rep = homogeneity_report(sys_c, samples_c[:25])
    assert rep.accepted
    assert rep.lagrangian_residual <= 1e-10
    assert rep.metric_residual <= 1e-10  # g is 0-homogeneous
    assert rep.force_residual == 0.0


def test_homogeneity_quadratic_forms(sys_b, samples_b):
    rep = homogeneity_report(sys_b, samples_b[:25])
    assert rep.accepted
    assert rep.lagrangian_residual <= 1e-10


def test_homogeneity_defect_of_inhomogeneous_term():
    # L = y^2 + y: Euler defect (dL/dy) y - 2L = -y, magnitude 1 at y=1
    L = bind_scalar(parse("y1^2 + y1", 1), 1)
    sys_ = MechanicalSystem(L, VerticalField.zero(1), 1)
    rep = homogeneity_report(sys_, [PhasePoint((0.0,), (1.0,))])
    assert not rep.accepted
    assert rep.lagrangian_residual == pytest.approx(1.0, abs=1e-14)


def test_homogeneity_oscillator_not_finsler(sys_a, samples_a):
    rep = homogeneity_report(sys_a, samples_a[:20])
    assert not rep.accepted
    with pytest.raises(FinslerModeError):
        require_finsler_mode(sys_a, PhasePoint((1.0,), (2.0,)))


def test_liouville_force_is_one_homogeneous(sys_e_finsler, samples_c):
    # (dV/dy) y = e y for V = e y: degree-1 field, not degree 0
    rep = homogeneity_report(sys_e_finsler, samples_c[:15])
    worst = max(np.linalg.norm(np.array([float(v) for v in p.y]) * -1.0, ord=np.inf)
                for p in samples_c[:15])
    assert rep.force_residual == pytest.approx(worst, rel=1e-12)
    assert rep.force_residual > 0.1


def test_christoffel_x_independent_zero(sys_c, samples_c):
    for p in samples_c[:6]:
        assert np.abs(PointGeometry(sys_c.free(), p).christoffel).max() == 0.0


def test_christoffel_sys_b_value(sys_b):
    # gamma^1_11 = x1 / (1 + x1^2), equal to 0.5 at x1 = 1
    gamma = PointGeometry(sys_b.free(), PhasePoint((1.0, 0.0), (1.0, 1.0))).christoffel
    assert gamma[0, 0, 0] == pytest.approx(0.5, rel=1e-12)
    assert np.abs(gamma[1]).max() <= 1e-14


def test_christoffel_contraction_identity(sys_b, samples_b):
    for p in samples_b[:20]:
        ctx = PointGeometry(sys_b.free(), p)
        yv = np.array([float(v) for v in p.y])
        lhs = ctx.christoffel.dot(yv).dot(yv)
        rhs = 2.0 * ctx.spray0
        assert np.abs(lhs - rhs).max() <= 1e-8 * (1.0 + np.abs(rhs).max())


def test_identities_free_finsler(sys_c, samples_c):
    rep = finsler_identities(sys_c, samples_c[:15])
    assert rep.points_tested == 15
    assert rep.energy_residual <= 1e-10
    assert rep.spray_homogeneity_residual <= 1e-8
    assert rep.energy_slope_residual <= 1e-8
    assert rep.christoffel_residual <= 1e-8


def test_identities_sys_d(sys_d, samples_c):
    rep = finsler_identities(sys_d, samples_c[:15])
    assert rep.energy_slope_residual <= 1e-8
    # the energy slope itself also vanishes for the zero-homogeneous force
    for p in samples_c[:8]:
        assert np.abs(PointGeometry(sys_d, p).horizontal_dE()).max() <= 1e-8


def test_identities_reject_inhomogeneous(sys_a):
    # the Euler defect of y^2 - x^2 is 2 x^2, so any point off x = 0 fails
    pts = [PhasePoint((0.5 + 0.1 * k,), (1.0 + 0.2 * k,)) for k in range(5)]
    rep = finsler_identities(sys_a, pts)
    assert rep.points_tested == 0
    assert len(rep.failures) == 5


def test_geodesic_coincidence_pointwise(sys_d, samples_c):
    # zero-homogeneous force: the force term drops out of the horizontal
    # SODE, so N y = N0 y at every point
    for p in samples_c[:10]:
        n = PointGeometry(sys_d, p).conn
        n0 = PointGeometry(sys_d.free(), p).conn
        yv = np.array([float(v) for v in p.y])
        assert np.abs(n.dot(yv) - n0.dot(yv)).max() <= 1e-8


def test_euclid_any_dimension_is_finsler():
    sys_ = instantiate("EUCLID", {"n": 3})
    pts = standard_samples("EUCLID", {"n": 3}, count=10)
    rep = homogeneity_report(sys_, pts)
    assert rep.accepted


# L = c |y|^2 with L and dL/dy finite where (dL/dy) y = 2L overflows: the
# Euler defect is not finite there, a DomainError, and no numpy warning
_NON_FINITE = "field evaluation produced a non-finite value"
_P3 = PhasePoint((0.1, 0.2, -0.3), (0.7, 0.8, 0.5))


def test_non_finite_euler_defect_is_a_domain_error():
    sys_ = from_sources(3, "1e308*(y1^2 + y2^2 + y3^2)")
    assert not is_finsler_mode(sys_, [_P3])
    assert [(f["error"], f["detail"]) for f in homogeneity_report(sys_, [_P3]).failures] == [
        ("DomainError", _NON_FINITE)]
    with pytest.raises(DomainError, match=_NON_FINITE):
        require_finsler_mode(sys_, _P3)


def test_non_finite_euler_defect_fails_its_point_alone():
    # at 1e307 the defect overflows at y = (1, 3, 0) only: in a batch with a
    # finite point, that point fails and the other is tested
    sys_ = from_sources(3, "1e307*(y1^2 + y2^2 + y3^2)")
    bad = PhasePoint((0.1, 0.2, -0.3), (1.0, 3.0, 0.0))
    assert not is_finsler_mode(sys_, [bad]) and is_finsler_mode(sys_, [bad, _P3])
    for rep in (homogeneity_report(sys_, [_P3, bad]), finsler_identities(sys_, [_P3, bad])):
        assert rep.points_tested == 1
        assert [(f["index"], f["detail"]) for f in rep.failures] == [(1, _NON_FINITE)]


def test_euler_gate_rejects_a_nan_defect():
    assert _fails_euler(math.nan, 1.0) and not _fails_euler(0.0, 1.0)
    defects = np.array([math.nan, 0.0, 1.0])
    assert _fails_euler(defects, np.ones(3)).tolist() == [True, False, True]


def test_geodesic_of_a_non_finite_euler_defect_exits_3(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"system": {"n": 3, "lagrangian": "1e308*(y1^2 + y2^2 + y3^2)"},
                                "initial": {"x": list(_P3.x), "y": list(_P3.y)},
                                "integrator": {"t_end": 0.1}}))
    assert main(["simulate", str(path), "--curve", "geodesic"]) == 3
    assert capsys.readouterr().err == f"error: {_NON_FINITE}\n"
