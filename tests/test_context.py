"""The per-point geometry context: its fields, its pass budget, and
batch sweeps against one point at a time."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmech import jets
from lagmech.cli import main
from lagmech.finsler import christoffel_at, finsler_identities, homogeneity_report
from lagmech.geometry import (
    canonical_connection_at,
    canonical_spray_at,
    cartan_tensor_at,
    dyn_cov_deriv_g,
    energy_at,
    metric_at,
)
from lagmech.mechanics import (
    PointGeometry,
    classify,
    evolution_bundle_at,
    evolution_connection_at,
    evolution_spray_at,
    horizontal_dE,
    horizontal_dL,
    sigma_at,
    symplectic_defect,
)
from lagmech.phase import PhasePoint
from lagmech.systems import instantiate, standard_samples
from lagmech.verify import run_verification

_SYSTEMS = {
    "SYS-A": ("SYS-A", {"c": 0.1}),
    "SYS-B": ("SYS-B", {}),
    "SYS-C": ("SYS-C", {}),
    "SYS-D": ("SYS-D", {"e": -0.5}),
    "SYS-E": ("SYS-E", {"e": -1.0}),
    "EUCLID6": ("EUCLID", {"n": 6}),
}


def _case(name, count=12):
    builtin, params = _SYSTEMS[name]
    return instantiate(builtin, params), standard_samples(builtin, params, count=count)


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max())


# ---------------------------------------------------------------------------
# every field equals its standalone accessor
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_SYSTEMS)),
    index=st.integers(0, 11),
    shift=st.floats(-0.2, 0.2),
    scale=st.floats(0.6, 1.6),
)
def test_context_fields_match_accessors(name, index, shift, scale):
    sys_, samples = _case(name)
    p0 = samples[index]
    p = PhasePoint(np.asarray(p0.x) + shift, np.asarray(p0.y) * scale)
    ctx = PointGeometry(sys_, p)
    g = metric_at(sys_.L, p)
    _close(ctx.metric.entries, g.entries)
    _close(ctx.metric.inverse, g.inverse)
    _close(ctx.energy, energy_at(sys_.L, p)[0])
    _close(ctx.spray0, canonical_spray_at(sys_.L, p))
    _close(ctx.conn0, canonical_connection_at(sys_.L, p))
    _close(ctx.spray, evolution_spray_at(sys_, p))
    _close(ctx.conn, evolution_connection_at(sys_, p))
    _close(ctx.sigma, sigma_at(sys_, p))
    dv_dy = jets.push_direction(lambda q: sys_.V(q.x, q.y), p, np.eye(sys_.n))
    _close(ctx.dV_dy, dv_dy)
    # N = N0 - dV/dy / 4 across independent passes
    _close(ctx.conn, canonical_connection_at(sys_.L, p) - 0.25 * dv_dy)
    _close(ctx.christoffel, christoffel_at(sys_, p))
    _close(ctx.cartan, cartan_tensor_at(sys_.L, p))
    for spray, conn in ((ctx.spray0, ctx.conn0), (ctx.spray, ctx.conn)):
        _close(ctx.dyn_cov_deriv_g(spray, conn), dyn_cov_deriv_g(sys_.L, p, spray, conn))
    alone = evolution_bundle_at(sys_, p)
    for field in ("sigma", "spray", "conn", "dsigma_dy", "helicoidal", "gbar", "power"):
        _close(getattr(ctx, field), getattr(alone, field))


# ---------------------------------------------------------------------------
# pass budget: jet evaluations and inversions per point
# ---------------------------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """Counts eval_jet, sym_invert and push_direction calls made through
    any lagmech module."""
    counts = {"eval_jet": 0, "sym_invert": 0, "push_direction": 0}
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "lagmech" or k.startswith("lagmech."))]
    for name in counts:
        original = getattr(jets, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)

    def take():
        out = dict(counts)
        counts.update(eval_jet=0, sym_invert=0, push_direction=0)
        return out

    return take


@pytest.mark.parametrize("name", ["SYS-B", "SYS-D", "EUCLID6"])
def test_pass_budget(passes, name, tmp_path):
    sys_, samples = _case(name, count=6)
    k = len(samples)
    passes()

    classify(sys_, samples)
    assert passes() == {"eval_jet": k, "sym_invert": k, "push_direction": 0}

    # each accessor reads one context
    for accessor in (evolution_connection_at, evolution_bundle_at, symplectic_defect,
                     horizontal_dL, horizontal_dE):
        accessor(sys_, samples[0])
        assert passes() == {"eval_jet": 1, "sym_invert": 1, "push_direction": 0}

    # Finsler mode probes L once per probe (up to 8) before the sweep
    run_verification(sys_, samples)
    used = passes()
    assert used["eval_jet"] <= 3 * k + min(8, k)
    assert used["sym_invert"] <= 2 * k

    finsler_identities(sys_, samples)
    used = passes()
    assert used["eval_jet"] <= 4 * k
    assert used["sym_invert"] <= k

    christoffel_at(sys_, samples[0])
    assert passes() == {"eval_jet": 1, "sym_invert": 1, "push_direction": 0}

    builtin, params = _SYSTEMS[name]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "system": {"builtin": builtin, "params": params},
        "samples": {"points": [{"x": list(p.x), "y": list(p.y)} for p in samples]},
    }))
    passes()
    assert main(["inspect", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
    used = passes()
    assert used["eval_jet"] <= 2 * k
    assert used["sym_invert"] <= k


# ---------------------------------------------------------------------------
# a sweep equals the reduction of its single-point sweeps
# ---------------------------------------------------------------------------


def _with_failure(name):
    sys_, samples = _case(name, count=8)
    # the zero section: singular for SYS-D, regular for SYS-B
    return sys_, samples[:3] + [PhasePoint((0.1, 0.1), (0.0, 0.0))] + samples[3:]


@pytest.mark.parametrize("name", ["SYS-B", "SYS-D"])
def test_classify_batch_equals_single_points(name):
    sys_, samples = _with_failure(name)
    batch = classify(sys_, samples)
    singles = [classify(sys_, [p]) for p in samples]
    assert batch.points_tested == sum(r.points_tested for r in singles)
    assert batch.metric_defect == max(r.metric_defect for r in singles)
    assert batch.symplectic_defect == max(r.symplectic_defect for r in singles)
    worst = max(r.dissipative_at_samples["worst_power"] for r in singles if r.points_tested)
    assert batch.dissipative_at_samples["worst_power"] == worst
    tested = [r for r in singles if r.points_tested]
    assert batch.is_metric == all(r.is_metric for r in tested)
    assert batch.is_symplectic == all(r.is_symplectic for r in tested)
    expected = [dict(f, index=i) for i, r in enumerate(singles) for f in r.failures]
    assert batch.failures == expected


@pytest.mark.parametrize("name", ["SYS-B", "SYS-D"])
def test_verification_batch_equals_single_points(name):
    sys_, samples = _with_failure(name)
    batch = run_verification(sys_, samples)
    singles = [run_verification(sys_, [p]) for p in samples]
    tested = [r for r in singles if r["points_tested"]]
    assert batch["points_tested"] == len(tested)
    assert all(r["finsler_mode"] == batch["finsler_mode"] for r in tested)
    for key, value in batch["residuals"].items():
        if value is None:
            assert all(r["residuals"][key] is None for r in tested)
        else:
            assert value == max(r["residuals"][key] for r in tested)
    expected = [dict(f, index=i) for i, r in enumerate(singles) for f in r["singular_points"]]
    assert batch["singular_points"] == expected


# ---------------------------------------------------------------------------
# verdicts need tested points; failures name their point
# ---------------------------------------------------------------------------


def test_classify_without_tested_points_gives_no_verdict(sys_d):
    rep = classify(sys_d, [PhasePoint((0.0, 0.0), (0.0, 0.0))])
    assert rep.points_tested == 0
    assert not rep.is_metric
    assert not rep.is_symplectic
    assert rep.dissipative_at_samples["verdict"] == "none"


def test_failure_records_carry_the_point(sys_a, sys_d):
    p = PhasePoint((0.1, 0.2), (0.0, 0.0))
    q = PhasePoint((0.5,), (1.5,))  # SYS-A is not homogeneous
    cases = [(classify(sys_d, [p]).failures, p, "DomainError"),
             (homogeneity_report(sys_d, [p]).failures, p, "DomainError"),
             (finsler_identities(sys_d, [p]).failures, p, "DomainError"),
             (finsler_identities(sys_a, [q]).failures, q, "FinslerModeError"),
             (run_verification(sys_d, [p])["singular_points"], p, "DomainError")]
    for failures, point, error in cases:
        assert len(failures) == 1
        assert list(failures[0]) == ["index", "error", "detail", "point"]
        assert failures[0]["error"] == error
        assert failures[0]["point"] == {"x": list(point.x), "y": list(point.y)}
