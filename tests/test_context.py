"""The per-point geometry context: its fields, its pass budget, and
batch sweeps against one point at a time."""

import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residual_routes
import tower
from lagmech import compiled, finsler, mechanics
from lagmech.cli import main
from lagmech.finsler import finsler_identities, homogeneity_report
from lagmech.mechanics import PointGeometry, classify, stack_points
from lagmech.phase import PhasePoint
from lagmech.systems import catalog, instantiate, standard_samples
from lagmech.verify import run_verification
import routes
from render_route import each_point
from test_compiled import _holed_strategy, random_system
from test_dsl import _guarded_strategy
from test_jets import _NO_SHRINK

_SYSTEMS = {
    "SYS-A": ("SYS-A", {"c": 0.1}),
    "SYS-B": ("SYS-B", {}),
    "SYS-C": ("SYS-C", {}),
    "SYS-D": ("SYS-D", {"e": -0.5}),
    "SYS-E": ("SYS-E", {"e": -1.0}),
    "EUCLID6": ("EUCLID", {"n": 6}),
    "SYS-E6": ("SYS-E", {"e": -1.0, "base": "EUCLID", "n": 6}),
}


def _case(name, count=12):
    builtin, params = _SYSTEMS[name]
    return instantiate(builtin, params), standard_samples(builtin, params, count=count)


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max())


# ---------------------------------------------------------------------------
# every field equals a reference route built outside the context
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(set(_SYSTEMS) - {"SYS-E6"})),
    index=st.integers(0, 11),
    shift=st.floats(-0.2, 0.2),
    scale=st.floats(0.6, 1.6),
)
def test_context_fields_match_accessors(name, index, shift, scale):
    sys_, samples = _case(name)
    p0 = samples[index]
    p = PhasePoint(np.asarray(p0.x) + shift, np.asarray(p0.y) * scale)
    ctx = PointGeometry(sys_, p)
    # unseeded float routes: one jet and one inversion each
    g = routes.metric(sys_.L, p)
    _close(ctx.metric.entries, g.entries)
    _close(ctx.metric.inverse, g.inverse)
    _close(ctx.energy, routes.energy(sys_.L, p)[0])
    _close(ctx.spray0, routes.canonical_spray(sys_.L, p))
    spray, sigma = routes.evolution_spray(sys_, p), routes.sigma(sys_, p)
    _close(ctx.spray, spray)
    _close(ctx.sigma, sigma)
    # Jacobians pushed through the float pipelines
    conn0, conn = routes.canonical_connection(sys_.L, p), routes.evolution_connection(sys_, p)
    _close(ctx.conn0, conn0)
    _close(ctx.conn, conn)
    dv_dy = tower.push_direction(lambda q: tower.call(sys_.V, q.x, q.y), p, np.eye(sys_.n))
    _close(ctx.dV_dy, dv_dy)
    # N = N0 - dV/dy / 4 across independent passes
    _close(ctx.conn, conn0 - 0.25 * dv_dy)
    _close(ctx.christoffel, tower.christoffel(sys_.L, p))
    _close(ctx.cartan, routes.cartan(sys_.L, p))
    for pair in ((ctx.spray0, ctx.conn0), (ctx.spray, ctx.conn)):
        _close(ctx.dyn_cov_deriv_g(*pair), routes.dyn_cov_deriv_g(sys_.L, p, *pair))
    dsigma_dy = tower.push_direction(lambda q: routes.sigma(sys_, q), p, np.eye(sys_.n))
    alone = {
        "sigma": sigma,
        "spray": spray,
        "conn": conn,
        "dsigma_dy": dsigma_dy,
        "helicoidal": (dsigma_dy - dsigma_dy.T) * 0.5,
        "gbar": (dsigma_dy + dsigma_dy.T) * 0.25,
        "power": sigma @ np.asarray(p.y),
    }
    for field in ("sigma", "spray", "conn", "dsigma_dy", "helicoidal", "gbar", "power"):
        _close(getattr(ctx, field), alone[field])


# ---------------------------------------------------------------------------
# pass budget: compiled program runs per point
# ---------------------------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """Counts compiled program runs by kind, a report by its name
    (``compiled.run``, through which every context, sweep and ``eval_jet``
    runs its programs).  A pass over a batch of points counts once."""
    counts = Counter()
    original = compiled.run

    def counted(kind, *args, **kwargs):
        counts[f"report {args[3]}" if kind == "report" else kind] += 1
        return original(kind, *args, **kwargs)

    monkeypatch.setattr(compiled, "run", counted)

    def take():
        out = dict(counts)
        counts.clear()
        return out

    return take


def test_failing_chunk_pass_budget(passes):
    # a chunk that raises is retried in blocks of 16, a block that raises
    # point by point: k failures cost 1 + 16 + 16 k passes, at most 1 + 16 + 256
    sys_, samples = _case("SYS-D", count=254)
    z = _zero_section(sys_.n, 1)
    passes()
    classify(sys_, samples[:100] + [z] + samples[100:253])
    assert passes() == {"report classify": 1 + 16 + 16}
    classify(sys_, samples[:40] + [z] + samples[40:200] + [z] + samples[200:])
    assert passes() == {"report classify": 1 + 16 + 2 * 16}
    classify(sys_, [z] * 256)
    assert passes() == {"report classify": 1 + 16 + 256}


def test_verify_lowers_the_finsler_residuals_in_finsler_mode_alone(passes):
    # SYS-A's L fails the probes: its verify report has no Finsler residual
    # to overwrite with null
    sys_, samples = _case("SYS-A", count=6)
    passes()
    report = run_verification(sys_, samples)
    assert passes() == {"euler": 1, "report verify": 1}
    assert not report["finsler_mode"]
    assert list(report["residuals"])[-2:] == ["christoffel_contraction", "finsler_energy_formula"]
    assert report["residuals"]["christoffel_contraction"] is None
    assert report["residuals"]["finsler_energy_formula"] is None


def _read_every_member(ctx, n):
    ctx.dE, ctx.omega(np.ones(2 * n), np.arange(2.0 * n))
    ctx.evolution_equation_residual(), ctx.lie_theta_residual(), ctx.symplectic_defect()
    ctx.first_integral_conditions(), ctx.horizontal_dL(), ctx.horizontal_dE()


@pytest.mark.parametrize("name", ["SYS-B", "SYS-D", "EUCLID6"])
def test_pass_budget(passes, name, tmp_path):
    # a sweep of up to 256 points is one batched pass, whatever the count
    sys_, samples = _case(name, count=6)
    passes()

    classify(sys_, samples)
    assert passes() == {"report classify": 1}
    classify(sys_, samples * 50)  # 300 points: two chunks
    assert passes() == {"report classify": 2}

    # a context reads every member in two passes, for one point or a
    # batch: the point report, and the context report
    for p in (samples[0], stack_points(samples)):
        ctx = PointGeometry(sys_, p)
        assert passes() == {"report point": 1}
        _read_every_member(ctx, sys_.n)
        ctx.christoffel, ctx.dg_dx
        assert passes() == {"report context": 1}

    # one batch of Finsler-mode probes, then one verify report, with the
    # two Finsler residuals since the three systems pass the probes
    run_verification(sys_, samples)
    assert passes() == {"euler": 1, "report verify_finsler": 1}

    finsler_identities(sys_, samples)
    assert passes() == {"report identities": 1}

    # one pass with the partials along y itself serves all three Euler tests
    homogeneity_report(sys_, samples)
    assert passes() == {"euler": 1}

    # the Christoffel symbols: the free system's point report, then its context
    PointGeometry(sys_.free(), samples[0]).christoffel
    assert passes() == {"report point": 1, "report context": 1}

    builtin, params = _SYSTEMS[name]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "system": {"builtin": builtin, "params": params},
        "samples": {"points": [{"x": list(p.x), "y": list(p.y)} for p in samples]},
    }))
    passes()
    assert main(["inspect", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
    assert passes() == {"report inspect": 1}


# ---------------------------------------------------------------------------
# a sweep equals the reduction of its single-point sweeps
# ---------------------------------------------------------------------------


def _zero_section(n, t):
    return PhasePoint((0.1 * t,) * n, (0.0,) * n)


def _sample_list(name, layout):
    """Sample points with points on the zero section (singular for SYS-D,
    regular for SYS-A, SYS-B and SYS-E6) placed by ``layout``."""
    if layout == "long":
        sys_, samples = _case(name, count=300)  # more than one chunk of 256
        return sys_, samples[:255] + [_zero_section(sys_.n, 1), _zero_section(sys_.n, 2)] + samples[255:]
    sys_, samples = _case(name, count=8)
    z1, z2 = _zero_section(sys_.n, 1), _zero_section(sys_.n, 2)
    return sys_, {"middle": samples[:3] + [z1] + samples[3:],
                  "first": [z1] + samples,
                  "last": samples + [z1],
                  "adjacent": samples[:4] + [z1, z2] + samples[4:],
                  "all": [_zero_section(sys_.n, t) for t in range(5)]}[layout]


_BATCH_CASES = [pytest.param(name, layout, id=name if layout == "middle" else f"{name}-{layout}")
                for name, layout in [("SYS-B", "middle"), ("SYS-D", "middle"),
                                     ("SYS-D", "first"), ("SYS-D", "last"), ("SYS-D", "adjacent"),
                                     ("SYS-D", "all"), ("SYS-D", "long"), ("SYS-B", "long"),
                                     ("SYS-A", "middle"), ("SYS-E6", "adjacent")]]


def _failed_at(samples, failures):
    return [f["index"] for f in failures], [samples[f["index"]] for f in failures]


@pytest.mark.parametrize("name,layout", _BATCH_CASES)
def test_classify_batch_equals_single_points(name, layout):
    sys_, samples = _sample_list(name, layout)
    batch = classify(sys_, samples)
    singles = [classify(sys_, [p]) for p in samples]
    tested = [r for r in singles if r.points_tested]
    assert batch.points_tested == len(tested)
    assert batch.metric_defect == max((r.metric_defect for r in tested), default=0.0)
    assert batch.symplectic_defect == max((r.symplectic_defect for r in tested), default=0.0)
    worst = batch.dissipative_at_samples["worst_power"]
    if tested:
        assert worst == max(r.dissipative_at_samples["worst_power"] for r in tested)
    else:
        assert math.isnan(worst)
    assert batch.is_metric == (bool(tested) and all(r.is_metric for r in tested))
    assert batch.is_symplectic == (bool(tested) and all(r.is_symplectic for r in tested))
    expected = [dict(f, index=i) for i, r in enumerate(singles) for f in r.failures]
    assert batch.failures == expected
    indices, points = _failed_at(samples, batch.failures)
    assert all(math.hypot(*p.y) == 0.0 for p in points)
    assert (len(indices) > 0) == (name == "SYS-D")


@pytest.mark.parametrize("name,layout", _BATCH_CASES)
def test_verification_batch_equals_single_points(name, layout):
    sys_, samples = _sample_list(name, layout)
    batch = run_verification(sys_, samples)
    singles = [run_verification(sys_, [p]) for p in samples]
    tested = [r for r in singles if r["points_tested"]]
    assert batch["points_tested"] == len(tested)
    # Finsler mode is decided per list; SYS-A's L is 2-homogeneous only at x = 0
    if name != "SYS-A":
        assert all(r["finsler_mode"] == batch["finsler_mode"] for r in tested)
    for key, value in batch["residuals"].items():
        if value is None and name != "SYS-A":
            assert all(r["residuals"][key] is None for r in tested)
        elif value is None:
            assert not batch["finsler_mode"]
        else:
            assert value == max(r["residuals"][key] for r in tested)
    expected = [dict(f, index=i) for i, r in enumerate(singles) for f in r["singular_points"]]
    assert batch["singular_points"] == expected


@pytest.mark.parametrize("name,layout", _BATCH_CASES)
@pytest.mark.parametrize("report", [homogeneity_report, finsler_identities])
def test_finsler_reports_batch_equal_single_points(name, layout, report):
    sys_, samples = _sample_list(name, layout)
    batch = report(sys_, samples).to_dict()
    singles = [report(sys_, [p]).to_dict() for p in samples]
    tested = [r for r in singles if r["points_tested"]]
    assert batch["points_tested"] == len(tested)
    residuals = [key for key in batch if key.endswith("_residual")]
    assert len(residuals) >= 3
    for key in residuals:
        assert batch[key] == max((r[key] for r in tested), default=0.0)
    expected = [dict(f, index=i) for i, r in enumerate(singles) for f in r["failures"]]
    assert batch["failures"] == expected
    # SYS-D fails on the zero section; SYS-A's L = y1^2 - x1^2 fails the
    # identities' Euler gate wherever x1 != 0
    indices, points = _failed_at(samples, batch["failures"])
    if name == "SYS-A" and report is finsler_identities:
        assert indices == [i for i, p in enumerate(samples) if p.x[0] != 0.0]
    else:
        assert all(math.hypot(*p.y) == 0.0 for p in points)
        assert (len(indices) > 0) == (name == "SYS-D")
    if "accepted" in batch:
        assert batch["accepted"] == (bool(tested) and all(r["accepted"] for r in tested))


def test_batched_context_equals_one_point_contexts():
    """Every field of a batched context is, point by point, bitwise the
    field of the one-point context (stacked inverse and eigenvalues at n=6)."""
    for name in ("SYS-A", "SYS-D", "SYS-E6"):
        sys_, samples = _case(name, count=7)
        batch = PointGeometry(sys_, stack_points(samples))
        fields = ("y", "V", "spray0", "spray", "sigma", "conn0", "dV_dy", "conn", "dsigma_dy",
                  "d_yyy", "dg_dx", "christoffel", "energy", "power", "gbar", "helicoidal")
        for lane, p in enumerate(samples):
            one = PointGeometry(sys_, p)
            for field in fields:
                assert np.array_equal(getattr(batch, field)[..., lane], getattr(one, field)), field
            assert np.array_equal(batch.metric.inverse[..., lane], one.metric.inverse)
            assert batch.metric.min_abs_eigen_estimate[lane] == one.metric.min_abs_eigen_estimate
            for member in ("horizontal_dE_closed", "evolution_equation_residual",
                           "lie_theta_residual", "symplectic_defect"):
                assert np.array_equal(getattr(batch, member)()[..., lane], getattr(one, member)())
            X, Y = np.linspace(-1.0, 1.0, 2 * sys_.n), np.cos(np.arange(2.0 * sys_.n))
            assert batch.omega(X, Y)[lane] == one.omega(X, Y)


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


# ---------------------------------------------------------------------------
# batch equals points over random systems, failing points included
# ---------------------------------------------------------------------------


def _per_point_functions(sys_):
    """Each report's per-point values, as its sweep evaluates them on a
    chunk or at one point."""
    return {"classify": mechanics._report(sys_, "classify"),
            "verify": mechanics._report(sys_, "verify"),
            "verify_finsler": mechanics._report(sys_, "verify_finsler"),
            "probes": lambda q: finsler._probe_values(sys_, q),
            "homogeneity": lambda q: finsler._euler_values(sys_, q),
            "identities": mechanics._report(sys_, "identities"),
            "inspect": mechanics._report(sys_, "inspect")}


def _bits(values):
    return {name: np.asarray(v, dtype=float).tobytes() for name, v in values.items()}


def _reference_functions(sys_):
    """The per-point values each compiled report (and the ``point``
    report's E, sigma . y and derived tensors, and the Euler tests) must
    equal bit for bit, as functions of a phase point: the numpy formulas of
    :mod:`residual_routes` on the ``point`` report's and the ``jet``
    program's outputs and the context's dg/dx, with their checks in their
    order (those of g's x-derivative pass from the reference tower)."""
    def context(q, report):
        ctx = PointGeometry(sys_, q)
        return getattr(residual_routes, f"{report}_values")(ctx, residual_routes.dg_dx(ctx))

    def probe(q):
        jet = compiled.run("jet", sys_.L, None, q, 1)
        return {"defect": residual_routes.euler_defect(jet["value"], jet["d_y"], q),
                "value": jet["value"]}

    def point(q):
        ctx = PointGeometry(sys_, q)
        return {name: getattr(ctx, name)
                for name in ("energy", "power", "gbar", "helicoidal", "cartan")}

    def formulas(report):  # a report of the point outputs alone
        return lambda q: getattr(residual_routes, f"{report}_values")(PointGeometry(sys_, q))

    return {
        "verify": (mechanics._report(sys_, "verify"), lambda q: context(q, "verify")),
        "verify_finsler": (mechanics._report(sys_, "verify_finsler"),
                           lambda q: context(q, "verify_finsler")),
        "context": (mechanics._report(sys_, "context"), lambda q: context(q, "context")),
        "identities": (mechanics._report(sys_, "identities"), formulas("identity")),
        "classify": (mechanics._report(sys_, "classify"), formulas("classify")),
        "inspect": (mechanics._report(sys_, "inspect"), formulas("inspect")),
        "point": (point, formulas("point")),
        "probes": (lambda q: finsler._probe_values(sys_, q), probe),
    }


def _outcome(fn, q):
    """fn's values as bits, or the type and message of the skipped error it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _bits(fn(q))
    except mechanics._SKIPPED as err:
        return type(err).__name__, str(err)


def _assert_reports_equal_the_formulas(sys_, points):
    """At each point (a batch included) every compiled report equals its
    numpy formulas bit for bit, or both raise the same error."""
    for name, (got, ref) in _reference_functions(sys_).items():
        for q in points:
            assert _outcome(got, q) == _outcome(ref, q), (name, q)


_BUILTINS = list({json.dumps(case): case for case in [(e.id, e.default_params) for e in catalog()]
                  + list(_SYSTEMS.values())}.values())


@pytest.mark.parametrize("builtin, params", _BUILTINS,
                         ids=[f"{b}{json.dumps(p)}" for b, p in _BUILTINS])
def test_reports_equal_the_numpy_formulas_on_every_builtin(builtin, params):
    sys_ = instantiate(builtin, params)
    samples = standard_samples(builtin, params, count=12)
    _assert_reports_equal_the_formulas(sys_, samples + [stack_points(samples)])


@pytest.mark.parametrize("lagrangian", ["y1^2 + y2^2 + x1^0.5", "y1^2 + y2^2 + x1^0.5*y1"])
def test_reports_keep_the_checks_of_the_x_derivative_pass(lagrangian):
    # at x1 = 1e-200 the point program takes x1^0.5 to three terms, and the
    # x-derivative pass of g (the tower's metric_x_pass) to four, whose
    # x1^-2.5 overflows: the verify and identity reports fail there as that
    # pass does, and a context's second pass too
    from lagmech.systems import from_sources

    sys_ = from_sources(2, lagrangian)
    points = [PhasePoint((1e-200, 0.3), (1.0, 0.5)), PhasePoint((0.2, 0.3), (1.0, 0.5))]
    _assert_reports_equal_the_formulas(sys_, points + [stack_points(points)])
    failures = run_verification(sys_, points)["singular_points"]
    assert [(f["index"], f["detail"]) for f in failures] == [(0, "real power overflows")]
    # classify and inspect read no x-derivative of g, and make none of its checks
    assert classify(sys_, points).failures == []
    for report in ("classify", "inspect", "point"):
        mechanics._report(sys_, report)(stack_points(points))


# edge systems: a real power of x1 whose x-derivative pass alone overflows
# at x1 = 1e-200, a sqrt whose second derivative underflows at y1 = 1e-160,
# log holes at x <= 0, and metrics scaled by 1e160 (singular) and 1e-170
_EDGE_SYSTEMS = {
    "x1^0.5": (2, "y1^2 + y2^2 + x1^0.5*y1", None),
    "sqrt": (1, "sqrt(y1^2 + 1e-300) + y1^2", None),
    "log": (2, "y1^2 + y2^2 - log(x1)", ["-0.1*y1*log(x2)", "0"]),
    "1e160": (2, "1e160*(y1^2 + 1e-12*y2^2)", ["-0.1*y1", "0"]),
    "1e-170": (2, "1e-170*(y1^2 + y2^2)", ["-0.1*y1", "0"]),
}
_EDGE_POINTS = [((0.3, 0.2), (1.0, 0.5)), ((1e-200, 0.3), (1.0, 0.5)), ((0.5, 0.7), (1e-160, 0.5)),
                ((0.1, 0.1), (0.0, 0.0)), ((-0.5, 0.4), (1.0, -0.7)), ((0.8, -0.2), (-0.6, 1.2)),
                ((0.4, 0.0), (0.5, 0.5)), ((0.2, 0.9), (0.7, -0.3))]


@pytest.mark.parametrize("name", _EDGE_SYSTEMS)
def test_edge_systems_reports_equal_the_formulas(name):
    # every report, one point at a time, over a batch, and swept in
    # chunks and blocks, failing points included
    from lagmech.systems import from_sources

    n, lagrangian, force = _EDGE_SYSTEMS[name]
    sys_ = from_sources(n, lagrangian, force)
    samples = [PhasePoint(x[:n], y[:n]) for x, y in _EDGE_POINTS]
    _assert_reports_equal_the_formulas(sys_, samples + [stack_points(samples)])
    _assert_batch_equals_points(sys_, samples)


def test_members_keep_the_bits_of_the_numpy_formulas():
    """Every member a context reads off its programs is, at a point and
    over a batch, bitwise the numpy formula of the point program's outputs
    and g's x-derivatives; omega and dyn_cov_deriv_g, which contract the
    caller's arrays, equal the reference tower's contractions."""
    for name in _SYSTEMS:
        sys_, samples = _case(name, count=7)
        for p in samples[:2] + [stack_points(samples)]:
            ctx = PointGeometry(sys_, p)
            dgdx = residual_routes.dg_dx(ctx)
            ref = {**residual_routes.context_values(ctx, dgdx), **residual_routes.point_values(ctx)}
            fi = ctx.first_integral_conditions()
            got = {"dE": ctx.dE, "dg_dx": ctx.dg_dx, "christoffel": ctx.christoffel,
                   "horizontal_dL": ctx.horizontal_dL(), "horizontal_dE": ctx.horizontal_dE(),
                   "horizontal_dE_closed": ctx.horizontal_dE_closed(),
                   "evolution_equation_residual": ctx.evolution_equation_residual(),
                   "lie_theta_residual": ctx.lie_theta_residual(),
                   "symplectic_defect": ctx.symplectic_defect(),
                   "lagrangian_condition": fi[0], "energy_condition": fi[1],
                   "energy": ctx.energy, "power": ctx.power, "gbar": ctx.gbar,
                   "helicoidal": ctx.helicoidal, "cartan": ctx.cartan}
            assert _bits(got) == _bits(ref), (name, p)
            for pair in ((ctx.spray0, ctx.conn0), (ctx.spray, ctx.conn)):
                assert ctx.dyn_cov_deriv_g(*pair).tobytes() == \
                    residual_routes.dyn_cov_deriv_g(ctx, dgdx, *pair).tobytes()
            X, Y = np.linspace(-1.0, 1.0, 2 * sys_.n), np.cos(np.arange(2.0 * sys_.n))
            g, a = residual_routes.two_form_pieces(ctx.jet)
            if ctx.batched:
                X, Y = (np.broadcast_to(v[:, None], v.shape + ctx.y.shape[1:]) for v in (X, Y))
            n = sys_.n
            (xx, xy), (yx, yy) = (X[:n], X[n:]), (Y[:n], Y[n:])
            form = lambda m, u, v: tower.vecdot(tower.vecmat(u, m), v)  # noqa: E731
            omega = 2.0 * (form(g, yx, xy) - form(g, xx, yy)) + (form(a, yx, xx) - form(a, xx, yx))
            assert np.asarray(ctx.omega(X, Y)).tobytes() == np.asarray(omega).tobytes()


def _assert_batch_equals_points(sys_, samples):
    # chunks of 8 and blocks of 2 put failing points inside a chunk and
    # across its end on short lists; the split logic is the one of 256 and 16
    with mock.patch.object(mechanics, "_CHUNK", 8), mock.patch.object(mechanics, "_BLOCK", 2):
        for name, fn in _per_point_functions(sys_).items():
            batch = list(each_point(samples, fn))
            assert [i for i, *_ in batch] == list(range(len(samples)))
            for (_, p, values, err), q in zip(batch, samples):
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        alone = fn(q)
                except mechanics._SKIPPED as e:
                    assert values is None and (type(err), str(err)) == (type(e), str(e)), name
                else:
                    assert err is None and _bits(values) == _bits(alone), (name, q)
        _assert_reports_equal_the_formulas(sys_, samples)
        one = [classify(sys_, [q]) for q in samples]
        report = classify(sys_, samples)
        assert report.failures == [dict(f, index=i) for i, r in enumerate(one) for f in r.failures]
        tested = [r for r in one if r.points_tested]
        assert report.metric_defect == max((r.metric_defect for r in tested), default=0.0)


_LIST_POINTS = st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.5])] * 4)


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(lag=_guarded_strategy(), force=st.tuples(_guarded_strategy(), _guarded_strategy()),
       pts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                              st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=9, max_size=14),
       zeros=st.lists(st.integers(0, 13), max_size=3))
def test_random_systems_batch_equals_points(lag, force, pts, zeros):
    # with points on the zero section at drawn places
    samples = [PhasePoint(p[:2], (0.0, 0.0) if i in zeros else p[2:]) for i, p in enumerate(pts)]
    _assert_batch_equals_points(random_system(lag, force), samples)


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(lag=_holed_strategy(), force=st.tuples(_holed_strategy(), _holed_strategy()),
       pts=st.lists(_LIST_POINTS, min_size=9, max_size=14))
def test_domain_holed_systems_batch_equals_points(lag, force, pts):
    _assert_batch_equals_points(random_system(lag, force),
                                [PhasePoint(p[:2], p[2:]) for p in pts])
