"""Command-line interface: subcommands, exit codes, determinism."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from lagmech.cli import build_samples, build_system, main
from lagmech.sampling import sample_box
from lagmech.verify import run_verification
from trajectory_csv import read_csv

PY = [sys.executable, "-m", "lagmech"]


def run_cli(*args, **kwargs):
    return subprocess.run(PY + list(args), capture_output=True, text=True, **kwargs)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_catalog_lists_builtins():
    out = run_cli("catalog")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    ids = [s["id"] for s in doc["systems"]]
    assert "SYS-D" in ids and "EUCLID" in ids


def test_inspect_euclid(tmp_path):
    cfg = write_config(tmp_path, "euclid.json", {
        "system": {"builtin": "EUCLID", "params": {"n": 2}},
        "samples": {"points": [{"x": [0.0, 0.0], "y": [1.0, 0.0]}]},
    })
    out = run_cli("inspect", cfg)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    pt = doc["points"][0]
    assert pt["g"] == [[1, 0], [0, 1]]
    assert pt["G0"] == [0, 0]
    assert pt["E"] == 1
    assert pt["power"] == 0


def test_inspect_liouville_connection_shift(tmp_path):
    cfg = write_config(tmp_path, "se.json", {
        "system": {"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID"}},
        "samples": {"points": [{"x": [0.0, 0.0], "y": [1.0, 2.0]}]},
    })
    out = run_cli("inspect", cfg)
    assert out.returncode == 0
    pt = json.loads(out.stdout)["points"][0]
    n = np.array(pt["N"])
    n0 = np.array(pt["N0"])
    assert np.abs(n - n0 - 0.25 * np.eye(2)).max() <= 1e-10


def test_inspect_singular_point_exit_code(tmp_path):
    cfg = write_config(tmp_path, "sing.json", {
        "system": {"builtin": "SYS-C"},
        "samples": {"points": [
            {"x": [0.0, 0.0], "y": [1.0, 0.0]},
            {"x": [0.0, 0.0], "y": [1.0, 1.0]},
        ]},
    })
    out = run_cli("inspect", cfg)
    assert out.returncode == 3
    doc = json.loads(out.stdout)
    assert doc["points"][0]["error"] == "SingularMetric"
    assert "g" in doc["points"][1]  # healthy points still emitted


def test_classify_sys_d(tmp_path):
    cfg = write_config(tmp_path, "sysd.json", {
        "system": {"builtin": "SYS-D", "params": {"e": -0.5}},
        "samples": {"count": 25},
        "seed": 3,
    })
    out = run_cli("classify", cfg)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["is_symplectic"] is True
    assert doc["is_metric"] is False
    assert doc["dissipative_at_samples"]["strict"] is True


def test_classify_param_override(tmp_path):
    cfg = write_config(tmp_path, "sysd2.json", {
        "system": {"builtin": "SYS-D", "params": {"e": -0.5}},
        "samples": {"count": 20},
    })
    out = run_cli("classify", cfg, "--param", "e=0.5")
    doc = json.loads(out.stdout)
    assert doc["dissipative_at_samples"]["weak"] is False


def test_verify_builtins_pass(tmp_path):
    for builtin, params in (("SYS-B", {}), ("SYS-D", {"e": -0.5})):
        cfg = write_config(tmp_path, f"v_{builtin}.json", {
            "system": {"builtin": builtin, "params": params},
            "samples": {"count": 20},
        })
        out = run_cli("verify", cfg)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["offenders"] == []


def test_verify_reports_singular_points(tmp_path):
    cfg = write_config(tmp_path, "vs.json", {
        "system": {"builtin": "SYS-C"},
        "samples": {"points": [
            {"x": [0.0, 0.0], "y": [0.0, 1.3]},
            {"x": [0.0, 0.0], "y": [1.0, 1.0]},
        ]},
    })
    out = run_cli("verify", cfg)
    assert out.returncode == 3
    doc = json.loads(out.stdout)
    assert len(doc["singular_points"]) == 1


def test_verify_tolerance_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, "vt.json", {
        "system": {"builtin": "SYS-B"},
        "samples": {"count": 10},
        "tolerance": 1e-22,
    })
    out = run_cli("verify", cfg)
    assert out.returncode == 4
    doc = json.loads(out.stdout)
    assert doc["offenders"]


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "broken.json", {
        "system": {"n": 2, "lagrangian": "y1^2 + y2^2", "force": ["0"]},
    })
    out = run_cli("classify", cfg)
    assert out.returncode == 2


def test_parse_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "badexpr.json", {
        "system": {"n": 1, "lagrangian": "y1^2 +"},
        "samples": {"box_x": [[-1, 1]], "box_y": [[-1, 1]], "count": 4},
    })
    out = run_cli("classify", cfg)
    assert out.returncode == 2


def test_simulate_dissipative_run(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {
        "system": {"builtin": "SYS-A", "params": {"c": 0.1}},
        "initial": {"x": [1.0], "y": [0.0]},
        "integrator": {"step": 1e-3, "t_end": 3.0, "record_every": 50},
    })
    csv_path = str(tmp_path / "run.csv")
    out = run_cli("simulate", cfg, "--out", csv_path)
    assert out.returncode == 0
    audit = json.loads(out.stderr)
    assert audit["monotone_nonincreasing"] is True
    traj = read_csv(open(csv_path).read())
    assert traj.energy[-1] < traj.energy[0]


def test_simulate_csv_round_trip_full_precision(tmp_path):
    cfg = write_config(tmp_path, "sim2.json", {
        "system": {"builtin": "SYS-B"},
        "initial": {"x": [1.0, 0.0], "y": [0.7, 0.3]},
        "integrator": {"step": 1e-2, "t_end": 0.5, "record_every": 5},
    })
    csv_path = str(tmp_path / "run.csv")
    out = run_cli("simulate", cfg, "--out", csv_path, "--curve", "geodesic")
    assert out.returncode == 0
    text = open(csv_path).read()
    a = read_csv(text)
    b = read_csv(a.to_csv())
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.energy, b.energy)


def test_simulate_singular_start_exit_code(tmp_path):
    cfg = write_config(tmp_path, "sim3.json", {
        "system": {"builtin": "SYS-C"},
        "initial": {"x": [0.0, 0.0], "y": [1.0, 0.0]},
        "integrator": {"step": 1e-3, "t_end": 1.0},
    })
    out = run_cli("simulate", cfg)
    assert out.returncode == 3


def test_simulate_horizontal_finsler_energy(tmp_path):
    cfg = write_config(tmp_path, "sim4.json", {
        "system": {"builtin": "SYS-D", "params": {"e": -0.5}},
        "initial": {"x": [0.0, 0.0], "y": [1.0, 0.5]},
        "integrator": {"step": 1e-3, "t_end": 2.0, "record_every": 100},
    })
    out = run_cli("simulate", cfg, "--curve", "horizontal")
    assert out.returncode == 0
    audit = json.loads(out.stderr)
    assert audit["relative_energy_drift"] <= 1e-6


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "det.json", {
        "system": {"builtin": "SYS-D", "params": {"e": -0.5}},
        "samples": {"count": 15, "mode": "random"},
        "seed": 42,
    })
    for command in ("classify", "inspect", "verify"):
        first = run_cli(command, cfg)
        second = run_cli(command, cfg)
        assert first.stdout == second.stdout, command
        assert first.returncode == second.returncode == 0, command
        third = run_cli(command, cfg, "--seed", "43")
        assert third.stdout != first.stdout, command  # different sample draw


def test_cli_expression_system(tmp_path):
    cfg = write_config(tmp_path, "expr.json", {
        "system": {"n": 1, "lagrangian": "y1^2 - x1^2",
                   "force": ["-0.2*y1"], "params": {}},
        "samples": {"box_x": [[-1, 1]], "box_y": [[-2, 2]], "count": 10},
    })
    out = run_cli("verify", cfg)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["residuals"]["evolution_spray_equation"] <= 1e-8


_SYS_A_RUN = {"system": {"builtin": "SYS-A", "params": {"c": 0.1}},
              "initial": {"x": [1.0], "y": [0.0]}}


@pytest.mark.parametrize("command, payload", [
    ("classify", {"samples": {"points": [{"x": [0.1, 0.2]}]}}),
    ("classify", {"samples": {"count": "many"}}),
    ("classify", {"samples": {"count": 4}, "seed": "lucky"}),
    ("verify", {"samples": {"count": 4}, "tolerance": "tight"}),
    ("simulate", {"initial": {"x": [0.0, 0.0], "y": [1.0, 0.5]},
                  "integrator": {"step": "big"}}),
    ("simulate", {"initial": {"x": [0.0, 0.0], "y": [1.0]}}),
    # integer fields are not truncated, and a sweep needs at least one point
    ("classify", {"samples": {"count": 2.5}}),
    ("classify", {"samples": {"count": -5}}),
    ("classify", {"samples": {"count": 0}}),
    ("classify", {"samples": {"points": []}}),
    ("inspect", {"samples": {"count": 4}, "seed": 2.5}),
    ("simulate", {"initial": {"x": [0.0, 0.0], "y": [1.0, 0.5]},
                  "integrator": {"t_end": 0.01, "record_every": 2.5}}),
    # the trajectory is written as csv or json, nothing else
    ("simulate", {"initial": {"x": [0.0, 0.0], "y": [1.0, 0.5]},
                  "integrator": {"t_end": 0.01}, "output": {"format": "yaml"}}),
    # a section of the wrong JSON type
    ("classify", {"samples": {"points": 5}}),
    ("classify", {"samples": "many"}),
    ("classify", {"system": {"builtin": "SYS-B", "params": 5}}),
    ("simulate", {"initial": {"x": [0.0, 0.0], "y": [1.0, 0.5]}, "integrator": "rk4"}),
    ("simulate", {"initial": {"x": [0.0, 0.0], "y": [1.0, 0.5]},
                  "integrator": {"t_end": 0.01}, "output": "json"}),
    # integrator settings must be finite (JSON NaN and Infinity parse)
    ("simulate", {**_SYS_A_RUN, "integrator": {"step": math.nan}}),
    ("simulate", {**_SYS_A_RUN, "integrator": {"t_end": math.inf}}),
    ("simulate", {**_SYS_A_RUN, "integrator": {"method": "rk45_adaptive", "t_end": math.nan}}),
    ("simulate", {**_SYS_A_RUN, "integrator": {"method": "rk45_adaptive", "max_step": math.nan}}),
])
def test_malformed_config_value_exit_code(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "bad.json", {"system": {"builtin": "SYS-B"}, **payload})
    assert main([command, cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [["--step", "nan"], ["--t-end", "inf"]])
def test_non_finite_integrator_flag_exit_code(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, "run.json", _SYS_A_RUN)
    assert main(["simulate", cfg, *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("payload", [
    {"system": {"builtin": "SYS-B"}, "samples": {"count": 4, "mode": "sideways"}},
    {"system": {"builtin": "SYS-B"},
     "samples": {"box_x": [[1, -1], [-1, 1]], "box_y": [[-1, 1], [-1, 1]], "count": 4}},
    {"system": {"builtin": "EUCLID", "params": {"n": 11}}, "samples": {"count": 4}},
])
def test_sample_drawing_config_error_exit_code(tmp_path, capsys, payload):
    # sampling mode, box bounds and dimension are config values
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main(["classify", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_finsler_gate_of_samples_agrees_with_verify():
    # L is 2-homogeneous, but log(x1) leaves the domain for x1 <= 0, so
    # some probes of the gate cannot be evaluated
    cfg = {"system": {"n": 2, "lagrangian": "(y1^2 + y2^2) * log(x1)"},
           "samples": {"box_x": [[-1, 2], [-1, 1]], "box_y": [[-1, 1], [-1, 1]],
                       "count": 200}}
    sys_ = build_system(cfg)
    samples = build_samples(cfg, sys_, 0)
    assert run_verification(sys_, samples)["finsler_mode"] is True
    # Finsler mode draws box samples with fiber norms of at least 0.1
    floor = sample_box(cfg["samples"]["box_x"], cfg["samples"]["box_y"], 200, min_y_norm=0.1)
    assert samples == floor


@pytest.mark.parametrize("lagrangian", ["exp(y1^3) + y1^2", "y1^2 + (1 + y1^2)^200.5"])
def test_overflow_is_a_recorded_domain_failure(tmp_path, capsys, lagrangian):
    # exp and real powers overflow at y1 = 10: the point is recorded, not fatal
    cfg = write_config(tmp_path, "overflow.json", {
        "system": {"n": 1, "lagrangian": lagrangian},
        "samples": {"points": [{"x": [0.0], "y": [10.0]}]},
    })
    assert main(["classify", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points_tested"] == 0
    assert [f["error"] for f in doc["failures"]] == ["DomainError"]


def test_non_finite_force_is_a_recorded_domain_failure(tmp_path):
    # V = 1e200 y 1e200 overflows: the point is recorded, never printed as
    # inf, NaN or null; at y = 0 the value is finite but its y-tangent is not
    cfg = write_config(tmp_path, "force.json", {
        "system": {"n": 1, "lagrangian": "y1^2", "force": ["1e200*y1*1e200"]},
        "samples": {"points": [{"x": [0.0], "y": [1.0]}, {"x": [0.0], "y": [0.0]}]},
        "initial": {"x": [0.0], "y": [1.0]},
        "integrator": {"t_end": 0.01},
    })
    detail = "force evaluation produced a non-finite value"
    out = run_cli("classify", cfg)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["points_tested"] == 0
    assert [(f["index"], f["detail"]) for f in doc["failures"]] == [(0, detail), (1, detail)]
    out = run_cli("verify", cfg)
    assert out.returncode == 3
    assert [f["index"] for f in json.loads(out.stdout)["singular_points"]] == [0, 1]
    out = run_cli("inspect", cfg)
    assert out.returncode == 3
    assert [(p["error"], p["detail"]) for p in json.loads(out.stdout)["points"]] == [
        ("DomainError", detail)] * 2
    out = run_cli("simulate", cfg)
    assert out.returncode == 3
    assert json.loads(out.stderr) == {"status": "domain_stop"}


def test_overflow_is_a_recorded_failure_in_process(tmp_path, capsys):
    # the suite runs with RuntimeWarning as an error: numpy's overflow inside
    # a sweep's pass must end as the recorded DomainError, not a warning
    cfg = write_config(tmp_path, "force.json", {
        "system": {"n": 1, "lagrangian": "y1^2", "force": ["1e200*y1*1e200"]},
        "samples": {"points": [{"x": [0.0], "y": [1.0]}, {"x": [0.0], "y": [0.5]},
                               {"x": [0.5], "y": [2.0]}]},
    })
    detail = "force evaluation produced a non-finite value"
    assert main(["classify", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points_tested"] == 0 and {f["detail"] for f in doc["failures"]} == {detail}
    assert main(["verify", cfg]) == 3
    assert [f["detail"] for f in json.loads(capsys.readouterr().out)["singular_points"]] == [detail] * 3
    assert main(["inspect", cfg]) == 3
    assert [p["detail"] for p in json.loads(capsys.readouterr().out)["points"]] == [detail] * 3


def test_trig_of_an_infinite_argument_is_a_recorded_domain_failure(tmp_path, capsys):
    # sin(1e200 y 1e200) has no value: a recorded DomainError on the sweeps,
    # and domain_stop on the compiled trajectory path
    cfg = write_config(tmp_path, "trig.json", {
        "system": {"n": 1, "lagrangian": "y1^2", "force": ["sin(1e200*y1*1e200)"]},
        "samples": {"points": [{"x": [0.0], "y": [1.0]}, {"x": [0.5], "y": [-2.0]}]},
        "initial": {"x": [0.0], "y": [1.0]},
        "integrator": {"t_end": 0.01},
    })
    detail = "sin of an infinite value"
    assert main(["classify", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points_tested"] == 0
    assert [(f["index"], f["detail"]) for f in doc["failures"]] == [(0, detail), (1, detail)]
    assert main(["inspect", cfg]) == 3
    assert [p["detail"] for p in json.loads(capsys.readouterr().out)["points"]] == [detail] * 2
    for curve in ("evolution", "horizontal"):
        assert main(["simulate", cfg, "--curve", curve]) == 3
        assert json.loads(capsys.readouterr().err) == {"status": "domain_stop"}


def test_geodesic_records_check_the_force(tmp_path, capsys):
    # a geodesic's pass never evaluates V; its records do, and an overflowed
    # force ends the run as on the other curves, not as nan power rows
    cfg = write_config(tmp_path, "geo.json", {
        "system": {"n": 2, "lagrangian": "y1^2 + y2^2", "force": ["1e200*y1*1e200", "0"]},
        "initial": {"x": [0.0, 0.0], "y": [1.0, 0.5]},
        "integrator": {"t_end": 0.01},
    })
    assert main(["simulate", cfg, "--curve", "geodesic"]) == 3
    assert json.loads(capsys.readouterr().err) == {"status": "domain_stop"}


@pytest.mark.parametrize("params, flags", [({"c": "abc"}, []), ({"c": 1.0}, ["--param", "c=xyz"])])
def test_non_numeric_expression_parameter_is_a_config_error(tmp_path, capsys, params, flags):
    cfg = write_config(tmp_path, "param.json", {
        "system": {"n": 1, "lagrangian": "c*y1^2", "params": params},
        "samples": {"points": [{"x": [0.0], "y": [1.0]}]},
    })
    assert main(["classify", cfg, *flags]) == 2
    assert "parameter 'c' must be a number" in capsys.readouterr().err
    # a builtin keeps its string parameters, and an unused one is no error
    assert build_system({"system": {"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID"}}}).n == 2
    assert build_system({"system": {"n": 1, "lagrangian": "y1^2",
                                    "params": {**params, "c": "xyz"}}}).n == 1


_SMOKE_BUILTINS = [
    {"builtin": "EUCLID", "params": {"n": 3}}, {"builtin": "SYS-A", "params": {"c": 0.1}},
    {"builtin": "SYS-B", "params": {}}, {"builtin": "SYS-C", "params": {}},
    {"builtin": "SYS-D", "params": {"e": -0.5}}, {"builtin": "SYS-E", "params": {"e": -1.0}},
    {"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID", "n": 6}},
]


@pytest.mark.parametrize("system", _SMOKE_BUILTINS, ids=lambda s: json.dumps(s["params"]))
def test_builtin_reports_print_no_negative_zero(tmp_path, capsys, system):
    # an exact zero prints as 0: every contraction sums from +0.0, and the
    # closed-form 2x2 inverse negates its off-diagonal without a sign on zero
    cfg = write_config(tmp_path, "smoke.json", {"system": system})
    for command in ("classify", "inspect"):
        main([command, cfg])
        out = capsys.readouterr().out
        assert not re.search(r"-0(?![\d.])", out), (command, re.search(r".*-0(?![\d.]).*", out))


@pytest.mark.parametrize("scale", ["1e-170", "1", "1e100", "1e160", "1e300"])
def test_rank_gate_verdict_does_not_depend_on_the_scale_of_L(tmp_path, capsys, scale):
    # lambda L has lambda times L's metric, here diag(1, 1e-12): singular for
    # every lambda.  The 2x2 closed form overflowed from 1e160 on: to [inf, inf]
    # at one point, which passed the gate, and to an OverflowError on a batch.
    # At 1e-170 its squares underflowed to two equal eigenvalues, which passed
    points = [{"x": [0.1, 0.2], "y": [0.7, 0.8]}, {"x": [0.3, 0.2], "y": [0.5, 0.8]},
              {"x": [-0.1, 0.2], "y": [0.7, -0.4]}]
    system = {"n": 2, "lagrangian": f"{scale}*(y1^2 + 1e-12*y2^2)"}
    for count in (1, 3):
        cfg = write_config(tmp_path, "scaled.json", {"system": system,
                                                     "samples": {"points": points[:count]}})
        assert main(["classify", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points_tested"] == 0 and doc["is_metric"] is False
        assert [(f["index"], f["error"]) for f in doc["failures"]] == \
            [(i, "SingularMetric") for i in range(count)]
        for f in doc["failures"]:
            lo, hi = map(float, re.search(r"\[(.*), (.*)\]", f["detail"]).groups())
            assert hi == pytest.approx(float(scale), rel=1e-3)
            assert lo / hi == pytest.approx(1e-12, rel=1e-3)
    cfg = write_config(tmp_path, "scaled.json", {"system": system, "initial": points[0],
                                                 "integrator": {"t_end": 0.1}})
    assert main(["simulate", cfg]) == 3
    assert json.loads(capsys.readouterr().err) == {"status": "singular_metric_stop"}


# regular metrics out of the 2x2 closed forms' range: g = diag(1e160, 1e160 +
# x1^2), whose determinant overflowed (g_inv and G0 printed as zeros), and
# g = 1e-170 I, whose determinant underflowed (nulls and numpy's warning)
_SCALED_REGULAR = [("1e160*(y1^2 + y2^2) + x1^2*y2^2", lambda x: [1e-160, 1.0 / (1e160 + x[0] ** 2)]),
                   ("1e-170*(y1^2 + y2^2)", lambda x: [1e170, 1e170])]


@pytest.mark.parametrize("lagrangian, diagonal", _SCALED_REGULAR, ids=["1e160", "1e-170"])
def test_scaled_regular_metric_inverts(tmp_path, capsys, lagrangian, diagonal):
    points = [{"x": [0.1, 0.2], "y": [0.7, 0.8]}, {"x": [0.3, 0.2], "y": [0.5, 0.8]},
              {"x": [-0.1, 0.2], "y": [0.7, -0.4]}]
    for count in (1, 3):
        cfg = write_config(tmp_path, "scaled.json", {"system": {"n": 2, "lagrangian": lagrangian},
                                                     "samples": {"points": points[:count]}})
        assert main(["inspect", cfg]) == 0
        for p, entry in zip(points, json.loads(capsys.readouterr().out)["points"]):
            g_inv = np.array(entry["g_inv"], dtype=float)
            assert np.allclose(g_inv, np.diag(diagonal(p["x"])), rtol=1e-15, atol=0.0)
            assert np.isfinite(np.array(entry["G0"], dtype=float)).all()
    cfg = write_config(tmp_path, "scaled.json", {"system": {"n": 2, "lagrangian": lagrangian},
                                                 "initial": points[0], "integrator": {"t_end": 0.1}})
    assert main(["simulate", cfg]) == 0
    out, err = capsys.readouterr()
    assert json.loads(err)["status"] == "completed"
    # at 1e160 the zero inverse had integrated a straight line: defect 0.22
    assert read_csv(out).el_residual.max() <= 1e-15


@pytest.mark.parametrize("system, flags, detail", [
    ({"builtin": "SYS-A", "params": {"c": 0.1}}, ["--param", "c=xyz"], "parameter 'c' must be a number"),
    ({"builtin": "SYS-D", "params": {"e": "abc"}}, [], "parameter 'e' must be a number"),
    ({"builtin": "SYS-E", "params": {"e": "abc"}}, [], "parameter 'e' must be a number"),
    ({"builtin": "EUCLID", "params": {"n": "abc"}}, [], "parameter 'n' must be a number"),
    ({"builtin": "EUCLID", "params": {"n": 2.5}}, [], "parameter 'n' must be a whole number"),
    ({"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID", "n": 2.5}}, [],
     "parameter 'n' must be a whole number"),
], ids=["SYS-A-c", "SYS-D-e", "SYS-E-e", "EUCLID-n", "EUCLID-n-fraction", "SYS-E-n-fraction"])
def test_builtin_parameter_errors_are_config_errors(tmp_path, capsys, system, flags, detail):
    # a builtin's numeric parameters pass the expression systems' check:
    # exit 2 with a ConfigError, not a ValueError traceback or a truncated n
    cfg = write_config(tmp_path, "builtin.json", {"system": system})
    assert main(["classify", cfg, *flags]) == 2
    assert detail in capsys.readouterr().err


@pytest.mark.parametrize("base, n", [("SYS-A", 2), ("SYS-B", 3), ("SYS-C", 1)])
def test_sys_e_refuses_an_n_its_base_cannot_take(tmp_path, capsys, base, n):
    # a fixed-dimension base with another n built a system whose L ignored
    # the extra coordinates, so every sample was a SingularMetric
    dim = {"SYS-A": 1, "SYS-B": 2, "SYS-C": 2}[base]
    system = {"builtin": "SYS-E", "params": {"e": -1.0, "base": base, "n": n}}
    for command in ("classify", "simulate"):
        cfg = write_config(tmp_path, "sys_e.json", {"system": system, "integrator": {"t_end": 0.01}})
        assert main([command, cfg]) == 2
        assert f"SYS-E base {base!r} has dimension {dim}, got n = {n}" in capsys.readouterr().err
    # its own dimension is accepted, given or not
    for params in ({"e": -1.0, "base": base, "n": dim}, {"e": -1.0, "base": base}):
        cfg = write_config(tmp_path, "sys_e.json", {"system": {"builtin": "SYS-E", "params": params},
                                                    "samples": {"count": 4}})
        assert main(["classify", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["points_tested"] == 4


@pytest.mark.parametrize("system, flags, params", [
    ({"builtin": "EUCLID", "params": {"n": 2}}, ["--param", "n=4"], {"n": 4}),
    ({"builtin": "SYS-E", "params": {"e": -1.0, "base": "SYS-C"}}, ["--param", "base=SYS-A"],
     {"e": -1.0, "base": "SYS-A"}),
], ids=["EUCLID-n", "SYS-E-base"])
def test_param_reaches_the_default_sample_box(tmp_path, capsys, system, flags, params):
    # --param reached the system but not the default box, which kept the
    # config's dimension: a bare ValueError, exit 1
    given = write_config(tmp_path, "given.json", {"system": system})
    written = write_config(tmp_path, "written.json", {"system": dict(system, params=params)})
    assert main(["classify", written]) == 0
    expected = capsys.readouterr()
    assert main(["classify", given, *flags]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("system", [{"n": 0, "lagrangian": "1"}, {"n": -1, "lagrangian": "1"},
                                    {"builtin": "EUCLID", "params": {"n": 0}}])
def test_dimension_below_one_is_a_config_error(tmp_path, capsys, system):
    # n = 0 was a bare IndexError (exit 1) for an expression system, and
    # an empty-expression ParseError for EUCLID
    cfg = write_config(tmp_path, "n0.json", {"system": system,
                                             "samples": {"points": [{"x": [], "y": []}]}})
    assert main(["classify", cfg]) == 2
    assert "must be at least 1" in capsys.readouterr().err


def _deep_source(levels, shape):
    """A source exactly ``levels`` deep: a chain of terms (the syntax
    tree's depth), or nested parentheses (the parser's)."""
    if shape == "chain":
        return "y1^2" + " + 0.001*x1" * (levels - 2)
    return "y1^2 + 0.1*" + "(" * (levels - 1) + "x1" + ")" * (levels - 1)


@pytest.mark.parametrize("shape", ["chain", "nest"])
@pytest.mark.parametrize("command", ["classify", "simulate"])
def test_expression_depth_bound(tmp_path, capsys, shape, command):
    # a tree at the bound runs; one level more is a ConfigError (exit 2),
    # where 1,200 chained terms used to end in a RecursionError traceback
    from lagmech.dsl import MAX_DEPTH

    for levels, code in ((MAX_DEPTH, 0), (MAX_DEPTH + 1, 2), (1202, 2)):
        system = {"n": 1, "lagrangian": _deep_source(levels, shape), "force": ["-0.1*y1"]}
        cfg = write_config(tmp_path, "deep.json", {
            "system": system, "samples": {"points": [{"x": [0.5], "y": [1.0]}]},
            "initial": {"x": [0.5], "y": [1.0]}, "integrator": {"step": 0.01, "t_end": 0.02}})
        assert main([command, cfg]) == code, (levels, shape)
        err = capsys.readouterr().err
        assert (f"deeper than {MAX_DEPTH} levels" in err) == (code == 2), err


def test_negative_power_of_an_underflowing_base_is_a_domain_error(tmp_path, capsys):
    # x1^(-2) at x1 = 1e-200: x1^2 underflows to zero where x1 is not, and
    # the reciprocal raised a bare ZeroDivisionError (exit 1)
    point = {"x": [1e-200], "y": [1.0]}
    cfg = write_config(tmp_path, "ipow.json", {
        "system": {"n": 1, "lagrangian": "y1^2 + x1^(-2)"},
        "samples": {"points": [point, {"x": [0.5], "y": [1.0]}]},
        "initial": point, "integrator": {"t_end": 0.01}})
    assert main(["classify", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points_tested"] == 1
    assert [(f["index"], f["error"], f["detail"]) for f in doc["failures"]] == \
        [(0, "DomainError", "division by zero")]
    assert main(["simulate", cfg]) == 3
    assert '"status": "domain_stop"' in capsys.readouterr().err
