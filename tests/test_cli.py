"""Command-line interface: subcommands, exit codes, determinism."""

import json
import math
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
    sys_ = build_system(cfg, {})
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
