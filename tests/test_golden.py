"""Golden outputs: the stdout and exit code of ``classify``, ``verify`` and
``inspect`` on the CI's failing and singular 300-point configs and on a
40-point config with integer coordinates, compared byte for byte; and of
``simulate``, its stdout, stderr and exit code with the run's full
``RunStats``, for each curve under both integrators on completed runs and
on runs that stop (a zero-section collapse inside a Dormand-Prince
attempt, a singular start, an overflowing fiber, non-finite forces at the
start and at a geodesic's record, and a field leaving its domain).

The goldens are gzipped under ``tests/golden/``.  A deliberate output
change regenerates them with ``PYTHONPATH=src python tests/test_golden.py``
and says so in CHANGES.md.
"""

import contextlib
import dataclasses
import gzip
import io
import json
from pathlib import Path

import pytest

from lagmech.cli import build_system, main
from lagmech.errors import LagmechError
from lagmech.phase import PhasePoint
from lagmech.trajectories import (IntegratorConfig, integrate_evolution, integrate_geodesic,
                                  integrate_horizontal)

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("classify", "verify", "inspect")


def _ci_points(odd_y):
    """The CI's 300 points, with fiber ``odd_y`` at 0, 255 and 256."""
    return [{"x": [0.01 * (i % 50) - 0.25, 0.2],
             "y": odd_y if i in (0, 255, 256) else [1.0, 0.5 + 0.001 * i]} for i in range(300)]


def _integer_points():
    """40 points of integer coordinates, 2^60 among them, with a singular
    fiber (1, 0) at 11 and the zero section at 13."""
    points = [{"x": [i % 5 - 2, i % 3], "y": [1 + i % 3, 1 + i % 4]} for i in range(40)]
    points[7]["x"][1] = 2 ** 60
    points[11]["y"] = [1, 0]
    points[13]["y"] = [0, 0]
    points[17]["y"][0] = 2 ** 60
    return points


CONFIGS = {
    "failing": {"system": {"builtin": "SYS-D", "params": {"e": -0.5}},
                "samples": {"points": _ci_points([0.0, 0.0])}},
    "singular": {"system": {"builtin": "SYS-C", "params": {}},
                 "samples": {"points": _ci_points([1.0, 0.0])}},
    "integers": {"system": {"builtin": "SYS-D", "params": {"e": -0.5}},
                 "samples": {"points": _integer_points()}},
}


_COMPLETED = {"step": 0.02, "t_end": 0.51, "record_every": 3, "rel_tol": 1e-10, "abs_tol": 1e-12}
_STOPS = {"step": 0.01, "t_end": 2.0}
# y1' = -1 and y2' = -3 y1^2 along the evolution curve: y = (1 - t, (1 - t)^3)
# from y = (1, 1), cubic in t, which RK4 integrates exactly
_COULOMB = {"n": 2, "lagrangian": "y1^2 + y2^2", "force": ["-2", "-6*y1^2"],
            "domain_guard": "y_nonzero"}
# each simulate case: its system, initial state and integrator section
# (with the method added per run)
SIMULATE = {
    "SYS-B": ({"builtin": "SYS-B"}, [1.0, -0.3], [0.6, 0.9], _COMPLETED),
    "SYS-D": ({"builtin": "SYS-D", "params": {"e": -0.5}}, [0.1, 0.2], [1.0, 0.5], _COMPLETED),
    "SYS-E6": ({"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID", "n": 6}},
               [0.1] * 6, [1.0, 0.5, -0.3, 0.2, 0.4, -0.6], _COMPLETED),
    # the Dormand-Prince run collapses the velocity onto the zero section
    # inside an attempt and ends domain_stop at t = 3.33
    "zero-section": ({"builtin": "SYS-D", "params": {"e": -0.5}}, [0.1, 0.1], [0.7, 0.7],
                     {"step": 0.01, "t_end": 5.0, "record_every": 5}),
    # RK4 steps of 0.25 land the fiber exactly on the zero section at t = 1
    # but no stage before it: a new state due for a record is recorded before
    # the guard stops the run (none applies to the last), one that is not due
    # stops it before its stage is taken
    "zero-at-end": (_COULOMB, [0.1, 0.2], [1.0, 1.0], {"step": 0.25, "t_end": 1.0}),
    "zero-at-record": (_COULOMB, [0.1, 0.2], [1.0, 1.0], {"step": 0.25, "t_end": 2.0}),
    "zero-between-records": (_COULOMB, [0.1, 0.2], [1.0, 1.0],
                             {"step": 0.25, "t_end": 2.0, "record_every": 3}),
    "singular-start": ({"builtin": "SYS-C"}, [0.0, 0.0], [1.0, 0.0], _STOPS),
    "fiber-overflow": ({"n": 2, "lagrangian": "(y1^4 + y2^4)^(1/2)", "force": ["1e300*y1", "1e300*y2"],
                        "domain_guard": "y_nonzero"}, [0.1, 0.2], [0.7, 0.8], _STOPS),
    "non-finite-force": ({"n": 2, "lagrangian": "y1^2 + y2^2", "force": ["1e200*y1*1e200", "0"]},
                         [0.0, 0.0], [1.0, 0.5], _STOPS),
    # a geodesic reads the force at its records alone, and stops at one
    "log-force": ({"n": 2, "lagrangian": "y1^2 + y2^2", "force": ["-0.1*y1*log(x1)", "0"]},
                  [0.5, 0.0], [-1.0, 0.5], _STOPS),
    "log-exit": ({"n": 2, "lagrangian": "y1^2 + y2^2 - log(x1)", "force": ["-0.1*y1", "0"]},
                 [0.5, 0.0], [-1.0, 0.5], _STOPS),
}
CURVES = {"evolution": integrate_evolution, "horizontal": integrate_horizontal,
          "geodesic": integrate_geodesic}
METHODS = ("rk4_fixed", "rk45_adaptive")


def _simulate(case: str, curve: str, method: str, workdir: Path) -> dict:
    """stdout, stderr and exit code of ``lagmech simulate`` on a case, and
    the ``RunStats`` of the same run in process (or the error it raises)."""
    system, x, y, integrator = SIMULATE[case]
    cfg = {"system": system, "initial": {"x": x, "y": y},
           "integrator": dict(integrator, method=method)}
    path = workdir / "simulate.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), "--curve", curve])
    try:
        traj = CURVES[curve](build_system(cfg), PhasePoint(x, y),
                             IntegratorConfig(**cfg["integrator"]))
        stats = dataclasses.asdict(traj.stats)
    except LagmechError as error:
        stats = {"raises": f"{type(error).__name__}: {error}"}
    # through JSON, as the golden holds it: tuples as lists, inf as Infinity
    return json.loads(json.dumps({"stdout": out.getvalue(), "stderr": err.getvalue(),
                                  "code": code, "stats": stats}))


def _simulate_goldens() -> dict:
    return json.loads(gzip.decompress((GOLDEN / "simulate.json.gz").read_bytes()))


def _run(case: str, command: str, workdir: Path) -> tuple:
    """``(stdout bytes, exit code)`` of ``lagmech command`` on a config."""
    path = workdir / f"{case}.json"
    path.write_text(json.dumps(CONFIGS[case]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path)])
    return out.getvalue().encode(), code


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CONFIGS)
def test_output_is_the_golden(case, command, tmp_path):
    stdout, code = _run(case, command, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[f"{case} {command}"]
    assert stdout == gzip.decompress((GOLDEN / f"{case}.{command}.out.gz").read_bytes())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("case", SIMULATE)
def test_simulate_is_the_golden(case, curve, method, tmp_path):
    got = _simulate(case, curve, method, tmp_path)
    assert got == _simulate_goldens()[f"{case} {curve} {method}"]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case in CONFIGS:
            for command in COMMANDS:
                stdout, codes[f"{case} {command}"] = _run(case, command, Path(workdir))
                (GOLDEN / f"{case}.{command}.out.gz").write_bytes(gzip.compress(stdout, mtime=0))
        runs = {f"{case} {curve} {method}": _simulate(case, curve, method, Path(workdir))
                for case in SIMULATE for curve in CURVES for method in METHODS}
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    (GOLDEN / "simulate.json.gz").write_bytes(
        gzip.compress(json.dumps(runs, indent=1, sort_keys=True).encode(), mtime=0))
