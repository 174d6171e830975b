"""Golden outputs: the stdout and exit code of ``classify``, ``verify`` and
``inspect`` on the CI's failing and singular 300-point configs and on a
40-point config with integer coordinates, compared byte for byte.

The goldens are gzipped under ``tests/golden/``.  A deliberate output
change regenerates them with ``PYTHONPATH=src python tests/test_golden.py``
and says so in CHANGES.md.
"""

import contextlib
import gzip
import io
import json
from pathlib import Path

import pytest

from lagmech.cli import main

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


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case in CONFIGS:
            for command in COMMANDS:
                stdout, codes[f"{case} {command}"] = _run(case, command, Path(workdir))
                (GOLDEN / f"{case}.{command}.out.gz").write_bytes(gzip.compress(stdout, mtime=0))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
