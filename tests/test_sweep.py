"""Sweeps over one batch: a list of points and its stacked batch give the
same reports bit for bit, and a sweep reduces each output a chunk's
column at a time exactly as the per-lane fold does."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from lagmech import cli
from lagmech.compiled import run
from lagmech.errors import DomainError, LagmechError
from lagmech.finsler import finsler_identities, homogeneity_report
from lagmech.mechanics import PointGeometry, classify, stack_points, sweep
from lagmech.phase import PhasePoint
from lagmech.systems import instantiate
from lagmech.verify import run_verification
from render_route import each_point

_ODD = (0, 15, 16, 255, 256, 299)  # first, across a block's end, across the chunk's end, last
# SYS-D leaves its domain on the zero section, SYS-C's metric is singular at y = (1, 0)
_SETS = {"SYS-D": ({"e": -0.5}, [0.0, 0.0]), "SYS-C": ({}, [1.0, 0.0])}


def _config(name: str) -> dict:
    params, odd_y = _SETS[name]
    points = [{"x": [0.01 * (i % 50) - 0.25, 0.2],
               "y": odd_y if i in _ODD else [1.0, 0.5 + 0.001 * i]} for i in range(300)]
    return {"system": {"builtin": name, "params": params}, "samples": {"points": points}}


def _listed(cfg: dict) -> list:
    return [PhasePoint(p["x"], p["y"]) for p in cfg["samples"]["points"]]


def _bits(report) -> str:
    """A report as text that tells every float apart by its bits (repr
    round-trips; -0.0 and NaN print as themselves)."""
    return json.dumps(report)


_REPORTS = {
    "classify": lambda s, p: classify(s, p).to_dict(),
    "verify": run_verification,
    "homogeneity": lambda s, p: homogeneity_report(s, p).to_dict(),
    "identities": lambda s, p: finsler_identities(s, p).to_dict(),
}


@pytest.mark.parametrize("report", _REPORTS)
@pytest.mark.parametrize("name", _SETS)
def test_batch_and_list_give_the_same_report(name, report):
    cfg = _config(name)
    sys_ = cli.build_system(cfg)
    samples = _listed(cfg)
    from_list = _REPORTS[report](sys_, samples)
    from_batch = _REPORTS[report](sys_, stack_points(samples))
    assert _bits(from_batch) == _bits(from_list)
    failures = from_list.get("failures", from_list.get("singular_points"))
    # the Euler tests invert no metric: SYS-C's singular points pass them
    odd = [] if (name, report) == ("SYS-C", "homogeneity") else list(_ODD)
    assert [f["index"] for f in failures] == odd
    for f in failures:
        assert f["point"] == {"x": list(samples[f["index"]].x), "y": list(samples[f["index"]].y)}
        assert all(type(c) is float for c in f["point"]["x"] + f["point"]["y"])


@pytest.mark.parametrize("name", _SETS)
def test_cli_inspect_of_a_batch_equals_inspect_of_the_list(name, tmp_path, monkeypatch):
    cfg = _config(name)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))

    def inspect():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["inspect", str(path)])
        return out.getvalue(), code

    batch = inspect()
    monkeypatch.setattr(cli, "build_samples", lambda cfg, sys_, seed: _listed(cfg))
    assert inspect() == batch
    assert batch[1] == cli.EXIT_DOMAIN


# a synthetic report: lane i of the samples reads row i of each column
_LANES = 600
_COLUMNS = {name: np.linspace(-1.0, 1.0, _LANES) for name in ("first", "later", "middle", "zeros")}
_COLUMNS["first"][0] = math.nan  # NaN first in the first chunk: it sticks
_COLUMNS["later"][256] = math.nan  # NaN first in a later chunk: skipped, 257 is larger
_COLUMNS["later"][257] = 5.0
_COLUMNS["middle"][100] = math.nan  # NaN mid-column: skipped
_COLUMNS["zeros"][:] = 0.0
_COLUMNS["zeros"][0] = -0.0  # a tie keeps the first maximal value
_COLUMNS["flag"] = np.arange(_LANES) % 97 == 50  # a boolean column
_COLUMNS["late_flag"] = np.arange(_LANES) == 599


def _synthetic(failing=()):
    def per_batch(p):
        lane = np.asarray(p.x[0]).astype(int)
        if np.isin(lane, failing).any():
            raise DomainError("synthetic failure")
        return {name: column[lane] for name, column in _COLUMNS.items()}

    return per_batch


def _per_lane(samples, per_batch):
    """The reference reduction: ``max(previous, value)`` one lane at a time."""
    maxima, failures, tested = {}, [], 0
    for index, p, values, err in each_point(samples, per_batch):
        if err is not None:
            failures.append(index)
            continue
        tested += 1
        for name, v in values.items():
            v = np.asarray(v).item()
            maxima[name] = max(maxima[name], v) if name in maxima else v
    return maxima, tested, failures


@pytest.mark.parametrize("failing", [(), (0,), (256,), (3, 17, 255, 256, 257, 599)])
@pytest.mark.parametrize("count", [1, 2, 256, 257, 300, 600])
def test_sweep_reduces_each_column_as_the_per_lane_fold(count, failing):
    samples = [PhasePoint((float(i),), (0.5,)) for i in range(count)]
    per_batch = _synthetic([i for i in failing if i < count])
    maxima, tested, records = sweep(samples, per_batch)
    ref_maxima, ref_tested, ref_failures = _per_lane(samples, per_batch)
    assert _bits(maxima) == _bits(ref_maxima)
    assert list(maxima) == list(ref_maxima)
    assert (tested, [f["index"] for f in records]) == (ref_tested, ref_failures)
    batch_maxima, batch_tested, batch_records = sweep(stack_points(samples), per_batch)
    assert (_bits(batch_maxima), batch_tested, batch_records) == (_bits(maxima), tested, records)


def test_sweep_keeps_the_nan_rules():
    samples = [PhasePoint((float(i),), (0.5,)) for i in range(_LANES)]
    maxima, tested, _ = sweep(samples, _synthetic())
    assert tested == _LANES
    assert math.isnan(maxima["first"])
    assert maxima["later"] == 5.0
    assert maxima["middle"] == 1.0
    assert math.copysign(1.0, maxima["zeros"]) == -1.0
    assert maxima["flag"] is True and maxima["late_flag"] is True


def test_an_empty_batch_is_a_typed_error():
    # a sweep of no points tests none; a context or a program run over the
    # batch of no points has no values to give
    sys_ = instantiate("SYS-D", {"e": -0.5})
    assert classify(sys_, []).points_tested == 0
    with pytest.raises(LagmechError, match="an empty batch"):
        PointGeometry(sys_, stack_points([]))
    with pytest.raises(LagmechError, match="an empty batch"):
        run("report", sys_.L, sys_.V, stack_points([]), "point")
