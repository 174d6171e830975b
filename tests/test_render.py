"""The CLI's JSON output against the element-by-element reference route."""

import json
import math

import numpy as np
import pytest

import render_route
from lagmech.cli import main, render_json, render_rows
from lagmech.sampling import sample_box


def _points(box_x, box_y, count, seed, zero_at=()):
    pts = [{"x": list(p.x), "y": list(p.y)}
           for p in sample_box(box_x, box_y, count, mode="random", seed=seed)]
    for i in zero_at:
        pts[i]["y"] = [0.0] * len(box_y)
    return {"points": pts}


_SYS_D_BOX = ([[-1, 1], [-1, 1]], [[-1, 1], [-1, 1]])

_INSPECT = {
    # 1x1 rows; exact-integer rows short enough to print inline
    "EUCLID1": {"system": {"builtin": "EUCLID", "params": {"n": 1}}},
    "EUCLID3": {"system": {"builtin": "EUCLID", "params": {"n": 3}}},
    "SYS-A": {"system": {"builtin": "SYS-A", "params": {"c": 0.1}}},
    "SYS-B": {"system": {"builtin": "SYS-B", "params": {}}},
    "SYS-C": {"system": {"builtin": "SYS-C", "params": {}}},
    "SYS-D": {"system": {"builtin": "SYS-D", "params": {"e": -0.5}}},
    "SYS-E": {"system": {"builtin": "SYS-E", "params": {"e": -1.0}}},
    # the 3-index C at n=6
    "SYS-E/EUCLID6": {"system": {"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID",
                                                                 "n": 6}},
                      "samples": {"count": 40}},
    "SYS-C singular": {"system": {"builtin": "SYS-C"}, "samples": {"points": [
        {"x": [0.0, 0.0], "y": [1.0, 0.0]},
        {"x": [0.0, 0.0], "y": [1.0, 1.0]},
        {"x": [0.3, -0.2], "y": [0.0, 1.3]},
        {"x": [0.1, 0.4], "y": [-0.7, 0.5]},
    ]}},
    # zero-section points inside the first chunk of 256 and across its end
    "SYS-D 300": {"system": {"builtin": "SYS-D", "params": {"e": -0.5}},
                  "samples": _points(*_SYS_D_BOX, 300, seed=5, zero_at=(0, 255, 256))},
    "all failing": {"system": {"builtin": "SYS-D", "params": {"e": -0.5}},
                    "samples": _points(*_SYS_D_BOX, 20, seed=6, zero_at=range(20))},
}


@pytest.mark.parametrize("name", list(_INSPECT))
def test_inspect_matches_reference_route(tmp_path, capsys, name):
    cfg = _INSPECT[name]
    path = tmp_path / "inspect.json"
    path.write_text(json.dumps(cfg))
    code = main(["inspect", str(path)])
    out = capsys.readouterr().out
    ref_out, ref_code = render_route.inspect(cfg)
    assert code == ref_code
    assert out == ref_out
    doc = json.loads(out)
    errors = [p["index"] for p in doc["points"] if "error" in p]
    if name == "SYS-D 300":
        assert code == 3 and errors == [0, 255, 256]
    if name == "all failing":
        assert code == 3 and errors == list(range(20))


_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 0.1, -1.2345678901234567e-300, 1e300,
    [], {}, [[]], [{}], {"a": {}}, {"a": {"b": {"c": [1.5, None]}}},
    np.int64(7), np.float32(0.1), np.float64(math.nan), True, None, "text", 12,
    [1, 2.5, math.nan], [[1.0, 2.0], [3.0, 4.0]], (0.5, -0.25),
    np.array(2.5), np.array([]), np.zeros((2, 0)), np.zeros((0, 3)), np.zeros((2, 0, 3)),
    np.array([math.nan, math.inf, -math.inf, 1.0]), np.eye(3), np.zeros((3, 3, 3)),
    np.array([[1e-300, -2.5e100], [math.pi, -0.0]]), np.arange(4), np.array([True, False]),
    {"rows": np.ones((1, 1)), "more": [np.arange(3.0), {"deep": np.eye(2)}]},
]


@pytest.mark.parametrize("value", _VALUES, ids=range(len(_VALUES)))
def test_render_json_matches_reference_route(value):
    for indent in (0, 3):
        assert render_json(value, indent) == render_route.render_json(value, indent)


def test_render_rows_match_reference_route():
    rng = np.random.default_rng(3)
    for shape in [(5,), (5, 1), (5, 4), (4, 2, 3), (3, 2, 2, 2), (2, 6, 6, 6), (0, 2), (3, 0)]:
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-40, 40, shape)
        # short exact integers make some rows inline and leave others broken
        values.ravel()[::3] = np.round(rng.standard_normal(values.size))[::3]
        values.ravel()[1::7] = np.nan
        values.ravel()[2::11] = -np.inf
        for indent in (0, 2, 5):
            assert render_rows(values, indent) == [
                render_route.render_json(v, indent) for v in values]
