"""Reference route to the CLI's JSON output, for the tests.

``render_json`` renders every value by recursion, one element at a time,
and ``inspect`` renders one document of per-point entries, each point's
fields sliced off the batch by :func:`each_point`.  A test compares the
CLI's output with these byte for byte.
"""

import json
import math

import numpy as np

from lagmech.cli import EXIT_DOMAIN, EXIT_OK, _integer, build_samples, build_system
from lagmech.compiled import run
from lagmech.jets import batch_shape
from lagmech.mechanics import _take, each_block


def each_point(samples, per_batch):
    """Yield ``(index, point, values, error)`` for each sample in order.

    ``per_batch(p)`` returns a dict of named values at ``p``, a chunk of
    the samples as a batch (values with a trailing point axis) or a
    single point; each yielded ``values`` holds one point's slice, and
    ``point`` is that point with float coordinates.  A point where
    SingularMetric, DomainError or FinslerModeError is raised yields that
    error instead (``values`` None).
    """
    for start, p, values, err in each_block(samples, per_batch):
        if err is not None or not batch_shape(p):
            yield start, p, values, err
            continue
        for lane in range(len(p.x[0])):
            yield (start + lane, _take(p, lane),
                   {name: v[..., lane] for name, v in values.items()}, None)


def render_json(obj, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits (full round trip)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append(f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in obj]
        if all(len(r) < 26 and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(f"{pad}  {r}" for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist(), indent)
    return json.dumps(obj)


def inspect(cfg: dict, seed: int = 0):
    """``(stdout, exit code)`` of ``lagmech inspect`` on a config."""
    sys_ = build_system(cfg)
    samples = build_samples(cfg, sys_, _integer(cfg, "seed", seed))
    results = []
    hit_singular = False
    for idx, p, fields, err in each_point(samples,
                                          lambda q: run("report", sys_.L, sys_.V, q, "inspect")):
        entry = {"index": idx, "point": {"x": list(p.x), "y": list(p.y)}}
        if err is None:
            entry.update(fields)
        else:
            hit_singular = True
            entry["error"] = type(err).__name__
            entry["detail"] = str(err)
        results.append(entry)
    return render_json({"points": results}) + "\n", EXIT_DOMAIN if hit_singular else EXIT_OK
