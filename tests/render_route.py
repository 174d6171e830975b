"""Reference route to the CLI's JSON output, for the tests.

``render_json`` renders every value by recursion, one element at a time,
and ``inspect`` renders one document of per-point entries, each point's
fields sliced off the batch by :func:`~lagmech.mechanics.each_point`.
A test compares the CLI's output with these byte for byte.
"""

import json
import math

import numpy as np

from lagmech.cli import EXIT_DOMAIN, EXIT_OK, _inspect_fields, _integer, build_samples, build_system
from lagmech.mechanics import each_point


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
    for idx, p, fields, err in each_point(samples, lambda q: _inspect_fields(sys_, q)):
        entry = {"index": idx, "point": {"x": list(p.x), "y": list(p.y)}}
        if err is None:
            entry.update(fields)
        else:
            hit_singular = True
            entry["error"] = type(err).__name__
            entry["detail"] = str(err)
        results.append(entry)
    return render_json({"points": results}) + "\n", EXIT_DOMAIN if hit_singular else EXIT_OK
