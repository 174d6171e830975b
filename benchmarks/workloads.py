"""Workload definitions: seeded inputs, timed operations and their checks.

Every operation drives lagmech the way a user does: ``lagmech.cli.main``
runs in-process on a generated config file.  The library API is called
only where the CLI has no subcommand (``homogeneity_report`` and
``finsler_identities``).  lagmech receives nothing but the generated
configs and points; the seed picks the sample points inside each
builtin's catalog box (fiber norm at least 0.1) and the initial states.

Call sizes follow the CLI's defaults.  Every ``inspect`` / ``classify`` /
``verify`` call, and every Finsler report, gets ``POINTS`` = 200 points,
the sample count ``lagmech.cli.build_samples`` draws when a config names
none (on highdim, ``HIGHDIM_POINTS``; see there).  ``simulate`` defaults
to 10,000 RK4 steps (t_end=10, h=1e-3); a fixed-step run is timed over a
shorter segment of that run instead, each segment long enough that the
per-call cost (config parse, system build, CSV output: 3-16 ms) is at
most 1% of the call, so the steps-per-second rate is the default run's.
Each adaptive solve runs DP5(4) to t=50 at rel 1e-10 (about 1500
accepted steps on SYS-A).

One round runs one operation of every kind; rounds repeat while the run
time lasts, so every metric is a median over rounds.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import os
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

SYS_A = {"builtin": "SYS-A", "params": {"c": 0.1}}
SYS_B = {"builtin": "SYS-B", "params": {}}
SYS_D = {"builtin": "SYS-D", "params": {"e": -0.5}}
SYS_E6 = {"builtin": "SYS-E", "params": {"e": -1.0, "base": "EUCLID", "n": 6}}

MIN_Y_NORM = 0.1
POINTS = 200  # lagmech.cli.build_samples' default sample count
RK4_STEP = 1e-3
RECORD_EVERY = 10
# The DP5(4) solve: stated tolerances for adaptive_solve_s.
ADAPTIVE_TOL = {"rel_tol": 1e-10, "abs_tol": 1e-12}
ADAPTIVE_T_END = 50.0
FD_TOL = 1e-6
CRIT8_TOL = 1e-6
HALVING_WINDOW = (12.0, 20.0)


@dataclass
class Op:
    """One timed operation.

    ``run`` returns (output, problems); the output is bytes, or a JSON
    document serialised after the clock stops.  ``after`` checks the
    output bytes outside the timed region.
    """

    kind: str
    metric: str
    units: int | None  # points or steps; None reports the wall time itself
    run: Callable[[], tuple]
    after: Callable[[bytes], list] | None = None
    name: str = ""

    def __post_init__(self):
        self.name = self.name or self.kind


def subseed(seed: int, *tags) -> int:
    return zlib.crc32("/".join(map(str, (seed, *tags))).encode())


def cli_call(lm, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lm.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Inputs:
    """Draws seeded points and states with lagmech's own sampler."""

    def __init__(self, lm, seed: int):
        self.lm = lm
        self.seed = seed

    def points(self, spec: dict, count: int, *tags) -> list:
        entry = self.lm.systems.find(spec["builtin"])
        box_x, box_y = entry.box(dict(spec["params"]))
        pts = self.lm.sampling.sample_box(
            box_x, box_y, count, mode="random",
            seed=subseed(self.seed, spec["builtin"], *tags), min_y_norm=MIN_Y_NORM)
        return [{"x": [float(v) for v in p.x], "y": [float(v) for v in p.y]} for p in pts]


def build_systems(lm, specs):
    for s in specs:
        lm.systems.instantiate(s["builtin"], dict(s["params"]))


def free_of(lm, spec: dict) -> dict:
    """Config ``system`` section of ``spec`` with its force switched off
    (what ``MechanicalSystem.free()`` gives), as an expression system."""
    sys_ = lm.systems.instantiate(spec["builtin"], dict(spec["params"]))
    return {"n": sys_.n, "lagrangian": sys_.L.source,
            "domain_guard": sys_.domain_guard, "label": "free"}


class OpFactory:
    """Builds the operations of one round.  Their config files are written
    by ``flush``, which must run before the operations do."""

    def __init__(self, lm, inputs: Inputs, workdir: str, rnd: int):
        self.lm = lm
        self.inputs = inputs
        self.workdir = workdir
        self.rnd = rnd
        self.pending: list = []

    def _config(self, cfg: dict) -> str:
        path = os.path.join(self.workdir, f"r{self.rnd}-{len(self.pending) + 1}.json")
        self.pending.append((path, cfg))
        return path

    def flush(self):
        for path, cfg in self.pending:
            with open(path, "w") as fh:
                json.dump(cfg, fh)
        self.pending = []

    def points(self, cmd: str, parts: list) -> Op:
        """One ``cmd`` call for each (system, count) in ``parts``, each on
        its own seeded points."""
        lm = self.lm
        paths = []
        units = 0
        for i, (spec, count) in enumerate(parts):
            pts = self.inputs.points(spec, count, self.rnd, cmd, i)
            paths.append(self._config({"system": spec, "samples": {"points": pts}}))
            units += count

        def run():
            outs, problems = [], []
            for path in paths:
                rc, out, err = cli_call(lm, [cmd, path])
                outs.append(out)
                if rc != 0:
                    problems.append(f"{cmd} exited {rc}: {err.strip()[:200]}")
            return "".join(outs).encode(), problems

        return Op(cmd, f"{cmd}_points_per_s", units, run, self._check_points(cmd))

    @staticmethod
    def _check_points(cmd):
        def after(output: bytes) -> list:
            problems = []
            decoder = json.JSONDecoder()
            text, pos = output.decode(), 0
            while pos < len(text):
                doc, pos = decoder.raw_decode(text, pos)
                while pos < len(text) and text[pos].isspace():
                    pos += 1
                if cmd == "verify" and (doc["offenders"] or doc["singular_points"]):
                    problems.append(f"verify offenders {doc['offenders']}, "
                                    f"{len(doc['singular_points'])} singular points")
                if cmd == "inspect" and any("error" in p for p in doc["points"]):
                    problems.append("inspect reported a point error")
            return problems
        return after

    def finsler(self, spec: dict, count: int, calls: int = 1) -> Op:
        """``homogeneity_report`` and ``finsler_identities``, ``calls``
        times on ``count`` seeded points each; criterion-7 tolerances apply
        to the identity residuals."""
        lm = self.lm
        point_sets = [self.inputs.points(spec, count, self.rnd, "finsler", i)
                      for i in range(calls)]

        def run():
            reports = []
            for pts in point_sets:
                sys_ = lm.systems.instantiate(spec["builtin"], dict(spec["params"]))
                samples = [lm.phase.PhasePoint(p["x"], p["y"]) for p in pts]
                hom = lm.finsler.homogeneity_report(sys_, samples)
                ids = lm.finsler.finsler_identities(sys_, samples)
                reports.append({"homogeneity": hom.to_dict(), "identities": ids.to_dict()})
            return reports, []

        def after(output: bytes) -> list:
            problems = []
            for doc in json.loads(output):
                hom, ids = doc["homogeneity"], doc["identities"]
                if not hom["accepted"] or hom["failures"] or ids["failures"]:
                    problems.append("finsler: homogeneity rejected or failed points")
                if ids["points_tested"] != count:
                    problems.append(f"finsler: {ids['points_tested']} of {count} points tested")
                if ids["energy_residual"] > 1e-10 or ids["christoffel_residual"] > 1e-8:
                    problems.append(f"finsler: identity residuals {ids['energy_residual']:.3e}, "
                                    f"{ids['christoffel_residual']:.3e}")
            return problems

        return Op("finsler", "finsler_points_per_s", count * calls, run, after)

    def simulate(self, curve: str, spec: dict, t_end: float, system=None,
                 initial=None, adaptive: bool = False, name: str = "") -> Op:
        """``simulate`` of one curve family from a seeded initial state.
        Fixed-step runs report steps per second; the adaptive solve
        reports its wall time."""
        lm = self.lm
        if initial is None:
            initial = self.inputs.points(spec, 1, self.rnd, curve, adaptive)[0]
        if adaptive:
            integ = {"method": "rk45_adaptive", "t_end": t_end,
                     "record_every": RECORD_EVERY, **ADAPTIVE_TOL}
        else:
            integ = {"method": "rk4_fixed", "step": RK4_STEP, "t_end": t_end,
                     "record_every": RECORD_EVERY}
        path = self._config({"system": system or spec, "initial": initial,
                             "integrator": integ})

        def run():
            rc, out, err = cli_call(lm, ["simulate", path, "--curve", curve])
            problems = [f"simulate {curve} exited {rc}: {err.strip()[:200]}"] if rc else []
            return (out + err).encode(), problems

        def after(output: bytes) -> list:
            text = output.decode()
            status = json.loads(text[text.rindex("\n{") + 1:])["status"]
            return [] if status == "completed" else [f"simulate {curve} ended with status {status}"]

        if adaptive:
            return Op("adaptive", "adaptive_solve_s", None, run, after, name=name)
        steps = round(t_end / RK4_STEP)
        return Op(curve, f"{curve}_steps_per_s", steps, run, after, name=name)

    def initial(self, spec: dict, tag: str) -> dict:
        return self.inputs.points(spec, 1, self.rnd, tag)[0]


def _csv_rows(output: bytes) -> tuple:
    """Trajectory CSV rows of a ``simulate`` output (the audit JSON that
    follows them is skipped)."""
    rows = list(csv.reader(output.decode().split("\n{", 1)[0].splitlines()))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def crit8_check(outputs: dict) -> list:
    """Horizontal curve of SYS-D against the geodesic of SYS-D.free():
    state deviation and relative energy drift at most 1e-6."""
    header, h_rows = _csv_rows(outputs["crit8-horizontal"])
    _, g_rows = _csv_rows(outputs["crit8-geodesic"])
    cols = [i for i, c in enumerate(header) if c[0] in "xy"]
    e_col = header.index("E")
    if len(h_rows) != len(g_rows):
        return [f"criterion 8: {len(h_rows)} vs {len(g_rows)} recorded states"]
    dev = max(abs(a[i] - b[i]) for a, b in zip(h_rows, g_rows) for i in cols)
    e0 = h_rows[0][e_col]
    drift = max(abs(r[e_col] - e0) for r in h_rows) / abs(e0)
    if dev <= CRIT8_TOL and drift <= CRIT8_TOL:
        return []
    return [f"criterion 8: state deviation {dev:.3e}, energy drift {drift:.3e}"]


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

# Operation sizes.  A call below about one second timed unsteadily on the
# shared machine where the benchmark was defined (quartile spread near 0.2
# across runs, against 0.02-0.07 for longer calls), so every timed
# operation holds at least about one second of work: fixed-step segments
# are at least that long (and at least long enough for the 1% rule above),
# and a short point command is repeated over fresh 200-point sets.
#
# highdim is the exception to 200 points per call.  At n=6 one 200-point
# call takes 4-8 s, so a run held a single round, and its one-sample
# figures spread up to 0.13 across seeds.  Its calls take HIGHDIM_POINTS
# instead: the per-call cost is still under 1% of such a call, and highdim
# measures per-point, per-dimension work, which the call size does not
# change.  Batching over the points of a call is measured on sweep.
HIGHDIM_POINTS = 50


def steps(n: int) -> float:
    return n * RK4_STEP


def sweep_round(f: OpFactory) -> list:
    return [
        f.points("inspect", [(SYS_B, POINTS), (SYS_D, POINTS)]),
        f.points("classify", [(SYS_B, POINTS), (SYS_D, POINTS)] * 2),
        f.points("verify", [(SYS_B, POINTS), (SYS_D, POINTS)]),
        f.finsler(SYS_D, POINTS, calls=2),
        f.simulate("evolution", SYS_B, steps(2000)),
        f.simulate("horizontal", SYS_B, steps(600)),
        f.simulate("geodesic", SYS_B, steps(400)),
        f.simulate("evolution", SYS_A, ADAPTIVE_T_END, adaptive=True),
    ]


def curves_round(f: OpFactory) -> list:
    start = f.initial(SYS_D, "crit8")
    return [
        f.simulate("evolution", SYS_D, steps(1800)),
        f.simulate("horizontal", SYS_D, steps(600), initial=start, name="crit8-horizontal"),
        f.simulate("geodesic", SYS_D, steps(600), initial=start, name="crit8-geodesic",
                   system=free_of(f.lm, SYS_D)),
        f.simulate("evolution", SYS_A, ADAPTIVE_T_END, adaptive=True),
        f.points("inspect", [(SYS_A, POINTS)] * 6),
        f.points("classify", [(SYS_A, POINTS)] * 10),
        f.points("verify", [(SYS_A, POINTS)] * 4),
        f.finsler(SYS_D, POINTS, calls=2),
    ]


def highdim_round(f: OpFactory) -> list:
    return [
        f.points("inspect", [(SYS_E6, HIGHDIM_POINTS)]),
        f.points("classify", [(SYS_E6, HIGHDIM_POINTS)] * 2),
        f.points("verify", [(SYS_E6, HIGHDIM_POINTS)]),
        f.finsler(SYS_E6, HIGHDIM_POINTS),
        f.simulate("evolution", SYS_E6, steps(1000)),
        f.simulate("horizontal", SYS_E6, steps(300)),
        f.simulate("geodesic", SYS_E6, steps(300)),
        f.simulate("evolution", SYS_E6, ADAPTIVE_T_END, adaptive=True),
    ]


# ---------------------------------------------------------------------------
# untimed gates
# ---------------------------------------------------------------------------


def find_fd_oracle(lm):
    """``fd_oracle`` from ``lagmech.jets``, or else from the checkout's
    ``tests/`` directory, where the oracle may move as test-only code."""
    oracle = getattr(lm.jets, "fd_oracle", None)
    if oracle is not None:
        return oracle
    tests = Path(lm.__file__).resolve().parents[2] / "tests"
    for path in sorted(tests.glob("*.py")):
        if "def fd_oracle(" in path.read_text():
            spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.fd_oracle
    raise LookupError("no fd_oracle in lagmech.jets or tests/")


def fd_gate(f: OpFactory, specs: list, count: int = 3) -> list:
    """Jet blocks against ``fd_oracle`` (h=1e-5) to 1e-6 relative at
    ``count`` seeded points of each system."""
    lm = f.lm
    fd_oracle = find_fd_oracle(lm)
    results = []
    for spec in specs:
        sys_ = lm.systems.instantiate(spec["builtin"], dict(spec["params"]))
        for i, p in enumerate(f.inputs.points(spec, count, "fd")):
            q = lm.phase.PhasePoint(p["x"], p["y"])
            j = lm.jets.eval_jet(sys_.L, q, order=3)
            fd = fd_oracle(sys_.L, q, order=3, h=1e-5)
            problems = []
            for block in ("d_x", "d_y", "d_yy", "d_xy", "d_yyy"):
                a, b = getattr(j, block), getattr(fd, block)
                rel = float(np.abs(a - b).max() / (1.0 + np.abs(b).max()))
                if not rel <= FD_TOL:
                    problems.append(f"{block}: {rel:.3e} at {p}")
            results.append((f"fd_oracle {spec['builtin']} point {i}", problems))
    return results


def crit8_gate(f: OpFactory, t_end: float = 0.5) -> list:
    """The criterion-8 pair over a longer horizon than the timed rounds,
    where a small error in either curve has time to show."""
    start = f.initial(SYS_D, "crit8-gate")
    pair = {"crit8-horizontal": f.simulate("horizontal", SYS_D, t_end, initial=start),
            "crit8-geodesic": f.simulate("geodesic", SYS_D, t_end, initial=start,
                                         system=free_of(f.lm, SYS_D))}
    f.flush()
    outputs, problems = {}, []
    for name, op in pair.items():
        outputs[name], p = op.run()
        problems += p or op.after(outputs[name])
    return [(f"criterion 8 to t={t_end}", problems or crit8_check(outputs))]


def halving_gate(f: OpFactory) -> list:
    """RK4 step halving on SYS-A contracts the error by a factor in [12, 20]."""
    lm = f.lm
    sys_a = lm.systems.instantiate(SYS_A["builtin"], dict(SYS_A["params"]))
    p = f.inputs.points(SYS_A, 1, "halving")[0]
    p0 = lm.phase.PhasePoint(p["x"], p["y"])
    cfg = lm.trajectories.IntegratorConfig
    t_end = 5.0
    ref = lm.trajectories.integrate_evolution(sys_a, p0, cfg(step=0.0025, t_end=t_end, record_every=4))
    r1 = lm.trajectories.integrate_evolution(sys_a, p0, cfg(step=0.01, t_end=t_end, record_every=1))
    r2 = lm.trajectories.integrate_evolution(sys_a, p0, cfg(step=0.005, t_end=t_end, record_every=2))
    e1 = max(np.abs(r1.xs - ref.xs).max(), np.abs(r1.ys - ref.ys).max())
    e2 = max(np.abs(r2.xs - ref.xs).max(), np.abs(r2.ys - ref.ys).max())
    factor = float(e1 / e2)
    lo, hi = HALVING_WINDOW
    ok = lo <= factor <= hi
    return [("rk4 step halving", [] if ok else [f"factor {factor:.2f} outside [{lo}, {hi}]"])]


# round: builds one round of operations; checks: untimed checks across the
# outputs of a round, by operation name; gates: untimed correctness gates
# run once per run, each returning (what, problems) pairs.
WORKLOADS = {
    "sweep": {"round": sweep_round, "systems": [SYS_B, SYS_D, SYS_A], "checks": [],
              "gates": [partial(fd_gate, specs=[SYS_B, SYS_D])]},
    "curves": {"round": curves_round, "systems": [SYS_D, SYS_A], "checks": [crit8_check],
               "gates": [partial(fd_gate, specs=[SYS_D, SYS_A]), crit8_gate, halving_gate]},
    "highdim": {"round": highdim_round, "systems": [SYS_E6], "checks": [],
                "gates": [partial(fd_gate, specs=[SYS_E6])]},
}
