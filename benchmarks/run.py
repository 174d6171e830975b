"""lagmech benchmark: end-to-end rates, or a traced per-layer breakdown.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout: lagmech is imported from the
checkout's ``src/`` directory, and the run fails (exit 2, no result) when
that directory is missing.  One single-threaded process; BLAS is pinned to
one thread.  With ``--trace 0`` the run reports every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it reruns the same operations with
and without span tracing and reports every per-layer metric.  End-to-end
timings are scaled by a calibration kernel that samples the machine's
speed around and during each operation (see calibrate.py).  Correctness
gates run in the same process, outside the timed regions.  The last line
of standard output is the JSON result; the full report (environment,
samples, failures) and the spans are written under ``.bench_out/`` in
the checkout.  metrics.json says what each metric measures and which
layer should move which metric.
"""

from __future__ import annotations

import os

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PIN_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 15


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from err


def import_lagmech():
    src = ROOT / "src"
    if not (src / "lagmech" / "__init__.py").is_file():
        raise BenchError(f"no lagmech sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lm = importlib.import_module("lagmech")
    importlib.import_module("lagmech.cli")
    if Path(lm.__file__).resolve().parent != (src / "lagmech").resolve():
        raise BenchError(f"lagmech imported from {lm.__file__}, not from the checkout")
    return lm


def purge_lagmech():
    for name in [k for k in sys.modules if k == "lagmech" or k.startswith("lagmech.")]:
        del sys.modules[name]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lagmech").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_pinning": {v: os.environ.get(v) for v in PIN_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations and gates, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append({"what": what, "problems": problems})
        return not problems


def run_op(op, tracer=None, metered=False) -> tuple:
    """Run one operation; returns (seconds, mean kernel seconds or None,
    output bytes, problems).  ``metered`` samples the machine's speed
    around and during the operation (calibrate.Meter)."""
    root = tracer.root("op." + op.kind) if tracer else None
    meter = calibrate.Meter() if metered else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with meter:
            out, problems = op.run()
    except Exception as err:  # an operation that raises is a failed operation
        out, problems = b"", [f"{op.name} raised {type(err).__name__}: {err}",
                              traceback.format_exc(limit=4)]
    finally:
        dt = time.perf_counter() - t0
        if root is not None:
            tracer.end(root)
    if not isinstance(out, bytes):
        out = json.dumps(out, sort_keys=True).encode()
    if not problems and op.after is not None:
        problems = op.after(out)
    if metered:
        return meter.seconds, meter.reference, out, problems
    return dt, None, out, problems


def run_round(wl, ops, tally, rnd, samples=None, tracer=None) -> dict:
    """Run one round; returns the sha256 of each operation's output.  With
    ``samples``, each timing is recorded with the machine speed sampled
    around and during it."""
    outputs = {}
    for op in ops:
        dt, ref, out, problems = run_op(op, tracer, metered=samples is not None)
        outputs[op.name] = out
        if tally.add(f"round {rnd} {op.name}", problems) and samples is not None:
            if op.units:
                samples.add(op.metric, op.units / dt, ref, is_time=False)
            else:
                samples.add(op.metric, dt, ref, is_time=True)
    for check in wl["checks"]:
        try:
            problems = check(outputs)
        except Exception as err:  # e.g. the output of a failed operation
            problems = [f"{check.__name__} raised {type(err).__name__}: {err}"]
        tally.add(f"round {rnd} {check.__name__}", problems)
    return {name: hashlib.sha256(out).hexdigest() for name, out in outputs.items()}


def setup_once(wl, seed, workdir) -> tuple:
    """Import lagmech afresh, build the workload's systems and draw its
    first round of inputs; returns (seconds, mean kernel seconds, lagmech,
    round-0 ops).  The config files are written after the clock stops."""
    purge_lagmech()
    with calibrate.Meter() as meter:
        lm = import_lagmech()
        workloads.build_systems(lm, wl["systems"])
        ops, factory = build(lm, wl, seed, workdir, 0)
    factory.flush()
    return meter.seconds, meter.reference, lm, ops


def build(lm, wl, seed, workdir, rnd) -> tuple:
    """The operations of round ``rnd`` with their inputs drawn, and the
    factory whose ``flush`` writes their config files."""
    factory = workloads.OpFactory(lm, workloads.Inputs(lm, seed), workdir, rnd)
    return wl["round"](factory), factory


def gates(lm, wl, seed, workdir, tally):
    f = workloads.OpFactory(lm, workloads.Inputs(lm, seed), workdir, "gate")
    for gate in wl["gates"]:
        try:
            results = gate(f)
        except Exception as err:  # a gate that cannot run is a failed gate
            results = [(getattr(gate, "func", gate).__name__,
                        [f"raised {type(err).__name__}: {err}", traceback.format_exc(limit=4)])]
        for what, problems in results:
            tally.add(what, problems)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(lm, wl, args, workdir, ops, tally, samples) -> dict:
    """Rounds while time lasts: a round starts only if a round as long as
    the last one ends before the deadline (round 0 always runs)."""
    deadline = time.perf_counter() + args.seconds
    rnd, last, hashes = 0, 0.0, None
    while rnd == 0 or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        if rnd > 0:
            ops, factory = build(lm, wl, args.seed, workdir, rnd)
            factory.flush()
        h = run_round(wl, ops, tally, rnd, samples)
        hashes = hashes or h
        last = time.perf_counter() - t0
        rnd += 1
    return {"rounds": rnd, "round0_output_sha256": hashes}


def traced_run(lm, wl, args, workdir, tally) -> tuple:
    """A traced set-up, then round 0 untraced and traced in turn while time
    remains.  Per-layer figures are the set-up's plus the mean over the
    traced passes; every pass must give byte-identical outputs."""
    setup = tracing.Tracer(lm)
    with setup.installed():
        root = setup.root("op.setup")
        workloads.build_systems(lm, wl["systems"])
        ops, factory = build(lm, wl, args.seed, workdir, 0)
        setup.end(root)
    factory.flush()
    tracers = [setup]

    ratios, per_pass, reference, mismatches = [], [], None, []
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while not per_pass or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        plain = run_round(wl, ops, tally, len(per_pass))
        t1 = time.perf_counter()
        tracer = tracing.Tracer(lm)
        with tracer.installed():
            traced = run_round(wl, ops, tally, len(per_pass), tracer=tracer)
        t2 = time.perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
        last = t2 - t0
        reference = reference or plain
        for name in reference:
            if plain[name] != reference[name] or traced[name] != reference[name]:
                mismatches.append(f"pass {len(per_pass)}: {name} output differs")
        tally.add(f"pass {len(per_pass)} spans nest and self times add up",
                  tracer.check()[:20])
        per_pass.append(tracer.stats())
        if len(tracers) == 1:
            tracers.append(tracer)

    tally.add("setup spans nest and self times add up", setup.check()[:20])
    tally.add("traced and untraced outputs byte-identical", mismatches)
    base = setup.stats()
    stats = {}
    for k in base:
        mean = statistics.fmean(p[k] for p in per_pass)
        if k.endswith("_ratio"):  # the set-up computes no jets or inverses
            stats[k] = mean
        else:
            total = base[k] + mean
            stats[k] = int(total) if k.endswith("calls") and total.is_integer() else total
    stats["trace.overhead_ratio"] = statistics.median(ratios)
    spans_path = out_path(args, "spans.csv")
    tracing.write_spans(tracers, spans_path)
    extra = {"passes": len(per_pass), "overhead_ratios": ratios, "absent": setup.absent,
             "spans_file": str(spans_path.relative_to(ROOT)),
             "round0_output_sha256": reference}
    return stats, extra


def out_path(args, suffix) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{suffix}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        import_lagmech()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        samples = calibrate.Samples()
        for _ in range(SETUP_REPS):
            dt, ref, lm, ops = setup_once(wl, args.seed, workdir)
            samples.add("setup_s", dt, ref, is_time=True)
        gates(lm, wl, args.seed, workdir, tally)
        if args.trace:
            values, extra = traced_run(lm, wl, args, workdir, tally)
            wanted = spec["per_layer"]
        else:
            extra = timed_run(lm, wl, args, workdir, ops, tally, samples)
            values = samples.medians()
            # ru_maxrss is in KiB on Linux
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
        report_samples = samples.report()

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            tally.add(f"metric {m['name']}", ["no successful sample"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = len(tally.failures)
    result = {"correct": failed == 0, "attempted": tally.attempted,
              "failed": failed, "metrics": metrics}
    report = {"result": result, "environment": environment(args),
              "failed_ratio": failed / tally.attempted,
              "samples": report_samples, "failures": tally.failures, **extra}
    report_path = out_path(args, "report.json")
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    for name, m in metrics.items():
        s = report_samples.get(name)
        raw = f"raw {s['raw_median']:12.6g}  n {s['samples']}" if s else ""
        print(f"{name:48s} {m['value']:14.6g} {m['unit']:10s} {raw}")
    for f in tally.failures[:10]:
        print("FAILED:", f["what"], "|", f["problems"][0])
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
