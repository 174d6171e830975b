"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the same code runs up to
twice as fast or slow from one second to the next, and all code slows
together.  So a small fixed reference kernel samples the machine's speed
while each operation runs: an interval timer interrupts the operation
every ``INTERVAL_S`` and runs the kernel once, and ``BLOCK`` more kernel
runs come just before and just after it.  The operation's time, less the
time spent in the interrupts, is scaled by the mean kernel time against
its nominal time ``REFERENCE_S``.  The interrupts touch nothing of the
operation, so its outputs do not change.  A rate then reads as the rate at
the machine speed where the kernel takes ``REFERENCE_S``; the raw
wall-clock figures are kept beside the scaled ones in the report.

The kernel exercises what lagmech's hot paths are made of (small Python
objects with operator methods, float math, tiny numpy arrays) and never
touches lagmech, so a change to lagmech cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

KERNEL_N = 200
# Nominal kernel time, about its median on a 2-vCPU Intel Xeon VM.
REFERENCE_S = 0.0005
INTERVAL_S = 0.01
BLOCK = 10


class _D:
    __slots__ = ("a", "b")

    def __init__(self, a, b=0.0):
        self.a = a
        self.b = b

    def __add__(self, o):
        return _D(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _D(self.a * o.a, self.a * o.b + self.b * o.a)


def kernel(n: int = KERNEL_N) -> float:
    acc = _D(0.0)
    m = np.eye(3)
    step = np.array([[1.0, 1e-6, 0.0], [0.0, 1.0, 1e-6], [1e-6, 0.0, 1.0]])
    for i in range(n):
        x = _D(1.0 + 1e-3 * i, 1.0)
        acc = acc + x * x + x * _D(math.sqrt(i + 1.0))
        if i % 8 == 0:
            m = m.dot(step)
            m = m / np.abs(m).max()
    return acc.a + acc.b + float(m[0, 0])


def reference_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Meter:
    """Times one operation and samples the machine's speed around and
    during it.  After the ``with`` block, ``seconds`` is the operation's
    wall time less the interrupts and ``reference`` the mean kernel time."""

    def __init__(self):
        self.kernels: list = []
        self.seconds = 0.0
        self.reference = 0.0
        self._interrupts = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernels.append(reference_seconds())
        self._interrupts += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.kernels += [reference_seconds() for _ in range(BLOCK)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.seconds = time.perf_counter() - self._t0 - self._interrupts
        signal.signal(signal.SIGALRM, self._previous)
        self.kernels += [reference_seconds() for _ in range(BLOCK)]
        self.reference = statistics.fmean(self.kernels)
        return False


class Samples:
    """Per-metric timings, each with the mean kernel time measured around
    and during it.

    A metric is either a rate (work over seconds: scaled up when the
    machine was slow) or a time in seconds (scaled down).
    """

    def __init__(self):
        self.raw: dict = {}
        self.ref: dict = {}
        self.is_time: dict = {}

    def add(self, metric: str, value: float, ref: float, is_time: bool):
        self.raw.setdefault(metric, []).append(value)
        self.ref.setdefault(metric, []).append(ref)
        self.is_time[metric] = is_time

    def scaled(self, metric: str) -> list:
        if self.is_time[metric]:
            return [v * REFERENCE_S / r for v, r in zip(self.raw[metric], self.ref[metric])]
        return [v * r / REFERENCE_S for v, r in zip(self.raw[metric], self.ref[metric])]

    def medians(self) -> dict:
        return {m: statistics.median(self.scaled(m)) for m in self.raw}

    def report(self) -> dict:
        return {m: {"median": statistics.median(self.scaled(m)),
                    "raw_median": statistics.median(self.raw[m]),
                    "reference_median_s": statistics.median(self.ref[m]),
                    "samples": len(self.raw[m]),
                    "values": self.scaled(m), "raw_values": self.raw[m],
                    "reference_s": self.ref[m]}
                for m in self.raw}
