"""Machine-speed meter: a fixed reference kernel timed on a timer signal.

On the shared 2-vCPU VM the benchmark was tuned on, the CPU's speed drifts
by up to 1.6x within seconds, with no steal time and CPU time equal to wall
time, so raw timings of a 40-second run spread by 30% between runs.  The
meter samples that speed while the run measures: every ``INTERVAL_S`` a
timer signal runs one pass of ``kernel`` (a fixed mix of interpreted
Python, small and medium numpy products and JSON parsing, like the
program's own work) and records when it started and ended.

An operation's time at reference speed is its busy time (its wall time
minus the kernel passes inside it) times ``REF_KERNEL_S`` over the mean
kernel time in a window around it: the time it would take on a machine
where one kernel pass takes ``REF_KERNEL_S``.  On that VM, within one
run, emotions-train fits scaled this way stayed within -4%/+14% of their
median where their wall times ranged over -17%/+53%, and the spread
between quartiles of single-row predictions fell from 0.58 to 0.16 of
their median.  A pass takes 0.7-1.2 ms there, about 2% of the time.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05      # between kernel passes
WINDOW_S = 0.25        # kernel passes this close to an operation scale it
MIN_PASSES = 5         # an operation is scaled by at least this many passes
REF_KERNEL_S = 1e-3    # kernel time of the reference machine

_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(64, 64))
_WIDE = _rng.normal(size=(600, 300))
_ONES = np.ones(300)
# float lists like those of a saved model; parsing them tracks the speed of
# allocation-heavy code, which the slow spells hit harder than arithmetic
_DOC = json.dumps([_rng.normal(size=73).tolist() for _ in range(18)])


def kernel() -> float:
    total = 0.0
    for i in range(50):
        total += float((_SMALL @ _SMALL[:, i % 64]).sum()) + sum(range(100))
    for _ in range(3):
        total += float((_WIDE @ _ONES).sum())
    return total + len(json.loads(_DOC))


class SpeedMeter:
    """Context manager that samples the kernel time while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Time at reference speed of an operation that ran from start to end."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        lo = max(0, min(lo, hi - MIN_PASSES))
        hi = min(n, max(hi, lo + MIN_PASSES))
        passes = [(s, e - s) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        inside = sum(d for s, d in passes if start <= s < end)
        mean = statistics.fmean(d for _, d in passes)
        return (end - start - inside) * REF_KERNEL_S / mean
