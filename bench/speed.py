"""Timings scaled to a fixed machine speed.

On a shared virtual machine the same work runs at speeds up to about 1.8x
apart, in phases lasting from seconds to minutes; a run of the benchmark
cannot outlast them, so its raw times spread more than the bounds allow.
A timer signal therefore runs a small fixed reference kernel every
``PERIOD_S`` seconds: numpy calls on length-6 vectors and a 6x6 matrix
from a Python loop, then 6x6 LAPACK solves and eigenvalue problems, the
kind of work atrig does, but never atrig itself, so no change to the
package moves it.  An interval is divided by the
trimmed mean kernel time of the samples taken during it (over at least the
last ``WINDOW_S`` seconds) and multiplied by ``REFERENCE_S``: it reads in
seconds at the speed where the kernel takes ``REFERENCE_S``.  The time
spent in the signal handler is taken out of the clock the workloads read.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.05
#: Kernel time at the nominal speed, a round figure near its median on a
#: shared 2-vCPU Xeon virtual machine, so that scaled times read close to
#: real seconds there.
REFERENCE_S = 1.5e-3
#: Shortest span of samples an interval is scaled by.
WINDOW_S = 1.0
#: Share of the samples cut from each end before averaging: a sample the
#: host preempted, or one that found the caches cold, says little of the
#: speed the workload saw.
TRIM = 0.1
#: Kernel runs made when the meter starts, so that early intervals have samples.
PRIMING_RUNS = 20


class PlainClock:
    """Unscaled wall time, for the traced run."""

    now = staticmethod(time.perf_counter)

    def elapsed(self, t0: float) -> float:
        return time.perf_counter() - t0


class SpeedMeter:
    """A clock whose ``elapsed`` is scaled to the nominal speed.

    Use as a context manager: the timer signal runs only inside it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20170814)
        self._matrix = rng.standard_normal((6, 6))
        self._vector = rng.standard_normal(6)
        # Well conditioned, so solve and eigvals take the same path each time.
        self._systems = [rng.standard_normal((6, 6)) + 6.0 * np.eye(6) for _ in range(8)]
        self.stolen = 0.0  # seconds spent in the signal handler
        self.stamps: list[float] = []  # clock reading at each sample
        self.costs: list[float] = []  # kernel time of each sample
        self._previous = None

    def _kernel(self) -> float:
        x = self._vector.copy()
        for _ in range(200):
            x = x * 0.5 + 1.0
        for _ in range(60):
            x = self._matrix @ x / 3.0
            x = x - x.mean()
            x[0] += 1.0
        for a in self._systems:  # the LAPACK calls of spectral decompositions
            x = np.linalg.solve(a, x)
            x[0] += float(np.abs(np.linalg.eigvals(a)).max())
        return float(x[0])

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.stamps.append(t1 - self.stolen)
        self.costs.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def prime(self, runs: int = PRIMING_RUNS) -> None:
        for _ in range(runs):
            self._sample()

    def __enter__(self) -> "SpeedMeter":
        self.prime()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Wall time less the time spent sampling."""
        return time.perf_counter() - self.stolen

    def slowdown(self, t0: float, t1: float) -> float:
        """Trimmed mean kernel time of the samples in
        [min(t0, t1 - WINDOW_S), t1] over REFERENCE_S; the latest sample
        if there is none."""
        lo = bisect.bisect_left(self.stamps, min(t0, t1 - WINDOW_S))
        hi = min(max(bisect.bisect_right(self.stamps, t1), lo + 1), len(self.stamps))
        return trimmed_mean(self.costs[min(lo, hi - 1):hi]) / REFERENCE_S

    def elapsed(self, t0: float) -> float:
        """Seconds since ``t0``, scaled to the nominal speed."""
        t1 = self.now()
        return (t1 - t0) / self.slowdown(t0, t1)

    def mean_slowdown(self) -> float:
        return trimmed_mean(self.costs) / REFERENCE_S


def trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = int(TRIM * len(ordered))
    return sum(ordered[cut:len(ordered) - cut]) / (len(ordered) - 2 * cut)
