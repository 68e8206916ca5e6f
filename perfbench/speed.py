"""Machine-speed probe, so that times from a shared machine compare.

The benchmark machine shares its cores with other tenants.  Their load
changes how fast the same code runs by up to 1.7x, in phases of seconds to
tens of minutes, so raw wall times of identical runs spread by 15-40 % and
their medians move by as much between sets of runs.  The probe measures
that speed while the benchmark runs:

- the process is pinned to one CPU, so the probe and the benchmark share it;
- a daemon thread wakes every PERIOD_S seconds and times a fixed burst of
  small numpy calls, small enough to live in L1 so that the benchmark's own
  working set barely changes it;
- an interval's normalized time is its wall time, minus the bursts that ran
  inside it, times NOMINAL_BURST_S over the mean burst time around it: the
  time it would have taken at nominal speed.

Nothing in the burst depends on fairpca, so a change to the package moves
normalized times as it moves the work.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.02
# Burst time measured on a 2-vCPU Xeon at 2.1 GHz (numpy 2.4, OpenBLAS
# 0.3.31, one thread) while the benchmark ran.  It only fixes the unit.
NOMINAL_BURST_S = 250e-6
# Intervals shorter than this borrow bursts from both sides for their speed.
MIN_WINDOW_S = 0.5


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((16, 16))
        self._B = rng.standard_normal((16, 4))
        self._z = rng.standard_normal(32)
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _burst(self) -> None:
        for _ in range(10):
            P = self._A @ self._B
            S = self._B.T @ P
            np.linalg.eigh(S + S.T)
            np.sort(self._z)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            self._burst()
            duration = time.perf_counter() - t0
            # one writer; a reader takes equal prefixes of the two lists
            self._durations.append(duration)
            self._starts.append(t0)

    def __enter__(self) -> SpeedProbe:
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] would have taken at nominal speed."""
        n = len(self._starts)
        starts, durations = self._starts[:n], self._durations[:n]
        busy = sum(durations[bisect.bisect_left(starts, t0) : bisect.bisect_right(starts, t1)])
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2.0
        around = durations[bisect.bisect_left(starts, t0 - pad) : bisect.bisect_right(starts, t1 + pad)]
        if not around:
            around = durations[-25:] or [NOMINAL_BURST_S]
        return (t1 - t0 - busy) * NOMINAL_BURST_S / statistics.fmean(around)

    def slowdown(self) -> float:
        """Mean burst time so far over the nominal one."""
        return statistics.fmean(self._durations or [NOMINAL_BURST_S]) / NOMINAL_BURST_S
