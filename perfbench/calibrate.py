"""Host-speed calibration: a fixed kernel timed between the program's calls.

On a shared machine the same solve can take twice as long a minute later,
because neighbours contend for the CPU and memory. The benchmark therefore
times this fixed kernel, which never calls the program, at regular intervals
during a run. It scales every reported time by REFERENCE_MS / (the median of
the kernel samples taken nearest to it). A reported time is thus
"milliseconds on a host as fast as the reference". The raw times are printed
beside the scaled ones.

The kernel mixes what the program spends its time on: interpreter work on
small dicts and arrays, and a BLAS rank-1 update on a tableau-sized matrix.
Never change the kernel or REFERENCE_MS: results before and after such a
change would not compare.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import defaultdict

import numpy as np
from scipy.linalg.blas import dger

REFERENCE_MS = 5.0  # the kernel's time on the reference host
SAMPLE_EVERY_S = 0.25  # at most this often when sampling on demand
NEAREST = 7  # samples whose median scales a time


class HostClock:
    """Kernel samples per run phase; scale(phase) turns that phase's raw times into reference times."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)  # kernel ms
        self.taken_at: dict[str, list[float]] = defaultdict(list)  # perf_counter at mid-sample
        self.spent = 0.0  # seconds spent sampling, for callers that time around samples
        self._last = -float("inf")
        self._small = np.asfortranarray(np.zeros((20, 30)))
        self._large = np.asfortranarray(np.zeros((400, 2500)))

    def sample(self, phase: str) -> None:
        start = time.perf_counter()
        for i in range(150):
            x = np.zeros(30)
            x[i % 30] = 1.0
            dger(-1e-12, np.ones(20), x, a=self._small, overwrite_a=1)
            row = {(j, i): float(j) for j in range(20)}
            sorted(row.values(), key=lambda v: -v)
            np.argmin(np.where(x > 0.5, x, np.inf))
        ones_rows, ones_cols = np.ones(400), np.ones(2500)
        for _ in range(6):
            dger(-1e-12, ones_rows, ones_cols, a=self._large, overwrite_a=1)
            np.argmin(self._large[-1])
        end = time.perf_counter()
        self.samples[phase].append((end - start) * 1e3)
        self.taken_at[phase].append((start + end) / 2)
        self.spent += end - start
        self._last = end

    def maybe_sample(self, phase: str) -> None:
        """Sample if SAMPLE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample(phase)

    def scale(self, phase: str) -> float:
        """Factor that turns a raw time of the phase into a reference time."""
        return REFERENCE_MS / statistics.median(self.samples[phase])

    def scale_near(self, phase: str, start: float, end: float) -> float:
        """The scale of the phase's samples taken between start and end.

        With fewer than NEAREST of them, the NEAREST samples closest to the
        interval are used, so a short call is scaled by the host speed of the
        seconds around it rather than of the whole run.
        """
        at, ms = self.taken_at[phase], self.samples[phase]
        lo, hi = bisect.bisect_left(at, start), bisect.bisect_right(at, end)
        while hi - lo < min(NEAREST, len(at)):
            if hi == len(at) or (lo > 0 and start - at[lo - 1] <= at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_MS / statistics.median(ms[lo:hi])
