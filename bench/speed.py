"""Host speed reference for the benchmark's timings.

On a shared host the speed of one core changes under a running process: a
fixed numpy loop ran anywhere from 11 to 34 ms on the 2-core Xeon host the
benchmark was written on (numpy 2.4.6, OpenBLAS 0.3.31), in phases that last
from seconds to minutes, and process CPU time moved with wall time, so the
cause is the host, not scheduling. One train-cce-dm call took 2.3 s in a
fast phase and 4.9 s in a slow one.

While a run measures, a timer signal runs short fixed loops every
SAMPLE_INTERVAL_S, so their samples are spread evenly over the measured
calls. The loops use no advens code, so no change to the program moves
them. A loop's mean sample over its nominal time is a speed factor;
dividing a timing by the factor of the samples around it gives seconds at
the speed where the loop takes its nominal time.
"""

import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.1
WINDOW_S = 1.0  # a timing is rescaled by the samples this close to it
# Each loop's time on that host in its faster phase.
NOMINAL_S = {"dispatch": 0.00065, "array": 0.00075}


class SpeedReference:
    """Each sample times two loops: "dispatch", small-batch steps like the
    training calls, and "array", one pass over a large array like the
    analysis calls of analyze-idx. A slow host phase slows the second less,
    so each call is rescaled by the loop that resembles it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # a 30-row batch through a small MLP
        self._x = rng.random((30, 8))
        self._w1 = rng.standard_normal((8, 32))
        self._w2 = rng.standard_normal((32, 3))
        # one product and activation over 2,500 rows of 64
        self._big = rng.random((2500, 64))
        self._wb = rng.standard_normal((64, 64))
        self.samples = {"dispatch": [], "array": []}
        self.starts = []

    def sample(self, *_):
        x, w1, w2 = self._x, self._w1, self._w2
        start = time.perf_counter()
        for _ in range(30):
            z = x @ w1
            o = np.maximum(z, 0.0) @ w2
            e = np.exp(o - o.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            g = ((p - 0.1) @ w2.T) * (z > 0.0)
            x.T @ g
        middle = time.perf_counter()
        np.maximum(self._big @ self._wb, 0.0).sum(axis=1)
        self.starts.append(start)
        self.samples["dispatch"].append(middle - start)
        self.samples["array"].append(time.perf_counter() - middle)

    def start(self):
        """Sample every SAMPLE_INTERVAL_S of wall time until stop()."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, kind, start=None, end=None):
        """Mean sample of one loop over its nominal time: how much slower
        than nominal the host ran over the whole run or, given an interval,
        within WINDOW_S of it."""
        near = self.samples[kind]
        if start is not None:
            near = [s for t, s in zip(self.starts, self.samples[kind])
                    if start - WINDOW_S <= t <= end + WINDOW_S] or near
        return statistics.fmean(near) / NOMINAL_S[kind]
