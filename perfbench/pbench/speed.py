"""A speed reference for a noisy sandbox.

The 2-core box this benchmark is sized for changes speed by +-15 % for ten
seconds or more at a time (CPU time moves with wall time, steal stays 0: a
neighbour on the core, or the clock).  A 20-second run sits inside one or
two such regimes, so raw medians of identical runs differ by 10-20 %, which
no amount of in-run averaging removes.

A small fixed kernel (numpy matmul / tanh / gather / reduce under a Python
loop, the same mix the program's autograd code is made of, nothing from
``repro``) is therefore timed right next to the measurements, and times
that are pure computation are reported at the reference speed:

    reported = raw x NOMINAL_S / kernel time measured alongside

Fifteen-second windows of a DIN+MISS step read 76-104 ms raw (spread 0.21)
and 80-86 ms scaled (spread 0.02).  Raw values and the speed index of every
run are printed in its notes.  Times that contain timers, sleeps or socket
waits (the serving latencies) are reported raw.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "SpeedReference", "smoothed"]

#: One kernel call on the reference box in its usual regime.  A constant:
#: every reported time is "at the speed where the kernel takes this long".
NOMINAL_S = 0.0016

_ITERATIONS = 10


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.random((128, 60))
        self._b = rng.random((60, 40))
        self._table = rng.random((800, 10))
        self._index = rng.integers(0, 800, (128, 20))

    def sample(self) -> float:
        """Seconds one call of the kernel took just now."""
        a, b, table, index = self._a, self._b, self._table, self._index
        start = time.perf_counter()
        for _ in range(_ITERATIONS):
            hidden = np.tanh(a @ b)
            rows = table[index]
            (rows * rows).sum(axis=1)
            hidden.sum()
        return time.perf_counter() - start

    def scale(self, samples: int = 9) -> float:
        """Factor that takes a raw time measured now to reference speed.
        One sample is within +-20 % of its regime; the median of nine is
        within a few per cent and costs 16 ms."""
        return NOMINAL_S / float(np.median([self.sample()
                                            for _ in range(samples)]))


def smoothed(samples, window: int = 25) -> np.ndarray:
    """Running median over ``window`` neighbours (a few seconds of training
    steps, well inside one regime): one 1.6 ms sample is itself noisy."""
    samples = np.asarray(samples, dtype=np.float64)
    half = window // 2
    padded = np.pad(samples, half, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, window),
                     axis=1)
