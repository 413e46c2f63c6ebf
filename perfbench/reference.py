"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same work takes 10-30% longer or shorter from one
minute to the next, and the same drift slows this kernel.  While a run
is measured, a timer signal interrupts it every ``INTERVAL_S`` seconds to
time the kernel.  ``Reference.clock`` leaves that time out, so the
workloads' timings do not include it.  The benchmark scales each time it
reports to a machine on which the kernel takes ``NOMINAL_MS``, using the
kernel timings from ``WINDOW_S`` before the interval to ``WINDOW_S``
after it, so that drift within a run cancels too.

The kernel mixes what ``upm`` spends its time on: small matmuls and
elementwise ops driven from a Python loop, and a broadcast
nearest-neighbour scan like the brute-force Chamfer distance.  It does
not use ``upm``, so a change to the program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_MS = 50.0
INTERVAL_S = 0.5
WINDOW_S = 2.5

_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) * 0.1
_POINTS = np.random.default_rng(1).standard_normal((512, 3))


def kernel(rounds: int = 200) -> float:
    x = _MATRIX
    acc = 0.0
    for i in range(rounds):
        x = np.tanh(x @ _MATRIX)
        acc += float(x[i % 64, 0])
        if i % 40 == 0:
            diff = _POINTS[:, None, :] - _POINTS[None, :, :]
            acc += float((diff * diff).sum(axis=2).min(axis=1).mean())
    return acc


class Reference:
    """Times the kernel on a timer while active; a context manager."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (clock() when taken, seconds)
        self._spent_s = 0.0
        self._sampling = False
        self._previous_handler = None

    def __enter__(self) -> "Reference":
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # a slow kernel must not nest inside itself
            self.sample()

    def sample(self) -> None:
        self._sampling = True
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self._spent_s += elapsed
        self.samples.append((self.clock(), elapsed))
        self._sampling = False

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent in the kernel so far."""
        return time.perf_counter() - self._spent_s

    @property
    def median_ms(self) -> float:
        return 1000.0 * statistics.median(s for _, s in self.samples)

    def speed(self, start: float, end: float, window_s: float = WINDOW_S) -> float:
        """Factor that turns a time measured in [start, end] into one at reference speed."""
        near = [s for t, s in self.samples if start - window_s <= t <= end + window_s]
        if not near:
            near = [s for _, s in self.samples]
        return NOMINAL_MS / (1000.0 * statistics.median(near))
