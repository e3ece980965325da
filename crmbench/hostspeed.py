"""Host speed sampled while timed work runs, for scaling measured times.

The 2-core host the benchmark was defined on changes speed by up to a half
within seconds, and process CPU time drifts with wall time, so the drift is
in the host and not in scheduling.  While a ``HostSpeed`` is active, a
SIGALRM handler times a fixed reference kernel every PERIOD_S of wall time.
An op's time, less the kernel runs inside it, is scaled by REFERENCE_S over
the mean kernel time sampled during the op: the result is the op's time on
a host where the kernel takes REFERENCE_S.  The kernel is pure-Python
arithmetic plus a numpy sort, the two kinds of work crmkit's time goes to;
it calls nothing in crmkit, so a change to crmkit does not move it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Typical time of the kernel on the defining host; it only sets the scale.
REFERENCE_S = 0.0035
PERIOD_S = 0.2

_DATA = np.random.default_rng(0).random(20000)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i % 7
    np.sort(_DATA)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken every PERIOD_S while active, as a context manager."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.spans: list[float] = []  # time each sample took, handler included
        self.kernels: list[float] = []
        self.factors: list[float] = []  # REFERENCE_S / kernel time, per scaled op

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.kernels.append(kernel_seconds())
        self.starts.append(t0)
        self.spans.append(time.perf_counter() - t0)

    def __enter__(self) -> HostSpeed:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time sampled in [t0, t1], or over
        the last sample before t1 when none fell inside."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        kernels = self.kernels[lo:hi] or [self.kernels[max(hi - 1, 0)]]
        return REFERENCE_S * len(kernels) / sum(kernels)

    def scale(self, t0: float, t1: float) -> float:
        """Seconds of work timed from t0 to t1 in this process, without the
        samples taken inside it, at the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        factor = self.factor(t0, t1)
        self.factors.append(factor)
        return (t1 - t0 - sum(self.spans[lo:hi])) * factor
