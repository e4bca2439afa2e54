"""Machine-speed probe, so that times from a shared host can be compared.

The speed of the 2-vCPU virtual machine this benchmark was tuned on drifts
with its neighbours' load: the same enumeration took 4.8 s in one run and
7.5 s a few minutes later, and the snippet below ranged from 1.9 ms to 3.8 ms
within a minute.  Raw wall times therefore spread far more than any change
worth detecting.  While a pass runs, a SIGALRM handler times a fixed
pure-Python snippet, which uses nothing from the library, every
``PERIOD_S`` seconds, and the handler's own time is subtracted from every
interval it falls in.  A pass's time is divided by its slowdown factor, the
mean snippet time during the pass over ``NOMINAL_S``: the result is the time
the pass would take on a host as fast as the nominal one.  A worker's
set-up is rescaled the same way, sampled every ``SETUP_PERIOD_S`` seconds.

The mean, not the median, because a pass's wall time adds up the host's
speed over the pass, and the speed often switches between two levels within
one pass.  Over 29 full ``critical`` passes, log pass time against log mean
snippet time had slope 0.96 and correlation 0.97, and rescaling cut the
interquartile range of pass times from 13 % to 4 % of the median.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from typing import Optional

PERIOD_S = 0.1
SETUP_PERIOD_S = 0.02  # set-up lasts 0.1 s to 1 s, so it is sampled more often
SNIPPET_ITERATIONS = 10_000
NOMINAL_S = 0.002  # the snippet on an uncontended core of the tuning host


def snippet() -> int:
    """Fixed interpreter work: integer and bit operations, a small dict and
    short-lived lists, in a working set that stays in cache."""
    acc = 0
    table = {}
    for i in range(SNIPPET_ITERATIONS):
        m = (i * 2654435761) & 0xFFFF
        acc += (m & -m).bit_length()
        table[m & 255] = acc
        if i % 7 == 0:
            acc ^= len([m, i, acc])
    return acc


def time_snippet() -> float:
    t0 = time.perf_counter()
    snippet()
    return time.perf_counter() - t0


def slowdown_now(samples: int = 5) -> float:
    """Current slowdown factor from a few snippet runs in a row."""
    return statistics.mean(time_snippet() for _ in range(samples)) / NOMINAL_S


class SpeedProbe:
    """Times the snippet every ``period`` seconds while active (main thread
    only).  Samples are (start, duration) pairs in time order."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        t0 = clock()
        snippet()
        self.starts.append(t0)
        self.durations.append(clock() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0: float, t1: float) -> float:
        """Handler time spent inside [t0, t1].  The handler runs between
        bytecodes of the main thread, so each sample lies wholly inside or
        wholly outside any interval bounded by two clock readings."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def slowdown(self, t0: float, t1: float) -> Optional[float]:
        """Slowdown factor from the samples inside [t0, t1], or None when no
        sample fell inside."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        if lo == hi:
            return None
        return statistics.mean(self.durations[lo:hi]) / NOMINAL_S
