"""A clock that reads in reference seconds: wall time rescaled to a fixed
machine speed.

On a shared host the speed one process gets swings by up to a factor of
two for seconds to minutes at a time (a fixed pure-Python loop took
0.12-0.23 s on a 2-vCPU cloud VM, with process time equal to wall time,
so the slowdown is not time taken away but a slower CPU).  Every timed
figure of the benchmark would carry that swing.  RefClock measures the
speed while the workload runs: a timer signal interrupts the process every
TICK_S seconds and times a short probe loop, independent of phigamma, in
the same thread.  Each interval between ticks is then counted at
REF_PROBE_S / probe time, so an interval in which the probe ran slower by
some factor counts for less by that factor.  The probe's own time is left
out of the clock.  The probe mixes dict lookups with multi-word integer
arithmetic, like the series code; of the loops tried it tracked the
workloads' slowdowns best.
"""

from __future__ import annotations

import signal
import time
from statistics import median

TICK_S = 0.1
PROBE_LOOPS = 1500
# the probe's usual duration on the 2-vCPU VM the benchmark was tuned on,
# so that reference seconds read close to wall seconds there
REF_PROBE_S = 0.0014

_TABLE = {i: (i * 7919) & 0xffff for i in range(1 << 16)}
_MODULUS = (1 << 400) - 1


def probe() -> float:
    """Seconds one run of the fixed probe loop takes now."""
    clock = time.perf_counter
    t0 = clock()
    table, m, x, j = _TABLE, _MODULUS, 3 ** 150, 7
    for i in range(PROBE_LOOPS):
        j = table[(j * 40503 + i) & 0xffff]
        x = (x * (j + 1) + i) % m
    return clock() - t0


class RefClock:
    """now() reads reference seconds while the clock runs (start() to
    stop()); samples holds every probe time."""

    def __init__(self):
        self._clock = time.perf_counter
        self.samples = []
        # (reference seconds at mark, mark on perf_counter, rate), replaced
        # as one value so that a tick landing inside now() cannot mix the
        # fields of two intervals
        self._state = (0.0, self._clock(), 1.0)

    def _measure(self):
        acc, mark, rate = self._state
        acc += (self._clock() - mark) * rate
        self.samples.append(probe())
        # median of the last three probes, so one interrupted probe does
        # not rescale a whole interval
        recent = sorted(self.samples[-3:])
        self._state = (acc, self._clock(),
                       REF_PROBE_S / recent[len(recent) // 2])

    def _tick(self, signum, frame):
        self._measure()

    def now(self) -> float:
        acc, mark, rate = self._state
        return acc + (self._clock() - mark) * rate

    def speed(self) -> float:
        """Median reference seconds per wall second over the probes so far."""
        return REF_PROBE_S / median(self.samples)

    def start(self):
        probe()     # the first run in a fresh process is cold; not counted
        self._state = (0.0, self._clock(), 1.0)
        self._measure()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
