"""Correction of the benchmark's timings for the processor's speed.

On a shared host the speed of the processor the benchmark runs on drifts
with the load of other tenants, by up to 1.7 times within a minute, and
every time measured drifts with it.  A Sampler measures that speed while
the benchmark runs: a SIGALRM every PERIOD_S seconds interrupts whatever
runs and times a fixed probe, Gaussian elimination of one 6 x 6 matrix of
`fractions.Fraction` in plain stdlib code (bocskit's own arithmetic, but
none of its code, so no change to bocskit moves it).

The corrected time of an interval is its elapsed time, less the probes
run inside it, times the mean of REFERENCE_S / probe time over the probes
in it: the seconds the interval would take on a processor on which the
probe takes REFERENCE_S.  The mean is taken over speeds, not times, so
that a probe that is itself interrupted barely counts.  An interval that
holds fewer than MIN_PROBES probes uses the MIN_PROBES latest probes at
its end.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
MIN_PROBES = 5
# The probe's time on the 2-vCPU Intel Xeon (2.0 GHz) virtual machine the
# baseline was measured on, at its usual speed.
REFERENCE_S = 0.001

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4)
            for j in range(6)] for i in range(6)]


def probe():
    """Reduced row echelon form of _MATRIX; about a millisecond."""
    work = [row[:] for row in _MATRIX]
    n = len(work)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            f = work[i][col]
            if i != col and f != 0:
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return work


class Sampler:
    """Times probe() every PERIOD_S seconds while active (a context
    manager).  mark() starts an interval and corrected() ends it."""

    def __init__(self):
        self.probes = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.probes.append(perf_counter() - t0)

    def __enter__(self):
        while len(self.probes) < MIN_PROBES:
            self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return perf_counter(), len(self.probes)

    def factor(self, mark):
        """Mean of REFERENCE_S / probe time over the probes since the
        mark, or over the MIN_PROBES latest."""
        window = self.probes[min(mark[1], len(self.probes) - MIN_PROBES):]
        return sum(REFERENCE_S / p for p in window) / len(window)

    def corrected(self, mark):
        """(seconds since the mark less the probes run since, the same
        corrected for the processor's speed)."""
        t0, first = mark
        net = perf_counter() - t0 - sum(self.probes[first:])
        return net, net * self.factor(mark)
