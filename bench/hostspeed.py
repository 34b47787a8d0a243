"""A gauge of the host's speed, sampled while a job runs.

On a shared VM the speed of a vCPU changes by up to 2x from one second to
the next and drifts over minutes, so a job's wall time tracks the host more
than the program.  While a job runs under a Gauge, a timer signal fires
every PERIOD_S seconds and its handler times one fixed snippet of exact
rational elimination in the interpreter, the kind of work the program does.
The job's time is then rescaled to the host speed at which the snippet takes
SNIPPET_S:

    rescaled = (wall - time spent in the handler) * SNIPPET_S / mean snippet time

The snippet is the benchmark's own code on fixed inputs, so a change to the
program does not change it.  It needs no numpy, so a set-up probe can start
the gauge before it imports anything.  On a 2-vCPU VM whose job wall times
varied by 11-19% (coefficient of variation over 15 runs of each job), the
rescaled times varied by 2.5-5%.  The same snippet run on the other vCPU
tracked this one's speed with a correlation of only 0.15, which is why the
gauge samples inside the job, on its own thread.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# A round figure for the snippet's time on the 2-vCPU VM the bounds were set
# on, where it took 1.3-2.1 ms as the host's speed changed.
SNIPPET_S = 0.002

# A fixed non-singular 6x6 rational matrix (determinant 701/72).
_ROWS = [[Fraction((i * i + 3 * j + 2 * i * j) % 7 - 3, 1 + (i + j) % 3) for j in range(6)]
         for i in range(6)]


def _eliminate(rows: list) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


class Gauge:
    """Samples the snippet's time every PERIOD_S seconds while entered."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_signal) -> None:
        # With the collector on, the snippet's allocations could set off a
        # collection of the program's heap inside the handler, and a program
        # with a larger heap would read as faster.  Disabled, the collection
        # falls due at the program's next allocation, as it would have.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(3):
                _eliminate(_ROWS)
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.handler_s = sum(self.samples)
        if not self.samples:  # shorter than one period: sample right after
            self._sample()

    def rescale(self, wall: float) -> float:
        return rescale(wall, self.handler_s, self.samples)


def rescale(wall: float, handler_s: float, samples: list) -> float:
    """Wall seconds measured while a gauge ran, less the time its handler
    took, at the host speed where the snippet takes SNIPPET_S."""
    return (wall - handler_s) * SNIPPET_S / statistics.fmean(samples)
