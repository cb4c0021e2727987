"""The host's pace, sampled while the benchmark times something.

The benchmark runs on a few cores of a shared host whose speed drifts:
identical builtin solves take from 3 to 7 seconds within minutes, in
phases that last from a second to minutes.  Timing alone then measures the
host.  So while an interval is timed, a SIGALRM timer interrupts it every TICK_S and
runs a fixed reference kernel (a short pure-Python loop with a few small
numpy dot products, the mix the solver's own loops have), and records how
long that took.  Each stretch of the interval between two kernel runs is
divided by the time of the kernel run that ends it, which gives the work
in host-independent units:

    reference seconds = sum over stretches of wall / kernel time * REF_KERNEL_S

The kernel's own time is in no stretch.  On a host that runs the kernel in
REF_KERNEL_S, reference seconds are wall seconds.  The kernel is the
benchmark's own code and does not depend on scvx, so a change that makes
scvx faster or slower moves the figure and a change of the host's speed
mostly does not.

Python runs a signal handler between bytecodes, so a tick that falls in a
long C call (a sparse factorization, say) is served when the call returns:
that stretch is longer, and is still measured at the pace sampled at its
end.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# the kernel's time on the host that defines the reference second
REF_KERNEL_S = 1e-4
TICK_S = 0.02

_V = np.arange(16.0)


def kernel() -> float:
    acc = 0.0
    for j in range(300):
        acc += j * 0.5
        if j % 10 == 0:
            acc += float(_V @ _V)
    return acc


class Pace:
    """Time the ``with`` block in wall and in reference seconds.

    After the block, ``wall_s`` and ``ref_s`` hold the two figures.
    """

    def __init__(self, tick: float = TICK_S):
        self.tick = tick
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._busy = False

    def _close_stretch(self, end: float):
        t0 = time.perf_counter()
        kernel()
        pace = time.perf_counter() - t0
        self.ref_s += (end - self._mark) / pace * REF_KERNEL_S
        self._mark = time.perf_counter()

    def _handler(self, signum, frame):
        if self._busy:  # a tick that arrives while the kernel runs
            return
        self._busy = True
        self._close_stretch(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._start = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start
        self._close_stretch(end)
        return False
