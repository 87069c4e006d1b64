"""Host-speed probe: a fixed kernel timed along a run, to rescale the run's times.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within seconds as other guests load the host, and process CPU time
drifts with it.  So a fixed pure-Python kernel, which does not depend on the
program, is timed every ``INTERVAL_S`` along a run.  An interval of program
time is then reported at the reference speed: multiplied by ``REFERENCE_S``
over the kernel time of the probes around it.  That is the time it would
take on a host where the kernel takes exactly ``REFERENCE_S``.  A change to
the program moves the figure; a change of host speed slows the program and
the kernel alike and cancels.

Only the standard library is imported, so that a fresh interpreter can time
the kernel before it imports the program.
"""

from __future__ import annotations

import math
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import process_time

REFERENCE_S = 1e-3  # kernel time on the reference host
INTERVAL_S = 0.01  # wall time between probes
SMOOTH = 21  # probes in the rolling median, about 0.2 s of wall time
KERNEL_STEPS = 4000  # about 0.6-0.9 ms of CPU on the host that defined the benchmark


def kernel() -> float:
    """Scalar float arithmetic in the interpreter, like most of the program's work."""
    total = 0.0
    for i in range(KERNEL_STEPS):
        total += math.exp(-i * 1e-3) * (i % 7)
    return total


def time_kernel() -> float:
    """CPU seconds one kernel call takes."""
    c0 = process_time()
    kernel()
    return process_time() - c0


def at_reference(seconds: float, kernel_times: list[float]) -> float:
    """``seconds`` at the reference speed, given kernel times taken around them (median)."""
    return seconds * REFERENCE_S / statistics.median(kernel_times)


class SpeedProbe:
    """Kernel timings along one run, on a clock that excludes them.

    Inside ``with probe:`` an interval timer (``SIGALRM``) times the kernel
    every ``interval_s`` of wall time, wherever the program is, so that the
    probes follow the host's speed evenly through every operation and need
    no hook in the program.  A CPU-time timer would do as well, but while one
    is armed Linux reads the process CPU clock only to the scheduler tick.
    ``clock()`` is the process CPU time spent outside the probe; ``scaled``
    converts intervals of it to the reference speed.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.spent = 0.0
        self.at: list[float] = []  # clock() when each probe ran
        self.took: list[float] = []  # CPU seconds of each probe
        self._sampling = False
        self._previous_handler = None

    def sample(self) -> None:
        if self._sampling:
            return
        self._sampling = True
        c0 = process_time()
        kernel()
        took = process_time() - c0
        self.at.append(c0 - self.spent)
        self.took.append(took)
        self.spent += took
        self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def clock(self) -> float:
        while True:  # retry when a probe ran while the clock was read
            spent = self.spent
            now = process_time()
            if self.spent == spent:
                return now - spent

    def scaled(self, intervals) -> array:
        """Each (start, end) pair of ``clock()`` as seconds at the reference speed.

        The kernel time for an interval is the mean, over the probes inside
        it and the nearest one on either side, of the rolling median of
        ``SMOOTH`` probes around each.

        Use it after leaving the ``with`` block, which takes a last probe, so
        that every interval has a probe on both sides.
        """
        # a rolling median over SMOOTH probes, so that one odd probe does not
        # rescale the operations next to it
        half = SMOOTH // 2
        smooth = [
            statistics.median(self.took[max(i - half, 0) : i + half + 1]) for i in range(len(self.took))
        ]
        cumulative = [0.0, *accumulate(smooth)]
        last = len(self.at) - 1
        out = array("d")
        for start, end in intervals:
            lo = max(bisect_right(self.at, start) - 1, 0)
            hi = min(bisect_left(self.at, end), last)
            mean = (cumulative[hi + 1] - cumulative[lo]) / (hi - lo + 1)
            out.append((end - start) * REFERENCE_S / mean)
        return out
