"""The machine's speed at a moment, read from a fixed loop.

The benchmark runs on shared virtual machines whose speed drifts by 20-40 %
within a minute, with no steal time visible to the guest: the same loop runs
at one speed for tens of seconds, then at another.  Two runs a minute apart
therefore differ by that much in wall time, whatever the program does.

To compare commits, each job's wall time is divided by the machine's
*slowdown* around it: the time of a fixed loop, sampled ten times a second
during the jobs, over ``REFERENCE_LOOP_S``.  The result, *reference seconds*, is the job's wall
time on the machine at its reference speed.  A change to ``groupavg`` cannot
change the loop, so it moves reference seconds exactly as it moves wall time.
Raw wall times are kept beside them in every result.

The loop mixes what the program spends its time on: interpreted Python, and
numpy calls on small arrays.  Each half alone tracked the machine less well.
numpy is imported on first use, so that importing this module does not
import it before the BLAS thread count is set.
"""

from __future__ import annotations

import signal
import statistics
import time

PYTHON_ITERATIONS = 10_000
NUMPY_ITERATIONS = 240
# The loop time that counts as slowdown 1: about its median in the fast spells
# of the 2-vCPU VM that defined the benchmark (Python 3.11, numpy 2.4, one
# BLAS thread).  Only the scale of reference seconds depends on it.
REFERENCE_LOOP_S = 0.0022
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.25


def loop_seconds() -> float:
    """Wall time of the fixed loop."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    t0 = time.perf_counter()
    acc = 0
    for i in range(PYTHON_ITERATIONS):
        acc += i * i % 7
    for _ in range(NUMPY_ITERATIONS):
        (a @ a).sum()
        np.abs(a).max()
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """Machine slowdown against the reference, from loop times taken together."""
    return statistics.median(samples) / REFERENCE_LOOP_S


class SpeedTrack:
    """Loop times sampled every ``SAMPLE_EVERY_S`` by a timer signal.

    The signal interrupts jobs too, so a job of several seconds is sampled
    while it runs.  ``spent`` adds up the time taken by sampling, which the
    caller subtracts from the job it interrupted.  Use as a context manager
    around the jobs.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time of sample, loop seconds)
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, loop_seconds()))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedTrack":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown over ``[start, end]``: the samples within ``WINDOW_S`` of it."""
        return slowdown([s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S])
