"""The host's speed, sampled on a timer through a run.

On a shared host the same pass takes up to 40% longer from one minute to
the next (measured: ten seeds of ``verify`` read 1.79 s to 2.96 s), which is
more than any bound a regression check can use.  So while a run sets up and
runs its passes, a timer interrupts it every ``INTERVAL_S`` and times a
short reference loop: ``naive_homs`` of the benchmark's own code over fixed
pairs from the frozen corpus.  No change to the library moves that loop;
only the host does.  The sampling time is taken out of every interval the
run measures, and :meth:`HostSpeed.scale` turns measured seconds into
seconds at the nominal speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

from inputs import naive_homs

INTERVAL_S = 0.25

# mean reference-sample time on the host where the benchmark was defined
# (2-vCPU Intel Xeon VM at 2.0 GHz, CPython 3.11.7)
NOMINAL_S = 0.025


def reference_pairs(tables: dict[int, list[tuple[int, ...]]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every 16th size-3 model paired with one far from it in corpus order."""
    size3 = tables[3]
    return [(size3[i], size3[i * 7919 % len(size3)]) for i in range(0, len(size3), 16)]


class HostSpeed:
    """Reference samples, and the wall and CPU time spent taking them."""

    def __init__(self, pairs) -> None:
        self.pairs = pairs
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self, *_signal_args) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        for a, b in self.pairs:
            naive_homs(3, a, 3, b)
        wall = time.perf_counter() - w0
        self.samples.append(wall)
        self.spent_wall += wall
        self.spent_cpu += time.process_time() - c0

    def clock(self) -> tuple[float, float]:
        """Wall and CPU clocks that stand still while a sample is taken."""
        return time.perf_counter() - self.spent_wall, time.process_time() - self.spent_cpu

    @contextmanager
    def running(self):
        """Sample at the start, every ``INTERVAL_S`` and at the end."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the nominal speed.

        The mean, not the median: samples are evenly spaced in time, so their
        mean follows the host's slowness the way a pass's duration adds it up.
        """
        return NOMINAL_S / statistics.mean(self.samples)
