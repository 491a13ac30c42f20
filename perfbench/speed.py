"""Host speed sampled during a timed call, to report times at a fixed speed.

The shared VM the benchmark runs on changes speed by up to 2x, in phases
of a few seconds to many minutes, with the load of other tenants
(README, "Noise").  A phase can outlast a whole run, so no statistic over
a run's operations removes it.  Instead, while the timed call runs, a
``SIGALRM`` timer interrupts it every :data:`PERIOD_S` seconds and times
a fixed pure-Python probe in the same thread, on the same core.  The
probe's time tracks the host's speed at that moment.

:meth:`SpeedSampler.factor` turns the call's wall time into *reference
seconds*: each slice of the call between two probes is scaled by
:data:`PROBE_NOMINAL_S` over the probes' time around it, and the probes'
own time is left out.  On a steady host this is the wall time times a
constant; a change that makes the program 20% slower makes it 20%
larger whatever phase the host is in.  The probe is the benchmark's own
code and calls nothing in the package, so no change to the package can
move it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between probes during a timed call.
PERIOD_S = 0.1

#: Probes whose median gives the speed of the slices between them.
WINDOW = 5

#: The probe's time on the VM the benchmark was sized on, in a fast
#: phase.  Reference seconds read like wall seconds in such a phase.
PROBE_NOMINAL_S = 0.00165


def probe() -> float:
    """Seconds of a fixed pure-Python kernel: a seeded G(n, 1/2) adjacency
    build, the kind of interpreter work that dominates the workloads."""
    collecting = gc.isenabled()
    gc.disable()
    begin = time.perf_counter()
    rng = random.Random(12345)
    n = 200
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u in range(n):
        row = adjacency[u]
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                row.append(v)
                adjacency[v].append(u)
    seconds = time.perf_counter() - begin
    if collecting:
        gc.enable()
    return seconds


def probe_median(repeats: int = 9) -> float:
    """Median probe time over a short burst (for set-up, which is too
    short to sample with the timer)."""
    return statistics.median(probe() for _ in range(repeats))


class SpeedSampler:
    """Probes before, during (on a timer) and after one timed call.

    Use as a context manager around the call; ``wall_s`` and ``cpu_s``
    then give the call's time with the probes' own time taken out, and
    :meth:`factor` scales them to reference seconds.
    """

    def __init__(self, timer: bool = True) -> None:
        #: Without the timer, only the probes just before and just after
        #: the call are taken (traced operations, whose span times must
        #: not include probes).
        self.timer = timer
        #: ``(start, duration)`` of every probe, in ``perf_counter`` time.
        self.samples: List[Tuple[float, float]] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def _sample(self, *_: object) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_: object) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall_end = time.perf_counter()
        cpu_end = time.process_time()
        if self.timer:
            signal.signal(signal.SIGALRM, self._previous)
        inside = sum(duration for _, duration in self.samples[1:])
        self.wall_s = wall_end - self._wall_start - inside
        self.cpu_s = cpu_end - self._cpu_start - inside
        self._sample()

    def factor(self) -> float:
        """Reference seconds per wall second of the call.

        Each slice of the call between two consecutive probes is
        weighted by its length and scaled by the nominal over the median
        of the :data:`WINDOW` probes around it, so one probe that an
        interrupt or a page fault slowed does not skew its slices.
        """
        durations = [duration for _, duration in self.samples]
        weighted = 0.0
        total = 0.0
        for index, ((start, duration), (next_start, _)) in enumerate(
            zip(self.samples, self.samples[1:])
        ):
            low = max(0, min(index - WINDOW // 2, len(durations) - WINDOW))
            speed = PROBE_NOMINAL_S / statistics.median(durations[low:low + WINDOW])
            length = max(next_start - (start + duration), 0.0)
            weighted += length * speed
            total += length
        if total > 0:
            return weighted / total
        return PROBE_NOMINAL_S / statistics.median(durations)
