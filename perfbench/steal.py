"""Hypervisor steal during a run, and the samples it did not touch.

On a shared virtual machine the host sometimes runs other guests on this
guest's cores ("steal").  A thread waiting for a stolen core wakes late,
so wall-clock samples taken during steal measure the neighbours, not the
program: on a 2-core host a steal share of 15% tripled the thread
backend's median latency.  :class:`StealMonitor` samples the host's CPU
tick counters in the background, and :func:`least_stolen` keeps the
measured units (training steps, captures, rounds) whose interval saw no
more than ``STEAL_LIMIT`` steal, falling back to the least-stolen half.
Every result reports how many units were kept and the run's steal share.
"""

from __future__ import annotations

import bisect
import threading
import time
from pathlib import Path
from typing import List, Sequence, Tuple

#: Units whose interval lost more than this share of host ticks to steal
#: are not used while enough cleaner units exist.
STEAL_LIMIT = 0.005
#: Steal is read over at least this span around a unit (ticks are 10 ms).
MIN_SPAN_S = 0.5
SAMPLE_PERIOD_S = 0.05


def _read() -> Tuple[int, int]:
    """``(steal ticks, all ticks)`` of the host, or ``(0, 0)`` off Linux."""
    try:
        with Path("/proc/stat").open() as stat:
            fields = [int(value) for value in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


class StealMonitor:
    """Background sampler of host steal; use as a context manager."""

    def __init__(self, period_s: float = SAMPLE_PERIOD_S) -> None:
        self.period_s = period_s
        self.times: List[float] = []
        self.steal: List[int] = []
        self.total: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-steal", daemon=True)

    def _sample(self) -> None:
        steal, total = _read()
        self.times.append(time.perf_counter())
        self.steal.append(steal)
        self.total.append(total)

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def __enter__(self) -> "StealMonitor":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sample()

    def share(self, start: float, end: float) -> float:
        """Steal share of host ticks over ``[start, end]`` (widened to ``MIN_SPAN_S``)."""
        if end - start < MIN_SPAN_S:
            middle = (start + end) / 2.0
            start, end = middle - MIN_SPAN_S / 2.0, middle + MIN_SPAN_S / 2.0
        times = list(self.times)
        if len(times) < 2:
            return 0.0
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = min(bisect.bisect_left(times, end), len(times) - 1)
        ticks = self.total[last] - self.total[first]
        return (self.steal[last] - self.steal[first]) / ticks if ticks > 0 else 0.0


def least_stolen(
    values: Sequence, intervals: Sequence[Tuple[float, float]], monitor: StealMonitor
) -> Tuple[list, List[float]]:
    """Values whose interval saw at most ``STEAL_LIMIT`` steal.

    When fewer than half qualify, the least-stolen half is kept instead, so
    a run under steal from start to end still reports (inflated) numbers.
    Returns ``(kept values, steal share of every unit)``.
    """
    shares = [monitor.share(start, end) for start, end in intervals]
    clean = [value for value, share in zip(values, shares) if share <= STEAL_LIMIT]
    half = (len(values) + 1) // 2
    if len(clean) >= half:
        return clean, shares
    order = sorted(range(len(values)), key=lambda index: shares[index])
    return [values[index] for index in sorted(order[:half])], shares
