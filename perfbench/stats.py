"""Summary statistics shared by every workload."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: A tail percentile is reported only where at least this many samples lie
#: beyond it, so the number rests on more than one or two outliers.
TAIL_SAMPLES = 10


def tail_percentile(count: int, ceiling: float = 99.0) -> float:
    """The highest percentile (at most ``ceiling``) with ``TAIL_SAMPLES`` beyond it."""
    if count <= TAIL_SAMPLES:
        return 50.0
    return min(ceiling, 100.0 * (1.0 - TAIL_SAMPLES / count))


def median_and_tail(
    values: Sequence[float], ceiling: float = 99.0, percentile: Optional[float] = None
) -> Tuple[float, float, float]:
    """``(median, tail value, tail percentile)`` of a non-empty sample.

    ``percentile`` fixes the tail percentile; by default it is the highest
    one the sample's own size supports.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ValueError("cannot summarise an empty sample")
    if percentile is None:
        percentile = tail_percentile(array.size, ceiling)
    return (
        float(np.percentile(array, 50)),
        float(np.percentile(array, percentile)),
        percentile,
    )


def median(values: Sequence[float]) -> float:
    if len(values) == 0:
        raise ValueError("cannot take the median of an empty sample")
    return float(np.median(np.asarray(values, dtype=np.float64)))
