"""Open-loop load: arrival processes and the batch service-time model.

Closed-loop drivers (submit, wait, repeat) can never overload a server —
the arrival rate implicitly tracks the service rate, hiding exactly the
regime the paper's always-on sensor streams live in.  Open-loop studies
drive :meth:`~repro.serving.fabric.DistributedServingFabric.open_loop`
with arrivals from an externally-defined stochastic process that does not
care whether the fabric keeps up:

* an :class:`ArrivalProcess` (:class:`PoissonProcess`, bursty two-state
  :class:`BurstyProcess` (MMPP), :class:`DiurnalProcess`, or
  :class:`TraceReplay`) yields absolute arrival times from a seeded RNG;
* a :class:`ServiceModel` (affine in batch size: ``overhead + n * per_sample``)
  stands in for wall-clock compute, so simulated latency numbers are
  exactly reproducible and independent of the machine running the study.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..nn.tensor import no_grad

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "BurstyProcess",
    "DiurnalProcess",
    "TraceReplay",
    "ServiceModel",
]


class ArrivalProcess:
    """Base class: an iterable of monotonically increasing arrival times."""

    def times(self) -> Iterator[float]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[float]:
        return self.times()


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at ``rate_rps``."""

    def __init__(self, rate_rps: float, seed: int = 0, start: float = 0.0) -> None:
        if not rate_rps > 0.0:
            raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
        self.rate_rps = float(rate_rps)
        self.seed = int(seed)
        self.start = float(start)

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        now = self.start
        while True:
            now += rng.exponential(1.0 / self.rate_rps)
            yield now


class BurstyProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (MMPP-2).

    The process alternates between a ``base`` state emitting Poisson
    arrivals at ``base_rate_rps`` and a ``burst`` state emitting them at
    ``burst_rate_rps``; dwell times in each state are exponential with the
    given means.  This reproduces the bursty uplink traffic of clustered
    end devices (many cameras triggered by the same physical event) that a
    plain Poisson stream smooths away.
    """

    def __init__(
        self,
        base_rate_rps: float,
        burst_rate_rps: float,
        mean_base_dwell_s: float = 1.0,
        mean_burst_dwell_s: float = 0.25,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        for label, value in (
            ("base_rate_rps", base_rate_rps),
            ("burst_rate_rps", burst_rate_rps),
            ("mean_base_dwell_s", mean_base_dwell_s),
            ("mean_burst_dwell_s", mean_burst_dwell_s),
        ):
            if not value > 0.0:
                raise ValueError(f"{label} must be > 0, got {value}")
        self.base_rate_rps = float(base_rate_rps)
        self.burst_rate_rps = float(burst_rate_rps)
        self.mean_base_dwell_s = float(mean_base_dwell_s)
        self.mean_burst_dwell_s = float(mean_burst_dwell_s)
        self.seed = int(seed)
        self.start = float(start)

    def mean_rate_rps(self) -> float:
        """Long-run arrival rate (dwell-time-weighted state mix)."""
        total = self.mean_base_dwell_s + self.mean_burst_dwell_s
        return (
            self.base_rate_rps * self.mean_base_dwell_s
            + self.burst_rate_rps * self.mean_burst_dwell_s
        ) / total

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        now = self.start
        in_burst = False
        while True:
            rate = self.burst_rate_rps if in_burst else self.base_rate_rps
            dwell = self.mean_burst_dwell_s if in_burst else self.mean_base_dwell_s
            # Competing exponentials: next arrival vs next state switch.
            to_arrival = rng.exponential(1.0 / rate)
            to_switch = rng.exponential(dwell)
            if to_switch < to_arrival:
                now += to_switch
                in_burst = not in_burst
            else:
                now += to_arrival
                yield now


class DiurnalProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals on a sinusoidal day/night cycle.

    The instantaneous rate ramps smoothly between ``base_rate_rps``
    (trough) and ``peak_rate_rps`` (crest) with period ``period_s``,
    starting at the trough — the slow load swing an autoscaler is built
    for, as opposed to the second-scale bursts of :class:`BurstyProcess`.
    Arrivals are generated by thinning a homogeneous process at the peak
    rate, so the sequence is deterministic for a given seed.
    """

    def __init__(
        self,
        base_rate_rps: float,
        peak_rate_rps: float,
        period_s: float = 60.0,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        if not base_rate_rps > 0.0:
            raise ValueError(f"base_rate_rps must be > 0, got {base_rate_rps}")
        if peak_rate_rps < base_rate_rps:
            raise ValueError(
                f"peak_rate_rps must be >= base_rate_rps, got "
                f"{peak_rate_rps} < {base_rate_rps}"
            )
        if not period_s > 0.0:
            raise ValueError(f"period_s must be > 0, got {period_s}")
        self.base_rate_rps = float(base_rate_rps)
        self.peak_rate_rps = float(peak_rate_rps)
        self.period_s = float(period_s)
        self.seed = int(seed)
        self.start = float(start)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at absolute time ``t``."""
        mid = (self.base_rate_rps + self.peak_rate_rps) / 2.0
        amplitude = (self.peak_rate_rps - self.base_rate_rps) / 2.0
        phase = 2.0 * math.pi * (t - self.start) / self.period_s
        # -cos starts the cycle at the trough and crests at period/2.
        return mid - amplitude * math.cos(phase)

    def mean_rate_rps(self) -> float:
        """Long-run arrival rate (the sinusoid's midline)."""
        return (self.base_rate_rps + self.peak_rate_rps) / 2.0

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        now = self.start
        while True:
            # Thinning (Lewis & Shedler): candidates at the peak rate,
            # accepted with probability rate(t) / peak.
            now += rng.exponential(1.0 / self.peak_rate_rps)
            if rng.uniform() * self.peak_rate_rps <= self.rate_at(now):
                yield now


class TraceReplay(ArrivalProcess):
    """Replay an explicit (finite) list of absolute arrival times."""

    def __init__(self, arrival_times: Sequence[float]) -> None:
        times = [float(t) for t in arrival_times]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace arrival times must be non-decreasing")
        self.arrival_times = times

    def times(self) -> Iterator[float]:
        return iter(self.arrival_times)


@dataclass(frozen=True)
class ServiceModel:
    """Affine batch service-time model: ``overhead + n * per_sample``.

    The affine shape is what micro-batching exploits (amortising the fixed
    overhead over ``n`` samples) and is what the real NumPy forward pass
    exhibits; when machine-specific numbers are wanted, :meth:`measure`
    calibrates the two coefficients from wall-clock timings of a forward
    (the eager model or its compiled plan) and :meth:`from_plan_timings`
    from a compiled plan's per-op timings.
    """

    batch_overhead_s: float = 0.002
    per_sample_s: float = 0.001

    def __post_init__(self) -> None:
        if self.batch_overhead_s < 0.0:
            raise ValueError(f"batch_overhead_s must be >= 0, got {self.batch_overhead_s}")
        if not self.per_sample_s > 0.0:
            raise ValueError(f"per_sample_s must be > 0, got {self.per_sample_s}")

    def batch_time_s(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self.batch_overhead_s + batch_size * self.per_sample_s

    def capacity_rps(self, batch_size: int) -> float:
        """Sustainable service rate when batches fill to ``batch_size``."""
        return batch_size / self.batch_time_s(batch_size)

    @classmethod
    def _fit(cls, seconds_at, batch_size: int) -> "ServiceModel":
        """Fit the two coefficients to ``seconds_at(1)`` and ``seconds_at(batch_size)``."""
        if batch_size < 2:
            raise ValueError("batch_size must be >= 2 to fit two coefficients")
        t_one = seconds_at(1)
        t_full = seconds_at(batch_size)
        per_sample = max((t_full - t_one) / (batch_size - 1), 1e-9)
        overhead = max(t_one - per_sample, 0.0)
        return cls(batch_overhead_s=overhead, per_sample_s=per_sample)

    @classmethod
    def measure(
        cls,
        forward,
        views: np.ndarray,
        batch_size: int = 32,
        repeats: int = 3,
    ) -> "ServiceModel":
        """Calibrate from real wall-clock forwards at sizes 1 and ``batch_size``.

        ``forward`` is what one worker of a single-tier fabric runs per
        batch: the eager model (in eval mode) or its compiled plan.  Each
        call runs under ``no_grad``.
        """

        def seconds_at(n: int) -> float:
            batch = _calibration_batch(views, n)
            best = math.inf
            for _ in range(repeats):
                started = time.perf_counter()
                with no_grad():
                    forward(batch)
                best = min(best, time.perf_counter() - started)
            return best

        return cls._fit(seconds_at, batch_size)

    @classmethod
    def from_plan_timings(
        cls,
        plan,
        views: np.ndarray,
        batch_size: int = 32,
        repeats: int = 3,
    ) -> "ServiceModel":
        """Calibrate from a compiled plan's per-op timing hook.

        Instead of timing whole wall-clock forwards (:meth:`measure`), this
        enables :meth:`repro.compile.CompiledDDNN.enable_timing` on
        ``plan``, runs it at batch sizes 1 and ``batch_size``, and fits the
        affine model to the summed per-op times — pure kernel time, free of
        Python dispatch noise.  The per-op breakdown stays available on the
        plan afterwards (``plan.op_timings()``).
        """

        def seconds_at(n: int) -> float:
            batch = _calibration_batch(views, n)
            best = math.inf
            for _ in range(repeats):
                plan.reset_timing()
                plan(batch)
                best = min(best, plan.total_time_s)
            return best

        plan.enable_timing()
        try:
            return cls._fit(seconds_at, batch_size)
        finally:
            plan.disable_timing()


def _calibration_batch(views: np.ndarray, n: int) -> np.ndarray:
    """``n`` copies of one sample, or the first ``n`` samples of a stack."""
    views = np.asarray(views)
    return np.repeat(views[None], n, axis=0) if views.ndim == 4 else views[:n]
