"""Pieces every workload shares: the result record, sizes and seeds."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Exit threshold used by every workload (the paper's headline setting).
THRESHOLD = 0.8
#: Workload seeds are offset so no seed regenerates the fixture's training
#: data (the ci-scale splits use data seed 7).
DATA_SEED_BASE = 10_000
#: Distinct samples the serving workloads draw their requests from.  The
#: catalogue is the same for every seed (the seed picks which samples are
#: requested and when), so accuracy and bytes compare across seeds.
POOL_SAMPLES = 512
#: Batch of the offline reference capture the serving checks compare with;
#: small, so the check's plan buffers do not set the run's peak memory.
CHECK_BATCH = 8


@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    #: metric name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Sample counts, percentiles used, digests and counters, for the record.
    details: Dict[str, object] = field(default_factory=dict)
    #: Raw per-item samples (latencies, step times), written to the record only.
    samples: Dict[str, List[float]] = field(default_factory=dict)


def device_profiles():
    from repro.datasets.mvmc import DEFAULT_DEVICE_PROFILES
    from repro.experiments.runner import ci_scale

    return DEFAULT_DEVICE_PROFILES[: ci_scale().num_devices]


def request_pool():
    """The catalogue of distinct multi-view samples requests are drawn from."""
    from repro.datasets.mvmc import generate_mvmc

    return generate_mvmc(POOL_SAMPLES, profiles=device_profiles(), seed=DATA_SEED_BASE - 1)


def peak_rss() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
