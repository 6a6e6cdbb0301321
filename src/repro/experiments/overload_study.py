"""Experiment S2 — tail latency under open-loop overload with admission control.

The serving-throughput experiment (S1) measures a *closed* system: the
driver submits a fixed backlog and drains it, so the server can never fall
behind.  The paper's end devices are the opposite — an **open-loop** stream
that keeps arriving whether or not the serving tier keeps up.  This study
drives a single inference server — a one-tier
:class:`~repro.serving.fabric.DistributedServingFabric` whose worker runs
the whole cascade — with a seeded Poisson arrival process
(:meth:`~repro.serving.fabric.DistributedServingFabric.open_loop`) on a
simulated clock and an affine service-time model (deterministic,
machine-independent latencies; real model predictions), and sweeps offered
load against serving capacity:

* ``unbounded`` — today's default FIFO queue: every request is eventually
  served, but past saturation the backlog (and therefore p95/p99 latency)
  grows without bound — shown directly by the run-length sweep rows;
* ``reject`` / ``drop-oldest`` / ``shed-local`` — a bounded queue with each
  admission policy: tail latency stays pinned under the configured bound
  while the reject/drop/shed rate absorbs the excess load.

Rows report p50/p95/p99 latency over the queued-and-served requests (shed
requests are answered at once from the local exit and counted apart),
admission rates, and the analytic latency bound implied by the queue
capacity (``p95_bound_ms``); the benchmark harness records the table as
``benchmarks/results/overload_tail_latency.txt``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from ..compile.cache import compiled_plan_for
from ..serving import (
    BatchingPolicy,
    DistributedServingFabric,
    PoissonProcess,
    ServiceModel,
    admission_policy,
)
from .results import ExperimentResult
from .runner import ExperimentScale, default_scale, get_dataset, get_trained_ddnn

__all__ = [
    "DEFAULT_LOAD_MULTIPLIERS",
    "DEFAULT_POLICIES",
    "run_overload_study",
    "queue_latency_bound_s",
]

#: Offered load as multiples of the measured serving capacity.
DEFAULT_LOAD_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)

#: "unbounded" is the no-admission baseline; the rest are bounded-queue policies.
DEFAULT_POLICIES = ("unbounded", "reject", "drop-oldest", "shed-local")


def queue_latency_bound_s(
    capacity: int, policy: BatchingPolicy, service_model: ServiceModel
) -> float:
    """Worst-case sojourn time a bounded queue can impose on an admitted request.

    An admitted request finds at most ``capacity - 1`` requests ahead of it;
    they drain in at most ``ceil(capacity / B)`` full batches, plus one
    batch the worker may already be busy with, plus the batching policy's
    ``max_wait_s`` hold.
    """
    batches = math.ceil(capacity / policy.max_batch_size) + 1
    return batches * service_model.batch_time_s(policy.max_batch_size) + policy.max_wait_s


def _run_one(
    model,
    test_set,
    threshold: float,
    policy_name: str,
    batching: BatchingPolicy,
    service_model: ServiceModel,
    capacity: int,
    offered_rps: float,
    num_requests: int,
    seed: int,
    compiled: bool = False,
) -> Dict[str, float]:
    """One open-loop run: admission rates, and latency tails over the
    queued-and-served requests (shed answers are counted apart)."""
    fabric = DistributedServingFabric.single_tier(
        model,
        threshold,
        batching=batching,
        compile=compiled,
        service_models=[service_model],
        capacity=None if policy_name == "unbounded" else capacity,
        admission=None if policy_name == "unbounded" else admission_policy(policy_name),
    )
    report = fabric.open_loop(
        PoissonProcess(offered_rps, seed=seed),
        test_set.images,
        targets=test_set.labels,
        num_requests=num_requests,
    )
    served = fabric.report([response for response in report.responses if not response.shed])
    admission = fabric.admission_stats
    return {
        "served": served.served,
        "reject_pct": 100.0 * admission.rejected / fabric.offered,
        "drop_pct": 100.0 * admission.dropped / fabric.offered,
        "shed_pct": 100.0 * admission.shed / fabric.offered,
        "p50_ms": 1e3 * served.p50_latency_s,
        "p95_ms": 1e3 * served.p95_latency_s,
        "p99_ms": 1e3 * served.p99_latency_s,
    }


def run_overload_study(
    scale: Optional[ExperimentScale] = None,
    threshold: float = 0.8,
    capacity: int = 48,
    max_batch_size: int = 16,
    max_wait_s: float = 0.005,
    load_multipliers: Sequence[float] = DEFAULT_LOAD_MULTIPLIERS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    num_requests: int = 400,
    growth_lengths: Optional[Tuple[int, ...]] = None,
    service_model: Optional[ServiceModel] = None,
    seed: int = 0,
    compiled: bool = True,
) -> ExperimentResult:
    """Sweep offered load x admission policy; add a run-length sweep for the
    unbounded baseline at 2x capacity (the divergence demonstration).

    ``growth_lengths`` defaults to ``(num_requests // 2, num_requests,
    2 * num_requests)`` so one knob scales the whole study (the CI smoke
    job runs it tiny).

    ``compiled`` selects the forward path the server's real inference runs
    on.  The tabulated latencies come from the deterministic affine
    ``service_model`` either way (machine-independent rows); when compiled,
    the metadata additionally records a *measured* eager vs compiled
    service-time calibration so the end-to-end capacity lift of the
    compiled path is on the record.
    """
    scale = scale if scale is not None else default_scale()
    if num_requests < 2:
        raise ValueError("num_requests must be >= 2")
    if growth_lengths is None:
        growth_lengths = (max(num_requests // 2, 2), num_requests, 2 * num_requests)
    service_model = service_model if service_model is not None else ServiceModel()
    batching = BatchingPolicy(max_batch_size=max_batch_size, max_wait_s=max_wait_s)
    capacity_rps = service_model.capacity_rps(max_batch_size)
    bound_s = queue_latency_bound_s(capacity, batching, service_model)

    model, _ = get_trained_ddnn(scale)
    _, test_set = get_dataset(scale)

    calibration = {}
    if compiled:
        # Real wall-clock calibration of both forward paths on this machine:
        # the end-to-end capacity lift the compiled path buys the server.
        calibration_batch = max(2, min(32, len(test_set)))
        model.eval()
        eager_model = ServiceModel.measure(
            model, test_set.images[0], batch_size=calibration_batch
        )
        compiled_model = ServiceModel.measure(
            compiled_plan_for(model), test_set.images[0], batch_size=calibration_batch
        )
        calibration = {
            "measured_eager_batch_ms": 1e3 * eager_model.batch_time_s(max_batch_size),
            "measured_compiled_batch_ms": 1e3 * compiled_model.batch_time_s(max_batch_size),
            "measured_capacity_lift": (
                compiled_model.capacity_rps(max_batch_size)
                / eager_model.capacity_rps(max_batch_size)
            ),
        }

    reference = "Overload study (open-loop serving)"
    if calibration:
        # Rows below use the deterministic simulated service model; the real
        # measured win of the compiled forward goes on the record here.
        reference += (
            f" — compiled forward, measured capacity lift "
            f"{calibration['measured_capacity_lift']:.1f}x"
        )
    result = ExperimentResult(
        name="overload_tail_latency",
        paper_reference=reference,
        columns=[
            "policy",
            "offered_x",
            "offered_rps",
            "requests",
            "served",
            "reject_pct",
            "drop_pct",
            "shed_pct",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "p95_bound_ms",
        ],
        metadata={
            "scale": scale.name,
            "threshold": threshold,
            "capacity": capacity,
            "max_batch_size": max_batch_size,
            "max_wait_s": max_wait_s,
            "service_batch_overhead_s": service_model.batch_overhead_s,
            "service_per_sample_s": service_model.per_sample_s,
            "capacity_rps": capacity_rps,
            "num_requests": num_requests,
            "growth_lengths": tuple(growth_lengths),
            "seed": seed,
            "forward_path": "compiled" if compiled else "eager",
            **calibration,
        },
    )

    def _add_row(policy_name: str, multiplier: float, requests: int, cells) -> None:
        result.add_row(
            policy=policy_name,
            offered_x=multiplier,
            offered_rps=multiplier * capacity_rps,
            requests=requests,
            **cells,
            p95_bound_ms=float("inf") if policy_name == "unbounded" else 1e3 * bound_s,
        )

    for policy_name in policies:
        for multiplier_index, multiplier in enumerate(load_multipliers):
            cells = _run_one(
                model,
                test_set,
                threshold,
                policy_name,
                batching,
                service_model,
                capacity,
                offered_rps=multiplier * capacity_rps,
                num_requests=num_requests,
                seed=seed + multiplier_index,
                compiled=compiled,
            )
            _add_row(policy_name, multiplier, num_requests, cells)

    # Divergence demonstration: the unbounded baseline at 2x capacity,
    # re-run with growing run lengths.  Bounded policies' p95 is flat in run
    # length (pinned by the capacity bound above); the unbounded p95 scales
    # with it.  Same arrival seed for every length, so the shorter runs are
    # prefixes of the longer ones.
    for length in growth_lengths:
        cells = _run_one(
            model,
            test_set,
            threshold,
            "unbounded",
            batching,
            service_model,
            capacity,
            offered_rps=2.0 * capacity_rps,
            num_requests=length,
            seed=seed + 1000,
            compiled=compiled,
        )
        _add_row("unbounded", 2.0, length, cells)
    return result
