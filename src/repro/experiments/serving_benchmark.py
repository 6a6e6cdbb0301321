"""Experiment S1 — online serving throughput under dynamic micro-batching.

The paper's deployment serves a continuous stream of requests from end
devices; the win of the exit cascade is throughput and latency under load.
This experiment measures a single inference server — a one-tier
:class:`~repro.serving.fabric.DistributedServingFabric` whose worker runs the
whole cascade — draining the MVMC test traffic in several modes:

* ``sequential`` — batch-size-1 serving (the naive request-at-a-time
  baseline);
* ``dynamic-N`` — micro-batching with ``max_batch_size = N``.

Each mode is measured on both forward paths — ``eager`` (the autograd
Tensor stack) and ``compiled`` (the :mod:`repro.compile` fused inference
plans) — so the table shows the batching win *and* the end-to-end compiled
win.  For each row it reports wall time, requests/second, the speedup over
that path's sequential baseline, service latency percentiles and the
per-exit traffic split.  Latencies are submit-to-answer times on the
fabric's simulated clock, where each batch occupies the worker for its
measured forward time.  Accuracy is also reported as a guard: neither
batching nor compilation may change a single prediction (the cascade is
numerically batch-size invariant and the compiled path routing-identical).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..serving import BatchingPolicy, DistributedServingFabric
from .results import ExperimentResult
from .runner import ExperimentScale, default_scale, get_dataset, get_trained_ddnn

__all__ = ["DEFAULT_BATCH_SIZES", "DEFAULT_PATHS", "run_serving_throughput"]

#: Micro-batch ceilings measured against the sequential baseline.
DEFAULT_BATCH_SIZES = (8, 32, 64)

#: Forward paths measured for every serving mode.
DEFAULT_PATHS = ("eager", "compiled")


def run_serving_throughput(
    scale: Optional[ExperimentScale] = None,
    threshold: float = 0.8,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    repeats: int = 2,
    timing_rounds: int = 3,
    paths: Sequence[str] = DEFAULT_PATHS,
) -> ExperimentResult:
    """Benchmark sequential vs dynamically-batched online serving.

    ``repeats`` controls how many passes over the test set form the request
    stream, so the measurement window is long enough to be stable at CI
    scale.  Each mode is drained ``timing_rounds`` times and the fastest
    round is reported, which suppresses scheduler noise in the ratio.
    ``paths`` selects the forward paths; eager rows come first so existing
    consumers of the table keep their row ordering.
    """
    scale = scale if scale is not None else default_scale()
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if timing_rounds < 1:
        raise ValueError("timing_rounds must be at least 1")
    for path in paths:
        if path not in ("eager", "compiled"):
            raise ValueError(f"unknown forward path '{path}'")
    model, _ = get_trained_ddnn(scale)
    _, test_set = get_dataset(scale)

    result = ExperimentResult(
        name="serving_throughput",
        paper_reference="Serving (Sec. III-F online)",
        columns=[
            "path",
            "mode",
            "max_batch_size",
            "requests",
            "wall_s",
            "throughput_rps",
            "speedup_vs_sequential",
            "mean_latency_ms",
            "p95_latency_ms",
            "mean_batch",
            "local_exit_pct",
            "accuracy_pct",
        ],
        metadata={
            "scale": scale.name,
            "threshold": threshold,
            "repeats": repeats,
            "timing_rounds": timing_rounds,
            "test_samples": len(test_set),
            "paths": tuple(paths),
        },
    )

    policies = [("sequential", BatchingPolicy.sequential())]
    for size in batch_sizes:
        policies.append((f"dynamic-{size}", BatchingPolicy(max_batch_size=size, max_wait_s=0.0)))

    baseline_predictions: Optional[np.ndarray] = None
    best_throughput = {path: 0.0 for path in paths}
    for path in paths:
        sequential_throughput: Optional[float] = None
        for mode, policy in policies:
            # One server per mode, reused across timing rounds so its worker
            # plan stays warm; each round drains a fresh request stream.
            fabric = DistributedServingFabric.single_tier(
                model, threshold, batching=policy, compile=(path == "compiled")
            )
            wall = float("inf")
            for _ in range(timing_rounds):
                round_ids = [
                    fabric.submit_many(
                        list(test_set.images),
                        client_id="bench",
                        targets=[int(label) for label in test_set.labels],
                    )
                    for _ in range(repeats)
                ]
                started = time.perf_counter()
                fabric.run_until_idle(drain=True)
                wall = min(wall, time.perf_counter() - started)
            responses = sorted(
                (r for r in fabric.responses if r.request_id >= round_ids[0][0]),
                key=lambda response: response.request_id,
            )
            predictions = np.array([response.prediction for response in responses])
            if baseline_predictions is None:
                baseline_predictions = predictions
            elif not np.array_equal(predictions, baseline_predictions):
                raise AssertionError(
                    f"{path} mode {mode} changed predictions — serving must be "
                    "batch-size invariant and compiled-path identical"
                )

            throughput = len(responses) / wall if wall > 0 else float("inf")
            if sequential_throughput is None:
                sequential_throughput = throughput
            best_throughput[path] = max(best_throughput[path], throughput)
            report = fabric.report(responses)
            tier = fabric.tiers[0]
            latencies = np.array([response.latency_s for response in responses])
            targets = np.array([response.target for response in responses])
            result.add_row(
                path=path,
                mode=mode,
                max_batch_size=policy.max_batch_size,
                requests=len(responses),
                wall_s=wall,
                throughput_rps=throughput,
                speedup_vs_sequential=throughput / sequential_throughput,
                mean_latency_ms=1e3 * float(latencies.mean()),
                p95_latency_ms=1e3 * float(np.percentile(latencies, 95)),
                mean_batch=tier.samples_processed / tier.batches_dispatched,
                local_exit_pct=100.0 * report.exit_fractions.get("local", 0.0),
                accuracy_pct=100.0 * float(np.mean(predictions == targets)),
            )
    if "eager" in best_throughput and "compiled" in best_throughput and best_throughput["eager"]:
        result.metadata["compiled_vs_eager_best"] = (
            best_throughput["compiled"] / best_throughput["eager"]
        )
    return result
