"""Overload-safe DDNN serving: open-loop load and admission control.

Where ``examples/online_serving.py`` shows the happy path (a drainable
request stream), this example shows the regime the paper's always-on end
devices actually live in — arrivals that do not care whether the server
keeps up:

1. train a small multi-exit DDNN on the synthetic MVMC dataset;
2. drive a single inference server (a one-tier
   :class:`~repro.serving.fabric.DistributedServingFabric`) with a seeded
   Poisson arrival process at 2x its serving capacity, on a simulated clock
   with a deterministic service-time model (latencies are exactly
   reproducible);
3. compare the unbounded FIFO baseline against a bounded queue under each
   admission policy (reject / drop-oldest / shed-to-local-exit).

Run with::

    PYTHONPATH=src python examples/overload_serving.py
"""

from __future__ import annotations

from repro.core import DDNNTrainer, TrainingConfig, build_ddnn
from repro.datasets import DEFAULT_DEVICE_PROFILES, load_mvmc_splits
from repro.serving import (
    BatchingPolicy,
    DistributedServingFabric,
    PoissonProcess,
    ServiceModel,
    admission_policy,
)


def main() -> None:
    num_devices = 4
    profiles = DEFAULT_DEVICE_PROFILES[:num_devices]
    train_set, test_set = load_mvmc_splits(
        train_samples=160, test_samples=60, profiles=profiles, seed=7
    )

    print("Training a small DDNN (4 devices)...")
    model = build_ddnn(
        num_devices=num_devices,
        device_filters=4,
        cloud_filters=8,
        cloud_conv_blocks=2,
        cloud_hidden_units=32,
        seed=1,
    )
    DDNNTrainer(model, TrainingConfig(epochs=10, batch_size=32, seed=0)).fit(train_set)
    model.eval()

    batching = BatchingPolicy(max_batch_size=16, max_wait_s=0.005)
    service = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
    capacity_rps = service.capacity_rps(batching.max_batch_size)
    offered_rps = 2.0 * capacity_rps
    print(
        f"\nServing capacity ~{capacity_rps:.0f} rps; "
        f"offering a Poisson stream at {offered_rps:.0f} rps (2x overload)"
    )

    print(f"\n{'policy':<12} {'served':>6} {'rej':>5} {'drop':>5} {'shed':>5} "
          f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8}")
    for policy_name in ("unbounded", "reject", "drop-oldest", "shed-local"):
        server = DistributedServingFabric.single_tier(
            model,
            thresholds=0.8,
            batching=batching,
            service_models=[service],
            capacity=None if policy_name == "unbounded" else 32,
            admission=None if policy_name == "unbounded" else admission_policy(policy_name),
        )
        everything = server.open_loop(
            PoissonProcess(offered_rps, seed=42),
            test_set.images,
            targets=test_set.labels,
            num_requests=500,
        )
        # Tails over the queued-and-served requests; shed answers are
        # immediate local-exit replies, counted in their own column.
        report = server.report([r for r in everything.responses if not r.shed])
        admission = server.admission_stats
        print(
            f"{policy_name:<12} {report.served:>6} {admission.rejected:>5} "
            f"{admission.dropped:>5} {admission.shed:>5} "
            f"{1e3 * report.p50_latency_s:>8.1f} {1e3 * report.p95_latency_s:>8.1f} "
            f"{1e3 * report.p99_latency_s:>8.1f}"
        )
    print("(unbounded keeps everything but its tail grows with run length; "
          "bounded policies pin the tail and surface the excess explicitly)")


if __name__ == "__main__":
    main()
