"""Online DDNN serving: clients stream samples, the cascade answers.

This example mirrors the paper's deployment story end to end:

1. train a small multi-exit DDNN on the synthetic MVMC dataset;
2. stand up a single inference server — a one-tier
   :class:`~repro.serving.fabric.DistributedServingFabric` whose worker runs
   the whole exit cascade — with dynamic micro-batching;
3. stream the test set through it as two independent camera-hub clients,
   one arrival every millisecond of simulated time;
4. show the served traffic — latency percentiles, batch sizes and how much
   traffic each exit absorbed — plus the per-client split.

Run with::

    PYTHONPATH=src python examples/online_serving.py
"""

from __future__ import annotations

from collections import Counter

from repro.core import DDNNTrainer, TrainingConfig, build_ddnn
from repro.datasets import DEFAULT_DEVICE_PROFILES, load_mvmc_splits
from repro.serving import BatchingPolicy, DistributedServingFabric


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

    server = DistributedServingFabric.single_tier(
        model,
        thresholds=0.8,
        batching=BatchingPolicy(max_batch_size=16, max_wait_s=0.001),
    )

    print("Streaming the test set from two clients...")
    clients = ("hub-east", "hub-west")
    for index in range(len(test_set)):
        server.submit(
            test_set.images[index],
            client_id=clients[index % len(clients)],
            target=int(test_set.labels[index]),
            at=0.001 * index,
        )
    responses = server.run_until_idle()

    report = server.report()
    batches = server.tiers[0].batches_dispatched
    print(f"\nServed {report.served} requests in {batches} micro-batches")
    print(f"  mean batch size  : {report.served / batches:8.1f}")
    print(f"  latency mean/p95 : {1e3 * report.mean_latency_s:6.2f} / {1e3 * report.p95_latency_s:.2f} ms")
    print(f"  accuracy         : {100.0 * (report.accuracy or 0.0):8.1f} %")
    print("  exit traffic split:")
    for name, fraction in report.exit_fractions.items():
        print(f"    {name:<6} {100.0 * fraction:5.1f} %")

    print("\nPer-client answers:")
    for client_id, count in sorted(Counter(r.client_id for r in responses).items()):
        print(f"  {client_id:<9} answered={count}")


if __name__ == "__main__":
    main()
