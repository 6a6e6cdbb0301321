"""Forward-once evaluation: the ExitOracle logit cache end to end.

Demonstrates :class:`repro.core.oracle.ExitOracle`:

1. train a small DDNN;
2. capture the per-exit logits/entropies in ONE compiled forward pass;
3. replay staged routing from the cache and verify it is byte-identical
   to what the online one-tier serving fabric answers;
4. sweep a whole threshold grid (Table II style) in vectorized numpy and
   time it against the per-threshold eager loop it replaces; and
5. calibrate an exit-rate target with an exact entropy-CDF quantile
   lookup instead of a grid search.

Run with::

    python examples/forward_once_eval.py [--epochs 12] [--target-exit-rate 0.75]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import (
    DDNNConfig,
    DDNNTrainer,
    ExitOracle,
    StagedInferenceEngine,
    TrainingConfig,
    build_ddnn,
    threshold_for_exit_rate,
)
from repro.datasets import load_mvmc_splits
from repro.serving import BatchingPolicy, DistributedServingFabric

TABLE2_GRID = (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-samples", type=int, default=160)
    parser.add_argument("--test-samples", type=int, default=80)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--target-exit-rate", type=float, default=0.75)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    train_set, test_set = load_mvmc_splits(
        train_samples=args.train_samples, test_samples=args.test_samples, seed=args.seed
    )
    config = DDNNConfig(num_devices=train_set.num_devices, device_filters=4, seed=args.seed)
    model = build_ddnn(config)
    print(f"training ({args.epochs} epochs) ...")
    DDNNTrainer(model, TrainingConfig(epochs=args.epochs, seed=args.seed)).fit(train_set)

    # -- 1 forward pass, every answer ---------------------------------- #
    start = time.perf_counter()
    oracle = ExitOracle.capture(model, test_set)  # compiled by default
    capture_s = time.perf_counter() - start
    print(f"\ncaptured {oracle.num_samples} samples x {oracle.num_exits} exits "
          f"in one compiled forward ({capture_s * 1e3:.1f} ms)")

    # -- byte-identical replay ------------------------------------------ #
    server = DistributedServingFabric.single_tier(
        model, 0.8, compile=True, batching=BatchingPolicy(max_batch_size=64, max_wait_s=0.0)
    )
    served = server.serve_dataset(test_set)
    cached = oracle.route(0.8)
    assert np.array_equal([r.prediction for r in served], cached.predictions)
    assert np.array_equal([r.exit_index for r in served], cached.exit_indices)
    assert np.array_equal([r.entropy for r in served], cached.entropies)
    print("route(0.8) byte-identical to the one-tier serving fabric: OK")

    # -- whole grid, zero extra forwards -------------------------------- #
    start = time.perf_counter()
    table = oracle.sweep(TABLE2_GRID)
    sweep_s = time.perf_counter() - start
    start = time.perf_counter()
    for threshold in TABLE2_GRID:
        StagedInferenceEngine(model, float(threshold)).run(test_set)
    eager_s = time.perf_counter() - start
    print(f"\nTable II grid ({len(TABLE2_GRID)} thresholds):")
    print("  T      local%   overall%   bytes/sample")
    for point in table.points():
        print(f"  {point.threshold:.2f}   {100 * point.local_exit_fraction:6.2f}   "
              f"{100 * point.overall_accuracy:7.2f}   {point.communication_bytes:10.1f}")
    print(f"  oracle sweep {sweep_s * 1e3:.1f} ms vs eager loop {eager_s * 1e3:.1f} ms "
          f"({eager_s / max(sweep_s, 1e-9):.0f}x)")

    # -- exact exit-rate calibration ------------------------------------ #
    exact = oracle.quantile_threshold(args.target_exit_rate)
    achieved = float(oracle.exit_rate_cdf(exact)[0])
    grid_best = threshold_for_exit_rate(
        model, test_set, args.target_exit_rate, oracle=oracle
    ).best_threshold
    print(f"\nexit-rate calibration (target {args.target_exit_rate:.0%}):")
    print(f"  exact quantile threshold {exact:.4f} -> local exit rate {achieved:.1%}")
    print(f"  best grid threshold      {grid_best:.4f}")


if __name__ == "__main__":
    main()
