"""Compiled inference fast path: fused/folded forward plans for serving.

Demonstrates the :mod:`repro.compile` inference-plan compiler end to end:

1. train a small DDNN;
2. compile it (BatchNorm folding, conv/activation fusion, pre-packed
   binarized weights, a buffer arena reused across batches);
3. verify the numerical-equivalence guarantee against the eager path;
4. time eager vs compiled staged inference at serving batch sizes; and
5. serve the same traffic through a compiled single-tier serving fabric.

Run with::

    python examples/compiled_inference.py [--epochs 12] [--threshold 0.8]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.compile import compile_ddnn, verify_compiled
from repro.core import DDNNConfig, DDNNTrainer, StagedInferenceEngine, TrainingConfig, build_ddnn
from repro.datasets import load_mvmc_splits
from repro.serving import BatchingPolicy, DistributedServingFabric


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-samples", type=int, default=160)
    parser.add_argument("--test-samples", type=int, default=80)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--threshold", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    train_set, test_set = load_mvmc_splits(
        train_samples=args.train_samples, test_samples=args.test_samples, seed=args.seed
    )
    config = DDNNConfig(num_devices=train_set.num_devices, seed=args.seed)
    model = build_ddnn(config)
    print(f"Training a {config.scheme} DDNN for {args.epochs} epochs ...")
    DDNNTrainer(model, TrainingConfig(epochs=args.epochs, batch_size=32)).fit(train_set)

    print("Compiling the model into fused inference plans ...")
    compiled = compile_ddnn(model)
    diff = verify_compiled(model, compiled, test_set.images[:32])
    print(f"  equivalence check: max |logit diff| = {diff:.2e} (allclose at fp32 tolerance)")

    # -- eager vs compiled staged inference ------------------------------- #
    for batch_size in (1, 8, 64):
        timings = {}
        results = {}
        for compile_flag in (False, True):
            engine = StagedInferenceEngine(
                model, args.threshold, batch_size=batch_size, compile=compile_flag
            )
            engine.run(test_set)  # warm the plan/buffers
            started = time.perf_counter()
            results[compile_flag] = engine.run(test_set)
            timings[compile_flag] = time.perf_counter() - started
        assert np.array_equal(results[False].predictions, results[True].predictions)
        assert np.array_equal(results[False].exit_indices, results[True].exit_indices)
        print(
            f"  batch {batch_size:>2}: eager {1e3 * timings[False]:6.1f} ms, "
            f"compiled {1e3 * timings[True]:6.1f} ms "
            f"({timings[False] / timings[True]:.1f}x, identical routing)"
        )

    # -- compiled online serving ------------------------------------------ #
    server = DistributedServingFabric.single_tier(
        model,
        args.threshold,
        batching=BatchingPolicy(max_batch_size=32, max_wait_s=0.0),
        compile=True,
    )
    started = time.perf_counter()
    responses = server.serve_dataset(test_set)
    wall = time.perf_counter() - started
    report = server.report(responses)
    print(f"\nCompiled single-tier server answered {len(responses)} requests in {wall:.3f} s")
    print(f"  throughput: {len(responses) / wall:.0f} req/s, "
          f"local exits: {100 * report.exit_fractions.get('local', 0.0):.1f}%, "
          f"accuracy: {100 * report.accuracy:.1f}%")


if __name__ == "__main__":
    main()
