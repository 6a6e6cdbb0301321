"""Command-line entry point for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table2_fig7_threshold_sweep --scale ci
    python -m repro.experiments run all --scale paper --output-dir results/
    python -m repro.experiments serve-bench --max-batch-size 32 --repeats 4
    python -m repro.experiments load-bench --policy reject --offered-x 2.0
    python -m repro.experiments infer-bench --batch-size 1 --batch-size 64
    python -m repro.experiments dist-bench --workers 1 --workers 4 --offered-x 2.0
    python -m repro.experiments dist-bench --backend thread --workers 2
    python -m repro.experiments parallel-bench --workers 1 --workers 4
    python -m repro.experiments elastic-bench --peak-workers 3
    python -m repro.experiments chaos-bench --num-requests 160
    python -m repro.experiments slo-bench --num-requests 160
    python -m repro.experiments slo-bench --wallclock-smoke
    python -m repro.experiments sweep-bench --timing-rounds 3

Each experiment prints its table (the same rows the paper reports) and can
optionally write it to a text file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import EXPERIMENT_REGISTRY
from .runner import ci_scale, paper_scale

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DDNN paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Options every experiment command takes, and the cascade benches' exit
    # threshold (sweep-bench declares its own repeatable --threshold).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale",
        choices=("ci", "paper"),
        default="ci",
        help="experiment scale: 'ci' (fast, default) or 'paper' (680/171 samples, 100 epochs)",
    )
    common.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory to write each result table as <name>.txt",
    )
    cascade = argparse.ArgumentParser(add_help=False, parents=[common])
    cascade.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="local-exit entropy threshold used by the cascade",
    )

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser(
        "run", parents=[common], help="run one experiment (or 'all')"
    )
    run_parser.add_argument(
        "experiment",
        help="experiment id from 'list', or 'all'",
    )

    serve_parser = subparsers.add_parser(
        "serve-bench",
        parents=[cascade],
        help="benchmark online serving: dynamic micro-batching vs sequential",
    )
    serve_parser.add_argument(
        "--max-batch-size",
        type=int,
        action="append",
        dest="batch_sizes",
        default=None,
        help="micro-batch ceiling to measure (repeatable; default: 8, 32 and 64)",
    )
    serve_parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="passes over the test set forming the request stream",
    )

    load_parser = subparsers.add_parser(
        "load-bench",
        parents=[cascade],
        help="open-loop overload study: tail latency vs offered load per admission policy",
    )
    load_parser.add_argument(
        "--capacity",
        type=int,
        default=48,
        help="request-queue bound used by the admission policies",
    )
    load_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=16,
        help="micro-batch ceiling of the serving policy",
    )
    load_parser.add_argument(
        "--num-requests",
        type=int,
        default=400,
        help="arrivals per run (the divergence sweep uses n/2, n and 2n)",
    )
    load_parser.add_argument(
        "--offered-x",
        type=float,
        action="append",
        dest="load_multipliers",
        default=None,
        help="offered load as a multiple of capacity (repeatable; default: 0.5 1.0 2.0 4.0)",
    )
    load_parser.add_argument(
        "--policy",
        action="append",
        dest="policies",
        choices=("unbounded", "reject", "drop-oldest", "shed-local"),
        default=None,
        help="admission policy to study (repeatable; default: all four)",
    )
    load_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for the arrival processes",
    )
    load_parser.add_argument(
        "--eager",
        action="store_true",
        help="run the server's forwards on the eager path (default: compiled)",
    )

    dist_parser = subparsers.add_parser(
        "dist-bench",
        parents=[cascade],
        help="distributed serving fabric: p95 latency / offload fraction vs workers, bandwidth, threshold",
    )
    dist_parser.add_argument(
        "--workers",
        type=int,
        action="append",
        dest="worker_counts",
        default=None,
        help="workers per tier to measure (repeatable; default: 1, 2 and 4)",
    )
    dist_parser.add_argument(
        "--bandwidth-x",
        type=float,
        action="append",
        dest="bandwidth_scales",
        default=None,
        help="link-bandwidth scale factors to measure (repeatable; default: 0.5 and 0.25)",
    )
    dist_parser.add_argument(
        "--sweep-threshold",
        type=float,
        action="append",
        dest="threshold_sweep",
        default=None,
        help="extra exit thresholds to measure (repeatable; default: 0.5 and 0.95)",
    )
    dist_parser.add_argument(
        "--offered-x",
        type=float,
        default=1.5,
        help="offered load as a multiple of one device-tier worker's capacity",
    )
    dist_parser.add_argument(
        "--num-requests",
        type=int,
        default=240,
        help="open-loop arrivals per row",
    )
    dist_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=8,
        help="micro-batch ceiling of every tier's batching policy",
    )
    dist_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for the arrival processes",
    )
    dist_parser.add_argument(
        "--compiled",
        action="store_true",
        help="run tier forwards on per-worker compiled plans (default: eager)",
    )
    dist_parser.add_argument(
        "--backend",
        choices=("simulated", "thread"),
        default="simulated",
        help="worker-pool backend: deterministic simulated slots (default) or "
        "real thread-pool workers on wall-clock time (implies --compiled)",
    )
    dist_parser.add_argument(
        "--calibrate",
        action="store_true",
        help="use plan-timing-calibrated service models in the rows (machine-dependent)",
    )

    parallel_parser = subparsers.add_parser(
        "parallel-bench",
        parents=[cascade],
        help="wall-clock parallel serving: thread-pool worker scaling + backend equivalence",
    )
    parallel_parser.add_argument(
        "--workers",
        type=int,
        action="append",
        dest="worker_counts",
        default=None,
        help="thread worker counts to measure (repeatable; default: 1, 2 and 4)",
    )
    parallel_parser.add_argument(
        "--num-requests",
        type=int,
        default=96,
        help="batch-1 requests per scaling row",
    )
    parallel_parser.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="timed rounds per scaling row (fastest kept)",
    )

    elastic_parser = subparsers.add_parser(
        "elastic-bench",
        parents=[cascade],
        help="elastic tier plane: static-vs-elastic diurnal tails + mid-run repartition identity",
    )
    elastic_parser.add_argument(
        "--peak-workers",
        type=int,
        default=3,
        help="peak worker budget per tier (static-peak count, elastic max)",
    )
    elastic_parser.add_argument(
        "--num-requests",
        type=int,
        default=240,
        help="diurnal arrivals per configuration",
    )
    elastic_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=4,
        help="micro-batch ceiling of every tier's batching policy",
    )
    elastic_parser.add_argument(
        "--capacity",
        type=int,
        default=32,
        help="ingress queue bound used by the shed-local admission policy",
    )
    elastic_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the diurnal arrival process",
    )

    chaos_parser = subparsers.add_parser(
        "chaos-bench",
        parents=[cascade],
        help="runtime fault plane: one trace under link flaps / partition / worker crashes",
    )
    chaos_parser.add_argument(
        "--num-requests",
        type=int,
        default=160,
        help="Poisson arrivals served under every chaos scenario",
    )
    chaos_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=4,
        help="micro-batch ceiling of every tier's batching policy",
    )
    chaos_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the arrival process, chaos draws and retry jitter",
    )

    slo_parser = subparsers.add_parser(
        "slo-bench",
        parents=[cascade],
        help="end-to-end SLO plane: deadlines + hedged offloads vs the chaos scenarios",
    )
    slo_parser.add_argument(
        "--num-requests",
        type=int,
        default=160,
        help="Poisson arrivals served under every (mode, scenario) cell",
    )
    slo_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=4,
        help="micro-batch ceiling of every tier's batching policy",
    )
    slo_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the arrival process, chaos draws and retry jitter",
    )
    slo_parser.add_argument(
        "--wallclock-smoke",
        action="store_true",
        help="instead of the simulated table, run the thread-backend chaos + "
        "deadline smoke against a real wall clock",
    )

    infer_parser = subparsers.add_parser(
        "infer-bench",
        parents=[cascade],
        help="benchmark the compiled inference fast path against the eager forward",
    )
    infer_parser.add_argument(
        "--batch-size",
        type=int,
        action="append",
        dest="batch_sizes",
        default=None,
        help="batch size to measure (repeatable; default: 1, 8 and 64)",
    )
    infer_parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="passes over the test set forming the measured stream",
    )
    infer_parser.add_argument(
        "--timing-rounds",
        type=int,
        default=3,
        help="timed rounds per cell (fastest kept)",
    )
    infer_parser.add_argument(
        "--precision",
        choices=("float64", "float32", "bitpacked"),
        action="append",
        dest="precisions",
        default=None,
        help="compiled compute mode to measure (repeatable; default: all three)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep-bench",
        parents=[common],
        help="benchmark forward-once oracle threshold sweeps vs the per-threshold eager loop",
    )
    sweep_parser.add_argument(
        "--threshold",
        type=float,
        action="append",
        dest="thresholds",
        default=None,
        help="custom grid threshold (repeatable; default: Table II grid + 21-point calibration grid)",
    )
    sweep_parser.add_argument(
        "--timing-rounds",
        type=int,
        default=3,
        help="timed rounds per path (fastest kept)",
    )
    return parser


def _emit(result, output_dir: Optional[Path], *notes: str) -> int:
    """Print a result table and any note lines; optionally write ``<name>.txt``."""
    text = result.to_text()
    print(text)
    for note in notes:
        print(note)
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{result.name}.txt").write_text(text + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in EXPERIMENT_REGISTRY:
            print(name)
        return 0

    scale = paper_scale() if args.scale == "paper" else ci_scale()

    if args.command == "serve-bench":
        from .serving_benchmark import DEFAULT_BATCH_SIZES, run_serving_throughput

        batch_sizes = args.batch_sizes if args.batch_sizes else DEFAULT_BATCH_SIZES
        result = run_serving_throughput(
            scale,
            threshold=args.threshold,
            batch_sizes=batch_sizes,
            repeats=args.repeats,
        )
        return _emit(result, args.output_dir)

    if args.command == "load-bench":
        from .overload_study import (
            DEFAULT_LOAD_MULTIPLIERS,
            DEFAULT_POLICIES,
            run_overload_study,
        )

        result = run_overload_study(
            scale,
            threshold=args.threshold,
            capacity=args.capacity,
            max_batch_size=args.max_batch_size,
            load_multipliers=args.load_multipliers or DEFAULT_LOAD_MULTIPLIERS,
            policies=args.policies or DEFAULT_POLICIES,
            num_requests=args.num_requests,
            seed=args.seed,
            compiled=not args.eager,
        )
        return _emit(result, args.output_dir)

    if args.command == "dist-bench":
        from .distributed_serving import (
            DEFAULT_BANDWIDTH_SCALES,
            DEFAULT_THRESHOLD_SWEEP,
            DEFAULT_WORKER_COUNTS,
            run_distributed_serving,
        )

        result = run_distributed_serving(
            scale,
            threshold=args.threshold,
            worker_counts=args.worker_counts or DEFAULT_WORKER_COUNTS,
            bandwidth_scales=args.bandwidth_scales or DEFAULT_BANDWIDTH_SCALES,
            threshold_sweep=args.threshold_sweep or DEFAULT_THRESHOLD_SWEEP,
            offered_x=args.offered_x,
            num_requests=args.num_requests,
            max_batch_size=args.max_batch_size,
            seed=args.seed,
            compiled=args.compiled,
            calibrate=args.calibrate,
            backend=args.backend,
        )
        return _emit(
            result,
            args.output_dir,
            "plan-timing calibration: "
            f"overhead {result.metadata['measured_plan_batch_overhead_ms']:.3f} ms, "
            f"per-sample {result.metadata['measured_plan_per_sample_ms']:.3f} ms "
            f"({result.metadata['service_calibration']} rows)",
        )

    if args.command == "parallel-bench":
        from .parallel_serving import DEFAULT_PARALLEL_WORKER_COUNTS, run_parallel_serving

        result = run_parallel_serving(
            scale,
            threshold=args.threshold,
            worker_counts=args.worker_counts or DEFAULT_PARALLEL_WORKER_COUNTS,
            num_requests=args.num_requests,
            rounds=args.rounds,
        )
        return _emit(
            result,
            args.output_dir,
            f"cpu_count={result.metadata['cpu_count']}; wall-clock rows are "
            "machine-dependent (see metadata note)",
        )

    if args.command == "elastic-bench":
        from .elastic_serving import run_elastic_serving

        result = run_elastic_serving(
            scale,
            threshold=args.threshold,
            peak_workers=args.peak_workers,
            num_requests=args.num_requests,
            max_batch_size=args.max_batch_size,
            capacity=args.capacity,
            seed=args.seed,
        )
        return _emit(
            result,
            args.output_dir,
            f"elastic trajectory ({len(result.metadata['elastic_trajectory'])} "
            f"scale events): {result.metadata['elastic_trajectory']}",
        )

    if args.command == "chaos-bench":
        from .chaos_serving import run_chaos_serving

        result = run_chaos_serving(
            scale,
            threshold=args.threshold,
            num_requests=args.num_requests,
            max_batch_size=args.max_batch_size,
            seed=args.seed,
        )
        return _emit(result, args.output_dir, *_resilience_notes(result))

    if args.command == "slo-bench":
        from .slo_serving import run_slo_serving, run_wallclock_slo_smoke

        if args.wallclock_smoke:
            facts = run_wallclock_slo_smoke(
                scale, threshold=args.threshold, seed=args.seed
            )
            print(
                "wall-clock slo smoke (thread backend): "
                + ", ".join(f"{key}={value}" for key, value in sorted(facts.items()))
            )
            return 0
        result = run_slo_serving(
            scale,
            threshold=args.threshold,
            num_requests=args.num_requests,
            max_batch_size=args.max_batch_size,
            seed=args.seed,
        )
        return _emit(result, args.output_dir, *_resilience_notes(result))

    if args.command == "infer-bench":
        from .compiled_forward import DEFAULT_BATCH_SIZES as INFER_BATCH_SIZES
        from .compiled_forward import DEFAULT_PRECISIONS, run_compiled_forward

        result = run_compiled_forward(
            scale,
            threshold=args.threshold,
            batch_sizes=args.batch_sizes or INFER_BATCH_SIZES,
            repeats=args.repeats,
            timing_rounds=args.timing_rounds,
            precisions=args.precisions or DEFAULT_PRECISIONS,
        )
        notes = [
            f"reference speedup (batch {result.metadata['reference_batch_size']}): "
            f"{result.metadata['reference_speedup']:.2f}x, "
            f"max |logit diff| {result.metadata['max_abs_logit_diff']:.2e}"
        ]
        fp32_reference = result.metadata.get("fp32_reference_speedup")
        if fp32_reference is not None:
            notes.append(f"fp32 kernel reference speedup (batch 1): {fp32_reference:.2f}x")
        return _emit(result, args.output_dir, *notes)

    if args.command == "sweep-bench":
        from .sweep_fastpath import DEFAULT_SWEEP_GRIDS, run_sweep_fastpath

        grids = (
            (("custom", tuple(args.thresholds)),) if args.thresholds else DEFAULT_SWEEP_GRIDS
        )
        result = run_sweep_fastpath(scale, grids=grids, timing_rounds=args.timing_rounds)
        notes = []
        if "reference_speedup" in result.metadata:
            notes.append(
                f"reference speedup ({result.metadata.get('scale')} scale, Table II grid): "
                f"{result.metadata['reference_speedup']:.1f}x"
            )
        return _emit(result, args.output_dir, *notes)

    if args.experiment == "all":
        names: List[str] = list(EXPERIMENT_REGISTRY)
    elif args.experiment in EXPERIMENT_REGISTRY:
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment '{args.experiment}'; run 'list' to see the available ids"
        )
        return 2  # unreachable, parser.error raises SystemExit

    for name in names:
        # The blank note separates consecutive tables.
        _emit(EXPERIMENT_REGISTRY[name](scale), args.output_dir, "")
    return 0


def _resilience_notes(result) -> List[str]:
    """The chaos/SLO benches' per-cell resilience and breaker lines."""
    stats = result.metadata["resilience_stats"]
    breakers = result.metadata["breakers"]
    return [
        "resilience accounting: "
        + "; ".join(f"{cell}: {values}" for cell, values in stats.items()),
        "breakers: "
        + "; ".join(f"{cell}: {values or '-'}" for cell, values in breakers.items()),
    ]


if __name__ == "__main__":
    sys.exit(main())
