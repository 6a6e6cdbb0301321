"""Workload ``train_eval``: the reproduction loop every paper table runs.

A closed loop on one thread: joint training of the ci-scale six-device
MP-CC DDNN exactly as the experiment harness trains it (canonical ci-scale
synthetic MVMC train split, ci-scale epochs, fixed model and shuffle
seeds), then ``ExitOracle.capture`` at bulk batch over a seeded held-out
split plus a threshold sweep.  Training inputs do not depend on the seed,
so the loss curve and weights digest recorded with every result are one
reference for a later "bit-identical training" claim; while training
numerics are unchanged they equal the serving fixture's.

End-to-end metrics here: ``latency_p50_ms``/``latency_tail_ms`` are the
training step, ``throughput_per_s`` is held-out samples captured per
second, ``accuracy`` and ``bytes_per_req`` are the cascade's test accuracy
and paper Eq. 1 bytes per sample (all devices) at threshold 0.8.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from .checks import CheckFailed, finite_losses
from .common import DATA_SEED_BASE, THRESHOLD, Outcome, device_profiles, peak_rss
from .fixture import curve_digest, fixture_record, state_digest
from .instrument import install, layer_metrics
from .stats import median, median_and_tail, tail_percentile
from .steal import StealMonitor, least_stolen
from .tracer import Tracer

#: Large enough that the seeded held-out split moves accuracy by only a
#: few percent from seed to seed.
HELD_OUT_SAMPLES = 1024
EVAL_BATCH = 64
MIN_CAPTURES = 3
SWEEP_GRID = tuple(np.round(np.linspace(0.0, 1.0, 41), 6))


def setup(seed: int) -> Dict[str, object]:
    from repro.datasets.mvmc import generate_mvmc, load_mvmc_splits
    from repro.experiments.runner import ci_scale

    scale = ci_scale()
    started = time.perf_counter()
    # The canonical ci-scale train split, so the trained weights and loss
    # curve are the same for every seed (one digest to compare against);
    # the held-out split is the seeded input.
    train, _ = load_mvmc_splits(
        train_samples=scale.train_samples,
        test_samples=scale.test_samples,
        profiles=device_profiles(),
        seed=scale.data_seed,
    )
    held_out = generate_mvmc(HELD_OUT_SAMPLES, profiles=device_profiles(), seed=DATA_SEED_BASE + seed)
    return {
        "train": train,
        "held_out": held_out,
        "generate_s": time.perf_counter() - started,
    }


def _train(state, epochs: int):
    """Fresh model from the fixed seeds, trained ``epochs`` epochs.

    Returns the model, the loss curve and each step's ``(start, end)``
    wall interval.  A step runs from the previous optimizer update (or the
    epoch's start) to its own.
    """
    from repro.core.ddnn import build_ddnn
    from repro.core.training import DDNNTrainer
    from repro.experiments.runner import ci_scale

    scale = ci_scale()
    model = build_ddnn(scale.ddnn_config())
    trainer = DDNNTrainer(model, scale.training_config(epochs=epochs))
    marks = []
    update = trainer.optimizer.step

    def timed_update():
        update()
        marks.append(time.perf_counter())

    trainer.optimizer.step = timed_update
    steps = []
    losses = []
    for epoch in range(epochs):
        marks.append(time.perf_counter())
        first = len(marks)
        losses.append(trainer.train_epoch(state["train"], epoch).loss)
        steps.extend(zip(marks[first - 1 : -1], marks[first:]))
    return model, losses, steps


def _capture(model, held_out):
    from repro.core.oracle import ExitOracle

    started = time.perf_counter()
    oracle = ExitOracle.capture(model, held_out, batch_size=EVAL_BATCH)
    return oracle, (started, time.perf_counter())


def _evaluate(model, held_out, deadline: Optional[float], captures: int):
    """Warm capture (builds the plan), then timed captures.

    Returns the oracle, each timed capture's samples/s and its interval.
    """
    oracle, _ = _capture(model, held_out)
    rates, intervals = [], []
    while len(rates) < captures or (deadline is not None and time.perf_counter() < deadline):
        again, (start, end) = _capture(model, held_out)
        if not np.array_equal(again.logits, oracle.logits):
            raise CheckFailed("two captures of the same held-out split disagree")
        rates.append(len(held_out) / (end - start))
        intervals.append((start, end))
    return oracle, rates, intervals


def _quality(oracle) -> Dict[str, float]:
    routed = oracle.route(THRESHOLD)
    accuracy = float(routed.overall_accuracy(oracle.targets))
    table = oracle.sweep(SWEEP_GRID)
    at = int(np.flatnonzero(np.isclose(table.thresholds, THRESHOLD))[0])
    if not np.isclose(table.overall_accuracy[at], accuracy, rtol=0.0, atol=1e-12):
        raise CheckFailed("sweep accuracy at 0.8 differs from routing at 0.8")
    return {
        "accuracy": accuracy,
        "bytes": float(oracle.communication.total_bytes(routed.local_exit_fraction)),
        "local_exit_fraction": float(routed.local_exit_fraction),
    }


def measure(state, seconds: float, monitor: StealMonitor) -> Outcome:
    from repro.experiments.runner import ci_scale

    started = time.perf_counter()
    model, losses, steps = _train(state, ci_scale().epochs)
    finite_losses(losses)
    remaining = max(seconds - (time.perf_counter() - started), 0.0)
    oracle, rates, intervals = _evaluate(
        model, state["held_out"], time.perf_counter() + remaining, MIN_CAPTURES
    )
    quality = _quality(oracle)
    step_ms = [1e3 * (end - start) for start, end in steps]
    kept_steps, step_steal = least_stolen(step_ms, steps, monitor)
    kept_rates, capture_steal = least_stolen(rates, intervals, monitor)
    # The percentile comes from all steps, not from how many the steal
    # filter kept, so every run reports the same percentile.
    percentile = tail_percentile(len(step_ms))
    p50, tail, _ = median_and_tail(kept_steps, percentile=percentile)
    outcome = Outcome(attempted=len(steps) + len(rates) * len(state["held_out"]))
    outcome.metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "throughput_per_s": (median(kept_rates), "1/s"),
        "accuracy": (quality["accuracy"], "frac"),
        "bytes_per_req": (quality["bytes"], "B"),
        "peak_rss_mb": (peak_rss(), "MB"),
    }
    weights = state_digest(model.state_dict())
    fixture = fixture_record()
    outcome.samples = {
        "step_ms": step_ms,
        "step_steal": step_steal,
        "eval_samples_per_s": rates,
        "capture_steal": capture_steal,
    }
    outcome.details = {
        "steps": len(steps),
        "steps_kept": len(kept_steps),
        "captures_kept": len(kept_rates),
        "tail_percentile": percentile,
        "captures": len(rates),
        "held_out_samples": len(state["held_out"]),
        "loss_curve": losses,
        "loss_curve_sha256": curve_digest(losses),
        "weights_sha256": weights,
        # The fixture was trained the same way, so both match it while
        # training numerics are unchanged.
        "loss_curve_matches_fixture": losses == fixture["loss_curve"],
        "weights_match_fixture": weights == fixture["weights_sha256"],
        "local_exit_fraction": quality["local_exit_fraction"],
    }
    return outcome


#: Fixed work for the traced run, so per-layer totals compare across commits.
TRACE_EPOCHS = 2
TRACE_CAPTURES = 4


def _fixed_work(state) -> Dict[str, object]:
    started = time.perf_counter()
    model, losses, steps = _train(state, TRACE_EPOCHS)
    finite_losses(losses)
    oracle, _, _ = _evaluate(model, state["held_out"], None, TRACE_CAPTURES)
    _quality(oracle)
    return {"steps": len(steps), "wall": time.perf_counter() - started}


def traced(state):
    """Fixed work untraced (best of two) then traced; per-layer metrics."""
    untraced = min(_fixed_work(state)["wall"] for _ in range(2))
    tracer = Tracer()
    registry = install(tracer)
    try:
        work = _fixed_work(state)
    finally:
        tracer.uninstall()
    outcome = Outcome(attempted=work["steps"] + (TRACE_CAPTURES + 1) * len(state["held_out"]))
    outcome.metrics = layer_metrics(
        tracer,
        registry,
        {
            "steps": work["steps"],
            "generate_s": state["generate_s"],
            "overhead_frac": work["wall"] / untraced - 1.0,
        },
    )
    return outcome, tracer
