"""Per-layer metrics for the traced run.

:func:`install` wraps the public functions and methods of each layer
(``nn``, ``core``, ``compile``, ``hierarchy``, ``serving``) with
:class:`~perfbench.tracer.Tracer` spans, and turns on the compiled plans'
own per-op timing hook.  :func:`layer_metrics` reduces the spans and the
program's public counters to the named per-layer metrics.  Every traced
run reports every metric; a layer the workload does not use reads 0.

Which end-to-end metric each layer metric should move, and where, is in
``LAYER_TO_END_TO_END`` (recorded with every traced result).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .tracer import Tracer

TIERS = ("devices", "cloud")
OP_KINDS = {
    "ConvOp": "conv",
    "LinearOp": "linear",
    "MaxPoolOp": "max_pool",
    "BatchNormOp": "batch_norm",
    "FlattenOp": "flatten",
}

#: layer metric prefix -> [(end-to-end metric, workload), ...] it should move.
LAYER_TO_END_TO_END = {
    "nn.": [("latency_p50_ms", "train_eval"), ("latency_tail_ms", "train_eval")],
    "core.oracle.": [("throughput_per_s", "train_eval")],
    "compile.": [("throughput_per_s", "train_eval"), ("throughput_per_s", "fabric_chaos")],
    "hierarchy.section.": [("throughput_per_s", "fabric_chaos")],
    "hierarchy.network.": [("bytes_per_req", "fabric_chaos")],
    "serving.clock.": [("throughput_per_s", "fabric_chaos")],
    "serving.fabric.self_s": [("throughput_per_s", "fabric_chaos")],
    "serving.fabric.wait_p99_ms": [("latency_tail_ms", "fabric_chaos")],
    "serving.fabric.batch_mean.": [("throughput_per_s", "fabric_chaos")],
    "serving.fabric.slo_hit_frac": [("accuracy", "fabric_chaos")],
    "serving.resilience.": [("latency_tail_ms", "fabric_chaos"), ("accuracy", "fabric_chaos")],
    "serving.admission.": [("latency_tail_ms", "fabric_chaos"), ("accuracy", "fabric_chaos")],
    "datasets.generate_s": [("setup_s", "train_eval"), ("setup_s", "fabric_chaos")],
    "trace.overhead_frac": [],
}


def _rows_of_first_arg(args, result) -> int:
    return len(args[1])


def _section_rows(args, result) -> int:
    return len(result.compute_s)


def _events_fired(args, result) -> int:
    return int(result)


def install(tracer: Tracer, models: Sequence[object] = ()) -> List[object]:
    """Wrap every layer's entry points; returns the compiled-plan registry.

    Compiled models built while traced, and the process-wide cached plans
    of ``models``, get per-op timing turned on and are added to the
    registry :func:`layer_metrics` reads op timings from.
    """
    import repro.core.training as training
    import repro.nn.functional as functional
    from repro.compile.cache import compiled_plan_for
    from repro.compile.ddnn import CompiledBranch, CompiledDDNN, CompiledTier
    from repro.core.ddnn import DDNN
    from repro.core.oracle import ExitOracle
    from repro.hierarchy.sections import CloudTierSection, DeviceTierSection
    from repro.nn.layers import BatchNorm1d, BatchNorm2d
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.serving.balancer import LoadBalancer
    from repro.serving.clock import EventLoop
    from repro.serving.fabric import DistributedServingFabric

    tracer.wrap(DDNN, "forward", "nn.forward")
    tracer.wrap(Tensor, "backward", "nn.backward")
    tracer.wrap(Adam, "step", "nn.optim")
    tracer.wrap(training, "joint_exit_loss", "nn.loss")
    tracer.wrap(functional, "conv2d", "nn.conv2d")
    tracer.wrap(functional, "max_pool2d", "nn.max_pool2d")
    tracer.wrap(BatchNorm1d, "forward", "nn.batch_norm")
    tracer.wrap(BatchNorm2d, "forward", "nn.batch_norm")
    tracer.wrap(training.DDNNTrainer, "train_epoch", "core.training.epoch")
    tracer.wrap(ExitOracle, "capture", "core.oracle.capture")
    tracer.wrap(ExitOracle, "sweep", "core.oracle.sweep")
    tracer.wrap(CompiledBranch, "__call__", "compile.forward", _rows_of_first_arg)
    tracer.wrap(CompiledTier, "__call__", "compile.forward", _rows_of_first_arg)
    for section in (DeviceTierSection, CloudTierSection):
        tracer.wrap(
            section,
            "process",
            lambda args: f"hierarchy.section.{args[0].tier_name}",
            _section_rows,
        )
    tracer.wrap(EventLoop, "run", "serving.clock.run", _events_fired)
    tracer.wrap(LoadBalancer, "run_until_idle", "serving.fabric.run")
    tracer.wrap(DistributedServingFabric, "run_until_idle", "serving.fabric.run")

    registry: List[object] = []
    for model in models:
        plan = compiled_plan_for(model)
        plan.enable_timing()
        registry.append(plan)
    built = CompiledDDNN.__init__

    def timed_init(self, *args, **kwargs):
        built(self, *args, **kwargs)
        self.enable_timing()
        registry.append(self)

    tracer.patch(CompiledDDNN, "__init__", timed_init)
    return registry


def _top_level(tracer: Tracer, name: str):
    return [s for s in tracer.spans if s.name == name and not tracer.has_ancestor(s, name)]


def layer_metrics(tracer: Tracer, registry: Sequence[object], context: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Reduce spans and counters to the named per-layer metrics.

    ``context`` carries what only the workload knows: ``steps`` (training
    steps run), ``generate_s``, ``responses``, ``metadata`` (report
    resilience/admission), ``networks``, ``slo_hit_frac`` and
    ``overhead_frac``.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    steps = int(context.get("steps", 0))
    for name in ("forward", "backward", "optim", "loss", "conv2d", "max_pool2d", "batch_norm"):
        total = tracer.total(f"nn.{name}")
        metrics[f"nn.{name}_ms"] = (1e3 * total / steps if steps else 0.0, "ms")

    for name in ("capture", "sweep"):
        spans = tracer.named(f"core.oracle.{name}")
        mean = sum(s.duration for s in spans) / len(spans) if spans else 0.0
        metrics[f"core.oracle.{name}_ms"] = (1e3 * mean, "ms")

    forwards = tracer.named("compile.forward")
    metrics["compile.forward_calls"] = (float(len(forwards)), "count")
    metrics["compile.forward_busy_s"] = (sum(s.duration for s in forwards), "s")
    metrics["compile.rows_per_call"] = (
        float(np.mean([s.rows for s in forwards])) if forwards else 0.0,
        "rows",
    )
    op_totals = {kind: 0.0 for kind in OP_KINDS.values()}
    for compiled in registry:
        for timing in compiled.op_timings():
            kind = OP_KINDS.get(timing.op)
            if kind is not None:
                op_totals[kind] += timing.total_s
    for kind, total in op_totals.items():
        metrics[f"compile.op.{kind}_ms"] = (1e3 * total, "ms")

    covered = tracer.child_time()
    section_total = 0.0
    for tier in TIERS:
        spans = tracer.named(f"hierarchy.section.{tier}")
        busy = sum(s.duration for s in spans)
        metrics[f"hierarchy.section.calls.{tier}"] = (float(len(spans)), "count")
        metrics[f"hierarchy.section.busy_s.{tier}"] = (busy, "s")
        metrics[f"hierarchy.section.self_s.{tier}"] = (
            sum(s.duration - covered.get(s.span_id, 0.0) for s in spans),
            "s",
        )
        metrics[f"serving.fabric.batch_mean.{tier}"] = (
            float(np.mean([s.rows for s in spans])) if spans else 0.0,
            "rows",
        )
    networks = context.get("networks", ())
    metrics["hierarchy.network.sends"] = (float(sum(n.total_messages() for n in networks)), "count")
    metrics["hierarchy.network.bytes"] = (float(sum(n.total_bytes() for n in networks)), "B")
    metrics["hierarchy.network.lost"] = (float(sum(n.lost_messages for n in networks)), "count")

    loops = _top_level(tracer, "serving.clock.run")
    events = sum(s.rows for s in loops)
    loop_time = sum(s.duration for s in loops)
    metrics["serving.clock.events"] = (float(events), "count")
    metrics["serving.clock.events_per_s"] = (events / loop_time if loop_time > 0 else 0.0, "1/s")

    runs = _top_level(tracer, "serving.fabric.run")
    inside = sum(
        s.duration
        for s in tracer.spans
        if s.name.startswith("hierarchy.section.") and tracer.has_ancestor(s, "serving.fabric.run")
    )
    metrics["serving.fabric.self_s"] = (sum(s.duration for s in runs) - inside if runs else 0.0, "s")
    responses = context.get("responses", ())
    waits = [1e3 * (r.latency_s - r.path_latency_s) for r in responses] or [0.0]
    metrics["serving.fabric.wait_p99_ms"] = (float(np.percentile(waits, 99)), "ms")
    metrics["serving.fabric.slo_hit_frac"] = (float(context.get("slo_hit_frac", 0.0)), "frac")

    metadata = context.get("metadata", {})
    resilience = metadata.get("resilience", {})
    for name, key in (
        ("retries", "retries"),
        ("failovers", "failovers"),
        ("hedges", "hedges"),
        ("hedge_wins", "hedge_wins"),
        ("expired_retired", "deadline_expired"),
        ("expired_compute", "expired_compute"),
    ):
        metrics[f"serving.resilience.{name}"] = (float(resilience.get(key, 0)), "count")
    hedges = resilience.get("hedges", 0)
    metrics["serving.resilience.hedge_win_frac"] = (
        resilience.get("hedge_wins", 0) / hedges if hedges else 0.0,
        "frac",
    )
    admission = metadata.get("admission", {})
    for name in ("offered", "accepted", "rejected", "shed"):
        metrics[f"serving.admission.{name}"] = (float(admission.get(name, 0)), "count")

    metrics["datasets.generate_s"] = (float(context.get("generate_s", 0.0)), "s")
    metrics["trace.overhead_frac"] = (float(context.get("overhead_frac", 0.0)), "frac")
    return metrics
