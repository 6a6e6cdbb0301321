"""Workload ``fabric_chaos``: the simulated serving fabric under chaos.

Two replica stacks behind a least-loaded ``LoadBalancer`` run compiled
float64 plans with an affine ``ServiceModel`` per tier.  Bursty (MMPP)
arrivals, all submitted up front on a fixed schedule, exceed the two
replicas' combined capacity during bursts; the seed draws which catalogue
sample each arrival carries.  Every request carries an SLO
budget (EDF batching, hedged offloads to the sibling replica), offloads
run under a ``RetryPolicy`` with a ``CircuitBreaker`` while ``LinkFlap``
and ``LinkLoss`` chaos hit each replica's uplink, and a bounded ingress
sheds overflow to the local exit.

The simulated timeline is deterministic, so the simulated latency, the
answers and their bytes pin behaviour exactly, while wall time measures
the program.  End-to-end metrics here: ``throughput_per_s`` is simulated
requests answered per wall second, ``latency_p50_ms``/``latency_tail_ms``
are simulated request latency, ``accuracy`` and ``bytes_per_req`` are over
the answers.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np

from .checks import (
    admission_balances,
    all_fired,
    exactly_once,
    identical,
    matches_oracle,
    no_expired_compute,
)
from .common import CHECK_BATCH, THRESHOLD, Outcome, peak_rss, request_pool
from .fixture import load_fixture_model
from .instrument import install, layer_metrics
from .stats import median, median_and_tail
from .steal import StealMonitor, least_stolen
from .tracer import Tracer

REQUESTS_PER_ROUND = 2000
MIN_ROUNDS = 2
REPLICAS = 2
INGRESS_CAPACITY = 32
SLO_S = 0.18
ATTEMPT_DEADLINE_S = 0.06
HEDGE_TRIGGER = 0.1
BASE_RATE_RPS = 150.0
BURST_RATE_RPS = 900.0
#: The burst pattern is fixed; the seed picks the requested samples and
#: the chaos and retry-jitter draws.  (Seeded burst patterns moved the
#: simulated median by 40% from seed to seed.)
ARRIVAL_SEED = 0
FLAP_PERIOD_S = 1.0
LOSS_PROBABILITY = 0.08
#: Mechanisms the workload exists to exercise; a run where one stays
#: silent has stopped measuring what it claims to.
MUST_FIRE = ("deadline_expired", "shed", "retries", "hedges")


def _balancer(state):
    from repro.hierarchy.faults import ChaosSchedule, LinkFlap, LinkLoss
    from repro.hierarchy.plan import PartitionPlan
    from repro.serving import (
        BatchingPolicy,
        CircuitBreaker,
        HedgePolicy,
        LoadBalancer,
        RetryPolicy,
        ServiceModel,
    )
    from repro.serving.admission import ShedToLocalExit

    seed = state["seed"]
    plan = PartitionPlan(
        state["model"],
        replicas=REPLICAS,
        slo_s=SLO_S,
        hedge=HedgePolicy(trigger_fraction=HEDGE_TRIGGER, max_hedges=1),
    )
    balancer = LoadBalancer.from_plan(
        plan,
        THRESHOLD,
        strategy="least-loaded",
        batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.004),
        service_models=[ServiceModel(batch_overhead_s=0.002, per_sample_s=0.004)]
        * plan.num_tiers,
        offload=RetryPolicy(
            deadline_s=ATTEMPT_DEADLINE_S,
            max_retries=3,
            backoff_base_s=ATTEMPT_DEADLINE_S / 2.0,
            backoff_multiplier=2.0,
            backoff_max_s=4.0 * ATTEMPT_DEADLINE_S,
            jitter_s=ATTEMPT_DEADLINE_S / 10.0,
            seed=seed,
        ),
        breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=2.5 * ATTEMPT_DEADLINE_S),
        edf=True,
        compile=True,
        capacity=INGRESS_CAPACITY,
        admission=ShedToLocalExit(),
    )
    for index, fabric in enumerate(balancer.replicas):
        uplink = fabric.tier_names[-1]
        fabric.attach_chaos(
            ChaosSchedule(
                flaps=[
                    LinkFlap(
                        period_s=FLAP_PERIOD_S,
                        down_s=1.25 * ATTEMPT_DEADLINE_S,
                        destination=uplink,
                    )
                ],
                losses=[LinkLoss(probability=LOSS_PROBABILITY, destination=uplink)],
                seed=REPLICAS * seed + index,
            )
        )
    return balancer


def setup(seed: int) -> Dict[str, object]:
    from repro.serving import BurstyProcess

    started = time.perf_counter()
    pool = request_pool()
    generate_s = time.perf_counter() - started
    model, _ = load_fixture_model()
    arrivals = BurstyProcess(
        base_rate_rps=BASE_RATE_RPS,
        burst_rate_rps=BURST_RATE_RPS,
        mean_base_dwell_s=1.0,
        mean_burst_dwell_s=0.25,
        seed=ARRIVAL_SEED,
    )
    state = {
        "seed": seed,
        "pool": pool,
        "model": model,
        "generate_s": generate_s,
        "times": [when for _, when in zip(range(REQUESTS_PER_ROUND), arrivals)],
        "order": np.random.default_rng(seed).integers(0, len(pool), REQUESTS_PER_ROUND),
    }
    state["balancer"] = _balancer(state)
    return state


def _round(state, balancer) -> Dict[str, object]:
    """Serve the whole schedule once; returns the report and request map."""
    images, labels = state["pool"].images, state["pool"].labels
    sample_of = {}
    started = time.perf_counter()
    for index, when in zip(state["order"], state["times"]):
        _, request_id = balancer.submit(images[index], target=int(labels[index]), at=when)
        sample_of[request_id] = int(index)
    balancer.run_until_idle()
    ended = time.perf_counter()
    return {
        "report": balancer.report(),
        "sample_of": sample_of,
        "wall": ended - started,
        "interval": (started, ended),
    }


def _accounting(responses) -> List[tuple]:
    return sorted(
        (
            r.request_id,
            r.prediction,
            r.exit_index,
            r.degraded,
            r.shed,
            r.retries,
            r.hedged,
            r.deadline_exceeded,
            r.completion_time,
            r.bytes_transferred,
        )
        for r in responses
    )


def _check(state, result, oracle) -> None:
    report = result["report"]
    sample_of = result["sample_of"]
    exactly_once(list(sample_of), [r.request_id for r in report.responses])
    admission_balances(report.metadata["admission"], len(sample_of))
    no_expired_compute(report.metadata["resilience"])
    all_fired({**report.metadata["resilience"], **report.metadata["admission"]}, MUST_FIRE)
    routed = oracle.route(THRESHOLD)
    matches_oracle(
        (
            (sample_of[r.request_id], r.prediction, r.exit_index, not (r.degraded or r.relaxed or r.shed))
            for r in report.responses
        ),
        routed.predictions,
        routed.exit_indices,
    )


def _oracle(state):
    from repro.core.oracle import ExitOracle

    return ExitOracle.capture(state["model"], state["pool"], batch_size=CHECK_BATCH)


def slo_hit_frac(report, sent: int) -> float:
    """Share of requests sent answered inside budget with a clean answer."""
    hits = sum(
        1
        for r in report.responses
        if r.latency_s < SLO_S and not (r.degraded or r.shed or r.relaxed or r.deadline_exceeded)
    )
    return hits / sent


def measure(state, seconds: float, monitor: StealMonitor) -> Outcome:
    deadline = time.perf_counter() + seconds
    rounds = []
    balancer = state.pop("balancer")
    while True:
        rounds.append(_round(state, balancer))
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() >= deadline:
            break
        # The finished stack is garbage with reference cycles; collect it
        # now so the next round does not run (and peak) beside it.
        balancer = None
        gc.collect()
        balancer = _balancer(state)
    peak_rss_mb = peak_rss()
    oracle = _oracle(state)
    first = rounds[0]
    _check(state, first, oracle)
    reference = _accounting(first["report"].responses)
    for other in rounds[1:]:
        identical(_accounting(other["report"].responses), reference, "per-request accounting")
    report = first["report"]
    latencies = [1e3 * r.latency_s for r in report.responses]
    p50, tail, percentile = median_and_tail(latencies)
    sent = len(first["sample_of"])
    round_rps = [report.served / r["wall"] for r in rounds]
    kept_rps, round_steal = least_stolen(round_rps, [r["interval"] for r in rounds], monitor)
    outcome = Outcome(attempted=sent, failed=sent - report.served + report.metadata["admission"]["rejected"])
    outcome.metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "throughput_per_s": (median(kept_rps), "1/s"),
        "accuracy": (float(report.accuracy), "frac"),
        "bytes_per_req": (float(report.mean_bytes), "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    outcome.samples = {"round_rps": round_rps, "round_steal": round_steal}
    outcome.details = {
        "rounds": len(rounds),
        "rounds_kept": len(kept_rps),
        "requests_per_round": sent,
        "tail_percentile": percentile,
        "slo_hit_frac": slo_hit_frac(report, sent),
        "resilience": report.metadata["resilience"],
        "admission": report.metadata["admission"],
        "simulated_horizon_s": state["times"][-1],
    }
    return outcome


def traced(state):
    """One round untraced (best of two), then one traced; per-layer metrics."""
    untraced = min(_round(state, _balancer(state))["wall"] for _ in range(2))
    gc.collect()
    tracer = Tracer()
    registry = install(tracer, models=[state["model"]])
    try:
        balancer = _balancer(state)
        result = _round(state, balancer)
    finally:
        tracer.uninstall()
    _check(state, result, _oracle(state))
    report = result["report"]
    sent = len(result["sample_of"])
    outcome = Outcome(attempted=sent, failed=sent - report.served)
    outcome.metrics = layer_metrics(
        tracer,
        registry,
        {
            "generate_s": state["generate_s"],
            "responses": report.responses,
            "metadata": report.metadata,
            "networks": [fabric.deployment.fabric for fabric in balancer.replicas],
            "slo_hit_frac": slo_hit_frac(report, sent),
            "overhead_frac": result["wall"] / untraced - 1.0,
        },
    )
    return outcome, tracer
