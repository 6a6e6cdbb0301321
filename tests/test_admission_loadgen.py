"""Tests for overload safety: admission control and open-loop load.

Admission policies are exercised at the ingress of a single-tier serving
fabric (:meth:`DistributedServingFabric.single_tier`), and open-loop load
through :meth:`DistributedServingFabric.open_loop` on its simulated clock.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.serving import (
    AdaptiveShed,
    BatchingPolicy,
    BurstyProcess,
    DistributedServingFabric,
    DropOldest,
    PoissonProcess,
    RejectNewest,
    ServiceModel,
    ShedToLocalExit,
    SimulatedClock,
    TokenBucketPolicy,
    TraceReplay,
    admission_policy,
)

#: Holds batches back long enough that every test arrival meets the queue.
HOLD = BatchingPolicy(max_batch_size=64, max_wait_s=60.0)


def _server(model, threshold=0.8, **kwargs) -> DistributedServingFabric:
    kwargs.setdefault("batching", HOLD)
    return DistributedServingFabric.single_tier(model, threshold, **kwargs)


def _offer(server, images, count, client_id="default", at=None):
    """Offer ``count`` samples arriving together; returns their ids."""
    return server.submit_many(
        [images[i % len(images)] for i in range(count)], client_id=client_id, at=at
    )


class _Backlog:
    """The queue surface a policy reads: capacity, depth and a clock."""

    def __init__(self, capacity=None, depth=0):
        self.capacity = capacity
        self.depth = depth
        self.clock = SimulatedClock()

    def __len__(self) -> int:
        return self.depth


class TestAdmissionPolicies:
    def test_unbounded_queue_never_consults_admission(self, trained_ddnn, tiny_test):
        class Exploding(RejectNewest):
            def decide(self, queue, client_id):  # pragma: no cover - must not run
                raise AssertionError("admission consulted on an unbounded queue")

        server = _server(trained_ddnn, admission=Exploding())
        _offer(server, tiny_test.images, 100)
        assert len(server.run_until_idle()) == 100
        assert server.admission_stats.accepted == 100

    def test_reject_newest_refuses_and_counts(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, capacity=2, admission=RejectNewest())
        _offer(server, tiny_test.images, 2, client_id="seed")
        (late,) = _offer(server, tiny_test.images, 1, client_id="late")
        responses = server.run_until_idle()
        assert late not in [r.request_id for r in responses]
        assert len(responses) == 2
        stats = server.admission_stats
        assert stats.rejected == 1
        assert stats.offered == 3

    def test_drop_oldest_evicts_head_and_accepts(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, capacity=2, admission=DropOldest())
        head, _ = _offer(server, tiny_test.images, 2, client_id="seed")
        (late,) = _offer(server, tiny_test.images, 1, client_id="late")
        responses = sorted(server.run_until_idle(), key=lambda r: r.request_id)
        # The head-of-line request left the system; the newcomer is served.
        assert head not in [r.request_id for r in responses]
        assert responses[-1].request_id == late
        assert len(responses) == 2
        stats = server.admission_stats
        assert stats.dropped == 1
        assert stats.accepted == 3

    def test_shed_returns_stamped_request_without_enqueueing(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, capacity=2, admission=ShedToLocalExit())
        _offer(server, tiny_test.images, 2, client_id="seed")
        (late,) = _offer(server, tiny_test.images, 1, client_id="late", at=0.5)
        responses = {r.request_id: r for r in server.run_until_idle()}
        shed = responses[late]
        assert shed.shed and shed.client_id == "late"
        assert shed.submit_time == shed.completion_time == 0.5
        # The two queued requests still got the full cascade.
        assert sum(1 for r in responses.values() if not r.shed) == 2
        assert server.admission_stats.shed == 1

    def test_capacity_validation(self, trained_ddnn):
        with pytest.raises(ValueError):
            _server(trained_ddnn, capacity=0)

    def test_admission_policy_registry(self):
        assert isinstance(admission_policy("reject"), RejectNewest)
        assert isinstance(admission_policy("drop-oldest"), DropOldest)
        assert isinstance(admission_policy("shed-local"), ShedToLocalExit)
        with pytest.raises(ValueError):
            admission_policy("nope")


class TestArrivalProcesses:
    def test_poisson_deterministic_and_rate(self):
        first = list(itertools.islice(iter(PoissonProcess(100.0, seed=7)), 50))
        second = list(itertools.islice(iter(PoissonProcess(100.0, seed=7)), 50))
        assert first == second
        times = np.array(list(itertools.islice(iter(PoissonProcess(250.0, seed=1)), 4000)))
        assert np.all(np.diff(times) >= 0)
        empirical = len(times) / times[-1]
        assert empirical == pytest.approx(250.0, rel=0.1)

    def test_poisson_seed_changes_stream(self):
        a = list(itertools.islice(iter(PoissonProcess(100.0, seed=1)), 10))
        b = list(itertools.islice(iter(PoissonProcess(100.0, seed=2)), 10))
        assert a != b

    def test_bursty_deterministic_and_mean_rate(self):
        process = BurstyProcess(50.0, 500.0, mean_base_dwell_s=0.5,
                                mean_burst_dwell_s=0.125, seed=3)
        first = list(itertools.islice(iter(process), 40))
        second = list(itertools.islice(iter(process), 40))
        assert first == second
        times = np.array(list(itertools.islice(iter(process), 6000)))
        empirical = len(times) / times[-1]
        assert empirical == pytest.approx(process.mean_rate_rps(), rel=0.15)
        # The mix rate sits strictly between the two state rates.
        assert 50.0 < process.mean_rate_rps() < 500.0

    def test_trace_replay_exact_and_validated(self):
        trace = TraceReplay([0.0, 0.5, 0.5, 2.0])
        assert list(trace) == [0.0, 0.5, 0.5, 2.0]
        with pytest.raises(ValueError):
            TraceReplay([1.0, 0.5])

    def test_process_parameter_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0)
        with pytest.raises(ValueError):
            BurstyProcess(0.0, 10.0)
        with pytest.raises(ValueError):
            BurstyProcess(10.0, 10.0, mean_base_dwell_s=0.0)


class TestServiceModel:
    def test_affine_batch_time_and_capacity(self):
        model = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
        assert model.batch_time_s(1) == pytest.approx(0.003)
        assert model.batch_time_s(16) == pytest.approx(0.018)
        assert model.capacity_rps(16) == pytest.approx(16 / 0.018)
        # Batching amortises the overhead: capacity grows with batch size.
        assert model.capacity_rps(16) > model.capacity_rps(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceModel(batch_overhead_s=-0.001)
        with pytest.raises(ValueError):
            ServiceModel(per_sample_s=0.0)
        with pytest.raises(ValueError):
            ServiceModel().batch_time_s(0)


class TestSimulatedClock:
    def test_advance_and_advance_to(self):
        clock = SimulatedClock()
        assert clock() == 0.0
        clock.advance(1.5)
        assert clock() == 1.5
        clock.advance_to(1.0)  # never backwards
        assert clock() == 1.5
        clock.advance_to(2.0)
        assert clock() == 2.0
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestLoadGenerator:
    """Open-loop load through :meth:`DistributedServingFabric.open_loop`."""

    SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)
    BATCHING = BatchingPolicy(max_batch_size=8, max_wait_s=0.005)

    def _run(self, trained_ddnn, tiny_test, *, capacity=None, admission=None,
             multiplier=2.0, num_requests=160, seed=5, process=None,
             batching=None):
        batching = batching if batching is not None else self.BATCHING
        server = DistributedServingFabric.single_tier(
            trained_ddnn,
            0.8,
            batching=batching,
            service_models=[self.SERVICE],
            capacity=capacity,
            admission=admission,
        )
        offered = multiplier * self.SERVICE.capacity_rps(batching.max_batch_size)
        report = server.open_loop(
            process if process is not None else PoissonProcess(offered, seed=seed),
            tiny_test.images,
            targets=tiny_test.labels,
            num_requests=num_requests,
        )
        return server, report

    @staticmethod
    def _queued(server, report):
        """Report over the queued-and-served requests (shed answers apart)."""
        return server.report([r for r in report.responses if not r.shed])

    def test_underload_serves_everything(self, trained_ddnn, tiny_test):
        server, report = self._run(trained_ddnn, tiny_test, multiplier=0.5, num_requests=80)
        assert server.offered == 80
        assert report.served == 80
        stats = server.admission_stats
        assert stats.rejected == stats.dropped == stats.shed == 0
        assert report.p95_latency_s > 0.0
        assert report.p50_latency_s <= report.p95_latency_s <= report.p99_latency_s

    def test_deterministic_replay(self, trained_ddnn, tiny_test):
        _, first = self._run(trained_ddnn, tiny_test, num_requests=60)
        _, second = self._run(trained_ddnn, tiny_test, num_requests=60)
        assert first.p95_latency_s == second.p95_latency_s
        assert [r.latency_s for r in first.responses] == [r.latency_s for r in second.responses]

    def test_unbounded_overload_tail_grows_with_run_length(self, trained_ddnn, tiny_test):
        _, short = self._run(trained_ddnn, tiny_test, num_requests=60)
        _, long = self._run(trained_ddnn, tiny_test, num_requests=240)
        assert long.p95_latency_s > 1.5 * short.p95_latency_s

    @pytest.mark.parametrize("admission_name", ["reject", "drop-oldest", "shed-local"])
    def test_bounded_overload_tail_pinned(self, trained_ddnn, tiny_test, admission_name):
        from repro.experiments.overload_study import queue_latency_bound_s

        capacity = 16
        server, report = self._run(
            trained_ddnn,
            tiny_test,
            capacity=capacity,
            admission=admission_policy(admission_name),
            num_requests=240,
        )
        queued = self._queued(server, report)
        bound = queue_latency_bound_s(capacity, self.BATCHING, self.SERVICE)
        assert queued.max_latency_s <= bound
        stats = server.admission_stats
        overflow = stats.rejected + stats.dropped + stats.shed
        assert overflow > 0
        assert server.offered == 240
        assert queued.served + overflow == server.offered
        if admission_name == "shed-local":
            shed = [r for r in report.responses if r.shed]
            assert len(shed) == stats.shed
            assert all(r.exit_index == 0 for r in shed)

    def test_shed_responses_delivered_to_sessions(self, trained_ddnn, tiny_test):
        server, report = self._run(
            trained_ddnn,
            tiny_test,
            capacity=8,
            admission=ShedToLocalExit(),
            multiplier=4.0,
            num_requests=120,
        )
        shed = [r for r in report.responses if r.shed]
        assert len(shed) == server.admission_stats.shed > 0
        assert all(r.client_id == "client-0" for r in shed)
        # Every request is answered exactly once: shed or served.
        assert len(report.responses) == server.offered
        assert self._queued(server, report).served == server.offered - len(shed)

    def test_trace_replay_drives_exact_arrival_times(self, trained_ddnn, tiny_test):
        trace = [0.0, 0.001, 0.002, 0.2, 0.4]
        server, report = self._run(
            trained_ddnn,
            tiny_test,
            process=TraceReplay(trace),
            num_requests=5,
        )
        assert server.offered == 5
        assert report.served == 5
        assert [r.submit_time for r in sorted(report.responses, key=lambda r: r.request_id)] == trace

    def test_busy_worker_arrival_timed_from_its_own_arrival(self, trained_ddnn, tiny_test):
        """Regression (coordinated omission): an arrival that finds the only
        worker busy keeps its own arrival stamp, and its batch forms at
        ``arrival + max_wait_s`` or when the worker frees, whichever is
        later.  With seed 0 at half load, requests 0-4 form a batch at
        6.53 ms that runs until 13.53 ms; request 5 arrives at 8.78 ms and
        its batch forms at 13.78 ms, so it completes at 18.78 ms.  A timeline
        that stamps arrivals at the busy batch's completion instead reports
        13.53 ms and 24.53 ms."""
        service = ServiceModel()
        batching = BatchingPolicy(max_batch_size=16, max_wait_s=0.005)
        server = DistributedServingFabric.single_tier(
            trained_ddnn, 0.8, batching=batching, service_models=[service]
        )
        rate = 0.5 * service.capacity_rps(batching.max_batch_size)
        report = server.open_loop(PoissonProcess(rate, seed=0), tiny_test.images, num_requests=40)
        arrivals = list(itertools.islice(iter(PoissonProcess(rate, seed=0)), 40))
        by_id = sorted(report.responses, key=lambda r: r.request_id)
        assert [r.submit_time for r in by_id] == arrivals
        first, fifth = by_id[0], by_id[5]
        assert first.completion_time == pytest.approx(0.01353, abs=5e-6)
        assert fifth.submit_time == pytest.approx(0.00878, abs=5e-6)
        assert fifth.completion_time == pytest.approx(0.01878, abs=5e-6)
        assert fifth.latency_s == pytest.approx(0.010, abs=1e-9)


class TestTokenBucketPolicy:
    def test_burst_then_reject_then_refill(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, admission=TokenBucketPolicy(rate_rps=1.0, burst=3.0))
        _offer(server, tiny_test.images, 4, client_id="a")
        server.run_until_idle(drain=True)
        assert server.admission_stats.accepted == 3
        assert server.admission_stats.rejected == 1
        # One token refills per simulated second.
        _offer(server, tiny_test.images, 2, client_id="a", at=server.clock.now + 1.0)
        server.run_until_idle(drain=True)
        assert server.admission_stats.accepted == 4
        assert server.admission_stats.rejected == 2

    def test_buckets_are_per_client(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, admission=TokenBucketPolicy(rate_rps=1.0, burst=1.0))
        _offer(server, tiny_test.images, 2, client_id="a")
        _offer(server, tiny_test.images, 1, client_id="b")
        responses = server.run_until_idle()
        # Client b's bucket is untouched by a's exhaustion.
        assert sorted(r.client_id for r in responses) == ["a", "b"]
        assert server.admission_stats.rejected == 1

    def test_bucket_never_exceeds_burst(self):
        policy = TokenBucketPolicy(rate_rps=10.0, burst=2.0)
        backlog = _Backlog()
        backlog.clock.advance(100.0)  # long idle: bucket caps at burst
        assert policy.tokens("a", backlog.clock()) == pytest.approx(2.0)

    def test_full_queue_delegates_to_inner_policy_without_charging_rejects(
        self, trained_ddnn, tiny_test
    ):
        policy = TokenBucketPolicy(rate_rps=0.001, burst=5.0, inner=RejectNewest())
        server = _server(trained_ddnn, capacity=1, admission=policy)
        _offer(server, tiny_test.images, 2, client_id="a")
        server.run_until_idle(drain=True)
        assert server.admission_stats.rejected == 1
        # The inner full-queue rejection did not consume a token.
        assert policy.tokens("a", 0.0) == pytest.approx(4.0)

    def test_full_queue_drop_oldest_inner_still_rate_limits(self, trained_ddnn, tiny_test):
        policy = TokenBucketPolicy(rate_rps=0.001, burst=2.0, inner=DropOldest())
        server = _server(trained_ddnn, capacity=1, admission=policy)
        _offer(server, tiny_test.images, 3, client_id="a")
        server.run_until_idle(drain=True)
        stats = server.admission_stats
        # The second arrival evicts the first; the bucket is then empty, so
        # the third is rejected even though drop-oldest would make room.
        assert stats.dropped == 1
        assert stats.rejected == 1

    def test_validation_and_registry(self):
        with pytest.raises(ValueError):
            TokenBucketPolicy(rate_rps=0.0)
        with pytest.raises(ValueError):
            TokenBucketPolicy(rate_rps=1.0, burst=0.5)
        policy = admission_policy("token-bucket", rate_rps=5.0, burst=2.0)
        assert isinstance(policy, TokenBucketPolicy)
        assert policy.rate_rps == 5.0

    def test_server_rate_limits_chatty_client(self, trained_ddnn, tiny_test):
        server = _server(
            trained_ddnn, capacity=64, admission=TokenBucketPolicy(rate_rps=1.0, burst=4.0)
        )
        _offer(server, tiny_test.images, 10, client_id="chatty")
        _offer(server, tiny_test.images, 1, client_id="polite")
        responses = server.run_until_idle(drain=True)
        assert sum(1 for r in responses if r.client_id == "chatty") == 4
        assert server.admission_stats.rejected == 6
        # A polite client still gets in.
        assert sum(1 for r in responses if r.client_id == "polite") == 1


class TestAdaptiveShed:
    def _server(self, model, capacity=8, low_watermark=0.5, relaxed=1.0, threshold=0.8):
        return _server(
            model,
            threshold,
            capacity=capacity,
            admission=AdaptiveShed(low_watermark=low_watermark, relaxed_threshold=relaxed),
        )

    def test_below_watermark_accepts_everything(self, trained_ddnn, tiny_test):
        server = self._server(trained_ddnn, capacity=8)
        _offer(server, tiny_test.images, 4)  # stays at/below the 0.5 * 8 watermark
        server.run_until_idle()
        assert server.admission_stats.accepted == 4
        assert server.admission_stats.shed == 0

    def test_under_pressure_sheds_or_requeues_consistently(self, trained_ddnn, tiny_test):
        server = self._server(trained_ddnn, capacity=8)
        _offer(server, tiny_test.images, 24, client_id="c")
        responses = server.run_until_idle()
        stats = server.admission_stats
        # Nothing is rejected outright; counters stay consistent after requeues.
        assert stats.rejected == 0
        assert stats.offered == 24
        assert stats.shed > 0, "sustained pressure must shed something"
        # Every admitted request is answered: shed ones at once, locally.
        shed = [r for r in responses if r.shed]
        assert len(shed) == stats.shed
        assert len(responses) == stats.accepted + stats.shed - stats.dropped
        assert all(r.exit_index == 0 for r in shed)

    def test_full_queue_sheds_everything_at_relaxed_one(self, trained_ddnn, tiny_test):
        server = self._server(trained_ddnn, capacity=4)
        ids = _offer(server, tiny_test.images, 12)
        responses = {r.request_id: r for r in server.run_until_idle()}
        # Once the queue is pinned at capacity the threshold reaches 1.0 and
        # every further arrival is answered locally.
        assert sum(1 for r in responses.values() if not r.shed) <= 4
        assert responses[ids[-1]].shed

    def test_shed_threshold_interpolates_with_pressure(self):
        policy = AdaptiveShed(low_watermark=0.5, relaxed_threshold=1.0)
        backlog = _Backlog(capacity=10)
        base = 0.6
        assert policy.shed_threshold(backlog, base) == pytest.approx(base)  # empty
        backlog.depth = 5
        assert policy.shed_threshold(backlog, base) == pytest.approx(base)  # at watermark
        backlog.depth = 10
        assert policy.shed_threshold(backlog, base) == pytest.approx(1.0)  # full

    def test_requires_bounded_queue(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, admission=AdaptiveShed())
        _offer(server, tiny_test.images, 1)
        with pytest.raises(ValueError, match="bounded"):
            server.run_until_idle()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveShed(low_watermark=1.0)
        with pytest.raises(ValueError):
            AdaptiveShed(relaxed_threshold=-0.1)

    def test_requeue_preserves_offer_accounting(self, trained_ddnn, tiny_test):
        # With a zero local threshold and no relaxation the shed bound stays
        # 0, every shed probe fails, and every pressured arrival is
        # requeued: its shed rolls back into accepted.
        server = self._server(
            trained_ddnn, capacity=4, low_watermark=0.0, relaxed=0.0, threshold=0.0
        )
        _offer(server, tiny_test.images, 3)
        responses = server.run_until_idle()
        stats = server.admission_stats
        assert stats.shed == 0 and stats.accepted == 3 and stats.offered == 3
        assert len(responses) == 3 and not any(r.shed for r in responses)
