"""Tests for single-server serving: a one-tier fabric running the whole cascade.

A single inference server is the one-tier case of
:class:`~repro.serving.fabric.DistributedServingFabric`
(:meth:`~repro.serving.fabric.DistributedServingFabric.single_tier`).  These
tests pin its ingress queue, batch formation, reports and the end-to-end
equivalence with offline staged inference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import StagedInferenceEngine
from repro.serving import (
    BatchingPolicy,
    DistributedServingFabric,
    FabricResponse,
    ServiceModel,
    ShedToLocalExit,
    admission_policy,
)

SERVICE = ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001)


def _server(model, **kwargs) -> DistributedServingFabric:
    return DistributedServingFabric.single_tier(model, 0.8, **kwargs)


def _by_id(responses):
    return sorted(responses, key=lambda response: response.request_id)


class TestRequestQueue:
    """The one-tier fabric's ingress queue."""

    def test_fifo_order_and_ids(self, trained_ddnn, tiny_test):
        server = _server(
            trained_ddnn, batching=BatchingPolicy.sequential(), service_models=[SERVICE]
        )
        first = server.submit(tiny_test.images[0], client_id="a")
        second = server.submit(tiny_test.images[1], client_id="b")
        assert (first, second) == (0, 1)
        responses = server.run_until_idle()
        # Request-at-a-time batches complete in arrival order.
        assert [r.request_id for r in responses] == [0, 1]
        assert responses[0].completion_time < responses[1].completion_time
        assert not server.tiers[0].queue

    def test_bad_views_shape_rejected(self, trained_ddnn):
        with pytest.raises(ValueError):
            _server(trained_ddnn).submit(np.zeros((3, 4, 4)))

    def test_pop_batch_larger_than_backlog_drains_everything(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, batching=BatchingPolicy(max_batch_size=100))
        server.submit_many(list(tiny_test.images[:3]))
        responses = server.run_until_idle(drain=True)
        assert [r.batch_size for r in responses] == [3, 3, 3]
        assert server.tiers[0].batches_dispatched == 1
        assert not server.tiers[0].queue


class TestMicroBatcher:
    """Batch formation at the tier: size trigger, wait trigger, drain."""

    def test_full_batch_releases_immediately(self, trained_ddnn, tiny_test):
        server = _server(
            trained_ddnn,
            batching=BatchingPolicy(max_batch_size=2, max_wait_s=10.0),
            service_models=[SERVICE],
        )
        server.submit(tiny_test.images[0], at=0.0)
        server.submit(tiny_test.images[1], at=1.0)
        responses = server.run_until_idle()
        # The second arrival fills the batch: released at t=1, not t=10.
        assert [r.completion_time for r in responses] == [pytest.approx(1.004)] * 2

    def test_partial_batch_waits_for_max_wait(self, trained_ddnn, tiny_test):
        server = _server(
            trained_ddnn,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.5),
            service_models=[SERVICE],
        )
        server.submit(tiny_test.images[0])
        (response,) = server.run_until_idle()
        assert response.completion_time == pytest.approx(0.5 + SERVICE.batch_time_s(1))
        assert server.tiers[0].batches_dispatched == 1

    def test_force_drains_regardless_of_policy(self, trained_ddnn, tiny_test):
        server = _server(
            trained_ddnn,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=60.0),
            service_models=[SERVICE],
        )
        server.submit(tiny_test.images[0])
        (response,) = server.run_until_idle(drain=True)
        assert response.completion_time == pytest.approx(SERVICE.batch_time_s(1))

    def test_batch_never_exceeds_max_size(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn, batching=BatchingPolicy(max_batch_size=3, max_wait_s=0.0))
        server.submit_many(list(tiny_test.images[:7]))
        responses = server.run_until_idle(drain=True)
        sizes = [r.batch_size for r in _by_id(responses)]
        assert sizes == [3, 3, 3, 3, 3, 3, 1]
        assert server.tiers[0].batches_dispatched == 3

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait_s=-1.0)
        assert BatchingPolicy.sequential().max_batch_size == 1


class TestServerStats:
    """The served-traffic summary (:meth:`DistributedServingFabric.report`)."""

    @staticmethod
    def _response(exit_name, exit_index, correct=True):
        return FabricResponse(
            request_id=0,
            client_id="c",
            prediction=1,
            exit_index=exit_index,
            exit_name=exit_name,
            entropy=0.1,
            target=1 if correct else 0,
            submit_time=0.0,
            completion_time=0.1,
        )

    def test_empty_snapshot(self, trained_ddnn):
        report = _server(trained_ddnn).report()
        assert report.served == 0
        assert report.exit_fractions == {}
        assert report.accuracy is None

    def test_snapshot_aggregates(self, trained_ddnn):
        report = _server(trained_ddnn).report(
            [
                self._response("local", 0),
                self._response("local", 0),
                self._response("cloud", 1, correct=False),
            ]
        )
        assert report.served == 3
        assert report.exit_fractions == {
            "cloud": pytest.approx(1 / 3),
            "local": pytest.approx(2 / 3),
        }
        assert report.offload_fraction == pytest.approx(1 / 3)
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.mean_latency_s == pytest.approx(0.1)


class TestDDNNServer:
    """End-to-end behaviour of the single-tier server."""

    def test_one_at_a_time_matches_staged_inference(self, trained_ddnn, tiny_test):
        """Request-at-a-time serving is byte-identical to offline
        StagedInferenceEngine.run on the same model."""
        offline = StagedInferenceEngine(trained_ddnn, 0.8).run(tiny_test)
        server = _server(trained_ddnn, batching=BatchingPolicy.sequential())
        responses = server.serve_dataset(tiny_test)
        predictions = np.array([response.prediction for response in responses])
        exits = np.array([response.exit_index for response in responses])
        entropies = np.array([response.entropy for response in responses])
        np.testing.assert_array_equal(predictions, offline.predictions)
        np.testing.assert_array_equal(exits, offline.exit_indices)
        np.testing.assert_array_equal(entropies, offline.entropies)

    def test_dynamic_batching_matches_staged_inference(self, trained_ddnn, tiny_test):
        offline = StagedInferenceEngine(trained_ddnn, 0.8).run(tiny_test)
        server = _server(trained_ddnn, batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.0))
        responses = server.serve_dataset(tiny_test)
        predictions = np.array([response.prediction for response in responses])
        np.testing.assert_array_equal(predictions, offline.predictions)
        np.testing.assert_array_equal(
            [response.exit_index for response in responses], offline.exit_indices
        )

    def test_step_respects_policy_then_force_drains(self, trained_ddnn, tiny_test):
        server = _server(
            trained_ddnn,
            batching=BatchingPolicy(max_batch_size=4, max_wait_s=60.0),
            service_models=[SERVICE],
        )
        server.submit(tiny_test.images[0])
        answered_at_30 = []
        server.events.schedule(30.0, lambda now: answered_at_30.append(len(server.responses)))
        (first,) = server.run_until_idle()
        assert answered_at_30 == [0]  # neither trigger fired by t=30
        assert first.completion_time == pytest.approx(60.0 + SERVICE.batch_time_s(1))
        server.submit(tiny_test.images[1])
        server.run_until_idle(drain=True)
        assert server.responses[-1].completion_time == pytest.approx(
            first.completion_time + SERVICE.batch_time_s(1)
        )

    def test_responses_routed_per_exit(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn)
        responses = server.serve_dataset(tiny_test)
        by_exit = {
            name: [r for r in responses if r.exit_name == name]
            for name in trained_ddnn.exit_names
        }
        assert sum(len(bucket) for bucket in by_exit.values()) == len(responses)
        for index, name in enumerate(trained_ddnn.exit_names):
            assert all(r.exit_index == index for r in by_exit[name])
        assert server.tier_names == ["cascade"]

    def test_sessions_receive_their_responses(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn)
        server.submit(tiny_test.images[0], client_id="a")
        server.submit(tiny_test.images[1], client_id="b")
        server.submit(tiny_test.images[2], client_id="a")
        responses = server.run_until_idle()
        assert [r.client_id for r in _by_id(responses)] == ["a", "b", "a"]

    def test_snapshot_reflects_traffic(self, trained_ddnn, tiny_test):
        server = _server(trained_ddnn)
        server.serve_dataset(tiny_test)
        report = server.report()
        assert report.served == len(tiny_test)
        assert sum(report.exit_fractions.values()) == pytest.approx(1.0)
        assert report.accuracy is not None
        assert report.mean_latency_s >= 0.0
        assert report.mean_bytes == 0.0  # nothing crosses a link

    def test_serve_dataset_ignores_preexisting_backlog(self, trained_ddnn, tiny_test):
        """A backlog from other clients must not leak into the dataset
        response list (which is documented to line up with ``dataset.labels``)."""
        server = _server(trained_ddnn)
        for index in range(3):
            server.submit(tiny_test.images[index], client_id="backlog")
        responses = server.serve_dataset(tiny_test, client_id="dataset")
        assert len(responses) == len(tiny_test)
        assert all(response.client_id == "dataset" for response in responses)
        assert [response.target for response in responses] == [
            int(label) for label in tiny_test.labels
        ]
        # The backlog was still served.
        assert sum(1 for r in server.responses if r.client_id == "backlog") == 3
        # ... and the filtered responses match a clean-server run exactly.
        clean = _server(trained_ddnn).serve_dataset(tiny_test)
        assert [r.prediction for r in responses] == [r.prediction for r in clean]
        assert [r.exit_index for r in responses] == [r.exit_index for r in clean]

    @pytest.mark.parametrize("policy_name", ["reject", "drop-oldest", "shed-local"])
    def test_serve_dataset_on_bounded_queue_serves_every_sample(
        self, trained_ddnn, tiny_test, policy_name
    ):
        """With capacity < len(dataset), serve_dataset still answers every
        sample through the full cascade, aligned with the labels."""
        server = _server(trained_ddnn, capacity=8, admission=admission_policy(policy_name))
        responses = server.serve_dataset(tiny_test)
        assert len(responses) == len(tiny_test)
        assert [r.target for r in responses] == [int(l) for l in tiny_test.labels]
        # Every sample got the full cascade, never a degraded shed answer.
        assert not any(r.shed for r in responses)
        stats = server.admission_stats
        assert stats.rejected == stats.dropped == stats.shed == 0
        # ... and predictions match the unbounded server exactly.
        clean = _server(trained_ddnn).serve_dataset(tiny_test)
        assert [r.prediction for r in responses] == [r.prediction for r in clean]

    def test_submit_with_shed_policy_answers_from_local_exit(self, trained_ddnn, tiny_test):
        """A full queue under shed-local answers the arrival at once from
        the local exit; queued requests still get the full cascade."""
        server = _server(trained_ddnn, capacity=2, admission=ShedToLocalExit())
        ids = [
            server.submit(tiny_test.images[index], client_id="cam", at=0.0)
            for index in range(3)
        ]
        responses = _by_id(server.run_until_idle())
        shed = [r for r in responses if r.shed]
        assert [r.request_id for r in shed] == [ids[2]]
        assert shed[0].exit_index == 0
        assert shed[0].completion_time == shed[0].submit_time  # answered on arrival
        assert server.admission_stats.shed == 1
        assert sum(1 for r in responses if not r.shed) == 2
