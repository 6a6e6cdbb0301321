"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    AveragePoolAggregator,
    ConcatAggregator,
    ExitCriterion,
    ExitOracle,
    MaxPoolAggregator,
    ddnn_communication_bytes,
    normalized_entropy,
    raw_offload_bytes,
    softmax_probabilities,
)
from repro.core.exits import first_exits
from repro.nn import Tensor, concatenate, maximum
import repro.nn.functional as F

SETTINGS = settings(max_examples=40, deadline=None)


finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(-50, 50, allow_nan=False),
)


logit_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(2, 6)),
    elements=st.floats(-30, 30, allow_nan=False),
)


class TestTensorProperties:
    @SETTINGS
    @given(finite_arrays)
    def test_addition_is_commutative(self, values):
        a, b = Tensor(values), Tensor(values[::-1].copy())
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @SETTINGS
    @given(finite_arrays)
    def test_sum_backward_gives_all_ones(self, values):
        tensor = Tensor(values, requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(values))

    @SETTINGS
    @given(finite_arrays)
    def test_relu_is_idempotent_and_nonnegative(self, values):
        tensor = Tensor(values)
        once = tensor.relu().data
        twice = Tensor(once).relu().data
        assert (once >= 0).all()
        np.testing.assert_allclose(once, twice)

    @SETTINGS
    @given(finite_arrays)
    def test_sign_ste_produces_unit_magnitude(self, values):
        out = Tensor(values).sign_ste().data
        np.testing.assert_allclose(np.abs(out), np.ones_like(values))

    @SETTINGS
    @given(finite_arrays)
    def test_concatenate_preserves_total_size(self, values):
        a, b = Tensor(values), Tensor(values * 2)
        combined = concatenate([a, b], axis=1)
        assert combined.size == 2 * values.size

    @SETTINGS
    @given(finite_arrays)
    def test_reshape_roundtrip_preserves_values(self, values):
        tensor = Tensor(values)
        roundtrip = tensor.reshape(-1).reshape(*values.shape)
        np.testing.assert_allclose(roundtrip.data, values)


class TestSoftmaxEntropyProperties:
    @SETTINGS
    @given(logit_arrays)
    def test_softmax_is_a_probability_distribution(self, logits):
        probabilities = softmax_probabilities(logits)
        assert (probabilities >= 0).all()
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0, atol=1e-9)

    @SETTINGS
    @given(logit_arrays)
    def test_normalized_entropy_bounded(self, logits):
        entropy = normalized_entropy(softmax_probabilities(logits))
        assert (entropy >= -1e-12).all()
        assert (entropy <= 1.0 + 1e-9).all()

    @SETTINGS
    @given(logit_arrays)
    def test_functional_softmax_matches_plain_numpy(self, logits):
        np.testing.assert_allclose(
            F.softmax(Tensor(logits)).data, softmax_probabilities(logits), atol=1e-9
        )

    @SETTINGS
    @given(st.integers(2, 10))
    def test_uniform_distribution_has_maximal_entropy(self, num_classes):
        uniform = np.full((1, num_classes), 1.0 / num_classes)
        assert normalized_entropy(uniform)[0] == pytest.approx(1.0)


def reference_route(logits, thresholds):
    """Per-sample cascade: walk the exits, stop at the first confident one."""
    criteria = [ExitCriterion(t) for t in list(thresholds)[: len(logits) - 1]] + [ExitCriterion(1.0)]
    routed = []
    for sample in range(logits.shape[1]):
        for index, criterion in enumerate(criteria):
            decision = criterion.evaluate(logits[index, sample : sample + 1])
            if decision.exit_mask[0] or index == len(criteria) - 1:
                routed.append((index, decision.predictions[0], decision.entropies[0]))
                break
    exits, predictions, entropies = zip(*routed)
    return np.array(exits), np.array(predictions), np.array(entropies)


# Logits for 2-3 exits and 1-64 samples.  Small integers make ties and
# uniform (maximal-entropy) rows common.
cascade_logits = st.tuples(st.integers(2, 3), st.integers(1, 64), st.integers(2, 5)).flatmap(
    lambda shape: hnp.arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10)),
    )
)


def cascade_thresholds(data, oracle, count):
    """Thresholds in [0, 1]: the ends, arbitrary values, and values exactly
    equal to an observed entropy (the ``<=`` boundary)."""
    observed = np.minimum(oracle.entropies.ravel(), 1.0).tolist()
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.sampled_from(observed))
    return data.draw(st.lists(value, min_size=count, max_size=count))


class TestCascadeRoutingProperties:
    @SETTINGS
    @given(cascade_logits, st.data())
    def test_route_and_first_exits_match_per_sample_reference(self, logits, data):
        oracle = ExitOracle(logits, [f"exit{i}" for i in range(len(logits))])
        thresholds = cascade_thresholds(data, oracle, len(logits) - 1)
        exits, predictions, entropies = reference_route(logits, thresholds)
        matrix = np.array([thresholds + [data.draw(st.floats(0.0, 1.0))]])
        np.testing.assert_array_equal(first_exits(oracle.entropies, matrix)[0], exits)
        routed = oracle.route(thresholds)
        np.testing.assert_array_equal(routed.exit_indices, exits)
        np.testing.assert_array_equal(routed.predictions, predictions)
        np.testing.assert_array_equal(routed.entropies, entropies)

    @SETTINGS
    @given(cascade_logits, st.data())
    def test_sweep_matches_per_sample_reference(self, logits, data):
        targets = data.draw(
            hnp.arrays(np.int64, logits.shape[1], elements=st.integers(0, logits.shape[2] - 1))
        )
        oracle = ExitOracle(logits, [f"exit{i}" for i in range(len(logits))], targets=targets)
        grid = cascade_thresholds(data, oracle, data.draw(st.integers(1, 5)))
        table = oracle.sweep(grid)
        for row, threshold in enumerate(grid):
            exits, predictions, _ = reference_route(logits, [threshold] * (len(logits) - 1))
            assert table.overall_accuracy[row] == np.mean(predictions == targets)
            for index in range(len(logits)):
                assert table.exit_fractions[row, index] == np.mean(exits == index)


aggregator_inputs = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.just(n), st.integers(1, 4), st.integers(2, 6)),
            elements=st.floats(-20, 20, allow_nan=False),
        ),
    )
)


class TestAggregatorProperties:
    @SETTINGS
    @given(aggregator_inputs)
    def test_max_pool_is_permutation_invariant(self, data):
        count, stacked = data
        tensors = [Tensor(stacked[i]) for i in range(count)]
        aggregator = MaxPoolAggregator(count)
        forward = aggregator(tensors).data
        reverse = aggregator(list(reversed(tensors))).data
        np.testing.assert_allclose(forward, reverse)

    @SETTINGS
    @given(aggregator_inputs)
    def test_average_pool_is_permutation_invariant_and_bounded(self, data):
        count, stacked = data
        tensors = [Tensor(stacked[i]) for i in range(count)]
        aggregator = AveragePoolAggregator(count)
        fused = aggregator(tensors).data
        np.testing.assert_allclose(fused, aggregator(list(reversed(tensors))).data)
        assert (fused <= stacked.max(axis=0) + 1e-9).all()
        assert (fused >= stacked.min(axis=0) - 1e-9).all()

    @SETTINGS
    @given(aggregator_inputs)
    def test_max_pool_dominates_average_pool(self, data):
        count, stacked = data
        tensors = [Tensor(stacked[i]) for i in range(count)]
        maximum_fused = MaxPoolAggregator(count)(tensors).data
        average_fused = AveragePoolAggregator(count)(tensors).data
        assert (maximum_fused >= average_fused - 1e-9).all()

    @SETTINGS
    @given(aggregator_inputs)
    def test_concat_preserves_every_input(self, data):
        count, stacked = data
        tensors = [Tensor(stacked[i]) for i in range(count)]
        fused = ConcatAggregator(count)(tensors).data
        width = stacked.shape[2]
        for index in range(count):
            np.testing.assert_allclose(fused[:, index * width : (index + 1) * width], stacked[index])

    @SETTINGS
    @given(aggregator_inputs)
    def test_identical_inputs_are_fixed_points_of_pooling(self, data):
        count, stacked = data
        same = [Tensor(stacked[0]) for _ in range(count)]
        np.testing.assert_allclose(MaxPoolAggregator(count)(same).data, stacked[0])
        np.testing.assert_allclose(AveragePoolAggregator(count)(same).data, stacked[0], atol=1e-9)

    @SETTINGS
    @given(aggregator_inputs)
    def test_maximum_helper_matches_numpy_reduce(self, data):
        count, stacked = data
        tensors = [Tensor(stacked[i]) for i in range(count)]
        np.testing.assert_allclose(maximum(tensors).data, np.maximum.reduce(stacked))


class TestCommunicationProperties:
    @SETTINGS
    @given(
        st.integers(2, 20),
        st.floats(0.0, 1.0),
        st.integers(1, 64),
        st.integers(1, 1024),
    )
    def test_cost_bounded_by_extremes(self, num_classes, fraction, filters, elements):
        cost = ddnn_communication_bytes(num_classes, fraction, filters, elements)
        low = ddnn_communication_bytes(num_classes, 1.0, filters, elements)
        high = ddnn_communication_bytes(num_classes, 0.0, filters, elements)
        assert low - 1e-9 <= cost <= high + 1e-9

    @SETTINGS
    @given(
        st.integers(2, 20),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(1, 64),
        st.integers(1, 1024),
    )
    def test_cost_monotone_in_exit_fraction(self, num_classes, f1, f2, filters, elements):
        low, high = sorted((f1, f2))
        assert ddnn_communication_bytes(num_classes, high, filters, elements) <= (
            ddnn_communication_bytes(num_classes, low, filters, elements) + 1e-9
        )

    @SETTINGS
    @given(st.integers(1, 4), st.integers(8, 64))
    def test_raw_offload_scales_linearly(self, channels, size):
        assert raw_offload_bytes(channels, size) == channels * size * size


class TestConvolutionProperties:
    @SETTINGS
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(4, 8), st.integers(4, 8)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_conv_with_zero_kernel_is_zero(self, images):
        channels = images.shape[1]
        kernel = np.zeros((2, channels, 3, 3))
        out = F.conv2d(Tensor(images), Tensor(kernel), stride=1, padding=1)
        np.testing.assert_allclose(out.data, 0.0)

    @SETTINGS
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(4, 8), st.integers(4, 8)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_conv_is_linear_in_input(self, images):
        channels = images.shape[1]
        rng = np.random.default_rng(0)
        kernel = Tensor(rng.standard_normal((2, channels, 3, 3)))
        single = F.conv2d(Tensor(images), kernel, stride=1, padding=1).data
        doubled = F.conv2d(Tensor(2 * images), kernel, stride=1, padding=1).data
        np.testing.assert_allclose(doubled, 2 * single, atol=1e-8)

    @SETTINGS
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(4, 10), st.integers(4, 10)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_max_pool_never_below_avg_pool(self, images):
        maximum_pooled = F.max_pool2d(Tensor(images), 2, stride=2).data
        average_pooled = F.avg_pool2d(Tensor(images), 2, stride=2).data
        assert (maximum_pooled >= average_pooled - 1e-9).all()


class TestDatasetProperties:
    @SETTINGS
    @given(st.integers(1, 30), st.integers(0, 1000))
    def test_generated_dataset_invariants(self, num_samples, seed):
        from repro.datasets import generate_mvmc

        dataset = generate_mvmc(num_samples, seed=seed)
        assert len(dataset) == num_samples
        assert dataset.images.min() >= 0.0 and dataset.images.max() <= 1.0
        # Per-device labels are either -1 or the sample's own label.
        for index in range(num_samples):
            labels = set(dataset.device_labels[index]) - {-1}
            assert labels.issubset({dataset.labels[index]})
        # Each sample is seen by at least one device.
        assert dataset.presence().any(axis=1).all()
