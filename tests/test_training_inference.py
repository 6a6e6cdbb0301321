"""Integration-level tests for joint training, staged inference and accuracy measures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DDNNTrainer,
    StagedInferenceEngine,
    TrainingConfig,
    build_ddnn,
    evaluate_exit_accuracies,
    evaluate_overall,
    full_accuracy_report,
    search_threshold,
    threshold_for_exit_rate,
    train_ddnn,
)
from repro.nn import load_module, save_module


class TestDDNNTrainer:
    def test_training_reduces_joint_loss(self, tiny_config, tiny_train):
        model = build_ddnn(tiny_config)
        trainer = DDNNTrainer(model, TrainingConfig(epochs=5, batch_size=32, seed=0))
        history = trainer.fit(tiny_train)
        losses = history.losses()
        assert len(losses) == 5
        assert losses[-1] < losses[0]
        assert history.final_loss == losses[-1]

    def test_epoch_stats_record_exit_accuracy(self, tiny_config, tiny_train):
        model = build_ddnn(tiny_config)
        trainer = DDNNTrainer(model, TrainingConfig(epochs=1, batch_size=32))
        stats = trainer.train_epoch(tiny_train)
        assert set(stats.exit_accuracy) == {"local", "cloud"}
        assert all(0.0 <= value <= 1.0 for value in stats.exit_accuracy.values())

    def test_exit_weights_affect_training(self, tiny_config, tiny_train):
        local_only = build_ddnn(tiny_config)
        trainer = DDNNTrainer(
            local_only,
            TrainingConfig(epochs=3, batch_size=32, exit_weights=(1.0, 0.0), seed=0),
        )
        trainer.fit(tiny_train)
        accuracies = trainer.evaluate_exits(tiny_train)
        # With a zero cloud weight the cloud exit stays near chance while the
        # local exit learns.
        assert accuracies["local"] > accuracies["cloud"] - 0.05

    def test_train_ddnn_helper(self, tiny_config, tiny_train):
        model = build_ddnn(tiny_config)
        trainer = train_ddnn(model, tiny_train, TrainingConfig(epochs=1, batch_size=32))
        assert len(trainer.history.epochs) == 1

    def test_empty_history_raises(self, tiny_config):
        trainer = DDNNTrainer(build_ddnn(tiny_config), TrainingConfig(epochs=1))
        with pytest.raises(ValueError):
            _ = trainer.history.final_loss

    def test_trained_model_beats_chance(self, trained_ddnn, tiny_test):
        accuracies = evaluate_exit_accuracies(trained_ddnn, tiny_test)
        assert accuracies["cloud"] > 1.0 / 3.0
        assert accuracies["local"] > 1.0 / 3.0


class TestStagedInference:
    def test_threshold_one_exits_everything_locally(self, trained_ddnn, tiny_test):
        result = StagedInferenceEngine(trained_ddnn, 1.0).run(tiny_test)
        assert result.local_exit_fraction == 1.0
        assert set(result.exit_indices.tolist()) == {0}

    def test_threshold_zero_sends_everything_to_cloud(self, trained_ddnn, tiny_test):
        result = StagedInferenceEngine(trained_ddnn, 0.0).run(tiny_test)
        assert result.local_exit_fraction == 0.0
        np.testing.assert_array_equal(
            result.predictions, result.exit_predictions["cloud"]
        )

    def test_intermediate_threshold_splits_samples(self, trained_ddnn, tiny_test):
        engine = StagedInferenceEngine(trained_ddnn, 0.8)
        result = engine.run(tiny_test)
        assert 0.0 <= result.local_exit_fraction <= 1.0
        assert result.exit_fraction("local") + result.exit_fraction("cloud") == pytest.approx(1.0)
        # Predictions come from the exit each sample was assigned to.
        local_rows = result.exit_indices == 0
        np.testing.assert_array_equal(
            result.predictions[local_rows], result.exit_predictions["local"][local_rows]
        )

    def test_exit_rate_monotonically_increases_with_threshold(self, trained_ddnn, tiny_test):
        fractions = [
            StagedInferenceEngine(trained_ddnn, t).run(tiny_test).local_exit_fraction
            for t in (0.0, 0.3, 0.6, 0.9, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_communication_decreases_with_threshold(self, trained_ddnn, tiny_test):
        low = StagedInferenceEngine(trained_ddnn, 0.1)
        high = StagedInferenceEngine(trained_ddnn, 0.95)
        assert low.communication_bytes(low.run(tiny_test)) >= high.communication_bytes(
            high.run(tiny_test)
        )

    def test_overall_accuracy_and_per_exit_accuracy(self, trained_ddnn, tiny_test):
        result = StagedInferenceEngine(trained_ddnn, 0.8).run(tiny_test)
        overall = result.overall_accuracy(tiny_test.labels)
        assert 0.0 <= overall <= 1.0
        assert 0.0 <= result.exit_accuracy("cloud", tiny_test.labels) <= 1.0
        exited = result.accuracy_of_exited_samples("local", tiny_test.labels)
        assert np.isnan(exited) or 0.0 <= exited <= 1.0

    def test_targets_captured_from_dataset(self, trained_ddnn, tiny_test):
        result = StagedInferenceEngine(trained_ddnn, 0.5).run(tiny_test)
        assert result.targets is not None
        assert result.overall_accuracy() == result.overall_accuracy(tiny_test.labels)

    def test_threshold_list_validation(self, trained_ddnn):
        with pytest.raises(ValueError):
            StagedInferenceEngine(trained_ddnn, [0.1, 0.2, 0.3, 0.4])

    def test_raw_array_input_requires_explicit_targets(self, trained_ddnn, tiny_test):
        engine = StagedInferenceEngine(trained_ddnn, 0.8)
        result = engine.run(tiny_test.images)
        with pytest.raises(ValueError):
            result.overall_accuracy()

    def test_communication_reduction_factor(self, trained_ddnn, tiny_test):
        engine = StagedInferenceEngine(trained_ddnn, 0.8)
        result = engine.run(tiny_test)
        assert engine.communication_reduction(result) > 1.0


class TestThresholdSearch:
    def test_search_returns_best_candidate(self, trained_ddnn, tiny_test):
        outcome = search_threshold(trained_ddnn, tiny_test, grid=(0.0, 0.5, 1.0))
        assert outcome.best in outcome.candidates
        assert outcome.best.overall_accuracy == max(
            candidate.overall_accuracy for candidate in outcome.candidates
        )
        assert 0.0 <= outcome.best_threshold <= 1.0

    def test_threshold_for_exit_rate_targets_fraction(self, trained_ddnn, tiny_test):
        outcome = threshold_for_exit_rate(
            trained_ddnn, tiny_test, target_fraction=1.0, grid=(0.0, 0.5, 1.0)
        )
        assert outcome.best.local_exit_fraction == pytest.approx(1.0)

    def test_invalid_target_fraction(self, trained_ddnn, tiny_test):
        with pytest.raises(ValueError):
            threshold_for_exit_rate(trained_ddnn, tiny_test, target_fraction=1.5)


class TestAccuracyReports:
    def test_evaluate_overall_produces_full_report(self, trained_ddnn, tiny_test):
        report = evaluate_overall(trained_ddnn, tiny_test, thresholds=0.8)
        assert report.local_accuracy is not None
        assert report.cloud_accuracy is not None
        assert report.edge_accuracy is None
        assert 0.0 <= report.overall_accuracy <= 1.0
        assert report.communication_bytes > 0

    def test_full_report_includes_individual_accuracy(self, trained_ddnn, tiny_test):
        report = full_accuracy_report(
            trained_ddnn, tiny_test, thresholds=0.8, individual_accuracy={0: 0.5}
        )
        payload = report.as_dict()
        assert payload["individual_accuracy"] == {0: 0.5}
        assert "local_accuracy" in payload and "overall_accuracy" in payload


class TestSerializationOfDDNN:
    def test_save_load_preserves_predictions(self, trained_ddnn, tiny_test, tiny_config, tmp_path):
        path = tmp_path / "ddnn.npz"
        save_module(trained_ddnn, path)
        restored = build_ddnn(tiny_config)
        load_module(restored, path)
        restored.eval()
        original = StagedInferenceEngine(trained_ddnn, 0.8).run(tiny_test)
        reloaded = StagedInferenceEngine(restored, 0.8).run(tiny_test)
        np.testing.assert_array_equal(original.predictions, reloaded.predictions)
