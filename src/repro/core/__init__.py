"""``repro.core`` — the DDNN framework (the paper's primary contribution).

Public surface:

* :class:`DDNNConfig`, :class:`TrainingConfig`, :class:`DDNNTopology` —
  architecture and training hyper-parameters;
* :func:`build_ddnn` / :class:`DDNN` — the multi-exit, multi-device model;
* aggregation schemes (MP / AP / CC);
* :class:`ExitCriterion` and :func:`normalized_entropy` — the confidence rule;
* :class:`DDNNTrainer` — joint multi-exit training;
* :class:`ExitCascade` — the cascade's thresholds, criteria and Eq. 1
  accounting, shared by every cascade consumer;
* :class:`ExitOracle` — the offline forward-and-route path: a forward-once
  logit cache with routing, vectorized threshold sweeps, exit-rate quantile
  calibration and accuracy reports;
* :class:`StagedInferenceEngine` — threshold-based inference (capture then
  route);
* :class:`CommunicationModel` — the paper's Eq. 1 byte accounting;
* threshold search and accuracy reporting helpers.
"""

from .accuracy import AccuracyReport, evaluate_exit_accuracies, evaluate_overall, full_accuracy_report
from .cascade import ExitCascade, build_exit_criteria, normalize_thresholds
from .aggregation import (
    AGGREGATION_SCHEMES,
    Aggregator,
    AveragePoolAggregator,
    ConcatAggregator,
    MaxPoolAggregator,
    make_aggregator,
)
from .communication import (
    CommunicationModel,
    ddnn_communication_bytes,
    raw_offload_bytes,
)
from .config import DDNNConfig, DDNNTopology, TrainingConfig
from .ddnn import DDNN, CloudModel, DDNNOutput, DeviceBranch, EdgeModel, build_ddnn
from .exits import ExitCriterion, ExitDecision, normalized_entropy, softmax_probabilities
from .inference import InferenceResult, StagedInferenceEngine
from .oracle import ExitOracle, SweepPoint, SweepTable
from .threshold import (
    ThresholdCandidate,
    ThresholdSearchResult,
    search_threshold,
    threshold_for_exit_rate,
)
from .training import DDNNTrainer, EpochStats, TrainingHistory, train_ddnn

__all__ = [
    "DDNNConfig",
    "DDNNTopology",
    "TrainingConfig",
    "DDNN",
    "DDNNOutput",
    "DeviceBranch",
    "EdgeModel",
    "CloudModel",
    "build_ddnn",
    "Aggregator",
    "MaxPoolAggregator",
    "AveragePoolAggregator",
    "ConcatAggregator",
    "make_aggregator",
    "AGGREGATION_SCHEMES",
    "ExitCriterion",
    "ExitDecision",
    "normalized_entropy",
    "softmax_probabilities",
    "ExitCascade",
    "normalize_thresholds",
    "build_exit_criteria",
    "DDNNTrainer",
    "EpochStats",
    "TrainingHistory",
    "train_ddnn",
    "StagedInferenceEngine",
    "InferenceResult",
    "ExitOracle",
    "SweepPoint",
    "SweepTable",
    "CommunicationModel",
    "ddnn_communication_bytes",
    "raw_offload_bytes",
    "ThresholdCandidate",
    "ThresholdSearchResult",
    "search_threshold",
    "threshold_for_exit_rate",
    "AccuracyReport",
    "evaluate_exit_accuracies",
    "evaluate_overall",
    "full_accuracy_report",
]
