"""The entropy-threshold cascade's rules (paper Sections III-D/F).

The entropy-threshold cascade is the heart of DDNN inference: each sample
travels up the exit hierarchy (local -> edge -> cloud) and leaves at the
first exit whose normalized entropy is at or below that exit's threshold;
the final exit always classifies whatever reaches it.

This module holds the rules every cascade consumer shares — the offline
:class:`~repro.core.oracle.ExitOracle` (behind
:class:`~repro.core.inference.StagedInferenceEngine`), the
:class:`~repro.hierarchy.runtime.HierarchyRuntime` and the online
:class:`~repro.serving.fabric.DistributedServingFabric`:

* :func:`normalize_thresholds` — threshold broadcasting/validation rules;
* :func:`build_exit_criteria` — thresholds -> :class:`ExitCriterion` list;
* :class:`ExitCascade` — the criteria and exit names, plus optional Eq. 1
  communication accounting.

The routing itself — first exit at or below its threshold, final exit
forced — is :func:`~repro.core.exits.first_exits` offline and the
fabric's per-tier completion step online.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from .communication import CommunicationModel
from .exits import ExitCriterion

__all__ = [
    "Thresholds",
    "normalize_thresholds",
    "build_exit_criteria",
    "ExitCascade",
]

#: A single broadcast threshold or one value per (non-final) exit.
Thresholds = Union[float, Sequence[float]]


def _validate_threshold_value(value) -> float:
    """One threshold: a real, non-negative, non-NaN number (bools rejected)."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(
            f"thresholds must be numbers, got bool {value!r} — "
            "True/False silently coercing to 1.0/0.0 is almost never intended"
        )
    value = float(value)
    if np.isnan(value):
        raise ValueError("thresholds must not be NaN")
    if value < 0.0:
        raise ValueError(f"thresholds must be >= 0 (normalized entropy scale), got {value}")
    return value


def normalize_thresholds(thresholds: Thresholds, num_exits: int) -> List[float]:
    """Normalize user-supplied thresholds to one value per exit.

    Rules (identical for every cascade consumer —
    :class:`~repro.core.inference.StagedInferenceEngine`,
    :class:`~repro.hierarchy.runtime.HierarchyRuntime` and
    :class:`~repro.serving.fabric.DistributedServingFabric`):

    * a single float is broadcast to every exit;
    * a sequence may carry ``num_exits - 1`` values (one per non-final
      exit) or ``num_exits`` values; anything else is a :class:`ValueError`;
    * booleans, NaN and negative values are rejected with a
      :class:`ValueError` (a bool would silently coerce to 0.0/1.0, and a
      NaN threshold would make every exit comparison False);
    * the final exit's threshold is always forced to ``1.0`` because the
      last exit classifies every sample that reaches it.
    """
    if num_exits < 1:
        raise ValueError("a cascade needs at least one exit")
    if isinstance(thresholds, (bool, np.bool_)) or (
        isinstance(thresholds, (int, float, np.integer, np.floating))
    ):
        values = [_validate_threshold_value(thresholds)] * num_exits
    else:
        values = [_validate_threshold_value(t) for t in thresholds]
        if len(values) == num_exits - 1:
            values = values + [1.0]
        if len(values) != num_exits:
            raise ValueError(
                f"expected {num_exits - 1} or {num_exits} thresholds, got {len(values)}"
            )
    values[-1] = 1.0
    return values


def build_exit_criteria(thresholds: Thresholds, exit_names: Sequence[str]) -> List[ExitCriterion]:
    """Build one :class:`ExitCriterion` per exit from raw thresholds."""
    values = normalize_thresholds(thresholds, len(exit_names))
    return [ExitCriterion(value, name=name) for value, name in zip(values, exit_names)]


class ExitCascade:
    """The staged entropy-threshold cascade's criteria and accounting.

    Parameters
    ----------
    thresholds:
        One threshold per (non-final) exit, or a single broadcast float —
        see :func:`normalize_thresholds`.
    exit_names:
        Exit names in cascade order (e.g. ``["local", "cloud"]``).
    communication:
        Optional :class:`CommunicationModel` so the cascade can also account
        the per-device bytes implied by a local exit rate (paper Eq. 1).
    """

    def __init__(
        self,
        thresholds: Thresholds,
        exit_names: Sequence[str],
        communication: Optional[CommunicationModel] = None,
    ) -> None:
        self.exit_names = list(exit_names)
        self.criteria = build_exit_criteria(thresholds, self.exit_names)
        self.communication = communication

    @classmethod
    def for_model(cls, model, thresholds: Thresholds) -> "ExitCascade":
        """Build a cascade matching a :class:`~repro.core.ddnn.DDNN`'s exits."""
        return cls(thresholds, model.exit_names, CommunicationModel(model.config))

    @property
    def num_exits(self) -> int:
        return len(self.criteria)

    @property
    def thresholds(self) -> List[float]:
        """The normalized per-exit thresholds (final always 1.0)."""
        return [criterion.threshold for criterion in self.criteria]

    # ------------------------------------------------------------------ #
    def per_device_bytes(self, local_exit_fraction: float) -> float:
        """Average per-device bytes per sample implied by a local exit rate."""
        if self.communication is None:
            raise ValueError("this cascade was built without a CommunicationModel")
        return self.communication.per_device_bytes(local_exit_fraction)

    def communication_reduction(self, local_exit_fraction: float) -> float:
        """Reduction factor versus offloading the raw sensor input."""
        if self.communication is None:
            raise ValueError("this cascade was built without a CommunicationModel")
        return self.communication.reduction_factor(local_exit_fraction)
