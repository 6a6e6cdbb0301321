"""Exit points and the normalized-entropy confidence criterion (paper Sec. III-D).

A sample exits the DDNN at the earliest exit point whose prediction is
confident enough.  Confidence is measured by the *normalized entropy* of the
softmax probability vector,

    eta(x) = - sum_i x_i log(x_i) / log(|C|),

which lies in ``[0, 1]``: values near 0 mean the network is confident, values
near 1 mean it is not.  A sample exits at a point when ``eta <= T`` for that
point's threshold ``T``; the final exit always classifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..nn.tensor import Tensor

__all__ = [
    "normalized_entropy",
    "softmax_probabilities",
    "ExitDecision",
    "ExitCriterion",
    "first_exits",
]


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of a plain array."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=-1, keepdims=True)


def normalized_entropy(probabilities: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Normalized entropy of probability vectors, in ``[0, 1]``.

    Parameters
    ----------
    probabilities:
        Array of shape ``(..., num_classes)`` whose last axis sums to 1.
    eps:
        Numerical floor inside the logarithm so zero probabilities contribute
        zero entropy (the ``0 * log 0 = 0`` convention).
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    num_classes = probabilities.shape[-1]
    if num_classes < 2:
        raise ValueError("normalized entropy requires at least two classes")
    clipped = np.clip(probabilities, eps, 1.0)
    entropy = -np.sum(probabilities * np.log(clipped), axis=-1)
    return entropy / np.log(num_classes)


@dataclass
class ExitDecision:
    """Outcome of applying an exit criterion to a batch of logits.

    Attributes
    ----------
    probabilities:
        Softmax probabilities, shape ``(N, num_classes)``.
    predictions:
        Arg-max class per sample, shape ``(N,)``.
    entropies:
        Normalized entropy per sample, shape ``(N,)``.
    exit_mask:
        Boolean mask of samples confident enough to exit here, shape ``(N,)``.
    """

    probabilities: np.ndarray
    predictions: np.ndarray
    entropies: np.ndarray
    exit_mask: np.ndarray

    @property
    def exit_fraction(self) -> float:
        """Fraction of the batch that exits at this point."""
        if self.exit_mask.size == 0:
            return 0.0
        return float(np.mean(self.exit_mask))


class ExitCriterion:
    """Normalized-entropy threshold rule applied at one exit point.

    Parameters
    ----------
    threshold:
        Threshold ``T`` in ``[0, 1]``.  ``T=0`` exits no samples, ``T=1``
        exits every sample.
    name:
        Optional label (e.g. ``"local"``, ``"edge"``, ``"cloud"``) used in
        reports and telemetry.
    """

    def __init__(self, threshold: float, name: Optional[str] = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
        self.threshold = float(threshold)
        self.name = name or "exit"

    def __repr__(self) -> str:
        return f"ExitCriterion(name={self.name!r}, threshold={self.threshold})"

    def evaluate(self, logits) -> ExitDecision:
        """Apply the criterion to logits (``Tensor`` or ``ndarray``)."""
        if isinstance(logits, Tensor):
            logits = logits.data
        probabilities = softmax_probabilities(logits)
        entropies = normalized_entropy(probabilities)
        predictions = probabilities.argmax(axis=-1)
        exit_mask = entropies <= self.threshold
        return ExitDecision(
            probabilities=probabilities,
            predictions=predictions,
            entropies=entropies,
            exit_mask=exit_mask,
        )

    def with_threshold(self, threshold: float) -> "ExitCriterion":
        """Return a copy with a different threshold."""
        return ExitCriterion(threshold, name=self.name)


def first_exits(entropies: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The cascade rule: each sample's first exit at or below its threshold.

    ``entropies`` is ``(num_exits, N)`` and ``thresholds`` is
    ``(G, num_exits)`` — one threshold setting per row.  The result is the
    ``(G, N)`` int64 index of the exit that classifies each sample under
    each setting.  The final exit claims whatever no earlier exit took,
    whatever its threshold, and a NaN entropy never clears a threshold.
    """
    confident = np.asarray(entropies)[None, :, :] <= np.asarray(thresholds)[:, :, None]
    confident[:, -1, :] = True
    return np.argmax(confident, axis=1).astype(np.int64)


def exit_thresholds_from_sequence(
    thresholds: Sequence[float], names: Optional[Sequence[str]] = None
) -> list:
    """Build a list of :class:`ExitCriterion` from plain thresholds."""
    if names is None:
        names = [f"exit{i}" for i in range(len(thresholds))]
    if len(names) != len(thresholds):
        raise ValueError("names and thresholds must have the same length")
    return [ExitCriterion(t, name=n) for t, n in zip(thresholds, names)]
