"""Dynamic micro-batching policy for the serving fabric's tiers.

Each :class:`~repro.serving.fabric.TierServer` trades latency for throughput
with two knobs:

* ``max_batch_size`` — never run the model on more samples than this;
* ``max_wait_s`` — never hold the head-of-line request longer than this
  waiting for the batch to fill.

A batch is released as soon as it is full, or as soon as the oldest
pending request has waited ``max_wait_s``.  ``max_batch_size=1`` degrades
to sequential (request-at-a-time) serving, which is the baseline the
throughput benchmark compares against.  Batches form in FIFO order (or
earliest-deadline-first when the fabric asks for it).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchingPolicy"]


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs controlling when queued requests are drained into a batch."""

    max_batch_size: int = 32
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_s < 0.0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")

    @classmethod
    def sequential(cls) -> "BatchingPolicy":
        """The batch-size-1 baseline: every request runs alone."""
        return cls(max_batch_size=1, max_wait_s=0.0)
