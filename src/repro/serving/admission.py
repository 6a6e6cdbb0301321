"""Admission control for the bounded ingress queue (overload protection).

The paper's end devices stream samples upward continuously, so a serving
tier must decide what to do when requests arrive faster than the cascade
can drain them.  An unbounded FIFO queue keeps every request but lets
latency grow without bound; a fabric with a bounded ingress queue
(:class:`~repro.serving.fabric.DistributedServingFabric` ``capacity``)
instead consults an :class:`AdmissionPolicy` whenever it is full:

* :class:`RejectNewest` — refuse the arriving request (classic tail-drop
  backpressure; the client sees an explicit rejection and may retry);
* :class:`DropOldest` — evict the head-of-line request to make room (the
  freshest data wins, natural for sensor streams where a stale frame is
  worthless by the time it would be served);
* :class:`ShedToLocalExit` — keep the queue intact and answer the arriving
  request immediately from the *local* exit only, mirroring the paper's
  deployment where the local aggregator can always produce a (less
  confident) answer without the upper tiers.

Two further policies are consulted on *every* offer, not only when the
queue is full (``pre_queue = True``):

* :class:`TokenBucketPolicy` — per-client token buckets: each client may
  burst up to ``burst`` requests and sustain ``rate_rps``; a client out of
  tokens is rejected regardless of queue depth, so one chatty client can
  no longer crowd out the rest;
* :class:`AdaptiveShed` — queue-pressure shedding that *raises the
  local-exit threshold instead of rejecting outright*: past a backlog
  watermark, arriving requests are answered from the local exit when their
  local entropy clears a pressure-interpolated threshold (base threshold at
  the watermark, ``relaxed_threshold`` at a full queue) and queued normally
  otherwise.

Policies are pure decision functions; the fabric interprets the decision
and does all bookkeeping, so policies stay trivially testable.  Aggregate
counts live in :class:`AdmissionStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Protocol

__all__ = [
    "AdmissionOutcome",
    "AdmissionStats",
    "AdmissionPolicy",
    "RejectNewest",
    "DropOldest",
    "ShedToLocalExit",
    "TokenBucketPolicy",
    "AdaptiveShed",
    "admission_policy",
]


class QueueView(Protocol):
    """What a policy may read of the queue it guards."""

    capacity: Optional[int]

    def __len__(self) -> int: ...

    def clock(self) -> float: ...


class AdmissionOutcome(str, Enum):
    """What happened to a request offered to the queue."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    SHED = "shed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class AdmissionStats:
    """Ingress admission counters (exact, never windowed)."""

    accepted: int = 0
    rejected: int = 0
    dropped: int = 0
    shed: int = 0

    @property
    def offered(self) -> int:
        """Every request that knocked: accepted + rejected + shed."""
        return self.accepted + self.rejected + self.shed

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "shed": self.shed,
        }

    @classmethod
    def merged(cls, stats) -> "AdmissionStats":
        """Sum counters across queues/replicas (the balancer's fleet view)."""
        total = cls()
        for item in stats:
            total.accepted += item.accepted
            total.rejected += item.rejected
            total.dropped += item.dropped
            total.shed += item.shed
        return total


class AdmissionPolicy:
    """Decides what a bounded ingress queue does with an arriving request.

    By default ``decide`` is only consulted when the queue is bounded *and*
    full; an unbounded queue accepts everything, preserving the original
    serving behaviour bit for bit.  A policy with ``pre_queue = True`` is
    instead consulted on *every* offer (rate limiting and pressure-based
    shedding need to act before the queue overflows).
    """

    name = "accept"
    #: Consult ``decide`` on every offer, not only when the queue is full.
    pre_queue = False

    def decide(self, queue: QueueView, client_id: str) -> AdmissionOutcome:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RejectNewest(AdmissionPolicy):
    """Tail drop: a full queue refuses the arriving request."""

    name = "reject"

    def decide(self, queue: QueueView, client_id: str) -> AdmissionOutcome:
        return AdmissionOutcome.REJECTED


class DropOldest(AdmissionPolicy):
    """Evict the head-of-line request so the freshest sample is served."""

    name = "drop-oldest"

    def decide(self, queue: QueueView, client_id: str) -> AdmissionOutcome:
        # The fabric interprets ACCEPTED-while-full as "evict the head first".
        return AdmissionOutcome.ACCEPTED


class ShedToLocalExit(AdmissionPolicy):
    """Answer the arriving request from the local exit instead of queueing.

    The queue stays intact; on a ``SHED`` outcome the fabric produces an
    immediate, local-exit-only response — the degraded-but-bounded-latency
    mode of the paper's deployment.
    """

    name = "shed-local"

    def decide(self, queue: QueueView, client_id: str) -> AdmissionOutcome:
        return AdmissionOutcome.SHED


class TokenBucketPolicy(AdmissionPolicy):
    """Per-client token-bucket rate limiting, enforced before the queue.

    Each client owns a bucket holding at most ``burst`` tokens that refills
    continuously at ``rate_rps`` tokens per second (timestamps come from the
    queue's injectable clock, so the limiter is deterministic under test).
    An arriving request consumes one token; a client with an empty bucket is
    rejected no matter how empty the queue is.  When the queue *is* full,
    the request is charged its token only if the ``inner`` full-queue policy
    (default :class:`RejectNewest`) lets it into the system.

    Works on bounded and unbounded queues alike — rate limiting is about
    per-client fairness, not backlog size.
    """

    name = "token-bucket"
    pre_queue = True

    def __init__(
        self,
        rate_rps: float,
        burst: float = 1.0,
        inner: Optional[AdmissionPolicy] = None,
    ) -> None:
        if not rate_rps > 0.0:
            raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
        if not burst >= 1.0:
            raise ValueError(f"burst must be >= 1 token, got {burst}")
        self.rate_rps = float(rate_rps)
        self.burst = float(burst)
        self.inner = inner if inner is not None else RejectNewest()
        #: client_id -> [tokens, last_refill_time]
        self._buckets: Dict[str, list] = {}

    def tokens(self, client_id: str, now: float) -> float:
        """Current token balance of a client's bucket (refilled to ``now``)."""
        bucket = self._buckets.setdefault(client_id, [self.burst, now])
        elapsed = max(now - bucket[1], 0.0)
        bucket[0] = min(bucket[0] + elapsed * self.rate_rps, self.burst)
        bucket[1] = now
        return bucket[0]

    def decide(self, queue: QueueView, client_id: str) -> AdmissionOutcome:
        now = queue.clock()
        if self.tokens(client_id, now) < 1.0:
            return AdmissionOutcome.REJECTED
        if queue.capacity is not None and len(queue) >= queue.capacity:
            outcome = self.inner.decide(queue, client_id)
        else:
            outcome = AdmissionOutcome.ACCEPTED
        if outcome is not AdmissionOutcome.REJECTED:
            self._buckets[client_id][0] -= 1.0
        return outcome

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TokenBucketPolicy(rate_rps={self.rate_rps}, burst={self.burst}, "
            f"inner={self.inner!r})"
        )


class AdaptiveShed(AdmissionPolicy):
    """Shed by raising the local-exit threshold under queue pressure.

    Below ``low_watermark * capacity`` backlog, every request is accepted.
    Above it, arriving requests are *offered* to the local exit: the fabric
    answers them locally when their local-exit entropy is at most the
    pressure-interpolated threshold returned by :meth:`shed_threshold`
    (the cascade's own local threshold right at the watermark, ramping to
    ``relaxed_threshold`` at a full queue) and re-queues them otherwise.
    Nothing is ever rejected outright: at a full queue the threshold
    reaches ``relaxed_threshold`` — 1.0 by default, where *every* pressured
    arrival gets an immediate (degraded-confidence) local answer.

    Requires a bounded queue; pressure is meaningless without a capacity.
    """

    name = "adaptive-shed"
    pre_queue = True

    def __init__(self, low_watermark: float = 0.5, relaxed_threshold: float = 1.0) -> None:
        if not 0.0 <= low_watermark < 1.0:
            raise ValueError(f"low_watermark must be in [0, 1), got {low_watermark}")
        if not 0.0 <= relaxed_threshold <= 1.0:
            raise ValueError(
                f"relaxed_threshold must be in [0, 1], got {relaxed_threshold}"
            )
        self.low_watermark = float(low_watermark)
        self.relaxed_threshold = float(relaxed_threshold)

    def _pressure(self, queue: QueueView) -> float:
        if queue.capacity is None:
            raise ValueError("AdaptiveShed requires a bounded queue (set capacity)")
        trigger = self.low_watermark * queue.capacity
        if queue.capacity <= trigger:
            return 1.0
        return min(max((len(queue) - trigger) / (queue.capacity - trigger), 0.0), 1.0)

    def shed_threshold(self, queue: QueueView, base_threshold: float) -> float:
        """Effective local-exit entropy bound for shedding at current pressure."""
        pressure = self._pressure(queue)
        ceiling = max(self.relaxed_threshold, base_threshold)
        return base_threshold + pressure * (ceiling - base_threshold)

    def decide(self, queue: QueueView, client_id: str) -> AdmissionOutcome:
        if self._pressure(queue) > 0.0:
            return AdmissionOutcome.SHED
        return AdmissionOutcome.ACCEPTED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveShed(low_watermark={self.low_watermark}, "
            f"relaxed_threshold={self.relaxed_threshold})"
        )


#: Policy name -> class, for CLI/config wiring.
ADMISSION_POLICIES = {
    RejectNewest.name: RejectNewest,
    DropOldest.name: DropOldest,
    ShedToLocalExit.name: ShedToLocalExit,
    TokenBucketPolicy.name: TokenBucketPolicy,
    AdaptiveShed.name: AdaptiveShed,
}


def admission_policy(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate an admission policy by its registry name.

    Keyword arguments are forwarded to the policy constructor (e.g.
    ``admission_policy("token-bucket", rate_rps=50.0, burst=10)``).
    """
    try:
        policy_class = ADMISSION_POLICIES[name]
    except KeyError as error:
        raise ValueError(
            f"unknown admission policy '{name}' (have {sorted(ADMISSION_POLICIES)})"
        ) from error
    return policy_class(**kwargs)
