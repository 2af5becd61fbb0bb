"""Admission control for the serving edge: shed load before ε is touched.

The serving tier's overload discipline mirrors the isolation-of-paths idea
the HTAP literature applies to ingest vs analytics: *admission* is isolated
from *execution*, so a flood of submits degrades into fast, cheap shed
responses at the door instead of corrupting latency — or budget — for the
work already admitted.  Everything in this module runs **before**
``engine.submit``: a shed query never creates a ticket, never joins a
flush, and never reaches the charge stage, so its ε cost is exactly zero
(asserted by a durable-ledger byte-compare in
``tests/engine/test_overload.py``).

Three independent limits, checked in order:

* **draining** — the app flipped readiness (SIGTERM/``aclose``): every
  submit sheds with 503 while in-flight work completes.
* **pending queue bound** — the engine's pending queue reached
  ``max_pending``: 503, the server as a whole is saturated.
* **global in-flight cap** — ``max_inflight`` admitted-but-unresolved
  tickets exist across all clients: 503.  Released by a
  :class:`TicketWaiter` attached to each admitted ticket, so every
  terminal path (answered, refused, expired, cancelled) frees the slot
  exactly once.
* **per-client token bucket** — ``client_rate``/``client_burst``: 429,
  this *client* is over its rate while the server may be fine.

Shed responses carry ``Retry-After`` computed from the observed flush
latency (an EWMA fed by the async front-end's flusher thread): the honest
"come back when a flush slot has likely turned over" hint, not a constant.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..waiters import TicketWaiter

__all__ = ["AdmissionController", "ShedDecision", "TokenBucket"]

#: Slack when comparing a refilled bucket against one whole token.  Times
#: are float seconds, so at large clock origins ``(t + 0.1) - t`` rounds to
#: just under 0.1 and one full refill period would otherwise leave
#: 0.999... tokens.  The slack is far below any real refill increment.
_TOKEN_SLACK = 1e-9


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Lazily refilled on each :meth:`try_acquire` from a monotonic clock, so
    idle buckets cost nothing.  Thread-safe; one bucket per client.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_lock")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"token bucket rate and burst must be positive, got "
                f"rate={rate}, burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, now: Optional[float] = None) -> bool:
        """Take one token; ``False`` when the bucket is dry."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            elapsed = max(0.0, now - self._updated)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._updated = now
            if self._tokens >= 1.0 - _TOKEN_SLACK:
                self._tokens -= 1.0
                return True
            return False


@dataclass
class ShedDecision:
    """Why a submit was shed, plus the retry hint the edge should emit."""

    #: HTTP status the edge maps this to: 429 (client over rate) or 503
    #: (server saturated / draining).
    status: int
    #: Machine-readable reason: ``rate_limited``, ``queue_full``,
    #: ``inflight_cap`` or ``draining``.
    reason: str
    #: Human-readable explanation for the error payload.
    message: str
    #: Suggested wait before retrying, seconds (float; the edge also emits
    #: the integer-ceiling ``Retry-After`` header from it).
    retry_after: float


class _ReleaseWaiter(TicketWaiter):
    """Frees one in-flight slot when its admitted ticket resolves.

    The lifecycle latch delivers ``notify`` exactly once per waiter, so the
    slot cannot double-free no matter which path (answer, refusal, expiry,
    cancellation) resolves the ticket.
    """

    __slots__ = ("_controller",)

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller

    def notify(self) -> None:
        self._controller._release_inflight()


class AdmissionController:
    """Pre-submit gate: bounded queue, in-flight cap, per-client rate limit.

    Parameters
    ----------
    engine:
        The served engine — consulted for ``pending_count`` (the bounded
        admission queue is the engine's own pending queue, bounded here at
        the edge) and for the metrics registry the shed counters live in.
    max_pending:
        Pending-queue depth beyond which submits shed with 503.
    max_inflight:
        Admitted-but-unresolved tickets (across all clients) beyond which
        submits shed with 503.
    client_rate / client_burst:
        Per-client token bucket: sustained queries/second and burst
        capacity.  ``client_rate=None`` disables per-client limiting.
    """

    def __init__(
        self,
        engine,
        max_pending: int = 256,
        max_inflight: int = 1024,
        client_rate: Optional[float] = None,
        client_burst: Optional[float] = None,
    ) -> None:
        if max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self._engine = engine
        self.max_pending = int(max_pending)
        self.max_inflight = int(max_inflight)
        self.client_rate = None if client_rate is None else float(client_rate)
        self.client_burst = float(
            client_burst if client_burst is not None else (client_rate or 1.0)
        )
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # EWMA of observed flush latency, fed by the async front-end's
        # flusher thread (single writer; readers take the float atomically).
        # Seeds at zero: until a flush has been observed the retry hint
        # falls back to the floor below.
        self._flush_ewma = 0.0
        #: Floor for Retry-After so a cold server never suggests 0 s.
        self.min_retry_after = 0.05
        metrics = engine.observability.metrics
        self._c_shed = {
            reason: metrics.counter(
                "serving_shed_total",
                "Submits shed at the admission edge before any epsilon was touched",
                reason=reason,
            )
            for reason in ("rate_limited", "queue_full", "inflight_cap", "draining")
        }
        self._g_inflight = metrics.gauge(
            "serving_inflight_tickets",
            "Admitted-but-unresolved tickets counted by admission control",
        )

    # -------------------------------------------------------------- admission
    def admit(self, client_id: str, draining: bool = False) -> Optional[ShedDecision]:
        """Check every limit; ``None`` admits, a :class:`ShedDecision` sheds.

        Order matters: drain beats saturation beats rate — the most global
        condition wins, so a drained server answers 503 even to a client
        with a full token bucket.
        """
        if draining:
            return self._shed(
                503,
                "draining",
                "server is draining: no new queries are admitted",
            )
        if self._engine.pending_count >= self.max_pending:
            return self._shed(
                503,
                "queue_full",
                f"pending queue is full ({self.max_pending} queries waiting)",
            )
        with self._inflight_lock:
            saturated = self._inflight >= self.max_inflight
        if saturated:
            return self._shed(
                503,
                "inflight_cap",
                f"too many queries in flight ({self.max_inflight})",
            )
        if self.client_rate is not None:
            with self._buckets_lock:
                bucket = self._buckets.get(client_id)
                if bucket is None:
                    bucket = self._buckets[client_id] = TokenBucket(
                        self.client_rate, self.client_burst
                    )
            if not bucket.try_acquire():
                return self._shed(
                    429,
                    "rate_limited",
                    f"client {client_id!r} is over its rate limit "
                    f"({self.client_rate:g}/s, burst {self.client_burst:g})",
                )
        return None

    def register(self, ticket) -> None:
        """Count an admitted ticket in flight until it resolves.

        Attaches a release waiter to the ticket's lifecycle; the latch
        notifies exactly once on any terminal path, so slots never leak and
        never double-free.  A ticket that resolved before registration
        (inline replay) releases immediately via the late-waiter path.
        """
        with self._inflight_lock:
            self._inflight += 1
            self._g_inflight.set(self._inflight)
        ticket.add_waiter(_ReleaseWaiter(self))

    def _release_inflight(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)

    @property
    def inflight(self) -> int:
        """Admitted-but-unresolved tickets currently counted."""
        with self._inflight_lock:
            return self._inflight

    def _shed(self, status: int, reason: str, message: str) -> ShedDecision:
        self._c_shed[reason].inc()
        retry = self.retry_after()
        return ShedDecision(
            status=status,
            reason=reason,
            message=message,
            retry_after=retry,
        )

    # ------------------------------------------------------------- flush hints
    def observe_flush_seconds(self, seconds: float) -> None:
        """Feed one observed flush latency into the Retry-After EWMA.

        Called from the async front-end's flusher thread — a single writer,
        so the read-modify-write needs no lock (readers only take the float).
        """
        if seconds < 0:
            return
        previous = self._flush_ewma
        self._flush_ewma = (
            seconds if previous == 0.0 else 0.8 * previous + 0.2 * seconds
        )

    def retry_after(self) -> float:
        """Suggested retry wait: two observed flush turnovers, floored.

        One flush turnover drains up to a full batch from the pending
        queue; two gives an honestly-loaded server room to work through
        the backlog the shed response is protecting.
        """
        return max(self.min_retry_after, 2.0 * self._flush_ewma)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdmissionController(max_pending={self.max_pending}, "
            f"max_inflight={self.max_inflight}, "
            f"client_rate={self.client_rate}, inflight={self.inflight})"
        )
