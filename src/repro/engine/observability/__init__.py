"""Flight-recorder observability for the serving engine.

Three coordinated facilities, bundled behind one :class:`Observability` hub
that the engine owns:

* :mod:`~repro.engine.observability.tracing` — one :class:`Trace` per flush
  (a top-up is one) with a :class:`Span` per pipeline stage and per
  execute work unit; process-backend spans are measured inside the worker
  and shipped back with the answers, so a single flush yields one coherent
  tree that crosses the process boundary.  Export as JSON or a rendered waterfall.
* :mod:`~repro.engine.observability.metrics` — a thread-safe
  :class:`MetricsRegistry` of counters, gauges, and fixed-bucket histograms
  (p50/p95/p99) with Prometheus-text and JSON exporters.  ``EngineStats``
  is re-derived from the registry's counters, so the two can never drift.
* :mod:`~repro.engine.observability.audit` — the durable ε-audit stream:
  an append-only JSON-lines :class:`AuditLog` recording every privacy-state
  mutation with enough ids to reconstruct who spent what under which flush.

Cost discipline: everything is **off-by-default cheap**.  A disabled hub
returns ``None`` from :meth:`Observability.start_trace`, the pipeline's
hooks reduce to one branch each, and the engine's counters go through the
registry either way (a counter increment under an uncontended lock — the
same cost as the plain-int-under-lock scheme it replaces).  The benchmark
(``perfbench/``) times the serving path with the hub disabled.

ε-audit event schema
====================

Each :class:`AuditLog` line is one JSON object.  Common fields:

``event``
    One of ``"charge"``, ``"rollback"``, ``"refusal"``, ``"expired"``,
    ``"scope_open"``, ``"scope_close"``, ``"top_up"``.
``ts`` / ``seq``
    Epoch-seconds timestamp and a monotonically increasing sequence number
    (assigned under the log's lock — ``seq`` totally orders the stream).
``trace_id``
    Id of the pipeline :class:`Trace` whose run caused the mutation
    (ambient; present whenever tracing is enabled for the run).
``ticket_id`` / ``client_id``
    The query ticket and session owner, when the mutation is attributable
    to one (charges/rollbacks/refusals/top-ups during a flush).

Per-event fields:

``charge``
    ``label`` (accountant operation label), ``epsilon`` (amount charged),
    ``spent`` / ``remaining`` (ledger totals after the charge).
``rollback``
    ``label``, ``epsilon`` (amount refunded), ``spent`` / ``remaining``
    (totals after the refund).
``refusal``
    ``epsilon`` (amount that was requested), ``error`` (truncated reason).
``expired``
    ``epsilon`` (amount that was *not* charged — the ticket's deadline
    passed before its charge stage, so the drop is free by construction).
``scope_open``
    ``scope`` (scope label), ``epsilon`` (reservation charged up front).
``scope_close``
    ``scope``, ``spent`` (ε consumed inside the scope), ``refunded``
    (unused reservation returned to the parent).
``top_up``
    ``label`` (the charge's label), ``epsilon`` (incremental ε spent),
    ``draws`` (measurements the cached entry holds after the top-up).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .audit import AuditLog, read_audit_events
from .metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import Span, Trace, Tracer

__all__ = [
    "AuditLog",
    "Counter",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Trace",
    "Tracer",
    "read_audit_events",
]


class Observability:
    """The engine's observability hub: metrics + tracing + ε-audit.

    Parameters
    ----------
    enabled:
        Master switch for tracing and distribution metrics.  The engine's
        aggregate counters always flow through :attr:`metrics` (they back
        ``EngineStats``), but histograms, traces, and hook-side work are
        taken only when ``enabled``.
    metrics / tracer / audit:
        Optional pre-built components (shared registries, test doubles).
        Missing ones are constructed with defaults; ``audit`` defaults to
        ``None`` unless ``audit_path`` is given — the audit stream is
        opt-in independently of ``enabled``.
    audit_path:
        Convenience: build an :class:`AuditLog` appending to this path.
    trace_capacity:
        Ring-buffer size of the tracer built when none is supplied.
    """

    def __init__(
        self,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        audit: Optional[AuditLog] = None,
        audit_path: Optional[str] = None,
        trace_capacity: int = 256,
    ) -> None:
        self.enabled = bool(enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(capacity=trace_capacity)
        if audit is None and audit_path is not None:
            audit = AuditLog(path=audit_path)
        self.audit = audit

    def start_trace(self, name: str, **attributes) -> Optional[Trace]:
        """Open a trace when enabled; the single branch a disabled hook takes."""
        if not self.enabled:
            return None
        return self.tracer.start_trace(name, **attributes)

    @contextmanager
    def request_context(self, name: str = "request", **fields):
        """Per-request trace + ambient ε-audit attribution for front-ends.

        The HTTP serving tier wraps each request in this: ``fields``
        (``request_id`` from the ``X-Request-Id`` header, ``client_id``,
        method/path) become trace attributes, and — when the audit stream is
        bound — ambient :meth:`AuditLog.context` fields, so every charge,
        refusal or scope event the request causes carries the request that
        caused it.  ``None``-valued fields are dropped rather than stacked
        (an absent header must not mask an outer context).  Yields the
        request :class:`Trace`, or ``None`` when tracing is disabled; the
        trace is finished on exit either way.
        """
        present = {key: value for key, value in fields.items() if value is not None}
        trace = self.start_trace(name, **present)
        try:
            if self.audit is not None and present:
                with self.audit.context(**present):
                    yield trace
            else:
                yield trace
        finally:
            if trace is not None:
                trace.finish()

    def close(self) -> None:
        """Release owned resources (the audit file handle)."""
        if self.audit is not None:
            self.audit.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Observability(enabled={self.enabled}, "
            f"audit={'on' if self.audit is not None else 'off'})"
        )
