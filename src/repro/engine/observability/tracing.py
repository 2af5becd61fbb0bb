"""Per-flush tracing: one :class:`Trace` per flush, spans per stage/unit.

A trace is the flight recorder of a single pipeline run: the
:class:`~repro.engine.FlushPipeline` opens one per flush, adds one
:class:`Span` per pipeline stage (plan/charge/execute/resolve, one set per
round) and one per execute work unit, and the process backend ships
**worker-measured** spans back with the answers (piggybacked on the PR 5
kernel-seconds return channel), so a single flush yields a coherent tree
spanning the parent and worker processes.

Clocks: span boundaries are ``time.time()`` epoch seconds — the one clock a
parent and a spawned worker process share — so worker spans nest correctly
under their parent-measured unit spans.  (Durations the cost model consumes
stay ``perf_counter``-based; tracing never feeds routing.)

Traces are thread-safe (concurrent flushes each hold their *own* trace, but
the execute stage may resolve futures from several threads) and exportable
two ways: :meth:`Trace.to_dict`/:meth:`Trace.to_json` produce the nested
span tree, :meth:`Trace.waterfall` renders an aligned ASCII timeline for
terminals and logs.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Union

__all__ = ["Span", "Trace", "Tracer"]


class Span:
    """One timed operation inside a trace (epoch-seconds boundaries)."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attributes")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        end: float,
        attributes: dict,
    ) -> None:
        self.name = str(name)
        self.span_id = int(span_id)
        self.parent_id = parent_id
        self.start = float(start)
        self.end = float(end)
        self.attributes = dict(attributes)

    @property
    def duration(self) -> float:
        """Span wall-clock in seconds (never negative)."""
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms)"


class Trace:
    """One flush's span tree; created via :meth:`Tracer.start_trace`."""

    def __init__(
        self,
        trace_id: str,
        name: str,
        tracer: Optional["Tracer"] = None,
        attributes: Optional[dict] = None,
    ) -> None:
        self.trace_id = str(trace_id)
        self.name = str(name)
        self.attributes = dict(attributes or {})
        self.start = time.time()
        self.end: Optional[float] = None
        self._tracer = tracer
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._span_ids = itertools.count(1)

    # ----------------------------------------------------------------- spans
    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Union[Span, int, None] = None,
        **attributes,
    ) -> Span:
        """Record an externally measured span (worker spans, stage spans)."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(name, next(self._span_ids), parent_id, start, end, attributes)
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: Union[Span, int, None] = None, **attributes):
        """Measure a block as a span: ``with trace.span("plan"): ...``."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        started = time.time()
        span = Span(name, next(self._span_ids), parent_id, started, started, attributes)
        try:
            yield span
        finally:
            span.end = time.time()
            with self._lock:
                self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        """Snapshot of the recorded spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> List[Span]:
        """Every span named ``name`` (test/assertion helper)."""
        return [span for span in self.spans if span.name == name]

    # -------------------------------------------------------------- lifecycle
    def finish(self) -> "Trace":
        """Close the trace (idempotent) and hand it to the owning tracer."""
        if self.end is None:
            self.end = time.time()
            if self._tracer is not None:
                self._tracer._complete(self)
        return self

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else time.time()
        return max(0.0, end - self.start)

    # -------------------------------------------------------------- exporters
    def to_dict(self) -> dict:
        """The nested span tree (children grouped under their parents)."""
        spans = self.spans
        nodes: Dict[int, dict] = {span.span_id: span.to_dict() for span in spans}
        for node in nodes.values():
            node["children"] = []
        roots: List[dict] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id is not None else None
            (parent["children"] if parent is not None else roots).append(node)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "spans": roots,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    def waterfall(self, width: int = 56) -> str:
        """ASCII waterfall: tree-indented spans on a shared timeline."""
        spans = self.spans
        end = self.end if self.end is not None else time.time()
        for span in spans:  # a worker clock may run past the parent's finish
            end = max(end, span.end)
        total = max(end - self.start, 1e-9)
        header = (
            f"trace {self.trace_id} ({self.name}): "
            f"{total * 1e3:.2f} ms, {len(spans)} spans"
        )
        lines = [header]
        children: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)

        def render(span: Span, depth: int) -> None:
            offset = int((span.start - self.start) / total * width)
            offset = min(max(offset, 0), width - 1)
            length = max(1, int(span.duration / total * width))
            length = min(length, width - offset)
            bar = " " * offset + "#" * length
            label = ("  " * depth) + span.name
            lines.append(
                f"  {label:<22.22s} |{bar:<{width}s}| {span.duration * 1e3:9.3f} ms"
            )
            for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
                render(child, depth + 1)

        for root in sorted(children.get(None, []), key=lambda s: s.start):
            render(root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace({self.trace_id!r}, name={self.name!r}, "
            f"spans={len(self.spans)}, finished={self.end is not None})"
        )


class Tracer:
    """Factory and bounded ring buffer of completed traces."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._lock = threading.Lock()
        self._completed: "deque[Trace]" = deque(maxlen=int(capacity))
        self._trace_ids = itertools.count(1)

    def start_trace(self, name: str, **attributes) -> Trace:
        """Open a new trace; it joins :meth:`traces` when ``finish()`` runs."""
        trace_id = f"trace-{next(self._trace_ids):05d}"
        return Trace(trace_id, name, tracer=self, attributes=attributes)

    def _complete(self, trace: Trace) -> None:
        with self._lock:
            self._completed.append(trace)

    def traces(self) -> List[Trace]:
        """Completed traces, oldest first (bounded by ``capacity``)."""
        with self._lock:
            return list(self._completed)

    def last(self) -> Optional[Trace]:
        """The most recently completed trace, if any."""
        with self._lock:
            return self._completed[-1] if self._completed else None

    def find(self, trace_id: str) -> Optional[Trace]:
        """Look a completed trace up by id."""
        with self._lock:
            for trace in self._completed:
                if trace.trace_id == trace_id:
                    return trace
        return None
