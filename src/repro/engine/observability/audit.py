"""The durable ε-audit stream: append-only JSON-lines privacy event log.

Every mutation of privacy state — charge, rollback, refusal, scope open and
close, top-up — becomes one :class:`AuditLog` event.  Events carry the ids
needed to reconstruct *who spent what, when, and under which flush*: ticket
id, session/client id, ε amount, and the trace id of the pipeline run that
caused the mutation (see the package docstring for the full schema).

Durability: when constructed with a ``path``, each event is serialised as
one JSON line and flushed to the file immediately, so the stream survives a
crashed process up to the last completed event.  A bounded in-memory deque
mirrors recent events for tests and the ``tail`` inspection helper.

Ambient context: emit sites deep in the pipeline (the accountant's
``charge`` does not know which flush invoked it) get their trace/ticket ids
from a thread-local context stack — the pipeline wraps each charge in
``audit.context(trace_id=..., ticket_id=..., client_id=...)`` and the
accountant's unqualified ``emit("charge", ...)`` inherits those fields.
Thread-locality is exactly right here: concurrent flushes run on distinct
threads, so their contexts never bleed into each other's events.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import IO, List, Optional, Union

__all__ = ["AuditLog", "read_audit_events"]

logger = logging.getLogger(__name__)


class AuditLog:
    """Append-only privacy event stream with optional JSON-lines durability.

    Parameters
    ----------
    path:
        Optional file path; events are appended as JSON lines and flushed
        per event.  The file is opened lazily on first emit and closed by
        :meth:`close`.
    stream:
        Optional already-open text stream (takes precedence over ``path``);
        useful for tests and for piping the stream elsewhere.  Not closed
        by :meth:`close`.
    capacity:
        Bound on the in-memory mirror of recent events.
    fsync:
        Durability policy for the owned file.  ``False`` (default) flushes
        each event to the OS — durable against *process* death, the crash
        model the recovery tests exercise.  ``True`` additionally
        ``os.fsync``\\ s after every event — durable against power loss, at
        a per-event syscall cost (matches a ``synchronous=FULL`` ledger).
        Ignored for caller-owned ``stream`` sinks.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        stream: Optional[IO[str]] = None,
        capacity: int = 4096,
        fsync: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._path = str(path) if path is not None else None
        self._stream = stream
        self._file: Optional[IO[str]] = None
        self._fsync = bool(fsync)
        self._lock = threading.Lock()
        self._events: "deque[dict]" = deque(maxlen=int(capacity))
        self._seq = 0
        self._local = threading.local()

    # --------------------------------------------------------------- context
    @contextmanager
    def context(self, **fields):
        """Push ambient fields merged into every event emitted on this thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = {k: v for k, v in fields.items() if v is not None}
        stack.append(frame)
        try:
            yield
        finally:
            stack.pop()

    def _ambient(self) -> dict:
        merged: dict = {}
        for frame in getattr(self._local, "stack", ()):
            merged.update(frame)
        return merged

    # ------------------------------------------------------------------ emit
    def emit(self, event: str, **fields) -> dict:
        """Record one event; explicit fields override ambient context."""
        record = self._ambient()
        record.update((k, v) for k, v in fields.items() if v is not None)
        record["event"] = str(event)
        record["ts"] = time.time()
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._events.append(record)
            sink = self._stream
            if sink is None and self._path is not None:
                if self._file is None:
                    self._file = open(self._path, "a", encoding="utf-8")
                sink = self._file
            if sink is not None:
                sink.write(json.dumps(record, sort_keys=True, default=str) + "\n")
                sink.flush()
                if self._fsync and sink is self._file:
                    os.fsync(sink.fileno())
        return record

    # ------------------------------------------------------------ inspection
    @property
    def count(self) -> int:
        """Events emitted over the log's lifetime (not bounded by capacity)."""
        with self._lock:
            return self._seq

    def events(self, event: Optional[Union[str, tuple]] = None) -> List[dict]:
        """Recent events, optionally filtered by event name(s)."""
        with self._lock:
            snapshot = list(self._events)
        if event is None:
            return snapshot
        names = (event,) if isinstance(event, str) else tuple(event)
        return [record for record in snapshot if record["event"] in names]

    def tail(self, n: int = 10) -> List[dict]:
        """The most recent ``n`` events, oldest first."""
        with self._lock:
            return list(self._events)[-int(n):]

    # --------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Close the owned file handle, if one was opened (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self._path or ("<stream>" if self._stream else "<memory>")
        return f"AuditLog({target}, events={self.count})"


def read_audit_events(path: str, strict: bool = False) -> List[dict]:
    """Read a JSONL audit stream back, tolerating a torn final line.

    A process killed mid-``write`` leaves a truncated last line (JSON cut
    off anywhere, or a line without its newline).  Crash recovery must read
    *through* that — every completed event is intact, only the tail is torn
    — so a malformed **final** line is skipped with a warning instead of
    raising; pass ``strict=True`` to raise on it instead (for readers that
    need every byte accounted for).  A malformed line *followed by further
    lines* is real corruption, not a torn tail (a crash can only truncate
    the end), and always raises ``ValueError``.
    """
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            events.append(json.loads(stripped))
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1 and not strict:
                logger.warning(
                    "audit stream %s ends in a torn line (%d bytes) — "
                    "skipped; the process died mid-write",
                    path,
                    len(line),
                )
                break
            raise ValueError(
                f"audit stream {path!r} line {index + 1} is corrupt "
                f"(not valid JSON): {exc}"
            ) from exc
    return events

