"""Deterministic fault injection for crash-recovery testing.

The durable state tier's correctness claim — *a recovered ledger never
under-counts spent ε* — can only be tested by actually dying at the worst
possible moments.  This module provides the scaffolding: **named crash
points** compiled into the serving pipeline and the snapshotter, and a
process-global :class:`FaultInjector` that tests arm to crash the process
(``os._exit``, the in-process equivalent of ``kill -9``: no ``atexit``, no
``finally``, no buffered-stream flush), raise a disk-full ``OSError``, or
kill a worker process at an exact hit count of an exact point.

The hooks cost one module-global read plus a ``None`` check when no
injector is installed (the production state), so they stay compiled into
the hot path permanently; the benchmark (``perfbench/``) times the serving
path with them in place.

Crash points
------------
``pre-charge``
    In the pipeline's charge stage, immediately *before* a ticket's budget
    charge.  A crash here must leave no trace: nothing charged, nothing
    durable.
``post-charge``
    Immediately *after* the charge succeeded (durably, when a ledger store
    is attached) but before the mechanism runs.  A crash here is the
    canonical over-count: the recovered ledger carries a charge whose
    release never happened — allowed, never the reverse.
``pre-resolve``
    After the execute stage, before the resolve stage rolls back failures
    and publishes answers.  Charges are durable, answers are lost.
``mid-snapshot``
    Inside :class:`~repro.engine.durability.snapshotter.Snapshotter`,
    between the plan-store write and the answer-store write.  Each file is
    written atomically (tmp + ``os.replace``), so a crash here must leave
    the previous answer store intact next to the new plan store.

Serving fault points
--------------------
The live HTTP path adds its own hooks (kept out of :data:`CRASH_POINTS`,
whose tuple is pinned by the crash-matrix tests):

``serving-flush``
    Inside the asyncio front-end's flusher thread, immediately before it
    drives ``engine.flush()``.  ``stall_at`` here models a stalled flusher
    (slow disk, GC pause); ``fail_at`` a flusher whose flush raises.  The
    serving chaos harness asserts both shed-not-crash behaviour and
    byte-identical draws/ledgers for the work that was admitted.
"""

from __future__ import annotations

import errno
import os
import signal
import threading
import time
from typing import Dict, Optional, Tuple

__all__ = [
    "CRASH_POINTS",
    "SERVING_FAULT_POINTS",
    "FaultInjector",
    "fault_point",
    "kill_one_worker",
]

#: The named crash points compiled into the engine, in pipeline order.
#: Pinned by the crash-matrix tests — serving-path hooks live in
#: :data:`SERVING_FAULT_POINTS` instead of growing this tuple.
CRASH_POINTS = ("pre-charge", "post-charge", "pre-resolve", "mid-snapshot")

#: Fault points of the live serving path (chaos harness, PR 10).
SERVING_FAULT_POINTS = ("serving-flush",)


class FaultInjector:
    """Arm crashes and injected errors at named fault points.

    One injector is installed process-globally (:meth:`install`); the
    pipeline's :func:`fault_point` hooks consult it.  All triggers are
    deterministic: a fault fires on the *n*-th hit of its point (1-based,
    default the first), so a test can, say, survive two charges and die on
    the third.

    The injector is intentionally engine-agnostic — it never imports from
    the pipeline — so the hooks can live arbitrarily deep without cycles.
    """

    _active: Optional["FaultInjector"] = None

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        #: point -> (hit number to fire on, exit code)
        self._crashes: Dict[str, Tuple[int, int]] = {}
        #: point -> (hit number to fire on, exception factory)
        self._errors: Dict[str, Tuple[int, object]] = {}
        #: point -> (hit number to fire on, stall seconds)
        self._stalls: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------------ arming
    def crash_at(self, point: str, hits: int = 1, exit_code: int = 42) -> "FaultInjector":
        """Die via ``os._exit(exit_code)`` on the ``hits``-th visit of ``point``."""
        self._validate(point, hits)
        self._crashes[point] = (int(hits), int(exit_code))
        return self

    def fail_at(self, point: str, exception_factory, hits: int = 1) -> "FaultInjector":
        """Raise ``exception_factory()`` on the ``hits``-th visit of ``point``."""
        self._validate(point, hits)
        self._errors[point] = (int(hits), exception_factory)
        return self

    def stall_at(self, point: str, seconds: float, hits: int = 1) -> "FaultInjector":
        """Sleep ``seconds`` on the ``hits``-th visit of ``point``.

        Models a stalled-but-alive component (slow disk, GC pause, lock
        convoy): the visit eventually completes normally, which is exactly
        what distinguishes a stall from a crash — admission control must
        shed around it instead of erroring through it.
        """
        self._validate(point, hits)
        if seconds < 0:
            raise ValueError(f"stall seconds must be >= 0, got {seconds}")
        self._stalls[point] = (int(hits), float(seconds))
        return self

    def disk_full_at(self, point: str, hits: int = 1) -> "FaultInjector":
        """Inject ``OSError(ENOSPC)`` — the disk-full fault — at ``point``."""
        return self.fail_at(
            point,
            lambda: OSError(errno.ENOSPC, "No space left on device (injected)"),
            hits=hits,
        )

    @staticmethod
    def _validate(point: str, hits: int) -> None:
        if hits < 1:
            raise ValueError(f"hits must be >= 1, got {hits}")
        if not point:
            raise ValueError("fault point name must be non-empty")

    # -------------------------------------------------------------- life cycle
    def install(self) -> "FaultInjector":
        """Make this the process-global injector consulted by the hooks."""
        FaultInjector._active = self
        return self

    @classmethod
    def clear(cls) -> None:
        """Remove any installed injector (hooks go back to their no-op path)."""
        cls._active = None

    @classmethod
    def active(cls) -> Optional["FaultInjector"]:
        return cls._active

    # ------------------------------------------------------------------- hooks
    def hits(self, point: str) -> int:
        """How many times ``point`` has been reached so far."""
        with self._lock:
            return self._hits.get(point, 0)

    def reached(self, point: str) -> None:
        """Count one visit of ``point`` and fire any armed fault.

        The crash is ``os._exit`` — abrupt by design: the test double of a
        ``kill -9`` must not run ``finally`` blocks, flush buffered file
        objects, or let SQLite close cleanly, or the test would prove
        nothing about crash consistency.
        """
        with self._lock:
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
        crash = self._crashes.get(point)
        if crash is not None and count == crash[0]:
            os._exit(crash[1])
        stall = self._stalls.get(point)
        if stall is not None and count == stall[0]:
            time.sleep(stall[1])
        error = self._errors.get(point)
        if error is not None and count == error[0]:
            raise error[1]()


def fault_point(point: str) -> None:
    """Hook compiled into the pipeline/snapshotter at each named point.

    No-op (one global read + ``None`` check) unless a test installed a
    :class:`FaultInjector`.
    """
    injector = FaultInjector._active
    if injector is not None:
        injector.reached(point)


def kill_one_worker(backend) -> int:
    """SIGKILL one live worker process of a process execute backend.

    The injectable worker-kill fault: deterministic (lowest pid wins) and
    honest — the worker dies exactly as an OOM-killed one would, so the
    pool observes a genuine :class:`~concurrent.futures.BrokenExecutor`.
    Returns the killed pid.  Raises ``RuntimeError`` when the backend has
    no live pool (nothing was ever dispatched, or it is closed).
    """
    pool = getattr(backend, "_pool", None)
    processes = getattr(pool, "_processes", None) if pool is not None else None
    if not processes:
        raise RuntimeError("backend has no live worker processes to kill")
    pid = min(processes.keys())
    os.kill(pid, signal.SIGKILL)
    return pid
