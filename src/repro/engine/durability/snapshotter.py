"""Background crash-consistent snapshots: warm plans + cached answers.

The durable ε-ledger (:mod:`~repro.engine.durability.ledger_store`) makes
spent budget survive a crash; this module makes the *performance* state
survive too.  A :class:`Snapshotter` thread periodically persists

* the plan store — ``engine.save_plans(path)``, the engine's one plan
  cache (shard plans included), whose LRU bound keeps a long-running
  server's snapshots tracking what it actually serves — and
* the answer store — every cached noisy answer with its measurements and
  the engine's next draw id, so recovered measurements keep their
  correlation structure and fresh draws never collide with them.

Each file is written with the tmp-file + ``os.replace`` discipline (shared
with :func:`~repro.engine.plan_cache.write_plan_store`): a crash at any
instant — including *between* the two writes, the ``mid-snapshot`` fault
point — leaves either the previous snapshot or the new one on disk, never
a torn file.  A restore that still finds a corrupt store (e.g. a snapshot
from an incompatible version) degrades to a cold start with a WARN log
instead of keeping the server down.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from typing import Optional, Tuple

from ...exceptions import PlanStoreError
from ..plan_cache import write_plan_store
from .faults import fault_point

__all__ = ["ANSWER_STORE_FORMAT", "Snapshotter", "read_answer_store"]

logger = logging.getLogger(__name__)

#: On-disk format version of persisted answer stores.
ANSWER_STORE_FORMAT = 1

#: File names inside the snapshot directory.
PLANS_FILE = "plans.pkl"
ANSWERS_FILE = "answers.pkl"


def read_answer_store(path: str) -> dict:
    """Read a persisted answer store, validating its format version.

    Raises the versioned :class:`~repro.exceptions.PlanStoreError` on a
    truncated/corrupt pickle or a format mismatch — same contract as
    :func:`~repro.engine.plan_cache.read_plan_store`, and the same pickle
    warning applies: only load stores this deployment wrote itself.
    """
    if not os.path.exists(path):
        raise PlanStoreError(f"Answer store {path!r} does not exist", path=path)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        ValueError,
        IndexError,
        KeyError,
        TypeError,
    ) as exc:
        raise PlanStoreError(
            f"Answer store {path!r} is corrupt (truncated or garbled "
            f"pickle): {exc}",
            path=path,
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != ANSWER_STORE_FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise PlanStoreError(
            f"Answer store {path!r} has format version {found!r}; this "
            f"library reads version {ANSWER_STORE_FORMAT}",
            path=path,
            format_version=found,
        )
    if "entries" not in payload or not isinstance(payload["entries"], list):
        raise PlanStoreError(
            f"Answer store {path!r} is corrupt: payload carries no entry list",
            path=path,
            format_version=payload.get("format"),
        )
    return payload


class Snapshotter:
    """Periodic crash-consistent persistence of an engine's warm state.

    Each plan snapshot writes the engine's one LRU plan cache as it stands —
    engine-level and shard plans alike, whether planned here or loaded from
    an earlier store — so it holds at most ``plan_cache_size`` entries.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.PrivateQueryEngine` to snapshot.
    directory:
        Snapshot directory (created if missing); holds ``plans.pkl`` and
        ``answers.pkl``.
    interval:
        Seconds between background snapshots.  ``start()`` is a no-op for
        a non-positive interval — :meth:`snapshot` can still be called
        explicitly (admin endpoints, tests, shutdown).
    """

    def __init__(self, engine, directory: str, interval: float = 30.0) -> None:
        self._engine = engine
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.plans_path = os.path.join(self.directory, PLANS_FILE)
        self.answers_path = os.path.join(self.directory, ANSWERS_FILE)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.snapshots_taken = 0
        self.last_error: Optional[str] = None

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> Tuple[int, int]:
        """Write one crash-consistent snapshot; returns (plans, answers) counts.

        Two independently atomic writes: plans first, answers second, with
        the ``mid-snapshot`` crash point between them — a crash there
        leaves the fresh plan store beside the *previous* answer store,
        both intact and mutually safe (answer entries never reference plan
        entries; stale answers simply re-pay on divergence).
        """
        saved_plans = self._engine.save_plans(self.plans_path)
        fault_point("mid-snapshot")
        saved_answers = self._save_answers()
        with self._lock:
            self.snapshots_taken += 1
        return saved_plans, saved_answers

    def _save_answers(self) -> int:
        cache = self._engine.answer_cache
        if cache is None:
            return 0
        entries = cache.export_entries()
        payload = {
            "format": ANSWER_STORE_FORMAT,
            "entries": entries,
            # The largest draw id any persisted measurement references: a
            # restore advances the engine's counter past it so fresh
            # invocations never collide with recovered draws.
            "max_draw_id": cache.max_draw_id(),
        }
        write_plan_store(self.answers_path, payload)
        return len(entries)

    # ---------------------------------------------------------------- restore
    def restore(self) -> Tuple[int, int]:
        """Load whatever snapshot exists; returns (plans, answers) loaded.

        Missing files mean a first boot (0 loaded, no complaint); corrupt
        files degrade to a cold start with a WARN log — a half-written or
        incompatible snapshot must never keep the server down.
        """
        plans_loaded = 0
        if os.path.exists(self.plans_path):
            plans_loaded = self._engine.load_plans(self.plans_path, on_corrupt="cold")
        answers_loaded = 0
        cache = self._engine.answer_cache
        if cache is not None and os.path.exists(self.answers_path):
            try:
                payload = read_answer_store(self.answers_path)
            except PlanStoreError as exc:
                logger.warning(
                    "answer store %s unusable (%s); degrading to cold "
                    "answer cache",
                    self.answers_path,
                    exc,
                )
            else:
                answers_loaded = cache.absorb(payload["entries"])
                self._engine._advance_draw_ids(int(payload.get("max_draw_id", 0)) + 1)
        return plans_loaded, answers_loaded

    # ------------------------------------------------------------- background
    def start(self) -> None:
        """Start the background snapshot thread (daemon; idempotent)."""
        if self.interval <= 0 or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-snapshotter", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.snapshot()
                with self._lock:
                    self.last_error = None
            except Exception as exc:  # keep snapshotting; a full disk may clear
                with self._lock:
                    self.last_error = f"{type(exc).__name__}: {exc}"
                logger.warning("background snapshot failed: %s", exc)

    def stop(self, final_snapshot: bool = True) -> None:
        """Stop the background thread, taking one last snapshot by default."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=30.0)
        if final_snapshot:
            try:
                self.snapshot()
            except Exception as exc:
                logger.warning("final snapshot failed: %s", exc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Snapshotter({self.directory!r}, interval={self.interval}, "
            f"taken={self.snapshots_taken})"
        )
