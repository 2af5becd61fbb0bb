"""Execute-stage backends: **inline** on the flushing thread, or a **process pool**.

The staged pipeline (:mod:`repro.engine.pipeline`) made flushes overlap, but
in one process the GIL still bounds the execute stage: the scipy-sparse
mechanism kernels hold it.  This module runs the execute stage across
**cores** instead, following the hybrid-engine separation of serving and
analytical resources: mechanism execution is cut into :class:`ExecuteUnit`
work units — one per unsharded batch, one per touched
:class:`~repro.engine.DomainShard` of a sharded batch (shard databases are
small and independent) — and every dispatch is an :class:`ExecuteUnitGroup`
of one or more units (a lone unit is a group of one).

Two backends share one contract — ``submit_group(group) -> handle`` whose
``result()`` yields one outcome per member, ``("ok", vectors, model)`` or
``("error", message)``, with the per-workload answer vectors plus the
invocation's honest noise metadata (which pickles, so it survives the
process round trip byte-identically):

* :class:`InlineExecuteBackend` — runs the group on the calling thread.
  Engines without a pool use it, pooled engines use it for a lone unit
  (the pool buys overlap between units; one unit only pays its overhead),
  and closed engines fall back to it.
* :class:`ProcessExecuteBackend` — a ``ProcessPoolExecutor`` speaking a
  **miss-only blob protocol**: plans and databases are addressed by content
  digest, workers start with an empty digest-keyed *resident cache* that
  the protocol itself fills, and a steady-state dispatch ships only
  ``(digest, digest, stacked batch + row slices + RNG child)`` per member —
  never the blobs themselves.  Each unit is one stacked batch, built and
  hashed once per batch content by the pipeline, whose range rows pickle as
  ``lo``/``hi`` endpoints and whose signature rides along, so a range row
  costs two integers on the pipe and the worker neither re-stacks nor
  re-hashes.  The first dispatch of a digest carries its blob; a worker
  that still lacks a digest (a blob that landed on another worker, or a
  respawned worker that lost its cache) answers with a miss sentinel and
  the parent resubmits that one group with the full blobs, which also
  repopulates the worker.  First dispatches and resubmits serialise, count
  and ship through one send path (``ProcessExecuteBackend._ship``).
  Shipped bytes, cache misses and parent-side serialisation time are all
  observable (:attr:`bytes_shipped`, :attr:`blob_cache_misses`,
  :attr:`serialization_seconds`, surfaced via
  :class:`~repro.engine.EngineStats`).  The parent's blob memos and the
  worker's resident cache are each a :class:`~repro.core.workload.LRUMemo`.

:func:`execute_groups` is the one dispatch loop on top of both: it submits
every group before awaiting any, and maps every failure — crashed pool,
closed backend, unpicklable payload, failing kernel — onto per-member error
outcomes.  The flush pipeline's execute stage is its one caller.

Determinism: the backends never touch the noise stream — every unit carries
the RNG the pipeline dealt it before dispatch, by the one derivation of
:meth:`FlushPipeline._execute_batches
<repro.engine.pipeline.FlushPipeline._execute_batches>`, so which backend
runs a unit, how it is grouped and whether its blobs missed never change its
draws; ε ledgers never depend on the backend at all (charges happen before
execution).

Worker processes use the ``spawn`` start method (:data:`START_METHOD`):
``fork`` from an engine that already runs flusher/worker threads can clone
held locks into the child.  Spawned workers import the library once
(~0.5 s) and then persist across flushes; the pool itself is created lazily
on first dispatch, so an engine that never earns a multi-unit dispatch never
spawns workers.  A worker's start-up payload carries no blobs, so a worker
that dies before reading it cannot block the parent: the pool breaks, the
dispatch fails closed (its batch rolls back), and a broken pool is replaced
at most :data:`RESPAWN_BUDGET` times; after that every unit runs inline.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.database import Database
from ..core.workload import LRUMemo, Workload
from ..mechanisms.base import NoiseModel
from .observability.metrics import DEFAULT_BYTE_BUCKETS, MetricsRegistry
from .plan_cache import CachedPlan

logger = logging.getLogger(__name__)

#: ``multiprocessing`` start method of every worker pool (see above).
START_METHOD = "spawn"

#: Broken-pool degradation (see :class:`ProcessExecuteBackend`): how many
#: times a pool whose worker died is replaced by a fresh one, and the
#: back-off before each replacement, in seconds scaled by the attempt number.
RESPAWN_BUDGET = 1
RESPAWN_BACKOFF = 0.5

__all__ = [
    "ExecuteUnit",
    "ExecuteUnitGroup",
    "GroupResult",
    "INLINE_BACKEND",
    "InlineExecuteBackend",
    "ProcessExecuteBackend",
    "create_execute_backend",
    "execute_groups",
    "run_unit",
    "run_unit_group",
]


@dataclass
class ExecuteUnit:
    """One shippable slice of the execute stage.

    A unit is ``(plan, batch, sub-histogram, ε, RNG)``: the plan carries its
    ε in the key, ``batch`` is the unit's member workloads stacked into one
    (stacked once per batch content by the pipeline's memo, signature
    included) and ``slices`` its members' row ranges, ``database`` is the
    full histogram for unsharded batches or the projected shard histogram
    for per-shard units, and ``rng`` is the stream the unit draws from
    (dealt by the pipeline before dispatch).  On the process backend the
    batch pickles its range rows as endpoints (see
    :meth:`~repro.core.workload.Workload.__reduce__`).
    """

    plan: CachedPlan
    batch: Workload
    slices: Tuple[slice, ...]
    database: Database
    rng: np.random.Generator = field(repr=False)
    #: Whether to compute the invocation's noise metadata.  The pipeline
    #: clears it when the engine serves without an answer cache — nothing
    #: would store the model, so computing it would be pure waste.
    want_noise: bool = True


def run_unit(
    plan: CachedPlan,
    batch: Workload,
    slices: Sequence[slice],
    database: Database,
    rng: np.random.Generator,
    want_noise: bool = True,
) -> Tuple[List[np.ndarray], Optional["NoiseModel"]]:
    """Execute one unit: one mechanism invocation on its stacked batch.

    Shared by both backends (and by the worker-process side), so inline and
    process execution run byte-for-byte the same code on the same inputs.
    Answers ``batch`` once, then (when ``want_noise``) takes its noise
    model, then cuts the answers back out per member ``slices`` — exactly
    what ``answer_batch`` draws on the unstacked members.  Returns the
    per-member answer vectors plus the invocation's
    :class:`~repro.mechanisms.base.NoiseModel` over the stacked rows
    (``None`` when the mechanism cannot state its noise honestly, when
    computing it fails — :meth:`NamedAlgorithm.noise_model
    <repro.blowfish.algorithms.NamedAlgorithm.noise_model>` degrades a
    failure to ``None`` — or when ``want_noise`` is off); the metadata
    pickles, so it survives the process-pool round trip identically.  The
    noise draw itself never depends on ``want_noise``: the model is
    computed after the answers, from the workload alone.
    """
    algorithm = plan.plan.algorithm
    answers = np.asarray(algorithm.answer(batch, database, rng), dtype=np.float64)
    model = algorithm.noise_model(batch) if want_noise else None
    return [answers[rows] for rows in slices], model


@dataclass(frozen=True)
class ExecuteUnitGroup:
    """One backend dispatch: one or more compatible units.

    Grouping coalesces *dispatch and transport only* — queue hops, pickles,
    IPC round trips, future bookkeeping — never the mechanism math: inside
    the group each member unit still runs its own stacked-batch kernel
    with its **own** RNG (dealt by the pipeline *before* any
    grouping), in member order.  Seeded draws and ε ledgers are therefore
    byte-identical however units are grouped.  The pipeline only fuses
    members that share a planner config (same ε and planning flags in their
    plan keys) and the same ``want_noise``.
    """

    units: Tuple[ExecuteUnit, ...]

    def __len__(self) -> int:
        return len(self.units)


#: One member's outcome: ``("ok", vectors, model)`` or ``("error",
#: message)``.  Errors are carried per member (not raised), so a failing
#: unit rolls back only its own batch, and the tuple form pickles across the
#: process pool.
GroupOutcome = Tuple


def run_unit_group(
    group: ExecuteUnitGroup,
) -> Tuple[List[GroupOutcome], List[Optional[float]]]:
    """Run a group's members back-to-back on the calling thread.

    Shared by both backends (the inline backend, a worker process), so
    grouped execution is byte-for-byte the same code everywhere.  Returns
    per-member outcomes plus per-member kernel seconds (``None`` for a
    member that raised).
    """
    outcomes: List[GroupOutcome] = []
    kernels: List[Optional[float]] = []
    for unit in group.units:
        started = time.perf_counter()
        try:
            vectors, model = run_unit(
                unit.plan,
                unit.batch,
                unit.slices,
                unit.database,
                unit.rng,
                unit.want_noise,
            )
        except Exception as exc:
            outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
            kernels.append(None)
        else:
            outcomes.append(("ok", vectors, model))
            kernels.append(time.perf_counter() - started)
    return outcomes, kernels


class _CompletedGroup:
    """Handle of a group that already ran on the calling thread."""

    __slots__ = ("_outcomes", "kernel_seconds_list", "protocol_hops")

    def __init__(self, outcomes, kernels) -> None:
        self._outcomes = outcomes
        self.kernel_seconds_list: List[Optional[float]] = kernels
        self.protocol_hops: List[dict] = []

    def result(self, timeout: Optional[float] = None) -> List[GroupOutcome]:
        return self._outcomes


class InlineExecuteBackend:
    """Run every group on the calling thread — no pool, no serialisation.

    Stateless, so one shared instance (:data:`INLINE_BACKEND`) serves every
    inline engine, every lone unit of a pooled flush and every closed
    engine.
    """

    name = "inline"
    #: Telemetry of a backend that never dispatches.
    dispatches = 0
    serialization_seconds = 0.0
    #: Unbounded: every unit already runs on the calling thread, so the
    #: pipeline never fuses units for it.
    fusion_slots = float("inf")

    def submit_group(self, group: ExecuteUnitGroup) -> _CompletedGroup:
        """Run ``group`` now; the handle is already resolved."""
        outcomes, kernels = run_unit_group(group)
        return _CompletedGroup(outcomes, kernels)

    def close(self, wait: bool = True) -> None:
        """Nothing to release."""


INLINE_BACKEND = InlineExecuteBackend()


@dataclass(frozen=True)
class GroupResult:
    """What :func:`execute_groups` yields for one submitted group."""

    #: The caller's tag for the group, passed through untouched.
    tag: object
    #: One outcome per member, in member order.
    outcomes: List[GroupOutcome]
    #: Per-member kernel seconds (``None`` where unknown or failed).
    kernels: List[Optional[float]]
    #: Protocol hops of the group's dispatch(es): worker spans, blob-miss
    #: round trips, closed-pool inline runs.
    hops: List[dict]
    #: Epoch wall-clock at which the group was submitted.
    submitted: float


def _submit(backend, group: ExecuteUnitGroup) -> List[Tuple[int, object]]:
    """Submit one group: ``[(member count, handle or error message), ...]``.

    The submit half of the execute stage's failure ladder:

    * :class:`BrokenExecutor` — the pool *crashed* (caught before its
      ``RuntimeError`` superclass): every member fails, and nothing is
      re-run inline — if a unit killed its worker, an inline retry could
      take the serving process down with it;
    * any other ``RuntimeError`` — the backend was closed (engine shutdown
      mid-call, or a spent respawn budget): run the group inline, so the
      paid-for release still happens;
    * anything else (a plan or payload that will not pickle) — a group of
      one fails; a larger group is resubmitted member by member, so only
      the offending unit's batch rolls back.
    """
    try:
        return [(len(group), backend.submit_group(group))]
    except BrokenExecutor as exc:
        return [(len(group), f"execute worker pool broke: {exc}")]
    except RuntimeError:
        logger.warning(
            "execute backend closed mid-call; finishing %d unit(s) inline on "
            "the calling thread",
            len(group),
        )
        return [(len(group), INLINE_BACKEND.submit_group(group))]
    except Exception as exc:
        if len(group) == 1:
            return [(1, str(exc))]
        logger.debug(
            "grouped dispatch of %d units failed (%s); resubmitting its "
            "members one by one",
            len(group),
            exc,
        )
        return [
            part
            for unit in group.units
            for part in _submit(backend, ExecuteUnitGroup(units=(unit,)))
        ]


def execute_groups(
    backend, groups: Iterable[Tuple[object, ExecuteUnitGroup]]
) -> Iterator[GroupResult]:
    """Dispatch ``(tag, group)`` pairs on ``backend``; yield one result each.

    The one dispatch loop of the flush pipeline's execute stage.  Every
    group is submitted before any result is awaited, so pooled groups
    overlap.  Failures never raise: they come back as
    ``("error", message)`` outcomes of the members they hit (see
    :func:`_submit` for the submit half; a handle whose ``result()`` raises
    fails all its members; a failing kernel fails its member alone), and
    the caller rolls the matching charges back.
    """
    pending = [(tag, time.time(), _submit(backend, group)) for tag, group in groups]
    for tag, submitted, parts in pending:
        outcomes: List[GroupOutcome] = []
        kernels: List[Optional[float]] = []
        hops: List[dict] = []
        for size, handle in parts:
            got: Optional[list] = None
            if isinstance(handle, str):
                error = handle
            else:
                try:
                    got = handle.result()
                except Exception as exc:
                    error = str(exc)
                hops.extend(handle.protocol_hops)
            if got is None:
                outcomes.extend([("error", error)] * size)
                kernels.extend([None] * size)
            else:
                outcomes.extend(got)
                kernels.extend(handle.kernel_seconds_list or [None] * size)
        yield GroupResult(tag, outcomes, kernels, hops, submitted)


# ---------------------------------------------------------------------------
# Worker-process side.
# ---------------------------------------------------------------------------
#: Per-worker resident cache of re-hydrated plans *and* databases, keyed by
#: the content digest of their pickle.  Worker processes persist across
#: flushes, so a hot object is unpickled once and its internal caches
#: (workload transforms, Gram factorisation) stay warm from then on.
_WORKER_RESIDENT = LRUMemo(maxsize=128)


def _pickled(obj: object) -> Tuple[str, bytes]:
    """``(content digest, pickle)``: how ``obj`` crosses the process boundary."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.blake2b(blob, digest_size=16).hexdigest(), blob


@dataclass(frozen=True)
class _BlobMiss:
    """Worker → parent sentinel: these digests are not resident here.

    The worker returns it *before* touching the group's RNG payload, so the
    parent's resubmission (with full blobs) draws exactly the noise the
    first attempt would have drawn.
    """

    missing: Tuple[str, ...]


def _reset_worker_resident() -> bool:
    """Drop this worker's resident cache.

    Test/benchmark hook simulating a worker respawn (a real respawn starts
    empty and loses everything shipped since) without the platform-dependent
    machinery of actually killing the process.
    """
    _WORKER_RESIDENT.clear()
    return True


def _resident_get(digest: str, blob: Optional[bytes]):
    """Recall a resident object, re-hydrating from ``blob`` when shipped."""
    obj = _WORKER_RESIDENT.get(digest)
    if obj is None and blob is not None:
        obj = pickle.loads(blob)
        _WORKER_RESIDENT.put(digest, obj)
    return obj


def _execute_shipped_group(
    members: Tuple[Tuple[str, Optional[bytes], str, Optional[bytes]], ...],
    payload_blob: bytes,
):
    """Worker entry point of the miss-only protocol: one hop, many kernels.

    ``members`` carries ``(plan digest, plan blob?, db digest, db blob?)``
    per member.  Residency of **every** digest is checked (and shipped blobs
    re-hydrated) before the RNG payload is unpickled, so a miss on any
    member returns a :class:`_BlobMiss` naming the missing *digests* without
    consuming anything — the parent's full-blob resubmission then draws
    exactly the noise this attempt would have.  Successful runs return
    ``(outcomes, kernels, span)``: per-member outcome tuples and kernel
    wall-clocks under one group-wide worker span — the kernels' boundaries
    on the epoch clock both processes share, stamped with the worker pid,
    so the parent's tracer can nest the worker-measured execution under
    its own unit span.
    """
    resolved: Dict[str, object] = {}
    missing: List[str] = []
    for plan_digest, plan_blob, db_digest, db_blob in members:
        for digest, blob in ((plan_digest, plan_blob), (db_digest, db_blob)):
            if digest in resolved:
                continue
            obj = _resident_get(digest, blob)
            resolved[digest] = obj
            if obj is None:
                missing.append(digest)
    if missing:
        return _BlobMiss(tuple(missing))
    group = ExecuteUnitGroup(
        units=tuple(
            ExecuteUnit(
                resolved[plan_digest], batch, slices, resolved[db_digest], rng, want_noise
            )
            for (plan_digest, _, db_digest, _), (batch, slices, rng, want_noise) in zip(
                members, pickle.loads(payload_blob)
            )
        )
    )
    wall_started = time.time()
    outcomes, kernels = run_unit_group(group)
    span = {
        "kind": "worker",
        "pid": os.getpid(),
        "start": wall_started,
        "end": time.time(),
        "units": len(members),
    }
    return outcomes, kernels, span


def _worker_factorisation_stats() -> dict:
    """This worker's factorisation-store counters (test/benchmark hook).

    Each worker process holds its own
    :class:`~repro.engine.factorisation.FactorisationStore`; re-hydrated
    plans resolve against it by content digest, so two plans sharing a
    policy share one factorisation per worker no matter how many blob
    digests they arrived under.
    """
    from .factorisation import get_store

    stats = get_store().stats()
    return {
        "pid": os.getpid(),
        "hits": stats.hits,
        "misses": stats.misses,
        "build_seconds": stats.build_seconds,
        "entries": stats.entries,
    }



# ---------------------------------------------------------------------------
# Process backend.
# ---------------------------------------------------------------------------
class _ProcessGroupDispatch:
    """Future-like handle for one group shipped to the worker pool.

    ``result()`` yields the per-member outcome list, transparently
    recovering a worker-side blob miss (resubmit with full blobs).  The
    protocol's observability rides along after resolution:
    :attr:`kernel_seconds_list` holds the per-member kernel wall-clocks
    measured in the worker and :attr:`protocol_hops` the group's
    cross-process itinerary — one dict per hop (``kind`` of
    ``"blob-miss"``, ``"worker"`` or ``"inline"``, with epoch-clock
    ``start``/``end``), so a recovered blob miss reports *both* hops: the
    refused round trip and the execution that followed.
    """

    __slots__ = (
        "_backend",
        "_group",
        "_future",
        "_submitted_wall",
        "_resolved",
        "kernel_seconds_list",
        "protocol_hops",
    )

    def __init__(
        self, backend: "ProcessExecuteBackend", group: ExecuteUnitGroup, future
    ) -> None:
        self._backend = backend
        self._group = group
        self._future = future
        self._submitted_wall = time.time()
        self._resolved: Optional[list] = None
        self.kernel_seconds_list: Optional[List[Optional[float]]] = None
        self.protocol_hops: List[dict] = []

    def result(self, timeout: Optional[float] = None):
        # Idempotent like a real Future: the raw future keeps holding the
        # _BlobMiss sentinel after a recovery, so a second result() call
        # must serve the recovered value instead of re-running the group.
        if self._resolved is not None:
            return self._resolved
        value = self._backend._await_future(self._future, timeout)
        if isinstance(value, _BlobMiss):
            self.protocol_hops.append(
                {
                    "kind": "blob-miss",
                    "missing": list(value.missing),
                    "start": self._submitted_wall,
                    "end": time.time(),
                }
            )
            value = self._backend._resubmit(self._group, value.missing, timeout)
        outcomes, kernels, span = value
        self.kernel_seconds_list = kernels
        if span is not None:
            self.protocol_hops.append(dict(span))
        self._resolved = outcomes
        return self._resolved


class ProcessExecuteBackend:
    """Execute unit groups on a ``ProcessPoolExecutor`` — real multi-core execution.

    Dispatches speak the **miss-only blob protocol**: plans and databases
    cross the pipe as content digests, not blobs.  Workers start with an
    empty digest-keyed resident cache.  A blob is shipped eagerly on the
    first dispatch that needs it, exactly once — it lands on one worker;
    any other worker that draws a later digest-only dispatch answers with a
    miss sentinel and the parent resubmits that one group with full blobs
    (also how a respawned worker repopulates).  Steady state therefore
    ships only each unit's stacked batch (range rows as endpoints), its row
    slices and its RNG child.

    A worker pool that breaks (a worker OOM-killed or SIGKILLed, or dead
    before it finished starting) is replaced by a fresh, empty one up to
    :data:`RESPAWN_BUDGET` times, each after
    :data:`RESPAWN_BACKOFF` seconds scaled by the attempt number, so a crash
    loop cannot hot-spin worker spawns.  Past the budget the backend stops
    building pools and every unit runs inline on the flushing thread,
    permanently.  The dispatch that hit the broken pool still fails (its
    batch rolls back — re-running a unit that may have killed its worker
    inline could take the serving process down); the respawn serves
    *subsequent* flushes.

    Parameters
    ----------
    max_workers:
        Worker-process count (started with :data:`START_METHOD`).
    metrics:
        Optional :class:`~repro.engine.observability.MetricsRegistry`;
        when set, each dispatch and resubmit feeds bytes-shipped and
        serialisation-seconds histograms (the aggregate counters below
        stay available either way).
    """

    name = "process"

    def __init__(
        self,
        max_workers: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._max_workers = int(max_workers)
        self._context = multiprocessing.get_context(START_METHOD)
        if metrics is not None:
            self._h_bytes = metrics.histogram(
                "engine_ipc_bytes_shipped",
                "Bytes handed to the worker pool per dispatch",
                buckets=DEFAULT_BYTE_BUCKETS,
                backend=self.name,
            )
            self._h_serialization = metrics.histogram(
                "engine_ipc_serialization_seconds",
                "Parent-side pickling time per dispatch",
                backend=self.name,
            )
        else:
            self._h_bytes = None
            self._h_serialization = None
        # The pool is created lazily (first dispatch), so a backend that
        # never dispatches never spawns workers.  A broken pool is retired
        # and, while the respawn budget lasts, lazily replaced by the next
        # _ensure_pool; once the budget is spent _ensure_pool raises
        # RuntimeError, which the pipeline treats like an engine close:
        # units run inline, permanently.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self._respawns = 0
        self._broken = False
        self._counter_lock = threading.Lock()
        self._dispatches = 0
        self._serialization_seconds = 0.0
        self._bytes_shipped = 0
        self._blob_cache_misses = 0
        self._resubmits = 0
        # Parent-side memos of ``(digest, blob)`` pickles: a hot plan or
        # database is serialised once, then every later dispatch reuses the
        # digest and ships only that.  Databases are immutable for the
        # engine's lifetime and keyed by identity; each entry pins its
        # database, so its id() cannot be reused while the entry lives.
        self._plan_blobs = LRUMemo(maxsize=32)
        self._db_blobs = LRUMemo(maxsize=64)
        #: Digests known to be resident somewhere in the pool: eagerly
        #: shipped to one worker.  Digest-only dispatches of anything else
        #: would miss deterministically, so the first dispatch of a new
        #: digest always carries its blob.
        self._blob_lock = threading.Lock()
        self._shipped_digests: set = set()

    # ------------------------------------------------------------- telemetry
    @property
    def dispatches(self) -> int:
        """Number of group dispatches handed to the worker pool so far (a
        fused group counts once; protocol resubmits after a blob miss are
        counted separately)."""
        with self._counter_lock:
            return self._dispatches

    @property
    def serialization_seconds(self) -> float:
        """Total parent-side wall-clock spent pickling plans and payloads."""
        with self._counter_lock:
            return self._serialization_seconds

    @property
    def bytes_shipped(self) -> int:
        """Total bytes handed to the pool across all dispatches and
        resubmits."""
        with self._counter_lock:
            return self._bytes_shipped

    @property
    def blob_cache_misses(self) -> int:
        """Worker-side resident-cache misses (one per missing digest)."""
        with self._counter_lock:
            return self._blob_cache_misses

    @property
    def resubmits(self) -> int:
        """Dispatches re-sent with full blobs after a worker-side miss."""
        with self._counter_lock:
            return self._resubmits

    @property
    def pool_respawns(self) -> int:
        """Times a broken worker pool was replaced by a fresh one."""
        with self._pool_lock:
            return self._respawns

    @property
    def fusion_slots(self) -> int:
        """Pool width the pipeline balances fused groups across."""
        return self._max_workers

    # ------------------------------------------------------------------ blobs
    def _plan_entry(self, plan: CachedPlan) -> Tuple[str, bytes]:
        return self._plan_blobs.get_or_compute(plan.key, lambda _: _pickled(plan))

    def _db_entry(self, database: Database) -> Tuple[str, bytes]:
        _, digest, blob = self._db_blobs.get_or_compute(
            id(database), lambda _: (database, *_pickled(database))
        )
        return digest, blob

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The worker pool, created on first use (its workers start empty)."""
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("cannot schedule new futures after shutdown")
            if self._broken:
                # Plain RuntimeError, NOT BrokenExecutor: execute_groups maps
                # this to its closed-backend rung — run the group inline —
                # which is the permanent fallback the budget exhaustion
                # demands (the charge stands either way).
                raise RuntimeError(
                    "process worker pool broke and its respawn budget "
                    f"({RESPAWN_BUDGET}) is exhausted; executing inline"
                )
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers, mp_context=self._context
                )
            return self._pool

    def _note_broken_pool(self) -> None:
        """React to a ``BrokenExecutor``: retire the pool, maybe respawn.

        Every in-flight future of a broken pool raises, so this runs once
        per *pool*, not once per failure: the first caller retires the pool
        (and pays the backoff); latecomers find it already gone and return.
        The retired workers took their resident blob caches with them, so
        the shipped-digest memo is cleared — the next dispatch to the fresh,
        empty pool re-ships every blob it needs eagerly.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            if pool is None or self._closed or self._broken:
                backoff = 0.0
            elif self._respawns < RESPAWN_BUDGET:
                self._respawns += 1
                backoff = RESPAWN_BACKOFF * self._respawns
                logger.warning(
                    "process worker pool broke; respawning (attempt %d of "
                    "%d) after %.2fs backoff",
                    self._respawns,
                    RESPAWN_BUDGET,
                    backoff,
                )
            else:
                self._broken = True
                backoff = 0.0
                logger.warning(
                    "process worker pool broke with the respawn budget "
                    "(%d) exhausted; falling back to inline execution "
                    "permanently",
                    RESPAWN_BUDGET,
                )
        if pool is not None:
            # Never wait: the broken pool's manager thread reaps the dead
            # workers itself, and waiting would only stall the flush.
            pool.shutdown(wait=False)
            with self._blob_lock:
                self._shipped_digests.clear()
        if backoff > 0.0:
            time.sleep(backoff)

    def _await_future(self, future, timeout: Optional[float] = None):
        """``future.result`` that retires the pool on ``BrokenExecutor``."""
        try:
            return future.result(timeout)
        except BrokenExecutor:
            self._note_broken_pool()
            raise

    # ------------------------------------------------------------------- ship
    def _ship(
        self, group: ExecuteUnitGroup, missing: Optional[Tuple[str, ...]] = None
    ):
        """Serialise ``group`` and hand it to the pool as one worker task.

        The one send path, for a first dispatch (``missing`` is ``None``)
        and for a resubmit after a worker reported ``missing`` digests.
        Plan and database pickles come from the memos and cross the pipe as
        content digests; each distinct blob rides a task at most once, even
        when several members share it.  A first dispatch attaches only the
        blobs no worker is known to hold.  A resubmit attaches every blob —
        a worker holding everything it is handed cannot miss again — and
        forgets that the missing digests were shipped, so the next first
        dispatch re-ships them eagerly (one fat hop) instead of risking
        another miss round trip, the thrashing regime when the working set
        outgrows the worker resident cache.  Serialisation failures raise
        before anything is scheduled; a closed backend raises
        ``RuntimeError`` and a broken pool ``BrokenExecutor``.  Returns the
        pool future.
        """
        started = time.perf_counter()
        digests: List[Tuple[str, str]] = []
        blobs: Dict[str, bytes] = {}
        for unit in group.units:
            plan_digest, plan_blob = self._plan_entry(unit.plan)
            db_digest, db_blob = self._db_entry(unit.database)
            digests.append((plan_digest, db_digest))
            blobs.setdefault(plan_digest, plan_blob)
            blobs.setdefault(db_digest, db_blob)
        payload_blob = pickle.dumps(
            [
                (unit.batch, unit.slices, unit.rng, unit.want_noise)
                for unit in group.units
            ],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        elapsed = time.perf_counter() - started
        if missing is not None:
            with self._blob_lock:
                self._shipped_digests.difference_update(missing)
            with self._counter_lock:
                self._resubmits += 1
                self._blob_cache_misses += len(missing)
        pool = self._ensure_pool()
        if missing is None:
            with self._blob_lock:
                blobs = {
                    digest: blob
                    for digest, blob in blobs.items()
                    if digest not in self._shipped_digests
                }
                self._shipped_digests.update(blobs)
        members = tuple(
            (plan_digest, blobs.get(plan_digest), db_digest, blobs.get(db_digest))
            for plan_digest, db_digest in digests
        )
        try:
            future = pool.submit(_execute_shipped_group, members, payload_blob)
        except BrokenExecutor:
            self._note_broken_pool()
            raise
        shipped = (
            len(payload_blob)
            + sum(len(plan_digest) + len(db_digest) for plan_digest, db_digest in digests)
            + sum(len(blob) for blob in blobs.values())
        )
        with self._counter_lock:
            if missing is None:
                self._dispatches += 1
            self._serialization_seconds += elapsed
            self._bytes_shipped += shipped
        if self._h_bytes is not None:
            self._h_bytes.observe(shipped)
            self._h_serialization.observe(elapsed)
        return future

    def submit_group(self, group: ExecuteUnitGroup) -> _ProcessGroupDispatch:
        """Ship one group as a single worker task (see :meth:`_ship`).

        One IPC round trip executes every member kernel back-to-back in one
        worker — the per-dispatch protocol cost (payload pickle framing,
        queue hop, future round trip) is paid once per group instead of once
        per unit.
        """
        return _ProcessGroupDispatch(self, group, self._ship(group))

    def _resubmit(
        self,
        group: ExecuteUnitGroup,
        missing: Tuple[str, ...],
        timeout: Optional[float] = None,
    ):
        """Re-send a group whose worker lacked ``missing`` digests, with
        every blob attached; return the worker's ``(outcomes, kernels, span)``.

        The RNG payload of the first attempt was never unpickled, so the
        retry draws identical noise: determinism never depends on the miss
        path.  A backend closed between the miss and the resubmit runs the
        group inline instead — the charges already stand, so the paid-for
        release still happens (the closed-backend rung of execute_groups).
        """
        logger.info(
            "blob miss on process dispatch of %d unit(s) (missing %d "
            "digests); resubmitting with full blobs",
            len(group.units),
            len(missing),
        )
        try:
            future = self._ship(group, missing)
        except BrokenExecutor:
            raise
        except RuntimeError:
            logger.warning(
                "process backend closed during blob-miss recovery; "
                "running %d unit(s) inline on the calling thread",
                len(group.units),
            )
            inline_wall = time.time()
            outcomes, kernels = run_unit_group(group)
            span = {
                "kind": "inline",
                "pid": os.getpid(),
                "start": inline_wall,
                "end": time.time(),
                "units": len(group.units),
            }
            return outcomes, kernels, span
        value = self._await_future(future, timeout)
        if isinstance(value, _BlobMiss):  # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"worker reported {value.missing} missing although every blob "
                "was shipped with the resubmission"
            )
        return value

    # -------------------------------------------------------------- lifecycle
    def reset_resident_caches(self) -> int:
        """Empty the workers' resident caches.

        Test/benchmark hook simulating worker respawns (what really happens
        after a crash): everything shipped so far is forgotten by the
        workers and must be recovered through the miss path — the
        parent, like with a real respawn, keeps dispatching digest-only
        until a miss corrects it.  One reset task is submitted per worker;
        an idle pool may run several on the same worker, so the simulation
        is only deterministic with ``max_workers=1``.  Returns the number
        of reset tasks run.
        """
        pool = self._ensure_pool()
        futures = [
            pool.submit(_reset_worker_resident) for _ in range(self._max_workers)
        ]
        # The parent's shipped-digest memo is deliberately NOT touched: a
        # real respawn is invisible to the parent too, so later dispatches
        # keep going digest-only and recover through the miss path — which
        # is exactly what this hook exists to exercise.
        return sum(1 for future in futures if future.result())

    def close(self, wait: bool = True) -> None:
        """Shut the worker processes down; subsequent submits raise.

        Also drops the parent-side blob memos: the database memo pins
        :class:`~repro.core.database.Database` objects (and their
        histograms), which must not outlive the backend.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._plan_blobs.clear()
        self._db_blobs.clear()
        with self._blob_lock:
            self._shipped_digests.clear()


def create_execute_backend(
    backend: str,
    max_workers: Optional[int],
    metrics: Optional[MetricsRegistry] = None,
):
    """Build the execute backend the engine was configured with.

    ``backend`` is ``"inline"`` or ``"process"``.  Returns the shared
    :data:`INLINE_BACKEND` for ``"inline"`` or a ``max_workers`` of 1 or
    less — the pipeline then executes on the flushing thread.  ``metrics``
    (per-dispatch bytes-shipped and serialisation-time histograms) applies
    to the process backend.
    """
    if backend not in ("inline", "process"):
        raise ValueError(
            f"Unknown execute backend {backend!r}; expected 'inline' or 'process'"
        )
    if backend == "inline" or max_workers is None or int(max_workers) <= 1:
        return INLINE_BACKEND
    return ProcessExecuteBackend(max_workers=int(max_workers), metrics=metrics)
