"""`PrivateQueryEngine` — the budget-managed, plan-cached serving front-end.

The library's mechanisms are one-shot: every call re-derives the policy
transform, re-factorises strategy matrices and spends budget with no session
state.  The engine turns them into a multi-client query-answering service by
separating the **fast answering path** from the **expensive planning path**
(the split HTAP systems make between transactional serving and analytical
maintenance):

1. **Plan cache** — planning artefacts (``PolicyTransform``, spanners,
   strategy factorisations, transformed workloads) are memoised per
   ``(domain, policy, planner-config)`` in a :class:`~repro.engine.PlanCache`,
   so repeated queries skip planning entirely.  The artefacts are picklable
   end-to-end, so :meth:`PrivateQueryEngine.save_plans` /
   :meth:`~PrivateQueryEngine.load_plans` persist them across process
   lifetimes — a restarted server plans nothing cold.
2. **Sessions & budget** — each client holds a
   :class:`~repro.engine.ClientSession` whose epsilon allotment is reserved
   from the engine's global :class:`~repro.accounting.PrivacyAccountant`;
   queries are charged per session and refused with a clear
   :class:`~repro.exceptions.PrivacyBudgetError` once the allotment is gone.
3. **Staged flush pipeline** — every flush runs **plan → charge → execute →
   resolve** (:mod:`repro.engine.pipeline`): planning is lock-free, charging
   holds only the narrowed accountant lock, mechanism execution holds no lock
   at all, and resolution takes the stats/cache locks briefly.  Concurrent
   ``flush()`` callers therefore overlap their numerical work instead of
   queueing behind one engine-wide lock; compatible queries within a flush
   are still answered by **one** vectorised mechanism invocation.  With
   ``execute_workers`` the execute stage additionally fans out across
   **worker processes** (:mod:`repro.engine.parallel`) — true multi-core
   execution for the GIL-bound mechanism kernels, with documented,
   seed-reproducible noise derivations.
4. **Domain sharding** — policies whose graph decomposes into several
   connected components are served scatter/gather
   (:mod:`repro.engine.sharding`): component-confined workloads are split
   across per-component :class:`~repro.engine.DomainShard`\\ s, each with its
   own plan cache, and the noisy rows are gathered back.  By the paper's
   parallel-composition rule this is *exact* — the combined release costs the
   same ε the unsharded path would charge, byte for byte.
5. **Noisy-answer cache** — re-asked queries replay the already-paid-for
   noisy vector at zero additional budget (post-processing closure), and
   :meth:`PrivateQueryEngine.consolidate` least-squares-reconciles all cached
   answers under a policy, again for free.  Every stored measurement carries
   the draw id of the invocation that produced it, so batch-mates sharing a
   noise draw stay identifiable.

Accounting of a batch is conservative: the stacked invocation is a single
ε-release, yet every participating session is charged the full ε of its
query, so per-session budgets never undercount.

For concurrent clients, put a :class:`~repro.engine.BatchingExecutor` in
front: it accumulates cross-thread submissions and auto-flushes on a
deadline/size trigger, so batching wins materialise under real load.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accounting.composition import PrivacyAccountant
from ..core.database import Database
from ..core.rng import RandomState, ensure_rng, spawn_children
from ..core.workload import LRUMemo, Workload
from ..exceptions import (
    AskTimeoutError,
    DurabilityError,
    MechanismError,
    PlanStoreError,
    PolicyError,
    PrivacyBudgetError,
)
from ..policy.graph import PolicyGraph, is_bottom
from .answer_cache import AnswerCache
from .durability.ledger_store import LedgerStore
from .durability.snapshotter import Snapshotter
from .factorisation import get_store as get_factorisation_store
from .observability import Observability
from .parallel import INLINE_BACKEND, create_execute_backend
from .pipeline import (
    ANSWERED,
    CANCELLED,
    EXPIRED,
    PENDING,
    REFUSED,
    STAGES,
    FlushPipeline,
    QueryTicket,
)
from .plan_cache import PlanCache
from .session import ClientSession
from .sharding import ShardSet

__all__ = [
    "ANSWERED",
    "CANCELLED",
    "EXPIRED",
    "EngineStats",
    "PENDING",
    "PrivateQueryEngine",
    "QueryTicket",
    "REFUSED",
]

logger = logging.getLogger(__name__)


@dataclass
class EngineStats:
    """Aggregate serving statistics, snapshotted by :attr:`PrivateQueryEngine.stats`.

    Counters live in the engine's observability
    :class:`~repro.engine.observability.MetricsRegistry` — this snapshot is
    *derived* from the registry under its lock (taken once), so stats and
    exported metrics can never disagree and snapshots taken while flushes
    run on other threads stay internally consistent.  The ``*_seconds``
    fields accumulate wall-clock per pipeline stage across all flushes
    (concurrent flushes add up, so the totals can exceed elapsed time —
    they measure *work*, not span).
    """

    queries_submitted: int = 0
    queries_answered: int = 0
    queries_refused: int = 0
    #: Tickets whose deadline passed before the charge stage — always zero ε.
    queries_expired: int = 0
    #: Tickets cancelled by their client before the pipeline claimed them.
    queries_cancelled: int = 0
    answer_cache_replays: int = 0
    #: Fresh measurements bought through :meth:`PrivateQueryEngine.top_up`,
    #: each charging exactly its declared ε increment.  A top-up is a
    #: ticket, so it also counts as a submitted and an answered (or refused)
    #: query.
    top_ups: int = 0
    flushes: int = 0
    batches_executed: int = 0
    sharded_batches: int = 0
    mechanism_invocations: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    answer_hits: int = 0
    answer_misses: int = 0
    epsilon_spent: float = 0.0
    epsilon_remaining: float = 0.0
    open_sessions: int = 0
    plan_seconds: float = 0.0
    charge_seconds: float = 0.0
    execute_seconds: float = 0.0
    resolve_seconds: float = 0.0
    #: Which execute backend served the flushes: ``"inline"`` (no pool) or
    #: ``"process"``.  A closed engine keeps reporting the backend that
    #: served it, although its later flushes run inline.
    execute_backend: str = "inline"
    #: Group dispatches handed to the worker pool (0 for inline engines; a
    #: fused group counts once, and a lone-unit flush runs inline without
    #: a dispatch).
    worker_dispatches: int = 0
    #: Parent-side wall-clock spent pickling plans/payloads for the process
    #: backend (always 0.0 inline) — the observable cost of crossing the
    #: process boundary.
    serialization_seconds: float = 0.0
    #: Total bytes shipped over the process-pool pipe (payloads, digests,
    #: and blobs the miss-only protocol actually sent) — 0 inline.
    bytes_shipped: int = 0
    #: Worker-side resident-cache misses of the miss-only blob protocol
    #: (each one cost a resubmission round trip with full blobs).
    blob_cache_misses: int = 0
    #: Times the process backend replaced a broken worker pool (a worker
    #: died mid-dispatch, e.g. OOM-kill or SIGKILL) and kept serving on a
    #: fresh pool.  0 for inline engines; after the respawn budget
    #: is exhausted the engine falls back inline permanently.
    pool_respawns: int = 0
    #: Units dispatched inside groups of two or more (each member counts
    #: once).  0 on inline engines, and while flushes stay at or below the
    #: worker count (every unit is then a group of one).
    fused_units: int = 0
    #: Process-wide factorisation-store telemetry (the store is shared by
    #: every plan and engine in the process — see
    #: :mod:`repro.engine.factorisation` — so these fields describe the
    #: process, not this engine alone).
    factorisation_hits: int = 0
    factorisation_misses: int = 0
    factorisation_entries: int = 0
    factorisation_build_seconds: float = 0.0

    @property
    def factorisation_hit_rate(self) -> float:
        """Fraction of factorisation-store lookups served from cache."""
        total = self.factorisation_hits + self.factorisation_misses
        return self.factorisation_hits / total if total else 0.0

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage timing totals keyed by stage name."""
        return {
            "plan": self.plan_seconds,
            "charge": self.charge_seconds,
            "execute": self.execute_seconds,
            "resolve": self.resolve_seconds,
        }

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of plan lookups served from the cache (warm-start gauge)."""
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0


class PrivateQueryEngine:
    """A multi-client, budget-managed Blowfish/DP query serving engine.

    Parameters
    ----------
    database:
        The private database the engine serves.  It is held by the trusted
        curator; clients only ever see noisy answers.
    total_epsilon:
        Global privacy budget across *all* sessions (sequential composition).
    default_policy:
        Policy used when a query does not name one.
    plan_cache_size:
        LRU capacity of the plan cache.  It bounds every plan the engine
        holds: shard plans live in the same cache, keyed by their induced
        sub-policy, so identical components share one entry.
    enable_answer_cache:
        When ``True`` (default), repeated queries are replayed for free.
    answer_cache_size:
        LRU capacity of the noisy-answer cache (evicted answers must simply
        be paid for again).
    prefer_data_dependent / consistency:
        Planner configuration forwarded to
        :func:`repro.blowfish.plan_mechanism`.
    random_state:
        Seed or generator for the engine's noise stream.  Each flush (a
        top-up included) derives an independent child stream from it, and
        the flush deals one child of that stream to each of its batches —
        the same derivation on every execute backend, so a seeded engine
        draws the same answers inline, on a pool of any width, and after
        :meth:`close`.  Passing an explicit ``random_state`` to
        :meth:`flush` replaces the flush stream for reproducible
        single-flush tests.
    enable_sharding:
        When ``True`` (default), multi-component policies are served
        scatter/gather over per-component domain shards (exact under
        parallel composition).  Workloads that a shard split cannot represent
        exactly fall back to the unsharded path automatically.
    execute_workers:
        When set (> 1) with the process backend, the execute stage runs on a
        shared pool of worker *processes* (:mod:`repro.engine.parallel`) —
        the only way past the GIL for the scipy-sparse mechanism kernels.
        The flush's batches are cut into work units (one per unsharded
        batch, one per touched shard of a sharded batch) and dispatched
        concurrently; when a flush holds more units than workers,
        compatible units (same planner config and noise flag) share one
        dispatch, one pickle and IPC round trip for several kernels.
        ``None`` or ≤ 1 executes inline on the flushing thread, and a flush
        of a single unit always runs inline.  Measured trade-off: on a
        2-core host, the 2-worker process backend loses to inline on
        perfbench's sharded-process set-up in every uncontended run, also
        since range rows ship as endpoints (inline had 24–36 % more
        throughput, 2.2 against 2.9 ms per flush); hosts with ≥ 4 cores
        are unmeasured.
    execute_backend:
        ``"process"`` (default) or ``"inline"`` (never a pool, whatever
        ``execute_workers`` says); anything else raises ``ValueError``.
        The backend never changes the draws: every batch draws from its
        own child of the flush stream (see ``random_state``), a sharded
        batch's per-shard streams are spawned from that child in sorted
        shard order, and where a unit runs or how units share a dispatch
        is decided only afterwards.  ε ledgers never depend on the backend
        at all.  A closed engine flushes inline.  Worker processes use the
        ``spawn`` start method, so the usual :mod:`multiprocessing` caveat
        applies: a *script* that builds a process-backed engine at module
        level must guard it with ``if __name__ == "__main__":`` — spawned
        workers re-import the main module, and an unguarded script would
        recurse.  A worker that dies — mid-kernel or before it finished
        starting — breaks the pool: the affected batch's charges roll back
        and its tickets refuse with
        :class:`~repro.exceptions.ReleaseFailedError`.  A broken pool is
        respawned at most ``parallel.RESPAWN_BUDGET`` times; after that
        every unit runs inline.
    observability:
        Optional :class:`~repro.engine.observability.Observability` hub.
        When omitted, a **disabled** hub is built: aggregate counters still
        flow through its metrics registry (they back :attr:`stats`), but
        tracing, latency histograms and the ε-audit stream stay off and the
        hot-path hooks reduce to one branch each.  Pass
        ``Observability(enabled=True)`` for per-flush traces and
        percentile histograms, and give it ``audit_path=``/``audit=`` for
        the durable ε-audit stream.
    durable_ledger:
        Optional path to a SQLite write-ahead ε-ledger
        (:class:`~repro.engine.durability.LedgerStore`).  A fresh store is
        initialised and bound: from then on every charge commits durably
        *before* its mechanism runs, and rollbacks/scope opens/closes are
        journalled too.  An existing store is **recovered** first — the
        accountant is rebuilt with every journalled charge, still-open
        ``session:`` scopes come back as :class:`ClientSession`\\ s (with
        ``recovered=True``), and the relaunched engine refuses queries
        against budget the crashed process already spent.  The store's
        journalled ``total_epsilon`` must match this constructor's, else
        :class:`~repro.exceptions.DurabilityError`.  ``None`` (default)
        keeps the pure in-memory fast path.
    snapshot_dir:
        Optional directory for crash-consistent warm-state snapshots
        (:class:`~repro.engine.durability.Snapshotter`): the plan store and
        the answer cache, each written atomically.  Whatever snapshot the
        directory already holds is restored at boot (corrupt files degrade
        to a cold start with a WARN); a background thread then re-snapshots
        every ``snapshot_interval`` seconds, plus once on :meth:`close`.
    snapshot_interval:
        Seconds between background snapshots (non-positive disables the
        thread; :meth:`snapshot` still works on demand).
    """

    def __init__(
        self,
        database: Database,
        total_epsilon: float,
        default_policy: Optional[PolicyGraph] = None,
        plan_cache_size: int = 64,
        enable_answer_cache: bool = True,
        answer_cache_size: int = 1024,
        prefer_data_dependent: bool = True,
        consistency: bool = True,
        random_state: RandomState = None,
        enable_sharding: bool = True,
        execute_workers: Optional[int] = None,
        execute_backend: str = "process",
        observability: Optional[Observability] = None,
        durable_ledger: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_interval: float = 30.0,
    ) -> None:
        self._database = database
        obs = observability if observability is not None else Observability(enabled=False)
        self._observability = obs
        self._audit = obs.audit
        self._accountant = PrivacyAccountant(total_epsilon, audit=obs.audit)
        self._default_policy = default_policy
        if default_policy is not None and default_policy.domain != database.domain:
            raise PolicyError(
                f"Default policy domain {default_policy.domain} does not match the "
                f"database domain {database.domain}"
            )
        self._prefer_data_dependent = bool(prefer_data_dependent)
        self._consistency = bool(consistency)
        # Caches mirror their hit/miss tallies into the registry only when
        # the hub is enabled — their own CacheStats always count regardless.
        cache_metrics = obs.metrics if obs.enabled else None
        self.plan_cache = PlanCache(maxsize=plan_cache_size, metrics=cache_metrics)
        self.answer_cache: Optional[AnswerCache] = (
            AnswerCache(maxsize=answer_cache_size, metrics=cache_metrics)
            if enable_answer_cache
            else None
        )
        self._rng = ensure_rng(random_state)
        # Locking discipline (narrow, never nested around mechanism work):
        #   _queue_lock  — pending queue, session registry, rng derivation;
        #   metrics.lock — every serving counter and histogram (the registry
        #                  replaced the former dedicated stats lock);
        #   accountant.lock — every budget ledger (shared with its scopes).
        self._queue_lock = threading.Lock()
        self._sessions: Dict[str, ClientSession] = {}
        self._pending: List[QueryTicket] = []
        self._ticket_ids = itertools.count(1)
        # Top-up tickets count down from -1, so asks' ids — and the ledger
        # labels built from them — never depend on how many top-ups ran.
        self._top_up_ids = itertools.count(-1, -1)
        self._draw_ids = itertools.count(1)
        # Serving counters are registry instruments, pre-bound here so hot
        # paths never re-ask the registry.  The pipeline increments the
        # _c_* / _h_* attributes directly.
        metrics = obs.metrics
        self._c_submitted = metrics.counter(
            "engine_queries_submitted_total", "Tickets queued by submit() or top_up()"
        )
        self._c_answered = metrics.counter(
            "engine_queries_answered_total", "Tickets resolved with an answer"
        )
        self._c_refused = metrics.counter(
            "engine_queries_refused_total", "Tickets resolved with a refusal"
        )
        self._c_expired = metrics.counter(
            "engine_queries_expired_total",
            "Tickets dropped before the charge stage (deadline passed, zero epsilon)",
        )
        self._c_cancelled = metrics.counter(
            "engine_queries_cancelled_total",
            "Tickets cancelled by their client before the pipeline claimed them",
        )
        self._c_replays = metrics.counter(
            "engine_answer_cache_replays_total", "Zero-budget answer-cache replays"
        )
        self._c_top_ups = metrics.counter(
            "engine_top_ups_total", "Incremental measurements bought via top_up()"
        )
        self._c_flushes = metrics.counter(
            "engine_flushes_total", "Pipeline runs (non-empty flushes)"
        )
        self._c_batches = metrics.counter(
            "engine_batches_executed_total", "Batches that executed successfully"
        )
        self._c_sharded_batches = metrics.counter(
            "engine_sharded_batches_total", "Batches served scatter/gather"
        )
        self._c_invocations = metrics.counter(
            "engine_mechanism_invocations_total", "Vectorised mechanism invocations"
        )
        self._c_fused = metrics.counter(
            "engine_fused_units_total",
            "Work units dispatched inside fused execute groups",
        )
        self._c_stage = {
            stage: metrics.counter(
                "engine_stage_seconds_total",
                "Cumulative wall-clock per pipeline stage",
                stage=stage,
            )
            for stage in STAGES
        }
        # Distributions are enabled-only: the disabled engine never observes
        # them (the single branch per hook), so they cost nothing.
        self._h_flush = metrics.histogram(
            "engine_flush_latency_seconds", "End-to-end flush latency"
        )
        self._h_queue_wait = metrics.histogram(
            "engine_queue_wait_seconds", "Submit-to-flush-pickup wait per ticket"
        )
        self._h_stage = {
            stage: metrics.histogram(
                "engine_stage_latency_seconds",
                "Per-round pipeline stage latency",
                stage=stage,
            )
            for stage in STAGES
        }
        self._enable_sharding = bool(enable_sharding)
        # LRU-bounded like every other engine cache: each ShardSet pins
        # projected sub-databases and scatter memos.  ``None`` memoises an
        # unshardable policy.
        self._shard_sets = LRUMemo(maxsize=32)
        self._pipeline = FlushPipeline(self)
        # The factorisation store is process-global; binding is idempotent
        # per registry, so several enabled engines share one instrument set.
        if obs.enabled:
            get_factorisation_store().bind_metrics(metrics)
        self._execute_backend = create_execute_backend(
            execute_backend,
            0 if execute_workers is None else int(execute_workers),
            metrics=obs.metrics if obs.enabled else None,
        )
        # Final telemetry snapshot captured by close() so stats keep
        # reporting the backend's lifetime counters after shutdown.
        self._closed_backend_stats: Optional[Dict[str, object]] = None
        # Durable tier (both opt-in; the in-memory fast path above is
        # untouched when neither is configured).
        self._ledger_store: Optional[LedgerStore] = None
        self._snapshotter: Optional[Snapshotter] = None
        if durable_ledger is not None:
            self._boot_durable_ledger(durable_ledger, float(total_epsilon))
        if snapshot_dir is not None:
            self._snapshotter = Snapshotter(
                self, snapshot_dir, interval=snapshot_interval
            )
            self._snapshotter.restore()
            self._snapshotter.start()

    def _boot_durable_ledger(self, path: str, total_epsilon: float) -> None:
        """Open (or recover) the write-ahead ε-ledger and bind it.

        A fresh store is stamped with the engine's budget and attached to
        the accountant built above.  An existing store *replaces* that
        accountant with the recovered one — every journalled charge
        replayed, every still-open ``session:`` scope rebuilt as a
        :class:`ClientSession` — so the relaunched engine refuses queries
        against budget the previous process already spent.
        """
        store = LedgerStore(path)
        try:
            stored_total = store.total_epsilon()
            if stored_total is None:
                store.initialise(total_epsilon)
                store.bind(self._accountant)
            else:
                if float(stored_total) != total_epsilon:
                    raise DurabilityError(
                        f"Ledger store {path!r} journals total_epsilon="
                        f"{stored_total}, but the engine was constructed "
                        f"with {total_epsilon}; recovery refuses to guess "
                        "which budget is authoritative"
                    )
                state = store.recover(audit=self._audit)
                self._accountant = state.accountant
                prefix = "session:"
                for scope in state.scopes:
                    if not scope.label.startswith(prefix):
                        continue
                    client_id = scope.label[len(prefix):]
                    self._sessions[client_id] = ClientSession(
                        client_id, scope.accountant, recovered=True
                    )
                logger.info(
                    "recovered durable ledger %s: ε spent %.6g of %.6g, "
                    "%d open session(s) rebuilt",
                    path,
                    self._accountant.spent(),
                    total_epsilon,
                    len(self._sessions),
                )
        except BaseException:
            store.close()
            raise
        self._ledger_store = store

    # --------------------------------------------------------------- sessions
    @property
    def database(self) -> Database:
        """The served database."""
        return self._database

    @property
    def accountant(self) -> PrivacyAccountant:
        """The engine-wide accountant that session allotments are reserved from."""
        return self._accountant

    @property
    def observability(self) -> Observability:
        """The observability hub (metrics registry, tracer, ε-audit stream)."""
        return self._observability

    @property
    def ledger_store(self) -> Optional[LedgerStore]:
        """The bound write-ahead ε-ledger, or ``None`` for in-memory engines."""
        return self._ledger_store

    @property
    def snapshotter(self) -> Optional[Snapshotter]:
        """The background snapshotter, or ``None`` when not configured."""
        return self._snapshotter

    def snapshot(self) -> Tuple[int, int]:
        """Take one crash-consistent snapshot now; returns (plans, answers).

        Requires the engine to be built with ``snapshot_dir=``.
        """
        if self._snapshotter is None:
            raise DurabilityError(
                "snapshot() needs an engine built with snapshot_dir="
            )
        return self._snapshotter.snapshot()

    def open_session(self, client_id: str, epsilon_allotment: float) -> ClientSession:
        """Open a budgeted session; the allotment is reserved immediately.

        Raises
        ------
        PrivacyBudgetError
            When the reservation would exceed the engine's remaining global
            budget, or a session with this id is already open.
        """
        client_id = str(client_id)
        with self._queue_lock:
            existing = self._sessions.get(client_id)
            if existing is not None and not existing.closed:
                raise PrivacyBudgetError(f"Session {client_id!r} is already open")
            scope = self._accountant.open_scope(
                f"session:{client_id}", epsilon_allotment
            )
            session = ClientSession(client_id, scope)
            self._sessions[client_id] = session
            return session

    def session(self, client_id: str) -> ClientSession:
        """Look up an open session by client id."""
        session = self._sessions.get(str(client_id))
        if session is None:
            raise PolicyError(f"No session open for client {client_id!r}")
        return session

    def sessions(self) -> List[ClientSession]:
        """Snapshot of every session this engine has opened (open or closed).

        Taken under the queue lock so a concurrent ``open_session`` cannot
        tear the listing; the serving tier's client-listing endpoint pages
        over it.
        """
        with self._queue_lock:
            return list(self._sessions.values())

    def close_session(self, client_id: str) -> float:
        """Close a session, refunding its unspent allotment to the global budget."""
        return self.session(client_id).close()

    # ---------------------------------------------------------------- queries
    def submit(
        self,
        client_id: str,
        workload: Workload,
        epsilon: float,
        policy: Optional[PolicyGraph] = None,
        partition: Optional[Sequence] = None,
        deadline: Optional[float] = None,
    ) -> QueryTicket:
        """Queue a query for the next :meth:`flush`; returns its ticket.

        Submission performs validation only — budget is charged when the
        batch executes, and answer-cache replays are never charged at all.

        ``deadline``, when given, is an **absolute** ``time.monotonic()``
        instant.  A ticket whose deadline passes before the pipeline's
        charge stage is dropped with terminal status ``"expired"`` and
        **zero ε spent** — the client lost an answer, never budget.  An
        already-expired deadline is rejected at submit (nothing is queued).

        ``partition``, when given, must be a collection of **domain cell
        indices** covering every cell the workload touches; queries over
        disjoint partitions then compose in parallel within a session.  The
        engine verifies the coverage claim at submit.  At execution time the
        discount additionally requires the release to be a function of the
        declared partition alone: on the unsharded path that means a data
        *independent* plan (a data-dependent mechanism reads the whole
        histogram), while on the sharded path even data-dependent plans
        qualify — each per-shard invocation reads one component's cells only,
        and an edge-closed partition is a union of components.
        """
        resolved_policy, frozen_partition = self._validate_submission(
            client_id, workload, epsilon, policy, partition
        )
        if deadline is not None:
            deadline = float(deadline)
            if not math.isfinite(deadline):
                raise MechanismError(
                    f"Query deadline must be a finite monotonic instant, "
                    f"got {deadline}"
                )
        return self._enqueue(
            client_id,
            workload,
            resolved_policy,
            epsilon,
            partition=frozen_partition,
            deadline=deadline,
        )

    def _enqueue(
        self,
        client_id: str,
        workload: Workload,
        policy: PolicyGraph,
        epsilon: float,
        partition: Optional[frozenset] = None,
        deadline: Optional[float] = None,
        top_up: Optional[tuple] = None,
    ) -> QueryTicket:
        """Queue one validated ticket under its (still open) session."""
        with self._queue_lock:
            session = self.session(client_id)
            if session.closed:
                raise PrivacyBudgetError(f"Session {client_id!r} is closed")
            ticket = QueryTicket(
                ticket_id=next(
                    self._ticket_ids if top_up is None else self._top_up_ids
                ),
                client_id=session.client_id,
                workload=workload,
                policy=policy,
                epsilon=float(epsilon),
                session=session,
                partition=partition,
                # The queue-wait histogram needs a pickup-relative clock;
                # unstamped tickets (disabled hub) read 0.0 and are skipped.
                submitted_at=(
                    time.perf_counter() if self._observability.enabled else 0.0
                ),
                deadline=deadline,
                top_up=top_up,
                # Stamped so cancel() can count itself without an engine ref.
                _cancel_counter=self._c_cancelled,
            )
            if ticket.expired():
                # Born dead: resolve immediately without ever queueing it,
                # so the flush path cannot charge it even in principle.
                ticket._claim()
                self._pipeline._resolve_expired(ticket)
            else:
                self._pending.append(ticket)
        self._c_submitted.inc()
        return ticket

    def _validate_submission(
        self,
        client_id: str,
        workload: Workload,
        epsilon: float,
        policy: Optional[PolicyGraph],
        partition: Optional[Sequence],
    ) -> tuple:
        """Validate a submission outside the queue lock (pure checks only)."""
        session = self.session(client_id)
        if session.closed:
            raise PrivacyBudgetError(f"Session {client_id!r} is closed")
        resolved_policy = policy if policy is not None else self._default_policy
        if resolved_policy is None:
            raise PolicyError("No policy given and the engine has no default policy")
        if workload.domain != self._database.domain:
            raise PolicyError(
                f"Workload domain {workload.domain} does not match the database "
                f"domain {self._database.domain}"
            )
        if resolved_policy.domain != self._database.domain:
            raise PolicyError(
                f"Policy domain {resolved_policy.domain} does not match the database "
                f"domain {self._database.domain}"
            )
        if not math.isfinite(epsilon) or epsilon <= 0:
            raise PrivacyBudgetError(
                f"Query epsilon must be positive and finite, got {epsilon}"
            )
        frozen_partition: Optional[frozenset] = None
        if partition is not None:
            try:
                frozen_partition = frozenset(int(cell) for cell in partition)
            except (TypeError, ValueError) as exc:
                raise PolicyError(
                    "Engine partitions must be collections of domain cell indices"
                ) from exc
            touched = {int(c) for c in workload.touched_columns()}
            uncovered = touched - frozen_partition
            if uncovered:
                raise PrivacyBudgetError(
                    f"Query claims partition of {len(frozen_partition)} cells but "
                    f"touches {len(uncovered)} cells outside it (e.g. "
                    f"{sorted(uncovered)[:5]}); the parallel-composition discount "
                    "only applies to queries confined to their declared partition"
                )
            # Parallel composition further requires the partition to be closed
            # under the policy's edges: a record moving across a crossing edge
            # would change this query's answer AND a query outside the
            # partition, so "disjoint" partitions would not actually isolate
            # the releases.  This mirrors the paper's disjoint *edge groups*,
            # and makes every valid partition a union of connected policy
            # components (which the sharded execution path relies on).
            crossing = [
                (u, v)
                for u, v in resolved_policy.edges
                if not is_bottom(u)
                and not is_bottom(v)
                and (int(u) in frozen_partition) != (int(v) in frozen_partition)
            ]
            if crossing:
                raise PrivacyBudgetError(
                    f"Partition is not closed under the policy: {len(crossing)} "
                    f"policy edges cross its boundary (e.g. {crossing[:3]}); "
                    "parallel composition requires partitions aligned with "
                    "disjoint groups of policy edges"
                )
        return resolved_policy, frozen_partition

    @property
    def pending_count(self) -> int:
        """Number of queries waiting for the next flush."""
        return len(self._pending)

    def flush(self, random_state: RandomState = None) -> List[QueryTicket]:
        """Execute all pending queries and return their (resolved) tickets.

        Cache replays are answered first at zero budget, and identical
        queries submitted within the same flush are deduplicated — one ticket
        pays, the duplicates replay its answer for free.  Both behaviours are
        part of the replay semantics controlled by ``enable_answer_cache``:
        with the cache disabled, every ask is deliberately an independent,
        individually paid release (e.g. for averaging repeated noisy draws).
        The remaining queries are grouped by ``(policy, epsilon,
        planner-config)`` and each group is answered by **one** vectorised
        mechanism invocation — or one invocation per touched shard on the
        scatter/gather path; every member session is charged its query's
        epsilon (refusals resolve the ticket with an error instead of
        raising, so one exhausted client cannot block the batch).

        Thread safety: any number of threads may call ``flush`` concurrently.
        Each call drains the queue atomically and drives its own pipeline
        run; budget ledgers, caches and counters are internally locked.  Two
        racing flushes may both pay for the same brand-new query (a
        cache-miss race) — that wastes budget, never privacy.
        """
        with self._queue_lock:
            tickets, self._pending = self._pending, []
            if not tickets:
                # Empty flushes are common under the batched front-end (a
                # racing size-trigger drained the queue first); don't burn a
                # child stream on them.
                return tickets
            if random_state is None:
                # Concurrent flushes must not share the engine generator:
                # derive an independent child stream per flush (deterministic
                # for seeded engines).  An explicit random_state bypasses the
                # derivation so single-flush tests stay exactly reproducible.
                (rng,) = spawn_children(self._rng, 1)
            else:
                rng = ensure_rng(random_state)
        self._pipeline.run(tickets, rng)
        return tickets

    def ask(
        self,
        client_id: str,
        workload: Workload,
        epsilon: float,
        policy: Optional[PolicyGraph] = None,
        partition: Optional[Sequence] = None,
        random_state: RandomState = None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Submit one query and execute it immediately (submit + flush).

        Other queued queries are flushed alongside it, preserving batching.

        ``deadline`` (absolute ``time.monotonic()``) forwards to
        :meth:`submit`: a ticket that expires before the charge stage
        resolves to ``"expired"`` with zero ε spent, and this call raises
        :class:`~repro.exceptions.DeadlineExpiredError` from ``result()``.

        When a concurrent flush races this one and drains the queue first,
        the ticket is resolved by *that* flush and this call waits for it.
        ``timeout`` bounds that wait in seconds (``None`` waits forever, the
        pre-PR 9 behaviour); on expiry an
        :class:`~repro.exceptions.AskTimeoutError` carrying the still-pending
        ticket is raised — the ticket stays owned by whichever flush picked
        it up and resolves normally, so ``exc.ticket`` can be re-polled.
        """
        ticket = self.submit(
            client_id,
            workload,
            epsilon,
            policy=policy,
            partition=partition,
            deadline=deadline,
        )
        self._flush_for(ticket, random_state, timeout)
        return ticket.result()

    def _flush_for(
        self,
        ticket: QueryTicket,
        random_state: RandomState,
        timeout: Optional[float] = None,
    ) -> None:
        """Flush, then wait until ``ticket`` resolved (see :meth:`ask`)."""
        self.flush(random_state=random_state)
        if not ticket.done():  # resolved by a concurrent flush that raced the queue
            if not ticket.wait(timeout):
                raise AskTimeoutError(ticket, timeout)

    # ------------------------------------------------------------ consistency
    def consolidate(self, policy: Optional[PolicyGraph] = None) -> int:
        """Least-squares-reconcile all cached answers under ``policy`` for free.

        Solves the draw-aware generalised least squares over the cached
        measurements' covariance structure.  Returns the number of live
        cached answer vectors updated; see
        :meth:`repro.engine.AnswerCache.consolidate`.
        """
        if self.answer_cache is None:
            return 0
        resolved = policy if policy is not None else self._default_policy
        if resolved is None:
            raise PolicyError("No policy given and the engine has no default policy")
        return self.answer_cache.consolidate(resolved)

    def top_up(
        self,
        client_id: str,
        workload: Workload,
        extra_epsilon: float,
        policy: Optional[PolicyGraph] = None,
        epsilon: Optional[float] = None,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Spend a little more on an already-cached workload, GLS-combining.

        Buys one fresh measurement of ``workload`` at ``extra_epsilon`` and
        combines it with the cached measurement(s) by generalised least
        squares under the honest noise models — the cached answer gets
        sharper while the session is charged **exactly the increment**,
        never the full re-buy price.  Replays of the workload keep hitting
        the same cache key and serve the upgraded vector.

        The measurement is a ticket of the flush pipeline, flushed like
        :meth:`ask` (other queued queries flush alongside it): it forms a
        batch of its own — scattered over the policy's shards when the
        policy is shardable — and draws from that batch's child of the
        flush stream, on whichever backend the engine runs.

        ``epsilon`` names the ε the workload was originally asked at; omit
        it when only one cached entry exists for the (policy, workload)
        pair.  A mid-top-up mechanism failure rolls the charge back — the
        ledger never leaks budget for a release that did not happen.

        Returns a copy of the upgraded answer vector.

        Raises
        ------
        MechanismError
            When the answer cache is disabled or no (or several) cached
            entries match.  A fresh measurement that fails to plan or
            execute raises :class:`~repro.exceptions.ReleaseFailedError`,
            which is a ``MechanismError`` too.
        PrivacyBudgetError
            When the session cannot afford ``extra_epsilon``.
        """
        if self.answer_cache is None:
            raise MechanismError(
                "top_up requires the answer cache (enable_answer_cache=True): "
                "there is no cached measurement to combine with"
            )
        if not math.isfinite(extra_epsilon) or extra_epsilon <= 0:
            raise PrivacyBudgetError(
                f"top_up epsilon must be positive and finite, got {extra_epsilon}"
            )
        resolved_policy, _ = self._validate_submission(
            client_id, workload, extra_epsilon, policy, None
        )
        if epsilon is not None:
            entry = self.answer_cache.peek(resolved_policy, workload, epsilon)
            if entry is None:
                raise MechanismError(
                    f"No cached measurement of this workload at epsilon={epsilon}; "
                    "pay for it first (ask/submit), then top it up"
                )
        else:
            candidates = self.answer_cache.find(resolved_policy, workload)
            if not candidates:
                raise MechanismError(
                    "No cached measurement of this workload under this policy; "
                    "pay for it first (ask/submit), then top it up"
                )
            if len(candidates) > 1:
                raise MechanismError(
                    f"{len(candidates)} cached entries match this workload (bought "
                    "at different epsilons); pass epsilon= to name the one to top up"
                )
            entry = candidates[0]
        ticket = self._enqueue(
            client_id,
            workload,
            resolved_policy,
            extra_epsilon,
            top_up=(entry.key, entry.epsilon),
        )
        self._flush_for(ticket, random_state)
        return ticket.result().copy()

    # -------------------------------------------------------------- sharding
    def _shard_set_for(self, policy: PolicyGraph) -> Optional[ShardSet]:
        """The memoised shard set for ``policy`` (``None`` when unshardable)."""
        if not self._enable_sharding:
            return None
        # Built outside the memo's lock (component analysis over a large
        # domain can be slow); whichever racing build published first serves.
        return self._shard_sets.get_or_compute(
            policy.signature(), lambda _: ShardSet.build(policy, self._database)
        )

    def shard_count(self, policy: Optional[PolicyGraph] = None) -> int:
        """Number of domain shards the engine would scatter this policy over.

        Returns 0 when the policy is served unsharded (connected policy,
        sharding disabled, or a component without edges).
        """
        resolved = policy if policy is not None else self._default_policy
        if resolved is None:
            raise PolicyError("No policy given and the engine has no default policy")
        shard_set = self._shard_set_for(resolved)
        return len(shard_set) if shard_set is not None else 0

    # ------------------------------------------------------------ persistence
    def save_plans(self, path: str) -> int:
        """Persist every cached plan, shard plans included, to ``path``.

        The store is the serialisation layer's on-disk face: a restarted
        server that :meth:`load_plans` the file serves the same workload with
        **zero** cold plans (``stats.plan_cache_hit_rate == 1.0``).  Entries
        are keyed by content signatures, so loading a store against a
        different policy/workload mix is harmless — mismatched entries simply
        never hit.  Stores are pickles: load only stores this deployment
        wrote itself (see :func:`~repro.engine.plan_cache.read_plan_store`).
        Returns the number of entries written.
        """
        return self.plan_cache.save(path)

    def load_plans(self, path: str, on_corrupt: str = "raise") -> int:
        """Load a persisted plan store; returns the number of entries loaded.

        Entries go into :attr:`plan_cache` — including the ``shard_entries``
        of stores written when each shard kept its own cache.  Re-loading a
        store the cache already holds is a no-op and returns 0.

        A truncated/corrupt file or a format-version mismatch raises the
        versioned :class:`~repro.exceptions.PlanStoreError` (a
        :class:`~repro.exceptions.MechanismError`), never a raw unpickling
        exception.  With ``on_corrupt="cold"`` the engine instead degrades
        to a cold start — WARN log, return 0, every plan re-planned on
        first use — the right policy for boot-time restores, where a
        half-written snapshot must not keep the server down.  A *missing*
        file still raises either way (a wrong path is a configuration
        error, not corruption).
        """
        if on_corrupt not in ("raise", "cold"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'cold', got {on_corrupt!r}"
            )
        try:
            return self.plan_cache.load(path)
        except PlanStoreError as exc:
            if on_corrupt == "raise":
                raise
            logger.warning(
                "plan store %s unusable (%s); degrading to cold start — "
                "plans will be re-planned on first use",
                path,
                exc,
            )
            return 0

    # ------------------------------------------------------------------ stats
    @property
    def stats(self) -> EngineStats:
        """A consistent snapshot of the engine's serving counters.

        Derived from the observability registry under its (re-entrant) lock,
        so every field is read from the same instant — the guarantee the old
        dedicated stats lock gave, now shared with the metric exporters.
        """
        with self._observability.metrics.lock:
            snapshot = EngineStats(
                queries_submitted=int(self._c_submitted.value),
                queries_answered=int(self._c_answered.value),
                queries_refused=int(self._c_refused.value),
                queries_expired=int(self._c_expired.value),
                queries_cancelled=int(self._c_cancelled.value),
                answer_cache_replays=int(self._c_replays.value),
                top_ups=int(self._c_top_ups.value),
                flushes=int(self._c_flushes.value),
                batches_executed=int(self._c_batches.value),
                sharded_batches=int(self._c_sharded_batches.value),
                mechanism_invocations=int(self._c_invocations.value),
                fused_units=int(self._c_fused.value),
                plan_seconds=self._c_stage["plan"].value,
                charge_seconds=self._c_stage["charge"].value,
                execute_seconds=self._c_stage["execute"].value,
                resolve_seconds=self._c_stage["resolve"].value,
            )
        # Closed engines flush inline from here on, but the lifetime
        # telemetry of the backend that served must not read as zeros.
        telemetry = self._closed_backend_stats
        if telemetry is None:
            telemetry = self._backend_telemetry(self._execute_backend)
        for field_name, value in telemetry.items():
            setattr(snapshot, field_name, value)
        snapshot.plan_hits = self.plan_cache.stats.hits
        snapshot.plan_misses = self.plan_cache.stats.misses
        snapshot.answer_hits = self.answer_cache.stats.hits if self.answer_cache else 0
        snapshot.answer_misses = (
            self.answer_cache.stats.misses if self.answer_cache else 0
        )
        # Factorisation-store telemetry is process-wide by design (the store
        # is what lets sibling engines and re-hydrated plans share Gram work).
        factorisation = get_factorisation_store().stats()
        snapshot.factorisation_hits = factorisation.hits
        snapshot.factorisation_misses = factorisation.misses
        snapshot.factorisation_entries = factorisation.entries
        snapshot.factorisation_build_seconds = factorisation.build_seconds
        snapshot.epsilon_spent = self._accountant.spent()
        snapshot.epsilon_remaining = self._accountant.remaining()
        snapshot.open_sessions = sum(
            1 for s in list(self._sessions.values()) if not s.closed
        )
        return snapshot

    @staticmethod
    def _backend_telemetry(backend) -> Dict[str, object]:
        """One backend's lifetime counters, keyed by their stats field names.

        Both backends expose ``name``/``dispatches``/``serialization_seconds``;
        the blob-protocol counters exist only on the process backend, so on
        the inline backend they honestly read 0.
        """
        return {
            "execute_backend": backend.name,
            "worker_dispatches": backend.dispatches,
            "serialization_seconds": backend.serialization_seconds,
            "bytes_shipped": getattr(backend, "bytes_shipped", 0),
            "blob_cache_misses": getattr(backend, "blob_cache_misses", 0),
            "pool_respawns": getattr(backend, "pool_respawns", 0),
        }

    def _record_stage_timings(self, timings: Dict[str, float]) -> None:
        """Accumulate one pipeline round's stage wall-clock into the totals."""
        enabled = self._observability.enabled
        for stage, seconds in timings.items():
            self._c_stage[stage].inc(seconds)
            if enabled:
                self._h_stage[stage].observe(seconds)

    def _next_draw_id(self) -> int:
        """Fresh identifier for one mechanism-invocation noise draw."""
        return next(self._draw_ids)

    def _advance_draw_ids(self, minimum: int) -> None:
        """Ensure future draw ids start at ``minimum`` or later.

        Restoring persisted answers re-seats measurements that carry draw
        ids from the previous process; a counter restarted at 1 would hand
        those same ids to fresh draws, and the resolve stage's shared-draw
        bookkeeping (GLS consolidation) would treat independent noise as
        correlated.  Draw ids only ever need to be unique, so skipping
        ahead is always safe.
        """
        with self._queue_lock:
            current = next(self._draw_ids)
            self._draw_ids = itertools.count(max(current, int(minimum)))

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release engine resources (the execute backend's worker pool).

        Worker processes are not reclaimed by garbage collection, so
        engines built with ``execute_workers=`` should be
        closed (or used as context managers) when discarded.  Sessions,
        caches and the accountant are plain objects and need no teardown;
        the engine remains usable for session bookkeeping after ``close``,
        but flushes fall back to inline execution.  The observability hub's
        audit file handle is closed too (the in-memory mirror, metrics and
        completed traces stay readable).  The durable tier is shut down
        last: the snapshotter takes one final snapshot, and the ledger
        store's connection closes — its WAL already holds every charge, so
        ``close`` adds no privacy state, it only releases handles.
        """
        snapshotter, self._snapshotter = self._snapshotter, None
        if snapshotter is not None:
            snapshotter.stop(final_snapshot=True)
        backend = self._execute_backend
        if self._closed_backend_stats is None:
            # Provisional snapshot before the swap (stats readers racing the
            # shutdown must never see zeros), final snapshot after the
            # drain — an in-flight dispatch can still bump the protocol
            # counters while close(wait=True) waits for it.
            self._closed_backend_stats = self._backend_telemetry(backend)
            self._execute_backend = INLINE_BACKEND
            backend.close(wait=True)
            self._closed_backend_stats = self._backend_telemetry(backend)
        self._observability.close()
        store, self._ledger_store = self._ledger_store, None
        if store is not None:
            store.close()

    def __enter__(self) -> "PrivateQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        backend = getattr(self, "_execute_backend", None)
        if backend is not None:  # None when __init__ failed before building it
            backend.close(wait=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrivateQueryEngine(domain={self._database.domain.shape}, "
            f"spent={self._accountant.spent():.6g}/{self._accountant.total_epsilon}, "
            f"sessions={len(self._sessions)})"
        )
