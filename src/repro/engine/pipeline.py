"""The four-stage flush pipeline: **plan → charge → execute → resolve**.

PR 1's engine held one big lock across the whole flush — sound, but fully
serialising: under concurrent clients the batch executor's throughput win
evaporated because planning *and* mechanism execution sat inside the critical
section.  This module narrows the locking to the transactional parts only,
mirroring the HTAP separation of transactional and analytical paths:

1. **plan** — lock-free.  Plans, shard plans included, are memoised in the
   engine's signature-keyed :class:`~repro.engine.PlanCache`, whose internal
   lock covers only the dict lookup; actual planning runs outside any lock.
   The sharded scatter decision (:mod:`repro.engine.sharding`) happens here
   too, and each touched shard's plan is looked up once, for every stage.
2. **charge** — under the *narrowed accountant lock* (the per-ledger lock
   inside :class:`~repro.accounting.PrivacyAccountant`), held only for the
   microseconds of a check-then-append.  Refusals resolve tickets
   immediately; admissions record the charged operation for rollback.
3. **execute** — outside any lock.  The batch work is cut into
   :class:`~repro.engine.parallel.ExecuteUnit` work units (one per unsharded
   batch, one per touched shard of a sharded batch) and dispatched as
   groups to the engine's execute backend — inline on the flushing thread,
   or a **process pool** that runs mechanism kernels across cores
   (:mod:`repro.engine.parallel`).  Every unit draws from its own stream,
   dealt before dispatch by the one derivation of
   :meth:`FlushPipeline._execute_batches`, so which backend runs a unit
   and how units are grouped never change a seeded engine's draws.  A
   failure here rolls every charge of the batch back via
   :meth:`~repro.accounting.PrivacyAccountant.rollback` — nothing was
   released, so nothing may be billed.
4. **resolve** — back under the (stats/cache) locks: ticket statuses, session
   counters, answer-cache writes tagged with the batch's draw id, and the
   per-stage timing accumulators.

A **top-up** (:meth:`PrivateQueryEngine.top_up`) is a ticket like any other:
it skips the replay and dedup of pickup (it must buy a fresh measurement),
forms a batch of its own, is charged its increment, and resolves by
GLS-appending the measurement to the cached entry it names.

Concurrent flushes are linearised only where they must be: budget ledgers
(accountant lock), cache maps (their own locks) and counters (stats lock).
Two racing flushes may both *pay* for the same never-before-seen query — a
cache-miss race costs budget efficiency, never privacy, and the
deadline-batched front-end (:class:`~repro.engine.BatchingExecutor`) makes it
rare by funnelling concurrent submissions into shared flushes.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.rng import spawn_children
from ..core.workload import LRUMemo, Workload, stack_workloads
from ..exceptions import (
    DeadlineExpiredError,
    MechanismError,
    PrivacyBudgetError,
    QueryCancelledError,
    ReleaseFailedError,
)
from ..mechanisms.base import NoiseModel
from ..policy.graph import PolicyGraph
from .answer_cache import Measurement
from .durability.faults import fault_point
from .parallel import INLINE_BACKEND, ExecuteUnit, ExecuteUnitGroup, execute_groups
from .plan_cache import CachedPlan
from .session import ClientSession
from .sharding import ShardScatter, ShardSet
from .signature import answer_key, plan_key
from .waiters import TicketLifecycle, TicketWaiter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import PrivateQueryEngine
    from .observability import Trace

logger = logging.getLogger(__name__)

PENDING = "pending"
ANSWERED = "answered"
REFUSED = "refused"
#: Terminal status of a ticket the client gave up on (:meth:`QueryTicket.cancel`).
#: Work already charged keeps its ε; not-yet-charged work spends nothing.
CANCELLED = "cancelled"
#: Terminal status of a ticket whose deadline passed before the charge stage.
#: Always zero ε: the pipeline drops expired tickets *before* charging.
EXPIRED = "expired"

#: The stages whose wall-clock is tracked by :class:`~repro.engine.EngineStats`.
STAGES = ("plan", "charge", "execute", "resolve")

#: Error prefixes of tickets whose release failed before or after charging
#: (as opposed to a budget refusal).
PLAN_FAILED = "Planning failed (nothing charged)"
EXECUTE_FAILED = "Batch execution failed (charge rolled back)"

#: Bound of the pipeline's stacked-batch memo (:meth:`FlushPipeline._stacked`).
#: An entry pins one stacked CSR copy of its members — 12 bytes per nonzero
#: plus 4 per row; a lone workload is its own stack and pins nothing new.
#: sharded-process's unit (8 workloads × 8 ranges over a 1024-cell shard,
#: ~22 000 nonzeros) is ~260 KB, so the memo's worst case there is ~8.5 MB;
#: it only ever holds one entry per distinct unit content (8 there).  On
#: perfbench's http-mixed traffic (mostly lone 1-8-range workloads) the
#: stacked copies pinned measured at most 29 KB.
STACK_MEMO_SIZE = 32

AnswerKeyT = Tuple[str, str, str]


def audit_context(audit, **ids):
    """``audit.context(**ids)``, or a no-op context when auditing is off.

    Ledger mutations made inside inherit the ids as ambient attribution: the
    accountant emits its charge/rollback events two layers down, where no
    ticket or trace is known.
    """
    return nullcontext() if audit is None else audit.context(**ids)


def checked_noise_model(
    model: Optional[NoiseModel], rows: int, layout: str
) -> Optional[NoiseModel]:
    """``model`` when it describes exactly ``rows`` rows, else ``None``.

    A mechanism that mis-sizes its metadata is a bug, but metadata is
    advisory: the answers stand and the measurement degrades to the proxy
    noise model (with a WARNING naming ``layout``) rather than slicing rows
    that belong to a different layout into later covariance assembly.
    """
    if model is not None and model.num_rows != rows:
        logger.warning(
            "noise model reports %d rows but %s has %d; degrading it to the "
            "proxy noise model",
            model.num_rows,
            layout,
            rows,
        )
        return None
    return model


@dataclass
class QueryTicket:
    """Handle on one submitted query; resolved by :meth:`PrivateQueryEngine.flush`.

    Tickets are also the synchronisation point of the concurrent front-ends.
    Completion notification is waiter-abstracted
    (:class:`~repro.engine.waiters.TicketLifecycle`): :meth:`wait` blocks a
    thread on the lazily-created thread waiter — how
    :meth:`BatchingExecutor.ask` turns deadline-batched execution back into a
    blocking call — while an event-loop front-end attaches a
    :class:`~repro.engine.serving.LoopTicketWaiter` via :meth:`add_waiter`
    and awaits the resolution instead of parking a thread on it.
    """

    ticket_id: int
    client_id: str
    workload: Workload
    policy: PolicyGraph
    epsilon: float
    #: The session the query was submitted under.  Charges always go to THIS
    #: session — closing and reopening a client id between submit and flush
    #: must never bill the new session for the old session's query.
    session: ClientSession = field(repr=False, default=None)  # type: ignore[assignment]
    partition: Optional[frozenset] = None
    status: str = PENDING
    answers: Optional[np.ndarray] = None
    from_cache: bool = False
    error: Optional[str] = None
    #: ``True`` for a ``refused`` ticket whose release failed (planning or
    #: execution, see :data:`PLAN_FAILED` / :data:`EXECUTE_FAILED`) rather
    #: than its budget; it spent no ε either way.
    release_failed: bool = False
    #: Identifier of the mechanism invocation that produced the answer.
    #: Batch-mates share a draw id because their noise came from one
    #: invocation — the correlation the road-mapped GLS consolidation needs.
    #: Set whenever the answer came from exactly one invocation (unsharded,
    #: or sharded touching a single shard — then it equals that shard's
    #: entry in the mapping below); ``None`` only for answers gathered from
    #: several per-shard invocations, where no single draw exists.
    draw_id: Optional[int] = None
    #: Sharded answers: ``{shard index: draw id}`` — one id per per-shard
    #: mechanism invocation.  Batch-mates touching the same shard share that
    #: shard's id; the per-shard resolution is exactly what generalised
    #: least squares over the draw correlation structure needs.
    shard_draw_ids: Optional[Dict[int, int]] = None
    #: ``perf_counter`` stamp taken at submit — the queue-wait metric
    #: (submission → flush pickup) is derived from it when observability is
    #: enabled.  Zero for tickets constructed outside the engine.
    submitted_at: float = 0.0
    #: Absolute ``time.monotonic()`` deadline (``None`` = no deadline).  The
    #: pipeline drops tickets whose deadline passed *before* the charge
    #: stage, so an expired query spends zero ε.
    deadline: Optional[float] = None
    #: Top-up tickets: the answer key and key ε of the cached entry the
    #: fresh measurement joins.  ``None`` for asks.
    top_up: Optional[Tuple[AnswerKeyT, float]] = None
    #: Engine counter bumped by :meth:`cancel` — stamped at submit so the
    #: ticket can count its own cancellation without holding an engine ref.
    _cancel_counter: Optional[object] = field(default=None, repr=False, compare=False)
    _lifecycle: TicketLifecycle = field(
        default_factory=TicketLifecycle, repr=False, compare=False
    )

    @property
    def label(self) -> str:
        """The ledger label the ticket's charge is recorded under."""
        if self.top_up is not None:
            return f"top-up:{self.client_id}:{self.top_up[0][1][:12]}"
        return f"query:{self.client_id}:{self.ticket_id}"

    def done(self) -> bool:
        """``True`` once the ticket reached a terminal status."""
        return self._lifecycle.resolved

    def expired(self, now: Optional[float] = None) -> bool:
        """``True`` when the ticket carries a deadline that has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def _claim(self) -> bool:
        """Reserve the right to resolve this ticket; first finisher wins."""
        return self._lifecycle.claim()

    def cancel(self) -> bool:
        """Resolve the ticket to ``cancelled``; ``False`` when too late.

        Cancellation races the flush pipeline through the lifecycle's claim
        latch: whoever claims first owns the resolution.  A successful
        cancel guarantees the query will never be charged (the pipeline
        skips unclaimable tickets before the charge stage); a ``False``
        return means the pipeline already owns the ticket — it may be
        mid-charge or resolved, and any ε it spends stands.  No refunds:
        the ledger never rewinds for a bored caller.
        """
        if not self._lifecycle.claim():
            return False
        self.status = CANCELLED
        self.error = (
            f"Ticket {self.ticket_id} (client {self.client_id!r}) was "
            "cancelled by the client before it resolved"
        )
        counter = self._cancel_counter
        if counter is not None:
            counter.inc()
        self._lifecycle.resolve()
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticket is resolved; returns :meth:`done`."""
        return self._lifecycle.thread_waiter().wait(timeout)

    def add_waiter(self, waiter: TicketWaiter) -> bool:
        """Attach a completion waiter; ``True`` when it was notified inline.

        Each attached waiter's ``notify`` is delivered exactly once, on
        whichever thread's flush resolves the ticket (immediately when the
        ticket already resolved).  This is the hook the asyncio front-end
        uses to await tickets without a thread per client.
        """
        return self._lifecycle.add_waiter(waiter)

    def _notify_resolved(self) -> None:
        """Terminal-status latch: wake every waiter exactly once."""
        self._lifecycle.resolve()

    def result(self) -> np.ndarray:
        """The noisy answers; raises when the query was refused or is pending.

        A refusal raises :class:`~repro.exceptions.PrivacyBudgetError`, or
        its subclass :class:`~repro.exceptions.ReleaseFailedError` when the
        release failed rather than the budget.
        """
        if self.status == ANSWERED:
            assert self.answers is not None
            return self.answers
        if self.status == REFUSED:
            error = ReleaseFailedError if self.release_failed else PrivacyBudgetError
            raise error(
                self.error
                or f"Query was refused (ticket {self.ticket_id}, "
                f"client {self.client_id!r})"
            )
        if self.status == CANCELLED:
            raise QueryCancelledError(self)
        if self.status == EXPIRED:
            raise DeadlineExpiredError(self)
        raise MechanismError(
            f"Ticket {self.ticket_id} is still pending; call PrivateQueryEngine.flush()"
        )


@dataclass
class TicketNoise:
    """One ticket's slice of its invocation(s)' honest noise metadata.

    ``stds`` covers the ticket's full answer vector; ``basis`` is the
    unsharded invocation's factor rows, ``shard_bases`` maps shard index →
    factor rows (each shard invocation has its own independent factor
    space).  Factor columns are shared with batch-mates of the same
    invocation, which is what lets the answer cache correlate them.
    """

    stds: np.ndarray
    basis: Optional[sp.csr_matrix] = None
    shard_bases: Optional[Dict[int, sp.csr_matrix]] = None


@dataclass
class PlannedBatch:
    """One compatible ``(policy, epsilon, config)`` group moving through the stages."""

    tickets: List[QueryTicket]
    epsilon: float
    #: Unsharded plan (set when the batch takes the unsharded path).
    entry: Optional[CachedPlan] = None
    #: Sharded path: one scatter per ticket, and each touched shard's plan
    #: by shard index — looked up once in the plan stage, so a concurrent
    #: flush evicting it from the shared cache cannot force a re-plan.
    scatters: Optional[Dict[int, ShardScatter]] = None
    shard_plans: Optional[Dict[int, CachedPlan]] = None
    #: Set when planning itself failed — every ticket refuses, nothing charges.
    plan_error: Optional[str] = None
    admitted: List[QueryTicket] = field(default_factory=list)
    charged: List[Tuple[ClientSession, object]] = field(default_factory=list)
    #: Set when execution failed — charges roll back, admitted tickets refuse.
    execute_error: Optional[str] = None
    #: Per-admitted-ticket answer vectors (aligned with ``admitted``).
    results: Optional[List[np.ndarray]] = None
    #: Per-admitted-ticket honest noise metadata (aligned with ``admitted``;
    #: ``None`` entries mark tickets whose mechanism declared no model).
    noise: Optional[List[Optional[TicketNoise]]] = None
    invocations: int = 0
    #: Sharded path: the sorted shard indices that were invoked, in the
    #: order execution ran them — one draw id is allocated per entry at
    #: resolve time.
    shard_indices: Optional[List[int]] = None

    @property
    def sharded(self) -> bool:
        """``True`` when the batch executes via scatter/gather."""
        return self.scatters is not None


class FlushPipeline:
    """Stage driver for one engine; stateless between flushes.

    All mutable state lives on the engine (counters, caches, accountants) or
    on the tickets themselves, so any number of threads may run pipelines
    concurrently.
    """

    def __init__(self, engine: "PrivateQueryEngine") -> None:
        self._engine = engine
        # Stacked execute-unit batches by member signatures (see _stacked).
        self._stacked_batches = LRUMemo(maxsize=STACK_MEMO_SIZE)

    # --------------------------------------------------------- observability
    def _obs_flush_begin(self, tickets: List[QueryTicket]):
        """Flush-observation hook: queue waits + open the trace.

        Returns ``None`` when observability is disabled (the single branch a
        disabled engine pays here) or a ``(trace, perf_counter start)``
        context otherwise.
        """
        obs = self._engine._observability
        if obs is None or not obs.enabled:
            return None
        started = time.perf_counter()
        queue_wait = self._engine._h_queue_wait
        for ticket in tickets:
            if ticket.submitted_at:
                queue_wait.observe(max(0.0, started - ticket.submitted_at))
        return obs.start_trace("flush", tickets=len(tickets)), started

    def _obs_flush_end(self, context) -> None:
        """Close the flush trace and record the flush-latency sample."""
        if context is None:
            return
        trace, started = context
        self._engine._h_flush.observe(time.perf_counter() - started)
        if trace is not None:
            trace.finish()

    def _obs_unit_done(
        self,
        trace: Optional["Trace"],
        unit: ExecuteUnit,
        submitted_wall: float,
        kernel: Optional[float],
        hops,
        parent=None,
    ) -> None:
        """Record one executed unit: kernel-seconds sample + unit span tree.

        The histogram is keyed by a short plan-signature label; the sample
        is the measured kernel (worker-measured on the process backend) when
        known, the parent-observed round trip otherwise.  The unit span
        adopts the protocol hops its dispatch accumulated — worker
        execution, blob-miss round trips, closed-pool inline runs — as child
        spans, which is how worker-process spans join the flush's tree.
        """
        obs = self._engine._observability
        if obs is None or not obs.enabled:
            return
        end_wall = time.time()
        key = unit.plan.key
        label = f"{key[1][:12]}/{key[2]}"
        obs.metrics.histogram(
            "engine_unit_kernel_seconds",
            "Per-unit kernel seconds, keyed by plan signature",
            plan=label,
        ).observe(kernel if kernel is not None else max(0.0, end_wall - submitted_wall))
        if trace is None:
            return
        span = trace.add_span(
            "unit",
            submitted_wall,
            end_wall,
            parent=parent,
            plan=label,
            workloads=len(unit.slices),
        )
        for hop in hops:
            attributes = {
                k: v for k, v in hop.items() if k not in ("kind", "start", "end")
            }
            trace.add_span(hop["kind"], hop["start"], hop["end"], parent=span, **attributes)

    # ---------------------------------------------------------------- driver
    def run(self, tickets: List[QueryTicket], rng: np.random.Generator) -> None:
        """Resolve every ticket: replays first, then staged batch execution."""
        engine = self._engine
        engine._c_flushes.inc()
        context = self._obs_flush_begin(tickets)
        trace = context[0] if context is not None else None
        try:
            self._run_flush(tickets, rng, trace)
        finally:
            self._obs_flush_end(context)

    def _run_flush(
        self,
        tickets: List[QueryTicket],
        rng: np.random.Generator,
        trace: Optional["Trace"],
    ) -> None:
        engine = self._engine
        to_execute: List[QueryTicket] = []
        followers: Dict[AnswerKeyT, List[QueryTicket]] = {}
        seen_keys: Dict[AnswerKeyT, QueryTicket] = {}
        #: Replays resolved by this flush — recorded on the trace so a
        #: replay-only flush reads as "all served from cache", not as an
        #: empty tree.
        replays = 0
        now = time.monotonic()
        for ticket in tickets:
            if ticket.done():
                # Cancelled (or otherwise finished) before pickup: nothing
                # to plan, and crucially nothing to charge.
                continue
            if ticket.expired(now):
                # Dropping expired tickets here — before grouping — keeps
                # batch composition (and therefore per-batch RNG child
                # derivation) identical to a run where the expired queries
                # were never submitted.
                if ticket._claim():
                    self._resolve_expired(ticket, trace)
                continue
            if ticket.top_up is None and engine.answer_cache is not None:
                # Dedup identical queries *within* this flush: one ticket
                # pays, the rest replay its answer — the same zero-budget
                # post-processing they would get one flush later.  The
                # duplicate check comes first so followers never register
                # a spurious cache miss for an answer the flush will have.
                key = answer_key(ticket.policy, ticket.workload, ticket.epsilon)
                if key in seen_keys:
                    followers.setdefault(key, []).append(ticket)
                    continue
                cached = engine.answer_cache.lookup(
                    ticket.policy, ticket.workload, ticket.epsilon
                )
                if cached is not None:
                    if ticket._claim():
                        self._resolve_replay(
                            ticket, cached.answers, cached.draw_id, cached.shard_draw_ids
                        )
                        replays += 1
                    continue
                seen_keys[key] = ticket
            to_execute.append(ticket)

        self._run_round(to_execute, rng, trace)

        # Resolve duplicates: replay from an answered leader for free.  A
        # refused leader must not drag its duplicates down — their own
        # sessions may have budget — so the first duplicate is promoted to
        # leader and executed; any remainder waits for the next round.
        pending_followers = followers
        while pending_followers:
            next_followers: Dict[AnswerKeyT, List[QueryTicket]] = {}
            retry: List[QueryTicket] = []
            for key, duplicate_tickets in pending_followers.items():
                leader = seen_keys[key]
                if leader.status == ANSWERED:
                    for ticket in duplicate_tickets:
                        if not ticket._claim():
                            continue
                        # The replay IS a cache hit (the leader's answer was
                        # just stored), so the counters must agree with the
                        # replay counter.
                        if engine.answer_cache is not None:
                            engine.answer_cache.count_follower_hit()
                        self._resolve_replay(
                            ticket,
                            leader.answers,
                            leader.draw_id,
                            leader.shard_draw_ids,
                        )
                        replays += 1
                    continue
                promoted, rest = duplicate_tickets[0], duplicate_tickets[1:]
                seen_keys[key] = promoted
                retry.append(promoted)
                if rest:
                    next_followers[key] = rest
            self._run_round(retry, rng, trace)
            pending_followers = next_followers

        if trace is not None and replays:
            trace.attributes["replays"] = replays

    def _run_round(
        self,
        tickets: List[QueryTicket],
        rng: np.random.Generator,
        trace: Optional["Trace"] = None,
    ) -> None:
        """Group tickets and push every group through the four stages."""
        if not tickets:
            return
        engine = self._engine
        timings = dict.fromkeys(STAGES, 0.0)

        # ---- stage 1: plan (lock-free; caches lock internally only briefly)
        started = time.perf_counter()
        wall = time.time() if trace is not None else 0.0
        groups: Dict[tuple, List[QueryTicket]] = {}
        for ticket in tickets:
            key = plan_key(
                ticket.policy,
                ticket.epsilon,
                engine._prefer_data_dependent,
                engine._consistency,
            )
            if ticket.top_up is not None:
                # A top-up batches alone: next to a same-workload ask, two
                # identical rows of one invocation would be paid twice and
                # worth once.
                key = (key, ticket.ticket_id)
            groups.setdefault(key, []).append(ticket)
        batches: List[PlannedBatch] = []
        for group in groups.values():
            if engine.answer_cache is None:
                # Independent-draw semantics: identical queries stacked into
                # one invocation would yield byte-identical rows — paid
                # twice, worth once.  Split duplicates into separate rounds
                # so each paid query gets its own noise draw.
                rounds = self._split_duplicates(group)
            else:
                rounds = [group]
            for round_tickets in rounds:
                batches.append(self._plan_batch(round_tickets))
        timings["plan"] = time.perf_counter() - started
        if trace is not None:
            trace.add_span("plan", wall, time.time(), batches=len(batches))

        # ---- stage 2: charge (narrowed accountant lock, per ledger append)
        started = time.perf_counter()
        wall = time.time() if trace is not None else 0.0
        for batch in batches:
            self._charge_batch(batch, trace)
        timings["charge"] = time.perf_counter() - started
        if trace is not None:
            trace.add_span("charge", wall, time.time())

        # ---- stage 3: execute (no locks held; optionally on worker threads)
        started = time.perf_counter()
        if trace is not None:
            # The stage span opens before the units run so their spans (and
            # the worker spans shipped back by the process protocol) can
            # nest under it — one coherent tree per flush.
            with trace.span("execute") as execute_span:
                self._execute_batches(batches, rng, trace, execute_span)
        else:
            self._execute_batches(batches, rng, None, None)
        timings["execute"] = time.perf_counter() - started

        # ---- stage 4: resolve (stats/cache locks only)
        # "pre-resolve" sits after every mechanism ran but before any answer
        # reaches a client: a crash here spends noise draws the clients never
        # saw — the durable ledger still counts them (over-count, allowed).
        fault_point("pre-resolve")
        started = time.perf_counter()
        wall = time.time() if trace is not None else 0.0
        for batch in batches:
            self._resolve_batch(batch, trace)
        timings["resolve"] = time.perf_counter() - started
        if trace is not None:
            trace.add_span("resolve", wall, time.time())

        engine._record_stage_timings(timings)

    # ----------------------------------------------------------------- stages
    def _plan_batch(self, tickets: List[QueryTicket]) -> PlannedBatch:
        """Stage 1 for one group: sharded scatter when exact, else one plan."""
        engine = self._engine
        batch = PlannedBatch(tickets=tickets, epsilon=tickets[0].epsilon)
        policy = tickets[0].policy
        try:
            shard_set = engine._shard_set_for(policy)
            if shard_set is not None:
                planned = self._plan_sharded(batch, shard_set)
                if planned:
                    return batch
            batch.entry = engine.plan_cache.plan_for(
                policy,
                batch.epsilon,
                prefer_data_dependent=engine._prefer_data_dependent,
                consistency=engine._consistency,
            )
        except Exception as exc:
            batch.plan_error = f"{PLAN_FAILED}: {exc}"
        return batch

    def _plan_sharded(self, batch: PlannedBatch, shard_set: ShardSet) -> bool:
        """Try the scatter/gather path; ``False`` falls back to unsharded.

        Scattering is exact only when every workload in the batch splits
        component-wise, and per-shard planning must succeed for every touched
        shard — any failure falls back to the single-plan path rather than
        refusing queries the unsharded engine could answer.
        """
        engine = self._engine
        scatters: Dict[int, ShardScatter] = {}
        for ticket in batch.tickets:
            scatter = shard_set.scatter(ticket.workload)
            if scatter is None:
                return False
            scatters[ticket.ticket_id] = scatter
        touched = {
            piece.shard.index: piece.shard
            for scatter in scatters.values()
            for piece in scatter.pieces
        }
        try:
            shard_plans = {
                index: engine.plan_cache.plan_for(
                    shard.policy,
                    batch.epsilon,
                    prefer_data_dependent=engine._prefer_data_dependent,
                    consistency=engine._consistency,
                )
                for index, shard in touched.items()
            }
        except Exception:
            return False
        batch.scatters = scatters
        batch.shard_plans = shard_plans
        return True

    def _charge_batch(
        self, batch: PlannedBatch, trace: Optional["Trace"] = None
    ) -> None:
        """Stage 2: admit or refuse each ticket; record charges for rollback.

        When an audit stream is installed, each ticket's charge attempt runs
        under an ambient audit context carrying the flush's trace id and the
        ticket/client ids — so the accountant's own charge/rollback events
        (emitted two layers down, where no ticket is known) still land in
        the stream fully attributed.
        """
        engine = self._engine
        if batch.plan_error is not None:
            for ticket in batch.tickets:
                if ticket._claim():
                    self._refuse(
                        ticket,
                        batch.plan_error,
                        count_session=True,
                        trace=trace,
                        release_failed=True,
                    )
            return
        trace_id = trace.trace_id if trace is not None else None
        for ticket in batch.tickets:
            with audit_context(
                engine._audit,
                trace_id=trace_id,
                ticket_id=ticket.ticket_id,
                client_id=ticket.client_id,
            ):
                self._charge_ticket(batch, ticket, trace)

    def _charge_ticket(
        self, batch: PlannedBatch, ticket: QueryTicket, trace: Optional["Trace"]
    ) -> None:
        """Admit or refuse one ticket (stage 2 body, per ticket)."""
        # Last line of defence for the zero-ε guarantee: a ticket whose
        # deadline passed since pickup, or that a client cancelled mid-plan,
        # stops HERE — strictly before the accountant sees the charge.
        if ticket.expired():
            if ticket._claim():
                self._resolve_expired(ticket, trace)
            return
        if not ticket._claim():
            # A concurrent canceller won the claim: the ticket is (being)
            # resolved as cancelled and must not be charged.
            return
        session = ticket.session
        label = ticket.label
        # Parallel composition only applies when the release is a function
        # of the declared partition alone.  On the unsharded path a
        # data-dependent mechanism (DAWA, consistency projections) reads
        # the whole histogram, so the discount would be unsound.  On the
        # *sharded* path a data-dependent invocation reads its whole
        # shard, so the discount additionally requires every
        # data-dependent shard the ticket touches to lie inside the
        # declared partition.  (The submit-time edge-closure check skips
        # ``⊥`` edges — cells related only through ``⊥`` share a
        # component yet may be split by a valid partition, so "partition
        # ⊇ touched cells" does not imply "partition ⊇ touched shards".)
        partition_error = self._partition_discount_error(batch, ticket, label)
        if partition_error is not None:
            self._refuse(ticket, partition_error, count_session=True, trace=trace)
            return
        # Crash points bracketing the durable append: "pre-charge" crashes
        # lose a charge the client never saw answered (nothing spent, nothing
        # recorded — safe), "post-charge" crashes leave a durably journalled
        # charge for an answer that never shipped (over-count — the allowed
        # direction).  Both are no-ops unless a FaultInjector is installed.
        fault_point("pre-charge")
        try:
            operation = session.charge(label, ticket.epsilon, ticket.partition)
        except PrivacyBudgetError as exc:
            # session.charge already counted the session-level refusal.
            self._refuse(ticket, str(exc), count_session=False, trace=trace)
            return
        fault_point("post-charge")
        batch.admitted.append(ticket)
        batch.charged.append((session, operation))

    def _partition_discount_error(
        self, batch: PlannedBatch, ticket: QueryTicket, label: str
    ) -> Optional[str]:
        """Why this ticket's partition discount would be unsound (or ``None``).

        The discount requires the release to be a function of the declared
        partition alone: a data-*independent* release depends only on the
        cells the workload touches (⊆ partition, checked at submit), while a
        data-dependent one reads the full histogram its invocation sees —
        the whole database unsharded, the whole shard sharded.
        """
        if ticket.partition is None:
            return None
        if not batch.sharded:
            assert batch.entry is not None
            if not batch.entry.plan.algorithm.data_dependent:
                return None
            return (
                f"Query {label!r} claims a partition but the planned mechanism "
                f"({batch.entry.plan.name!r}) is data dependent and reads the "
                "full database; re-submit without a partition, configure the "
                "engine with prefer_data_dependent=False AND consistency=False "
                "(the consistency projection also counts as data dependent), "
                "or use a sharded multi-component policy"
            )
        assert batch.scatters is not None and batch.shard_plans is not None
        for piece in batch.scatters[ticket.ticket_id].pieces:
            shard = piece.shard
            plan = batch.shard_plans[shard.index]
            if not plan.plan.algorithm.data_dependent:
                continue
            outside = [
                int(cell)
                for cell in shard.cells
                if int(cell) not in ticket.partition
            ]
            if outside:
                return (
                    f"Query {label!r} claims a partition but its shard "
                    f"{shard.index} runs the data-dependent plan "
                    f"({plan.plan.name!r}) over {len(outside)} cells outside "
                    f"the partition (e.g. {outside[:5]}); the release then "
                    "depends on undeclared cells, so the parallel-composition "
                    "discount would be unsound — declare the whole component "
                    "or re-submit without a partition"
                )
        return None

    def _execute_batches(
        self,
        batches: List[PlannedBatch],
        rng: np.random.Generator,
        trace: Optional["Trace"] = None,
        stage_span=None,
    ) -> None:
        """Stage 3: cut batches into units, dispatch them as groups, gather.

        One RNG derivation serves every backend: the flush stream spawns
        one child per runnable batch, an unsharded batch draws from its
        child, and a sharded batch spawns its per-shard grandchildren from
        its child in sorted shard order.  Every unit is cut (and dealt its
        stream) before any is dispatched, so compatible units can share a
        pooled dispatch (:meth:`_fuse`); a flush of a single unit runs it on
        the flushing thread instead (the pool buys overlap between units and
        one unit would only pay its dispatch cost).  Which backend runs a
        unit, and how units are grouped, never changes its draws.
        """
        runnable = [batch for batch in batches if batch.admitted]
        if not runnable:
            return
        members = [
            member
            for batch, child in zip(runnable, spawn_children(rng, len(runnable)))
            for member in self._batch_members(batch, child)
        ]
        backend = self._engine._execute_backend
        if len(members) <= 1:
            backend = INLINE_BACKEND
        chunks = self._fuse(backend, members)
        results: Dict[
            int, List[Tuple[Optional[list], List[np.ndarray], Optional[NoiseModel]]]
        ] = {}
        for done in execute_groups(backend, self._groups(chunks)):
            for index, ((batch, unit, entries), outcome) in enumerate(
                zip(done.tag, done.outcomes)
            ):
                if batch.execute_error is not None:
                    continue
                if outcome[0] == "error":
                    batch.execute_error = f"{EXECUTE_FAILED}: {outcome[1]}"
                    continue
                _, vectors, model = outcome
                results.setdefault(id(batch), []).append((entries, vectors, model))
                # Each member reports its own kernel; the group's protocol
                # hops (worker span, blob-miss round trips) attach to the
                # first member so the trace shows them once per dispatch.
                self._obs_unit_done(
                    trace,
                    unit,
                    done.submitted,
                    done.kernels[index],
                    done.hops if index == 0 else (),
                    parent=stage_span,
                )
        for batch in runnable:
            if batch.execute_error is not None:
                continue
            try:
                self._assemble_batch(batch, results.get(id(batch), []))
            except Exception as exc:
                batch.execute_error = f"{EXECUTE_FAILED}: {exc}"

    def _groups(self, chunks):
        """``(members, group)`` pairs for :func:`execute_groups`, counting fusion."""
        for members in chunks:
            if len(members) > 1:
                self._engine._c_fused.inc(len(members))
            yield members, ExecuteUnitGroup(units=tuple(unit for _, unit, _ in members))

    def _batch_members(
        self, batch: PlannedBatch, rng: np.random.Generator
    ) -> List[Tuple[PlannedBatch, ExecuteUnit, Optional[list]]]:
        """``(batch, unit, entries)`` for each unit of ``batch`` (see
        :meth:`_units_for`); a batch that cannot be cut fails here."""
        try:
            units = self._units_for(batch, rng)
            return [(batch, unit, entries) for unit, entries in units]
        except Exception as exc:
            batch.execute_error = f"{EXECUTE_FAILED}: {exc}"
            return []

    def _fuse(
        self,
        backend,
        members: List[Tuple[PlannedBatch, ExecuteUnit, Optional[list]]],
    ) -> List[List[Tuple[PlannedBatch, ExecuteUnit, Optional[list]]]]:
        """Cut a flush's units into dispatch chunks.

        Units share a dispatch only when the flush holds more units than
        the backend has parallel slots (``fusion_slots``: the worker count,
        unbounded inline) — below that every unit already gets its own
        worker and grouping would only *serialise* work that could run
        concurrently, so each unit is a group of one.  Above it, units are grouped by
        compatibility — same planner config string (ε, planning flags) and
        same ``want_noise`` — and each group is split into at most
        ``fusion_slots`` balanced contiguous chunks.  RNG children were
        dealt before this pass, so chunking changes dispatch shape only,
        never draws.
        """
        slots = backend.fusion_slots
        if len(members) <= slots:
            return [[member] for member in members]
        groups: Dict[Tuple[str, bool], List[Tuple[PlannedBatch, ExecuteUnit, Optional[list]]]] = {}
        for member in members:
            unit = member[1]
            groups.setdefault((unit.plan.key[2], unit.want_noise), []).append(member)
        if len(groups) > 1:
            logger.debug(
                "unit fusion: %d units fall into %d incompatible ε/config "
                "groups; fusing within each group only",
                len(members),
                len(groups),
            )
        chunks: List[List[Tuple[PlannedBatch, ExecuteUnit, Optional[list]]]] = []
        for compatible in groups.values():
            n_chunks = min(len(compatible), slots)
            base, extra = divmod(len(compatible), n_chunks)
            start = 0
            for i in range(n_chunks):
                size = base + (1 if i < extra else 0)
                chunks.append(compatible[start : start + size])
                start += size
        return chunks

    def _units_for(
        self, batch: PlannedBatch, rng: np.random.Generator
    ) -> List[Tuple[ExecuteUnit, Optional[list]]]:
        """Build the work units of one batch (and their gather bookkeeping).

        Unsharded batches become one unit over the full database, executing
        on ``rng`` itself; sharded batches one unit per touched shard, each
        with its own child stream spawned from ``rng`` in sorted shard
        order.  ``rng`` is the batch's child of the flush stream (see
        :meth:`_execute_batches`).  Each unit carries its members stacked
        into one batch (:meth:`_stacked`).  The second tuple element
        carries the ``(ticket position, piece index)`` entries needed to
        gather shard results, ``None`` for unsharded units.
        """
        engine = self._engine
        # Without an answer cache nothing stores noise metadata, so units
        # skip computing it (the draws themselves never depend on this).
        want_noise = engine.answer_cache is not None
        if not batch.sharded:
            assert batch.entry is not None
            stacked, slices = self._stacked(
                [ticket.workload for ticket in batch.admitted]
            )
            unit = ExecuteUnit(
                plan=batch.entry,
                batch=stacked,
                slices=slices,
                database=engine._database,
                rng=rng,
                want_noise=want_noise,
            )
            return [(unit, None)]
        assert batch.scatters is not None and batch.shard_plans is not None
        jobs: Dict[int, List[Tuple[int, int, object]]] = {}
        for position, ticket in enumerate(batch.admitted):
            scatter = batch.scatters[ticket.ticket_id]
            for piece_index, piece in enumerate(scatter.pieces):
                jobs.setdefault(piece.shard.index, []).append(
                    (position, piece_index, piece)
                )
        shard_order = sorted(jobs)
        batch.shard_indices = list(shard_order)
        shard_rngs = spawn_children(rng, len(shard_order))
        units: List[Tuple[ExecuteUnit, Optional[list]]] = []
        for shard_index, shard_rng in zip(shard_order, shard_rngs):
            entries = jobs[shard_index]
            shard = entries[0][2].shard  # type: ignore[attr-defined]
            stacked, slices = self._stacked(
                [piece.workload for _, _, piece in entries]  # type: ignore[attr-defined]
            )
            unit = ExecuteUnit(
                plan=batch.shard_plans[shard_index],
                batch=stacked,
                slices=slices,
                database=shard.database,
                rng=shard_rng,
                want_noise=want_noise,
            )
            units.append((unit, entries))
        return units

    def _stacked(self, workloads: List[Workload]) -> Tuple[Workload, Tuple[slice, ...]]:
        """One unit's members stacked into a batch, plus their row slices.

        Memoised per batch content in ``_stacked_batches``
        (bounded by :data:`STACK_MEMO_SIZE`), keyed by the tuple of member
        signatures — ticket workloads memoise theirs, and so do shard pieces
        (computed once inside the scatter memo).  The stacked batch's own
        signature is computed once here, so a warm unit neither re-stacks
        nor re-hashes, and the signature pickles along to worker processes.
        """

        def stack(_key) -> Tuple[Workload, Tuple[slice, ...]]:
            stacked, slices = stack_workloads(workloads)
            stacked.signature()
            return stacked, tuple(slices)

        key = tuple(workload.signature() for workload in workloads)
        return self._stacked_batches.get_or_compute(key, stack)

    def _assemble_batch(
        self,
        batch: PlannedBatch,
        results: List[Tuple[Optional[list], List[np.ndarray], Optional[NoiseModel]]],
    ) -> None:
        """Reassemble a batch's unit results into per-ticket answer vectors.

        Alongside the answers, each invocation's :class:`NoiseModel` is cut
        into per-ticket :class:`TicketNoise` slices — batch-mates keep
        referring to their shared factor columns, so the answer cache can
        later rebuild the exact cross-entry covariance of the shared draw.
        """
        if not results:
            batch.execute_error = f"{EXECUTE_FAILED}: no results"
            return
        if not batch.sharded:
            _, vectors, model = results[0]
            batch.results, batch.invocations = list(vectors), 1
            batch.noise = self._slice_unsharded_noise(batch, model)
            return
        assert batch.scatters is not None
        piece_vectors: Dict[Tuple[int, int], np.ndarray] = {}
        piece_noise: Dict[Tuple[int, int], Tuple[object, Optional[NoiseModel]]] = {}
        for entries, vectors, model in results:
            assert entries is not None
            unit_rows = sum(
                piece.workload.num_queries  # type: ignore[attr-defined]
                for _, _, piece in entries
            )
            model = checked_noise_model(model, unit_rows, "its sharded unit")
            start = 0
            for (position, piece_index, piece), vector in zip(entries, vectors):
                piece_vectors[(position, piece_index)] = np.asarray(vector)
                rows = piece.workload.num_queries  # type: ignore[attr-defined]
                sliced = (
                    model.rows(slice(start, start + rows))
                    if model is not None
                    else None
                )
                piece_noise[(position, piece_index)] = (piece, sliced)
                start += rows
        gathered: List[np.ndarray] = []
        noise: List[Optional[TicketNoise]] = []
        for position, ticket in enumerate(batch.admitted):
            scatter = batch.scatters[ticket.ticket_id]
            vectors = [
                piece_vectors[(position, piece_index)]
                for piece_index in range(len(scatter.pieces))
            ]
            gathered.append(scatter.gather(vectors))
            noise.append(
                self._gather_shard_noise(ticket.workload.num_queries, scatter, position, piece_noise)
            )
        batch.results, batch.invocations = gathered, len(results)
        batch.noise = noise

    @staticmethod
    def _slice_unsharded_noise(
        batch: PlannedBatch, model: Optional[NoiseModel]
    ) -> Optional[List[Optional[TicketNoise]]]:
        """Cut one unsharded invocation's model into per-ticket slices."""
        total = sum(ticket.workload.num_queries for ticket in batch.admitted)
        model = checked_noise_model(model, total, "the batch")
        if model is None:
            return None
        noise: List[Optional[TicketNoise]] = []
        start = 0
        for ticket in batch.admitted:
            rows = ticket.workload.num_queries
            sliced = model.rows(slice(start, start + rows))
            noise.append(TicketNoise(stds=sliced.stds, basis=sliced.basis))
            start += rows
        return noise

    @staticmethod
    def _gather_shard_noise(
        num_queries: int,
        scatter,
        position: int,
        piece_noise: Dict[Tuple[int, int], Tuple[object, Optional[NoiseModel]]],
    ) -> Optional[TicketNoise]:
        """Gather per-piece noise slices into one full-row ticket model.

        Every touched piece must carry a model (a single shard without one
        leaves the correlation structure unknowable, so the whole ticket
        degrades to the proxy).  Rows no piece covers are all-zero queries:
        exact zeros with zero noise.
        """
        stds = np.zeros(num_queries, dtype=np.float64)
        shard_bases: Dict[int, sp.csr_matrix] = {}
        bases_complete = True
        for piece_index, piece in enumerate(scatter.pieces):
            stored = piece_noise.get((position, piece_index))
            if stored is None:
                return None
            _, sliced = stored
            if sliced is None:
                return None
            stds[piece.rows] = sliced.stds
            if sliced.basis is None:
                bases_complete = False
                continue
            # Expand the piece's basis rows into full-ticket row space.
            selector = sp.csr_matrix(
                (
                    np.ones(len(piece.rows)),
                    (np.asarray(piece.rows, dtype=np.intp), np.arange(len(piece.rows))),
                ),
                shape=(num_queries, len(piece.rows)),
            )
            shard_bases[piece.shard.index] = sp.csr_matrix(selector @ sliced.basis)
        # A factor model must describe the WHOLE vector or none of it: with
        # any shard's basis missing, keep the honest diagonal stds only.
        return TicketNoise(
            stds=stds, shard_bases=shard_bases if bases_complete and shard_bases else None
        )

    def _resolve_batch(
        self, batch: PlannedBatch, trace: Optional["Trace"] = None
    ) -> None:
        """Stage 4: rollbacks for failures, then answers, counters and caches."""
        engine = self._engine
        if not batch.admitted:
            return
        if batch.execute_error is not None or batch.results is None:
            # Nothing was released, so the charges must not stand: roll back
            # every reservation of this batch and resolve its tickets instead
            # of stranding them (or the rest of the flush) behind the raise.
            error = batch.execute_error or f"{EXECUTE_FAILED}: no results"
            trace_id = trace.trace_id if trace is not None else None
            # batch.charged is index-aligned with batch.admitted (both are
            # appended together at admission), so the zip attributes each
            # rollback's audit event to the right ticket.
            for (session, operation), ticket in zip(batch.charged, batch.admitted):
                with audit_context(
                    engine._audit,
                    trace_id=trace_id,
                    ticket_id=ticket.ticket_id,
                    client_id=ticket.client_id,
                ):
                    session.accountant.rollback(operation)
            for ticket in batch.admitted:
                self._refuse(
                    ticket, error, count_session=True, trace=trace, release_failed=True
                )
            return
        engine._c_batches.inc()
        if batch.invocations:
            engine._c_invocations.inc(batch.invocations)
        if batch.sharded:
            engine._c_sharded_batches.inc()
        if batch.sharded and batch.shard_indices:
            # One draw id per per-shard mechanism invocation: batch-mates
            # touching the same shard share that shard's id, and a ticket's
            # gathered answer records exactly which draws it mixes.
            shard_ids = {
                index: engine._next_draw_id() for index in batch.shard_indices
            }
            for position, (ticket, vector) in enumerate(
                zip(batch.admitted, batch.results)
            ):
                assert batch.scatters is not None
                mapping = {
                    piece.shard.index: shard_ids[piece.shard.index]
                    for piece in batch.scatters[ticket.ticket_id].pieces
                }
                single = next(iter(mapping.values())) if len(mapping) == 1 else None
                ticket_noise = batch.noise[position] if batch.noise else None
                noise_stds = ticket_noise.stds if ticket_noise is not None else None
                noise_bases = None
                if ticket_noise is not None and ticket_noise.shard_bases:
                    # Re-key the per-shard factor bases by the draw ids just
                    # allocated — the labels the answer cache correlates on.
                    noise_bases = {
                        shard_ids[shard_index]: basis
                        for shard_index, basis in ticket_noise.shard_bases.items()
                    }
                self._resolve_answer(
                    ticket,
                    vector,
                    single,
                    shard_draw_ids=mapping,
                    noise_stds=noise_stds,
                    noise_bases=noise_bases,
                    trace=trace,
                )
            return
        draw_id = engine._next_draw_id()
        for position, (ticket, vector) in enumerate(zip(batch.admitted, batch.results)):
            ticket_noise = batch.noise[position] if batch.noise else None
            noise_stds = ticket_noise.stds if ticket_noise is not None else None
            noise_bases = (
                {draw_id: ticket_noise.basis}
                if ticket_noise is not None and ticket_noise.basis is not None
                else None
            )
            self._resolve_answer(
                ticket,
                vector,
                draw_id,
                noise_stds=noise_stds,
                noise_bases=noise_bases,
                trace=trace,
            )

    # ------------------------------------------------------------ resolutions
    def _resolve_replay(
        self,
        ticket: QueryTicket,
        answers: np.ndarray,
        draw_id: Optional[int],
        shard_draw_ids: Optional[Dict[int, int]] = None,
    ) -> None:
        """Resolve a ticket from an already-paid-for answer vector (zero ε)."""
        engine = self._engine
        ticket.answers = np.asarray(answers, dtype=np.float64).copy()
        ticket.status = ANSWERED
        ticket.from_cache = True
        ticket.draw_id = draw_id
        ticket.shard_draw_ids = dict(shard_draw_ids) if shard_draw_ids else None
        with ticket.session.accountant.lock:
            ticket.session.cache_replays += 1
            ticket.session.queries_answered += 1
        engine._c_replays.inc()
        engine._c_answered.inc()
        ticket._notify_resolved()

    def _resolve_answer(
        self,
        ticket: QueryTicket,
        vector: np.ndarray,
        draw_id: Optional[int],
        shard_draw_ids: Optional[Dict[int, int]] = None,
        noise_stds: Optional[np.ndarray] = None,
        noise_bases: Optional[Dict[int, sp.csr_matrix]] = None,
        trace: Optional["Trace"] = None,
    ) -> None:
        """Answer an executed ticket and cache its measurement.

        An ask stores a new entry; a top-up GLS-appends the measurement to
        the entry it names and answers with the combined vector.
        """
        engine = self._engine
        ticket.answers = np.asarray(vector, dtype=np.float64)
        ticket.status = ANSWERED
        ticket.draw_id = draw_id
        ticket.shard_draw_ids = dict(shard_draw_ids) if shard_draw_ids else None
        with ticket.session.accountant.lock:
            ticket.session.queries_answered += 1
        engine._c_answered.inc()
        cache = engine.answer_cache
        if cache is not None:
            measurement = Measurement(
                answers=ticket.answers.copy(),
                epsilon=ticket.epsilon,
                draw_id=draw_id,
                shard_draw_ids=dict(shard_draw_ids) if shard_draw_ids else None,
                noise_stds=(
                    np.array(noise_stds, dtype=np.float64)
                    if noise_stds is not None
                    else None
                ),
                noise_bases=dict(noise_bases) if noise_bases else None,
            )
            if ticket.top_up is None:
                cache.store(ticket.policy, ticket.workload, measurement)
            else:
                key, key_epsilon = ticket.top_up
                entry = cache.append_measurement(
                    key, ticket.workload, measurement, key_epsilon
                )
                ticket.answers = entry.answers.copy()
                engine._c_top_ups.inc()
                if engine._audit is not None:
                    engine._audit.emit(
                        "top_up",
                        trace_id=trace.trace_id if trace is not None else None,
                        ticket_id=ticket.ticket_id,
                        client_id=ticket.client_id,
                        label=ticket.label,
                        epsilon=ticket.epsilon,
                        draws=len(entry.measurements),
                    )
        ticket._notify_resolved()

    def _resolve_expired(
        self, ticket: QueryTicket, trace: Optional["Trace"] = None
    ) -> None:
        """Resolve an expired ticket: zero ε spent, waiters woken, counted.

        The caller must hold the ticket's claim.  Runs strictly before the
        charge stage, so neither the session budget nor the durable ledger
        ever sees the query — the privacy win that makes deadlines more
        than a latency feature.
        """
        engine = self._engine
        ticket.status = EXPIRED
        ticket.error = (
            f"Ticket {ticket.ticket_id} (client {ticket.client_id!r}) "
            "expired before its charge stage; zero epsilon was spent"
        )
        engine._c_expired.inc()
        audit = engine._audit
        if audit is not None:
            audit.emit(
                "expired",
                trace_id=trace.trace_id if trace is not None else None,
                ticket_id=ticket.ticket_id,
                client_id=ticket.client_id,
                epsilon=ticket.epsilon,
            )
        ticket._notify_resolved()

    def _refuse(
        self,
        ticket: QueryTicket,
        error: str,
        count_session: bool,
        trace: Optional["Trace"] = None,
        release_failed: bool = False,
    ) -> None:
        engine = self._engine
        ticket.status = REFUSED
        ticket.error = error
        ticket.release_failed = release_failed
        if count_session:
            with ticket.session.accountant.lock:
                ticket.session.queries_refused += 1
        engine._c_refused.inc()
        audit = engine._audit
        if audit is not None:
            # Explicit ids are redundant under _charge_batch's ambient
            # context (emit drops the None trace_id rather than masking an
            # ambient one) but make refusals from other paths — plan
            # failures, execute rollbacks — equally attributable.
            audit.emit(
                "refusal",
                trace_id=trace.trace_id if trace is not None else None,
                ticket_id=ticket.ticket_id,
                client_id=ticket.client_id,
                epsilon=ticket.epsilon,
                error=error[:200],
            )
        ticket._notify_resolved()

    # ----------------------------------------------------------------- helper
    @staticmethod
    def _split_duplicates(batch: List[QueryTicket]) -> List[List[QueryTicket]]:
        """Partition a batch into rounds with no duplicate query per round."""
        rounds: List[List[QueryTicket]] = []
        occurrence: Dict[AnswerKeyT, int] = {}
        for ticket in batch:
            key = answer_key(ticket.policy, ticket.workload, ticket.epsilon)
            index = occurrence.get(key, 0)
            occurrence[key] = index + 1
            while len(rounds) <= index:
                rounds.append([])
            rounds[index].append(ticket)
        return rounds
