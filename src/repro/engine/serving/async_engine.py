"""`AsyncQueryEngine` — the event-loop front-end over one engine.

The thread front-end (:class:`~repro.engine.BatchingExecutor`) spends one
OS thread per blocked client: every ``ask`` parks a thread on the ticket's
event until some flush resolves it.  That is exactly the cost model a
network serving tier cannot afford — millions of users means thousands of
concurrently pending tickets, and thousands of parked threads.

This front-end serves the same engine from an event loop instead:

* **awaitable tickets** — :meth:`AsyncQueryEngine.submit` attaches a
  :class:`~repro.engine.serving.LoopTicketWaiter` to the ticket and returns
  an :class:`AsyncTicket`; awaiting it suspends a coroutine, not a thread.
  Any number of pending tickets cost zero threads.
* **event-loop deadline flusher** — the size/deadline policy is the same
  :class:`~repro.engine.waiters.BatchTriggers` the thread executor uses,
  but the deadline is realised as one ``loop.call_later`` timer instead of
  a daemon flusher thread.
* **sync flushes, off the loop** — :meth:`PrivateQueryEngine.flush` is
  synchronous CPU work (mechanism kernels) and must not stall the loop, so
  flushes run on one dedicated flusher thread (a single-worker pool — a
  fixed cost, not a per-client one).  Size- and deadline-triggered flushes
  are queued there FIFO and nothing awaits them: a flush wakes the loop
  only through the waiters of the tickets it resolves, and a failed one
  logs ``serving flush failed``.  The flush drives the *same* staged
  pipeline with the same RNG derivation (a child stream per flush, a
  child of that per batch, on every execute backend), so a seeded
  engine's draws and ε ledgers through this front-end are byte-identical
  to a direct ``flush()`` issuing the same batches in the same order.

The front-end adds **no privacy semantics** — like the thread executor it
only decides *when* ``flush`` runs.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np

from ...core.workload import Workload
from ...exceptions import AskTimeoutError, MechanismError
from ...policy.graph import PolicyGraph
from ..durability import fault_point
from ..pipeline import QueryTicket
from ..waiters import BatchTriggers
from .waiters import LoopTicketWaiter

logger = logging.getLogger(__name__)


class AsyncTicket:
    """Awaitable handle on one :class:`~repro.engine.pipeline.QueryTicket`.

    ``await ticket`` yields the noisy answers (raising
    :class:`~repro.exceptions.PrivacyBudgetError` on refusal, exactly like
    :meth:`QueryTicket.result`); :meth:`wait` and :meth:`result` bound the
    wait with a timeout.  The underlying ticket stays accessible as
    :attr:`ticket` for callers that want statuses, draw ids, or to hand it
    to thread-side code — both kinds of waiter can watch one ticket at once.
    """

    __slots__ = ("_ticket", "_waiter")

    def __init__(self, ticket: QueryTicket, loop: asyncio.AbstractEventLoop) -> None:
        self._ticket = ticket
        self._waiter = LoopTicketWaiter(loop)
        ticket.add_waiter(self._waiter)

    @property
    def ticket(self) -> QueryTicket:
        """The underlying engine ticket."""
        return self._ticket

    @property
    def ticket_id(self) -> int:
        return self._ticket.ticket_id

    def done(self) -> bool:
        """``True`` once the ticket reached a terminal status."""
        return self._ticket.done()

    async def wait(self, timeout: Optional[float] = None) -> bool:
        """Suspend until the ticket resolves; ``False`` on timeout.

        The waiter's future is shielded from the timeout cancellation, so a
        timed-out wait leaves the ticket (and any other coroutine awaiting
        it) fully intact — a later flush still resolves everything.
        """
        future = self._waiter.future
        if timeout is None:
            await future
            return True
        try:
            await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Await the noisy answers; :class:`AskTimeoutError` on timeout."""
        if not await self.wait(timeout):
            raise AskTimeoutError(self._ticket, timeout)
        return self._ticket.result()

    def __await__(self):
        return self.result().__await__()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncTicket(ticket_id={self._ticket.ticket_id}, "
            f"status={self._ticket.status!r})"
        )


class AsyncQueryEngine:
    """Event-loop front-end: awaitable tickets, ``call_later`` deadline flusher.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.PrivateQueryEngine` to serve through.  It
        may simultaneously be served by thread front-ends; tickets carry
        their own waiters, so the two kinds of client coexist on one engine.
    max_batch_size / max_delay:
        The shared :class:`~repro.engine.waiters.BatchTriggers` policy —
        identical semantics to :class:`~repro.engine.BatchingExecutor`.

    The front-end binds to the event loop running when the first query is
    submitted; all submissions must come from that loop (the usual one-loop
    asyncio deployment).  Flushes run on one dedicated flusher thread,
    first in, first out.
    """

    def __init__(
        self,
        engine,
        max_batch_size: int = 32,
        max_delay: float = 0.02,
    ) -> None:
        self._engine = engine
        self._triggers = BatchTriggers(max_batch_size, max_delay)
        self._flush_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-async-flush"
        )
        self._deadline_handle: Optional[asyncio.TimerHandle] = None
        self._closed = False
        #: Callbacks fed each observed flush latency (seconds) from the
        #: flusher thread — admission control hangs its Retry-After EWMA
        #: here.  Single flusher thread, so observers need no locking.
        self._flush_observers: List[Callable[[float], None]] = []

    # -------------------------------------------------------------- properties
    @property
    def engine(self):
        """The engine this front-end serves."""
        return self._engine

    @property
    def triggers(self) -> BatchTriggers:
        """The size/deadline flush policy."""
        return self._triggers

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`aclose` ran; submissions are then rejected."""
        return self._closed

    def add_flush_observer(self, observer: Callable[[float], None]) -> None:
        """Register a callback fed each flush's wall-clock latency (seconds).

        Called from the flusher thread after every flush — including failed
        ones, whose latency is still an honest signal of how busy the flush
        path is.  Admission control registers its EWMA feed here.
        """
        self._flush_observers.append(observer)

    # ------------------------------------------------------------- submissions
    def submit(
        self,
        client_id: str,
        workload: Workload,
        epsilon: float,
        policy: Optional[PolicyGraph] = None,
        partition: Optional[Sequence] = None,
        deadline: Optional[float] = None,
    ) -> AsyncTicket:
        """Queue a query; returns its awaitable ticket immediately.

        Must run on the event loop (it schedules the deadline timer there).
        Validation errors surface here exactly as in
        :meth:`PrivateQueryEngine.submit`; the budget is only touched when
        a flush picks the ticket up.  ``deadline`` (absolute
        ``time.monotonic()``) forwards to the engine: expired tickets are
        dropped before the charge stage at zero ε.
        """
        if self._closed:
            raise MechanismError("AsyncQueryEngine is closed")
        loop = asyncio.get_running_loop()
        ticket = self._engine.submit(
            client_id,
            workload,
            epsilon,
            policy=policy,
            partition=partition,
            deadline=deadline,
        )
        async_ticket = AsyncTicket(ticket, loop)
        if self._triggers.size_reached(self._engine.pending_count):
            # Size trigger: the flush starts now (on the flusher thread);
            # the pending deadline timer would only find an empty queue, so
            # let it stand — empty flushes are free and burn no RNG child.
            self._start_flush()
        elif self._deadline_handle is None:
            self._deadline_handle = loop.call_later(
                self._triggers.max_delay, self._deadline_fired
            )
        return async_ticket

    async def ask(
        self,
        client_id: str,
        workload: Workload,
        epsilon: float,
        policy: Optional[PolicyGraph] = None,
        partition: Optional[Sequence] = None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Awaitable submit: suspends until whichever flush resolves the ticket.

        ``timeout`` bounds the wait; on expiry an
        :class:`~repro.exceptions.AskTimeoutError` carrying the ticket is
        raised and a later flush still resolves the ticket normally.
        ``deadline`` instead bounds the *query*: an expired ticket resolves
        to ``"expired"`` at zero ε and ``result()`` raises
        :class:`~repro.exceptions.DeadlineExpiredError`.
        """
        ticket = self.submit(
            client_id,
            workload,
            epsilon,
            policy=policy,
            partition=partition,
            deadline=deadline,
        )
        return await ticket.result(timeout=timeout)

    async def flush(self) -> List[QueryTicket]:
        """Flush pending queries (queued behind any trigger flush) and await them."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._flush_pool, self._run_flush_measured)

    # ---------------------------------------------------------------- lifecycle
    async def aclose(self) -> None:
        """Drain and shut down: cancel the timer, then one final flush.

        The final flush queues FIFO behind every flush already on the
        flusher thread, so it runs after they finish and picks up anything
        they left.  When ``aclose`` returns every ticket this front-end
        accepted is resolved (the same deterministic-teardown contract as
        :meth:`BatchingExecutor.close`), and the flusher thread is joined.
        """
        if self._closed:
            return
        self._closed = True
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None
        await self.flush()
        self._flush_pool.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncQueryEngine":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ flusher
    def _deadline_fired(self) -> None:
        """The ``call_later`` counterpart of the executor's flusher thread."""
        self._deadline_handle = None
        if self._closed or not self._engine.pending_count:
            return
        self._start_flush()

    def _start_flush(self) -> None:
        """Queue a trigger flush on the flusher thread; nothing awaits it."""
        self._flush_pool.submit(self._run_trigger_flush)

    def _run_trigger_flush(self) -> None:
        # No awaiter sees a trigger flush's exception (chaos injection, a
        # broken backend), so log it; its tickets stay queued or resolved
        # as the engine left them, and the next flush picks them up.
        try:
            self._run_flush_measured()
        except Exception as exc:  # noqa: BLE001 - the flusher must survive
            logger.warning("serving flush failed: %s", exc)

    def _run_flush_measured(self) -> List[QueryTicket]:
        """The flusher-thread body: chaos hook, flush, latency observation.

        ``fault_point("serving-flush")`` lets the chaos harness stall or
        fail the flusher exactly here — on the flusher thread, before the
        pipeline runs — without touching the pinned crash-point matrix.
        The latency fed to observers covers the whole body (stall
        included): under a stalled flusher the Retry-After hint grows,
        which is precisely the back-pressure signal clients should see.
        """
        start = time.monotonic()
        try:
            fault_point("serving-flush")
            return self._engine.flush()
        finally:
            elapsed = time.monotonic() - start
            for observer in self._flush_observers:
                try:
                    observer(elapsed)
                except Exception:  # pragma: no cover - observer bugs
                    logger.warning("flush observer failed", exc_info=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncQueryEngine({self._triggers!r}, closed={self._closed})"
        )
