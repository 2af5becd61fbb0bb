"""AsyncQueryEngine: awaitable tickets, loop-timed flushes, determinism."""

from __future__ import annotations

import asyncio
import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Database, Domain, cumulative_workload, identity_workload
from repro.core.workload import Workload
from repro.engine import BatchingExecutor, FaultInjector, PrivateQueryEngine
from repro.engine.serving import AsyncQueryEngine, AsyncTicket
from repro.exceptions import AskTimeoutError, MechanismError
from repro.policy import line_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[1, 6, 12]] = [3.0, 7.0, 5.0]
    return Database(domain, counts, name="async16")


def build_engine(database: Database, domain: Domain, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=50.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=31,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


def row_workload(domain: Domain, index: int) -> Workload:
    matrix = np.zeros((1, domain.size))
    matrix[0, index] = 1.0
    return Workload(domain, matrix, name=f"row{index}")


def ledger(engine: PrivateQueryEngine, client_id: str):
    return [
        (op.label, op.epsilon, op.partition)
        for op in engine.session(client_id).accountant.operations
    ]


class TestAwaitableTickets:
    def test_ask_answers_via_size_trigger(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            async with AsyncQueryEngine(engine, max_batch_size=2, max_delay=30.0) as front:
                return await asyncio.gather(
                    front.ask("alice", identity_workload(domain), 0.5),
                    front.ask("alice", cumulative_workload(domain), 0.5),
                )

        histogram, prefix = asyncio.run(scenario())
        assert histogram.shape == (domain.size,)
        assert prefix.shape == (domain.size,)
        # Both rode one size-triggered flush: a single vectorised invocation.
        assert engine.stats.mechanism_invocations == 1

    def test_deadline_trigger_fires_without_further_submissions(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            async with AsyncQueryEngine(engine, max_batch_size=64, max_delay=0.02) as front:
                started = time.monotonic()
                answers = await asyncio.wait_for(
                    front.ask("alice", identity_workload(domain), 0.5), timeout=5.0
                )
                return answers, time.monotonic() - started

        answers, elapsed = asyncio.run(scenario())
        assert answers.shape == (domain.size,)
        # Resolved by the call_later timer, nowhere near the 64-query size cap.
        assert elapsed < 4.0

    def test_await_ticket_directly(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            async with AsyncQueryEngine(engine, max_batch_size=64, max_delay=0.01) as front:
                ticket = front.submit("alice", identity_workload(domain), 0.5)
                assert isinstance(ticket, AsyncTicket)
                assert not ticket.done()
                answers = await ticket
                assert ticket.done()
                assert ticket.ticket.status == "answered"
                return answers

        assert asyncio.run(scenario()).shape == (domain.size,)

    def test_multiple_awaiters_on_one_ticket(self, database, domain):
        """Several coroutines awaiting one ticket all wake on its flush."""
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            async with AsyncQueryEngine(engine, max_batch_size=64, max_delay=0.01) as front:
                ticket = front.submit("alice", identity_workload(domain), 0.5)
                results = await asyncio.gather(*(ticket.result() for _ in range(5)))
                return results

        results = asyncio.run(scenario())
        assert len(results) == 5
        for answers in results[1:]:
            assert np.array_equal(answers, results[0])


class TestTimeouts:
    def test_timed_out_ask_resolves_on_a_later_flush(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            front = AsyncQueryEngine(engine, max_batch_size=64, max_delay=30.0)
            try:
                with pytest.raises(AskTimeoutError) as excinfo:
                    # Deadline 30 s out, queue far from full: only the
                    # 50 ms wait can win.
                    await front.ask(
                        "alice", identity_workload(domain), 0.5, timeout=0.05
                    )
                ticket = excinfo.value.ticket
                assert ticket.status == "pending"
                resolved = await front.flush()
                assert ticket in resolved
                assert ticket.status == "answered"
                return ticket.result()
            finally:
                await front.aclose()

        assert asyncio.run(scenario()).shape == (domain.size,)

    def test_timeout_does_not_disturb_other_awaiters(self, database, domain):
        """The shielded wait: one awaiter timing out must not cancel the
        shared future other awaiters are suspended on."""
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            async with AsyncQueryEngine(engine, max_batch_size=64, max_delay=0.2) as front:
                ticket = front.submit("alice", identity_workload(domain), 0.5)
                patient = asyncio.ensure_future(ticket.result())
                assert not await ticket.wait(timeout=0.01)  # times out first
                return await asyncio.wait_for(patient, timeout=5.0)

        assert asyncio.run(scenario()).shape == (domain.size,)


class TestLifecycle:
    def test_aclose_drains_pending_tickets(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            front = AsyncQueryEngine(engine, max_batch_size=64, max_delay=30.0)
            tickets = [
                front.submit("alice", row_workload(domain, index), 0.1)
                for index in range(3)
            ]
            await front.aclose()
            return tickets

        tickets = asyncio.run(scenario())
        assert all(t.ticket.status == "answered" for t in tickets)

    def test_submit_after_aclose_is_rejected(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            front = AsyncQueryEngine(engine)
            await front.aclose()
            assert front.closed
            with pytest.raises(MechanismError):
                front.submit("alice", identity_workload(domain), 0.5)
            await front.aclose()  # idempotent

        asyncio.run(scenario())

    def test_executor_close_races_inflight_async_ask(self, database, domain):
        """A thread front-end closing mid-service must not strand a
        coroutine awaiting a ticket: close() drains the shared engine, and
        the loop waiter is woken cross-thread by the executor's flush."""
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)
        executor = BatchingExecutor(engine, max_batch_size=64, max_delay=30.0)

        async def scenario():
            front = AsyncQueryEngine(engine, max_batch_size=64, max_delay=30.0)
            try:
                # Submitted through the async front-end, far from either
                # trigger: only the racing executor.close() can resolve it.
                pending = asyncio.ensure_future(
                    front.ask("alice", identity_workload(domain), 0.5)
                )
                await asyncio.sleep(0.05)  # the ask is parked on its waiter
                closer = threading.Thread(target=executor.close)
                closer.start()
                answers = await asyncio.wait_for(pending, timeout=5.0)
                closer.join(timeout=5.0)
                return answers
            finally:
                await front.aclose()

        assert asyncio.run(scenario()).shape == (domain.size,)


class TestTriggerFlushes:
    """Size and deadline flushes are queued on the flusher thread unawaited."""

    @pytest.fixture(autouse=True)
    def clear_faults(self):
        FaultInjector.clear()
        yield
        FaultInjector.clear()

    def test_failed_trigger_flush_logs_and_the_next_query_is_answered(
        self, database, domain, caplog
    ):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)
        caplog.set_level(logging.WARNING, logger="repro.engine.serving.async_engine")

        async def scenario():
            async with AsyncQueryEngine(engine, max_batch_size=1, max_delay=30.0) as front:
                FaultInjector().fail_at(
                    "serving-flush", lambda: RuntimeError("injected flusher death")
                ).install()
                first = front.submit("alice", row_workload(domain, 0), 0.1)
                # The failed flush left the first ticket queued; the next
                # trigger flush answers both.
                second = await front.ask("alice", row_workload(domain, 1), 0.1)
                return first, second

        first, second = asyncio.run(scenario())
        assert second.shape == (1,)
        assert first.ticket.status == "answered"
        failures = [
            record
            for record in caplog.records
            if record.name == "repro.engine.serving.async_engine"
            and "serving flush failed" in record.getMessage()
        ]
        assert len(failures) == 1
        assert "injected flusher death" in failures[0].getMessage()

    def test_aclose_resolves_tickets_queued_behind_a_stalled_trigger_flush(
        self, database, domain
    ):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario():
            front = AsyncQueryEngine(engine, max_batch_size=1, max_delay=30.0)
            FaultInjector().stall_at("serving-flush", 0.2).install()
            tickets = [
                front.submit("alice", row_workload(domain, index), 0.1)
                for index in range(3)
            ]
            await front.aclose()
            return tickets

        tickets = asyncio.run(scenario())
        assert [t.ticket.status for t in tickets] == ["answered"] * 3


class TestDeterminism:
    def test_async_path_matches_direct_flush_byte_for_byte(self, database, domain):
        """Same seed, same submission order, same flush boundaries: the
        async front-end's draws and ε ledger are identical to a direct
        ``flush()`` — the front-end adds no privacy semantics."""
        direct = build_engine(database, domain)
        direct.open_session("alice", 5.0)
        direct_tickets = [
            direct.submit("alice", identity_workload(domain), 0.5),
            direct.submit("alice", cumulative_workload(domain), 0.25),
        ]
        direct.flush()
        direct_answers = [t.result() for t in direct_tickets]

        served = build_engine(database, domain)
        served.open_session("alice", 5.0)

        async def scenario():
            async with AsyncQueryEngine(served, max_batch_size=64, max_delay=30.0) as front:
                tickets = [
                    front.submit("alice", identity_workload(domain), 0.5),
                    front.submit("alice", cumulative_workload(domain), 0.25),
                ]
                await front.flush()
                return [t.ticket.result() for t in tickets]

        served_answers = asyncio.run(scenario())
        for direct_vector, served_vector in zip(direct_answers, served_answers):
            assert np.array_equal(direct_vector, served_vector)
        assert ledger(direct, "alice") == ledger(served, "alice")

    def test_async_path_matches_thread_executor_byte_for_byte(self, database, domain):
        """The two front-ends share BatchTriggers semantics and the flush
        pipeline: same seed + same batches → identical draws and ledgers."""
        threaded = build_engine(database, domain)
        threaded.open_session("alice", 5.0)
        with BatchingExecutor(threaded, max_batch_size=2, max_delay=30.0) as executor:
            thread_tickets = [
                executor.submit("alice", row_workload(domain, index), 0.1)
                for index in range(2)
            ]
        thread_answers = [t.result() for t in thread_tickets]

        served = build_engine(database, domain)
        served.open_session("alice", 5.0)

        async def scenario():
            async with AsyncQueryEngine(served, max_batch_size=2, max_delay=30.0) as front:
                return await asyncio.gather(
                    front.ask("alice", row_workload(domain, 0), 0.1),
                    front.ask("alice", row_workload(domain, 1), 0.1),
                )

        served_answers = asyncio.run(scenario())
        for thread_vector, served_vector in zip(thread_answers, served_answers):
            assert np.array_equal(thread_vector, served_vector)
        assert ledger(threaded, "alice") == ledger(served, "alice")


class TestImportIsolation:
    def test_sync_engine_imports_no_asyncio_serving_machinery(self):
        """Engines that never serve a network path must not pay for one:
        importing repro.engine may not pull in the serving package (and the
        engine core itself must not import asyncio)."""
        code = (
            "import sys\n"
            "import repro.engine\n"
            "assert 'repro.engine.serving' not in sys.modules, 'serving leaked'\n"
            "offenders = [name for name, module in sys.modules.items()\n"
            "             if name.startswith('repro') and module is not None\n"
            "             and getattr(module, 'asyncio', None) is not None]\n"
            "assert not offenders, f'asyncio imported by {offenders}'\n"
            "print('clean')\n"
        )
        env = dict(os.environ)
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout
