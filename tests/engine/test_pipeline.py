"""The staged flush pipeline: lock narrowing, concurrency, rollback, draw ids."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    total_workload,
)
from repro.core.workload import Workload
from repro.engine import PrivateQueryEngine
from repro.exceptions import PrivacyBudgetError
from repro.policy import line_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[1, 5, 6, 12]] = [3, 7, 1, 9]
    return Database(domain, counts, name="sparse16")


def make_engine(database, domain, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=50.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=0,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


class TestStageTimings:
    def test_stage_timings_accumulate_per_flush(self, database, domain):
        engine = make_engine(database, domain)
        engine.open_session("alice", 5.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        stats = engine.stats
        assert stats.flushes == 1
        for stage, seconds in stats.stage_seconds.items():
            assert seconds >= 0.0, stage
        # Planning and execution did real work on the first (cold) flush.
        assert stats.plan_seconds > 0.0
        assert stats.execute_seconds > 0.0
        before = engine.stats.execute_seconds
        engine.ask("alice", cumulative_workload(domain), epsilon=0.5)
        assert engine.stats.execute_seconds > before
        assert engine.stats.flushes == 2

    def test_empty_flush_records_no_round(self, database, domain):
        engine = make_engine(database, domain)
        assert engine.flush() == []
        assert engine.stats.flushes == 0


class TestConcurrentFlushes:
    def test_concurrent_submit_flush_conserves_tickets_and_budget(
        self, database, domain
    ):
        engine = make_engine(database, domain)
        num_threads, per_thread = 4, 6
        for index in range(num_threads):
            engine.open_session(f"client{index}", 1.0)
        errors: list = []

        def hammer(index: int) -> None:
            workloads = [
                identity_workload(domain),
                cumulative_workload(domain),
                total_workload(domain),
            ]
            for round_index in range(per_thread):
                try:
                    engine.ask(
                        f"client{index}",
                        workloads[round_index % len(workloads)],
                        epsilon=0.3,
                    )
                except PrivacyBudgetError:
                    pass
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = engine.stats
        # Conservation: every submitted ticket reached a terminal state.
        assert stats.queries_submitted == num_threads * per_thread
        assert stats.queries_answered + stats.queries_refused == stats.queries_submitted
        # No session overspent its allotment despite concurrent charges.
        for index in range(num_threads):
            assert engine.session(f"client{index}").spent() <= 1.0 + 1e-9

    def test_thread_safe_submission_counter_is_exact(self, database, domain):
        engine = make_engine(database, domain)
        engine.open_session("alice", 40.0)
        num_threads, per_thread = 8, 25

        def submit_many() -> None:
            for _ in range(per_thread):
                engine.submit("alice", identity_workload(domain), epsilon=0.01)

        threads = [threading.Thread(target=submit_many) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert engine.stats.queries_submitted == num_threads * per_thread
        assert engine.pending_count == num_threads * per_thread

    def test_two_flushes_execute_at_the_same_time(
        self, database, domain, monkeypatch
    ):
        """No lock spans a flush: two flushes are inside execute at once.

        Every mechanism call waits at a two-party barrier, which opens only
        when both flushes have reached the execute stage together.  A
        pipeline serialised behind one lock would hold the second flush
        back, break the barrier on its timeout and refuse both tickets.
        """
        engine = make_engine(database, domain)
        engine.open_session("alice", 5.0)
        engine.open_session("bob", 5.0)
        entry = engine.plan_cache.plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )
        barrier = threading.Barrier(2, timeout=5.0)
        for name in ("answer", "answer_batch"):
            original = getattr(entry.plan.algorithm, name)

            def rendezvous(*args, _original=original, **kwargs):
                barrier.wait()
                return _original(*args, **kwargs)

            monkeypatch.setattr(entry.plan.algorithm, name, rendezvous)
        answers = {}

        def ask(client, workload):
            answers[client] = engine.ask(client, workload, epsilon=0.5)

        first = threading.Thread(target=ask, args=("alice", identity_workload(domain)))
        first.start()
        # Submit the second query only once the first flush has drained the
        # queue and parked inside execute, so each flush carries one ticket.
        deadline = time.monotonic() + 5.0
        while barrier.n_waiting == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert barrier.n_waiting == 1
        second = threading.Thread(
            target=ask, args=("bob", cumulative_workload(domain))
        )
        second.start()
        first.join(timeout=10.0)
        second.join(timeout=10.0)
        assert not barrier.broken
        assert sorted(answers) == ["alice", "bob"]
        assert engine.stats.flushes == 2

    def test_execute_worker_pool_answers_multiple_groups(self, database, domain):
        # Context manager: close() reclaims the worker pool's threads.
        with make_engine(database, domain, execute_workers=4) as engine:
            engine.open_session("alice", 5.0)
            # Three epsilon groups → three batches eligible for the worker pool.
            t1 = engine.submit("alice", identity_workload(domain), epsilon=0.5)
            t2 = engine.submit("alice", cumulative_workload(domain), epsilon=0.25)
            t3 = engine.submit("alice", total_workload(domain), epsilon=0.125)
            engine.flush()
            assert t1.status == t2.status == t3.status == "answered"
            assert engine.stats.batches_executed == 3
        # Closed engines keep serving, inline.
        answers = engine.ask("alice", identity_workload(domain), epsilon=0.5)
        assert answers.shape == (16,)


class TestRollbackUnderConcurrency:
    def test_mid_execute_failure_rolls_back_without_touching_flights_in_flight(
        self, database, domain, monkeypatch
    ):
        """A mechanism crash mid-execute must refund exactly its own batch.

        The failing flush and a healthy flush run concurrently; the barrier
        guarantees real overlap.  Afterwards the failing session's ledger is
        empty (no budget leak) and the healthy ticket is answered and billed.
        """
        engine = make_engine(database, domain)
        failing = engine.open_session("failing", 1.0)
        healthy = engine.open_session("healthy", 1.0)
        policy = line_policy(domain)
        entry = engine.plan_cache.plan_for(
            policy, 0.5, prefer_data_dependent=False, consistency=False
        )
        barrier = threading.Barrier(2, timeout=5.0)

        def exploding(*args, **kwargs):
            barrier.wait()  # healthy flush is now in flight
            time.sleep(0.05)  # keep the overlap alive past the charge stage
            raise RuntimeError("mechanism crashed mid-execute")

        monkeypatch.setattr(entry.plan.algorithm, "answer", exploding)
        monkeypatch.setattr(entry.plan.algorithm, "answer_batch", exploding)

        failing_ticket = engine.submit(
            "failing", identity_workload(domain), epsilon=0.5
        )

        def healthy_flush() -> None:
            barrier.wait()
            engine.ask("healthy", cumulative_workload(domain), epsilon=0.25)

        failer = threading.Thread(target=engine.flush)
        worker = threading.Thread(target=healthy_flush)
        failer.start()
        worker.start()
        failer.join(timeout=10.0)
        worker.join(timeout=10.0)
        assert not failer.is_alive() and not worker.is_alive()

        assert failing_ticket.status == "refused"
        with pytest.raises(PrivacyBudgetError, match="rolled back"):
            failing_ticket.result()
        # No budget leak: the rolled-back charge left no ledger trace and the
        # session is fully usable again.
        assert failing.spent() == 0.0
        assert failing.accountant.operations == []
        assert failing.can_afford(1.0)
        # The concurrent healthy flush was untouched.
        assert healthy.spent() == pytest.approx(0.25)
        assert healthy.queries_answered == 1

    def test_planning_failure_still_charges_nothing(
        self, database, domain, monkeypatch
    ):
        engine = make_engine(database, domain)
        session = engine.open_session("alice", 1.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)

        def explode(*args, **kwargs):
            raise RuntimeError("planner crashed")

        monkeypatch.setattr(engine.plan_cache, "plan_for", explode)
        engine.flush()
        assert ticket.status == "refused"
        with pytest.raises(PrivacyBudgetError, match="nothing charged"):
            ticket.result()
        assert session.spent() == 0.0


class TestDrawIds:
    def test_batch_mates_share_a_draw_id(self, database, domain):
        engine = make_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)
        engine.open_session("bob", 5.0)
        t1 = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        t2 = engine.submit("bob", cumulative_workload(domain), epsilon=0.5)
        engine.flush()
        assert t1.draw_id is not None
        assert t1.draw_id == t2.draw_id  # one invocation, one shared draw

    def test_separate_flushes_get_distinct_draw_ids(self, database, domain):
        engine = make_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)
        first = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        second = engine.submit("alice", cumulative_workload(domain), epsilon=0.5)
        engine.flush()
        assert first.draw_id != second.draw_id

    def test_replay_carries_the_original_draw_id(self, database, domain):
        engine = make_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)
        paid = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        replay = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        assert replay.from_cache
        assert replay.draw_id == paid.draw_id

    def test_cache_groups_measurements_by_draw(self, database, domain):
        engine = make_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)
        policy = line_policy(domain)
        # Two batch-mates in one flush plus a separate later purchase.
        engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.submit("alice", cumulative_workload(domain), epsilon=0.5)
        engine.flush()
        engine.ask("alice", total_workload(domain), epsilon=0.25)
        grouped = engine.answer_cache.entries_by_draw(policy)
        sizes = sorted(len(keys) for keys in grouped.values())
        assert sizes == [1, 2]


class TestTicketEvents:
    def test_tickets_resolve_their_events_on_every_path(self, database, domain):
        engine = make_engine(database, domain, enable_answer_cache=True)
        engine.open_session("rich", 5.0)
        engine.open_session("poor", 0.1)
        answered = engine.submit("rich", identity_workload(domain), epsilon=0.5)
        refused = engine.submit("poor", cumulative_workload(domain), epsilon=0.5)
        assert not answered.done() and not refused.done()
        engine.flush()
        assert answered.done() and refused.done()
        assert answered.wait(0.0) and refused.wait(0.0)
        replay = engine.submit("rich", identity_workload(domain), epsilon=0.5)
        engine.flush()
        assert replay.done() and replay.from_cache


class TestPartitionedWorkloadsRemainCorrect:
    def test_zero_row_workload_answers_exactly_zero(self, database, domain):
        engine = make_engine(database, domain)
        engine.open_session("alice", 5.0)
        matrix = np.zeros((2, 16))
        matrix[0, 3] = 1.0  # one real query, one all-zero query
        answers = engine.ask("alice", Workload(domain, matrix), epsilon=0.5)
        assert answers.shape == (2,)
        assert answers[1] == pytest.approx(0.0)
