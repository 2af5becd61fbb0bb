"""End-to-end tests of the PrivateQueryEngine serving loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    total_workload,
)
from repro.engine import PrivateQueryEngine
from repro.exceptions import (
    MechanismError,
    PolicyError,
    PrivacyBudgetError,
    ReleaseFailedError,
)
from repro.policy import line_policy, threshold_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[1, 5, 6, 12]] = [3, 7, 1, 9]
    return Database(domain, counts, name="sparse16")


@pytest.fixture
def engine(database: Database, domain: Domain) -> PrivateQueryEngine:
    return PrivateQueryEngine(
        database,
        total_epsilon=10.0,
        default_policy=line_policy(domain),
        random_state=42,
    )


class TestSessions:
    def test_open_session_reserves_global_budget(self, engine):
        engine.open_session("alice", 2.0)
        assert engine.accountant.spent() == pytest.approx(2.0)

    def test_duplicate_session_rejected(self, engine):
        engine.open_session("alice", 1.0)
        with pytest.raises(PrivacyBudgetError):
            engine.open_session("alice", 1.0)

    def test_unknown_session_rejected(self, engine, domain):
        with pytest.raises(PolicyError):
            engine.submit("nobody", identity_workload(domain), epsilon=0.1)

    def test_close_session_refunds(self, engine, domain):
        engine.open_session("alice", 2.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        refund = engine.close_session("alice")
        assert refund == pytest.approx(1.5)
        assert engine.accountant.spent() == pytest.approx(0.5)


class TestBudgetExhaustion:
    def test_exhausted_session_raises_privacy_budget_error(self, engine, domain):
        engine.open_session("alice", 0.5)
        engine.ask("alice", identity_workload(domain), epsilon=0.4)
        with pytest.raises(PrivacyBudgetError):
            engine.ask("alice", cumulative_workload(domain), epsilon=0.2)

    def test_refusal_resolves_ticket_without_blocking_the_batch(self, engine, domain):
        engine.open_session("rich", 5.0)
        engine.open_session("poor", 0.1)
        # Distinct workloads: an identical one would be deduplicated and the
        # poor client would (correctly) get the rich client's answer for free.
        rich_ticket = engine.submit("rich", identity_workload(domain), epsilon=0.5)
        poor_ticket = engine.submit("poor", cumulative_workload(domain), epsilon=0.5)
        engine.flush()
        assert rich_ticket.status == "answered"
        assert poor_ticket.status == "refused"
        with pytest.raises(PrivacyBudgetError):
            poor_ticket.result()
        # The refused session was not charged anything.
        assert engine.session("poor").spent() == 0.0

    def test_pending_ticket_result_raises(self, engine, domain):
        engine.open_session("alice", 1.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.1)
        with pytest.raises(MechanismError):
            ticket.result()


class TestPlanCacheIntegration:
    def test_repeated_policy_hits_the_plan_cache(self, engine, domain):
        engine.open_session("alice", 5.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        engine.ask("alice", cumulative_workload(domain), epsilon=0.5)
        stats = engine.stats
        assert stats.plan_misses == 1
        assert stats.plan_hits == 1

    def test_distinct_policies_plan_separately(self, engine, domain):
        engine.open_session("alice", 5.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        engine.ask(
            "alice",
            identity_workload(domain),
            epsilon=0.5,
            policy=threshold_policy(domain, 3),
        )
        assert engine.stats.plan_misses == 2


class TestBatchExecutor:
    def test_compatible_queries_share_one_invocation(self, engine, domain):
        engine.open_session("alice", 5.0)
        engine.open_session("bob", 5.0)
        t1 = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        t2 = engine.submit("bob", cumulative_workload(domain), epsilon=0.5)
        engine.flush()
        assert t1.status == t2.status == "answered"
        stats = engine.stats
        assert stats.batches_executed == 1
        assert stats.mechanism_invocations == 1

    def test_batch_answers_match_sequential_answers_with_seeded_rng(
        self, database, domain
    ):
        """One vectorised invocation gives the same distribution as N scalar ones.

        With the noise seeded identically, the batched answers must be
        *exactly* the per-workload answers: the mechanisms perturb the
        (transformed) histogram, not the queries, so stacking rows changes
        nothing about the noise.
        """
        policy = line_policy(domain)
        workloads = [
            identity_workload(domain),
            cumulative_workload(domain),
            total_workload(domain),
        ]

        def build_engine():
            return PrivateQueryEngine(
                database, total_epsilon=10.0, default_policy=policy,
                enable_answer_cache=False,
            )

        batched_engine = build_engine()
        batched_engine.open_session("c", 5.0)
        tickets = [
            batched_engine.submit("c", workload, epsilon=1.0) for workload in workloads
        ]
        batched_engine.flush(random_state=123)
        assert batched_engine.stats.mechanism_invocations == 1

        sequential_engine = build_engine()
        sequential_engine.open_session("c", 5.0)
        for ticket, workload in zip(tickets, workloads):
            alone = sequential_engine.ask(
                "c", workload, epsilon=1.0, random_state=123
            )
            np.testing.assert_allclose(ticket.result(), alone, atol=1e-9)
        assert sequential_engine.stats.mechanism_invocations == len(workloads)

    def test_incompatible_epsilons_split_batches(self, engine, domain):
        engine.open_session("alice", 5.0)
        engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.submit("alice", identity_workload(domain), epsilon=0.25)
        engine.flush()
        assert engine.stats.batches_executed == 2


class TestAnswerCache:
    def test_replay_charges_zero_epsilon(self, engine, domain):
        session = engine.open_session("alice", 5.0)
        workload = identity_workload(domain)
        first = engine.ask("alice", workload, epsilon=0.5)
        spent_after_first = session.spent()
        replay = engine.ask("alice", workload, epsilon=0.5)
        np.testing.assert_array_equal(first, replay)
        assert session.spent() == spent_after_first  # exactly zero ε
        assert engine.stats.answer_cache_replays == 1

    def test_duplicate_queries_in_one_flush_pay_once(self, engine, domain):
        """Intra-flush dedup: the same query twice in one batch costs one ε."""
        alice = engine.open_session("alice", 5.0)
        bob = engine.open_session("bob", 5.0)
        workload = identity_workload(domain)
        t1 = engine.submit("alice", workload, epsilon=0.5)
        t2 = engine.submit("bob", workload, epsilon=0.5)
        engine.flush()
        np.testing.assert_array_equal(t1.result(), t2.result())
        # Exactly one of the two paid; the duplicate replayed for free.
        assert alice.spent() + bob.spent() == pytest.approx(0.5)
        assert t2.from_cache and not t1.from_cache
        stats = engine.stats
        assert stats.answer_cache_replays == 1
        # The replay is reported as a cache hit, never as a miss.
        assert stats.answer_hits == 1
        assert stats.answer_misses == 1  # only the paying leader missed

    def test_refused_leader_does_not_drag_down_duplicates(self, engine, domain):
        """A duplicate whose own session has budget is promoted and answered."""
        poor = engine.open_session("poor", 0.1)
        rich = engine.open_session("rich", 5.0)
        workload = identity_workload(domain)
        poor_ticket = engine.submit("poor", workload, epsilon=0.5)  # leader, refused
        rich_ticket = engine.submit("rich", workload, epsilon=0.5)  # promoted
        engine.flush()
        assert poor_ticket.status == "refused"
        assert rich_ticket.status == "answered"
        assert rich.spent() == pytest.approx(0.5)
        assert poor.spent() == 0.0

    def test_consolidation_resolves_from_raw_measurements(self, engine, domain):
        """Repeated consolidation must not treat blended answers as evidence."""
        engine.open_session("alice", 8.0)
        engine.ask("alice", identity_workload(domain), epsilon=1.0)
        engine.ask("alice", total_workload(domain), epsilon=1.0)
        engine.consolidate()
        engine.ask("alice", cumulative_workload(domain), epsilon=1.0)
        engine.consolidate()
        # Raw measurements are preserved verbatim alongside blended answers.
        for entry in engine.answer_cache._entries.values():
            assert entry.raw_answers is not None
            if entry.consolidated:
                assert entry.raw_answers.shape == entry.answers.shape
        # All three blended answers are mutually consistent after round two.
        histogram = engine.ask("alice", identity_workload(domain), epsilon=1.0)
        total = engine.ask("alice", total_workload(domain), epsilon=1.0)
        prefix = engine.ask("alice", cumulative_workload(domain), epsilon=1.0)
        assert float(histogram.sum()) == pytest.approx(float(total[0]), rel=1e-6)
        assert float(prefix[-1]) == pytest.approx(float(total[0]), rel=1e-6)

    def test_replay_is_free_across_clients(self, engine, domain):
        engine.open_session("alice", 5.0)
        bob = engine.open_session("bob", 5.0)
        workload = cumulative_workload(domain)
        answer_alice = engine.ask("alice", workload, epsilon=0.5)
        answer_bob = engine.ask("bob", workload, epsilon=0.5)
        np.testing.assert_array_equal(answer_alice, answer_bob)
        assert bob.spent() == 0.0

    def test_different_epsilon_is_not_a_replay(self, engine, domain):
        session = engine.open_session("alice", 5.0)
        workload = identity_workload(domain)
        engine.ask("alice", workload, epsilon=0.5)
        engine.ask("alice", workload, epsilon=0.25)
        assert session.spent() == pytest.approx(0.75)

    def test_cache_disabled_gives_independent_draws_within_a_flush(
        self, database, domain
    ):
        """Two paid copies of one query must be two draws, not one stacked."""
        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            enable_answer_cache=False,
            prefer_data_dependent=False,  # Laplace noise: equal draws would
            consistency=False,            # be a measure-zero event
            random_state=0,
        )
        alice = engine.open_session("alice", 5.0)
        bob = engine.open_session("bob", 5.0)
        workload = identity_workload(domain)
        t1 = engine.submit("alice", workload, epsilon=0.5)
        t2 = engine.submit("bob", workload, epsilon=0.5)
        engine.flush()
        assert t1.status == t2.status == "answered"
        # Both paid, and each got an independent noise draw.
        assert alice.spent() == bob.spent() == pytest.approx(0.5)
        assert not np.array_equal(t1.result(), t2.result())
        assert engine.stats.mechanism_invocations == 2

    def test_cache_can_be_disabled(self, database, domain):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            enable_answer_cache=False,
            random_state=0,
        )
        session = engine.open_session("alice", 5.0)
        workload = identity_workload(domain)
        engine.ask("alice", workload, epsilon=0.5)
        engine.ask("alice", workload, epsilon=0.5)
        assert session.spent() == pytest.approx(1.0)

    def test_consolidation_is_free_and_improves_consistency(self, engine, domain):
        engine.open_session("alice", 8.0)
        engine.ask("alice", identity_workload(domain), epsilon=1.0)
        engine.ask("alice", total_workload(domain), epsilon=1.0)
        spent_before = engine.accountant.spent()
        updated = engine.consolidate()
        assert updated == 2
        assert engine.accountant.spent() == pytest.approx(spent_before)
        # After consolidation the cached answers agree with each other: the
        # replayed total equals the sum of the replayed histogram.
        histogram = engine.ask("alice", identity_workload(domain), epsilon=1.0)
        total = engine.ask("alice", total_workload(domain), epsilon=1.0)
        assert float(histogram.sum()) == pytest.approx(float(total[0]), rel=1e-6)


class TestPartitionSoundness:
    def test_full_domain_query_cannot_claim_a_tiny_partition(self, engine, domain):
        """A fake disjoint partition must not buy a parallel-composition discount."""
        engine.open_session("cheat", 1.0)
        with pytest.raises(PrivacyBudgetError):
            engine.submit(
                "cheat", identity_workload(domain), epsilon=1.0, partition=[0]
            )

    def test_covering_partition_composes_in_parallel(self, database, domain):
        from repro.core import Workload
        from repro.policy import PolicyGraph

        # A sound partitioned setup needs (1) a data-independent plan (the
        # release is then a function of the declared cells alone) and (2) a
        # policy with no edges crossing the partition boundary — here two
        # disconnected line segments over cells 0-7 and 8-15.
        split_policy = PolicyGraph(
            domain,
            edges=[(i, i + 1) for i in range(7)]
            + [(i, i + 1) for i in range(8, 15)],
            name="two-segments",
        )
        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=split_policy,
            prefer_data_dependent=False,
            consistency=False,  # the consistency projection is data dependent too
            random_state=0,
        )
        session = engine.open_session("alice", 1.0)
        # Two genuinely disjoint-support workloads: cells 0-7 and 8-15.
        left = Workload(domain, np.hstack([np.eye(8), np.zeros((8, 8))]))
        right = Workload(domain, np.hstack([np.zeros((8, 8)), np.eye(8)]))
        engine.submit("alice", left, epsilon=0.8, partition=range(8))
        engine.submit("alice", right, epsilon=0.8, partition=range(8, 16))
        engine.flush()
        # Disjoint partitions: max, not sum — 0.8, inside the 1.0 allotment.
        assert session.spent() == pytest.approx(0.8)

    def test_partition_crossing_policy_edges_rejected(self, database, domain):
        """A connected policy has edges across any split, so no discount."""
        from repro.core import Workload

        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),  # connected: edge (7, 8) crosses
            prefer_data_dependent=False,
            consistency=False,
            random_state=0,
        )
        engine.open_session("alice", 1.0)
        left = Workload(domain, np.hstack([np.eye(8), np.zeros((8, 8))]))
        with pytest.raises(PrivacyBudgetError, match="cross"):
            engine.submit("alice", left, epsilon=0.5, partition=range(8))

    def test_partition_refused_on_data_dependent_plans_unsharded(
        self, database, domain
    ):
        """Unsharded DAWA reads the whole histogram: no partition discount."""
        from repro.core import Workload
        from repro.policy import PolicyGraph

        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            enable_sharding=False,  # force the unsharded execution path
            random_state=42,
        )
        session = engine.open_session("alice", 1.0)
        confined = Workload(domain, np.hstack([np.eye(8), np.zeros((8, 8))]))
        # Edge-closed partition (two disconnected segments), so submission
        # passes; the engine's default planner still picks DAWA, which must
        # refuse the discount at execution on the unsharded path.
        split_policy = PolicyGraph(
            domain,
            edges=[(i, i + 1) for i in range(7)]
            + [(i, i + 1) for i in range(8, 15)],
        )
        ticket = engine.submit(
            "alice", confined, epsilon=0.5, policy=split_policy, partition=range(8)
        )
        engine.flush()
        assert ticket.status == "refused"
        with pytest.raises(PrivacyBudgetError, match="data dependent"):
            ticket.result()
        assert session.spent() == 0.0

    def test_partition_allowed_on_data_dependent_plans_when_sharded(
        self, engine, domain
    ):
        """Sharded execution confines DAWA to one component: discount is sound.

        Each per-shard invocation reads only its component's cells, and an
        edge-closed partition is a union of components, so the release is a
        function of the declared partition alone even for data-dependent
        plans.
        """
        from repro.core import Workload
        from repro.policy import PolicyGraph

        session = engine.open_session("alice", 1.0)
        split_policy = PolicyGraph(
            domain,
            edges=[(i, i + 1) for i in range(7)]
            + [(i, i + 1) for i in range(8, 15)],
        )
        left = Workload(domain, np.hstack([np.eye(8), np.zeros((8, 8))]))
        right = Workload(domain, np.hstack([np.zeros((8, 8)), np.eye(8)]))
        t_left = engine.submit(
            "alice", left, epsilon=0.8, policy=split_policy, partition=range(8)
        )
        t_right = engine.submit(
            "alice", right, epsilon=0.8, policy=split_policy, partition=range(8, 16)
        )
        engine.flush()
        assert t_left.status == t_right.status == "answered"
        # Disjoint partitions: max, not sum — 0.8, inside the 1.0 allotment.
        assert session.spent() == pytest.approx(0.8)
        assert engine.stats.sharded_batches >= 1

    def test_non_integer_partition_rejected(self, engine, domain):
        engine.open_session("alice", 1.0)
        with pytest.raises(PolicyError):
            engine.submit(
                "alice", identity_workload(domain), epsilon=0.1, partition=["g0"]
            )


class TestFailureRollback:
    def test_failed_batch_rolls_back_charges_and_resolves_tickets(
        self, engine, domain, monkeypatch
    ):
        session = engine.open_session("alice", 1.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)

        def explode(*args, **kwargs):
            raise RuntimeError("planner crashed")

        monkeypatch.setattr(engine.plan_cache, "plan_for", explode)
        engine.flush()
        assert ticket.status == "refused"
        with pytest.raises(PrivacyBudgetError, match="nothing charged"):
            ticket.result()
        # The charge never stood and the session is fully usable again.
        assert session.spent() == 0.0
        assert engine.pending_count == 0

    def test_answer_failure_rolls_back_charges(self, engine, domain, monkeypatch):
        """A crash *after* charging (in the mechanism) must refund the batch."""
        session = engine.open_session("alice", 1.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        entry = engine.plan_cache.plan_for(ticket.policy, 0.5)

        def explode(*args, **kwargs):
            raise RuntimeError("mechanism crashed")

        monkeypatch.setattr(entry.plan.algorithm, "answer", explode)
        engine.flush()
        assert ticket.status == "refused"
        with pytest.raises(PrivacyBudgetError, match="rolled back"):
            ticket.result()
        assert session.spent() == 0.0

    def test_failure_in_one_group_does_not_strand_other_groups(
        self, engine, domain, monkeypatch
    ):
        engine.open_session("alice", 2.0)
        bad = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        good = engine.submit("alice", cumulative_workload(domain), epsilon=0.25)

        real_plan_for = engine.plan_cache.plan_for

        def explode_on_half(policy, epsilon, **kwargs):
            if epsilon == 0.5:
                raise RuntimeError("boom")
            return real_plan_for(policy, epsilon, **kwargs)

        monkeypatch.setattr(engine.plan_cache, "plan_for", explode_on_half)
        engine.flush()
        assert bad.status == "refused"
        assert good.status == "answered"


class TestReleaseFailures:
    """A failed release reads as one, not as an exhausted allotment."""

    @pytest.mark.parametrize("stage", ["plan", "execute"])
    def test_release_failure_raises_release_failed_error(
        self, engine, domain, monkeypatch, stage
    ):
        engine.open_session("alice", 1.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)

        def explode(*args, **kwargs):
            raise RuntimeError(f"{stage} crashed")

        if stage == "plan":
            monkeypatch.setattr(engine.plan_cache, "plan_for", explode)
        else:
            entry = engine.plan_cache.plan_for(ticket.policy, 0.5)
            monkeypatch.setattr(entry.plan.algorithm, "answer", explode)
        engine.flush()
        assert ticket.status == "refused" and ticket.release_failed
        with pytest.raises(ReleaseFailedError, match=f"{stage} crashed") as raised:
            ticket.result()
        assert isinstance(raised.value, PrivacyBudgetError)
        assert isinstance(raised.value, MechanismError)

    def test_budget_refusal_is_not_a_release_failure(self, engine, domain):
        engine.open_session("alice", 0.25)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        assert ticket.status == "refused" and not ticket.release_failed
        with pytest.raises(PrivacyBudgetError) as raised:
            ticket.result()
        assert not isinstance(raised.value, ReleaseFailedError)


class TestSessionIdentity:
    def test_reopened_session_is_not_billed_for_pre_close_tickets(
        self, engine, domain
    ):
        engine.open_session("alice", 1.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.close_session("alice")
        fresh = engine.open_session("alice", 1.0)
        engine.flush()
        # The old ticket charges its own (closed) session and is refused with
        # an accurate reason; the new session's allotment is untouched.
        assert ticket.status == "refused"
        with pytest.raises(PrivacyBudgetError, match="closed"):
            ticket.result()
        assert fresh.spent() == 0.0
        assert fresh.queries_answered == 0

    def test_concurrent_asks_never_overspend_an_allotment(self, database, domain):
        import threading

        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            enable_answer_cache=False,
            random_state=0,
        )
        session = engine.open_session("alice", 1.0)
        errors = []

        def hammer():
            for _ in range(5):
                try:
                    engine.ask("alice", identity_workload(domain), epsilon=0.3)
                except PrivacyBudgetError:
                    pass
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert session.spent() <= 1.0 + 1e-9


class TestAnswerCacheEviction:
    def test_lru_bound_is_enforced(self, database, domain):
        from repro.core import Workload

        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            answer_cache_size=2,
            random_state=0,
        )
        session = engine.open_session("alice", 5.0)
        workloads = [
            Workload(domain, np.eye(16)[[i]], name=f"row{i}") for i in range(3)
        ]
        for workload in workloads:
            engine.ask("alice", workload, epsilon=0.2)
        assert len(engine.answer_cache) == 2
        assert engine.answer_cache.stats.evictions == 1
        # The evicted (oldest) workload is paid for again; the newest replays.
        spent = session.spent()
        engine.ask("alice", workloads[2], epsilon=0.2)
        assert session.spent() == pytest.approx(spent)
        engine.ask("alice", workloads[0], epsilon=0.2)
        assert session.spent() == pytest.approx(spent + 0.2)

    def test_consolidate_survives_eviction(self, database, domain):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            answer_cache_size=2,
            random_state=0,
        )
        engine.open_session("alice", 5.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.2)
        engine.ask("alice", cumulative_workload(domain), epsilon=0.2)
        engine.ask("alice", total_workload(domain), epsilon=0.2)  # evicts identity
        assert engine.consolidate() == 2


class TestValidation:
    def test_nan_epsilon_rejected_before_any_charge(self, engine, domain):
        session = engine.open_session("alice", 1.0)
        with pytest.raises(PrivacyBudgetError):
            engine.submit("alice", identity_workload(domain), epsilon=float("nan"))
        with pytest.raises(PrivacyBudgetError):
            engine.submit("alice", identity_workload(domain), epsilon=float("inf"))
        # The ledger is untouched and keeps enforcing the allotment.
        assert session.spent() == 0.0
        with pytest.raises(PrivacyBudgetError):
            engine.ask("alice", identity_workload(domain), epsilon=5.0)

    def test_nan_charge_rejected_at_the_accountant(self):
        from repro.accounting import PrivacyAccountant

        accountant = PrivacyAccountant(1.0)
        with pytest.raises(PrivacyBudgetError):
            accountant.charge("q", float("nan"))
        assert accountant.spent() == 0.0

    def test_domain_mismatch_rejected(self, engine):
        engine.open_session("alice", 1.0)
        other = Domain((8,))
        with pytest.raises(PolicyError):
            engine.submit("alice", identity_workload(other), epsilon=0.1)

    def test_non_positive_epsilon_rejected(self, engine, domain):
        engine.open_session("alice", 1.0)
        with pytest.raises(PrivacyBudgetError):
            engine.submit("alice", identity_workload(domain), epsilon=0.0)

    def test_engine_requires_some_policy(self, database, domain):
        engine = PrivateQueryEngine(database, total_epsilon=1.0)
        engine.open_session("alice", 0.5)
        with pytest.raises(PolicyError):
            engine.submit("alice", identity_workload(domain), epsilon=0.1)


class TestLegacySeededGenerator:
    """A Generator over a legacy-seeded ``MT19937`` cannot ``spawn``; the
    engine seeds its flush streams from the generator's own stream instead."""

    @staticmethod
    def legacy_generator(seed: int) -> np.random.Generator:
        bit_generator = np.random.MT19937()
        bit_generator._legacy_seeding(seed)
        return np.random.Generator(bit_generator)

    def serve(self, database, domain, seed: int):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            enable_answer_cache=False,
            random_state=self.legacy_generator(seed),
        )
        engine.open_session("alice", 5.0)
        engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.submit("alice", cumulative_workload(domain), epsilon=0.25)
        tickets = engine.flush()
        assert [t.status for t in tickets] == ["answered"] * 2
        return [t.answers for t in tickets]

    def test_flushes_and_draws_the_same_answers_from_the_same_seed(
        self, database, domain
    ):
        with pytest.raises(TypeError):
            self.legacy_generator(7).spawn(1)
        first = self.serve(database, domain, 7)
        second = self.serve(database, domain, 7)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        other = self.serve(database, domain, 8)
        assert not np.array_equal(first[0], other[0])
