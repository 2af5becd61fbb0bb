"""Domain sharding: component shards, scatter/gather, exact ε accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Database, Domain, identity_workload, total_workload
from repro.core.workload import Workload
from repro.engine import PrivateQueryEngine, ShardSet
from repro.engine import plan_key
from repro.exceptions import PrivacyBudgetError
from repro.policy import PolicyGraph, line_policy
from repro.policy.builders import sensitive_attribute_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.arange(16, dtype=float)
    return Database(domain, counts, name="ramp16")


@pytest.fixture
def split_policy(domain: Domain) -> PolicyGraph:
    """Two disconnected line segments: cells 0–7 and 8–15."""
    return PolicyGraph(
        domain,
        edges=[(i, i + 1) for i in range(7)] + [(i, i + 1) for i in range(8, 15)],
        name="two-segments",
    )


def left_workload(domain: Domain) -> Workload:
    return Workload(domain, np.hstack([np.eye(8), np.zeros((8, 8))]), name="left")


def right_workload(domain: Domain) -> Workload:
    return Workload(domain, np.hstack([np.zeros((8, 8)), np.eye(8)]), name="right")


class TestShardSetConstruction:
    def test_two_component_policy_builds_two_shards(
        self, split_policy, database, domain
    ):
        shard_set = ShardSet.build(split_policy, database)
        assert shard_set is not None and len(shard_set) == 2
        left, right = shard_set.shards
        np.testing.assert_array_equal(left.cells, np.arange(8))
        np.testing.assert_array_equal(right.cells, np.arange(8, 16))
        assert left.domain.size == right.domain.size == 8
        # Induced sub-policies are shard-local line graphs.
        assert left.policy.num_edges == right.policy.num_edges == 7
        assert left.policy.has_edge(0, 1) and right.policy.has_edge(0, 1)
        # Projected sub-histograms carry the shard's counts.
        np.testing.assert_array_equal(left.database.counts, np.arange(8, dtype=float))
        np.testing.assert_array_equal(
            right.database.counts, np.arange(8, 16, dtype=float)
        )

    def test_connected_policy_is_not_sharded(self, database, domain):
        assert ShardSet.build(line_policy(domain), database) is None

    def test_edgeless_component_disables_sharding(self, database, domain):
        # Cells 0–14 form one component; cell 15 is isolated (no edges), so
        # it has no transformed coordinates and sharding falls back.
        policy = PolicyGraph(domain, edges=[(i, i + 1) for i in range(14)])
        assert ShardSet.build(policy, database) is None

    def test_sensitive_attribute_policy_shards_per_disclosed_value(self, domain):
        grid = Domain((4, 4))
        counts = np.ones(grid.size)
        db = Database(grid, counts, name="grid")
        policy = sensitive_attribute_policy(grid, sensitive_axes=[1])
        shard_set = ShardSet.build(policy, db)
        # Axis 0 is disclosed exactly: one component per first coordinate.
        assert shard_set is not None and len(shard_set) == 4
        for shard in shard_set.shards:
            assert shard.num_cells == 4

    def test_scatter_splits_component_confined_rows(
        self, split_policy, database, domain
    ):
        shard_set = ShardSet.build(split_policy, database)
        scatter = shard_set.scatter(identity_workload(domain))
        assert scatter is not None and len(scatter.pieces) == 2
        piece_left, piece_right = scatter.pieces
        np.testing.assert_array_equal(piece_left.rows, np.arange(8))
        np.testing.assert_array_equal(piece_right.rows, np.arange(8, 16))
        assert piece_left.workload.shape == (8, 8)

    def test_component_spanning_row_prevents_scatter(
        self, split_policy, database, domain
    ):
        shard_set = ShardSet.build(split_policy, database)
        assert shard_set.scatter(total_workload(domain)) is None

    def test_gather_reassembles_rows_in_submission_order(
        self, split_policy, database, domain
    ):
        shard_set = ShardSet.build(split_policy, database)
        # Interleaved rows: left, right, left, right.
        matrix = np.zeros((4, 16))
        matrix[0, 2] = matrix[2, 5] = 1.0
        matrix[1, 10] = matrix[3, 13] = 1.0
        scatter = shard_set.scatter(Workload(domain, matrix))
        exact = [
            piece.workload.answer(piece.shard.database) for piece in scatter.pieces
        ]
        gathered = scatter.gather(exact)
        np.testing.assert_allclose(gathered, [2.0, 10.0, 5.0, 13.0])


class TestShardedEngineExecution:
    def make_engine(self, database, split_policy, **overrides) -> PrivateQueryEngine:
        options = dict(
            total_epsilon=50.0,
            default_policy=split_policy,
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=3,
        )
        options.update(overrides)
        return PrivateQueryEngine(database, **options)

    def test_scatter_gather_answers_are_near_exact_at_huge_epsilon(
        self, database, split_policy, domain
    ):
        engine = self.make_engine(database, split_policy)
        engine.open_session("alice", 30.0)
        answers = engine.ask("alice", identity_workload(domain), epsilon=20.0)
        np.testing.assert_allclose(answers, np.arange(16, dtype=float), atol=2.0)
        stats = engine.stats
        assert stats.sharded_batches == 1
        assert stats.mechanism_invocations == 2  # one per touched shard
        assert engine.shard_count() == 2

    def test_epsilon_accounting_is_byte_identical_to_unsharded(
        self, database, split_policy, domain
    ):
        """The acceptance bar: scatter/gather must not change the ledger."""

        def serve(enable_sharding: bool):
            engine = self.make_engine(
                database, split_policy, enable_sharding=enable_sharding
            )
            session = engine.open_session("alice", 10.0)
            engine.ask("alice", identity_workload(domain), epsilon=0.75)
            engine.ask("alice", left_workload(domain), epsilon=0.5)
            engine.ask("alice", right_workload(domain), epsilon=0.25)
            return engine, session

        sharded_engine, sharded_session = serve(True)
        plain_engine, plain_session = serve(False)
        assert sharded_engine.stats.sharded_batches >= 1
        assert plain_engine.stats.sharded_batches == 0
        # Identical spend at every level of the accounting hierarchy.
        assert sharded_session.spent() == plain_session.spent()
        assert sharded_engine.accountant.spent() == plain_engine.accountant.spent()
        # And identical ledgers, operation by operation.
        sharded_ops = sharded_session.accountant.operations
        plain_ops = plain_session.accountant.operations
        assert [(op.epsilon, op.partition) for op in sharded_ops] == [
            (op.epsilon, op.partition) for op in plain_ops
        ]

    def test_sharded_and_unsharded_paths_coexist_in_one_flush(
        self, database, split_policy, domain
    ):
        engine = self.make_engine(database, split_policy)
        engine.open_session("alice", 10.0)
        splittable = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        # The grand total spans both components → unsharded fallback.
        spanning = engine.submit("alice", total_workload(domain), epsilon=0.25)
        engine.flush()
        assert splittable.status == spanning.status == "answered"
        stats = engine.stats
        assert stats.batches_executed == 2
        assert stats.sharded_batches == 1

    def test_per_shard_plan_caches_are_used(self, database, split_policy, domain):
        engine = self.make_engine(database, split_policy)
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        engine.ask("alice", left_workload(domain), epsilon=0.5)
        # Shard plans live in the engine's one cache, keyed by sub-policy:
        # the two identical segments share one plan, planned once and then
        # looked up once per touched shard per batch.
        assert len(engine.plan_cache) == 1
        assert engine.plan_cache.stats.misses == 1
        assert engine.plan_cache.stats.hits == 2
        (entry,) = [entry for _, entry in engine.plan_cache.export_entries()]
        for shard in engine._shard_set_for(split_policy).shards:
            assert entry.key == plan_key(
                shard.policy, 0.5, prefer_data_dependent=False, consistency=False
            )

    def test_each_shard_plan_is_looked_up_once_per_batch(self, database, domain):
        """Charge and execute reuse the plan stage's shard plans: with room
        for one plan, the second component's plan evicts the first, yet
        neither is planned again later in the flush."""
        uneven = PolicyGraph(
            domain,
            edges=[(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 15)],
            name="uneven-segments",
        )
        engine = self.make_engine(
            database,
            uneven,
            plan_cache_size=1,
            prefer_data_dependent=True,
            consistency=True,
        )
        engine.open_session("alice", 10.0)
        # A whole-domain partition sends the charge stage through the
        # per-shard data-dependence check as well.
        engine.ask("alice", identity_workload(domain), epsilon=0.5, partition=range(16))
        stats = engine.stats
        assert stats.sharded_batches == 1
        assert stats.plan_misses == 2
        assert stats.plan_hits == 0

    def test_sharding_can_be_disabled(self, database, split_policy, domain):
        engine = self.make_engine(database, split_policy, enable_sharding=False)
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        assert engine.stats.sharded_batches == 0
        assert engine.shard_count() == 0

    def test_sharded_answer_cache_replay_still_free(
        self, database, split_policy, domain
    ):
        engine = self.make_engine(
            database, split_policy, enable_answer_cache=True
        )
        session = engine.open_session("alice", 10.0)
        first = engine.ask("alice", left_workload(domain), epsilon=0.5)
        spent = session.spent()
        replay = engine.ask("alice", left_workload(domain), epsilon=0.5)
        np.testing.assert_array_equal(first, replay)
        assert session.spent() == pytest.approx(spent)

    def test_sharded_data_dependent_plans_are_allowed(
        self, database, split_policy, domain
    ):
        """Each shard mechanism reads one component only, so DAWA is fine."""
        engine = self.make_engine(
            database,
            split_policy,
            prefer_data_dependent=True,
            consistency=True,
        )
        engine.open_session("alice", 10.0)
        answers = engine.ask("alice", identity_workload(domain), epsilon=5.0)
        assert answers.shape == (16,)
        assert engine.stats.sharded_batches == 1


class TestPerShardDrawIds:
    def make_engine(self, database, split_policy, **overrides) -> PrivateQueryEngine:
        options = dict(
            total_epsilon=50.0,
            default_policy=split_policy,
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=3,
        )
        options.update(overrides)
        return PrivateQueryEngine(database, **options)

    def test_each_shard_invocation_gets_its_own_draw_id(
        self, database, split_policy, domain
    ):
        engine = self.make_engine(database, split_policy)
        engine.open_session("alice", 10.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        # The identity workload touches both shards: two invocations, two
        # distinct draw ids, and no single batch-level id (the gathered
        # vector mixes two draws).
        assert ticket.draw_id is None
        assert ticket.shard_draw_ids is not None
        assert set(ticket.shard_draw_ids) == {0, 1}
        assert len(set(ticket.shard_draw_ids.values())) == 2

    def test_single_shard_ticket_carries_that_shards_id(
        self, database, split_policy, domain
    ):
        engine = self.make_engine(database, split_policy)
        engine.open_session("alice", 10.0)
        ticket = engine.submit("alice", left_workload(domain), epsilon=0.5)
        engine.flush()
        assert ticket.shard_draw_ids is not None
        assert set(ticket.shard_draw_ids) == {0}
        assert ticket.draw_id == ticket.shard_draw_ids[0]

    def test_batch_mates_share_per_shard_ids(self, database, split_policy, domain):
        engine = self.make_engine(database, split_policy)
        engine.open_session("alice", 10.0)
        narrow = engine.submit("alice", left_workload(domain), epsilon=0.5)
        wide = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        # Same batch, same shard-0 invocation: its draw id is shared, and
        # the wide ticket additionally records shard 1's independent draw.
        assert narrow.shard_draw_ids[0] == wide.shard_draw_ids[0]
        assert wide.shard_draw_ids[1] != wide.shard_draw_ids[0]

    def test_unsharded_tickets_keep_plain_draw_ids(self, database, domain):
        engine = self.make_engine(database, line_policy(domain))
        engine.open_session("alice", 10.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        assert ticket.draw_id is not None
        assert ticket.shard_draw_ids is None

    def test_replays_carry_the_shard_draw_mapping(
        self, database, split_policy, domain
    ):
        engine = self.make_engine(
            database, split_policy, enable_answer_cache=True
        )
        engine.open_session("alice", 10.0)
        paid = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        replay = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        assert replay.from_cache
        assert replay.shard_draw_ids == paid.shard_draw_ids

    def test_entries_by_draw_groups_on_shared_shard_invocations(
        self, database, split_policy, domain
    ):
        engine = self.make_engine(
            database, split_policy, enable_answer_cache=True
        )
        engine.open_session("alice", 10.0)
        narrow = engine.submit("alice", left_workload(domain), epsilon=0.5)
        wide = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        grouped = engine.answer_cache.entries_by_draw(split_policy)
        shared = grouped[narrow.shard_draw_ids[0]]
        assert len(shared) == 2  # both answers mix shard 0's draw
        alone = grouped[wide.shard_draw_ids[1]]
        assert len(alone) == 1


class TestBottomLinkedPartitionSoundness:
    """Cells related only through ⊥ share a shard but can be split by a
    partition that passes the submit-time edge-closure check (it skips ⊥
    edges).  A data-dependent shard invocation reads the *whole* shard, so
    granting the parallel-composition discount to a sub-shard partition
    would undercount the privacy loss."""

    @pytest.fixture
    def bottom_policy(self):
        from repro.policy import BOTTOM

        domain = Domain((4,))
        return domain, PolicyGraph(
            domain,
            edges=[(0, BOTTOM), (1, BOTTOM), (2, 3)],
            name="bottom-linked",
        )

    def make_engine(self, bottom_policy):
        domain, policy = bottom_policy
        database = Database(domain, np.array([3.0, 5.0, 2.0, 7.0]))
        engine = PrivateQueryEngine(
            database,
            total_epsilon=20.0,
            default_policy=policy,
            prefer_data_dependent=True,  # per-shard plans are data dependent
            random_state=0,
        )
        assert engine.shard_count() == 2  # {0,1,⊥} and {2,3}
        return domain, engine

    def row(self, domain, index):
        matrix = np.zeros((1, domain.size))
        matrix[0, index] = 1.0
        return Workload(domain, matrix, name=f"cell{index}")

    def test_sub_shard_partition_is_refused_on_data_dependent_shards(
        self, bottom_policy
    ):
        domain, engine = self.make_engine(bottom_policy)
        session = engine.open_session("cheat", 1.0)
        # Both submissions pass the edge-closure check (⊥ edges are skipped),
        # but both cells live in the same shard whose DAWA invocation reads
        # cells {0, 1} — the releases are NOT functions of the disjoint
        # partitions, so the discount must be refused at charge time.
        t0 = engine.submit("cheat", self.row(domain, 0), epsilon=0.8, partition=[0])
        t1 = engine.submit("cheat", self.row(domain, 1), epsilon=0.8, partition=[1])
        engine.flush()
        assert t0.status == t1.status == "refused"
        for ticket in (t0, t1):
            with pytest.raises(PrivacyBudgetError, match="undeclared cells"):
                ticket.result()
        assert session.spent() == 0.0

    def test_whole_shard_partition_keeps_the_discount(self, bottom_policy):
        domain, engine = self.make_engine(bottom_policy)
        session = engine.open_session("alice", 1.0)
        left = Workload(
            domain, np.hstack([np.eye(2), np.zeros((2, 2))]), name="left"
        )
        right = Workload(
            domain, np.hstack([np.zeros((2, 2)), np.eye(2)]), name="right"
        )
        t_left = engine.submit("alice", left, epsilon=0.8, partition=[0, 1])
        t_right = engine.submit("alice", right, epsilon=0.8, partition=[2, 3])
        engine.flush()
        assert t_left.status == t_right.status == "answered"
        # Whole components declared: disjoint releases, max not sum.
        assert session.spent() == pytest.approx(0.8)


class TestWorkloadSplittingPrimitives:
    def test_restrict_to_columns_checks_confinement(self, domain):
        shard_domain = Domain((8,))
        confined = left_workload(domain)
        restricted = confined.restrict_to_columns(range(8), shard_domain)
        np.testing.assert_array_equal(restricted.dense(), np.eye(8))
        with pytest.raises(Exception, match="outside"):
            identity_workload(domain).restrict_to_columns(range(8), shard_domain)

    def test_rows_by_column_label_detects_spanning_rows(self, domain):
        labels = np.array([0] * 8 + [1] * 8)
        groups = identity_workload(domain).rows_by_column_label(labels)
        assert sorted(groups) == [0, 1]
        assert groups[0] == list(range(8))
        assert groups[1] == list(range(8, 16))
        assert total_workload(domain).rows_by_column_label(labels) is None

    def test_rows_with_empty_support_attach_to_a_group(self, domain):
        labels = np.array([0] * 8 + [1] * 8)
        matrix = np.zeros((2, 16))
        matrix[0, 3] = 1.0  # row 1 is all-zero
        groups = Workload(domain, matrix).rows_by_column_label(labels)
        assert sorted(sum(groups.values(), [])) == [0, 1]
