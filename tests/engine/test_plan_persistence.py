"""Plan-cache persistence: save/load, versioning, warm-start hit rates."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

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
from repro.engine import PLAN_STORE_FORMAT, PlanCache, PrivateQueryEngine, ShardSet
from repro.engine.plan_cache import write_plan_store
from repro.engine import policy_signature
from repro.exceptions import MechanismError
from repro.policy import PolicyGraph, line_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((32,))


@pytest.fixture
def database(domain: Domain) -> Database:
    return Database(domain, np.arange(32, dtype=float), name="ramp32")


@pytest.fixture
def split_policy(domain: Domain) -> PolicyGraph:
    half = domain.size // 2
    return PolicyGraph(
        domain,
        edges=[(i, i + 1) for i in range(half - 1)]
        + [(i, i + 1) for i in range(half, domain.size - 1)],
        name="two-segments",
    )


def make_engine(database, domain, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=100.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=0,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


#: Serves :func:`warm_start_engine`'s stream from a saved plan store in a
#: fresh interpreter and prints the plan-cache counters and the answers.
WARM_CHILD = """
import json, sys
import numpy as np
from repro.core import Database, Domain, cumulative_workload
from repro.engine import PrivateQueryEngine
from repro.policy import line_policy

domain = Domain((32,))
database = Database(domain, np.arange(32, dtype=float), name="ramp32")
engine = PrivateQueryEngine(
    database, total_epsilon=100.0, default_policy=line_policy(domain),
    enable_answer_cache=False, random_state=11,
)
loaded = engine.load_plans(sys.argv[1])
engine.open_session("alice", 10.0)
answers = [
    engine.ask("alice", cumulative_workload(domain), epsilon).tolist()
    for epsilon in json.loads(sys.argv[2])
]
stats = engine.stats
print(json.dumps({
    "loaded": loaded,
    "plan_misses": stats.plan_misses,
    "plan_cache_hit_rate": stats.plan_cache_hit_rate,
    "answers": answers,
}))
"""

WARM_EPSILONS = [0.4, 0.2, 0.1, 0.05]


class TestPlanCacheStore:
    def test_save_load_round_trip(self, domain, tmp_path):
        cache = PlanCache()
        cache.plan_for(line_policy(domain), 0.5)
        cache.plan_for(line_policy(domain), 0.25)
        path = tmp_path / "plans.pkl"
        assert cache.save(str(path)) == 2

        fresh = PlanCache()
        assert fresh.load(str(path)) == 2
        assert len(fresh) == 2
        fresh.plan_for(line_policy(domain), 0.5)
        assert fresh.stats.misses == 0 and fresh.stats.hits == 1

    def test_absorb_skips_existing_and_respects_maxsize(self, domain, tmp_path):
        cache = PlanCache()
        for epsilon in (0.5, 0.25, 0.125):
            cache.plan_for(line_policy(domain), epsilon)
        path = tmp_path / "plans.pkl"
        cache.save(str(path))

        small = PlanCache(maxsize=2)
        small.plan_for(line_policy(domain), 0.5)
        absorbed = small.load(str(path))
        assert absorbed == 2  # the 0.5 entry already existed
        assert len(small) == 2  # LRU-bounded

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(MechanismError, match="does not exist"):
            PlanCache().load(str(tmp_path / "nope.pkl"))

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"format": PLAN_STORE_FORMAT + 1, "entries": []}, handle)
        with pytest.raises(MechanismError, match="format version"):
            PlanCache().load(str(path))

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(MechanismError, match="corrupt"):
            PlanCache().load(str(path))


class TestEngineWarmStart:
    def test_fresh_engine_serves_with_zero_cold_plans(
        self, database, domain, tmp_path
    ):
        path = tmp_path / "store.pkl"
        cold = make_engine(database, domain)
        cold.open_session("alice", 10.0)
        cold.ask("alice", identity_workload(domain), epsilon=0.5)
        cold.ask("alice", cumulative_workload(domain), epsilon=0.25)
        assert cold.stats.plan_misses == 2
        assert cold.save_plans(str(path)) == 2

        warm = make_engine(database, domain)
        warm.load_plans(str(path))
        warm.open_session("alice", 10.0)
        warm.ask("alice", identity_workload(domain), epsilon=0.5)
        warm.ask("alice", cumulative_workload(domain), epsilon=0.25)
        stats = warm.stats
        assert stats.plan_misses == 0
        assert stats.plan_cache_hit_rate == 1.0

    def test_warm_engine_answers_identically_for_identical_seeds(
        self, database, domain, tmp_path
    ):
        path = tmp_path / "store.pkl"
        cold = make_engine(database, domain, random_state=11)
        cold.open_session("alice", 10.0)
        cold_answers = cold.ask("alice", identity_workload(domain), epsilon=0.5)
        cold.save_plans(str(path))

        warm = make_engine(database, domain, random_state=11)
        warm.load_plans(str(path))
        warm.open_session("alice", 10.0)
        warm_answers = warm.ask("alice", identity_workload(domain), epsilon=0.5)
        np.testing.assert_array_equal(cold_answers, warm_answers)

    def test_fresh_process_serves_warm_and_identically(
        self, database, domain, tmp_path
    ):
        """A relaunched *process* (no resident factorisations, no memos)
        loads the store, plans nothing cold and draws what the cold process
        drew.  Engine defaults: the data-dependent route with consistency."""
        cold = PrivateQueryEngine(
            database,
            total_epsilon=100.0,
            default_policy=line_policy(domain),
            enable_answer_cache=False,
            random_state=11,
        )
        cold.open_session("alice", 10.0)
        cold_answers = [
            cold.ask("alice", cumulative_workload(domain), epsilon)
            for epsilon in WARM_EPSILONS
        ]
        path = tmp_path / "store.pkl"
        assert cold.save_plans(str(path)) == len(WARM_EPSILONS)

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-c", WARM_CHILD, str(path), json.dumps(WARM_EPSILONS)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        warm = json.loads(result.stdout)
        assert warm["loaded"] == len(WARM_EPSILONS)
        assert warm["plan_misses"] == 0
        assert warm["plan_cache_hit_rate"] == 1.0
        for expected, got in zip(cold_answers, warm["answers"]):
            np.testing.assert_array_equal(expected, np.asarray(got))

    def test_per_shard_caches_are_persisted(
        self, database, domain, split_policy, tmp_path
    ):
        path = tmp_path / "store.pkl"
        half = domain.size // 2
        left = Workload(
            domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="left"
        )
        cold = make_engine(database, domain, default_policy=split_policy)
        cold.open_session("alice", 10.0)
        cold.ask("alice", left, epsilon=0.5)
        assert cold.stats.sharded_batches == 1
        saved = cold.save_plans(str(path))
        assert saved >= 1  # at least the touched shard's plan

        # Load BEFORE the shard set exists: the lazily built shards plan
        # through the engine cache, which already holds their plan.
        warm = make_engine(database, domain, default_policy=split_policy)
        warm.load_plans(str(path))
        warm.open_session("alice", 10.0)
        warm.ask("alice", left, epsilon=0.5)
        assert warm.stats.sharded_batches == 1
        assert warm.stats.plan_misses == 0
        assert warm.stats.plan_hits >= 1

    def test_load_after_shard_set_built_hydrates_immediately(
        self, database, domain, split_policy, tmp_path
    ):
        path = tmp_path / "store.pkl"
        half = domain.size // 2
        left = Workload(
            domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="left"
        )
        cold = make_engine(database, domain, default_policy=split_policy)
        cold.open_session("alice", 10.0)
        cold.ask("alice", left, epsilon=0.5)
        cold.save_plans(str(path))

        warm = make_engine(database, domain, default_policy=split_policy)
        warm.shard_count(split_policy)  # builds the shard set eagerly
        warm.load_plans(str(path))
        warm.open_session("alice", 10.0)
        warm.ask("alice", left, epsilon=0.5)
        assert warm.stats.sharded_batches == 1
        assert warm.stats.plan_misses == 0

    def test_sharded_warm_start_reaches_hit_rate_one(
        self, database, domain, split_policy, tmp_path
    ):
        """Shard plan lookups count in EngineStats: a cold sharded server
        reports misses, a warm-started one reaches hit rate 1.0."""
        path = tmp_path / "store.pkl"
        half = domain.size // 2
        left = Workload(
            domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="left"
        )
        cold = make_engine(database, domain, default_policy=split_policy)
        cold.open_session("alice", 10.0)
        cold.ask("alice", left, epsilon=0.5)
        assert cold.stats.plan_misses > 0  # cold sharded planning is visible
        cold.save_plans(str(path))

        warm = make_engine(database, domain, default_policy=split_policy)
        warm.load_plans(str(path))
        warm.open_session("alice", 10.0)
        warm.ask("alice", left, epsilon=0.5)
        stats = warm.stats
        assert stats.plan_misses == 0
        assert stats.plan_cache_hit_rate == 1.0

    def test_load_save_cycle_preserves_unqueried_shard_plans(
        self, database, domain, split_policy, tmp_path
    ):
        """Loaded shard plans survive a load→save cycle even when their
        policy was never queried in between."""
        first = tmp_path / "first.pkl"
        second = tmp_path / "second.pkl"
        half = domain.size // 2
        left = Workload(
            domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="left"
        )
        cold = make_engine(database, domain, default_policy=split_policy)
        cold.open_session("alice", 10.0)
        cold.ask("alice", left, epsilon=0.5)
        cold.save_plans(str(first))

        relay = make_engine(database, domain, default_policy=split_policy)
        loaded = relay.load_plans(str(first))
        assert loaded >= 1
        # Never queried: the shard set was never built, yet its plans sit in
        # the engine cache and reach the new store.
        relay.save_plans(str(second))

        final = make_engine(database, domain, default_policy=split_policy)
        assert final.load_plans(str(second)) == loaded
        final.open_session("alice", 10.0)
        final.ask("alice", left, epsilon=0.5)
        assert final.stats.plan_misses == 0

    def test_loading_two_stores_for_one_policy_merges_staged_plans(
        self, database, domain, split_policy, tmp_path
    ):
        """Stores for the same policy accumulate: a later load must not
        replace an earlier store's shard plans."""
        half = domain.size // 2
        left = Workload(
            domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="left"
        )
        store_paths = []
        for epsilon in (0.5, 0.25):
            cold = make_engine(database, domain, default_policy=split_policy)
            cold.open_session("alice", 10.0)
            cold.ask("alice", left, epsilon=epsilon)
            path = tmp_path / f"store-{epsilon}.pkl"
            cold.save_plans(str(path))
            store_paths.append(path)

        warm = make_engine(database, domain, default_policy=split_policy)
        assert warm.load_plans(str(store_paths[0])) == 1
        assert warm.load_plans(str(store_paths[1])) == 1
        warm.open_session("alice", 10.0)
        warm.ask("alice", left, epsilon=0.5)
        warm.ask("alice", left, epsilon=0.25)
        stats = warm.stats
        assert stats.plan_misses == 0
        assert stats.plan_cache_hit_rate == 1.0

    def test_reloading_the_same_store_is_a_counted_noop(
        self, database, domain, split_policy, tmp_path
    ):
        path = tmp_path / "store.pkl"
        half = domain.size // 2
        left = Workload(
            domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="left"
        )
        cold = make_engine(database, domain, default_policy=split_policy)
        cold.open_session("alice", 10.0)
        cold.ask("alice", left, epsilon=0.5)
        cold.ask("alice", identity_workload(domain), epsilon=0.25)
        cold.save_plans(str(path))

        warm = make_engine(database, domain, default_policy=split_policy)
        assert warm.load_plans(str(path)) >= 1
        assert warm.load_plans(str(path)) == 0  # second load absorbs nothing

    def test_store_with_per_shard_entries_loads_into_the_one_cache(
        self, database, domain, split_policy, tmp_path
    ):
        """Format-2 stores written when each shard kept its own cache carry
        shard plans under ``shard_entries``; they load into the engine cache
        and serve a sharded ask with zero cold plans."""
        shard_set = ShardSet.build(split_policy, database)
        entry = PlanCache().plan_for(
            shard_set.shards[0].policy,
            0.5,
            prefer_data_dependent=False,
            consistency=False,
        )
        path = tmp_path / "per-shard.pkl"
        write_plan_store(
            str(path),
            {
                "format": PLAN_STORE_FORMAT,
                "entries": [],
                # Both identical segments held the same plan in their caches.
                "shard_entries": {
                    policy_signature(split_policy): {
                        shard.index: [(entry.key, entry)]
                        for shard in shard_set.shards
                    }
                },
            },
        )
        warm = make_engine(database, domain, default_policy=split_policy)
        assert warm.load_plans(str(path)) == 1
        warm.open_session("alice", 10.0)
        warm.ask("alice", identity_workload(domain), epsilon=0.5)
        stats = warm.stats
        assert stats.sharded_batches == 1
        assert stats.plan_misses == 0
        assert stats.plan_hits == 2

    def test_mismatched_store_is_inert_not_wrong(self, database, domain, tmp_path):
        """A store saved under one policy never hits for another policy."""
        path = tmp_path / "store.pkl"
        cold = make_engine(database, domain)
        cold.open_session("alice", 10.0)
        cold.ask("alice", identity_workload(domain), epsilon=0.5)
        cold.save_plans(str(path))

        other_policy = PolicyGraph(
            domain, [(0, i) for i in range(1, domain.size)], name="star"
        )
        warm = make_engine(database, domain, default_policy=other_policy)
        warm.load_plans(str(path))
        warm.open_session("alice", 10.0)
        warm.ask("alice", identity_workload(domain), epsilon=0.5)
        assert warm.stats.plan_misses == 1  # cold for the unseen policy


class TestPrunedSaves:
    """A save writes the one plan cache as it stands.

    Shard plans live in the engine's LRU, so there is no staging area left
    to prune: a save writes engine-level and shard plans, served or only
    loaded alike, and the cache keeps serving afterwards.
    """

    def left_workload(self, domain) -> Workload:
        half = domain.size // 2
        return Workload(
            domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="left"
        )

    def test_prune_keeps_live_engine_and_shard_plans(
        self, database, domain, split_policy, tmp_path
    ):
        """Engine-level and shard plans both reach the store and still
        warm-start a fresh engine."""
        path = tmp_path / "store.pkl"
        left = self.left_workload(domain)
        engine = make_engine(database, domain, default_policy=split_policy)
        engine.open_session("alice", 10.0)
        engine.ask("alice", left, epsilon=0.5)  # shard plan
        engine.ask("alice", total_workload(domain), epsilon=0.25)  # engine-level
        assert engine.stats.sharded_batches == 1
        assert engine.save_plans(str(path)) == 2

        warm = make_engine(database, domain, default_policy=split_policy)
        assert warm.load_plans(str(path)) == 2
        warm.open_session("alice", 10.0)
        warm.ask("alice", left, epsilon=0.5)
        warm.ask("alice", total_workload(domain), epsilon=0.25)
        assert warm.stats.plan_misses == 0

    def test_default_save_still_preserves_staged_entries(
        self, database, domain, split_policy, tmp_path
    ):
        """A load→save round trip of loaded-but-unqueried shard plans never
        shrinks the store (within ``plan_cache_size``)."""
        first = tmp_path / "first.pkl"
        second = tmp_path / "second.pkl"
        left = self.left_workload(domain)
        cold = make_engine(database, domain, default_policy=split_policy)
        cold.open_session("alice", 10.0)
        cold.ask("alice", left, epsilon=0.5)
        cold.save_plans(str(first))

        relay = make_engine(database, domain, default_policy=split_policy)
        loaded = relay.load_plans(str(first))
        relay.save_plans(str(second))

        final = make_engine(database, domain, default_policy=split_policy)
        assert final.load_plans(str(second)) == loaded

    def test_prune_leaves_in_memory_staging_usable(
        self, database, domain, split_policy, tmp_path
    ):
        """A save must not disturb the engine itself: loaded plans still
        serve a shard set built afterwards."""
        first = tmp_path / "first.pkl"
        second = tmp_path / "second.pkl"
        left = self.left_workload(domain)
        cold = make_engine(database, domain, default_policy=split_policy)
        cold.open_session("alice", 10.0)
        cold.ask("alice", left, epsilon=0.5)
        cold.save_plans(str(first))

        relay = make_engine(database, domain, default_policy=split_policy)
        relay.load_plans(str(first))
        relay.save_plans(str(second))
        # First query after the save: the shard set is built now and its
        # plan is already in the engine cache — zero cold plans.
        relay.open_session("alice", 10.0)
        relay.ask("alice", left, epsilon=0.5)
        assert relay.stats.plan_misses == 0
