"""Pickle round-trips for planning/execution artefacts.

The process-parallel execute backend and plan-store persistence both rest on
one property: every artefact inside a :class:`~repro.engine.CachedPlan`
(transform, spanner, strategy, mechanism, per-shard packaging) survives a
pickle round-trip with working locks and caches, and a round-tripped object
given the same seed draws the same noise.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.blowfish.matrix_mechanism import PolicyMatrixMechanism
from repro.blowfish.tree_mechanism import TreeTransformMechanism
from repro.core import Database, Domain, identity_workload
from repro.core.workload import Workload
from repro.engine import PlanCache, ShardSet
from repro.policy import PolicyGraph, line_policy
from repro.policy.transform import PolicyTransform


@pytest.fixture
def domain() -> Domain:
    return Domain((24,))


@pytest.fixture
def database(domain: Domain) -> Database:
    return Database(domain, np.arange(24, dtype=float), name="ramp24")


#: Child script: print one line per cached plan (line, θ-threshold and both
#: shards of a two-component policy), on the Laplace and DAWA routes: the
#: sha256 of the pickled plan, then the process backend's blob digest of the
#: cached entry (what addresses it on the worker pipe).
DIGEST_CHILD = """
import hashlib, pickle
import numpy as np
from repro.core import Database, Domain
from repro.engine import PlanCache, ProcessExecuteBackend, ShardSet
from repro.policy import PolicyGraph, line_policy, threshold_policy

domain = Domain((64,))
split = PolicyGraph(
    domain,
    [(i, i + 1) for i in range(31)] + [(i, i + 1) for i in range(32, 63)],
    name="two-components",
)
shards = ShardSet.build(split, Database(domain, np.arange(64.0))).shards
policies = [line_policy(domain), threshold_policy(domain, 4)]
policies += [shard.policy for shard in shards]
backend = ProcessExecuteBackend(2)
for data_dependent in (False, True):
    cache = PlanCache()
    for policy in policies:
        entry = cache.plan_for(
            policy, 0.5, prefer_data_dependent=data_dependent,
            consistency=data_dependent,
        )
        blob = pickle.dumps(entry.plan, protocol=pickle.HIGHEST_PROTOCOL)
        print(hashlib.sha256(blob).hexdigest(), backend._plan_entry(entry)[0])
backend.close()
"""


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestCachedPlanRoundTrip:
    @pytest.mark.parametrize(
        "prefer_data_dependent,consistency",
        [(False, False), (False, True), (True, True)],
        ids=["laplace", "consistent", "dawa"],
    )
    def test_round_tripped_plan_answers_identically(
        self, domain, database, prefer_data_dependent, consistency
    ):
        cache = PlanCache()
        entry = cache.plan_for(
            line_policy(domain),
            0.5,
            prefer_data_dependent=prefer_data_dependent,
            consistency=consistency,
        )
        # Force the lazy artefacts (Gram factorisation, workload transform
        # memo) so the round-trip exercises the drop-and-rehydrate path.
        entry.plan.algorithm.answer(
            identity_workload(domain), database, np.random.default_rng(0)
        )
        clone = roundtrip(entry)
        assert clone.key == entry.key
        original = entry.plan.algorithm.answer(
            identity_workload(domain), database, np.random.default_rng(3)
        )
        rehydrated = clone.plan.algorithm.answer(
            identity_workload(domain), database, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(original, rehydrated)

    def test_spanner_route_round_trips(self, database):
        domain = Domain((16,))
        theta_policy = PolicyGraph(
            domain,
            [(i, j) for i in range(16) for j in range(i + 1, min(i + 3, 16))],
            name="G^2_16",
        )
        entry = PlanCache().plan_for(theta_policy, 0.5)
        clone = roundtrip(entry)
        db = Database(domain, np.ones(16))
        workload = identity_workload(domain)
        np.testing.assert_array_equal(
            entry.plan.algorithm.answer(workload, db, np.random.default_rng(5)),
            clone.plan.algorithm.answer(workload, db, np.random.default_rng(5)),
        )


class TestPolicyTransformRoundTrip:
    def test_factorisation_is_dropped_and_rederived(self, domain, database):
        transform = PolicyTransform(line_policy(domain))
        before = transform.transform_database(database)  # factorises
        assert transform._gram_handle is not None
        clone = roundtrip(transform)
        assert clone._gram_handle is None  # closure never crosses
        np.testing.assert_allclose(clone.transform_database(database), before)
        assert clone._gram_handle is not None  # re-resolved on first use
        # Same content digest → same shared store entry, not a second build.
        assert clone._gram_handle is transform._gram_handle

    def test_rehydrated_lock_supports_concurrent_factorisation(
        self, domain, database
    ):
        clone = roundtrip(PolicyTransform(line_policy(domain)))
        results, errors = [], []

        def worker():
            try:
                results.append(clone.transform_database(database))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors and len(results) == 4
        for vector in results[1:]:
            np.testing.assert_array_equal(vector, results[0])


class TestMechanismRoundTrips:
    def test_tree_mechanism_same_seed_same_noise(self, domain, database):
        mechanism = TreeTransformMechanism(line_policy(domain), epsilon=0.5)
        workload = identity_workload(domain)
        mechanism.answer(workload, database, np.random.default_rng(0))  # warm memo
        clone = roundtrip(mechanism)
        np.testing.assert_array_equal(
            mechanism.answer(workload, database, np.random.default_rng(9)),
            clone.answer(workload, database, np.random.default_rng(9)),
        )
        # The rehydrated workload-transform cache still memoises.
        assert len(clone._workload_cache) >= 1

    def test_matrix_mechanism_same_seed_same_noise(self, domain, database):
        mechanism = PolicyMatrixMechanism(line_policy(domain), epsilon=0.5)
        workload = identity_workload(domain)
        clone = roundtrip(mechanism)
        np.testing.assert_array_equal(
            mechanism.answer(workload, database, np.random.default_rng(11)),
            clone.answer(workload, database, np.random.default_rng(11)),
        )
        assert clone.strategy.num_columns == mechanism.strategy.num_columns


class TestShardingRoundTrips:
    @pytest.fixture
    def split_policy(self, domain) -> PolicyGraph:
        half = domain.size // 2
        return PolicyGraph(
            domain,
            edges=[(i, i + 1) for i in range(half - 1)]
            + [(i, i + 1) for i in range(half, domain.size - 1)],
            name="two-segments",
        )

    def test_domain_shard_round_trips_with_working_plan_cache(
        self, split_policy, database
    ):
        shard_set = ShardSet.build(split_policy, database)
        shard = shard_set.shards[0]
        cache = PlanCache()
        entry = cache.plan_for(
            shard.policy, 0.5, prefer_data_dependent=False, consistency=False
        )
        clone = roundtrip(shard)
        assert clone.index == shard.index
        np.testing.assert_array_equal(clone.cells, shard.cells)
        np.testing.assert_array_equal(clone.database.counts, shard.database.counts)
        # The round-tripped sub-policy keys the same plan-cache entry.
        clone_entry = cache.plan_for(
            clone.policy, 0.5, prefer_data_dependent=False, consistency=False
        )
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert clone_entry is entry
        workload = identity_workload(shard.domain)
        np.testing.assert_array_equal(
            entry.plan.algorithm.answer(
                workload, shard.database, np.random.default_rng(2)
            ),
            clone_entry.plan.algorithm.answer(
                workload, clone.database, np.random.default_rng(2)
            ),
        )

    def test_shard_set_round_trips_with_working_scatter(
        self, split_policy, database, domain
    ):
        shard_set = ShardSet.build(split_policy, database)
        workload = identity_workload(domain)
        assert shard_set.scatter(workload) is not None  # warm the memo
        clone = roundtrip(shard_set)
        assert len(clone) == len(shard_set)
        scatter = clone.scatter(workload)
        assert scatter is not None and len(scatter.pieces) == 2
        spanning = Workload(domain, np.ones((1, domain.size)), name="spanning")
        assert clone.scatter(spanning) is None


class TestHashSeedIndependence:
    def test_plans_pickle_to_the_same_bytes_under_any_hash_seed(self):
        """Plan pickles and their worker-pipe blob digests agree under two
        hash seeds, and the pickles match the committed golden sha256s."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        digests = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.path.join(root, "src") + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            result = subprocess.run(
                [sys.executable, "-c", DIGEST_CHILD],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            digests.append([line.split() for line in result.stdout.splitlines()])
        assert len(digests[0]) == 8
        assert all(len(line) == 2 for line in digests[0])
        assert digests[0] == digests[1]
        golden = json.loads((Path(__file__).with_name("fixtures") / "digests.json").read_text())
        assert [sha for sha, _ in digests[0]] == golden["plan_pickle_sha256"]
