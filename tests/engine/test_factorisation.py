"""The process-wide factorisation store: sharing, eviction, worker locality."""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Database, Domain, identity_workload
from repro.engine import PLAN_STORE_FORMAT, PlanCache, PrivateQueryEngine, matrix_digest
from repro.engine.factorisation import (
    FactorisationStore,
    get_store,
    set_store,
    set_store_enabled,
)
from repro.engine.plan_cache import read_plan_store, write_plan_store
from repro.exceptions import MechanismError
from repro.blowfish.matrix_mechanism import PolicyMatrixMechanism
from repro.blowfish.strategies import grid_slab_strategy
from repro.policy import PolicyGraph, grid_policy, line_policy
from repro.policy.transform import PolicyTransform


@pytest.fixture
def fresh_store():
    """Swap in an empty store so counters start from zero, restore after."""
    store = FactorisationStore()
    previous = set_store(store)
    try:
        yield store
    finally:
        set_store(previous)


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    return Database(domain, np.arange(16, dtype=float), name="ramp16")


class TestMatrixDigest:
    def test_digest_is_content_addressed(self):
        dense = np.eye(4)
        assert matrix_digest(sp.csr_matrix(dense)) == matrix_digest(
            sp.coo_matrix(dense)
        )
        assert matrix_digest(dense) == matrix_digest(sp.csr_matrix(dense))

    def test_digest_separates_different_content(self):
        assert matrix_digest(np.eye(4)) != matrix_digest(2.0 * np.eye(4))
        assert matrix_digest(np.eye(4)) != matrix_digest(np.eye(5))


class TestStoreCore:
    def test_hit_and_miss_counting(self, fresh_store):
        built = []

        def build():
            built.append(1)
            return object()

        first = fresh_store.get_or_build("gram", "d1", build)
        second = fresh_store.get_or_build("gram", "d1", build)
        assert first is second
        assert len(built) == 1
        stats = fresh_store.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_kinds_do_not_collide(self, fresh_store):
        a = fresh_store.get_or_build("gram", "d1", object)
        b = fresh_store.get_or_build("strategy-pinv", "d1", object)
        assert a is not b
        assert len(fresh_store) == 2

    def test_weakref_eviction_reclaims_entry(self, fresh_store):
        handle = fresh_store.get_or_build("gram", "d1", object)
        assert len(fresh_store) == 1
        del handle
        gc.collect()
        assert len(fresh_store) == 0
        # The next lookup honestly rebuilds (a miss, not a dangling hit).
        fresh_store.get_or_build("gram", "d1", object)
        assert fresh_store.stats().misses == 2

    def test_failed_build_caches_nothing(self, fresh_store):
        with pytest.raises(ValueError):
            fresh_store.get_or_build(
                "gram", "d1", lambda: (_ for _ in ()).throw(ValueError("boom"))
            )
        assert len(fresh_store) == 0
        handle = fresh_store.get_or_build("gram", "d1", object)
        assert handle.value is not None

    def test_disabled_store_builds_privately(self, fresh_store):
        previous = set_store_enabled(False)
        try:
            a = fresh_store.get_or_build("gram", "d1", object)
            b = fresh_store.get_or_build("gram", "d1", object)
        finally:
            set_store_enabled(previous)
        assert a is not b
        assert len(fresh_store) == 0
        assert fresh_store.stats().misses == 0


class TestCrossObjectSharing:
    def test_equal_transforms_share_one_gram_factorisation(
        self, fresh_store, domain, database
    ):
        first = PolicyTransform(line_policy(domain))
        second = PolicyTransform(line_policy(domain))
        assert first.gram_digest == second.gram_digest
        first.transform_database(database)
        second.transform_database(database)
        assert second._gram_handle is first._gram_handle
        gram_stats = fresh_store.stats()
        assert gram_stats.hits >= 1

    def test_plans_from_separate_caches_share_the_store(
        self, fresh_store, domain, database
    ):
        # Engine-level and per-shard plan caches are distinct objects; the
        # store is what makes them share Gram work for the same policy.
        entry_a = PlanCache().plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=True, consistency=True
        )
        entry_b = PlanCache().plan_for(
            line_policy(domain), 0.25, prefer_data_dependent=True, consistency=True
        )
        entry_a.transform.transform_database(database)
        before = fresh_store.stats()
        entry_b.transform.transform_database(database)
        after = fresh_store.stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_workload_products_shared_across_epsilons(
        self, fresh_store, domain, database
    ):
        workload = identity_workload(domain)
        low = PolicyMatrixMechanism(line_policy(domain), epsilon=0.5)
        high = PolicyMatrixMechanism(line_policy(domain), epsilon=2.0)
        low.answer(workload, database, np.random.default_rng(0))
        before = fresh_store.stats()
        high.answer(workload, database, np.random.default_rng(0))
        after = fresh_store.stats()
        assert after.hits > before.hits

    def test_strategy_pseudo_inverse_derived_once_per_content(self, fresh_store):
        grid = Domain((8, 8))
        policy = grid_policy(grid)
        database = Database(grid, np.ones(64))
        workload = identity_workload(grid)
        a = PolicyMatrixMechanism(policy, epsilon=0.5, strategy=grid_slab_strategy)
        b = PolicyMatrixMechanism(policy, epsilon=2.0, strategy=grid_slab_strategy)
        assert matrix_digest(a.strategy.matrix) == matrix_digest(b.strategy.matrix)
        model_a = a.noise_model(workload)
        pinv_builds = fresh_store.stats().misses
        model_b = b.noise_model(workload)
        assert model_a is not None and model_b is not None
        # The second mechanism re-used the stored A⁺ (and the shared W_G):
        # no additional pinv build happened.
        assert fresh_store.stats().misses == pinv_builds
        np.testing.assert_allclose(model_a.stds, model_b.stds * 4.0)

    def test_unpickled_transform_reattaches_by_digest(
        self, fresh_store, domain, database
    ):
        transform = PolicyTransform(line_policy(domain))
        transform.transform_database(database)
        builds = fresh_store.stats().misses
        clone = pickle.loads(pickle.dumps(transform))
        np.testing.assert_allclose(
            clone.transform_database(database), transform.transform_database(database)
        )
        # Re-resolution found the resident entry: zero extra factorisations.
        assert fresh_store.stats().misses == builds


class TestNoiseModelLsqrCap:
    def test_wide_slab_strategy_gets_exact_model_past_old_cap(self, fresh_store):
        # 32×32 grid: the transformed identity workload has 1024 rows — past
        # the PR 4 cap of 512 — and the slab strategy carries no explicit
        # pseudo-inverse.  The store-derived A⁺ must produce an exact model
        # anyway (the old code returned the None proxy here).
        grid = Domain((32, 32))
        policy = grid_policy(grid)
        mechanism = PolicyMatrixMechanism(
            policy, epsilon=1.0, strategy=grid_slab_strategy
        )
        workload = identity_workload(grid)
        assert workload.num_queries > 512
        model = mechanism.noise_model(workload)
        assert model is not None
        assert model.basis is not None
        assert model.stds.shape == (workload.num_queries,)


class TestPlanStoreFormatCompat:
    def test_current_format_is_2(self):
        assert PLAN_STORE_FORMAT == 2

    def test_version_1_store_still_loads(self, tmp_path, domain, database):
        engine = PrivateQueryEngine(
            database, total_epsilon=10.0, default_policy=line_policy(domain)
        )
        engine.open_session("a", 5.0)
        engine.ask("a", identity_workload(domain), epsilon=0.5)
        path = tmp_path / "plans.pkl"
        assert engine.save_plans(str(path)) >= 1
        payload = read_plan_store(str(path))
        payload["format"] = 1
        write_plan_store(str(path), payload)

        restarted = PrivateQueryEngine(
            database, total_epsilon=10.0, default_policy=line_policy(domain)
        )
        assert restarted.load_plans(str(path)) >= 1
        restarted.open_session("a", 5.0)
        restarted.ask("a", identity_workload(domain), epsilon=0.5)
        assert restarted.stats.plan_cache_hit_rate == 1.0

    def test_unknown_format_is_rejected(self, tmp_path, domain, database):
        engine = PrivateQueryEngine(
            database, total_epsilon=10.0, default_policy=line_policy(domain)
        )
        engine.open_session("a", 5.0)
        engine.ask("a", identity_workload(domain), epsilon=0.5)
        path = tmp_path / "plans.pkl"
        engine.save_plans(str(path))
        payload = read_plan_store(str(path))
        payload["format"] = 99
        write_plan_store(str(path), payload)
        with pytest.raises(MechanismError, match="format version"):
            PrivateQueryEngine(
                database, total_epsilon=10.0, default_policy=line_policy(domain)
            ).load_plans(str(path))

    def test_loaded_plans_refactorise_at_most_once_per_digest(
        self, fresh_store, tmp_path, domain, database
    ):
        engine = PrivateQueryEngine(
            database, total_epsilon=10.0, default_policy=line_policy(domain)
        )
        engine.open_session("a", 5.0)
        engine.ask("a", identity_workload(domain), epsilon=0.5)
        engine.ask("a", identity_workload(domain), epsilon=0.25)
        path = tmp_path / "plans.pkl"
        engine.save_plans(str(path))

        loaded_store = FactorisationStore()
        previous = set_store(loaded_store)
        try:
            restarted = PrivateQueryEngine(
                database, total_epsilon=10.0, default_policy=line_policy(domain)
            )
            restarted.load_plans(str(path))
            restarted.open_session("a", 5.0)
            restarted.ask("a", identity_workload(domain), epsilon=0.5)
            restarted.ask("a", identity_workload(domain), epsilon=0.25)
            # Drive the Gram path on both re-hydrated plans: the two ε
            # entries share one policy content, so the factorisation builds
            # once and the second plan's lookup hits.
            for _key, entry in restarted.plan_cache.export_entries():
                entry.transform.transform_database(database)
            stats = loaded_store.stats()
        finally:
            set_store(previous)
        assert stats.hits >= 1
        assert stats.misses == 1
        assert stats.entries == 1


class TestEngineStatsSurface:
    def test_stats_carry_store_counters(self, fresh_store, domain, database):
        engine = PrivateQueryEngine(
            database, total_epsilon=10.0, default_policy=line_policy(domain)
        )
        engine.open_session("a", 5.0)
        engine.ask("a", identity_workload(domain), epsilon=0.5)
        engine.ask("a", identity_workload(domain), epsilon=0.25)
        stats = engine.stats
        assert stats.factorisation_misses >= 1
        assert stats.factorisation_hits >= 1
        assert stats.factorisation_entries >= 1
        assert stats.factorisation_build_seconds >= 0.0
        assert 0.0 < stats.factorisation_hit_rate < 1.0

    def test_enabled_engine_exports_store_metrics(self, fresh_store, domain, database):
        from repro.engine import Observability

        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            observability=Observability(enabled=True),
        )
        engine.open_session("a", 5.0)
        engine.ask("a", identity_workload(domain), epsilon=0.5)
        rendered = engine.observability.metrics.to_prometheus_text()
        assert "engine_factorisation_lookups_total" in rendered
        assert 'result="miss"' in rendered
