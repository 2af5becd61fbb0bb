"""Draw-aware GLS consolidation: honest noise models, covariance, write-back."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    random_range_queries_workload,
    total_workload,
)
from repro.core.workload import Workload
from repro.engine import Measurement, PrivateQueryEngine, stack_measurements
from repro.engine import policy_signature
from repro.policy import PolicyGraph, line_policy
from repro.postprocess import weighted_least_squares_estimate


@pytest.fixture
def domain() -> Domain:
    return Domain((32,))


@pytest.fixture
def database(domain: Domain) -> Database:
    return Database(domain, np.arange(32, dtype=float), name="ramp32")


def make_engine(database, policy, seed=0, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=1000.0,
        default_policy=policy,
        prefer_data_dependent=False,  # Laplace route: exact linear noise model
        consistency=False,
        random_state=seed,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


def wls_answers(engine, policy):
    """The independence-assuming weighted least squares baseline (oracle).

    Stacks the cached measurements under ``policy`` in the order the GLS
    consolidation stacks them, weights every measurement by its ε-implied
    proxy variance ``2/ε²`` alone — honest noise models ignored (a uniform
    variance scale never changes a weighted solution) — and re-answers each
    entry as ``W_i x̂``.  Returns ``{answer key: vector}``; the cache itself
    is left untouched.
    """
    cache = engine.answer_cache
    keys = [
        key
        for key in cache._by_policy.get(policy_signature(policy), ())
        if key in cache._entries
    ]
    entries = [cache._entries[key] for key in keys]
    stack = [
        (entry.workload, measurement)
        for entry in entries
        for measurement in entry.measurements
    ]
    matrix, values, _ = stack_measurements(stack)
    variances = np.concatenate(
        [
            np.full(workload.num_queries, 2.0 / measurement.epsilon**2)
            for workload, measurement in stack
        ]
    )
    estimate = weighted_least_squares_estimate(matrix, values, variances)
    return {
        key: np.asarray(entry.workload.matrix @ estimate).ravel()
        for key, entry in zip(keys, entries)
    }


def consolidated_answers(engine, policy, method):
    """``{answer key: vector}`` after a GLS consolidation or the WLS oracle."""
    if method == "wls":
        return wls_answers(engine, policy)
    engine.consolidate(policy)
    return {
        key: entry.answers.copy()
        for key, entry in engine.answer_cache._entries.items()
    }


class TestNoiseMetadata:
    def test_measurements_carry_honest_stds_and_bases(self, database, domain):
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        engine.submit("a", identity_workload(domain), 1.0)
        engine.submit("a", cumulative_workload(domain), 1.0)
        engine.flush()
        entries = list(engine.answer_cache._entries.values())
        assert len(entries) == 2
        draws = set()
        for entry in entries:
            measurement = entry.measurements[0]
            assert measurement.noise_stds is not None
            assert np.all(measurement.noise_stds >= 0)
            assert measurement.noise_bases is not None
            draws.update(measurement.noise_bases.keys())
        # Batch-mates share ONE invocation: one draw id, one factor space.
        assert len(draws) == 1

    def test_batch_mates_share_factor_columns(self, database, domain):
        """Two entries of one invocation index the same factor space."""
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        engine.submit("a", identity_workload(domain), 1.0)
        engine.submit("a", cumulative_workload(domain), 1.0)
        engine.flush()
        bases = [
            next(iter(e.measurements[0].noise_bases.values()))
            for e in engine.answer_cache._entries.values()
        ]
        assert bases[0].shape[1] == bases[1].shape[1]

    def test_dawa_route_declares_no_model(self, database, domain):
        """Data-dependent estimators honestly refuse to state their noise."""
        engine = make_engine(
            database, line_policy(domain), prefer_data_dependent=True
        )
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        (entry,) = engine.answer_cache._entries.values()
        assert entry.measurements[0].noise_stds is None
        assert entry.measurements[0].noise_bases is None

    def test_noiseless_public_query_has_zero_std(self, database, domain):
        """The total is public under the line policy: honest std is 0."""
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        answers = engine.ask("a", total_workload(domain), 1.0)
        assert answers[0] == pytest.approx(float(database.counts.sum()))
        (entry,) = engine.answer_cache._entries.values()
        np.testing.assert_array_equal(entry.measurements[0].noise_stds, [0.0])


class TestCovarianceAssembly:
    def test_shared_draw_produces_cross_blocks(self, database, domain):
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        engine.submit("a", identity_workload(domain), 1.0)
        engine.submit("a", cumulative_workload(domain), 1.0)
        engine.flush()
        entries = list(engine.answer_cache._entries.values())
        stack = [(e.workload, e.measurements[0]) for e in entries]
        _, _, covariance = stack_measurements(stack)
        rows = entries[0].workload.num_queries
        cross = covariance[:rows, rows:]
        assert abs(cross).max() > 0  # the shared draw correlates the entries

    def test_distinct_draws_produce_block_diagonal(self, database, domain):
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)   # flush 1
        engine.ask("a", cumulative_workload(domain), 1.0)  # flush 2
        entries = list(engine.answer_cache._entries.values())
        stack = [(e.workload, e.measurements[0]) for e in entries]
        _, _, covariance = stack_measurements(stack)
        rows = entries[0].workload.num_queries
        assert abs(covariance[:rows, rows:]).max() == 0.0

    def test_proxy_variances_for_untagged_measurements(self, database, domain):
        engine = make_engine(
            database, line_policy(domain), prefer_data_dependent=True
        )
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 0.5)
        (entry,) = engine.answer_cache._entries.values()
        _, _, covariance = stack_measurements(
            [(entry.workload, entry.measurements[0])]
        )
        np.testing.assert_allclose(
            covariance.diagonal(), np.full(32, 2.0 / 0.5**2)
        )


class TestGlsConsolidation:
    def test_gls_equals_wls_bit_identically_on_distinct_draws(
        self, database, domain
    ):
        """No metadata + distinct draw ids: GLS must degenerate exactly.

        The DAWA route declares no noise model, so every measurement gets
        the 2/eps^2 proxy diagonal; with each entry bought in its own flush
        there is no shared draw either, and the assembled covariance is
        exactly the diagonal the WLS baseline uses.
        """
        answers = {}
        for method in ("gls", "wls"):
            engine = make_engine(
                database, line_policy(domain), seed=7, prefer_data_dependent=True
            )
            engine.open_session("a", 100.0)
            engine.ask("a", identity_workload(domain), 1.0)
            engine.ask("a", cumulative_workload(domain), 0.5)
            engine.ask("a", total_workload(domain), 2.0)
            answers[method] = consolidated_answers(
                engine, line_policy(domain), method
            )
            assert len(answers[method]) == 3
        assert answers["gls"].keys() == answers["wls"].keys()
        for key in answers["gls"]:
            np.testing.assert_array_equal(answers["gls"][key], answers["wls"][key])

    def test_gls_beats_wls_on_correlated_batches(self, database, domain):
        """Seeded correlated-batch scenario: GLS mean MSE <= WLS mean MSE.

        One flush buys identity + cumulative in a single invocation (shared
        noise draw); a second flush buys a sharper independent identity
        measurement.  WLS counts the correlated pair as independent evidence
        and over-weights it; the draw-aware GLS does not.
        """
        counts = database.counts

        def consolidated_error(seed, method):
            engine = make_engine(database, line_policy(domain), seed=seed)
            engine.open_session("a", 500.0)
            engine.submit("a", identity_workload(domain), 0.3)
            engine.submit("a", cumulative_workload(domain), 0.3)
            engine.flush()
            engine.ask("a", identity_workload(domain), 1.0)
            answers = consolidated_answers(engine, line_policy(domain), method)
            assert len(answers) == 3
            error = 0.0
            for key, vector in answers.items():
                truth = engine.answer_cache._entries[key].workload.matrix @ counts
                error += float(np.mean((vector - truth) ** 2))
            return error

        seeds = range(25)
        gls = np.mean([consolidated_error(s, "gls") for s in seeds])
        wls = np.mean([consolidated_error(s, "wls") for s in seeds])
        assert gls <= wls

    def test_consolidation_charges_zero_epsilon(self, database, domain):
        engine = make_engine(database, line_policy(domain))
        session = engine.open_session("a", 100.0)
        engine.submit("a", identity_workload(domain), 1.0)
        engine.submit("a", cumulative_workload(domain), 1.0)
        engine.flush()
        spent = session.spent()
        global_spent = engine.accountant.spent()
        assert engine.consolidate() == 2
        assert session.spent() == spent
        assert engine.accountant.spent() == global_spent
        # Replays of consolidated answers stay free too.
        engine.ask("a", identity_workload(domain), 1.0)
        assert session.spent() == spent

    def test_consolidated_answers_are_mutually_consistent(self, database, domain):
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        engine.submit("a", identity_workload(domain), 1.0)
        engine.submit("a", cumulative_workload(domain), 1.0)
        engine.flush()
        engine.consolidate()
        histogram = engine.ask("a", identity_workload(domain), 1.0)
        prefix = engine.ask("a", cumulative_workload(domain), 1.0)
        np.testing.assert_allclose(np.cumsum(histogram), prefix, rtol=1e-6)

    @pytest.mark.parametrize("batch_mates", [2, 4, 8])
    def test_gls_never_loses_to_wls_at_any_correlation_level(self, batch_mates):
        """``batch_mates`` range workloads share one draw, plus an anchor.

        Each seed buys ``batch_mates`` random 8-range workloads in ONE flush
        (one invocation, one shared draw) and an independent identity
        anchor, over 128 cells.  Across 12 seeds the mean per-entry MSE of
        the draw-aware GLS must not exceed the WLS baseline's: correlated
        evidence must not be double-counted, however many share a draw.
        """
        domain = Domain((128,))
        counts = np.random.default_rng(23).integers(0, 60, size=128).astype(float)
        database = Database(domain, counts, name="correlation-levels")
        policy = line_policy(domain)
        errors = {"gls": [], "wls": []}
        for seed in range(12):
            engine = make_engine(database, policy, seed=seed)
            engine.open_session("a", 500.0)
            rng = np.random.default_rng(1000 + seed)
            for _ in range(batch_mates):
                engine.submit(
                    "a", random_range_queries_workload(domain, 8, random_state=rng), 0.3
                )
            engine.flush()
            engine.ask("a", identity_workload(domain), 1.0)
            # The oracle reads the cache without writing it, so both solves
            # see the same measurements.
            entries = engine.answer_cache._entries
            for method in ("wls", "gls"):
                answers = consolidated_answers(engine, policy, method)
                assert len(answers) == batch_mates + 1
                squared = [
                    np.mean((vector - entries[key].workload.matrix @ counts) ** 2)
                    for key, vector in answers.items()
                ]
                errors[method].append(np.mean(squared))
        assert np.mean(errors["gls"]) <= np.mean(errors["wls"])


class TestShardDrawCorrelation:
    @pytest.fixture
    def split_policy(self, domain) -> PolicyGraph:
        return PolicyGraph(
            domain,
            edges=[(i, i + 1) for i in range(15)]
            + [(i, i + 1) for i in range(16, 31)],
            name="two-segments",
        )

    @staticmethod
    def spanning_workload(domain, shift: int) -> Workload:
        """Rows confined per component but touching BOTH components."""
        matrix = np.zeros((4, 32))
        for row in range(2):
            matrix[row, shift + row] = 1.0            # left component
            matrix[row + 2, 16 + shift + row] = 1.0   # right component
        return Workload(domain, matrix, name=f"span{shift}")

    def test_shard_draw_ids_key_the_factor_bases(
        self, database, domain, split_policy
    ):
        engine = make_engine(database, split_policy)
        engine.open_session("a", 100.0)
        w1, w2 = self.spanning_workload(domain, 0), self.spanning_workload(domain, 4)
        engine.submit("a", w1, 1.0)
        engine.submit("a", w2, 1.0)
        engine.flush()
        assert engine.stats.sharded_batches == 1
        entries = list(engine.answer_cache._entries.values())
        assert len(entries) == 2
        for entry in entries:
            measurement = entry.measurements[0]
            assert measurement.shard_draw_ids is not None
            assert len(measurement.shard_draw_ids) == 2
            # Factor bases are keyed by exactly the per-shard draw ids.
            assert set(measurement.noise_bases.keys()) == set(
                measurement.shard_draw_ids.values()
            )
        # Both tickets touched the same two shard invocations.
        first, second = (e.measurements[0] for e in entries)
        assert set(first.shard_draw_ids.values()) == set(
            second.shard_draw_ids.values()
        )

    def test_shared_shard_invocations_cross_correlate(
        self, database, domain, split_policy
    ):
        engine = make_engine(database, split_policy)
        engine.open_session("a", 100.0)
        # Overlapping cells (1 is in both workloads), so the shared shard
        # invocations correlate the entries through common transformed
        # coordinates — disjoint cell ranges would honestly cross out to 0.
        w1, w2 = self.spanning_workload(domain, 0), self.spanning_workload(domain, 1)
        engine.submit("a", w1, 1.0)
        engine.submit("a", w2, 1.0)
        engine.flush()
        entries = list(engine.answer_cache._entries.values())
        stack = [(e.workload, e.measurements[0]) for e in entries]
        _, _, covariance = stack_measurements(stack)
        rows = entries[0].workload.num_queries
        assert abs(covariance[:rows, rows:]).max() > 0
        # ...and consolidation over the sharded measurements still solves.
        assert engine.consolidate() == 2

    def test_grouping_includes_shard_draws(self, database, domain, split_policy):
        engine = make_engine(database, split_policy)
        engine.open_session("a", 100.0)
        engine.submit("a", self.spanning_workload(domain, 0), 1.0)
        engine.submit("a", self.spanning_workload(domain, 4), 1.0)
        engine.flush()
        grouped = engine.answer_cache.entries_by_draw(split_policy)
        assert len(grouped) == 2  # one group per shard invocation
        for keys in grouped.values():
            assert len(keys) == 2  # both entries mix both shard draws


class TestWriteBackRace:
    def test_superseded_entry_is_skipped_and_not_counted(self, database, domain):
        """A store() racing consolidate must not leave a blended ghost.

        The matrix stack happens outside the lock; if the same key is
        re-paid meanwhile, the superseded object must not be mutated or
        counted, and the live entry must stay unconsolidated (its fresh
        measurement was not part of the solve).
        """
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        engine.ask("a", cumulative_workload(domain), 1.0)
        cache = engine.answer_cache
        policy = line_policy(domain)

        import repro.engine.answer_cache as answer_cache_module

        original_stack = answer_cache_module.stack_measurements
        raced = {}

        def racing_stack(stack):
            if not raced:
                raced["entry"] = cache.store(
                    policy,
                    identity_workload(domain),
                    Measurement(np.zeros(32), 1.0, draw_id=999),
                )
            return original_stack(stack)

        answer_cache_module.stack_measurements, cleanup = racing_stack, None
        try:
            updated = cache.consolidate(policy)
        finally:
            answer_cache_module.stack_measurements = original_stack
        # Only the cumulative entry was still live for write-back.
        assert updated == 1
        live = cache.peek(policy, identity_workload(domain), 1.0)
        assert live is raced["entry"]
        assert not live.consolidated
        np.testing.assert_array_equal(live.answers, np.zeros(32))

    def test_eviction_mid_solve_is_not_counted(self, database, domain):
        engine = make_engine(database, line_policy(domain), answer_cache_size=3)
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        engine.ask("a", cumulative_workload(domain), 1.0)
        cache = engine.answer_cache
        policy = line_policy(domain)

        import repro.engine.answer_cache as answer_cache_module

        original_stack = answer_cache_module.stack_measurements
        evicted = {}

        def evicting_stack(stack):
            if not evicted:
                evicted["done"] = True
                # Two stores into a 3-slot cache evict the oldest entry.
                cache.store(
                    policy, total_workload(domain), Measurement(np.ones(1), 1.0)
                )
                cache.store(
                    policy, total_workload(domain), Measurement(np.ones(1), 2.0)
                )
            return original_stack(stack)

        answer_cache_module.stack_measurements = evicting_stack
        try:
            updated = cache.consolidate(policy)
        finally:
            answer_cache_module.stack_measurements = original_stack
        assert updated == 1  # the evicted identity entry must not count


class TestReviewHardening:
    """Regression coverage for the review findings on the GLS upgrade."""

    def test_proxy_variance_matches_honest_scale(self, database, domain):
        """The no-metadata proxy is 2/eps^2 — the honest Laplace variance
        scale — so mixed honest/proxy stacks are not mis-weighted 2x."""
        engine = make_engine(
            database, line_policy(domain), prefer_data_dependent=True
        )
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 0.5)
        (entry,) = engine.answer_cache._entries.values()
        np.testing.assert_allclose(
            entry.measurements[0].variances(), np.full(32, 2.0 / 0.5**2)
        )

    def test_concurrent_top_up_wins_over_stale_consolidate(
        self, database, domain
    ):
        """A top-up racing consolidate must not have its paid-for
        measurement overwritten by the stale solve's write-back."""
        engine = make_engine(database, line_policy(domain))
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        engine.ask("a", cumulative_workload(domain), 1.0)
        cache = engine.answer_cache
        policy = line_policy(domain)

        import repro.engine.answer_cache as answer_cache_module

        original_stack = answer_cache_module.stack_measurements
        raced = {}

        def racing_stack(stack):
            if not raced:
                raced["done"] = True
                answer_cache_module.stack_measurements = original_stack
                try:
                    raced["topped"] = engine.top_up(
                        "a", identity_workload(domain), extra_epsilon=0.5
                    )
                finally:
                    answer_cache_module.stack_measurements = racing_stack
            return original_stack(stack)

        answer_cache_module.stack_measurements = racing_stack
        try:
            updated = engine.consolidate()
        finally:
            answer_cache_module.stack_measurements = original_stack
        # The identity entry gained a measurement the solve never saw: it is
        # skipped (keeping the fresher top-up combination), only the
        # cumulative entry is counted.
        assert updated == 1
        live = cache.peek(policy, identity_workload(domain), 1.0)
        assert len(live.measurements) == 2
        assert not live.consolidated
        np.testing.assert_array_equal(live.answers, raced["topped"])

    def test_no_answer_cache_skips_noise_model_computation(
        self, database, domain, monkeypatch
    ):
        """want_noise=False units never touch the mechanisms' noise hooks."""
        from repro.blowfish.algorithms import NamedAlgorithm

        calls = {"count": 0}
        original = NamedAlgorithm.noise_model

        def counting(self, workload):
            calls["count"] += 1
            return original(self, workload)

        monkeypatch.setattr(NamedAlgorithm, "noise_model", counting)
        engine = make_engine(
            database, line_policy(domain), enable_answer_cache=False
        )
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        assert calls["count"] == 0
        # ...while a cache-enabled engine does compute it.
        cached_engine = make_engine(database, line_policy(domain))
        cached_engine.open_session("a", 100.0)
        cached_engine.ask("a", identity_workload(domain), 1.0)
        assert calls["count"] > 0

    def test_consistency_projection_drops_the_factor_basis(
        self, database, domain
    ):
        """A projected (nonlinear) release keeps honest stds but must not
        claim an exact linear factor basis."""
        engine = make_engine(database, line_policy(domain), consistency=True)
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        (entry,) = engine.answer_cache._entries.values()
        measurement = entry.measurements[0]
        assert measurement.noise_stds is not None  # conservative marginals
        assert measurement.noise_bases is None     # correlations unknown
