"""Spend-a-little-more top-ups: incremental charges, GLS combining, rollback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Database, Domain, cumulative_workload, identity_workload
from repro.engine import PrivateQueryEngine
from repro.exceptions import MechanismError, PrivacyBudgetError
from repro.policy import line_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((24,))


@pytest.fixture
def database(domain: Domain) -> Database:
    return Database(domain, np.arange(24, dtype=float), name="ramp24")


def make_engine(database, domain, seed=0, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=1000.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        random_state=seed,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


class TestTopUpLedger:
    def test_charges_exactly_the_increment(self, database, domain):
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        assert session.spent() == pytest.approx(1.0)
        engine.top_up("a", identity_workload(domain), extra_epsilon=0.25)
        assert session.spent() == pytest.approx(1.25)
        assert engine.stats.top_ups == 1
        (entry,) = engine.answer_cache._entries.values()
        assert len(entry.measurements) == 2
        assert entry.total_epsilon == pytest.approx(1.25)

    @pytest.mark.parametrize("extra", [0.1, 0.2, 0.4, 0.8])
    def test_charges_each_increment_to_within_1e9(self, database, domain, extra):
        # The ledger arithmetic does not depend on the draws, so one seed
        # pins it; the session's spend moves by the increment and no more.
        engine = make_engine(database, domain)
        session = engine.open_session("a", 500.0)
        engine.ask("a", identity_workload(domain), 0.4)
        spent_before = session.spent()
        engine.top_up("a", identity_workload(domain), extra_epsilon=extra)
        assert abs((session.spent() - spent_before) - extra) <= 1e-9

    def test_replays_serve_the_upgraded_vector_for_free(self, database, domain):
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        upgraded = engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)
        spent = session.spent()
        replay = engine.ask("a", identity_workload(domain), 1.0)
        np.testing.assert_array_equal(replay, upgraded)
        assert session.spent() == spent  # the replay was free

    def test_rollback_on_mid_top_up_failure_leaks_nothing(
        self, database, domain, monkeypatch
    ):
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        spent = session.spent()
        ledger_len = len(session.accountant.operations)

        import repro.engine.parallel as parallel_module

        def broken_run_unit(*args, **kwargs):
            raise RuntimeError("mechanism exploded mid-top-up")

        monkeypatch.setattr(parallel_module, "run_unit", broken_run_unit)
        with pytest.raises(MechanismError, match="rolled back"):
            engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)
        assert session.spent() == pytest.approx(spent)
        assert len(session.accountant.operations) == ledger_len
        (entry,) = engine.answer_cache._entries.values()
        assert len(entry.measurements) == 1  # nothing half-applied
        assert engine.stats.top_ups == 0

    def test_refused_when_allotment_exhausted(self, database, domain):
        engine = make_engine(database, domain)
        session = engine.open_session("a", 1.0)
        engine.ask("a", identity_workload(domain), 1.0)
        with pytest.raises(PrivacyBudgetError):
            engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)
        assert session.spent() == pytest.approx(1.0)

    def test_invalid_increment_rejected_before_any_charge(self, database, domain):
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(PrivacyBudgetError):
                engine.top_up("a", identity_workload(domain), extra_epsilon=bad)
        assert session.spent() == pytest.approx(1.0)


class TestTopUpTargeting:
    def test_uncached_workload_is_refused(self, database, domain):
        engine = make_engine(database, domain)
        engine.open_session("a", 100.0)
        with pytest.raises(MechanismError, match="[Nn]o cached"):
            engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)

    def test_ambiguous_epsilon_requires_disambiguation(self, database, domain):
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        engine.ask("a", identity_workload(domain), 2.0)
        with pytest.raises(MechanismError, match="epsilon="):
            engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)
        spent = session.spent()
        engine.top_up(
            "a", identity_workload(domain), extra_epsilon=0.5, epsilon=1.0
        )
        assert session.spent() == pytest.approx(spent + 0.5)
        entry = engine.answer_cache.peek(
            line_policy(domain), identity_workload(domain), 1.0
        )
        assert len(entry.measurements) == 2
        untouched = engine.answer_cache.peek(
            line_policy(domain), identity_workload(domain), 2.0
        )
        assert len(untouched.measurements) == 1

    def test_missing_named_epsilon_is_refused(self, database, domain):
        engine = make_engine(database, domain)
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        with pytest.raises(MechanismError, match="epsilon=3.0"):
            engine.top_up(
                "a", identity_workload(domain), extra_epsilon=0.5, epsilon=3.0
            )

    def test_requires_answer_cache(self, database, domain):
        engine = make_engine(database, domain, enable_answer_cache=False)
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        with pytest.raises(MechanismError, match="answer cache"):
            engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)


class TestTopUpAccuracy:
    def test_top_up_reduces_error_on_average(self, database, domain):
        """GLS-combining a fresh draw sharpens the served answer."""
        counts = database.counts
        truth = counts  # identity workload
        before_errors, after_errors = [], []
        for seed in range(25):
            engine = make_engine(database, domain, seed=seed)
            engine.open_session("a", 500.0)
            first = engine.ask("a", identity_workload(domain), 0.4)
            before_errors.append(float(np.mean((first - truth) ** 2)))
            upgraded = engine.top_up(
                "a", identity_workload(domain), extra_epsilon=0.4
            )
            after_errors.append(float(np.mean((upgraded - truth) ** 2)))
        assert np.mean(after_errors) < np.mean(before_errors)

    def test_repeated_top_ups_accumulate(self, database, domain):
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", cumulative_workload(domain), 0.5)
        engine.top_up("a", cumulative_workload(domain), extra_epsilon=0.25)
        engine.top_up("a", cumulative_workload(domain), extra_epsilon=0.25)
        assert session.spent() == pytest.approx(1.0)
        (entry,) = engine.answer_cache._entries.values()
        assert len(entry.measurements) == 3
        assert entry.total_epsilon == pytest.approx(1.0)
        assert engine.stats.top_ups == 2

    def test_topped_up_measurements_join_consolidation(self, database, domain):
        engine = make_engine(database, domain)
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        engine.ask("a", cumulative_workload(domain), 1.0)
        engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)
        assert engine.consolidate() == 2
        histogram = engine.ask("a", identity_workload(domain), 1.0)
        prefix = engine.ask("a", cumulative_workload(domain), 1.0)
        np.testing.assert_allclose(np.cumsum(histogram), prefix, rtol=1e-6)


class TestTopUpBackendParity:
    """The increment and the noise metadata are backend-independent.

    Inline and process engines draw their flushes from different
    (documented) derivations: a pooled engine's lone batch draws from the
    flush stream's first child, an inline engine's from the flush stream
    itself.  Handing the inline engine that child as its flush stream makes
    the two byte-for-byte comparable.  The top-up measurement itself
    bypasses batching, so its raw vector and metadata must match on every
    backend regardless.
    """

    def test_full_parity_between_inline_and_process(self, database, domain):
        results = {}
        for backend in ("inline", "process"):
            engine = make_engine(
                database,
                domain,
                seed=11,
                execute_workers=2,
                execute_backend=backend,
            )
            ask_stream = (
                np.random.default_rng(41).spawn(1)[0] if backend == "inline" else 41
            )
            try:
                session = engine.open_session("a", 100.0)
                engine.ask(
                    "a", identity_workload(domain), 1.0, random_state=ask_stream
                )
                upgraded = engine.top_up(
                    "a",
                    identity_workload(domain),
                    extra_epsilon=0.5,
                    random_state=42,
                )
                (entry,) = engine.answer_cache._entries.values()
                measurement = entry.measurements[1]
                results[backend] = {
                    "spent": session.spent(),
                    "answers": upgraded,
                    "raw": measurement.answers.copy(),
                    "stds": measurement.noise_stds.copy(),
                    "basis": next(iter(measurement.noise_bases.values())).toarray(),
                }
            finally:
                engine.close()
        inline, process = results["inline"], results["process"]
        assert process["spent"] == pytest.approx(inline["spent"])
        np.testing.assert_array_equal(process["raw"], inline["raw"])
        np.testing.assert_array_equal(process["answers"], inline["answers"])
        # Noise metadata survives the process round trip bit-identically.
        np.testing.assert_array_equal(process["stds"], inline["stds"])
        np.testing.assert_array_equal(process["basis"], inline["basis"])

    def test_top_up_runs_through_the_process_backend(self, database, domain):
        """top_up's unit is one dispatch to the pool, and the combined
        answer comes back."""
        with make_engine(
            database, domain, execute_workers=2, execute_backend="process"
        ) as engine:
            engine.open_session("erin", 20.0)
            engine.ask("erin", identity_workload(domain), epsilon=0.5)
            before = engine.stats.worker_dispatches
            upgraded = engine.top_up("erin", identity_workload(domain), 0.25)
            assert upgraded.shape == (24,)
            assert engine.stats.worker_dispatches == before + 1
            assert engine.stats.top_ups == 1

    @pytest.mark.parametrize("backend", ["process"])
    def test_top_up_measurement_matches_inline(self, database, domain, backend):
        """The seeded top-up unit draws identically on every backend."""
        results = {}
        for mode in ("inline", backend):
            options = (
                {}
                if mode == "inline"
                else {"execute_workers": 2, "execute_backend": mode}
            )
            engine = make_engine(database, domain, seed=11, **options)
            try:
                session = engine.open_session("a", 100.0)
                spent_before_ask = session.spent()
                engine.ask("a", identity_workload(domain), 1.0, random_state=41)
                spent_before = session.spent()
                engine.top_up(
                    "a",
                    identity_workload(domain),
                    extra_epsilon=0.5,
                    random_state=42,
                )
                (entry,) = engine.answer_cache._entries.values()
                measurement = entry.measurements[1]
                results[mode] = {
                    "ask_charge": spent_before - spent_before_ask,
                    "increment": session.spent() - spent_before,
                    "raw": measurement.answers.copy(),
                    "stds": measurement.noise_stds.copy(),
                    "basis": next(iter(measurement.noise_bases.values())).toarray(),
                }
            finally:
                engine.close()
        inline, pooled = results["inline"], results[backend]
        assert pooled["ask_charge"] == pytest.approx(1.0)
        assert pooled["increment"] == pytest.approx(0.5)
        assert inline["increment"] == pytest.approx(0.5)
        np.testing.assert_array_equal(pooled["raw"], inline["raw"])
        np.testing.assert_array_equal(pooled["stds"], inline["stds"])
        np.testing.assert_array_equal(pooled["basis"], inline["basis"])


class TestTopUpEvictionRace:
    def test_evicted_entry_reinsert_respects_bound_and_key_epsilon(
        self, database, domain, monkeypatch
    ):
        """A top-up whose entry was evicted mid-flight re-stores it under
        the original key ε and never pushes the cache past maxsize."""
        engine = make_engine(database, domain, answer_cache_size=2)
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        cache = engine.answer_cache
        policy = line_policy(domain)

        import repro.engine.parallel as parallel_module

        original_run_unit = parallel_module.run_unit
        raced = {}

        def evicting_run_unit(*args, **kwargs):
            if not raced:
                raced["done"] = True
                # Fill the 2-slot cache so the identity entry is evicted
                # while the top-up's mechanism invocation is in flight.
                cache.store(policy, cumulative_workload(domain), 1.0, np.ones(24))
                cache.store(policy, cumulative_workload(domain), 2.0, np.ones(24))
            return original_run_unit(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "run_unit", evicting_run_unit)
        engine.top_up("a", identity_workload(domain), extra_epsilon=0.25)
        assert len(cache) <= 2  # the bound survived the race re-insert
        entry = cache.peek(policy, identity_workload(domain), 1.0)
        assert entry is not None
        assert entry.epsilon == pytest.approx(1.0)  # key ε, not the increment
        assert len(entry.measurements) == 1  # only the fresh measurement
        assert entry.total_epsilon == pytest.approx(0.25)
