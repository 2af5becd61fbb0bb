"""Spend-a-little-more top-ups: incremental charges, GLS combining, rollback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Database, Domain, cumulative_workload, identity_workload
from repro.engine import Measurement, PrivateQueryEngine
from repro.engine.parallel import run_unit
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

    def test_top_ups_never_renumber_ask_labels(self, database, domain):
        """Ask ledger labels carry ticket ids; top-up tickets are numbered
        apart, so a ledger reads the same with or without top-ups between
        its asks."""
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        engine.top_up("a", identity_workload(domain), extra_epsilon=0.25)
        engine.ask("a", cumulative_workload(domain), 1.0)
        labels = [op.label for op in session.accountant.operations]
        assert labels[0] == "query:a:1" and labels[2] == "query:a:2"
        assert labels[1].startswith("top-up:a:")

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
    """Draws, increments and noise metadata are backend-independent.

    Every flush — a top-up's included — deals each batch a child of the
    flush stream, on every backend, so inline and process engines seeded
    alike are byte-for-byte comparable with no stream workaround.
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
            try:
                session = engine.open_session("a", 100.0)
                engine.ask("a", identity_workload(domain), 1.0, random_state=41)
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
        """A top-up is a flush like any other: alone, its one unit runs on
        the flushing thread; flushed with queued work, it is dispatched to
        the pool beside it."""
        with make_engine(
            database, domain, execute_workers=2, execute_backend="process"
        ) as engine:
            engine.open_session("erin", 20.0)
            engine.ask("erin", identity_workload(domain), epsilon=0.5)
            before = engine.stats.worker_dispatches
            upgraded = engine.top_up("erin", identity_workload(domain), 0.25)
            assert upgraded.shape == (24,)
            assert engine.stats.worker_dispatches == before
            assert engine.stats.top_ups == 1
            queued = engine.submit("erin", cumulative_workload(domain), epsilon=0.5)
            engine.top_up("erin", identity_workload(domain), 0.25)
            assert queued.status == "answered"
            # Two batches, two units, one dispatch each.
            assert engine.stats.worker_dispatches == before + 2
            assert engine.stats.top_ups == 2

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


class TestTopUpDerivation:
    def test_measurement_draws_the_flush_streams_first_child(self, database, domain):
        """A top-up is the one batch of its flush, so its unit draws from
        that flush stream's first child."""
        engine = make_engine(database, domain, seed=5)
        engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)  # flush 0
        engine.top_up("a", identity_workload(domain), extra_epsilon=0.5)  # flush 1
        (entry,) = engine.answer_cache._entries.values()
        flush_stream = np.random.default_rng(5).spawn(2)[1]
        plan = engine.plan_cache.plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )
        (expected,), _ = run_unit(
            plan,
            identity_workload(domain),
            (slice(None),),
            database,
            flush_stream.spawn(1)[0],
        )
        assert entry.measurements[1].answers.tobytes() == expected.tobytes()

    def test_two_top_ups_in_one_flush_each_buy_a_measurement(
        self, database, domain
    ):
        """Same-workload top-ups never share an invocation: each is its own
        batch, its own draw and its own charge."""
        engine = make_engine(database, domain)
        session = engine.open_session("a", 100.0)
        engine.ask("a", identity_workload(domain), 1.0)
        (entry,) = engine.answer_cache._entries.values()
        tickets = [
            engine._enqueue(
                "a",
                identity_workload(domain),
                line_policy(domain),
                0.25,
                top_up=(entry.key, entry.epsilon),
            )
            for _ in range(2)
        ]
        engine.flush()
        assert [t.status for t in tickets] == ["answered"] * 2
        assert session.spent() == pytest.approx(1.5)
        assert engine.stats.top_ups == 2
        first, second = entry.measurements[1:]
        assert first.draw_id != second.draw_id
        assert not np.array_equal(first.answers, second.answers)
        labels = [op.label for op in session.accountant.operations]
        assert labels[1:] == [f"top-up:a:{entry.key[1][:12]}"] * 2


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
                cache.store(
                    policy, cumulative_workload(domain), Measurement(np.ones(24), 1.0)
                )
                cache.store(
                    policy, cumulative_workload(domain), Measurement(np.ones(24), 2.0)
                )
            return original_run_unit(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "run_unit", evicting_run_unit)
        engine.top_up("a", identity_workload(domain), extra_epsilon=0.25)
        assert len(cache) <= 2  # the bound survived the race re-insert
        entry = cache.peek(policy, identity_workload(domain), 1.0)
        assert entry is not None
        assert entry.epsilon == pytest.approx(1.0)  # key ε, not the increment
        assert len(entry.measurements) == 1  # only the fresh measurement
        assert entry.total_epsilon == pytest.approx(0.25)
