"""Execute backends, inline and process pool: draws, ledgers, stats, lifecycle."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    total_workload,
)
from repro.core.workload import Workload, stack_workloads
from repro.engine import PlanCache, PrivateQueryEngine, ShardSet
from repro.engine.parallel import (
    INLINE_BACKEND,
    ExecuteUnit,
    ExecuteUnitGroup,
    ProcessExecuteBackend,
    create_execute_backend,
    run_unit,
)
from repro.policy import PolicyGraph, line_policy

DOMAIN_SIZE = 32
HALF = DOMAIN_SIZE // 2


@pytest.fixture(scope="module")
def domain() -> Domain:
    return Domain((DOMAIN_SIZE,))


@pytest.fixture(scope="module")
def database(domain: Domain) -> Database:
    return Database(domain, np.arange(DOMAIN_SIZE, dtype=float), name="ramp")


@pytest.fixture(scope="module")
def split_policy(domain: Domain) -> PolicyGraph:
    return PolicyGraph(
        domain,
        edges=[(i, i + 1) for i in range(HALF - 1)]
        + [(i, i + 1) for i in range(HALF, DOMAIN_SIZE - 1)],
        name="two-segments",
    )


def left_workload(domain: Domain) -> Workload:
    return Workload(
        domain, np.hstack([np.eye(HALF), np.zeros((HALF, HALF))]), name="left"
    )


SEED = 42

#: ``serve_stream``'s submission mix: (workload builder, ε, sharded?).
#: Three ε groups on the connected line policy, then one sharded batch of
#: two tickets on the two-component policy.
STREAM = (
    (identity_workload, 0.5, False),
    (cumulative_workload, 0.25, False),
    (total_workload, 0.125, False),
    (left_workload, 0.4, True),
    (identity_workload, 0.4, True),
)


def serve_stream(domain, database, split_policy, backend: str, workers: int = 2):
    """One fixed submission mix through the given backend; returns evidence.

    Three ε groups on the connected line policy (three unsharded batches)
    plus a sharded batch on the two-component policy — enough unit diversity
    to exercise per-batch and per-shard child streams.
    """
    engine = PrivateQueryEngine(
        database,
        total_epsilon=100.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=SEED,
        execute_workers=workers,
        execute_backend=backend,
    )
    with engine:
        session = engine.open_session("alice", 50.0)
        tickets = submit_stream(engine, domain, split_policy)
        engine.flush()
        stats = engine.stats
        ledger = [
            (op.label, op.epsilon, op.partition)
            for op in session.accountant.operations
        ]
    return {
        "statuses": [t.status for t in tickets],
        "answers": [t.answers for t in tickets],
        "ledger": ledger,
        "stats": stats,
        "engine": engine,
    }


def submit_stream(engine, domain, split_policy):
    """Submit the :data:`STREAM` mix to ``engine`` (no flush)."""
    return [
        engine.submit(
            "alice",
            build(domain),
            epsilon=epsilon,
            policy=split_policy if sharded else None,
        )
        for build, epsilon, sharded in STREAM
    ]


def flush_stream(index: int) -> np.random.Generator:
    """The ``index``-th flush stream of an engine seeded with :data:`SEED`."""
    return np.random.default_rng(SEED).spawn(index + 1)[index]


def run_alone(backend, unit):
    """Dispatch ``unit`` as a group of one; returns its ``(vectors, model)``."""
    (outcome,) = backend.submit_group(ExecuteUnitGroup(units=(unit,))).result()
    assert outcome[0] == "ok", outcome
    return outcome[1], outcome[2]


def spawn(rng: np.random.Generator, count: int):
    return list(rng.spawn(count))


def oracle_answers(domain, database, split_policy, rng):
    """Recompute :data:`STREAM`'s answers in this process with ``run_unit``.

    The documented derivation, applied by hand: the flush stream spawns one
    child per batch, an unsharded batch draws from its child, and a sharded
    batch spawns its per-shard grandchildren from its child in sorted shard
    order.
    """
    line = line_policy(domain)
    plans = PlanCache()
    unsharded = [entry for entry in STREAM if not entry[2]]
    sharded = [entry for entry in STREAM if entry[2]]
    batch_rngs = spawn(rng, len(unsharded) + 1)
    answers = []
    for index, (build, epsilon, _) in enumerate(unsharded):
        plan = plans.plan_for(
            line, epsilon, prefer_data_dependent=False, consistency=False
        )
        vectors, _ = run_unit(
            plan, build(domain), (slice(None),), database, batch_rngs[index], False
        )
        answers.append(vectors[0])
    # The sharded batch: one unit per touched shard, workloads stacked in
    # ticket order, then gathered back per ticket.
    epsilon = sharded[0][1]
    shard_set = ShardSet.build(split_policy, database)
    scatters = [shard_set.scatter(build(domain)) for build, _, _ in sharded]
    jobs = {}
    for position, scatter in enumerate(scatters):
        for piece_index, piece in enumerate(scatter.pieces):
            jobs.setdefault(piece.shard.index, []).append(
                (position, piece_index, piece)
            )
    shard_rngs = spawn(batch_rngs[-1], len(jobs))
    pieces = {}
    for shard_index, shard_rng in zip(sorted(jobs), shard_rngs):
        entries = jobs[shard_index]
        shard = entries[0][2].shard
        plan = PlanCache().plan_for(
            shard.policy, epsilon, prefer_data_dependent=False, consistency=False
        )
        vectors, _ = run_unit(
            plan,
            *stack_workloads([piece.workload for _, _, piece in entries]),
            shard.database,
            shard_rng,
            False,
        )
        for (position, piece_index, _), vector in zip(entries, vectors):
            pieces[(position, piece_index)] = vector
    for position, scatter in enumerate(scatters):
        answers.append(
            scatter.gather(
                [pieces[(position, i)] for i in range(len(scatter.pieces))]
            )
        )
    return answers


@pytest.fixture(scope="module")
def inline_run(domain, database, split_policy):
    return serve_stream(domain, database, split_policy, "process", workers=1)


@pytest.fixture(scope="module")
def process_run(domain, database, split_policy):
    return serve_stream(domain, database, split_policy, "process")


class TestDerivationOracle:
    """The one RNG derivation, pinned against an in-process recomputation
    on every backend: inline, pooled, and pooled after close."""

    def assert_matches_oracle(self, answers, domain, database, split_policy, rng):
        expected = oracle_answers(domain, database, split_policy, rng)
        assert len(answers) == len(expected) == len(STREAM)
        for got, want in zip(answers, expected):
            np.testing.assert_array_equal(got, want)

    def test_inline_engine_draws_the_one_derivation(
        self, inline_run, domain, database, split_policy
    ):
        assert inline_run["stats"].execute_backend == "inline"
        self.assert_matches_oracle(
            inline_run["answers"], domain, database, split_policy, flush_stream(0)
        )

    def test_process_engine_draws_the_pooled_derivation(
        self, process_run, domain, database, split_policy
    ):
        assert process_run["stats"].execute_backend == "process"
        self.assert_matches_oracle(
            process_run["answers"], domain, database, split_policy, flush_stream(0)
        )

    def test_closed_pooled_engine_keeps_the_one_derivation(
        self, domain, database, split_policy
    ):
        run = serve_stream(domain, database, split_policy, "process")
        engine = run["engine"]  # closed by serve_stream
        tickets = submit_stream(engine, domain, split_policy)
        engine.flush()
        assert [t.status for t in tickets] == ["answered"] * len(STREAM)
        self.assert_matches_oracle(
            [t.answers for t in tickets], domain, database, split_policy,
            flush_stream(1),
        )


class TestBackendSelection:
    def test_default_engine_reports_inline_backend(self, domain, database):
        engine = PrivateQueryEngine(
            database, total_epsilon=10.0, default_policy=line_policy(domain)
        )
        stats = engine.stats
        assert stats.execute_backend == "inline"
        assert stats.worker_dispatches == 0
        assert stats.serialization_seconds == 0.0

    def test_single_worker_stays_inline(self, domain, database):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            execute_workers=1,
            execute_backend="process",
        )
        assert engine._execute_backend is INLINE_BACKEND
        assert engine.stats.execute_backend == "inline"

    def test_unknown_backend_is_rejected(self, domain, database):
        with pytest.raises(ValueError, match="execute backend"):
            PrivateQueryEngine(
                database,
                total_epsilon=10.0,
                default_policy=line_policy(domain),
                execute_workers=2,
                execute_backend="subinterpreter",
            )
        with pytest.raises(ValueError, match="execute backend"):
            create_execute_backend("greenlet", 4)

    @pytest.mark.parametrize("removed", ["thread", "adaptive"])
    def test_removed_backends_name_the_accepted_values(
        self, domain, database, removed
    ):
        with pytest.raises(ValueError, match="'inline' or 'process'"):
            PrivateQueryEngine(
                database,
                total_epsilon=10.0,
                default_policy=line_policy(domain),
                execute_workers=2,
                execute_backend=removed,
            )

    def test_default_backend_is_the_process_pool(self, domain, database):
        with PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            execute_workers=2,
        ) as engine:
            assert isinstance(engine._execute_backend, ProcessExecuteBackend)
            assert engine.stats.execute_backend == "process"

    def test_inline_backend_ignores_the_worker_count(self, domain, database):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=10.0,
            default_policy=line_policy(domain),
            execute_workers=4,
            execute_backend="inline",
        )
        assert engine._execute_backend is INLINE_BACKEND
        assert engine.stats.execute_backend == "inline"

    def test_demo_engine_accepts_the_inline_backend(self):
        """``python -m repro.engine.serving --execute-backend inline``."""
        from repro.engine.serving.__main__ import build_demo_engine

        engine = build_demo_engine(execute_backend="inline")
        assert engine.stats.execute_backend == "inline"


class TestInlineVsProcessRuns:
    """The same stream served inline and on a process pool: the same
    answers, the same ledgers, different (observable) costs."""

    def test_every_ticket_answers_on_both_backends(self, inline_run, process_run):
        assert inline_run["statuses"] == ["answered"] * 5
        assert process_run["statuses"] == ["answered"] * 5

    def test_answers_are_byte_identical(self, inline_run, process_run):
        """One seed, a mixed sharded/unsharded stream, no stream workaround:
        an inline engine and a ×2 process pool draw the same bytes."""
        for inline, pooled in zip(inline_run["answers"], process_run["answers"]):
            assert inline.tobytes() == pooled.tobytes()

    def test_epsilon_ledgers_are_byte_identical(self, inline_run, process_run):
        assert inline_run["ledger"] == process_run["ledger"]
        assert len(inline_run["ledger"]) == 5

    def test_backend_costs_are_observable(self, inline_run, process_run):
        inline_stats, process_stats = inline_run["stats"], process_run["stats"]
        assert inline_stats.execute_backend == "inline"
        assert process_stats.execute_backend == "process"
        # 3 unsharded units + 2 per-shard units of the sharded batch, each
        # its own dispatch (5 units, but no ε group holds more than 2).
        assert inline_stats.worker_dispatches == 0
        assert process_stats.worker_dispatches == 5
        assert inline_stats.serialization_seconds == 0.0
        assert process_stats.serialization_seconds > 0.0

    def test_sharded_batches_took_the_scatter_path(self, inline_run, process_run):
        assert inline_run["stats"].sharded_batches == 1
        assert process_run["stats"].sharded_batches == 1


class TestLifecycle:
    def test_closed_engine_serves_inline_and_keeps_telemetry(
        self, inline_run, process_run
    ):
        # Module fixtures already closed these engines via the context
        # manager; they must keep answering on the flushing thread, while
        # stats keep reporting the backend's lifetime telemetry (not zeros).
        for run, backend_name in ((inline_run, "inline"), (process_run, "process")):
            engine = run["engine"]
            answers = engine.ask(
                "alice", identity_workload(engine.database.domain), epsilon=0.25
            )
            assert answers.shape == (DOMAIN_SIZE,)
            stats = engine.stats
            assert stats.execute_backend == backend_name
            assert stats.worker_dispatches == run["stats"].worker_dispatches

    def test_broken_worker_pool_rolls_the_batch_back(self, domain, database):
        """A crashed pool is a batch failure (rollback + clear error), not a
        silent fall-back to inline execution."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.exceptions import PrivacyBudgetError

        engine = PrivateQueryEngine(
            database,
            total_epsilon=50.0,
            default_policy=line_policy(domain),
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=1,
            execute_workers=2,
            execute_backend="process",
        )
        with engine:
            session = engine.open_session("carol", 20.0)

            def broken_submit(group):
                raise BrokenProcessPool("worker died")

            engine._execute_backend.submit_group = broken_submit
            # Two epsilon groups: multi-unit flushes go through the backend
            # (a lone unit would short-circuit to inline execution).
            first = engine.submit("carol", identity_workload(domain), epsilon=0.5)
            second = engine.submit(
                "carol", cumulative_workload(domain), epsilon=0.25
            )
            engine.flush()
            assert first.status == second.status == "refused"
            with pytest.raises(PrivacyBudgetError, match="worker pool broke"):
                first.result()
            assert session.spent() == 0.0  # charges rolled back

    def test_single_unit_flush_runs_inline(self, domain, database):
        """A lone work unit skips the dispatch (no pool win to buy)."""
        engine = PrivateQueryEngine(
            database,
            total_epsilon=50.0,
            default_policy=line_policy(domain),
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=1,
            execute_workers=2,
            execute_backend="process",
        )
        with engine:
            engine.open_session("dave", 20.0)
            answers = engine.ask("dave", identity_workload(domain), epsilon=0.5)
            assert answers.shape == (DOMAIN_SIZE,)
            assert engine.stats.worker_dispatches == 0
            # A two-group flush does use the pool.
            engine.submit("dave", identity_workload(domain), epsilon=0.5)
            engine.submit("dave", cumulative_workload(domain), epsilon=0.25)
            engine.flush()
            assert engine.stats.worker_dispatches == 2

    def test_broken_process_pool_rolls_the_batch_back(self, domain, database):
        """A pool that breaks while the flush awaits its results fails every
        member of the broken dispatches (rollback + the pool's own error),
        without an inline re-run."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.exceptions import PrivacyBudgetError

        class BrokenHandle:
            protocol_hops: list = []
            kernel_seconds_list = None

            def result(self, timeout=None):
                raise BrokenProcessPool("worker died mid-dispatch")

        with PrivateQueryEngine(
            database,
            total_epsilon=50.0,
            default_policy=line_policy(domain),
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=1,
            execute_workers=2,
            execute_backend="process",
        ) as engine:
            session = engine.open_session("carol", 20.0)
            engine._execute_backend.submit_group = lambda group: BrokenHandle()
            first = engine.submit("carol", identity_workload(domain), epsilon=0.5)
            second = engine.submit("carol", cumulative_workload(domain), epsilon=0.25)
            engine.flush()
            assert first.status == second.status == "refused"
            with pytest.raises(PrivacyBudgetError, match="worker died mid-dispatch"):
                first.result()
            assert session.spent() == 0.0

    def test_unpicklable_payload_rolls_back_only_its_batch(self, domain, database):
        """A dispatch that cannot be serialised fails its own batch; the
        rest of the flush is served."""
        from repro.exceptions import PrivacyBudgetError

        with PrivateQueryEngine(
            database,
            total_epsilon=50.0,
            default_policy=line_policy(domain),
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=1,
            execute_workers=2,
            execute_backend="process",
        ) as engine:
            session = engine.open_session("erin", 20.0)
            backend = engine._execute_backend
            real_submit = backend.submit_group

            def picky_submit(group):
                if group.units[0].batch.name == "Cumulative":
                    raise TypeError("cannot pickle this payload")
                return real_submit(group)

            backend.submit_group = picky_submit
            kept = engine.submit("erin", identity_workload(domain), epsilon=0.5)
            failed = engine.submit("erin", cumulative_workload(domain), epsilon=0.25)
            engine.flush()
            assert kept.status == "answered"
            assert failed.status == "refused"
            with pytest.raises(PrivacyBudgetError, match="cannot pickle"):
                failed.result()
            assert session.spent() == pytest.approx(0.5)

    def test_close_clears_the_blob_memos(self, domain, database):
        """The db memo pins Database objects (and their histograms); both
        memos must empty on close instead of outliving the backend."""
        backend = ProcessExecuteBackend(max_workers=1)
        cache = PlanCache()
        plan = cache.plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )
        unit = ExecuteUnit(
            plan=plan,
            batch=identity_workload(domain),
            slices=(slice(None),),
            database=database,
            rng=np.random.default_rng(0),
        )
        run_alone(backend, unit)
        assert len(backend._plan_blobs) == len(backend._db_blobs) == 1
        backend.close()
        assert len(backend._plan_blobs) == len(backend._db_blobs) == 0
        assert not backend._shipped_digests
        with pytest.raises(RuntimeError):
            backend.submit_group(ExecuteUnitGroup(units=(unit,)))

    def test_worker_plan_memo_keeps_dispatching(self, domain, database):
        """Repeat flushes reuse worker-side plans (dispatch count grows,
        answers stay deterministic against a single-flush reference)."""
        def run_twice():
            engine = PrivateQueryEngine(
                database,
                total_epsilon=50.0,
                default_policy=line_policy(domain),
                prefer_data_dependent=False,
                consistency=False,
                enable_answer_cache=False,
                random_state=7,
                execute_workers=2,
                execute_backend="process",
            )
            with engine:
                engine.open_session("bob", 20.0)
                first = engine.submit("bob", identity_workload(domain), epsilon=0.5)
                second = engine.submit(
                    "bob", cumulative_workload(domain), epsilon=0.25
                )
                engine.flush()
                third = engine.submit("bob", identity_workload(domain), epsilon=0.5)
                fourth = engine.submit(
                    "bob", cumulative_workload(domain), epsilon=0.25
                )
                engine.flush()
                stats = engine.stats
            return [t.answers for t in (first, second, third, fourth)], stats

        answers, stats = run_twice()
        assert stats.worker_dispatches == 4
        reference, _ = run_twice()
        for vector, expected in zip(answers, reference):
            np.testing.assert_array_equal(vector, expected)


class TestMissOnlyBlobProtocol:
    """Steady-state dispatches ship digests, misses recover bit-identically."""

    @pytest.fixture()
    def plan(self, domain):
        cache = PlanCache()
        return cache.plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )

    def make_unit(self, plan, domain, database, seed):
        """A unit plus an identically-seeded inline reference generator."""
        rng = np.random.default_rng(seed)
        reference_rng = pickle.loads(pickle.dumps(rng))
        unit = ExecuteUnit(
            plan=plan,
            batch=identity_workload(domain),
            slices=(slice(None),),
            database=database,
            rng=rng,
        )
        return unit, reference_rng

    def test_steady_state_ships_only_the_payload(self, domain, database, plan):
        backend = ProcessExecuteBackend(max_workers=1)
        try:
            unit, _ = self.make_unit(plan, domain, database, 1)
            run_alone(backend, unit)
            first = backend.bytes_shipped
            unit, _ = self.make_unit(plan, domain, database, 2)
            run_alone(backend, unit)
            steady = backend.bytes_shipped - first
            # The first dispatch carried the plan and database blobs; the
            # second ships digests only, orders of magnitude below the plan
            # pickle it no longer ships.
            plan_blob_bytes = len(pickle.dumps(plan))
            assert backend.blob_cache_misses == 0
            assert steady < plan_blob_bytes / 2
        finally:
            backend.close()

    def test_steady_state_bytes_are_a_tenth_of_shipping_the_blobs(self):
        """At 16384 cells the blobs dominate, yet never cross the pipe.

        Narrow 8-range workloads keep the payload every dispatch still
        ships small, and the histogram makes the database blob large: a
        digest-only steady-state dispatch must carry at most a tenth of
        what shipping the plan and database blobs with it would carry.
        """
        domain = Domain((16384,))
        counts = np.random.default_rng(7).integers(0, 50, size=16384).astype(float)
        database = Database(domain, counts, name="wide")
        plan = PlanCache().plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )

        def narrow_unit(seed):
            rng = np.random.default_rng(seed)
            matrix = np.zeros((8, domain.size))
            for row in range(8):
                lo = int(rng.integers(0, domain.size - 32))
                matrix[row, lo : lo + int(rng.integers(1, 32)) + 1] = 1.0
            return ExecuteUnit(
                plan=plan,
                batch=Workload(domain, matrix, name=f"narrow-{seed}"),
                slices=(slice(None),),
                database=database,
                rng=np.random.default_rng(seed),
                want_noise=False,
            )

        backend = ProcessExecuteBackend(max_workers=1)
        try:
            for seed in (1, 2):  # pool creation + parent-side memo fill
                run_alone(backend, narrow_unit(seed))
            before = backend.bytes_shipped
            for seed in range(10, 13):
                run_alone(backend, narrow_unit(seed))
            steady = (backend.bytes_shipped - before) / 3
            assert backend.blob_cache_misses == 0
            blobs = len(pickle.dumps(plan)) + len(pickle.dumps(database))
            assert steady * 10 <= steady + blobs
        finally:
            backend.close()

    def test_respawned_worker_recovers_through_the_miss_path(
        self, domain, database, plan
    ):
        """Every shipped blob is lost on respawn; the next digest-only
        dispatch must miss, resubmit with blobs, and draw exactly the noise
        the first attempt would have drawn."""
        backend = ProcessExecuteBackend(max_workers=1)
        try:
            warm_unit, _ = self.make_unit(plan, domain, database, 1)
            run_alone(backend, warm_unit)  # creates the pool
            late_plan = PlanCache().plan_for(
                line_policy(domain),
                0.25,
                prefer_data_dependent=False,
                consistency=False,
            )
            unit, _ = self.make_unit(late_plan, domain, database, 2)
            run_alone(backend, unit)  # eagerly ships the blob once
            assert backend.blob_cache_misses == 0

            assert backend.reset_resident_caches() == 1
            unit, reference_rng = self.make_unit(late_plan, domain, database, 3)
            vectors, _ = run_alone(backend, unit)
            reference, _ = run_unit(
                late_plan, unit.batch, unit.slices, database, reference_rng
            )
            np.testing.assert_array_equal(vectors[0], reference[0])
            assert backend.blob_cache_misses == 2  # the plan and the database
            assert backend.resubmits == 1
        finally:
            backend.close()

    def test_forced_resubmit_ships_every_blob_and_draws_like_inline(
        self, domain, database, plan
    ):
        """After ``reset_resident_caches`` a two-member group misses all
        three distinct digests; its resubmit carries all three blobs —
        both plans and the database, each once — and draws exactly what the
        inline backend draws."""
        backend = ProcessExecuteBackend(max_workers=1)
        late_plan = PlanCache().plan_for(
            line_policy(domain), 0.25, prefer_data_dependent=False, consistency=False
        )

        def group(seed):
            rngs = np.random.default_rng(seed).spawn(2)
            return ExecuteUnitGroup(
                units=tuple(
                    ExecuteUnit(
                        p, identity_workload(domain), (slice(None),), database, rng
                    )
                    for p, rng in zip((late_plan, plan), rngs)
                )
            )

        try:
            run_alone(backend, self.make_unit(plan, domain, database, 1)[0])
            run_alone(backend, self.make_unit(late_plan, domain, database, 2)[0])
            before = backend.bytes_shipped
            backend.submit_group(group(3)).result()  # digest-only
            steady = backend.bytes_shipped - before
            assert backend.reset_resident_caches() == 1
            before, dispatches = backend.bytes_shipped, backend.dispatches
            outcomes = backend.submit_group(group(3)).result()
            blobs = sum(
                len(entry[-1])
                for entry in (
                    backend._plan_blobs.get(late_plan.key),
                    backend._plan_blobs.get(plan.key),
                    backend._db_blobs.get(id(database)),
                )
            )
            assert backend.bytes_shipped - before == 2 * steady + blobs
            assert backend.dispatches == dispatches + 1
            assert backend.resubmits == 1
            assert backend.blob_cache_misses == 3
            inline = INLINE_BACKEND.submit_group(group(3)).result()
            assert [o[0] for o in outcomes] == ["ok", "ok"]
            for got, expected in zip(outcomes, inline):
                assert [v.tobytes() for v in got[1]] == [
                    v.tobytes() for v in expected[1]
                ]
        finally:
            backend.close()

    def test_engine_stats_surface_the_protocol_counters(self, domain, database):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=50.0,
            default_policy=line_policy(domain),
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=5,
            execute_workers=2,
            execute_backend="process",
        )
        with engine:
            engine.open_session("frank", 20.0)
            engine.submit("frank", identity_workload(domain), epsilon=0.5)
            engine.submit("frank", cumulative_workload(domain), epsilon=0.25)
            engine.flush()
            live = engine.stats
            assert live.bytes_shipped > 0
            assert live.blob_cache_misses >= 0
        closed = engine.stats  # lifetime telemetry survives close()
        assert closed.bytes_shipped == live.bytes_shipped
        assert closed.blob_cache_misses == live.blob_cache_misses

    def test_result_is_idempotent_after_a_miss_recovery(
        self, domain, database, plan
    ):
        """The future-like handle must serve the recovered value on a second
        result() call instead of re-running the whole recovery."""
        backend = ProcessExecuteBackend(max_workers=1)
        try:
            warm_unit, _ = self.make_unit(plan, domain, database, 1)
            run_alone(backend, warm_unit)
            late_plan = PlanCache().plan_for(
                line_policy(domain),
                0.125,
                prefer_data_dependent=False,
                consistency=False,
            )
            unit, _ = self.make_unit(late_plan, domain, database, 2)
            run_alone(backend, unit)
            backend.reset_resident_caches()
            unit, _ = self.make_unit(late_plan, domain, database, 3)
            handle = backend.submit_group(ExecuteUnitGroup(units=(unit,)))
            first = handle.result()
            resubmits = backend.resubmits
            misses = backend.blob_cache_misses
            second = handle.result()
            assert second is first
            assert backend.resubmits == resubmits
            assert backend.blob_cache_misses == misses
        finally:
            backend.close()
