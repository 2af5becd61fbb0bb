"""Fused per-worker shard kernels: determinism, telemetry, decline paths.

The groups-of-one reference for the fused runs is an in-process
recomputation of the pooled derivation (:func:`pooled_oracle`) rather than
a process engine with one worker per unit: 16 spawned workers cost ~1.3 GB
and ~8 s here, for draws the oracle pins exactly.  Groups of one on a real
pool are exercised at the fusion threshold (units == workers) instead.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.core import Database, Domain, identity_workload
from repro.core.workload import Workload
from repro.engine import PlanCache, PrivateQueryEngine, ShardSet
from repro.engine.factorisation import set_store_enabled
from repro.engine.parallel import (
    ExecuteUnit,
    ExecuteUnitGroup,
    ProcessExecuteBackend,
    _worker_factorisation_stats,
    run_unit,
    run_unit_group,
)
from repro.policy import PolicyGraph, line_policy

DOMAIN_SIZE = 32
SEGMENT = 4  # → 8 policy components → 8 shard units per sharded batch


@pytest.fixture(scope="module")
def domain() -> Domain:
    return Domain((DOMAIN_SIZE,))


@pytest.fixture(scope="module")
def database(domain: Domain) -> Database:
    return Database(domain, np.arange(DOMAIN_SIZE, dtype=float), name="ramp")


@pytest.fixture(scope="module")
def segmented_policy(domain: Domain) -> PolicyGraph:
    edges = []
    for start in range(0, DOMAIN_SIZE, SEGMENT):
        edges += [(i, i + 1) for i in range(start, start + SEGMENT - 1)]
    return PolicyGraph(domain, edges=edges, name=f"segments-{SEGMENT}")


SEED = 77
EPSILONS = (0.5, 0.25)


def serve(domain, database, segmented_policy, backend, workers):
    """8-shard batch + second ε group through one backend config."""
    engine = PrivateQueryEngine(
        database,
        total_epsilon=100.0,
        default_policy=segmented_policy,
        enable_answer_cache=False,
        random_state=SEED,
        execute_workers=workers,
        execute_backend=backend,
    )
    with engine:
        session = engine.open_session("alice", 50.0)
        tickets = [
            engine.submit("alice", identity_workload(domain), epsilon=epsilon)
            for epsilon in EPSILONS
        ]
        engine.flush()
        answers = [np.asarray(t.answers) for t in tickets]
        ledger = [
            (op.label, op.epsilon, op.partition)
            for op in session.accountant.operations
        ]
        stats = engine.stats
    return {"answers": answers, "ledger": ledger, "stats": stats}


def pooled_oracle(domain, database, segmented_policy):
    """:func:`serve`'s answers recomputed unit by unit in this process.

    The pooled derivation by hand: the engine's first flush stream spawns
    one child per batch (one batch per ε), each child spawns one grandchild
    per shard in sorted shard order, and every shard unit runs alone.
    """
    flush_rng = np.random.default_rng(SEED).spawn(1)[0]
    shard_set = ShardSet.build(segmented_policy, database)
    answers = []
    for epsilon, child in zip(EPSILONS, flush_rng.spawn(len(EPSILONS))):
        scatter = shard_set.scatter(identity_workload(domain))
        grandchildren = child.spawn(len(scatter.pieces))
        pieces = sorted(scatter.pieces, key=lambda piece: piece.shard.index)
        vectors = {}
        for piece, rng in zip(pieces, grandchildren):
            plan = PlanCache().plan_for(
                piece.shard.policy,
                epsilon,
                prefer_data_dependent=True,
                consistency=True,
            )
            (vector,), _ = run_unit(
                plan, piece.workload, (slice(None),), piece.shard.database, rng, False
            )
            vectors[piece.shard.index] = vector
        answers.append(
            scatter.gather([vectors[piece.shard.index] for piece in scatter.pieces])
        )
    return answers


def segment_workload(domain, segment):
    """Identity rows over one policy segment only: a one-shard workload."""
    matrix = np.eye(DOMAIN_SIZE)[segment * SEGMENT : (segment + 1) * SEGMENT]
    return Workload(domain, matrix, name=f"segment-{segment}")


def serve_segments(domain, database, segmented_policy, segments):
    """One sharded batch touching ``segments`` shards, on 2 process workers."""
    with PrivateQueryEngine(
        database,
        total_epsilon=10.0,
        default_policy=segmented_policy,
        enable_answer_cache=False,
        random_state=1,
        execute_workers=2,
        execute_backend="process",
    ) as engine:
        engine.open_session("a", 5.0)
        tickets = [
            engine.submit("a", segment_workload(domain, segment), epsilon=0.5)
            for segment in range(segments)
        ]
        engine.flush()
        assert [t.status for t in tickets] == ["answered"] * segments
        return engine.stats


@pytest.fixture(scope="module")
def runs(domain, database, segmented_policy):
    return {
        "process-fused": serve(domain, database, segmented_policy, "process", 2),
        "inline": serve(domain, database, segmented_policy, "inline", None),
    }


class TestFusedDeterminism:
    def test_all_backends_draw_identical_noise(
        self, runs, domain, database, segmented_policy
    ):
        # Units run alone, in process, under the pooled derivation are the
        # reference; the fused process run and the inline run must draw
        # byte-identical noise.
        reference = pooled_oracle(domain, database, segmented_policy)
        for name in ("process-fused", "inline"):
            answers = runs[name]["answers"]
            assert len(answers) == len(reference)
            for expected, got in zip(reference, answers):
                np.testing.assert_array_equal(expected, got)

    def test_ledgers_are_backend_and_fusion_independent(self, runs):
        assert runs["process-fused"]["ledger"] == runs["inline"]["ledger"]
        assert len(runs["inline"]["ledger"]) == len(EPSILONS)

    def test_pool_of_four_draws_identical_noise(
        self, runs, domain, database, segmented_policy
    ):
        # Four workers cut each 8-unit ε group into four fused chunks where
        # two workers cut it into two: the draws must not notice.
        four = serve(domain, database, segmented_policy, "process", 4)
        assert four["stats"].fused_units == 16
        for expected, got in zip(runs["process-fused"]["answers"], four["answers"]):
            np.testing.assert_array_equal(expected, got)
        assert four["ledger"] == runs["process-fused"]["ledger"]

    def test_factorisation_store_off_draws_identical_noise(
        self, runs, domain, database, segmented_policy
    ):
        # The store is a performance artifact: with it disabled, both the
        # pooled and the inline engine draw and charge exactly as before.
        previous = set_store_enabled(False)
        try:
            pooled = serve(domain, database, segmented_policy, "process", 2)
            inline = serve(domain, database, segmented_policy, "inline", None)
        finally:
            set_store_enabled(previous)
        for name, run in (("process-fused", pooled), ("inline", inline)):
            for expected, got in zip(runs[name]["answers"], run["answers"]):
                np.testing.assert_array_equal(expected, got)
            assert run["ledger"] == runs[name]["ledger"]


class TestFusionTelemetry:
    def test_fused_units_counted_and_dispatches_collapse(
        self, runs, domain, database, segmented_policy
    ):
        fused = runs["process-fused"]["stats"]
        # 16 units (two ε groups × 8 shards) over 2 workers: everything
        # fuses, into at most 2 dispatches per config group.
        assert fused.fused_units == 16
        assert fused.worker_dispatches <= 4
        # At the threshold (2 units, 2 workers) every unit is a group of one.
        solo = serve_segments(domain, database, segmented_policy, 2)
        assert solo.fused_units == 0
        assert solo.worker_dispatches == 2

    def test_process_backend_ships_fused_payloads(self, runs):
        fused = runs["process-fused"]["stats"]
        assert fused.fused_units == 16
        assert fused.worker_dispatches < 16  # fewer dispatches than units
        assert fused.bytes_shipped > 0

    def test_no_fusion_below_slot_count(self, domain, database, segmented_policy):
        # Units ≤ workers: each unit already gets its own worker, so fusing
        # would only serialise — the pipeline must not group.  One unit
        # more and it does.
        at_slots = serve_segments(domain, database, segmented_policy, 2)
        assert at_slots.fused_units == 0
        assert at_slots.worker_dispatches == 2
        # 3 units over 2 workers: balanced chunks of 2 and 1.
        over_slots = serve_segments(domain, database, segmented_policy, 3)
        assert over_slots.fused_units == 2
        assert over_slots.worker_dispatches == 2


class TestFusionDecline:
    def test_incompatible_config_groups_logged(
        self, domain, database, segmented_policy, caplog
    ):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=100.0,
            default_policy=segmented_policy,
            enable_answer_cache=False,
            random_state=5,
            execute_workers=2,
            execute_backend="process",
        )
        with engine:
            engine.open_session("a", 50.0)
            engine.submit("a", identity_workload(domain), epsilon=0.5)
            engine.submit("a", identity_workload(domain), epsilon=0.25)
            with caplog.at_level(logging.DEBUG, logger="repro.engine.pipeline"):
                engine.flush()
            stats = engine.stats
        declines = [
            record
            for record in caplog.records
            if "incompatible ε/config groups" in record.getMessage()
        ]
        assert declines, "expected a DEBUG decline record for the second ε group"
        assert "2 incompatible" in declines[0].getMessage()
        # Declining cross-group fusion still fuses within each group.
        assert stats.fused_units == 16


class TestGroupPrimitives:
    def test_run_unit_group_isolates_member_errors(self, domain, database):
        cache = PlanCache()
        entry = cache.plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )
        good = ExecuteUnit(
            plan=entry,
            batch=identity_workload(domain),
            slices=(slice(None),),
            database=database,
            rng=np.random.default_rng(3),
            want_noise=False,
        )
        bad = ExecuteUnit(
            plan=entry,
            batch=identity_workload(Domain((DOMAIN_SIZE + 1,))),
            slices=(slice(None),),
            database=database,
            rng=np.random.default_rng(4),
            want_noise=False,
        )
        outcomes, kernels = run_unit_group(ExecuteUnitGroup(units=(good, bad)))
        assert outcomes[0][0] == "ok" and kernels[0] is not None
        assert outcomes[1][0] == "error" and kernels[1] is None

    def test_process_group_dispatch_matches_solo_runs(self, domain, database):
        cache = PlanCache()
        entry = cache.plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )

        def unit(seed):
            return ExecuteUnit(
                plan=entry,
                batch=identity_workload(domain),
                slices=(slice(None),),
                database=database,
                rng=np.random.default_rng(seed),
                want_noise=False,
            )

        def alone(seed):
            group = ExecuteUnitGroup(units=(unit(seed),))
            (outcome,) = backend.submit_group(group).result()
            return outcome

        backend = ProcessExecuteBackend(max_workers=2)
        try:
            handle = backend.submit_group(
                ExecuteUnitGroup(units=(unit(11), unit(12)))
            )
            outcomes = handle.result()
            solo_one = alone(11)
            solo_two = alone(12)
        finally:
            backend.close()
        assert [o[0] for o in outcomes] == ["ok", "ok"]
        np.testing.assert_array_equal(outcomes[0][1][0], solo_one[1][0])
        np.testing.assert_array_equal(outcomes[1][1][0], solo_two[1][0])
        assert handle.kernel_seconds_list is not None
        assert len(handle.kernel_seconds_list) == 2


class TestWorkerStoreLocality:
    def test_worker_store_shares_across_plans_and_survives_reset(
        self, domain, database
    ):
        cache = PlanCache()
        entries = [
            cache.plan_for(
                line_policy(domain),
                epsilon,
                prefer_data_dependent=False,
                consistency=False,
            )
            for epsilon in (0.5, 0.25)
        ]

        def unit(entry, seed):
            return ExecuteUnit(
                plan=entry,
                batch=identity_workload(domain),
                slices=(slice(None),),
                database=database,
                rng=np.random.default_rng(seed),
                want_noise=False,
            )

        def alone(entry, seed):
            backend.submit_group(ExecuteUnitGroup(units=(unit(entry, seed),))).result()

        backend = ProcessExecuteBackend(max_workers=1)
        try:
            alone(entries[0], 1)
            alone(entries[1], 2)
            pool = backend._ensure_pool()
            first = pool.submit(_worker_factorisation_stats).result()
            # Two plans, one policy content: the second resolved its
            # transformed workload from the worker-local store by digest.
            assert first["misses"] >= 1
            assert first["hits"] >= 1

            backend.reset_resident_caches()
            alone(entries[0], 3)
            alone(entries[1], 4)
            second = pool.submit(_worker_factorisation_stats).result()
            # Re-hydrated plans re-attach by content digest: within the
            # post-reset pair sharing still works (hits grew again).
            assert second["hits"] > first["hits"]
            assert second["pid"] == first["pid"]
        finally:
            backend.close()
