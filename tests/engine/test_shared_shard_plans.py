"""Shard plans share the engine's one plan cache, and sharing changes no draw.

A shard's induced sub-policy is keyed by its content signature, so
identical components map to one cached plan.  The oracle here replans every
shard afresh and runs each unit alone with ``run_unit``; the engine's
shard units must match it byte for byte, inline and pooled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Database, Domain, identity_workload
from repro.core.workload import Workload
from repro.engine import PlanCache, PrivateQueryEngine, ShardSet
from repro.engine.parallel import run_unit
from repro.policy import PolicyGraph

DOMAIN_SIZE = 32
SEGMENT = 8  # → 4 identical line components
EPSILON = 0.5
SEED = 5


@pytest.fixture(scope="module")
def domain() -> Domain:
    return Domain((DOMAIN_SIZE,))


@pytest.fixture(scope="module")
def database(domain: Domain) -> Database:
    counts = np.random.default_rng(0).integers(0, 40, DOMAIN_SIZE).astype(float)
    return Database(domain, counts, name="random")


@pytest.fixture(scope="module")
def segmented_policy(domain: Domain) -> PolicyGraph:
    edges = []
    for start in range(0, DOMAIN_SIZE, SEGMENT):
        edges += [(i, i + 1) for i in range(start, start + SEGMENT - 1)]
    return PolicyGraph(domain, edges=edges, name="four-segments")


def segment_prefix_workload(domain: Domain) -> Workload:
    """Prefix sums within each segment: every row stays in one component."""
    matrix = np.zeros((DOMAIN_SIZE, DOMAIN_SIZE))
    for row in range(DOMAIN_SIZE):
        start = row - row % SEGMENT
        matrix[row, start : row + 1] = 1.0
    return Workload(domain, matrix, name="segment-prefix")


def workloads(domain: Domain):
    return [identity_workload(domain), segment_prefix_workload(domain)]


def serve(domain, database, policy, backend, workers):
    """One flush of one sharded batch (two tickets over all four shards)."""
    engine = PrivateQueryEngine(
        database,
        total_epsilon=100.0,
        default_policy=policy,
        enable_answer_cache=False,
        random_state=SEED,
        execute_workers=workers,
        execute_backend=backend,
    )
    with engine:
        engine.open_session("alice", 50.0)
        tickets = [
            engine.submit("alice", workload, epsilon=EPSILON)
            for workload in workloads(domain)
        ]
        engine.flush()
        assert [t.status for t in tickets] == ["answered"] * len(tickets)
        return [np.asarray(t.answers) for t in tickets], engine.stats


def oracle_units(domain, database, policy):
    """Each shard unit recomputed alone, with a plan built for that shard.

    Returns ``{shard index: (pieces, vectors)}`` in ticket order.  The
    flush stream is the engine's first, and per-shard children are spawned
    from the batch's one child of it, on every backend.
    """
    rng = np.random.default_rng(SEED).spawn(1)[0].spawn(1)[0]
    shard_set = ShardSet.build(policy, database)
    scatters = [shard_set.scatter(workload) for workload in workloads(domain)]
    shard_rngs = rng.spawn(len(shard_set))
    units = {}
    for shard, shard_rng in zip(shard_set.shards, shard_rngs):
        pieces = [
            piece
            for scatter in scatters
            for piece in scatter.pieces
            if piece.shard.index == shard.index
        ]
        plan = PlanCache().plan_for(shard.policy, EPSILON)
        vectors, _ = run_unit(
            plan, [piece.workload for piece in pieces], shard.database, shard_rng, False
        )
        units[shard.index] = (pieces, vectors)
    return units


@pytest.mark.parametrize(
    "backend, workers",
    [("inline", None), ("process", 2)],
    ids=["inline", "process-x2"],
)
def test_shared_shard_plan_matches_freshly_planned_units(
    domain, database, segmented_policy, backend, workers
):
    answers, stats = serve(domain, database, segmented_policy, backend, workers)
    assert stats.sharded_batches == 1
    # Four identical components, one plan key: one cold plan, then one
    # lookup per remaining touched shard.
    assert stats.plan_misses == 1
    assert stats.plan_hits == 3
    units = oracle_units(domain, database, segmented_policy)
    assert len(units) == 4
    for pieces, vectors in units.values():
        for ticket, (piece, vector) in enumerate(zip(pieces, vectors)):
            assert answers[ticket][piece.rows].tobytes() == np.asarray(
                vector, dtype=np.float64
            ).tobytes()
