"""Each execute unit is one memoised stacked batch, shipped with endpoint rows.

Deterministic gates (no timing): a range-policy flush on the process
backend ships a small fraction of what member-by-member CSR payloads cost,
and a warm flush neither re-stacks its units' members nor re-hashes a
stacked matrix.  A lone member is its own batch and never enters the memo.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.pipeline as pipeline_module
from repro.core import Database, Domain
from repro.core.workload import Workload
from repro.engine import PrivateQueryEngine
from repro.policy import PolicyGraph

COMPONENTS = 4
BATCH = 8

#: Steady-state bytes per dispatch that
#: ``test_range_flush_ships_a_fiftieth_of_member_csr_payloads`` measured
#: when a unit shipped its member workloads as a list of CSR matrices.
MEMBER_CSR_BYTES_PER_DISPATCH = 541_640


def segments(cells: int) -> PolicyGraph:
    """A line policy over each of ``COMPONENTS`` equal segments."""
    domain = Domain((cells,))
    length = cells // COMPONENTS
    edges = [
        (cell, cell + 1)
        for start in range(0, cells, length)
        for cell in range(start, start + length - 1)
    ]
    return PolicyGraph(domain, edges, name="segments")


def range_pool(cells: int, size: int, seed: int = 1):
    """``size`` workloads of 8 random ranges in every segment (32 rows)."""
    domain = Domain((cells,))
    length = cells // COMPONENTS
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(size):
        matrix = np.zeros((8 * COMPONENTS, cells))
        for component in range(COMPONENTS):
            ends = np.sort(rng.integers(0, length, size=(8, 2)), axis=1)
            for row, (lo, hi) in enumerate(ends):
                start = component * length
                matrix[component * 8 + row, start + lo : start + hi + 1] = 1.0
        pool.append(Workload(domain, matrix))
    return pool


def make_engine(cells: int, **kwargs) -> PrivateQueryEngine:
    counts = np.random.default_rng(3).poisson(5.0, size=cells).astype(float)
    policy = segments(cells)
    return PrivateQueryEngine(
        Database(policy.domain, counts),
        total_epsilon=1e6,
        default_policy=policy,
        prefer_data_dependent=False,
        enable_answer_cache=False,
        random_state=5,
        **kwargs,
    )


def flusher(engine: PrivateQueryEngine, pool):
    """Flush the next ``BATCH`` pool workloads, cycling through the pool."""
    engine.open_session("client", 1e5)
    cursor = iter(range(10**9))

    def flush():
        tickets = [
            engine.submit("client", pool[next(cursor) % len(pool)], 0.5)
            for _ in range(BATCH)
        ]
        engine.flush()
        for ticket in tickets:
            assert ticket.status == "answered", ticket.error

    return flush


def steady_bytes_per_dispatch(engine, flush, window=4, max_windows=12):
    """Bytes per dispatch over a window of flushes that moves no blob.

    Which worker takes a dispatch is up to the pool, so a worker may still
    miss a plan or database blob a few flushes in (and the next dispatch
    re-ships it).  A window counts once it and the window before it saw no
    miss: by then every blob sits on every worker and nothing but payloads
    crosses the pipe.
    """
    quiet = False
    for _ in range(max_windows):
        before = engine.stats
        for _ in range(window):
            flush()
        after = engine.stats
        missed = after.blob_cache_misses != before.blob_cache_misses
        if quiet and not missed:
            dispatches = after.worker_dispatches - before.worker_dispatches
            assert dispatches == 2 * window  # 4 shard units fused onto 2 workers
            return (after.bytes_shipped - before.bytes_shipped) / dispatches
        quiet = not missed
    pytest.fail("workers kept missing blobs; no steady state reached")


def test_range_flush_ships_a_fiftieth_of_member_csr_payloads():
    pool = range_pool(4 * 1024, size=16)
    with make_engine(
        4 * 1024, execute_backend="process", execute_workers=2
    ) as engine:
        steady = steady_bytes_per_dispatch(engine, flusher(engine, pool))
    assert steady * 50 < MEMBER_CSR_BYTES_PER_DISPATCH


def test_warm_sharded_flushes_never_restack_or_rehash(monkeypatch):
    stacks = []
    real_stack = pipeline_module.stack_workloads

    def counting_stack(workloads):
        stacked, slices = real_stack(workloads)
        stacks.append(stacked)
        return stacked, slices

    hashed = []
    real_signature = Workload.signature

    def counting_signature(self):
        if "_signature" not in self.__dict__:
            hashed.append(self)
        return real_signature(self)

    monkeypatch.setattr(pipeline_module, "stack_workloads", counting_stack)
    monkeypatch.setattr(Workload, "signature", counting_signature)
    pool = range_pool(4 * 64, size=BATCH)
    with make_engine(4 * 64) as engine:
        flush = flusher(engine, pool)
        for _ in range(21):  # one cold flush, then 20 warm repeats
            flush()
        assert engine.stats.sharded_batches == 21
    assert len(stacks) == COMPONENTS  # one stack per shard, in total
    rehashed = [w for w in hashed if any(w is stacked for stacked in stacks)]
    assert len(rehashed) == COMPONENTS  # each stacked batch hashed once, cold


def test_flushes_of_lone_workloads_leave_the_stack_memo_empty():
    pool = range_pool(4 * 64, size=3)
    with make_engine(4 * 64) as engine:
        engine.open_session("client", 1e5)
        for workload in pool:  # one ticket per flush: one member per shard unit
            ticket = engine.submit("client", workload, 0.5)
            engine.flush()
            assert ticket.status == "answered", ticket.error
        assert engine.stats.sharded_batches == len(pool)
        assert len(engine._pipeline._stacked_batches) == 0
