#!/usr/bin/env python3
"""Serving demo: sessions, cached plans, the staged pipeline, and sharding.

The :class:`repro.engine.PrivateQueryEngine` turns the paper's one-shot
mechanisms into a multi-client service.  This demo shows the pieces working
together:

1. the engine holds the private database and a global privacy budget;
2. two clients open sessions, each reserving an epsilon allotment;
3. their queries are *batched* into one vectorised mechanism invocation and
   both ride the same cached plan (one planning miss, then hits only);
4. a re-asked query is replayed from the noisy-answer cache at **zero**
   additional budget, and all paid-for answers are least-squares-consolidated
   for consistency — also free;
5. every flush runs the staged **plan → charge → execute → resolve**
   pipeline: planning is lock-free, budget charges hold only the narrowed
   accountant lock, mechanism execution holds no lock, and resolution briefly
   takes the stats/cache locks — so concurrent clients overlap instead of
   queueing behind one engine-wide lock.  A
   :class:`repro.engine.BatchingExecutor` accumulates cross-thread
   submissions and auto-flushes on a deadline/size trigger, which is what
   makes the batching win materialise under real concurrent load;
6. a policy whose graph splits into several connected components is served
   **scatter/gather** over per-component domain shards.  By the paper's
   parallel-composition rule this is exact: per-shard ε-mechanisms act on
   disjoint record sets, so the sharded release costs the same ε the
   unsharded path would charge — byte-identical accounting.  The discount
   for client-declared partitions follows the same rule: it needs the
   release to be a function of the partition, which holds for
   data-independent plans unsharded and for *any* plan sharded;
7. with ``execute_workers=`` the execute stage runs on **worker
   processes** (``execute_backend="process"``, the default) — the only way
   past the GIL for the scipy-sparse mechanism kernels.  Steady-state
   dispatches ship content digests instead of plan/database pickles, and
   a flush holding more work units than workers fuses compatible units
   into one dispatch per worker.  ε ledgers never depend on the backend,
   and seeded draws follow one documented derivation on every backend, so
   a seeded engine answers the same inline, on any worker count, and after
   ``close``;
8. the plan store persists: ``engine.save_plans(path)`` writes the
   engine's one plan cache (shard plans included, keyed by sub-policy, so
   identical components share one plan) to disk, and a relaunched server that
   ``load_plans(path)`` serves the same workload with **zero** cold plans —
   ``plan_cache_hit_rate == 1.0``;
9. plans are cheap to *have* as well as to find: every Gram factorisation,
   strategy pseudo-inverse and transformed-workload product lives in a
   process-wide content-digest-keyed
   :class:`repro.engine.FactorisationStore`, so ten plans over one policy
   pay for one factorisation — the hit rate climbs with every plan that
   shares policy content, and ``engine.stats`` exposes the counters;
10. the **flight recorder**: an :class:`repro.engine.Observability` hub gives
   every flush a trace (one span per pipeline stage, one per execute unit,
   and — on the process backend — per-unit worker spans measured *inside*
   the worker and shipped back with the answers), feeds a metrics registry
   with counters and latency percentiles exportable as Prometheus text, and
   streams every ε mutation (charges, rollbacks, refusals, scope opens and
   closes, top-ups) to a durable JSONL audit log whose records carry the
   trace/ticket/client ids that caused them.  All of it is off by default
   and costs one branch per hook when disabled;
11. the **durable state tier**: with ``durable_ledger=`` every ε charge is
   journalled write-ahead to SQLite *before* its mechanism runs, so a
   ``kill -9``'d server that relaunches recovers its sessions' spent
   budget and refuses queries the crash tried to make affordable again —
   and ``snapshot_dir=`` adds a background snapshotter that persists warm
   plans and cached answers crash-consistently alongside it;
12. the **network serving tier**: an asyncio front-end
   (:class:`repro.engine.serving.AsyncQueryEngine`) makes tickets
   awaitable — pending clients cost a suspended coroutine each, not a
   parked OS thread — and a stdlib HTTP server
   (:class:`repro.engine.serving.ServingServer`) exposes client
   registration, query submit/poll, budget introspection and Prometheus
   ``/metrics`` over the wire.  Flushes still run the same staged
   pipeline, so the HTTP path's draws and ε ledgers stay byte-identical
   to a direct ``flush()``.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import json
import os
import tempfile
import threading

import numpy as np

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    total_workload,
)
from repro.core.workload import Workload
from repro.engine import (
    BatchingExecutor,
    FactorisationStore,
    Observability,
    PrivateQueryEngine,
    set_store,
)
from repro.exceptions import PrivacyBudgetError
from repro.policy import PolicyGraph, line_policy


def main() -> None:
    rng = np.random.default_rng(0)

    # The trusted curator's data: a histogram of 256 binned salaries.
    domain = Domain((256,))
    counts = np.zeros(domain.size)
    counts[rng.integers(20, 230, size=40)] = rng.integers(1, 200, size=40)
    database = Database(domain, counts, name="salaries")

    # One engine serves every client, under the line policy (adjacent salary
    # bins indistinguishable) and a global budget of epsilon = 4.
    engine = PrivateQueryEngine(
        database,
        total_epsilon=4.0,
        default_policy=line_policy(domain),
        random_state=7,
    )

    # Two clients, each with their own allotment reserved from the global pot.
    alice = engine.open_session("alice", epsilon_allotment=1.0)
    bob = engine.open_session("bob", epsilon_allotment=0.5)
    print(f"global budget after reservations: spent={engine.accountant.spent():.2f}")

    # Their first queries are submitted together, grouped into ONE mechanism
    # invocation, and both planned exactly once (the plan cache is shared).
    ticket_alice = engine.submit("alice", identity_workload(domain), epsilon=0.25)
    ticket_bob = engine.submit("bob", cumulative_workload(domain), epsilon=0.25)
    engine.flush()
    stats = engine.stats
    print(
        f"first flush: {stats.queries_answered} answered in "
        f"{stats.mechanism_invocations} mechanism invocation(s); "
        f"plan cache misses={stats.plan_misses} hits={stats.plan_hits}"
    )
    print(f"  alice histogram head: {np.round(ticket_alice.result()[:5], 2)}")
    print(f"  bob prefix-sums head: {np.round(ticket_bob.result()[:5], 2)}")

    # Bob re-asks alice's query: same policy, workload and epsilon, so it is
    # replayed from the noisy-answer cache — zero budget for bob.
    replay = engine.ask("bob", identity_workload(domain), epsilon=0.25)
    assert np.array_equal(replay, ticket_alice.result())
    print(f"bob replayed alice's histogram for free: spent={bob.spent():.2f}")

    # Alice also buys the grand total; consolidation then reconciles every
    # cached answer by least squares (post-processing, no budget).
    engine.ask("alice", total_workload(domain), epsilon=0.25)
    updated = engine.consolidate()
    histogram = engine.ask("alice", identity_workload(domain), epsilon=0.25)
    total = engine.ask("alice", total_workload(domain), epsilon=0.25)
    print(
        f"consolidated {updated} cached answers; histogram sum "
        f"{histogram.sum():.2f} vs total query {total[0]:.2f} (consistent)"
    )

    # Budgets are hard limits: an exhausted session is refused with a clear
    # error, while other clients keep being served.
    try:
        engine.ask("bob", cumulative_workload(domain), epsilon=0.5)
    except PrivacyBudgetError as error:
        print(f"bob refused: {error}")
    print(f"alice remaining={alice.remaining():.2f}, bob remaining={bob.remaining():.2f}")

    final = engine.stats
    print(
        f"final: submitted={final.queries_submitted} answered={final.queries_answered} "
        f"refused={final.queries_refused} replays={final.answer_cache_replays} "
        f"plan hit-rate={engine.plan_cache.stats.hit_rate:.0%}"
    )
    stage = final.stage_seconds
    print(
        "pipeline stage totals: "
        + " ".join(f"{name}={seconds * 1e3:.1f}ms" for name, seconds in stage.items())
    )

    consolidate_and_top_up_demo(database, domain)
    concurrent_demo(database, domain)
    sharded_demo()
    multicore_demo(database, domain)
    warm_restart_demo(database, domain)
    factorisation_demo(database, domain)
    observability_demo(database, domain)
    durability_demo(database, domain)
    http_serving_demo(database, domain)
    overload_demo(database, domain)


def consolidate_and_top_up_demo(database: Database, domain: Domain) -> None:
    """Draw-aware consolidation, then spend-a-little-more top-ups.

    Batch-mates of one flush share a mechanism noise draw, and the cache
    records exactly that (draw ids + honest per-row noise models), so
    ``consolidate()`` solves a *generalised* least squares instead of
    pretending the measurements are independent.  ``top_up`` then buys a
    fresh measurement of an already-cached workload and GLS-combines it,
    charging only the increment.
    """
    print("\n-- draw-aware consolidation + top-ups --")
    engine = PrivateQueryEngine(
        database,
        total_epsilon=16.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,  # Laplace route: exact linear noise models
        consistency=False,
        random_state=19,
    )
    analyst = engine.open_session("analyst", epsilon_allotment=8.0)

    # One flush, one invocation: the histogram and the prefix sums share a
    # noise draw, and their cached measurements say so.
    engine.submit("analyst", identity_workload(domain), epsilon=0.5)
    engine.submit("analyst", cumulative_workload(domain), epsilon=0.5)
    engine.flush()
    grouped = engine.answer_cache.entries_by_draw(line_policy(domain))
    correlated = {draw: len(keys) for draw, keys in grouped.items() if len(keys) > 1}
    print(f"correlated measurement groups by draw id: {correlated}")

    # A later, sharper independent measurement joins the cache...
    engine.ask("analyst", identity_workload(domain), epsilon=1.0)
    # ...and consolidation reconciles ALL of it by generalised least squares
    # over the draw covariance structure — free post-processing, and the
    # correlated batch-mates are not double-counted.
    spent_before = analyst.spent()
    updated = engine.consolidate()
    print(
        f"GLS-consolidated {updated} cached answers at zero cost "
        f"(spent {spent_before:.2f} before and {analyst.spent():.2f} after)"
    )

    # The prefix sums look worth more budget: top it up by epsilon = 0.25.
    # Only the increment is charged; the fresh draw is GLS-combined with the
    # cached measurement and replays serve the sharpened vector for free.
    before = analyst.spent()
    engine.top_up("analyst", cumulative_workload(domain), extra_epsilon=0.25)
    entry = engine.answer_cache.find(
        line_policy(domain), cumulative_workload(domain)
    )[0]
    print(
        f"top-up charged {analyst.spent() - before:.2f} (the increment alone); "
        f"the entry now blends {len(entry.measurements)} measurements worth "
        f"epsilon={entry.total_epsilon:.2f} in total"
    )
    replay = engine.ask("analyst", cumulative_workload(domain), epsilon=0.5)
    assert np.array_equal(replay, entry.answers)
    print(f"replays stay free and serve the upgraded vector: spent={analyst.spent():.2f}")


def concurrent_demo(database: Database, domain: Domain) -> None:
    """Four threads asking through the deadline/size-batched front-end.

    Their submissions accumulate into shared flushes: the engine answers
    many queries per vectorised mechanism invocation even though every
    client is a plain blocking caller on its own thread.
    """
    print("\n-- concurrent front-end --")
    engine = PrivateQueryEngine(
        database,
        total_epsilon=8.0,
        default_policy=line_policy(domain),
        enable_answer_cache=False,  # every ask is an independent paid draw
        prefer_data_dependent=False,
        consistency=False,
        random_state=13,
    )
    num_clients, asks_each = 4, 5
    for index in range(num_clients):
        engine.open_session(f"worker{index}", 1.0)

    def client(executor: BatchingExecutor, index: int) -> None:
        for round_index in range(asks_each):
            row = np.zeros((1, domain.size))
            row[0, (7 * index + round_index) % domain.size] = 1.0
            executor.ask(
                f"worker{index}",
                Workload(domain, row, name=f"w{index}r{round_index}"),
                epsilon=0.05,
                timeout=30.0,
            )

    with BatchingExecutor(engine, max_batch_size=num_clients, max_delay=0.01) as pool:
        threads = [
            threading.Thread(target=client, args=(pool, index))
            for index in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    stats = engine.stats
    print(
        f"{stats.queries_answered} queries from {num_clients} threads answered by "
        f"{stats.mechanism_invocations} mechanism invocation(s) across "
        f"{stats.flushes} flush(es) — batching survived concurrency"
    )


def sharded_demo() -> None:
    """Scatter/gather over a two-component policy, at unchanged ε cost.

    Salaries of two departments are protected by per-department line
    policies with no edges between departments: department membership is
    disclosed, so the engine serves each component as its own domain shard.
    One query per department costs max(ε_left, ε_right) — not the sum —
    because the shards' records are disjoint (parallel composition).
    """
    print("\n-- sharded scatter/gather --")
    rng = np.random.default_rng(2)
    domain = Domain((128,))
    counts = np.zeros(domain.size)
    counts[rng.integers(0, 128, size=30)] = rng.integers(1, 60, size=30)
    database = Database(domain, counts, name="two-departments")
    half = domain.size // 2
    policy = PolicyGraph(
        domain,
        edges=[(i, i + 1) for i in range(half - 1)]
        + [(i, i + 1) for i in range(half, domain.size - 1)],
        name="per-department-lines",
    )
    engine = PrivateQueryEngine(
        database,
        total_epsilon=4.0,
        default_policy=policy,
        prefer_data_dependent=False,
        consistency=False,
        random_state=21,
    )
    session = engine.open_session("analyst", 1.0)
    print(f"policy splits into {engine.shard_count()} domain shards")

    left = Workload(
        domain, np.hstack([np.eye(half), np.zeros((half, half))]), name="dept-A"
    )
    right = Workload(
        domain, np.hstack([np.zeros((half, half)), np.eye(half)]), name="dept-B"
    )
    # Declared disjoint partitions: parallel composition charges the max.
    engine.submit("analyst", left, epsilon=0.6, partition=range(half))
    engine.submit("analyst", right, epsilon=0.6, partition=range(half, domain.size))
    engine.flush()
    stats = engine.stats
    print(
        f"two per-department histograms served by {stats.mechanism_invocations} "
        f"per-shard invocation(s) in {stats.sharded_batches} sharded batch(es); "
        f"session spent {session.spent():.2f} of 1.00 (max, not sum — "
        "parallel composition)"
    )


def multicore_demo(database: Database, domain: Domain) -> None:
    """The execute stage on worker processes, with reproducible draws.

    The same seeded stream served inline and on process pools of 2 and 3
    workers: the pools deal every work unit its RNG child before dispatch,
    so their answers match bit for bit whatever the worker count, and the
    ε ledgers match on every backend.
    """
    print("\n-- process-parallel execute stage --")

    def serve(backend: str, workers: int):
        engine = PrivateQueryEngine(
            database,
            total_epsilon=8.0,
            default_policy=line_policy(domain),
            prefer_data_dependent=False,
            consistency=False,
            enable_answer_cache=False,
            random_state=29,
            execute_workers=workers,
            execute_backend=backend,
        )
        with engine:
            session = engine.open_session("analyst", 2.0)
            tickets = [
                engine.submit(
                    "analyst", cumulative_workload(domain), epsilon=0.4 / (1 << i)
                )
                for i in range(3)
            ]
            engine.flush()
            stats = engine.stats
            ledger = [(op.label, op.epsilon) for op in session.accountant.operations]
        return [t.result() for t in tickets], stats, ledger

    _, inline_stats, inline_ledger = serve("inline", 1)
    two_answers, two_stats, two_ledger = serve("process", 2)
    three_answers, _, three_ledger = serve("process", 3)
    identical = all(
        np.array_equal(a, b) for a, b in zip(two_answers, three_answers)
    )
    print(
        f"inline: {inline_stats.worker_dispatches} dispatches; "
        f"process backend: {two_stats.worker_dispatches} dispatches, "
        f"{two_stats.serialization_seconds * 1e3:.1f}ms serialisation overhead, "
        f"{two_stats.bytes_shipped} bytes over the pipe"
    )
    print(f"same seed, 2 vs 3 workers: answers bit-identical = {identical}")
    print(
        "epsilon ledgers identical inline and pooled = "
        f"{inline_ledger == two_ledger == three_ledger}"
    )


def warm_restart_demo(database: Database, domain: Domain) -> None:
    """Persist the plan store, relaunch, serve with zero cold plans."""
    print("\n-- warm restart from a persisted plan store --")

    def build_engine() -> PrivateQueryEngine:
        return PrivateQueryEngine(
            database,
            total_epsilon=8.0,
            default_policy=line_policy(domain),
            random_state=31,
            enable_answer_cache=False,
        )

    first_lifetime = build_engine()
    first_lifetime.open_session("analyst", 2.0)
    for epsilon in (0.25, 0.125):
        first_lifetime.ask("analyst", cumulative_workload(domain), epsilon=epsilon)
    print(
        f"first lifetime planned cold: {first_lifetime.stats.plan_misses} misses"
    )
    with tempfile.TemporaryDirectory() as tmp_dir:
        store_path = os.path.join(tmp_dir, "plan_store.pkl")
        saved = first_lifetime.save_plans(store_path)
        print(f"saved {saved} plans to {os.path.basename(store_path)}")

        # "Relaunch": a fresh engine (fresh caches — in production a fresh
        # process, as exercised by tests/engine/test_plan_persistence.py)
        # loads the store instead of re-planning.
        relaunched = build_engine()
        loaded = relaunched.load_plans(store_path)
        relaunched.open_session("analyst", 2.0)
        for epsilon in (0.25, 0.125):
            relaunched.ask("analyst", cumulative_workload(domain), epsilon=epsilon)
        stats = relaunched.stats
        print(
            f"relaunched engine loaded {loaded} plans and served with "
            f"{stats.plan_misses} cold plans — "
            f"plan_cache_hit_rate={stats.plan_cache_hit_rate:.0%}"
        )


def factorisation_demo(database: Database, domain: Domain) -> None:
    """The shared factorisation store: N plans, one Gram factorisation.

    Plans at different ε values over the same policy share its content: the
    Gram matrix they factorise, the strategy they pseudo-invert, the
    workload products they transform.  The process-wide store keys all of
    it by content digest, so only the first plan pays — watch the hit rate
    climb as each additional ε value rides the resident entries.
    """
    print("\n-- shared factorisation store --")
    # A fresh store so the counters below start from zero (the default is
    # one process-wide store shared by every engine and worker).
    previous = set_store(FactorisationStore())
    try:
        engine = PrivateQueryEngine(
            database,
            total_epsilon=8.0,
            default_policy=line_policy(domain),
            enable_answer_cache=False,
            random_state=41,
        )
        engine.open_session("analyst", 4.0)
        for epsilon in (0.5, 0.25, 0.125, 0.0625):
            engine.ask("analyst", identity_workload(domain), epsilon=epsilon)
            stats = engine.stats
            print(
                f"  plan at epsilon={epsilon}: {stats.factorisation_entries} "
                f"stored factorisation(s), hit rate "
                f"{stats.factorisation_hit_rate:.0%}"
            )
        final = engine.stats
        print(
            f"{final.factorisation_misses} build(s) "
            f"({final.factorisation_build_seconds * 1e3:.1f}ms of linear "
            f"algebra) served {final.factorisation_hits} shared lookups "
            "across four plans — every ε value after the first rode the "
            "first plan's factorisations"
        )
    finally:
        set_store(previous)


def observability_demo(database: Database, domain: Domain) -> None:
    """The flight recorder: flush traces, metric percentiles, the ε audit.

    One hub wires all three consumers: each flush (a top-up is one) gets a
    trace whose spans cross the process boundary — the worker measures its
    own span and ships it back with the answers — the registry accumulates
    engine counters and latency histograms behind the same ``stats`` the
    engine always had, and the audit log records every ε mutation as one
    JSONL line stamped with the trace/ticket/client ids that caused it.
    """
    print("\n-- flight-recorder observability --")
    with tempfile.TemporaryDirectory() as tmp_dir:
        audit_path = os.path.join(tmp_dir, "epsilon_audit.jsonl")
        observability = Observability(enabled=True, audit_path=audit_path)
        engine = PrivateQueryEngine(
            database,
            total_epsilon=8.0,
            default_policy=line_policy(domain),
            prefer_data_dependent=False,
            consistency=False,
            random_state=37,
            observability=observability,
            execute_workers=2,
            execute_backend="process",
        )
        with engine:
            engine.open_session("alice", epsilon_allotment=2.0)
            engine.open_session("bob", epsilon_allotment=0.25)
            # One traced flush on the process backend: worker spans included.
            engine.submit("alice", identity_workload(domain), epsilon=0.5)
            engine.submit("alice", cumulative_workload(domain), epsilon=0.25)
            engine.flush()
            trace = observability.tracer.last()
            print(trace.waterfall())
            workers = trace.find("worker")
            print(
                f"  {len(trace.find('unit'))} execute unit(s); worker spans "
                f"measured in pid(s) {sorted({s.attributes['pid'] for s in workers})} "
                f"(this process is {os.getpid()})"
            )

            # A top-up is a flush of its own ticket, traced like any other;
            # a refusal still hits the audit.
            engine.top_up("alice", identity_workload(domain), extra_epsilon=0.125)
            try:
                engine.ask("bob", cumulative_workload(domain), epsilon=1.0)
            except PrivacyBudgetError:
                pass

            # The registry speaks Prometheus; stats is now a snapshot of it.
            stats = engine.stats
            exported = observability.metrics.to_prometheus_text()
            excerpt = [
                line
                for line in exported.splitlines()
                if line.startswith(("engine_queries", "engine_flush_latency_seconds_count"))
            ]
            print("  metrics excerpt:\n    " + "\n    ".join(excerpt))
            quantiles = engine._h_flush.percentiles()
            print(
                f"  flush latency p50={quantiles['p50'] * 1e3:.2f}ms "
                f"p99={quantiles['p99'] * 1e3:.2f}ms over {stats.flushes} flushes"
            )

        # The audit stream survives the engine: every ε mutation, one line.
        with open(audit_path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        print(f"  durable ε-audit ({len(records)} events): " + ", ".join(
            record["event"] for record in records
        ))
        charge = next(r for r in records if r["event"] == "charge" and "ticket_id" in r)
        print(
            f"  e.g. {charge['event']} of epsilon={charge['epsilon']} for "
            f"{charge['client_id']} ({charge['ticket_id']}) in {charge['trace_id']}"
        )
        refusal = next(r for r in records if r["event"] == "refusal")
        print(
            f"  and the refusal: client={refusal['client_id']} wanted "
            f"epsilon={refusal['epsilon']} — {refusal['error'][:60]}..."
        )


#: The crash half of ``durability_demo``: a child process that charges ε
#: against a durable ledger and then SIGKILLs itself mid-service.  Run in a
#: subprocess because ``kill -9`` is the point — no atexit, no flush, no
#: graceful anything.
_DURABILITY_CHILD = """
import os
import signal
import sys

import numpy as np

from repro.core import Database, Domain, identity_workload
from repro.engine import PrivateQueryEngine
from repro.policy import line_policy

ledger_path = sys.argv[1]
rng = np.random.default_rng(0)
domain = Domain((256,))
counts = np.zeros(domain.size)
counts[rng.integers(20, 230, size=40)] = rng.integers(1, 200, size=40)
database = Database(domain, counts, name="salaries")
engine = PrivateQueryEngine(
    database,
    total_epsilon=4.0,
    default_policy=line_policy(domain),
    random_state=7,
    durable_ledger=ledger_path,
)
engine.open_session("alice", epsilon_allotment=1.0)
engine.ask("alice", identity_workload(domain), epsilon=0.75)
print("child: charged epsilon=0.75 for alice, now dying uncleanly", flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def durability_demo(database: Database, domain: Domain) -> None:
    """Crash recovery: charge ε, ``kill -9``, relaunch, get refused.

    Without a durable ledger a crashed server forgets every ε it charged —
    a *privacy* bug, not an ops gap: clients could drain the same budget
    again after every restart.  With ``durable_ledger=`` every charge is
    journalled to SQLite (WAL, synchronous=NORMAL) *before* the mechanism
    runs, so the relaunched engine recovers the spent budget and keeps
    enforcing it.
    """
    import subprocess
    import sys

    print("\n-- durable ε-ledger crash recovery --")
    with tempfile.TemporaryDirectory() as tmp_dir:
        ledger_path = os.path.join(tmp_dir, "epsilon_ledger.db")
        script = os.path.join(tmp_dir, "crash_child.py")
        with open(script, "w", encoding="utf-8") as handle:
            handle.write(_DURABILITY_CHILD)

        # Act 1: a server charges against the durable ledger and dies hard.
        result = subprocess.run(
            [sys.executable, script, ledger_path], env=dict(os.environ)
        )
        print(f"  child exited with {result.returncode} (SIGKILL — no cleanup ran)")

        # Act 2: the relaunch recovers what the dead server spent...
        engine = PrivateQueryEngine(
            database,
            total_epsilon=4.0,
            default_policy=line_policy(domain),
            random_state=7,
            durable_ledger=ledger_path,
        )
        with engine:
            alice = engine.session("alice")
            print(
                f"  relaunched: alice recovered={alice.recovered} "
                f"spent={alice.spent():.2f} remaining={alice.remaining():.2f}"
            )
            # ...and enforces it: the budget the crash tried to erase is gone.
            try:
                engine.ask("alice", identity_workload(domain), epsilon=0.5)
            except PrivacyBudgetError as error:
                print(f"  over-budget retry refused: {error}")
            answers = engine.ask("alice", identity_workload(domain), epsilon=0.25)
            print(
                f"  affordable query still served ({answers.shape[0]} rows); "
                f"alice remaining={alice.remaining():.2f}"
            )


def http_serving_demo(database: Database, domain: Domain) -> None:
    """The network serving tier: register, submit, poll — over real HTTP.

    One event loop serves every client: submissions become awaitable
    tickets (a suspended coroutine per pending query, not a parked
    thread), the deadline flusher is a ``loop.call_later`` timer, and the
    blocking ``flush`` runs on a single dedicated flusher thread.  The
    walkthrough drives the full lifecycle a network client sees:

    1. boot a :class:`repro.engine.serving.ServingServer` on an ephemeral
       port;
    2. ``POST /api/clients`` — open a budgeted session (the response is
       the budget snapshot also served at ``GET /api/clients/{id}/budget``);
    3. ``POST /api/queries`` with ``wait=true`` — submit and await the
       noisy histogram inline;
    4. ``POST`` without ``wait`` then ``GET /api/queries/{id}`` — the
       202-accepted-then-poll flow, resolved here by the deadline flush;
    5. ``GET /metrics`` — the same engine counters, as Prometheus text.

    See ``docs/serving_http_api.md`` for the full endpoint reference.
    """
    import asyncio

    from repro.engine import Observability
    from repro.engine.serving import ServingServer, create_app

    print("\n-- HTTP serving tier --")
    engine = PrivateQueryEngine(
        database,
        total_epsilon=8.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        random_state=47,
        observability=Observability(enabled=True),
    )

    async def wire_client(host: str, port: int, method: str, path: str, body=None):
        """A minimal raw HTTP/1.1 client (what any real client would send)."""
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status = int(raw.split(b" ", 2)[1])
        head, _, body_bytes = raw.partition(b"\r\n\r\n")
        if b"application/json" in head:
            return status, json.loads(body_bytes)
        return status, body_bytes.decode()

    async def walkthrough() -> None:
        app = create_app(engine, max_batch_size=32, max_delay=0.01)
        async with ServingServer(app) as server:
            host, port = server.host, server.port
            print(f"  server up on http://{host}:{port} (ephemeral port)")

            status, snapshot = await wire_client(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 1.0},
            )
            print(
                f"  registered alice ({status}): allotment="
                f"{snapshot['allotment']} remaining={snapshot['remaining']}"
            )

            status, answered = await wire_client(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "identity"},
                    "epsilon": 0.25,
                    "wait": True,
                    "timeout": 10,
                },
            )
            print(
                f"  wait=true submit ({status}): ticket "
                f"{answered['ticket_id']} {answered['status']}, histogram "
                f"head {[round(v, 2) for v in answered['answers'][:4]]}"
            )

            status, accepted = await wire_client(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "total"},
                    "epsilon": 0.25,
                },
            )
            print(
                f"  fire-and-poll submit ({status}): ticket "
                f"{accepted['ticket_id']} {accepted['status']}"
            )
            await asyncio.sleep(0.05)  # the deadline flush fires meanwhile
            status, polled = await wire_client(
                host, port, "GET", f"/api/queries/{accepted['ticket_id']}"
            )
            print(
                f"  poll ({status}): {polled['status']}, total = "
                f"{polled['answers'][0]:.2f}"
            )

            _, budget = await wire_client(
                host, port, "GET", "/api/clients/alice/budget"
            )
            print(
                f"  budget after two paid queries: spent={budget['spent']} "
                f"remaining={budget['remaining']}"
            )

            _, metrics_text = await wire_client(host, port, "GET", "/metrics")
            excerpt = [
                line
                for line in metrics_text.splitlines()
                if line.startswith("engine_queries_")
            ]
            print("  /metrics excerpt:\n    " + "\n    ".join(excerpt))

    asyncio.run(walkthrough())


def overload_demo(database: Database, domain: Domain) -> None:
    """Overload protection: shed-then-retry, deadlines, cancel, drain.

    Admission control runs *before* a submission reaches the engine, so a
    shed request is free — no ticket, no batch slot, no ε.  The walkthrough
    plays the abusive client and then the well-behaved one:

    1. a per-client token bucket sheds a burst with ``429`` and a
       ``Retry-After`` hint derived from observed flush latency;
    2. honouring the hint, the retry is admitted and answered — shedding
       cost the client nothing but the wait;
    3. ``X-Request-Deadline`` expires a query before its batch is charged:
       terminal ``expired`` status at zero ε;
    4. ``DELETE /api/queries/{id}`` cancels a pending ticket (first claim
       wins; never refunds ε already charged);
    5. ``aclose()`` drains: ``/ready`` flips to 503 while ``/health``
       stays 200, and late submits shed with ``reason: draining``.

    See the *Overload & retry semantics* section of
    ``docs/serving_http_api.md`` for the full contract.
    """
    import asyncio
    import time

    from repro.engine.serving import AdmissionController, ServingServer, create_app

    print("\n-- overload protection --")
    engine = PrivateQueryEngine(
        database,
        total_epsilon=8.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        random_state=53,
    )
    # A deliberately tight admission edge: 2 requests of burst per client,
    # refilling at 20/s (so the Retry-After hint is short).
    admission = AdmissionController(engine, client_rate=20.0, client_burst=2.0)

    async def call(host, port, method, path, body=None, headers=None):
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(body).encode() if body is not None else b""
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n{extra}"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status = int(raw.split(b" ", 2)[1])
        head, _, body_bytes = raw.partition(b"\r\n\r\n")
        response_headers = {}
        for line in head.decode().split("\r\n")[1:]:
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        parsed = (
            json.loads(body_bytes)
            if b"application/json" in head
            else body_bytes.decode()
        )
        return status, response_headers, parsed

    async def walkthrough() -> None:
        app = create_app(engine, max_batch_size=32, max_delay=0.01, admission=admission)
        async with ServingServer(app) as server:
            host, port = server.host, server.port
            await call(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 2.0},
            )
            submit = {
                "client_id": "alice",
                "workload": {"kind": "identity"},
                "epsilon": 0.05,
            }

            # 1. Burn the burst, then get shed.  The shed request costs
            # nothing: no ticket was created, no ε charged.
            statuses = []
            retry_after = None
            for _ in range(4):
                status, headers, payload = await call(
                    host, port, "POST", "/api/queries", submit
                )
                statuses.append(status)
                if status == 429:
                    retry_after = headers["retry-after"]
            _, _, budget = await call(host, port, "GET", "/api/clients/alice/budget")
            print(
                f"  burst of 4 submits → statuses {statuses}; shed responses "
                f"said Retry-After: {retry_after}s and never reached the "
                f"engine (spent={budget['spent']:.2f} — only admitted work "
                "can ever charge)"
            )

            # 2. The well-behaved retry: honour the hint, get admitted.
            await asyncio.sleep(float(retry_after))
            status, _, payload = await call(
                host, port, "POST", "/api/queries", {**submit, "wait": True}
            )
            print(
                f"  retried after the hint → {status}, ticket "
                f"{payload['ticket_id']} {payload['status']}"
            )

            # 3. A deadline already in the past: resolved expired at zero ε,
            # never queued, never charged.
            _, _, before = await call(host, port, "GET", "/api/clients/alice/budget")
            await asyncio.sleep(0.1)  # refill one token
            status, _, payload = await call(
                host,
                port,
                "POST",
                "/api/queries",
                submit,
                headers={"X-Request-Deadline": str(time.time() - 1.0)},
            )
            _, _, after = await call(host, port, "GET", "/api/clients/alice/budget")
            print(
                f"  born-dead deadline → {status}, status {payload['status']!r}, "
                f"spent unchanged at {after['spent']:.2f}"
            )

            # 4. Cancel a pending ticket before its batch flushes.
            await asyncio.sleep(0.1)  # refill one token
            status, _, pending = await call(
                host, port, "POST", "/api/queries", submit
            )
            status, _, cancelled = await call(
                host, port, "DELETE", f"/api/queries/{pending['ticket_id']}"
            )
            print(
                f"  DELETE pending ticket {pending['ticket_id']} → {status}, "
                f"status {cancelled['status']!r} (ε already charged is never "
                "refunded — this one had charged nothing)"
            )

            # 5. Drain: readiness flips, liveness stays, late submits shed.
            ready_before = (await call(host, port, "GET", "/ready"))[0]
            app.drain()
            ready_after = (await call(host, port, "GET", "/ready"))[0]
            health = (await call(host, port, "GET", "/health"))[0]
            status, _, shed = await call(host, port, "POST", "/api/queries", submit)
            print(
                f"  drain: /ready {ready_before}→{ready_after} while /health "
                f"stays {health}; late submit → {status} "
                f"(reason {shed['reason']!r})"
            )
        await app.aclose()
        engine.close()

    asyncio.run(walkthrough())


if __name__ == "__main__":
    main()
