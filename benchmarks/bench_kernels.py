"""Benchmark the kernel-speed pass: factorisation store + fused dispatches.

Runs as a plain script (``python benchmarks/bench_kernels.py``) and writes
``BENCH_kernels.json`` at the repository root.  Three experiments on a
16 384-cell domain (the ISSUE floor for this pass):

1. **Cross-plan factorisation reuse (timing gate).**  The 128×128 grid
   policy's Gram factorisation (SuperLU over ``P_G P_Gᵀ``) is resolved by a
   *fresh* :class:`~repro.policy.transform.PolicyTransform` twice: once
   against an empty store (cold — every plan used to pay this) and once
   against a store already holding the digest (warm — what every plan after
   the first pays now).  The acceptance bar is warm ≥ 5× faster than cold;
   measured margins are ~10×, so the gate is enforced by default
   (``BENCH_KERNELS_TIMING_GATE=0`` demotes it to a warning).

2. **Fused vs per-unit dispatch (self-arming timing gate).**  A 16-shard
   batch is flushed through a 2-worker process pool, which fuses the 16
   units into 2 dispatches, and through a 16-worker pool, where every unit
   is a dispatch of its own (the only way units go unfused: a pool fuses
   only when a flush holds more units than workers).  Fused execution must
   not lose (bar: ≥ 1.0× steady-state throughput, i.e. fusion pays for
   itself) **on hosts with ≥ 4 cores**; on fewer cores the report honestly
   records the measured ratio instead of pretending a parallel win on
   hardware that cannot show one.  The 16-worker arm spawns 16 worker
   processes (~80 MB each).

3. **Determinism (always enforced).**  The same seeded stream must produce
   byte-identical answers and ε ledgers with the store on vs off, on 2- and
   4-worker process pools (different fused chunks), and against an
   in-process recomputation that runs every unit alone under the pooled
   RNG derivation; the inline engine (its own derivation) must not change
   with the store either.  The store and fusion are *performance*
   artifacts; they must never touch draws or charges.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core import Database, Domain  # noqa: E402
from repro.core.workload import Workload  # noqa: E402
from repro.engine import PrivateQueryEngine, ShardSet  # noqa: E402
from repro.engine.factorisation import (  # noqa: E402
    FactorisationStore,
    get_store,
    set_store,
    set_store_enabled,
)
from repro.engine.parallel import run_unit  # noqa: E402
from repro.policy import PolicyGraph, grid_policy  # noqa: E402
from repro.policy.transform import PolicyTransform  # noqa: E402

GRID_SIDE = 128  # 128×128 = 16 384 cells
DOMAIN_SIZE = GRID_SIDE * GRID_SIDE
NUM_SHARDS = 16
QUERIES_PER_SHARD = 4
REUSE_REPS = 5
FUSION_ROUNDS = 6
WARM_ROUNDS = FUSION_ROUNDS // 2


# ---------------------------------------------------------------------------
# Experiment 1: cross-plan factorisation reuse.
# ---------------------------------------------------------------------------
def run_factorisation_reuse():
    domain = Domain((GRID_SIDE, GRID_SIDE))
    policy = grid_policy(domain)
    database = Database(
        domain,
        np.random.default_rng(7).integers(0, 50, DOMAIN_SIZE).astype(float),
        name="bench-kernels-grid",
    )

    store = FactorisationStore()
    previous = set_store(store)
    try:
        cold_walls = []
        for _ in range(REUSE_REPS):
            store.clear()
            transform = PolicyTransform(policy)
            started = time.perf_counter()
            transform.transform_database(database)
            cold_walls.append(time.perf_counter() - started)

        # One live anchor keeps the weakly-held entry resident, exactly like
        # a cached plan holding its handle between flushes.
        anchor = PolicyTransform(policy)
        anchor.transform_database(database)
        warm_walls = []
        for _ in range(REUSE_REPS):
            transform = PolicyTransform(policy)
            started = time.perf_counter()
            transform.transform_database(database)
            warm_walls.append(time.perf_counter() - started)
        stats = store.stats()
    finally:
        set_store(previous)

    cold = statistics.median(cold_walls)
    warm = statistics.median(warm_walls)
    return {
        "cells": DOMAIN_SIZE,
        "cold_resolve_seconds": cold_walls,
        "warm_resolve_seconds": warm_walls,
        "cold_median_seconds": cold,
        "warm_median_seconds": warm,
        "speedup_warm_vs_cold": cold / warm,
        "store_hits": stats.hits,
        "store_misses": stats.misses,
        "store_build_seconds": stats.build_seconds,
    }


# ---------------------------------------------------------------------------
# Experiment 2 + 3 fixture: a 16-shard batch over 16 384 cells.
# ---------------------------------------------------------------------------
def build_sharded_fixture():
    domain = Domain((DOMAIN_SIZE,))
    segment = DOMAIN_SIZE // NUM_SHARDS
    edges = []
    for shard in range(NUM_SHARDS):
        start = shard * segment
        edges.extend((i, i + 1) for i in range(start, start + segment - 1))
    policy = PolicyGraph(domain, edges, name=f"{NUM_SHARDS}-segments")
    database = Database(
        domain,
        np.random.default_rng(7).integers(0, 50, DOMAIN_SIZE).astype(float),
        name="bench-kernels-shards",
    )
    return domain, database, policy


def shard_workload(domain, seed: int) -> Workload:
    """Range queries confined per segment: scatters into one unit per shard."""
    segment = DOMAIN_SIZE // NUM_SHARDS
    rng = np.random.default_rng(seed)
    matrix = np.zeros((QUERIES_PER_SHARD * NUM_SHARDS, domain.size))
    row = 0
    for shard in range(NUM_SHARDS):
        base = shard * segment
        for _ in range(QUERIES_PER_SHARD):
            lo = int(rng.integers(0, segment - 1))
            hi = int(rng.integers(lo + 1, segment))
            matrix[row, base + lo : base + hi + 1] = 1.0
            row += 1
    return Workload(domain, matrix, name=f"shards{NUM_SHARDS}x{seed}")


def make_engine(database, policy, backend: str, workers):
    return PrivateQueryEngine(
        database,
        total_epsilon=1000.0,
        default_policy=policy,
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=0,
        execute_workers=workers,
        execute_backend=backend,
    )


def run_fusion_sweep_cell(workers: int):
    domain, database, policy = build_sharded_fixture()
    with make_engine(database, policy, "process", workers) as engine:
        engine.open_session("bench", 500.0)
        # Warm the shard plans so rounds measure execute, not planning.
        engine.ask("bench", shard_workload(domain, 999), 0.4)
        round_walls = []
        for round_index in range(FUSION_ROUNDS):
            engine.submit("bench", shard_workload(domain, round_index), 0.4)
            started = time.perf_counter()
            engine.flush()
            round_walls.append(time.perf_counter() - started)
        stats = engine.stats
    tail = round_walls[WARM_ROUNDS:]
    steady = sorted(tail)[len(tail) // 2]
    return {
        "workers": workers,
        "round_wall_seconds": round_walls,
        "steady_round_seconds": steady,
        "worker_dispatches": stats.worker_dispatches,
        "fused_units": stats.fused_units,
        "serialization_seconds": stats.serialization_seconds,
    }


# ---------------------------------------------------------------------------
# Experiment 3: determinism — store on/off, grouping, both backends.
# ---------------------------------------------------------------------------
STREAM_EPSILONS = (0.4, 0.2)


def serve_stream(backend: str, workers):
    domain, database, policy = build_sharded_fixture()
    with make_engine(database, policy, backend, workers) as engine:
        session = engine.open_session("bench", 500.0)
        tickets = [
            engine.submit("bench", shard_workload(domain, seed), epsilon)
            for seed, epsilon in enumerate(STREAM_EPSILONS)
        ]
        engine.flush()
        answers = [np.asarray(ticket.answers) for ticket in tickets]
        ledger = [
            (op.label, op.epsilon, op.partition)
            for op in session.accountant.operations
        ]
    return answers, ledger


def pooled_oracle():
    """``serve_stream``'s answers with every unit run alone, in process.

    The pooled derivation by hand: the engine's first flush stream spawns
    one child per batch (one batch per ε), and each child one grandchild
    per shard in sorted shard order.
    """
    domain, database, policy = build_sharded_fixture()
    shard_set = ShardSet.build(policy, database)
    flush_rng = np.random.default_rng(0).spawn(1)[0]
    answers = []
    children = flush_rng.spawn(len(STREAM_EPSILONS))
    for (seed, epsilon), child in zip(enumerate(STREAM_EPSILONS), children):
        scatter = shard_set.scatter(shard_workload(domain, seed))
        pieces = sorted(scatter.pieces, key=lambda piece: piece.shard.index)
        vectors = {}
        for piece, rng in zip(pieces, child.spawn(len(pieces))):
            plan = piece.shard.plan_cache.plan_for(
                piece.shard.policy,
                epsilon,
                prefer_data_dependent=False,
                consistency=False,
            )
            (vector,), _ = run_unit(
                plan, [piece.workload], piece.shard.database, rng, False
            )
            vectors[piece.shard.index] = vector
        answers.append(
            scatter.gather([vectors[piece.shard.index] for piece in scatter.pieces])
        )
    return answers


def run_determinism():
    reference_answers, reference_ledger = serve_stream("process", 2)

    def matches(answers, ledger=reference_ledger):
        return (
            all(np.array_equal(a, b) for a, b in zip(reference_answers, answers))
            and ledger == reference_ledger
        )

    results = {"units-alone-oracle": matches(pooled_oracle())}
    answers, ledger = serve_stream("process", 4)
    results["process-4-workers"] = matches(answers, ledger)

    get_store().clear()
    previous = set_store_enabled(False)
    try:
        answers, ledger = serve_stream("process", 2)
    finally:
        set_store_enabled(previous)
    results["store-disabled"] = matches(answers, ledger)

    # The inline engine is its own reference (it draws unsharded batches
    # from the flush stream itself, not from per-batch children): the
    # store must not change its draws either.
    inline_on, inline_ledger_on = serve_stream("inline", None)
    get_store().clear()
    previous = set_store_enabled(False)
    try:
        inline_off, inline_ledger_off = serve_stream("inline", None)
    finally:
        set_store_enabled(previous)
    results["inline-store-invariant"] = (
        all(np.array_equal(a, b) for a, b in zip(inline_on, inline_off))
        and inline_ledger_on == inline_ledger_off
        and inline_ledger_on == reference_ledger
    )
    return results


def main() -> int:
    cores = os.cpu_count() or 1
    reuse = run_factorisation_reuse()
    fused, per_unit = (
        run_fusion_sweep_cell(2),
        run_fusion_sweep_cell(NUM_SHARDS),
    )
    determinism = run_determinism()
    fused_speedup = per_unit["steady_round_seconds"] / fused["steady_round_seconds"]
    report = {
        "cpu_cores": cores,
        "cells": DOMAIN_SIZE,
        "shards": NUM_SHARDS,
        "factorisation_reuse": reuse,
        "fusion_sweep": [fused, per_unit],
        "speedup_fused_vs_per_unit_process": fused_speedup,
        "determinism": determinism,
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_kernels.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))

    timing_gate = os.environ.get("BENCH_KERNELS_TIMING_GATE", "1") != "0"
    ok = True
    reuse_speedup = reuse["speedup_warm_vs_cold"]
    if reuse_speedup < 5.0:
        print(
            f"{'FAIL' if timing_gate else 'WARN'}: warm factorisation resolve "
            f"is only {reuse_speedup:.2f}x the cold resolve at "
            f"{DOMAIN_SIZE} cells — below the 5x bar"
        )
        ok = ok and not timing_gate
    if cores >= 4:
        if fused_speedup < 1.0:
            print(
                f"{'FAIL' if timing_gate else 'WARN'}: fused dispatch is "
                f"{fused_speedup:.2f}x per-unit dispatch on the "
                f"{NUM_SHARDS}-shard batch — fusion must not lose"
            )
            ok = ok and not timing_gate
    else:
        print(
            f"INFO: {cores} core(s) available — the fused-dispatch gate needs "
            f">= 4; honest report: fused/unfused = {fused_speedup:.2f}x "
            f"({fused['worker_dispatches']} vs "
            f"{per_unit['worker_dispatches']} dispatches per serve)"
        )
    for name, identical in determinism.items():
        if not identical:
            print(f"FAIL: {name} run diverged from the reference draws/ledgers")
            ok = False
    if ok:
        print(
            f"OK: factorisation reuse {reuse_speedup:.1f}x warm-vs-cold at "
            f"{DOMAIN_SIZE} cells, fused/unfused {fused_speedup:.2f}x on "
            f"{NUM_SHARDS} shards ({cores} cores), draws and ledgers "
            "byte-identical across store settings, pool sizes and units run alone"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
