"""Benchmark the multi-core execute stage and warm-start plan persistence.

Runs as a plain script (``python benchmarks/bench_multicore.py``) and writes
``BENCH_multicore.json`` at the repository root.  Three experiments:

1. **Backend × workers × shards sweep.**  A fixed stream of ε-grouped
   workloads is flushed through the execute stage inline and on the process
   backend with 2 and 4 workers, for two shard layouts (connected 1-shard
   policy vs a 4-component sharded policy).  The headline,
   ``speedup_process_vs_inline_4_workers``, compares execute-stage
   throughput on the sharded fixture; the acceptance bar for this repository
   is ≥ 1.5× **on hosts with ≥ 4 cores** — on fewer cores the process
   backend has little to run in parallel on and the report honestly records
   the ratio plus its serialisation overhead instead of pretending a win.

2. **Backend equivalence (deterministic, always enforced).**  The same
   seeded stream is served by process pools of 2 and 4 workers (which cut
   the flush into different fused dispatches) and inline: the ε ledgers
   must match **byte for byte** across all three (charges never depend on
   the backend), and the two pools' noisy answers must be bit-identical
   (pooled engines deal every unit its RNG child before grouping; inline
   engines follow a different, documented derivation).

3. **Warm start (deterministic, always enforced).**  A cold engine plans,
   serves, and persists its plan store; a **fresh OS process** loads the
   store and serves the same workload — with ``plan_cache_hit_rate == 1.0``
   (zero cold plans) and identical answers for the identical seed.

The wall-clock gate can be demoted to a warning with
``BENCH_MULTICORE_TIMING_GATE=0``; the equivalence and warm-start gates are
deterministic and always enforced.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core import Database, Domain, random_range_queries_workload  # noqa: E402
from repro.engine import PrivateQueryEngine  # noqa: E402
from repro.policy import PolicyGraph, line_policy  # noqa: E402

DOMAIN_SIZE = 4096
GROUPS = 4  # distinct epsilons → one batch each per flush
QUERIES_PER_SEGMENT = 8
ROUNDS = 6
#: Rounds dropped from the steady-state statistic: early rounds absorb
#: worker-process boot (spawned workers import numpy/scipy once).
WARM_ROUNDS = ROUNDS // 2
WORKER_SWEEP = (2, 4)
EPSILONS = tuple(0.4 / (1 << index) for index in range(GROUPS))


def build_fixture(num_shards: int):
    domain = Domain((DOMAIN_SIZE,))
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 50, size=DOMAIN_SIZE).astype(float)
    database = Database(domain, counts, name=f"bench-multicore-{num_shards}")
    if num_shards == 1:
        return domain, database, line_policy(domain)
    segment = DOMAIN_SIZE // num_shards
    edges = []
    for shard in range(num_shards):
        start = shard * segment
        edges.extend(
            (i, i + 1) for i in range(start, start + segment - 1)
        )
    policy = PolicyGraph(domain, edges, name=f"{num_shards}-segments")
    return domain, database, policy


def segment_workload(domain, num_shards: int, seed: int):
    """Per-segment range queries: every segment contributes rows.

    Rows stay confined to one segment each, so a sharded policy scatters the
    workload into one piece **per shard** — a 4-shard batch becomes four
    independent work units, the parallelism the process backend feeds on.
    """
    segment = DOMAIN_SIZE // num_shards
    rng = np.random.default_rng(seed)
    matrix = np.zeros((QUERIES_PER_SEGMENT * num_shards, domain.size))
    row = 0
    for shard in range(num_shards):
        base = shard * segment
        for _ in range(QUERIES_PER_SEGMENT):
            lo = int(rng.integers(0, segment - 1))
            hi = int(rng.integers(lo + 1, segment))
            matrix[row, base + lo : base + hi + 1] = 1.0
            row += 1
    from repro.core.workload import Workload

    return Workload(domain, matrix, name=f"seg{num_shards}x{seed}")


def make_engine(database, policy, workers: int, backend: str):
    return PrivateQueryEngine(
        database,
        total_epsilon=1000.0,
        default_policy=policy,
        prefer_data_dependent=True,
        consistency=True,
        enable_answer_cache=False,
        random_state=0,
        execute_workers=workers if workers > 1 else None,
        execute_backend=backend,
    )


def run_sweep_cell(num_shards: int, workers: int, backend: str):
    domain, database, policy = build_fixture(num_shards)
    queries_per_round = GROUPS * QUERIES_PER_SEGMENT * num_shards
    with make_engine(database, policy, workers, backend) as engine:
        engine.open_session("bench", 500.0)
        # Warm every plan up front so the measurement is execute, not planning.
        for epsilon in EPSILONS:
            engine.ask("bench", segment_workload(domain, num_shards, 999), epsilon)
        round_walls = []
        for round_index in range(ROUNDS):
            for group, epsilon in enumerate(EPSILONS):
                engine.submit(
                    "bench",
                    segment_workload(
                        domain, num_shards, 100 * round_index + group
                    ),
                    epsilon,
                )
            started = time.perf_counter()
            engine.flush()
            round_walls.append(time.perf_counter() - started)
        stats = engine.stats
    # Steady state: the first rounds absorb one-off costs (spawned worker
    # processes import numpy/scipy, worker-side plan memos fill); the later
    # rounds measure the regime a long-running server lives in.
    steady = sorted(round_walls[WARM_ROUNDS:])[len(round_walls[WARM_ROUNDS:]) // 2]
    return {
        "shards": num_shards,
        "workers": workers,
        "backend": stats.execute_backend,
        "round_wall_seconds": round_walls,
        "steady_round_seconds": steady,
        "qps": queries_per_round / steady,
        "worker_dispatches": stats.worker_dispatches,
        "serialization_seconds": stats.serialization_seconds,
        "mechanism_invocations": stats.mechanism_invocations,
    }


def run_sweep():
    cells = []
    for num_shards in (1, 4):
        cells.append(run_sweep_cell(num_shards, 1, "inline"))
        for workers in WORKER_SWEEP:
            cells.append(run_sweep_cell(num_shards, workers, "process"))
    return cells


def run_equivalence():
    """Same seeded stream on every configuration: identical ledgers, and
    identical answers across pool sizes."""
    def serve(backend: str, workers: int):
        domain, database, policy = build_fixture(4)
        with make_engine(database, policy, workers, backend) as engine:
            session = engine.open_session("bench", 500.0)
            tickets = []
            for group, epsilon in enumerate(EPSILONS):
                tickets.append(
                    engine.submit(
                        "bench", segment_workload(domain, 4, group), epsilon
                    )
                )
            engine.flush()
            ledger = [
                (op.label, op.epsilon, op.partition)
                for op in session.accountant.operations
            ]
            answers = [ticket.answers for ticket in tickets]
            statuses = [ticket.status for ticket in tickets]
        return ledger, answers, statuses

    configs = {
        "process-2": ("process", 2),
        "process-4": ("process", 4),
        "inline": ("inline", 1),
    }
    runs = {name: serve(*config) for name, config in configs.items()}
    reference_ledger, reference_answers, _ = runs["process-2"]
    ledgers_identical = all(run[0] == reference_ledger for run in runs.values())
    answers_identical = all(
        a is not None and b is not None and np.array_equal(a, b)
        for a, b in zip(reference_answers, runs["process-4"][1])
    )
    return {
        "configs": list(configs),
        "statuses": [run[2] for run in runs.values()],
        "ledgers_identical": bool(ledgers_identical),
        "ledger_operations": len(reference_ledger),
        "answers_identical": bool(answers_identical),
    }


WARM_CHILD_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.core import Database, Domain
from repro.core.workload import Workload
from repro.engine import PrivateQueryEngine
from repro.policy import line_policy

domain = Domain(({size},))
rng = np.random.default_rng(7)
counts = rng.integers(0, 50, size={size}).astype(float)
database = Database(domain, counts, name="warm-start")
engine = PrivateQueryEngine(
    database, total_epsilon=1000.0, default_policy=line_policy(domain),
    prefer_data_dependent=True, consistency=True,
    enable_answer_cache=False, random_state=11,
)
loaded = engine.load_plans({store!r})
engine.open_session("bench", 500.0)
matrix = np.load({workload!r})
import time
started = time.perf_counter()
answers = [engine.ask("bench", Workload(domain, matrix), eps) for eps in {epsilons!r}]
elapsed = time.perf_counter() - started
stats = engine.stats
print(json.dumps({{
    "loaded": loaded,
    "plan_hits": stats.plan_hits,
    "plan_misses": stats.plan_misses,
    "plan_cache_hit_rate": stats.plan_cache_hit_rate,
    "serve_seconds": elapsed,
    "answers": [a.tolist() for a in answers],
}}))
"""


def run_warm_start(tmp_dir: str):
    """Cold engine saves its plan store; a fresh OS process serves warm."""
    domain, database, _ = build_fixture(1)
    num_queries = GROUPS * QUERIES_PER_SEGMENT
    matrix = np.zeros((num_queries, domain.size))
    rng = np.random.default_rng(3)
    for row in range(num_queries):
        lo = int(rng.integers(0, domain.size - 1))
        hi = int(rng.integers(lo + 1, domain.size))
        matrix[row, lo : hi + 1] = 1.0
    workload_path = os.path.join(tmp_dir, "warm_workload.npy")
    np.save(workload_path, matrix)

    from repro.core.workload import Workload

    engine = PrivateQueryEngine(
        database,
        total_epsilon=1000.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=True,
        consistency=True,
        enable_answer_cache=False,
        random_state=11,
    )
    engine.open_session("bench", 500.0)
    started = time.perf_counter()
    cold_answers = [
        engine.ask("bench", Workload(domain, matrix), eps) for eps in EPSILONS
    ]
    cold_seconds = time.perf_counter() - started
    store_path = os.path.join(tmp_dir, "plan_store.pkl")
    saved = engine.save_plans(store_path)

    child = WARM_CHILD_SCRIPT.format(
        src=os.path.join(REPO_ROOT, "src"),
        size=DOMAIN_SIZE,
        store=store_path,
        workload=workload_path,
        epsilons=list(EPSILONS),
    )
    result = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
    )
    warm = json.loads(result.stdout)
    warm_answers = [np.asarray(a) for a in warm.pop("answers")]
    answers_identical = all(
        np.array_equal(cold, fresh)
        for cold, fresh in zip(cold_answers, warm_answers)
    )
    return {
        "plans_saved": saved,
        "cold_serve_seconds": cold_seconds,
        "warm_serve_seconds": warm["serve_seconds"],
        "plans_loaded": warm["loaded"],
        "warm_plan_hits": warm["plan_hits"],
        "warm_plan_misses": warm["plan_misses"],
        "plan_cache_hit_rate": warm["plan_cache_hit_rate"],
        "answers_identical_same_seed": bool(answers_identical),
    }


def main() -> int:
    import tempfile

    cores = os.cpu_count() or 1
    sweep = run_sweep()
    equivalence = run_equivalence()
    with tempfile.TemporaryDirectory() as tmp_dir:
        warm_start = run_warm_start(tmp_dir)

    def cell(shards, workers, backend):
        return next(
            row
            for row in sweep
            if row["shards"] == shards
            and row["workers"] == workers
            and row["backend"] == backend
        )

    inline = cell(4, 1, "inline")
    process_at_4 = cell(4, 4, "process")
    speedup = process_at_4["qps"] / inline["qps"]

    report = {
        "cpu_cores": cores,
        "domain_size": DOMAIN_SIZE,
        "groups": GROUPS,
        "queries_per_segment": QUERIES_PER_SEGMENT,
        "rounds": ROUNDS,
        "steady_rounds_measured": ROUNDS - WARM_ROUNDS,
        "sweep": sweep,
        "speedup_process_vs_inline_4_workers": speedup,
        "equivalence": equivalence,
        "warm_start": warm_start,
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_multicore.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))

    timing_gate = os.environ.get("BENCH_MULTICORE_TIMING_GATE", "1") != "0"
    ok = True
    if cores >= 4:
        if speedup < 1.5:
            print(
                f"{'FAIL' if timing_gate else 'WARN'}: process backend execute "
                f"throughput is {speedup:.2f}x inline execution at 4 workers "
                f"on {cores} cores — below the 1.5x bar"
            )
            ok = ok and not timing_gate
    else:
        print(
            f"INFO: {cores} core(s) available — the multi-core gate needs >= 4; "
            f"honest report: process/inline = {speedup:.2f}x with "
            f"{process_at_4['serialization_seconds']:.3f}s serialisation overhead"
        )
    if not equivalence["ledgers_identical"]:
        print("FAIL: inline and process engines produced different epsilon ledgers")
        ok = False
    if not equivalence["answers_identical"]:
        print(
            "FAIL: process pools of 2 and 4 workers drew different noise "
            "for one seed"
        )
        ok = False
    if warm_start["plan_cache_hit_rate"] != 1.0 or warm_start["warm_plan_misses"] != 0:
        print(
            "FAIL: warm-started process still planned cold "
            f"(hit rate {warm_start['plan_cache_hit_rate']}, "
            f"misses {warm_start['warm_plan_misses']})"
        )
        ok = False
    if not warm_start["answers_identical_same_seed"]:
        print("FAIL: warm-started process answered differently for the same seed")
        ok = False
    if ok:
        print(
            f"OK: process/inline execute throughput {speedup:.2f}x at 4 workers "
            f"({cores} cores), byte-identical ledgers across backends and draws "
            "across pool sizes, "
            f"warm start with {warm_start['plans_loaded']} loaded plans and "
            "plan_cache_hit_rate=1.0"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
