"""Benchmark the process backend's miss-only blob protocol.

Runs as a plain script (``python benchmarks/bench_ipc.py``) and writes
``BENCH_ipc.json`` at the repository root.  Two experiments:

1. **Per-dispatch shipped bytes.**  The same memoised ``(plan, database)``
   unit is dispatched repeatedly to a one-worker process backend under the
   PR 3 ``"always"`` protocol (plan + database pickles cross the pipe every
   dispatch) and under the ``"miss-only"`` protocol (digests only; blobs at
   most once).  The headline gate is deterministic byte accounting, not
   wall-clock: steady-state per-dispatch bytes must drop **≥ 10×**.  The
   fixture makes the honest comparison hard, not easy — a large histogram
   (so the database blob dominates) but *narrow* workloads (so the payload
   the protocol still ships stays small).

2. **Miss path + worker-restart recovery (deterministic, always
   enforced).**  A plan introduced after pool creation is shipped eagerly
   once; a simulated worker respawn (resident caches reset to the pool
   initializer's preload — exactly what a real respawn does) then forces
   the digest-only dispatch to MISS, and the parent's resubmission with
   full blobs must recover — with answers bit-identical to an inline run
   of the identical RNG state, since the worker refuses *before* touching
   the RNG payload.

Every dispatch is a group of one unit here.  All gates are deterministic
(byte counts, miss counters, draw equality), so there is no timing-gate
demotion switch.
"""

from __future__ import annotations

import json
import os
import pickle
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core import Database, Domain  # noqa: E402
from repro.core.workload import Workload  # noqa: E402
from repro.engine import PlanCache  # noqa: E402
from repro.engine.parallel import (  # noqa: E402
    ExecuteUnit,
    ExecuteUnitGroup,
    ProcessExecuteBackend,
    run_unit,
)
from repro.policy import line_policy  # noqa: E402

#: Large histogram: the database blob is what the miss-only protocol stops
#: shipping, so it should dominate an always-ship dispatch.
DOMAIN_SIZE = 16384
#: Narrow range queries: the payload (workloads + RNG child) that *every*
#: dispatch still ships stays small — the 10× gate is then a statement
#: about the protocol, not about a padded baseline.
QUERIES = 8
MAX_WIDTH = 32
STEADY_DISPATCHES = 10
EPSILON = 0.5


def build_fixture():
    domain = Domain((DOMAIN_SIZE,))
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 50, size=DOMAIN_SIZE).astype(float)
    database = Database(domain, counts, name="bench-ipc")
    policy = line_policy(domain)
    cache = PlanCache()
    plan = cache.plan_for(
        policy, EPSILON, prefer_data_dependent=False, consistency=False
    )
    return domain, database, policy, plan


def narrow_workload(domain, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    matrix = np.zeros((QUERIES, domain.size))
    for row in range(QUERIES):
        lo = int(rng.integers(0, domain.size - MAX_WIDTH))
        width = int(rng.integers(1, MAX_WIDTH))
        matrix[row, lo : lo + width + 1] = 1.0
    return Workload(domain, matrix, name=f"narrow-{seed}")


def make_unit(plan, domain, database, seed: int):
    """A dispatchable unit plus an identically-seeded inline reference RNG."""
    rng = np.random.default_rng(seed)
    reference_rng = pickle.loads(pickle.dumps(rng))
    unit = ExecuteUnit(
        plan=plan,
        workloads=[narrow_workload(domain, seed)],
        database=database,
        rng=rng,
        want_noise=False,
    )
    return unit, reference_rng


def dispatch(backend, unit):
    """Ship ``unit`` as a group of one; returns its answer vectors."""
    (outcome,) = backend.submit_group(ExecuteUnitGroup(units=(unit,))).result()
    assert outcome[0] == "ok", outcome
    return outcome[1]


def run_protocol_bytes(protocol: str):
    """Steady-state per-dispatch bytes for one blob protocol."""
    domain, database, _, plan = build_fixture()
    backend = ProcessExecuteBackend(
        max_workers=1, preload=(database,), blob_protocol=protocol
    )
    try:
        # Warm-up: pool creation (initializer preload) + memo fill.
        for seed in (1, 2):
            unit, reference_rng = make_unit(plan, domain, database, seed)
            vectors = dispatch(backend, unit)
            reference, _ = run_unit(
                plan, unit.workloads, database, reference_rng, want_noise=False
            )
            assert np.array_equal(vectors[0], reference[0])
        before = backend.bytes_shipped
        for seed in range(10, 10 + STEADY_DISPATCHES):
            unit, _ = make_unit(plan, domain, database, seed)
            dispatch(backend, unit)
        per_dispatch = (backend.bytes_shipped - before) / STEADY_DISPATCHES
        return {
            "protocol": protocol,
            "steady_per_dispatch_bytes": per_dispatch,
            "total_bytes_shipped": backend.bytes_shipped,
            "preload_bytes": backend.preload_bytes,
            "plan_blob_bytes": len(pickle.dumps(plan)),
            "database_blob_bytes": len(pickle.dumps(database)),
            "dispatches": backend.dispatches,
            "blob_cache_misses": backend.blob_cache_misses,
            "serialization_seconds": backend.serialization_seconds,
        }
    finally:
        backend.close()


def run_miss_recovery():
    """Exercise the miss path: late plan, simulated respawn, resubmission."""
    domain, database, policy, plan = build_fixture()
    backend = ProcessExecuteBackend(max_workers=1, preload=(database,))
    try:
        unit, _ = make_unit(plan, domain, database, 1)
        dispatch(backend, unit)  # creates the pool; plan+db preloaded

        # A plan the pool initializer never saw: its first dispatch ships
        # the blob eagerly (exactly once) to the worker that draws it.
        late_plan = PlanCache().plan_for(
            policy, 0.25, prefer_data_dependent=False, consistency=False
        )
        unit, _ = make_unit(late_plan, domain, database, 2)
        dispatch(backend, unit)
        misses_before_restart = backend.blob_cache_misses

        # Simulated respawn: the worker falls back to its initializer
        # preload, forgetting the late plan; the parent (as with a real
        # respawn) keeps dispatching digest-only and must recover.
        restarted = backend.reset_resident_caches()
        unit, reference_rng = make_unit(late_plan, domain, database, 3)
        vectors = dispatch(backend, unit)
        reference, _ = run_unit(
            late_plan, unit.workloads, database, reference_rng, want_noise=False
        )
        recovered_identical = bool(np.array_equal(vectors[0], reference[0]))
        return {
            "misses_before_restart": misses_before_restart,
            "workers_restarted": restarted,
            "blob_cache_misses": backend.blob_cache_misses,
            "resubmits": backend.resubmits,
            "recovered_answers_identical": recovered_identical,
        }
    finally:
        backend.close()


def main() -> int:
    always = run_protocol_bytes("always")
    miss_only = run_protocol_bytes("miss-only")
    recovery = run_miss_recovery()

    reduction = (
        always["steady_per_dispatch_bytes"] / miss_only["steady_per_dispatch_bytes"]
        if miss_only["steady_per_dispatch_bytes"] > 0
        else float("inf")
    )
    report = {
        "domain_size": DOMAIN_SIZE,
        "queries_per_dispatch": QUERIES,
        "max_query_width": MAX_WIDTH,
        "steady_dispatches_measured": STEADY_DISPATCHES,
        "protocols": {"always": always, "miss_only": miss_only},
        "steady_bytes_reduction": reduction,
        "miss_recovery": recovery,
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_ipc.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))

    ok = True
    if reduction < 10.0:
        print(
            f"FAIL: steady-state per-dispatch bytes only dropped "
            f"{reduction:.1f}x vs the always-ship protocol — below the 10x bar"
        )
        ok = False
    if miss_only["blob_cache_misses"] != 0:
        print("FAIL: the steady-state sweep should never miss (preloaded pool)")
        ok = False
    if recovery["blob_cache_misses"] < 1 or recovery["resubmits"] < 1:
        print("FAIL: the simulated worker restart did not exercise the miss path")
        ok = False
    if not recovery["recovered_answers_identical"]:
        print("FAIL: the miss-path resubmission drew different noise")
        ok = False
    if ok:
        print(
            f"OK: miss-only protocol ships {reduction:.0f}x fewer steady-state "
            f"bytes per dispatch ({miss_only['steady_per_dispatch_bytes']:.0f} vs "
            f"{always['steady_per_dispatch_bytes']:.0f}), miss path exercised "
            f"({recovery['blob_cache_misses']} miss(es), "
            f"{recovery['resubmits']} resubmission(s)) and recovered "
            "bit-identically"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
