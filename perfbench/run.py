"""The private query engine's benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload http-mixed --seed 1 --seconds 30 --trace 0

Workloads (closed loops; ``workloads.py`` says why each exists):
``http-mixed`` and ``sharded-process``.

With ``--trace 0`` the run sets the workload up ``SETUPS`` times (each a
fresh engine, server or pool, and a fresh factorisation store), keeps the
last one, measures it for ``--seconds`` and prints the end-to-end metrics.
Latency percentiles and throughput are taken in each of ``SLICES`` equal
slices of the timed window and reported as their median over the slices:

=================== ========= ===============================================
``setup_s``         s         median time to build the engine or server,
                              spawn the pool and warm plans
``latency_p50_ms``  ms        median request latency, send to answer
``latency_p90_ms``  ms        90th-percentile request latency
``throughput_qps``  1/s       answered requests per wall second
``cpu_ms_per_query`` ms       serving-side CPU (server process, pool workers)
                              per answered request
``answered_frac``   fraction  answered / attempted; failures count as missing
``eps_per_answer``  epsilon   ε the ledgers charged / answered requests
``answer_rmse``     count     RMSE of released answers against the true W x
``peak_rss_mb``     MB        peak RSS of the serving side
=================== ========= ===============================================

With ``--trace 1`` it measures the workload untraced for a quarter of
``--seconds``, traced for half and untraced again for a quarter (each on a
fresh set-up) and prints the per-layer metrics of ``layers.PER_LAYER`` from
the traced phase, whose spans are recorded by ``spans.py``.

A run fails (exit code 1) when an answer is malformed, a replay differs from
the answer it replays, or a ledger charged other ε than the request log
expects.  The line before the result stamps the host: core count, Python,
numpy and scipy versions, git sha, load average and a numpy speed probe
before and after the run, and the share of CPU time stolen by the
hypervisor during it.  The stamp is a record only; no metric is scaled
by it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("http-mixed", "sharded-process")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Latency percentiles and throughput are medians over this many equal
#: slices of the timed window.
SLICES = 10
#: Scratch space for server state (the durable ledger), inside the checkout.
SCRATCH = os.path.join(ROOT, ".bench_run")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "cpu_ms_per_query": "ms",
    "answered_frac": "fraction",
    "eps_per_answer": "epsilon",
    "answer_rmse": "count",
    "peak_rss_mb": "MB",
}


def build(workload: str, seed: int, trace: bool):
    from workloads import HttpMixed, ShardedProcess

    if workload == "sharded-process":
        return ShardedProcess(seed)
    os.makedirs(SCRATCH, exist_ok=True)
    return HttpMixed(seed, trace, SCRATCH)


def measure(workload: str, seed: int, seconds: float, setups: int, trace: bool):
    """Set up ``setups`` times, measure the last set-up; returns (result, times)."""
    from harness import clock
    from spans import Patches, SpanRecorder, install_engine_spans

    recorder, patches = None, Patches()
    if trace and workload != "http-mixed":
        recorder = SpanRecorder()
        install_engine_spans(recorder, patches)
    times = []
    try:
        for index in range(setups):
            start = clock()
            instance = build(workload, seed, trace)
            times.append(clock() - start)
            if index < setups - 1:
                instance.close()
        try:
            result = instance.measure(seconds, recorder)
        finally:
            instance.close()
    finally:
        patches.restore()
    return result, times


def end_to_end(result, seconds: float, setup_times) -> dict:
    from harness import median, slice_medians

    sliced = slice_medians(
        [request[:2] for request in result.requests],
        result.answered_ends,
        result.started,
        seconds,
        SLICES,
    )
    return {
        "setup_s": median(setup_times),
        "latency_p50_ms": sliced["p50"] * 1e3,
        "latency_p90_ms": sliced["p90"] * 1e3,
        "throughput_qps": sliced["qps"],
        "cpu_ms_per_query": result.cpu_seconds * 1e3 / result.answered,
        "answered_frac": result.answered / result.attempted,
        "eps_per_answer": result.epsilon_spent / result.answered,
        "answer_rmse": result.tally.rmse,
        "peak_rss_mb": result.rss_mb,
    }


def throughput(results) -> float:
    return sum(result.answered for result in results) / sum(result.wall for result in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import stop_children

    try:
        return run(args)
    finally:
        stop_children()
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def run(args: argparse.Namespace) -> int:
    import repro.engine  # noqa: F401  - imported once, outside every set-up
    import repro.engine.serving  # noqa: F401
    from harness import cpu_ticks, environment, host_probe_ms, loadavg, steal_fraction
    from layers import PER_LAYER, per_layer

    stamp = environment(ROOT)
    stamp["loadavg_before"] = loadavg()
    stamp["probe_ms_before"] = host_probe_ms()
    ticks = cpu_ticks()
    if args.trace:
        # Untraced, traced and untraced again, each on a fresh set-up: a
        # steady drift of host speed during the run cancels out of the
        # tracing overhead.
        quarter = args.seconds / 4
        before = measure(args.workload, args.seed, quarter, 1, False)[0]
        traced = measure(args.workload, args.seed, 2 * quarter, 1, True)[0]
        after = measure(args.workload, args.seed, quarter, 1, False)[0]
        results = [before, traced, after]
        values = per_layer(
            {field: traced.after[field] - traced.before[field] for field in traced.before},
            traced.spans,
            traced.requests,
            traced.shed_total,
            traced.ledger_ops_end,
        )
        values["trace.overhead_frac"] = 1.0 - throughput([traced]) / throughput([before, after])
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        result, setup_times = measure(args.workload, args.seed, args.seconds, SETUPS, False)
        results = [result]
        # With no answer to measure the run has failed; report zeros.
        values = (
            end_to_end(result, args.seconds, setup_times)
            if result.answered
            else dict.fromkeys(END_TO_END_UNITS, 0.0)
        )
        units = END_TO_END_UNITS
    stamp["cpu_steal_frac"] = steal_fraction(ticks, cpu_ticks())
    stamp["loadavg_after"] = loadavg()
    stamp["probe_ms_after"] = host_probe_ms()
    errors = [error for result in results for error in result.tally.errors]
    attempted = sum(result.attempted for result in results)
    answered = sum(result.answered for result in results)
    print(json.dumps({"environment": stamp, "errors": errors[:20]}))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": attempted - answered,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
