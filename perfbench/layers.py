"""Per-layer metrics of a traced run: span statistics plus engine counters.

Counter metrics come from the growth of the ``EngineStats`` counters over
the timed windows.  Layers that a workload does not reach report 0.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from harness import covered_length, median

#: Name, unit, better direction and meaning of every per-layer metric.
PER_LAYER = [
    ("serving.dispatch_self_ms_p50", "ms", "lower", "HTTP routing and handler time outside the flush"),
    ("serving.parse_ms_p50", "ms", "lower", "workload JSON parse in the query route"),
    ("serving.encode_ms_p50", "ms", "lower", "answer payload build plus response encode"),
    ("serving.shed_total", "count", "lower", "submits shed by admission control"),
    ("executor.queue_wait_ms_p50", "ms", "lower", "time a submitted ticket waits for its flush"),
    ("executor.tickets_per_flush", "count", "higher", "batching achieved by the flush triggers"),
    ("pipeline.plan_ms_per_query", "ms", "lower", "plan stage time per answered query"),
    ("pipeline.charge_ms_per_query", "ms", "lower", "charge stage time per answered query"),
    ("pipeline.execute_ms_per_query", "ms", "lower", "execute stage time per answered query"),
    ("pipeline.resolve_ms_per_query", "ms", "lower", "resolve stage time per answered query"),
    ("plan_cache.hit_rate", "fraction", "higher", "plan lookups served from the plan cache"),
    ("policy.transform_ms_per_query", "ms", "lower", "policy transform time per answered query"),
    ("policy.transform_calls", "calls/query", "lower", "transform_workload calls per answered query"),
    ("factorisation.hit_rate", "fraction", "higher", "factorisation-store lookups that hit"),
    ("mechanisms.answer_ms_per_query", "ms", "lower", "inline mechanism time per answered query"),
    ("accounting.charge_us_p50", "us", "lower", "median PrivacyAccountant.charge time"),
    ("accounting.charge_us_last_tenth", "us", "lower", "median charge time over the last tenth of charges, as the ledger grows"),
    ("accounting.ledger_ops_end", "count", "lower", "session ledger length at the end of the run"),
    ("durability.append_us_p50", "us", "lower", "median durable ledger append time"),
    ("answer_cache.hit_rate", "fraction", "higher", "answer-cache lookups replayed at zero epsilon"),
    ("parallel.dispatches_per_flush", "count", "lower", "work-unit dispatches to the worker pool per flush"),
    ("parallel.bytes_per_dispatch", "bytes", "lower", "bytes shipped over the pool pipe per dispatch"),
    ("parallel.serialise_ms_per_flush", "ms", "lower", "parent-side pickling time per flush"),
    ("parallel.blob_misses", "count", "lower", "worker blob-cache misses that cost a resend"),
    ("sharding.units_per_flush", "count", "lower", "mechanism invocations per sharded batch"),
    ("trace.overhead_frac", "fraction", "lower", "throughput lost to tracing: 1 - traced/untraced"),
    ("trace.unattributed_frac", "fraction", "lower", "share of request latency inside no layer span"),
]

Span = Tuple[str, float, float, object]
Request = Tuple[float, float, Optional[str]]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50(values: Sequence[float], scale: float) -> float:
    return median(values) * scale if values else 0.0


def _flush_of(spans: Sequence[Span]) -> Dict[int, Tuple[float, float]]:
    """The interval of the flush that resolved each ticket id."""
    return {
        ticket_id: (start, end)
        for name, start, end, key in spans
        if name == "flush"
        for ticket_id in key
    }


def unattributed_fraction(requests: Sequence[Request], spans: Sequence[Span]) -> float:
    """Share of summed request latency that no span of the request covers.

    Requests keyed ``None`` come from a single client thread: every span that
    starts inside such a request belongs to it.  Keyed (HTTP) requests are
    covered by the spans carrying their request id, plus the flush that
    resolved the ticket submitted under that id.
    """
    by_request: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
    flush_of = _flush_of(spans)
    for name, start, end, key in spans:
        if name == "submit":
            ticket_id, request_id = key
            if request_id is not None and ticket_id in flush_of:
                by_request[request_id].append(flush_of[ticket_id])
            key = request_id
        if key is not None and not isinstance(key, tuple):
            by_request[key].append((start, end))
    unkeyed = sorted((start, end) for _, start, end, _ in spans)
    starts = [start for start, _ in unkeyed]
    total = uncovered = 0.0
    for lo, hi, request_id in requests:
        if request_id is None:
            inside = unkeyed[bisect.bisect_left(starts, lo) : bisect.bisect_right(starts, hi)]
        else:
            inside = by_request.get(request_id, [])
        total += hi - lo
        uncovered += (hi - lo) - covered_length((lo, hi), inside)
    return _ratio(uncovered, total)


def _request_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    flush_of = _flush_of(spans)
    ticket_of = {}
    queue_waits = []
    for name, start, end, key in spans:
        if name == "submit":
            ticket_id, request_id = key
            if ticket_id in flush_of:
                queue_waits.append(flush_of[ticket_id][0] - end)
                if request_id is not None:
                    ticket_of[request_id] = ticket_id
    dispatch_self = []
    encode = defaultdict(float)
    parse = []
    for name, start, end, key in spans:
        if key is None:
            continue
        if name == "dispatch" and key in ticket_of:
            flush = flush_of[ticket_of[key]]
            dispatch_self.append((end - start) - covered_length((start, end), [flush]))
        elif name in ("payload", "encode"):
            encode[key] += end - start
        elif name == "parse":
            parse.append(end - start)
    return {
        "serving.dispatch_self_ms_p50": _p50(dispatch_self, 1e3),
        "serving.parse_ms_p50": _p50(parse, 1e3),
        "serving.encode_ms_p50": _p50(list(encode.values()), 1e3),
        "executor.queue_wait_ms_p50": _p50(queue_waits, 1e3),
    }


def per_layer(
    deltas: Dict[str, float],
    spans: Sequence[Span],
    requests: Sequence[Request],
    shed_total: float,
    ledger_ops_end: int,
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``.

    ``deltas`` holds how much each numeric ``EngineStats`` field grew over
    the measured windows.
    """

    answered = deltas["queries_answered"]
    flushes = deltas["flushes"]
    dispatches = deltas["worker_dispatches"]
    durations = defaultdict(list)
    for name, start, end, _ in spans:
        durations[name].append((start, end))

    def seconds(name: str) -> List[float]:
        return [end - start for start, end in durations[name]]

    charges = [end - start for start, end in sorted(durations["charge"])]
    last_tenth = charges[len(charges) - max(1, len(charges) // 10) :] if charges else []
    metrics = _request_metrics(spans)
    metrics.update(
        {
            "serving.shed_total": float(shed_total),
            "executor.tickets_per_flush": _ratio(answered, flushes),
            "plan_cache.hit_rate": _ratio(
                deltas["plan_hits"], deltas["plan_hits"] + deltas["plan_misses"]
            ),
            "policy.transform_ms_per_query": _ratio(sum(seconds("transform")) * 1e3, answered),
            "policy.transform_calls": _ratio(len(durations["transform"]), answered),
            "factorisation.hit_rate": _ratio(
                deltas["factorisation_hits"],
                deltas["factorisation_hits"] + deltas["factorisation_misses"],
            ),
            "mechanisms.answer_ms_per_query": _ratio(sum(seconds("mechanism")) * 1e3, answered),
            "accounting.charge_us_p50": _p50(charges, 1e6),
            "accounting.charge_us_last_tenth": _p50(last_tenth, 1e6),
            "accounting.ledger_ops_end": float(ledger_ops_end),
            "durability.append_us_p50": _p50(seconds("append"), 1e6),
            "answer_cache.hit_rate": _ratio(
                deltas["answer_hits"], deltas["answer_hits"] + deltas["answer_misses"]
            ),
            "parallel.dispatches_per_flush": _ratio(dispatches, flushes),
            "parallel.bytes_per_dispatch": _ratio(deltas["bytes_shipped"], dispatches),
            "parallel.serialise_ms_per_flush": _ratio(
                deltas["serialization_seconds"] * 1e3, flushes
            ),
            "parallel.blob_misses": float(deltas["blob_cache_misses"]),
            "sharding.units_per_flush": _ratio(
                deltas["mechanism_invocations"], deltas["sharded_batches"]
            ),
            "trace.unattributed_frac": unattributed_fraction(requests, spans),
        }
    )
    for stage in ("plan", "charge", "execute", "resolve"):
        metrics[f"pipeline.{stage}_ms_per_query"] = _ratio(
            deltas[f"{stage}_seconds"] * 1e3, answered
        )
    return metrics
