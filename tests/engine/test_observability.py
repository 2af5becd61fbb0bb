"""Flight-recorder observability: tracing, metrics registry, ε-audit stream."""

from __future__ import annotations

import json
import logging
import os
import threading

import numpy as np
import pytest

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    total_workload,
)
from repro.engine import (
    AuditLog,
    ExecuteUnit,
    MetricsRegistry,
    Observability,
    PrivateQueryEngine,
    ProcessExecuteBackend,
    Tracer,
)
from repro.engine.parallel import ExecuteUnitGroup, execute_groups
from repro.exceptions import PrivacyBudgetError
from repro.policy import line_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[1, 5, 6, 12]] = [3, 7, 1, 9]
    return Database(domain, counts, name="sparse16")


def make_engine(database, domain, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=50.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=0,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


def enabled_engine(database, domain, **overrides) -> PrivateQueryEngine:
    overrides.setdefault("observability", Observability(enabled=True, audit=AuditLog()))
    return make_engine(database, domain, **overrides)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4.0

    def test_labels_key_distinct_instruments(self):
        registry = MetricsRegistry()
        hit = registry.counter("lookups_total", result="hit")
        miss = registry.counter("lookups_total", result="miss")
        assert hit is not miss
        # Get-or-create: re-asking returns the same instrument.
        assert registry.counter("lookups_total", result="hit") is hit

    def test_name_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing", other="label")

    def test_histogram_percentiles_interpolate(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency", buckets=(0.001, 0.01, 0.1, 1.0)
        )
        for _ in range(99):
            histogram.observe(0.005)
        histogram.observe(0.5)
        p = histogram.percentiles()
        assert 0.001 <= p["p50"] <= 0.01
        assert p["p99"] <= 1.0
        assert histogram.count == 100
        # Overflow observations report the honest maximum, not a bucket bound.
        histogram.observe(7.0)
        assert histogram.quantile(1.0) == pytest.approx(7.0)

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("served_total", "Requests served", backend="thread").inc(3)
        histogram = registry.histogram("wait_seconds", "Queue wait", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = registry.to_prometheus_text()
        assert "# TYPE served_total counter" in text
        assert 'served_total{backend="thread"} 3.0' in text
        assert "# HELP wait_seconds Queue wait" in text
        # Buckets are cumulative and end with +Inf == count.
        assert 'wait_seconds_bucket{le="0.1"} 1' in text
        assert 'wait_seconds_bucket{le="1.0"} 2' in text
        assert 'wait_seconds_bucket{le="+Inf"} 2' in text
        assert "wait_seconds_count 2" in text

    def test_json_snapshot_parses(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        payload = json.loads(registry.to_json())
        assert payload["counters"]["a_total"]["value"] == 1.0
        assert payload["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# Tracing primitives
# ---------------------------------------------------------------------------
class TestTracing:
    def test_span_context_manager_nests(self):
        tracer = Tracer()
        trace = tracer.start_trace("flush", tickets=2)
        with trace.span("execute") as execute:
            trace.add_span("unit", execute.start, execute.start + 0.25, parent=execute)
        trace.finish()
        tree = trace.to_dict()
        assert tree["attributes"] == {"tickets": 2}
        (root,) = tree["spans"]
        assert root["name"] == "execute"
        assert [child["name"] for child in root["children"]] == ["unit"]
        assert tracer.last() is trace

    def test_finish_is_idempotent_and_registers_once(self):
        tracer = Tracer(capacity=4)
        trace = tracer.start_trace("flush")
        trace.finish()
        trace.finish()
        assert len(tracer.traces()) == 1
        assert tracer.find(trace.trace_id) is trace

    def test_tracer_ring_buffer_bounds(self):
        tracer = Tracer(capacity=2)
        ids = [tracer.start_trace("t").finish().trace_id for _ in range(3)]
        kept = [trace.trace_id for trace in tracer.traces()]
        assert kept == ids[1:]

    def test_waterfall_renders_every_span(self):
        tracer = Tracer()
        trace = tracer.start_trace("flush")
        with trace.span("plan"):
            pass
        trace.add_span("worker", trace.start, trace.start + 0.001, pid=1234)
        trace.finish()
        rendered = trace.waterfall()
        assert trace.trace_id in rendered
        assert "plan" in rendered and "worker" in rendered

    def test_json_export_round_trips(self):
        tracer = Tracer()
        trace = tracer.start_trace("top_up", client="a")
        with trace.span("execute"):
            pass
        trace.finish()
        payload = json.loads(trace.to_json())
        assert payload["trace_id"] == trace.trace_id
        assert payload["spans"][0]["name"] == "execute"


# ---------------------------------------------------------------------------
# Audit log primitives
# ---------------------------------------------------------------------------
class TestAuditLog:
    def test_ambient_context_merges_and_drops_none(self):
        log = AuditLog()
        with log.context(trace_id="t-1", ticket_id=None):
            with log.context(client_id="alice"):
                record = log.emit("charge", epsilon=0.5, label=None)
        assert record["trace_id"] == "t-1"
        assert record["client_id"] == "alice"
        assert "ticket_id" not in record and "label" not in record
        # Outside the context nothing ambient leaks.
        bare = log.emit("charge", epsilon=0.5)
        assert "trace_id" not in bare

    def test_explicit_none_never_masks_ambient(self):
        log = AuditLog()
        with log.context(trace_id="t-9"):
            record = log.emit("refusal", trace_id=None, epsilon=1.0)
        assert record["trace_id"] == "t-9"

    def test_seq_totally_orders_the_stream(self):
        log = AuditLog()
        records = [log.emit("charge", epsilon=i) for i in range(5)]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert log.count == 5

    def test_jsonl_durability(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path=str(path))
        log.emit("charge", label="q", epsilon=0.25)
        log.emit("rollback", label="q", epsilon=0.25)
        # Flushed per event: readable before close.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "charge" and first["seq"] == 1
        log.close()
        log.close()  # idempotent
        # The stream reopens lazily: post-close events still append.
        log.emit("charge", label="late", epsilon=0.1)
        assert len(path.read_text().splitlines()) == 3
        log.close()

    def test_memory_mirror_is_bounded_filters_work(self):
        log = AuditLog(capacity=3)
        for index in range(5):
            log.emit("charge" if index % 2 else "rollback", epsilon=index)
        assert log.count == 5
        assert len(log.events()) == 3
        assert all(r["event"] == "charge" for r in log.events("charge"))
        assert [r["seq"] for r in log.tail(2)] == [4, 5]


# ---------------------------------------------------------------------------
# Flush tracing through the engine
# ---------------------------------------------------------------------------
class TestFlushTraces:
    def test_flush_produces_stage_and_unit_spans(self, database, domain):
        obs = Observability(enabled=True)
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 10.0)
        engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.submit("alice", cumulative_workload(domain), epsilon=0.5)
        engine.flush()
        trace = obs.tracer.last()
        assert trace is not None and trace.name == "flush"
        assert trace.attributes["tickets"] == 2
        for stage in ("plan", "charge", "execute", "resolve"):
            assert trace.find(stage), f"missing {stage} span"
        # One compatible batch → one execute unit, nested under execute.
        (unit,) = trace.find("unit")
        (execute,) = trace.find("execute")
        assert unit.parent_id == execute.span_id
        assert unit.attributes["workloads"] == 2
        tree = json.loads(trace.to_json())
        assert tree["trace_id"] == trace.trace_id

    def test_disabled_hub_records_nothing(self, database, domain):
        engine = make_engine(database, domain)  # default: disabled hub
        engine.open_session("alice", 10.0)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        assert ticket.submitted_at == 0.0
        engine.flush()
        assert engine.observability.enabled is False
        assert engine.observability.tracer.last() is None
        assert engine.observability.audit is None
        # Aggregate counters flow regardless.
        assert engine.stats.queries_answered == 1

    def test_queue_wait_and_flush_latency_histograms_fill(self, database, domain):
        obs = Observability(enabled=True)
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 10.0)
        engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.submit("alice", cumulative_workload(domain), epsilon=0.5)
        engine.flush()
        with obs.metrics.lock:
            assert engine._h_queue_wait.count == 2
            assert engine._h_flush.count == 1
            assert engine._h_flush.sum > 0.0

    def test_unit_kernel_histogram_keyed_by_plan(self, database, domain):
        obs = Observability(enabled=True)
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        payload = json.loads(obs.metrics.to_json())
        series = [
            name
            for name in payload["histograms"]
            if name.startswith("engine_unit_kernel_seconds")
        ]
        assert len(series) == 1 and "plan=" in series[0]

    def test_concurrent_flushes_never_share_a_trace(self, database, domain):
        """Each flush's trace owns a disjoint set of charged tickets."""
        audit = AuditLog()
        obs = Observability(enabled=True, audit=audit)
        engine = make_engine(database, domain, observability=obs)
        num_threads, per_thread = 4, 5
        for index in range(num_threads):
            engine.open_session(f"client{index}", 10.0)
        barrier = threading.Barrier(num_threads)
        errors: list = []

        def hammer(index: int) -> None:
            workloads = [
                identity_workload(domain),
                cumulative_workload(domain),
                total_workload(domain),
            ]
            barrier.wait()
            for round_index in range(per_thread):
                try:
                    engine.ask(
                        f"client{index}",
                        workloads[round_index % len(workloads)],
                        epsilon=0.1,
                    )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        charges = audit.events("charge")
        flush_charges = [r for r in charges if "ticket_id" in r]
        # Every charged ticket appears exactly once, in exactly one trace.
        ticket_ids = [r["ticket_id"] for r in flush_charges]
        assert len(ticket_ids) == len(set(ticket_ids))
        by_trace: dict = {}
        for record in flush_charges:
            assert record["trace_id"]  # attributed, never blank
            by_trace.setdefault(record["trace_id"], set()).add(record["ticket_id"])
        sets = list(by_trace.values())
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])
        # Each completed trace carries its own full stage-span set.
        for trace in obs.tracer.traces():
            assert trace.end is not None
            for stage in ("plan", "charge", "execute", "resolve"):
                assert trace.find(stage)

    def test_replay_only_flush_trace_says_so(self, database, domain):
        """A flush served entirely from cache has no stage spans — the
        trace must say why instead of reading as an empty tree."""
        obs = Observability(enabled=True)
        engine = make_engine(
            database, domain, observability=obs, enable_answer_cache=True
        )
        engine.open_session("alice", 10.0)
        first = engine.ask("alice", identity_workload(domain), epsilon=0.5)
        replayed = engine.ask("alice", identity_workload(domain), epsilon=0.5)
        np.testing.assert_array_equal(first, replayed)
        trace = obs.tracer.last()
        assert trace.attributes["tickets"] == 1
        assert trace.attributes["replays"] == 1
        assert not trace.find("execute")
        assert json.loads(trace.to_json())["attributes"]["replays"] == 1

    def test_top_up_rides_the_flush_trace(self, database, domain):
        """A top-up is a flush: its charge and its ``top_up`` event both
        name that flush's trace."""
        obs = Observability(enabled=True, audit=AuditLog())
        engine = make_engine(
            database, domain, observability=obs, enable_answer_cache=True
        )
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        engine.top_up("alice", identity_workload(domain), 0.25)
        trace = obs.tracer.last()
        assert trace.name == "flush"
        assert trace.find("execute")
        (event,) = obs.audit.events("top_up")
        assert event["trace_id"] == trace.trace_id
        assert event["client_id"] == "alice"
        assert event["label"].startswith("top-up:alice:")
        assert event["epsilon"] == pytest.approx(0.25)
        assert event["draws"] == 2
        charge = obs.audit.events("charge")[-1]
        assert charge["trace_id"] == trace.trace_id
        assert charge["label"] == event["label"]


# ---------------------------------------------------------------------------
# Worker-process spans
# ---------------------------------------------------------------------------
class TestProcessBackendSpans:
    def test_worker_spans_attach_to_their_unit(self, database, domain):
        obs = Observability(enabled=True)
        engine = make_engine(
            database,
            domain,
            observability=obs,
            execute_workers=2,
            execute_backend="process",
        )
        with engine:
            engine.open_session("alice", 10.0)
            engine.submit("alice", identity_workload(domain), epsilon=0.5)
            engine.submit("alice", identity_workload(domain), epsilon=0.7)
            engine.flush()
            trace = obs.tracer.last()
            units = trace.find("unit")
            workers = trace.find("worker")
            assert len(units) == 2 and len(workers) == 2
            unit_ids = {span.span_id for span in units}
            for worker in workers:
                assert worker.parent_id in unit_ids
                assert worker.attributes["pid"] != os.getpid()
            # One tree for the whole flush: each stage once, and the worker
            # spans export nested inside it.
            for stage in ("plan", "charge", "execute", "resolve"):
                assert len(trace.find(stage)) == 1

            def names(nodes):
                for node in nodes:
                    yield node["name"]
                    yield from names(node["children"])

            exported = list(names(json.loads(trace.to_json())["spans"]))
            assert exported.count("worker") == 2

    def test_blob_miss_recovery_reports_both_hops(self, database, domain):
        from repro.engine import ProcessExecuteBackend

        obs = Observability(enabled=True)
        engine = make_engine(
            database,
            domain,
            observability=obs,
            execute_workers=2,
            execute_backend="process",
        )
        # The reset hook is only deterministic on a single-worker pool
        # (see ProcessExecuteBackend.reset_resident_caches); swap one in.
        engine._execute_backend.close()
        engine._execute_backend = ProcessExecuteBackend(max_workers=1)
        with engine:
            engine.open_session("alice", 20.0)
            engine.submit("alice", identity_workload(domain), epsilon=0.5)
            engine.submit("alice", identity_workload(domain), epsilon=0.7)
            engine.flush()
            # Steady state established: the parent now ships digests only.
            assert engine._execute_backend.reset_resident_caches() == 1
            engine.submit("alice", identity_workload(domain), epsilon=0.5)
            engine.submit("alice", identity_workload(domain), epsilon=0.7)
            engine.flush()
            trace = obs.tracer.last()
            units = {span.span_id: span for span in trace.find("unit")}
            misses = trace.find("blob-miss")
            workers = trace.find("worker")
            # The reset emptied the worker, so both units' digest-only
            # dispatches (one per ε, each submitted before either resolves)
            # miss exactly once.
            assert len(misses) == 2
            # A recovered unit shows the failed digest-only hop AND the
            # successful worker execution under the same unit span.
            recovered = {span.parent_id for span in misses}
            for parent in recovered:
                assert parent in units
                assert any(w.parent_id == parent for w in workers)
            for miss in misses:
                assert miss.attributes["missing"]


# ---------------------------------------------------------------------------
# ε-audit completeness through the engine
# ---------------------------------------------------------------------------
class TestAuditStream:
    def test_every_epsilon_mutation_is_recorded(self, database, domain, tmp_path):
        path = tmp_path / "audit.jsonl"
        obs = Observability(enabled=True, audit_path=str(path))
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 1.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        with pytest.raises(PrivacyBudgetError):
            engine.ask("alice", cumulative_workload(domain), epsilon=5.0)
        engine.close_session("alice")
        engine.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [r["event"] for r in records]
        # Reservation charge + scope_open, the query charge, the refusal,
        # and the close's scope_close — in ledger order.
        assert events[0] == "charge" and events[1] == "scope_open"
        assert "refusal" in events and "scope_close" in events
        (query_charge,) = [
            r for r in records if r["event"] == "charge" and "ticket_id" in r
        ]
        assert query_charge["client_id"] == "alice"
        assert query_charge["epsilon"] == pytest.approx(0.5)
        # The charge's trace id names a completed flush trace.
        assert obs.tracer.find(query_charge["trace_id"]) is not None
        (refusal,) = [r for r in records if r["event"] == "refusal"]
        assert refusal["epsilon"] == pytest.approx(5.0)
        assert refusal["ticket_id"] and refusal["trace_id"]
        (scope_close,) = [r for r in records if r["event"] == "scope_close"]
        assert scope_close["spent"] == pytest.approx(0.5)
        assert scope_close["refunded"] == pytest.approx(0.5)

    def test_execute_failure_audits_rollbacks_with_trace_ids(
        self, database, domain, monkeypatch
    ):
        audit = AuditLog()
        obs = Observability(enabled=True, audit=audit)
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 10.0)
        import repro.engine.parallel as parallel_module

        def broken_run_unit(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(parallel_module, "run_unit", broken_run_unit)
        ticket = engine.submit("alice", identity_workload(domain), epsilon=0.5)
        engine.flush()
        assert ticket.status == "refused"
        (rollback,) = audit.events("rollback")
        (charge,) = [r for r in audit.events("charge") if "ticket_id" in r]
        assert rollback["ticket_id"] == charge["ticket_id"] == ticket.ticket_id
        assert rollback["trace_id"] == charge["trace_id"]
        assert rollback["epsilon"] == pytest.approx(0.5)
        # The ledger is whole again.
        assert engine.session("alice").spent() == 0.0

    def test_every_audited_charge_names_a_completed_trace(self, database, domain):
        """Three flushes of two ε groups, audited and traced vs. not.

        The instrumented engine draws byte-identical answers, and each of
        its six ticket charges in the audit stream names a finished trace.
        """

        def serve(observability):
            engine = make_engine(
                database, domain, random_state=1234, observability=observability
            )
            engine.open_session("alice", 20.0)
            tickets = []
            for round_index in range(3):
                for workload, epsilon in (
                    (identity_workload(domain), 0.4),
                    (cumulative_workload(domain), 0.2),
                ):
                    tickets.append(engine.submit("alice", workload, epsilon))
                engine.flush()
            return [ticket.result() for ticket in tickets]

        baseline = serve(None)
        obs = Observability(enabled=True, audit=AuditLog())
        observed = serve(obs)
        for expected, actual in zip(baseline, observed):
            assert expected.tobytes() == actual.tobytes()
        charges = [r for r in obs.audit.events("charge") if "ticket_id" in r]
        assert len(charges) == len(observed) == 6
        for charge in charges:
            assert obs.tracer.find(charge["trace_id"]) is not None

    def test_audit_without_tracing_still_attributes_tickets(
        self, database, domain
    ):
        """The audit stream is opt-in independently of `enabled`."""
        audit = AuditLog()
        obs = Observability(enabled=False, audit=audit)
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        (charge,) = [r for r in audit.events("charge") if "ticket_id" in r]
        assert charge["client_id"] == "alice"
        assert "trace_id" not in charge  # no tracer ran


# ---------------------------------------------------------------------------
# Logged degradations (formerly silent)
# ---------------------------------------------------------------------------
class TestDegradationLogging:
    def test_mis_sized_noise_model_logs_proxy_fallback(
        self, database, domain, monkeypatch, caplog
    ):
        from repro.blowfish.algorithms import NamedAlgorithm
        from repro.mechanisms.base import NoiseModel

        monkeypatch.setattr(
            NamedAlgorithm,
            "noise_model",
            lambda self, workload: NoiseModel(stds=np.ones(3)),
        )
        engine = make_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 10.0)
        with caplog.at_level(logging.WARNING, logger="repro.engine.pipeline"):
            answers = engine.ask("alice", identity_workload(domain), epsilon=0.5)
        assert answers.shape == (16,)
        assert any(
            "degrading" in record.message and "proxy" in record.message
            for record in caplog.records
        )

    @staticmethod
    def proxy_fallbacks(caplog, layout):
        return [
            record
            for record in caplog.records
            if record.name == "repro.engine.pipeline"
            and layout in record.message
            and "degrading" in record.message
            and "proxy" in record.message
        ]

    def test_mis_sized_sharded_noise_model_logs_proxy_fallback(
        self, database, domain, monkeypatch, caplog
    ):
        from repro.blowfish.algorithms import NamedAlgorithm
        from repro.mechanisms.base import NoiseModel
        from repro.policy import PolicyGraph

        monkeypatch.setattr(
            NamedAlgorithm,
            "noise_model",
            lambda self, workload: NoiseModel(stds=np.ones(3)),
        )
        split = PolicyGraph(
            domain,
            edges=[(i, i + 1) for i in range(7)] + [(i, i + 1) for i in range(8, 15)],
            name="two-halves",
        )
        engine = make_engine(
            database, domain, default_policy=split, enable_answer_cache=True
        )
        engine.open_session("alice", 10.0)
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            answers = engine.ask("alice", identity_workload(domain), epsilon=0.5)
        assert answers.shape == (16,)
        assert engine.stats.sharded_batches == 1
        # One warning per shard unit, each degraded to the proxy.
        assert len(self.proxy_fallbacks(caplog, "sharded unit")) == 2
        (entry,) = engine.answer_cache._entries.values()
        assert entry.measurements[0].noise_stds is None

    def test_mis_sized_top_up_noise_model_logs_proxy_fallback(
        self, database, domain, monkeypatch, caplog
    ):
        from repro.blowfish.algorithms import NamedAlgorithm
        from repro.mechanisms.base import NoiseModel

        engine = make_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        monkeypatch.setattr(
            NamedAlgorithm,
            "noise_model",
            lambda self, workload: NoiseModel(stds=np.ones(3)),
        )
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            upgraded = engine.top_up(
                "alice", identity_workload(domain), extra_epsilon=0.25
            )
        assert upgraded.shape == (16,)
        # The top-up is a batch of its own, checked like any batch.
        assert len(self.proxy_fallbacks(caplog, "the batch")) == 1
        (entry,) = engine.answer_cache._entries.values()
        assert entry.measurements[0].noise_stds is not None
        assert entry.measurements[1].noise_stds is None

    def test_closed_backend_inline_fallback_logs(self, database, domain, caplog):
        engine = make_engine(database, domain)
        plan = engine.plan_cache.plan_for(
            line_policy(domain), 0.5, prefer_data_dependent=False, consistency=False
        )
        backend = ProcessExecuteBackend(2)
        backend.close(wait=True)
        unit = ExecuteUnit(
            plan=plan,
            batch=identity_workload(domain),
            slices=(slice(None),),
            database=database,
            rng=np.random.default_rng(3),
        )
        group = ExecuteUnitGroup(units=(unit,))
        with caplog.at_level(logging.WARNING, logger="repro.engine.parallel"):
            (done,) = execute_groups(backend, [(None, group)])
        ((status, vectors, _),) = done.outcomes
        assert status == "ok"
        assert vectors[0].shape == (16,)
        assert any(
            "closed mid-call" in record.message for record in caplog.records
        )

    def test_blob_miss_recovery_logs(self, database, domain, caplog):
        from repro.engine import ProcessExecuteBackend

        engine = make_engine(
            database, domain, execute_workers=2, execute_backend="process"
        )
        engine._execute_backend.close()
        engine._execute_backend = ProcessExecuteBackend(max_workers=1)
        with engine:
            engine.open_session("alice", 20.0)
            engine.submit("alice", identity_workload(domain), epsilon=0.5)
            engine.submit("alice", identity_workload(domain), epsilon=0.7)
            engine.flush()
            assert engine._execute_backend.reset_resident_caches() == 1
            engine.submit("alice", identity_workload(domain), epsilon=0.5)
            engine.submit("alice", identity_workload(domain), epsilon=0.7)
            with caplog.at_level(logging.INFO, logger="repro.engine.parallel"):
                engine.flush()
            assert any(
                "resident cache" in record.message or "miss" in record.message
                for record in caplog.records
            )


# ---------------------------------------------------------------------------
# Stats re-derived from the registry
# ---------------------------------------------------------------------------
class TestStatsFromRegistry:
    def test_stats_and_registry_agree(self, database, domain):
        obs = Observability(enabled=True)
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        engine.ask("alice", cumulative_workload(domain), epsilon=0.5)
        stats = engine.stats
        payload = json.loads(obs.metrics.to_json())
        counters = payload["counters"]
        assert counters["engine_queries_submitted_total"]["value"] == stats.queries_submitted == 2
        assert counters["engine_queries_answered_total"]["value"] == stats.queries_answered == 2
        assert counters["engine_flushes_total"]["value"] == stats.flushes == 2
        assert counters["engine_plan_cache_lookups_total{result=\"miss\"}"]["value"] == stats.plan_misses
        assert stats.plan_seconds > 0.0
        text = obs.metrics.to_prometheus_text()
        assert "engine_queries_submitted_total 2.0" in text

    def test_disabled_engine_keeps_full_stats(self, database, domain):
        engine = make_engine(database, domain)
        engine.open_session("alice", 10.0)
        engine.ask("alice", identity_workload(domain), epsilon=0.5)
        stats = engine.stats
        assert stats.queries_submitted == stats.queries_answered == 1
        assert stats.flushes == 1
        assert stats.plan_misses == 1
        assert stats.epsilon_spent == pytest.approx(10.0)  # session reservation

    def test_enabled_observability_never_changes_the_noise(
        self, database, domain
    ):
        """Instrumentation must not touch the RNG stream."""

        def serve(observability):
            engine = make_engine(
                database, domain, random_state=1234, observability=observability
            )
            engine.open_session("alice", 10.0)
            engine.submit("alice", identity_workload(domain), epsilon=0.5)
            engine.submit("alice", cumulative_workload(domain), epsilon=0.25)
            tickets = engine.flush()
            return [ticket.result() for ticket in tickets]

        baseline = serve(None)
        observed = serve(Observability(enabled=True, audit=AuditLog()))
        for expected, actual in zip(baseline, observed):
            np.testing.assert_array_equal(expected, actual)


# ---------------------------------------------------------------------------
# Executor trigger metrics
# ---------------------------------------------------------------------------
class TestExecutorMetrics:
    def test_size_trigger_counts(self, database, domain):
        from repro.engine import BatchingExecutor

        obs = Observability(enabled=True)
        engine = make_engine(database, domain, observability=obs)
        engine.open_session("alice", 20.0)
        with BatchingExecutor(engine, max_batch_size=2, max_delay=5.0) as executor:
            executor.submit("alice", identity_workload(domain), 0.1)
            ticket = executor.submit("alice", cumulative_workload(domain), 0.1)
            ticket.wait(5.0)
        payload = json.loads(obs.metrics.to_json())
        size = payload["counters"]['executor_flush_triggers_total{trigger="size"}']
        assert size["value"] >= 1
