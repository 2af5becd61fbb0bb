"""Overload protection: deadlines, cancellation, admission control, drain.

The invariant every test here circles: **shed, expired and cancelled work
costs zero ε**.  Overload protection that leaked budget would turn a
traffic spike into a privacy incident — the pipeline drops expired tickets
*before* the charge stage, cancellation only wins while the ticket is
unclaimed, and admission sheds before ``engine.submit`` ever runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import Database, Domain, identity_workload, total_workload
from repro.engine import (
    CANCELLED,
    EXPIRED,
    BatchingExecutor,
    PrivateQueryEngine,
    recover_accountant,
)
from repro.engine.serving import (
    AdmissionController,
    ServingServer,
    TokenBucket,
    create_app,
)
from repro.engine.serving.http import Request
from repro.exceptions import (
    DeadlineExpiredError,
    MechanismError,
    QueryCancelledError,
)
from repro.policy import line_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[2, 9, 14]] = [4.0, 7.0, 3.0]
    return Database(domain, counts, name="overload16")


def build_engine(database: Database, domain: Domain, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=50.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=29,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


# ------------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_born_dead_submit_resolves_expired_immediately(self, database, domain):
        engine = build_engine(database, domain)
        session = engine.open_session("alice", 10.0)
        ticket = engine.submit(
            "alice", identity_workload(domain), 0.5, deadline=time.monotonic() - 1.0
        )
        assert ticket.status == EXPIRED
        assert ticket.done()
        assert engine.pending_count == 0
        assert session.spent() == 0.0
        with pytest.raises(DeadlineExpiredError):
            ticket.result()
        engine.close()

    def test_queued_ticket_expires_at_pickup_with_zero_epsilon(self, database, domain):
        engine = build_engine(database, domain)
        session = engine.open_session("alice", 10.0)
        expired = engine.submit(
            "alice",
            identity_workload(domain),
            0.5,
            deadline=time.monotonic() + 0.01,
        )
        live = engine.submit("alice", total_workload(domain), 0.25)
        time.sleep(0.03)
        engine.flush()
        assert expired.status == EXPIRED
        assert live.status == "answered"
        # Only the live query was charged.
        assert session.spent() == pytest.approx(0.25)
        stats = engine.stats
        assert stats.queries_expired == 1
        assert stats.queries_answered == 1
        engine.close()

    def test_future_deadline_answers_normally(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        answers = engine.ask(
            "alice",
            identity_workload(domain),
            0.5,
            deadline=time.monotonic() + 30.0,
        )
        assert answers.shape == (16,)
        engine.close()

    def test_non_finite_deadline_rejected(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        with pytest.raises(MechanismError, match="deadline"):
            engine.submit(
                "alice", identity_workload(domain), 0.5, deadline=float("nan")
            )
        engine.close()

    def test_expired_drop_preserves_rng_stream(self, database, domain):
        """The privacy-critical determinism property.

        A flush whose pickup drops an expired ticket must produce draws
        byte-identical to a run where that ticket was never submitted:
        the drop happens before grouping, so batch composition — and with
        it per-batch RNG child derivation — is unchanged.
        """

        def run(with_expired: bool) -> np.ndarray:
            engine = build_engine(database, domain)
            engine.open_session("alice", 10.0)
            if with_expired:
                engine.submit(
                    "alice",
                    identity_workload(domain),
                    0.5,
                    deadline=time.monotonic() - 1.0,  # born dead, never queued
                )
                dead = engine.submit(
                    "alice",
                    total_workload(domain),
                    0.5,
                    deadline=time.monotonic() + 0.005,
                )
                time.sleep(0.02)
            live = engine.submit("alice", identity_workload(domain), 0.25)
            engine.flush()
            if with_expired:
                assert dead.status == EXPIRED
            answers = live.result()
            engine.close()
            return answers

        np.testing.assert_array_equal(run(with_expired=True), run(with_expired=False))

    def test_executor_forwards_deadline(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        with BatchingExecutor(engine, max_batch_size=64, max_delay=5.0) as executor:
            ticket = executor.submit(
                "alice",
                identity_workload(domain),
                0.5,
                deadline=time.monotonic() - 1.0,
            )
            assert ticket.status == EXPIRED
        engine.close()


# ---------------------------------------------------------------- cancellation
class TestCancellation:
    def test_cancel_pending_ticket_costs_nothing(self, database, domain):
        engine = build_engine(database, domain)
        session = engine.open_session("alice", 10.0)
        ticket = engine.submit("alice", identity_workload(domain), 0.5)
        assert ticket.cancel() is True
        assert ticket.status == CANCELLED
        assert ticket.done()
        with pytest.raises(QueryCancelledError):
            ticket.result()
        # The flush skips the cancelled ticket entirely.
        resolved = engine.flush()
        assert ticket not in resolved or ticket.status == CANCELLED
        assert session.spent() == 0.0
        assert engine.stats.queries_cancelled == 1
        engine.close()

    def test_cancel_after_resolution_fails(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        ticket = engine.submit("alice", identity_workload(domain), 0.5)
        engine.flush()
        assert ticket.status == "answered"
        assert ticket.cancel() is False
        assert ticket.status == "answered"
        engine.close()

    def test_double_cancel_second_loses(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        ticket = engine.submit("alice", identity_workload(domain), 0.5)
        assert ticket.cancel() is True
        assert ticket.cancel() is False
        assert engine.stats.queries_cancelled == 1
        engine.close()

    def test_cancelled_ticket_does_not_shift_rng_for_others(self, database, domain):
        def run(with_cancel: bool) -> np.ndarray:
            engine = build_engine(database, domain)
            engine.open_session("alice", 10.0)
            if with_cancel:
                engine.submit("alice", total_workload(domain), 0.5).cancel()
            live = engine.submit("alice", identity_workload(domain), 0.25)
            engine.flush()
            answers = live.result()
            engine.close()
            return answers

        np.testing.assert_array_equal(run(True), run(False))


# ------------------------------------------------------------------- admission
#: Clock origins for the bucket tests.  Float seconds lose precision as
#: the origin grows: ``(100 + 0.1) - 100`` and ``(1e6 + 0.1) - 1e6`` both
#: round to just under 0.1, so the refill must not depend on host uptime.
CLOCK_ORIGINS = (0.0, 100.0, 1e6, 1e9)


class TestTokenBucket:
    @pytest.mark.parametrize("start", CLOCK_ORIGINS)
    def test_burst_then_dry_then_refill(self, start):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_acquire(start)
        assert bucket.try_acquire(start)
        assert not bucket.try_acquire(start)
        # 0.1 s refills one token at 10/s.
        assert bucket.try_acquire(start + 0.1)
        assert not bucket.try_acquire(start + 0.1)

    @pytest.mark.parametrize("start", CLOCK_ORIGINS)
    def test_refill_caps_at_burst(self, start):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_acquire(start)
        # A long idle period refills to burst, not beyond.
        later = start + 60.0
        for _ in range(3):
            assert bucket.try_acquire(later)
        assert not bucket.try_acquire(later)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


class TestAdmissionController:
    def test_queue_full_sheds_503(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        control = AdmissionController(engine, max_pending=2)
        engine.submit("alice", identity_workload(domain), 0.1)
        engine.submit("alice", identity_workload(domain), 0.1)
        decision = control.admit("alice")
        assert decision is not None
        assert decision.status == 503
        assert decision.reason == "queue_full"
        assert decision.retry_after > 0
        engine.flush()
        assert control.admit("alice") is None
        engine.close()

    def test_inflight_cap_releases_on_any_terminal_path(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        control = AdmissionController(engine, max_pending=100, max_inflight=2)
        t1 = engine.submit("alice", identity_workload(domain), 0.1)
        control.register(t1)
        t2 = engine.submit("alice", total_workload(domain), 0.1)
        control.register(t2)
        assert control.inflight == 2
        decision = control.admit("alice")
        assert decision is not None and decision.reason == "inflight_cap"
        # Cancellation is a terminal path: it must free the slot.
        assert t2.cancel()
        assert control.inflight == 1
        assert control.admit("alice") is None
        engine.flush()
        assert control.inflight == 0
        engine.close()

    def test_per_client_rate_limit_sheds_429(self, database, domain):
        engine = build_engine(database, domain)
        control = AdmissionController(engine, client_rate=1.0, client_burst=1.0)
        assert control.admit("alice") is None
        decision = control.admit("alice")
        assert decision is not None
        assert decision.status == 429
        assert decision.reason == "rate_limited"
        # Another client has its own bucket.
        assert control.admit("bob") is None
        engine.close()

    def test_draining_beats_every_other_check(self, database, domain):
        engine = build_engine(database, domain)
        control = AdmissionController(engine)
        decision = control.admit("alice", draining=True)
        assert decision is not None
        assert decision.status == 503
        assert decision.reason == "draining"
        engine.close()

    def test_shed_counters_flow_to_metrics(self, database, domain):
        engine = build_engine(database, domain)
        control = AdmissionController(engine, client_rate=1.0, client_burst=1.0)
        control.admit("alice")
        control.admit("alice")  # shed: rate_limited
        control.admit("bob", draining=True)  # shed: draining
        text = engine.observability.metrics.to_prometheus_text()
        assert 'serving_shed_total{reason="rate_limited"} 1' in text
        assert 'serving_shed_total{reason="draining"} 1' in text
        engine.close()

    def test_retry_after_tracks_flush_latency_ewma(self, database, domain):
        engine = build_engine(database, domain)
        control = AdmissionController(engine)
        assert control.retry_after() == control.min_retry_after
        control.observe_flush_seconds(1.0)
        assert control.retry_after() == pytest.approx(2.0)
        control.observe_flush_seconds(0.5)
        # EWMA: 0.8 * 1.0 + 0.2 * 0.5 = 0.9 → retry 1.8.
        assert control.retry_after() == pytest.approx(1.8)
        engine.close()

    def test_invalid_limits_rejected(self, database, domain):
        engine = build_engine(database, domain)
        with pytest.raises(ValueError):
            AdmissionController(engine, max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(engine, max_inflight=-1)
        engine.close()


# -------------------------------------------------------------- HTTP overload
def dispatch(app, method, path, body=None, headers=None):
    """Dispatch one request straight into the app (no socket)."""
    payload = json.dumps(body).encode() if body is not None else b""
    request = Request(
        method=method,
        path=path,
        query={},
        headers={k.lower(): v for k, v in (headers or {}).items()},
        body=payload,
        keep_alive=True,
    )
    return asyncio.run(app.dispatch(request))


class TestServingOverload:
    def make_app(self, database, domain, **kwargs):
        engine = build_engine(database, domain)
        engine.open_session("alice", 20.0)
        app = create_app(engine, max_batch_size=1000, max_delay=60.0, **kwargs)
        return engine, app

    def submit_body(self, epsilon=0.1, wait=False):
        return {
            "client_id": "alice",
            "workload": {"kind": "identity"},
            "epsilon": epsilon,
            "wait": wait,
        }

    def test_shed_queue_full_over_http(self, database, domain):
        engine, app = self.make_app(database, domain)
        app.admission = AdmissionController(engine, max_pending=1)

        async def scenario():
            first = await app.dispatch(
                Request("POST", "/api/queries", {}, {},
                        json.dumps(self.submit_body()).encode(), True)
            )
            second = await app.dispatch(
                Request("POST", "/api/queries", {}, {},
                        json.dumps(self.submit_body()).encode(), True)
            )
            await app.aclose()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == 202
        assert second.status == 503
        shed = json.loads(second.body)
        assert shed["reason"] == "queue_full"
        assert int(second.headers["Retry-After"]) >= 1
        engine.close()

    def test_shed_rate_limited_is_429(self, database, domain):
        engine, app = self.make_app(database, domain)
        app.admission = AdmissionController(engine, client_rate=1.0, client_burst=1.0)

        async def scenario():
            first = await app.dispatch(
                Request("POST", "/api/queries", {}, {},
                        json.dumps(self.submit_body()).encode(), True)
            )
            second = await app.dispatch(
                Request("POST", "/api/queries", {}, {},
                        json.dumps(self.submit_body()).encode(), True)
            )
            await app.aclose()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == 202
        assert second.status == 429
        assert json.loads(second.body)["reason"] == "rate_limited"
        assert "Retry-After" in second.headers
        engine.close()

    def test_shed_costs_zero_epsilon(self, database, domain):
        engine, app = self.make_app(database, domain)
        app.admission = AdmissionController(engine, client_rate=1.0, client_burst=1.0)
        session = engine.session("alice")

        async def scenario():
            for _ in range(5):
                await app.dispatch(
                    Request("POST", "/api/queries", {}, {},
                            json.dumps(self.submit_body()).encode(), True)
                )
            await app.aclose()

        asyncio.run(scenario())
        # One admitted (drained by aclose), four shed before submit.
        assert session.spent() == pytest.approx(0.1)
        assert engine.stats.queries_submitted == 1
        engine.close()

    def test_request_deadline_header_expires_at_zero_epsilon(self, database, domain):
        engine, app = self.make_app(database, domain)
        session = engine.session("alice")

        async def scenario():
            response = await app.dispatch(
                Request(
                    "POST", "/api/queries", {},
                    {"x-request-deadline": str(time.time() - 5.0)},
                    json.dumps(self.submit_body()).encode(), True,
                )
            )
            await app.aclose()
            return response

        response = asyncio.run(scenario())
        assert response.status == 202
        payload = json.loads(response.body)
        assert payload["status"] == "expired"
        assert "error" in payload
        assert session.spent() == 0.0
        engine.close()

    def test_bad_deadline_header_is_400(self, database, domain):
        engine, app = self.make_app(database, domain)

        async def scenario():
            response = await app.dispatch(
                Request(
                    "POST", "/api/queries", {},
                    {"x-request-deadline": "not-a-number"},
                    json.dumps(self.submit_body()).encode(), True,
                )
            )
            await app.aclose()
            return response

        assert asyncio.run(scenario()).status == 400
        engine.close()

    def test_cancel_endpoint_lifecycle(self, database, domain):
        engine, app = self.make_app(database, domain)

        async def scenario():
            submitted = await app.dispatch(
                Request("POST", "/api/queries", {}, {},
                        json.dumps(self.submit_body()).encode(), True)
            )
            ticket_id = json.loads(submitted.body)["ticket_id"]
            first = await app.dispatch(
                Request("DELETE", f"/api/queries/{ticket_id}", {}, {}, b"", True)
            )
            second = await app.dispatch(
                Request("DELETE", f"/api/queries/{ticket_id}", {}, {}, b"", True)
            )
            missing = await app.dispatch(
                Request("DELETE", "/api/queries/99999", {}, {}, b"", True)
            )
            listed = await app.dispatch(
                Request("GET", "/api/queries", {"status": "cancelled"}, {}, b"", True)
            )
            await app.aclose()
            return first, second, missing, listed

        first, second, missing, listed = asyncio.run(scenario())
        assert first.status == 200
        assert json.loads(first.body)["status"] == "cancelled"
        assert second.status == 409
        assert missing.status == 404
        items = json.loads(listed.body)["items"]
        assert len(items) == 1 and items[0]["status"] == "cancelled"
        assert engine.session("alice").spent() == 0.0
        engine.close()

    def test_cancel_answered_ticket_is_409_no_refund(self, database, domain):
        engine, app = self.make_app(database, domain)
        session = engine.session("alice")

        async def scenario():
            submitted = await app.dispatch(
                Request("POST", "/api/queries", {}, {},
                        json.dumps(self.submit_body(wait=False)).encode(), True)
            )
            ticket_id = json.loads(submitted.body)["ticket_id"]
            await app.async_engine.flush()
            cancel = await app.dispatch(
                Request("DELETE", f"/api/queries/{ticket_id}", {}, {}, b"", True)
            )
            await app.aclose()
            return cancel

        cancel = asyncio.run(scenario())
        assert cancel.status == 409
        assert json.loads(cancel.body)["status"] == "answered"
        assert session.spent() == pytest.approx(0.1)
        engine.close()

    def test_ready_flips_on_drain_health_stays_green(self, database, domain):
        engine, app = self.make_app(database, domain)

        async def scenario():
            ready_before = await app.dispatch(Request("GET", "/ready", {}, {}, b"", True))
            app.drain()
            ready_after = await app.dispatch(Request("GET", "/ready", {}, {}, b"", True))
            health_after = await app.dispatch(Request("GET", "/health", {}, {}, b"", True))
            shed = await app.dispatch(
                Request("POST", "/api/queries", {}, {},
                        json.dumps(self.submit_body()).encode(), True)
            )
            await app.aclose()
            return ready_before, ready_after, health_after, shed

        ready_before, ready_after, health_after, shed = asyncio.run(scenario())
        assert ready_before.status == 200
        assert ready_after.status == 503
        assert "Retry-After" in ready_after.headers
        assert health_after.status == 200
        assert shed.status == 503
        assert json.loads(shed.body)["reason"] == "draining"
        engine.close()

    def test_expired_counter_on_metrics_endpoint(self, database, domain):
        engine, app = self.make_app(database, domain)

        async def scenario():
            await app.dispatch(
                Request(
                    "POST", "/api/queries", {},
                    {"x-request-deadline": str(time.time() - 5.0)},
                    json.dumps(self.submit_body()).encode(), True,
                )
            )
            metrics = await app.dispatch(Request("GET", "/metrics", {}, {}, b"", True))
            await app.aclose()
            return metrics

        text = asyncio.run(scenario()).body.decode()
        assert "engine_queries_expired_total 1" in text
        engine.close()


class TestLoadedVsCalm:
    ADMITTED = 8

    def serve(self, database, domain, ledger_path, loaded):
        """Admit 8 queries over HTTP; a loaded run then piles abuse on top.

        The abuse is 8 born-dead submits (admitted, resolved ``expired``
        without queueing) and 8 submits the spent token bucket sheds with
        429 — all after the admitted ones, because ticket ids are embedded
        in charge labels.  Returns the admitted answers, every journalled
        ledger operation and the engine's expired count.
        """
        engine = build_engine(
            database, domain, random_state=23, durable_ledger=ledger_path
        )
        engine.open_session("alice", 20.0)
        # A negligible refill rate: the burst covers the admitted queries
        # plus the born-dead ones, and every later submit sheds whatever
        # the wall clock does.
        app = create_app(
            engine,
            max_batch_size=100_000,
            max_delay=600.0,
            admission=AdmissionController(
                engine, client_rate=1e-9, client_burst=float(2 * self.ADMITTED)
            ),
        )

        def post(body, headers=None):
            request = Request(
                "POST", "/api/queries", {}, headers or {},
                json.dumps(body).encode(), True,
            )
            return app.dispatch(request)

        def body(index):
            row = [0.0] * domain.size
            row[(7 * index) % domain.size] = 1.0
            return {
                "client_id": "alice",
                "workload": {"kind": "rows", "rows": [row]},
                "epsilon": 0.01,
            }

        async def scenario():
            ticket_ids = []
            for index in range(self.ADMITTED):
                response = await post(body(index))
                assert response.status == 202
                ticket_ids.append(json.loads(response.body)["ticket_id"])
            if loaded:
                dead = {"x-request-deadline": str(time.time() - 60.0)}
                for _ in range(self.ADMITTED):
                    expired = await post(body(0), dead)
                    assert expired.status == 202
                    assert json.loads(expired.body)["status"] == "expired"
                for _ in range(self.ADMITTED):
                    assert (await post(body(0))).status == 429
            await app.async_engine.flush()
            answers = []
            for ticket_id in ticket_ids:
                poll = await app.dispatch(
                    Request("GET", f"/api/queries/{ticket_id}", {}, {}, b"", True)
                )
                payload = json.loads(poll.body)
                assert payload["status"] == "answered"
                answers.append(payload["answers"])
            await app.aclose()
            return answers

        answers = asyncio.run(scenario())
        expired = engine.stats.queries_expired
        engine.close()
        reader, state = recover_accountant(ledger_path)
        operations = [
            (scope.label, op.label, op.epsilon)
            for scope in state.scopes
            for op in scope.accountant.operations
        ] + [(None, op.label, op.epsilon) for op in state.accountant.operations]
        reader.close()
        return answers, operations, expired

    def test_shed_and_expired_work_leaves_ledger_and_draws_unchanged(
        self, database, domain, tmp_path
    ):
        loaded = self.serve(database, domain, str(tmp_path / "loaded.db"), True)
        calm = self.serve(database, domain, str(tmp_path / "calm.db"), False)
        loaded_answers, loaded_ops, loaded_expired = loaded
        calm_answers, calm_ops, _ = calm
        assert loaded_expired == self.ADMITTED
        # The session allotment plus one charge per admitted query.
        assert len(loaded_ops) == self.ADMITTED + 1
        assert json.dumps(loaded_ops) == json.dumps(calm_ops)
        assert loaded_answers == calm_answers


# ------------------------------------------------------------- graceful drain
class TestGracefulDrain:
    def test_sigterm_drains_inflight_and_exits_zero(self, tmp_path):
        """Boot the real server, load it, SIGTERM it, assert a clean drain.

        The acceptance gate: every in-flight ticket resolves (the drain
        banner reports pending=0), readiness flips during the drain, and
        the process exits 0.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.setdefault("PYTHONUNBUFFERED", "1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.serving", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on http://" in banner
            port = int(banner.rstrip().rsplit(":", 1)[1])

            async def load():
                async def call(method, path, body=None):
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    payload = json.dumps(body).encode() if body is not None else b""
                    writer.write(
                        (
                            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                            f"Content-Length: {len(payload)}\r\n"
                            "Connection: close\r\n\r\n"
                        ).encode()
                        + payload
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                    return int(raw.split(b" ", 2)[1])

                assert await call(
                    "POST",
                    "/api/clients",
                    {"client_id": "alice", "epsilon_allotment": 2.0},
                ) == 201
                # Queue work without waiting so it is genuinely in flight
                # when the SIGTERM lands.
                for _ in range(5):
                    status = await call(
                        "POST",
                        "/api/queries",
                        {
                            "client_id": "alice",
                            "workload": {"kind": "identity"},
                            "epsilon": 0.05,
                        },
                    )
                    assert status == 202
                assert await call("GET", "/ready") == 200

            asyncio.run(load())
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            drain_lines = [l for l in out.splitlines() if l.startswith("drain complete:")]
            assert drain_lines, out
            assert "pending=0" in drain_lines[0]
            # Every admitted ticket resolved: 5 queued queries answered.
            assert "answered=5" in drain_lines[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
