"""Serving chaos harness: faults on the live HTTP path.

Extends the durability tier's fault matrix (crash points, disk-full,
worker kill) to the serving tier: a stalled flusher, a failing flush, a
ledger that hits ENOSPC mid-serving, a worker SIGKILLed under live
traffic.  The claims under test are the robustness tentpole's:

* **shed, don't crash** — every fault degrades into refusals/sheds/5xx
  responses while the server keeps answering; no fault kills the process
  or strands a ticket.
* **fail closed on ε** — a fault that stops an answer also stops (or
  rolls back) its charge; admitted work that *does* answer produces
  draws byte-identical to an unfaulted run, because faults never consume
  RNG stream.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.core import Database, Domain
from repro.engine import (
    SERVING_FAULT_POINTS,
    FaultInjector,
    PrivateQueryEngine,
    parallel,
    recover_accountant,
)
from repro.engine.serving import AdmissionController, create_app
from repro.engine.serving.http import Request
from repro.policy import line_policy


@pytest.fixture(autouse=True)
def clear_faults():
    FaultInjector.clear()
    yield
    FaultInjector.clear()


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[1, 6, 12]] = [9.0, 2.0, 5.0]
    return Database(domain, counts, name="chaos16")


def build_engine(database: Database, domain: Domain, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=50.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=31,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


def request(method, path, body=None, query=None):
    payload = json.dumps(body).encode() if body is not None else b""
    return Request(method, path, query or {}, {}, payload, True)


SUBMIT = {
    "client_id": "alice",
    "workload": {"kind": "identity"},
    "epsilon": 0.1,
}


def test_serving_fault_points_registered():
    assert SERVING_FAULT_POINTS == ("serving-flush",)


class TestFlusherFaults:
    def test_failing_flush_leaves_tickets_pending_then_recovers(
        self, database, domain
    ):
        """A flush that dies before running charges nothing and strands nothing."""
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        app = create_app(engine, max_batch_size=1000, max_delay=60.0)
        session = engine.session("alice")

        async def scenario():
            submitted = await app.dispatch(request("POST", "/api/queries", SUBMIT))
            assert submitted.status == 202
            FaultInjector().fail_at(
                "serving-flush", lambda: RuntimeError("injected flusher death")
            ).install()
            broken = await app.dispatch(request("POST", "/api/flush"))
            # The fault fires before engine.flush(): the flush request
            # errors (500), the ticket stays pending, nothing was charged.
            assert broken.status == 500
            assert session.spent() == 0.0
            ticket_id = json.loads(submitted.body)["ticket_id"]
            poll = await app.dispatch(request("GET", f"/api/queries/{ticket_id}"))
            assert json.loads(poll.body)["status"] == "pending"
            FaultInjector.clear()
            fixed = await app.dispatch(request("POST", "/api/flush"))
            assert fixed.status == 200
            poll = await app.dispatch(request("GET", f"/api/queries/{ticket_id}"))
            assert json.loads(poll.body)["status"] == "answered"
            await app.aclose()

        asyncio.run(scenario())
        assert session.spent() == pytest.approx(0.1)
        engine.close()

    def test_stalled_flusher_sheds_new_load_and_grows_retry_hint(
        self, database, domain
    ):
        """While the flusher stalls, admission keeps shedding around it."""
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        app = create_app(engine, max_batch_size=1000, max_delay=60.0)
        app.admission = AdmissionController(engine, max_pending=1)
        app.async_engine.add_flush_observer(app.admission.observe_flush_seconds)

        async def scenario():
            submitted = await app.dispatch(request("POST", "/api/queries", SUBMIT))
            assert submitted.status == 202
            FaultInjector().stall_at("serving-flush", 0.3).install()
            flush_task = asyncio.ensure_future(app.async_engine.flush())
            # Let the flusher thread enter the stall; the pending queue is
            # not drained until the stall ends (the fault fires before
            # engine.flush()), so the admission edge still sees it full.
            await asyncio.sleep(0.05)
            shed = await app.dispatch(request("POST", "/api/queries", SUBMIT))
            assert shed.status == 503
            assert json.loads(shed.body)["reason"] == "queue_full"
            await flush_task
            ticket_id = json.loads(submitted.body)["ticket_id"]
            poll = await app.dispatch(request("GET", f"/api/queries/{ticket_id}"))
            assert json.loads(poll.body)["status"] == "answered"
            await app.aclose()

        asyncio.run(scenario())
        # The stall fed the Retry-After EWMA: the hint now reflects it.
        assert app.admission.retry_after() >= 0.3
        engine.close()

    def test_admitted_draws_identical_under_stall_chaos(self, database, domain):
        """Faults must not consume RNG: chaos and calm runs draw identically."""

        def run(with_stall: bool) -> list:
            engine = build_engine(database, domain)
            engine.open_session("alice", 10.0)
            app = create_app(engine, max_batch_size=1000, max_delay=60.0)
            if with_stall:
                FaultInjector().stall_at("serving-flush", 0.05).install()

            async def scenario():
                responses = []
                for _ in range(3):
                    responses.append(
                        await app.dispatch(request("POST", "/api/queries", SUBMIT))
                    )
                await app.async_engine.flush()
                answers = []
                for response in responses:
                    ticket_id = json.loads(response.body)["ticket_id"]
                    poll = await app.dispatch(
                        request("GET", f"/api/queries/{ticket_id}")
                    )
                    payload = json.loads(poll.body)
                    assert payload["status"] == "answered"
                    answers.append(payload["answers"])
                await app.aclose()
                return answers

            answers = asyncio.run(scenario())
            FaultInjector.clear()
            engine.close()
            return answers

        assert run(with_stall=True) == run(with_stall=False)


class TestLedgerFaults:
    def test_disk_full_mid_serving_refuses_fail_closed(
        self, database, domain, tmp_path
    ):
        """ENOSPC on the ledger append turns charges into refusals, not crashes."""
        path = str(tmp_path / "serving-ledger.db")
        engine = build_engine(database, domain, durable_ledger=path)
        engine.open_session("alice", 10.0)
        # Default triggers: the deadline flusher drives wait=true submits.
        app = create_app(engine)
        session = engine.session("alice")

        async def scenario():
            FaultInjector().disk_full_at("ledger-append").install()
            body = dict(SUBMIT, wait=True, timeout=10)
            broken = await app.dispatch(request("POST", "/api/queries", body))
            # The transport worked; the refusal is the payload.
            assert broken.status == 200
            payload = json.loads(broken.body)
            assert payload["status"] == "refused"
            assert "refused query" in payload["error"]
            FaultInjector.clear()
            healthy = await app.dispatch(request("POST", "/api/queries", body))
            assert json.loads(healthy.body)["status"] == "answered"
            await app.aclose()

        asyncio.run(scenario())
        # Fail-closed both in memory and on disk: only the healthy charge.
        assert session.spent() == pytest.approx(0.1)
        engine.close()

    def test_ledger_byte_identical_for_admitted_work_under_shed(
        self, database, domain, tmp_path
    ):
        """Shed traffic must leave the durable ledger untouched.

        Two servers: one loaded past its admission limits (extra submits
        all shed), one given only the admitted workload.  Their ledgers
        must agree byte-for-byte on the charges journalled.
        """

        def run(shed_extra: bool, path: str) -> bytes:
            engine = build_engine(database, domain, durable_ledger=path)
            engine.open_session("alice", 10.0)
            app = create_app(engine, max_batch_size=1000, max_delay=60.0)
            app.admission = AdmissionController(
                engine, client_rate=0.001, client_burst=2.0
            )

            async def scenario():
                admitted = 0
                attempts = 6 if shed_extra else 2
                for _ in range(attempts):
                    response = await app.dispatch(
                        request("POST", "/api/queries", SUBMIT)
                    )
                    if response.status == 202:
                        admitted += 1
                assert admitted == 2
                await app.async_engine.flush()
                await app.aclose()

            asyncio.run(scenario())
            engine.close()
            reader, state = recover_accountant(path)
            operations = [
                (scope.label, op.label, op.epsilon)
                for scope in state.scopes
                for op in scope.accountant.operations
            ]
            operations += [
                (None, op.label, op.epsilon)
                for op in state.accountant.operations
            ]
            reader.close()
            return json.dumps(operations).encode()

        loaded = run(shed_extra=True, path=str(tmp_path / "loaded.db"))
        calm = run(shed_extra=False, path=str(tmp_path / "calm.db"))
        assert loaded == calm


class TestWorkerKill:
    def test_kill_worker_mid_serving_rolls_back_then_recovers(
        self, database, domain, monkeypatch
    ):
        """SIGKILLing a worker under live traffic: rollback, respawn, serve."""
        engine = build_engine(
            database,
            domain,
            total_epsilon=100.0,
            execute_workers=2,
            execute_backend="process",
        )
        monkeypatch.setattr(parallel, "RESPAWN_BACKOFF", 0.01)
        engine.open_session("alice", 50.0)
        app = create_app(engine, max_batch_size=1000, max_delay=60.0,
                         enable_chaos=True)
        session = engine.session("alice")

        async def round_trip(epsilons):
            """Submit two distinct workloads in one flush (spawns the pool —
            a lone unit would run inline) and return their terminal payloads."""
            submitted = []
            for kind, epsilon in zip(("identity", "cumulative"), epsilons):
                body = {
                    "client_id": "alice",
                    "workload": {"kind": kind},
                    "epsilon": epsilon,
                }
                response = await app.dispatch(request("POST", "/api/queries", body))
                assert response.status == 202
                submitted.append(json.loads(response.body)["ticket_id"])
            await app.async_engine.flush()
            payloads = []
            for ticket_id in submitted:
                poll = await app.dispatch(request("GET", f"/api/queries/{ticket_id}"))
                payloads.append(json.loads(poll.body))
            return payloads

        async def scenario():
            warm = await round_trip((1.0, 1.25))
            assert [p["status"] for p in warm] == ["answered", "answered"]
            killed = await app.dispatch(
                request("POST", "/api/chaos", {"action": "kill_worker"})
            )
            assert killed.status == 200
            assert json.loads(killed.body)["pid"] > 0
            await asyncio.sleep(0.3)
            # The round that hits the broken pool rolls back (refused) or
            # answers via respawn/inline — never crashes, never leaks ε.
            broken = await round_trip((1.05, 1.3))
            for payload in broken:
                assert payload["status"] in ("answered", "refused")
                if payload["status"] == "refused":
                    assert "rolled back" in payload["error"]
            fresh = await round_trip((1.1, 1.35))
            assert [p["status"] for p in fresh] == ["answered", "answered"]
            await app.aclose()
            return warm + broken + fresh

        payloads = asyncio.run(scenario())
        # ε accounting held through the kill: spent covers exactly the
        # answered queries (rollbacks refunded the rest).
        answered_epsilon = sum(
            p["epsilon"] for p in payloads if p["status"] == "answered"
        )
        assert session.spent() == pytest.approx(answered_epsilon)
        engine.close()

    def test_kill_worker_without_pool_is_409(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        app = create_app(engine, enable_chaos=True)

        async def scenario():
            response = await app.dispatch(
                request("POST", "/api/chaos", {"action": "kill_worker"})
            )
            await app.aclose()
            return response

        assert asyncio.run(scenario()).status == 409
        engine.close()


class TestChaosEndpoint:
    def test_not_installed_without_flag(self, database, domain):
        engine = build_engine(database, domain)
        app = create_app(engine)

        async def scenario():
            response = await app.dispatch(
                request("POST", "/api/chaos", {"action": "clear"})
            )
            await app.aclose()
            return response

        assert asyncio.run(scenario()).status == 404
        engine.close()

    def test_validation_rejects_unknown_actions_and_points(self, database, domain):
        engine = build_engine(database, domain)
        app = create_app(engine, enable_chaos=True)

        async def scenario():
            bad_action = await app.dispatch(
                request("POST", "/api/chaos", {"action": "explode"})
            )
            bad_point = await app.dispatch(
                request("POST", "/api/chaos", {"action": "stall", "point": "nope",
                                               "seconds": 1})
            )
            bad_hits = await app.dispatch(
                request("POST", "/api/chaos", {"action": "fail",
                                               "point": "serving-flush", "hits": 0})
            )
            bad_seconds = await app.dispatch(
                request("POST", "/api/chaos", {"action": "stall",
                                               "point": "serving-flush",
                                               "seconds": -1})
            )
            await app.aclose()
            return bad_action, bad_point, bad_hits, bad_seconds

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [400, 400, 400, 400]
        engine.close()

    def test_arm_and_clear_over_the_api(self, database, domain):
        engine = build_engine(database, domain)
        engine.open_session("alice", 10.0)
        app = create_app(engine, max_batch_size=1000, max_delay=60.0,
                         enable_chaos=True)

        async def scenario():
            armed = await app.dispatch(
                request("POST", "/api/chaos",
                        {"action": "stall", "point": "serving-flush",
                         "seconds": 0.05})
            )
            assert armed.status == 200
            assert json.loads(armed.body)["status"] == "armed"
            assert FaultInjector.active() is not None
            start = time.monotonic()
            await app.dispatch(request("POST", "/api/queries", SUBMIT))
            await app.async_engine.flush()
            elapsed = time.monotonic() - start
            assert elapsed >= 0.05  # the stall fired
            cleared = await app.dispatch(
                request("POST", "/api/chaos", {"action": "clear"})
            )
            assert json.loads(cleared.body)["status"] == "cleared"
            assert FaultInjector.active() is None
            await app.aclose()

        asyncio.run(scenario())
        engine.close()
