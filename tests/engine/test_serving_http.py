"""The HTTP front-end: endpoints, status codes, pagination, determinism."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    workload_from_rows,
)
from repro.engine import PrivateQueryEngine
from repro.engine.serving import ServingServer, create_app, routes
from repro.engine.serving.http import Request
from repro.engine.serving.queries import parse_workload
from repro.exceptions import WorkloadError
from repro.policy import line_policy


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[4, 8, 13]] = [6.0, 2.0, 11.0]
    return Database(domain, counts, name="http16")


def build_engine(database: Database, domain: Domain, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=50.0,
        default_policy=line_policy(domain),
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=43,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


async def http(host, port, method, path, body=None, headers=None):
    """Minimal raw HTTP/1.1 client: (status, decoded JSON or text)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    status = int(raw.split(b" ", 2)[1])
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    if b"application/json" in head:
        return status, json.loads(body_bytes) if body_bytes else None
    return status, body_bytes.decode()


def serve(engine, scenario, **app_options):
    """Run ``scenario(host, port, server)`` against a live server."""

    async def runner():
        app = create_app(engine, **app_options)
        async with ServingServer(app) as server:
            return await scenario(server.host, server.port, server)

    return asyncio.run(runner())


class TestServiceEndpoints:
    def test_health(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            return await http(host, port, "GET", "/health")

        status, payload = serve(engine, scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["pending"] == 0

    def test_metrics_exposes_prometheus_text(self, database, domain):
        from repro.engine import Observability

        engine = build_engine(
            database, domain, observability=Observability(enabled=True)
        )

        async def scenario(host, port, server):
            await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 1.0},
            )
            await http(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "total"},
                    "epsilon": 0.25,
                    "wait": True,
                    "timeout": 10,
                },
            )
            return await http(host, port, "GET", "/metrics")

        status, text = serve(engine, scenario, max_delay=0.01)
        assert status == 200
        assert "# TYPE engine_queries_submitted_total counter" in text
        assert "engine_queries_answered_total 1" in text

    def test_unknown_route_and_wrong_method(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            return (
                await http(host, port, "GET", "/nope"),
                await http(host, port, "DELETE", "/health"),
            )

        (missing_status, _), (method_status, _) = serve(engine, scenario)
        assert missing_status == 404
        assert method_status == 405


class TestClientEndpoints:
    def test_register_then_budget_then_close(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            created = await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 1.5},
            )
            duplicate = await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 1.5},
            )
            budget = await http(host, port, "GET", "/api/clients/alice/budget")
            missing = await http(host, port, "GET", "/api/clients/ghost/budget")
            closed = await http(host, port, "DELETE", "/api/clients/alice")
            reclosed = await http(host, port, "DELETE", "/api/clients/alice")
            return created, duplicate, budget, missing, closed, reclosed

        created, duplicate, budget, missing, closed, reclosed = serve(engine, scenario)
        assert created[0] == 201
        assert created[1]["remaining"] == pytest.approx(1.5)
        assert duplicate[0] == 409
        assert budget[0] == 200
        assert budget[1]["client_id"] == "alice"
        assert missing[0] == 404
        assert closed[0] == 200
        assert closed[1]["refunded"] == pytest.approx(1.5)
        assert reclosed[0] == 409

    def test_register_rejects_bad_bodies_and_overdrafts(self, database, domain):
        engine = build_engine(database, domain, total_epsilon=1.0)

        async def scenario(host, port, server):
            return (
                await http(host, port, "POST", "/api/clients", {"client_id": ""}),
                await http(
                    host,
                    port,
                    "POST",
                    "/api/clients",
                    {"client_id": "a", "epsilon_allotment": "lots"},
                ),
                await http(
                    host,
                    port,
                    "POST",
                    "/api/clients",
                    {"client_id": "greedy", "epsilon_allotment": 99.0},
                ),
            )

        (empty, _), (non_numeric, _), (overdraft, _) = serve(engine, scenario)
        assert empty == 400
        assert non_numeric == 400
        assert overdraft == 403

    def test_client_listing_pages_and_sorts(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            for index in range(3):
                await http(
                    host,
                    port,
                    "POST",
                    "/api/clients",
                    {"client_id": f"c{index}", "epsilon_allotment": 1.0 + index},
                )
            return (
                await http(
                    host, port, "GET", "/api/clients?sort=-allotment&limit=2"
                ),
                await http(host, port, "GET", "/api/clients?limit=2&offset=2"),
                await http(host, port, "GET", "/api/clients?sort=shoe_size"),
            )

        (s1, page1), (s2, page2), (s3, invalid) = serve(engine, scenario)
        assert s1 == 200
        assert [item["client_id"] for item in page1["items"]] == ["c2", "c1"]
        assert page1["page"] == {"total": 3, "limit": 2, "offset": 0, "has_more": True}
        assert s2 == 200
        assert [item["client_id"] for item in page2["items"]] == ["c2"]
        assert page2["page"]["has_more"] is False
        assert s3 == 400
        assert "shoe_size" in invalid["error"]


class TestQueryEndpoints:
    def test_submit_wait_answers_inline(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 2.0},
            )
            return await http(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "identity"},
                    "epsilon": 0.5,
                    "wait": True,
                    "timeout": 10,
                },
            )

        status, payload = serve(engine, scenario, max_delay=0.01)
        assert status == 200
        assert payload["status"] == "answered"
        assert len(payload["answers"]) == domain.size
        assert payload["from_cache"] is False

    def test_submit_then_poll_and_flush(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 2.0},
            )
            accepted = await http(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "cumulative"},
                    "epsilon": 0.5,
                },
            )
            ticket_id = accepted[1]["ticket_id"]
            flushed = await http(host, port, "POST", "/api/flush")
            polled = await http(host, port, "GET", f"/api/queries/{ticket_id}")
            missing = await http(host, port, "GET", "/api/queries/999999")
            malformed = await http(host, port, "GET", "/api/queries/xyz")
            return accepted, flushed, polled, missing, malformed

        accepted, flushed, polled, missing, malformed = serve(
            engine, scenario, max_delay=30.0, max_batch_size=64
        )
        assert accepted[0] == 202
        assert accepted[1]["status"] == "pending"
        assert "answers" not in accepted[1]
        assert flushed[0] == 200
        assert flushed[1]["resolved"] == 1
        assert polled[0] == 200
        assert polled[1]["status"] == "answered"
        assert len(polled[1]["answers"]) == domain.size
        assert missing[0] == 404
        assert malformed[0] == 400

    def test_query_validation_statuses(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 2.0},
            )
            return (
                await http(
                    host,
                    port,
                    "POST",
                    "/api/queries",
                    {
                        "client_id": "ghost",
                        "workload": {"kind": "identity"},
                        "epsilon": 0.5,
                    },
                ),
                await http(
                    host,
                    port,
                    "POST",
                    "/api/queries",
                    {
                        "client_id": "alice",
                        "workload": {"kind": "septagonal"},
                        "epsilon": 0.5,
                    },
                ),
                await http(
                    host,
                    port,
                    "POST",
                    "/api/queries",
                    {
                        "client_id": "alice",
                        "workload": {"kind": "rows", "rows": [[1.0, 2.0]]},
                        "epsilon": 0.5,
                    },
                ),
                await http(host, port, "POST", "/api/queries", None),
            )

        statuses = [status for status, _ in serve(engine, scenario)]
        assert statuses == [404, 400, 400, 400]

    def test_refusal_is_a_payload_not_an_http_error(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "poor", "epsilon_allotment": 0.1},
            )
            return await http(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "poor",
                    "workload": {"kind": "identity"},
                    "epsilon": 5.0,
                    "wait": True,
                    "timeout": 10,
                },
            )

        status, payload = serve(engine, scenario, max_delay=0.01)
        # The transport succeeded; the *privacy* layer refused.
        assert status == 200
        assert payload["status"] == "refused"
        assert "poor" in payload["error"]

    def test_query_listing_filters_sorts_and_pages(self, database, domain):
        engine = build_engine(database, domain)

        async def scenario(host, port, server):
            for client, allotment in (("alice", 2.0), ("bob", 2.0)):
                await http(
                    host,
                    port,
                    "POST",
                    "/api/clients",
                    {"client_id": client, "epsilon_allotment": allotment},
                )
            for client, epsilon in (("alice", 0.5), ("bob", 0.25), ("alice", 0.125)):
                await http(
                    host,
                    port,
                    "POST",
                    "/api/queries",
                    {
                        "client_id": client,
                        "workload": {"kind": "total"},
                        "epsilon": epsilon,
                        "wait": True,
                        "timeout": 10,
                    },
                )
            return (
                await http(host, port, "GET", "/api/queries?sort=-epsilon"),
                await http(host, port, "GET", "/api/queries?client_id=alice"),
                await http(host, port, "GET", "/api/queries?status=answered&limit=2"),
                await http(host, port, "GET", "/api/queries?status=bogus"),
                await http(host, port, "GET", "/api/queries?limit=-3"),
            )

        (s1, by_eps), (s2, alices), (s3, answered), (s4, _), (s5, _) = serve(
            engine, scenario, max_delay=0.01
        )
        assert s1 == 200
        assert [item["epsilon"] for item in by_eps["items"]] == [0.5, 0.25, 0.125]
        assert all("answers" not in item for item in by_eps["items"])
        assert s2 == 200
        assert {item["client_id"] for item in alices["items"]} == {"alice"}
        assert alices["page"]["total"] == 2
        assert s3 == 200
        assert answered["page"] == {
            "total": 3,
            "limit": 2,
            "offset": 0,
            "has_more": True,
        }
        assert s4 == 400
        assert s5 == 400


class TestObservabilityIntegration:
    def test_request_id_header_reaches_the_audit_stream(
        self, database, domain, tmp_path
    ):
        from repro.engine import Observability

        audit_path = tmp_path / "audit.jsonl"
        engine = build_engine(
            database,
            domain,
            observability=Observability(enabled=True, audit_path=str(audit_path)),
        )

        async def scenario(host, port, server):
            await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 2.0},
                headers={"X-Request-Id": "req-register-7"},
            )
            return await http(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "total"},
                    "epsilon": 0.5,
                    "wait": True,
                    "timeout": 10,
                },
                headers={"X-Request-Id": "req-query-9"},
            )

        status, answered = serve(engine, scenario, max_delay=0.01)
        assert status == 200
        records = [
            json.loads(line)
            for line in audit_path.read_text().splitlines()
            if line.strip()
        ]
        # Budget mutations performed *inside* a request's handler carry that
        # request's id and path as ambient audit context: the session-open
        # reservation is attributed to the register call.
        register_events = [
            record for record in records if record.get("request_id") == "req-register-7"
        ]
        assert register_events
        assert all(
            record["path"] == "/api/clients" for record in register_events
        )
        # The query's ε charge happens in the *batched* flush — one flush
        # serves many requests, so it is deliberately NOT pinned to a single
        # request id; attribution flows through the ticket id the submit
        # response returned.
        charge = next(
            record
            for record in records
            if record["event"] == "charge" and record.get("ticket_id") is not None
        )
        assert charge["ticket_id"] == answered["ticket_id"]
        assert charge["client_id"] == "alice"

    def test_http_path_is_byte_identical_to_direct_flush(self, database, domain):
        """The tentpole determinism gate at the outermost layer: a seeded
        engine served over HTTP draws exactly what a direct flush draws,
        and charges exactly the same ledger."""
        direct = build_engine(database, domain)
        direct.open_session("alice", 2.0)
        tickets = [
            direct.submit("alice", identity_workload(domain), 0.5),
            direct.submit("alice", cumulative_workload(domain), 0.25),
        ]
        direct.flush()
        direct_answers = [ticket.result() for ticket in tickets]

        served = build_engine(database, domain)

        async def scenario(host, port, server):
            await http(
                host,
                port,
                "POST",
                "/api/clients",
                {"client_id": "alice", "epsilon_allotment": 2.0},
            )
            first = await http(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "identity"},
                    "epsilon": 0.5,
                },
            )
            second = await http(
                host,
                port,
                "POST",
                "/api/queries",
                {
                    "client_id": "alice",
                    "workload": {"kind": "cumulative"},
                    "epsilon": 0.25,
                },
            )
            await http(host, port, "POST", "/api/flush")
            return (
                await http(host, port, "GET", f"/api/queries/{first[1]['ticket_id']}"),
                await http(host, port, "GET", f"/api/queries/{second[1]['ticket_id']}"),
            )

        # Same flush boundary as the direct engine: one flush for both.
        (_, first), (_, second) = serve(
            engine=served, scenario=scenario, max_batch_size=64, max_delay=30.0
        )
        assert first["answers"] == [float(v) for v in direct_answers[0]]
        assert second["answers"] == [float(v) for v in direct_answers[1]]

        def ledger(engine):
            return [
                (op.label, op.epsilon, op.partition)
                for op in engine.session("alice").accountant.operations
            ]

        assert len(ledger(direct)) == 2
        assert ledger(direct) == ledger(served)


# ------------------------------------------------------------ query body memo
def raw_request(method, path, body: bytes = b"") -> Request:
    return Request(method, path, {}, {}, body, True)


def query_body(workload, epsilon=0.25, client_id="alice", separators=None) -> bytes:
    return json.dumps(
        {
            "client_id": client_id,
            "workload": workload,
            "epsilon": epsilon,
            "wait": True,
            "timeout": 10,
        },
        separators=separators,
    ).encode()


@pytest.fixture
def parse_counts(monkeypatch):
    """Count ``Request.json`` and the query route's ``parse_workload`` calls."""
    counts = {"json": 0, "parse": 0}
    original_json = Request.json
    original_parse = routes.parse_workload

    def counting_json(self):
        counts["json"] += 1
        return original_json(self)

    def counting_parse(domain, spec):
        counts["parse"] += 1
        return original_parse(domain, spec)

    monkeypatch.setattr(Request, "json", counting_json)
    monkeypatch.setattr(routes, "parse_workload", counting_parse)
    return counts


def run_app(engine, scenario, **app_options):
    """Run ``scenario(app)`` against an app dispatched without a socket."""

    async def runner():
        app = create_app(engine, max_batch_size=1, max_delay=30.0, **app_options)
        try:
            return await scenario(app)
        finally:
            await app.aclose()

    return asyncio.run(runner())


async def submit(app, body: bytes):
    """``POST /api/queries`` with raw ``body``: (status, decoded payload)."""
    response = await app.dispatch(raw_request("POST", "/api/queries", body))
    return response.status, json.loads(response.body)


RANGES = {"kind": "rows", "rows": [[0.0] * 3 + [1.0] * 5 + [0.0] * 8]}


class TestQueryBodyMemo:
    def test_resent_body_is_parsed_once_and_replays(
        self, database, domain, parse_counts
    ):
        engine = build_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)
        body = query_body(RANGES)

        async def scenario(app):
            return await submit(app, body), await submit(app, body)

        (status, paid), (replay_status, replay) = run_app(engine, scenario)
        assert status == replay_status == 200
        assert parse_counts == {"json": 1, "parse": 1}
        assert paid["from_cache"] is False
        assert replay["from_cache"] is True
        assert replay["answers"] == paid["answers"]
        assert engine.session("alice").spent() == 0.25

    def test_whitespace_variant_is_parsed_again_and_replays_by_signature(
        self, database, domain, parse_counts
    ):
        engine = build_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)

        async def scenario(app):
            return (
                await submit(app, query_body(RANGES)),
                await submit(app, query_body(RANGES, separators=(",", ":"))),
            )

        (_, paid), (_, replay) = run_app(engine, scenario)
        assert parse_counts == {"json": 2, "parse": 2}
        assert replay["from_cache"] is True
        assert replay["answers"] == paid["answers"]

    def test_no_memo_without_the_answer_cache(self, database, domain, parse_counts):
        engine = build_engine(database, domain, enable_answer_cache=False)
        engine.open_session("alice", 5.0)
        body = query_body(RANGES)

        async def scenario(app):
            await submit(app, body)
            await submit(app, body)
            return app._body_memo

        assert run_app(engine, scenario) is None
        assert parse_counts == {"json": 2, "parse": 2}

    def test_oldest_body_is_parsed_again_past_capacity(
        self, database, domain, parse_counts
    ):
        engine = build_engine(
            database, domain, enable_answer_cache=True, answer_cache_size=2
        )
        engine.open_session("alice", 5.0)
        first, second, third = (
            query_body({"kind": kind}) for kind in ("identity", "total", "cumulative")
        )

        async def scenario(app):
            for body in (first, second, third):
                await submit(app, body)
            counts = dict(parse_counts)
            await submit(app, third)  # recalled
            recalled = dict(parse_counts)
            await submit(app, first)  # evicted by the third body
            return counts, recalled

        counts, recalled = run_app(engine, scenario)
        assert counts == recalled == {"json": 3, "parse": 3}
        assert parse_counts == {"json": 4, "parse": 4}

    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            query_body({"kind": "rows", "rows": [[1.0, 2.0], [1.0]]}),
            query_body({"kind": "septagonal"}),
        ],
        ids=["bad-json", "ragged-rows", "unknown-kind"],
    )
    def test_malformed_body_is_never_memoised(
        self, database, domain, parse_counts, body
    ):
        engine = build_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)

        async def scenario(app):
            statuses = [(await submit(app, body))[0] for _ in range(2)]
            return statuses, len(app._body_memo)

        statuses, memoised = run_app(engine, scenario)
        assert statuses == [400, 400]
        assert memoised == 0
        assert parse_counts["json"] == 2

    def test_memoised_body_still_sheds_and_still_refuses_closed_sessions(
        self, database, domain, parse_counts
    ):
        engine = build_engine(database, domain, enable_answer_cache=True)
        engine.open_session("alice", 5.0)
        body = query_body(RANGES)

        async def scenario(app):
            answered, _ = await submit(app, body)
            app.draining = True
            shed, shed_payload = await submit(app, body)
            app.draining = False
            engine.session("alice").close()
            closed, _ = await submit(app, body)
            return answered, shed, shed_payload["reason"], closed

        assert run_app(engine, scenario) == (200, 503, "draining", 403)
        assert parse_counts == {"json": 1, "parse": 1}


class TestFlushWakeups:
    def test_one_loop_wakeup_per_size_triggered_wait(self, database, domain):
        """Each answered ``wait=true`` submit wakes the loop exactly once:
        through its ticket's waiter, not also through a flush future."""
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)
        submits = 5

        async def scenario(app):
            loop = asyncio.get_running_loop()
            original = loop.call_soon_threadsafe
            calls = []

            def counting(*args, **kwargs):
                calls.append(args[0])
                return original(*args, **kwargs)

            loop.call_soon_threadsafe = counting
            try:
                for _ in range(submits):
                    status, payload = await submit(app, query_body({"kind": "total"}))
                    assert (status, payload["status"]) == (200, "answered")
            finally:
                del loop.call_soon_threadsafe
            return len(calls)

        assert run_app(engine, scenario) == submits


# ------------------------------------------------------------- rows workloads
def rows_cases():
    rng = np.random.default_rng(2024)
    cases = [
        ("random-0/1", (rng.random((6, 16)) < 0.4).astype(float).tolist()),
        ("float-negative", rng.normal(size=(3, 16)).round(3).tolist()),
        ("all-zero-rows", [[0.0] * 16, [1.0] * 16, [0.0] * 16]),
        ("negative-zero", [[-0.0] * 8 + [1.0] * 8, [-0.0] * 16]),
        ("single-row", [[0, 0, 1, 1, 1] + [0] * 11]),
    ]
    for index in range(8):
        rows = rng.integers(-2, 3, size=(int(rng.integers(1, 9)), 16))
        cases.append((f"random-{index}", rows.astype(float).tolist()))
    return cases


class TestRowsWorkloads:
    @pytest.mark.parametrize(
        "rows", [rows for _, rows in rows_cases()], ids=[n for n, _ in rows_cases()]
    )
    def test_one_pass_parse_matches_workload_from_rows(self, domain, rows):
        parsed = parse_workload(domain, {"kind": "rows", "rows": rows, "name": "w"})
        reference = workload_from_rows(domain, rows, name="w")
        for attribute in ("indptr", "indices", "data"):
            mine = getattr(parsed.matrix, attribute)
            theirs = getattr(reference.matrix, attribute)
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        assert parsed.shape == reference.shape
        assert parsed.name == "w"
        assert parsed.signature() == reference.signature()

    @pytest.mark.parametrize(
        "rows",
        [[[1.0] * 16, [1.0] * 15], [[1.0] * 15, [1.0] * 15], [[]]],
        ids=["ragged", "wrong-width", "empty-row"],
    )
    def test_ragged_and_wrong_width_rows_name_the_widths(self, domain, rows):
        with pytest.raises(WorkloadError, match="must all have 16 cells.*widths"):
            parse_workload(domain, {"kind": "rows", "rows": rows})

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0] * 15, [1.0] * 17],
            [["one"] + [0.0] * 15],
            [[None] + [0.0] * 15],
            [[float("nan")] + [0.0] * 15],
            [],
            [[[1.0] * 16]],
            [[{"x": 1}] * 16],
            "rows",
        ],
        ids=[
            "ragged",
            "non-numeric",
            "null",
            "nan",
            "empty",
            "nested",
            "objects",
            "not-a-list",
        ],
    )
    def test_malformed_rows_answer_400(self, database, domain, rows):
        engine = build_engine(database, domain)
        engine.open_session("alice", 5.0)

        async def scenario(app):
            return await submit(app, query_body({"kind": "rows", "rows": rows}))

        status, payload = run_app(engine, scenario)
        assert status == 400
        assert "rows" in payload["error"]


# ------------------------------------------------------------ over-long lines
class TestOverlongLines:
    @pytest.mark.parametrize("where", ["request-line", "header-line"])
    def test_line_over_the_reader_limit_answers_400_and_closes(
        self, database, domain, where
    ):
        engine = build_engine(database, domain)
        filler = "a" * 70_000
        if where == "request-line":
            head = f"GET /health?pad={filler} HTTP/1.1\r\nHost: x\r\n\r\n"
        else:
            head = f"GET /health HTTP/1.1\r\nHost: x\r\nX-Pad: {filler}\r\n\r\n"

        async def scenario(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(head.encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return raw

        raw = serve(engine, scenario)
        status_line, _, rest = raw.partition(b"\r\n")
        head_bytes, _, body = rest.partition(b"\r\n\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in head_bytes
        expected = "request line" if where == "request-line" else "header line"
        assert json.loads(body) == {"error": f"{expected} too long"}
