"""Route handlers for the HTTP front-end.

Thin translation layers only: each handler parses the wire shape
(:mod:`~repro.engine.serving.queries`), calls the engine or the async
front-end, and maps library exceptions onto HTTP statuses.  The full
endpoint reference — request/response schemas, status codes, pagination —
lives in ``docs/serving_http_api.md``.

Status-code conventions:

* ``400`` — malformed request (bad JSON, unknown workload kind, invalid
  sort field, bad pagination parameters).
* ``403`` — the privacy layer refused (opening a session past the global
  budget, submitting on a closed session, invalid ε).
* ``404`` — unknown client or ticket.
* ``409`` — conflict (registering an already-open client id, closing a
  closed session, cancelling a ticket that already resolved).
* ``429`` / ``503`` with ``Retry-After`` — the admission edge shed the
  submit *before* any ε was touched: 429 when the client is over its rate
  limit, 503 when the server is saturated or draining.
* A *refused query* is **not** an HTTP error: the poll payload carries
  ``status: "refused"`` plus the reason, because the transport request
  succeeded — the refusal is the (privacy-mandated) answer.  The same
  holds for ``expired`` and ``cancelled`` terminal statuses.
"""

from __future__ import annotations

import math
import time

from ...core.digest import signature
from ...exceptions import (
    DomainError,
    PolicyError,
    PrivacyBudgetError,
    WorkloadError,
)
from .http import HTTPError, Request, Response
from .queries import (
    apply_sort,
    paginate,
    parse_sort,
    parse_workload,
    ticket_payload,
)

#: Sortable fields of the two collection endpoints.
TICKET_SORT_FIELDS = ("ticket_id", "client_id", "status", "epsilon")
CLIENT_SORT_FIELDS = ("client_id", "allotment", "spent", "remaining")

#: Terminal + pending statuses accepted by the ``status`` list filter.
QUERY_STATUS_FILTERS = ("pending", "answered", "refused", "expired", "cancelled")


def install_routes(app) -> None:
    """Register every endpoint on ``app`` (the app-factory hook)."""
    app.add_route("GET", "/health", health)
    app.add_route("GET", "/ready", ready)
    app.add_route("GET", "/metrics", metrics)
    app.add_route("GET", "/api/clients", list_clients)
    app.add_route("POST", "/api/clients", register_client)
    app.add_route("GET", "/api/clients/{client_id}/budget", client_budget)
    app.add_route("DELETE", "/api/clients/{client_id}", close_client)
    app.add_route("GET", "/api/queries", list_queries)
    app.add_route("POST", "/api/queries", submit_query)
    app.add_route("GET", "/api/queries/{ticket_id}", poll_query)
    app.add_route("DELETE", "/api/queries/{ticket_id}", cancel_query)
    app.add_route("POST", "/api/flush", flush_now)
    if getattr(app, "enable_chaos", False):
        app.add_route("POST", "/api/chaos", chaos)


# -------------------------------------------------------------------- service
async def health(app, request: Request) -> Response:
    """Liveness: the engine is up and accepting submissions."""
    return Response(
        {
            "status": "ok",
            "pending": app.engine.pending_count,
            "sessions": len(app.engine.sessions()),
            "tickets": len(app.tickets),
        }
    )


async def ready(app, request: Request) -> Response:
    """Readiness: 503 while draining so the load balancer routes away.

    Distinct from ``/health`` on purpose — a draining server is still
    *alive* (liveness stays 200 so the orchestrator does not kill it
    mid-drain) but must stop receiving new traffic.
    """
    if app.draining:
        return Response(
            {"status": "draining"},
            status=503,
            headers={"Retry-After": _retry_after_header(app.admission.retry_after())},
        )
    return Response({"status": "ready", "pending": app.engine.pending_count})


async def metrics(app, request: Request) -> Response:
    """The engine's metrics registry in Prometheus text exposition format."""
    registry = app.engine.observability.metrics
    return Response(
        text=registry.to_prometheus_text(),
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )


async def flush_now(app, request: Request) -> Response:
    """Flush pending queries immediately (admin/testing hook)."""
    tickets = await app.async_engine.flush()
    return Response({"resolved": len(tickets)})


# -------------------------------------------------------------------- clients
async def register_client(app, request: Request) -> Response:
    """``POST /api/clients`` — open a budgeted session (201)."""
    body = request.json()
    client_id = body.get("client_id")
    if not isinstance(client_id, str) or not client_id:
        raise HTTPError(400, "client_id must be a non-empty string")
    allotment = body.get("epsilon_allotment")
    if not isinstance(allotment, (int, float)):
        raise HTTPError(400, "epsilon_allotment must be a number")
    try:
        session = app.engine.open_session(client_id, float(allotment))
    except PrivacyBudgetError as exc:
        status = 409 if "already open" in str(exc) else 403
        raise HTTPError(status, str(exc)) from exc
    return Response(session.budget_snapshot(), status=201)


async def list_clients(app, request: Request) -> Response:
    """``GET /api/clients`` — paginated budget snapshots."""
    snapshots = [session.budget_snapshot() for session in app.engine.sessions()]
    try:
        keys = parse_sort(request.query.get("sort"), CLIENT_SORT_FIELDS)
        snapshots = apply_sort(snapshots, keys or [("client_id", False)])
        page = paginate(
            snapshots, request.query.get("limit"), request.query.get("offset")
        )
    except ValueError as exc:
        raise HTTPError(400, str(exc)) from exc
    return Response(page)


async def client_budget(app, request: Request, client_id: str) -> Response:
    """``GET /api/clients/{id}/budget`` — one session's budget introspection."""
    try:
        session = app.engine.session(client_id)
    except PolicyError as exc:
        raise HTTPError(404, str(exc)) from exc
    return Response(session.budget_snapshot())


async def close_client(app, request: Request, client_id: str) -> Response:
    """``DELETE /api/clients/{id}`` — close the session, refunding unspent ε."""
    try:
        session = app.engine.session(client_id)
    except PolicyError as exc:
        raise HTTPError(404, str(exc)) from exc
    if session.closed:
        raise HTTPError(409, f"Session {client_id!r} is already closed")
    refunded = session.close()
    return Response({"client_id": client_id, "refunded": refunded})


# -------------------------------------------------------------------- queries
def _retry_after_header(seconds: float) -> str:
    """``Retry-After`` is delta-seconds, integral, at least 1."""
    return str(max(1, math.ceil(seconds)))


def _shed_response(decision) -> Response:
    """A 429/503 shed envelope with the computed ``Retry-After``."""
    return Response(
        {
            "error": decision.message,
            "reason": decision.reason,
            "retry_after": decision.retry_after,
        },
        status=decision.status,
        headers={"Retry-After": _retry_after_header(decision.retry_after)},
    )


def _parse_deadline(request: Request):
    """``X-Request-Deadline`` (unix-epoch seconds) → engine monotonic deadline.

    The wire carries wall-clock time (the only clock client and server
    share); the engine's deadline clock is ``time.monotonic()``.  Convert
    by offsetting the remaining wall-clock budget onto the monotonic clock
    at parse time — an already-past deadline simply converts to a
    monotonic instant in the past and the pipeline drops the ticket at
    zero ε.
    """
    raw = request.header("x-request-deadline")
    if raw is None:
        return None
    try:
        epoch = float(raw)
    except ValueError:
        raise HTTPError(
            400,
            f"X-Request-Deadline must be unix-epoch seconds, got {raw!r}",
        ) from None
    if not math.isfinite(epoch):
        raise HTTPError(400, "X-Request-Deadline must be finite")
    return time.monotonic() + (epoch - time.time())


async def submit_query(app, request: Request) -> Response:
    """``POST /api/queries`` — admission check, submit; optionally await.

    ``wait=false`` (default) answers ``202`` with the pending ticket for
    later polling.  ``wait=true`` awaits resolution (bounded by ``timeout``
    seconds when given) and answers ``200`` with the resolved payload; a
    wait that times out degrades to the ``202`` pending envelope — the
    ticket stays queued and a later flush resolves it.

    The admission edge runs **before** session lookup and workload
    parsing: an overloaded server answers shed traffic from a few integer
    compares and a dict lookup, touching neither ε nor the (relatively)
    expensive request machinery.  An ``X-Request-Deadline`` header
    (unix-epoch seconds) attaches a deadline: a ticket still unflushed at
    its deadline resolves to ``"expired"`` at zero ε.

    A body byte-identical to one whose workload parsed before is recalled
    from the app's body memo: its decoded fields and the same
    :class:`~repro.core.workload.Workload` object, so neither the JSON
    decode nor :func:`parse_workload` runs again.  Every check below still
    runs on a recalled body, in the same order.
    """
    digest = signature(request.body)
    recalled = app.recall_body(digest)
    if recalled is None:
        body, workload = request.json(), None
    else:
        body, workload = recalled
    client_id = body.get("client_id")
    if not isinstance(client_id, str) or not client_id:
        raise HTTPError(400, "client_id must be a non-empty string")
    decision = app.admission.admit(client_id, draining=app.draining)
    if decision is not None:
        return _shed_response(decision)
    deadline = _parse_deadline(request)
    epsilon = body.get("epsilon")
    if not isinstance(epsilon, (int, float)):
        raise HTTPError(400, "epsilon must be a number")
    wait = body.get("wait", False)
    if not isinstance(wait, bool):
        raise HTTPError(400, "wait must be a boolean")
    timeout = body.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise HTTPError(400, "timeout must be a number of seconds")
    try:
        app.engine.session(client_id)
    except PolicyError as exc:
        raise HTTPError(404, str(exc)) from exc
    if workload is None:
        try:
            workload = parse_workload(app.engine.database.domain, body.get("workload"))
        except (WorkloadError, DomainError) as exc:
            raise HTTPError(400, str(exc)) from exc
        app.remember_body(digest, body, workload)
    partition = body.get("partition")
    if partition is not None and not isinstance(partition, list):
        raise HTTPError(400, "partition must be a list of domain cell indices")
    try:
        async_ticket = app.async_engine.submit(
            client_id,
            workload,
            float(epsilon),
            partition=partition,
            deadline=deadline,
        )
    except PrivacyBudgetError as exc:
        raise HTTPError(403, str(exc)) from exc
    except (WorkloadError, DomainError, PolicyError) as exc:
        raise HTTPError(400, str(exc)) from exc
    app.admission.register(async_ticket.ticket)
    app.tickets.add(async_ticket.ticket)
    if wait:
        resolved = await async_ticket.wait(
            float(timeout) if timeout is not None else None
        )
        if resolved:
            return Response(ticket_payload(async_ticket.ticket), status=200)
    return Response(ticket_payload(async_ticket.ticket), status=202)


async def cancel_query(app, request: Request, ticket_id: str) -> Response:
    """``DELETE /api/queries/{ticket_id}`` — cancel a still-pending ticket.

    Cancellation wins only while the ticket is unclaimed: a cancelled
    ticket resolves to the ``"cancelled"`` terminal status and is excluded
    from every future flush — its not-yet-charged ε is never spent.  Once
    the pipeline claimed (or resolved) the ticket the race is lost and
    this answers ``409`` with the ticket's current payload: already-charged
    work is **not** refunded, because its privacy cost was already paid
    and rolling it back would let a client probe answers for free.
    """
    try:
        numeric_id = int(ticket_id)
    except ValueError as exc:
        raise HTTPError(400, f"ticket id must be an integer, got {ticket_id!r}") from exc
    ticket = app.tickets.get(numeric_id)
    if ticket is None:
        raise HTTPError(404, f"no ticket {numeric_id} (unknown or aged out)")
    if ticket.cancel():
        return Response(ticket_payload(ticket), status=200)
    return Response(ticket_payload(ticket), status=409)


async def poll_query(app, request: Request, ticket_id: str) -> Response:
    """``GET /api/queries/{ticket_id}`` — one ticket's status and answers."""
    try:
        numeric_id = int(ticket_id)
    except ValueError as exc:
        raise HTTPError(400, f"ticket id must be an integer, got {ticket_id!r}") from exc
    ticket = app.tickets.get(numeric_id)
    if ticket is None:
        raise HTTPError(404, f"no ticket {numeric_id} (unknown or aged out)")
    return Response(ticket_payload(ticket))


async def list_queries(app, request: Request) -> Response:
    """``GET /api/queries`` — paginated poll results.

    Filters: ``client_id``, ``status`` (any of
    ``pending``/``answered``/``refused``/``expired``/``cancelled``).
    Sorting per Snippet 3 (``sort=-ticket_id`` etc.); answers are elided
    from list items — poll the single-ticket endpoint for vectors.
    """
    status = request.query.get("status")
    if status is not None and status not in QUERY_STATUS_FILTERS:
        raise HTTPError(400, f"invalid status filter {status!r}")
    tickets = app.tickets.list(
        client_id=request.query.get("client_id"), status=status
    )
    payloads = [ticket_payload(ticket, include_answers=False) for ticket in tickets]
    try:
        keys = parse_sort(request.query.get("sort"), TICKET_SORT_FIELDS)
        payloads = apply_sort(payloads, keys or [("ticket_id", False)])
        page = paginate(
            payloads, request.query.get("limit"), request.query.get("offset")
        )
    except ValueError as exc:
        raise HTTPError(400, str(exc)) from exc
    return Response(page)


# ---------------------------------------------------------------------- chaos
async def chaos(app, request: Request) -> Response:
    """``POST /api/chaos`` — arm live fault injection (chaos deployments only).

    Installed only when the app was built with ``enable_chaos=True``
    (``--chaos`` on the CLI).  Actions:

    * ``{"action": "stall", "point": ..., "seconds": S, "hits": N}`` —
      sleep ``S`` seconds on the N-th visit of the fault point.
    * ``{"action": "fail", "point": ..., "hits": N}`` — raise a
      ``RuntimeError`` at the point.
    * ``{"action": "disk_full", "point": ..., "hits": N}`` — raise
      ``OSError(ENOSPC)`` at the point (e.g. ``ledger-append``).
    * ``{"action": "kill_worker"}`` — SIGKILL one live execute-backend
      worker process, immediately.
    * ``{"action": "clear"}`` — uninstall the active injector.

    The handler validates the point name against the known crash/serving
    fault points so a typo cannot silently arm nothing.
    """
    from ..durability import (
        CRASH_POINTS,
        SERVING_FAULT_POINTS,
        FaultInjector,
        kill_one_worker,
    )

    body = request.json()
    action = body.get("action")
    if action == "clear":
        FaultInjector.clear()
        return Response({"status": "cleared"})
    if action == "kill_worker":
        backend = getattr(app.engine, "_execute_backend", None)
        try:
            pid = kill_one_worker(backend)
        except RuntimeError as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response({"status": "killed", "pid": pid})
    if action not in ("stall", "fail", "disk_full"):
        raise HTTPError(
            400,
            "action must be one of stall/fail/disk_full/kill_worker/clear",
        )
    point = body.get("point")
    known_points = CRASH_POINTS + SERVING_FAULT_POINTS + ("ledger-append",)
    if point not in known_points:
        raise HTTPError(
            400, f"unknown fault point {point!r}; known: {', '.join(known_points)}"
        )
    hits = body.get("hits", 1)
    if not isinstance(hits, int) or hits < 1:
        raise HTTPError(400, "hits must be a positive integer")
    injector = FaultInjector.active() or FaultInjector()
    # The injector's hit counts are cumulative over its lifetime, but a
    # remote chaos client thinks in visits *from now* — re-arming after an
    # earlier fault fired must not leave the new fault pointing at a visit
    # number that already passed.
    hits += injector.hits(point)
    if action == "stall":
        seconds = body.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise HTTPError(400, "seconds must be a non-negative number")
        injector.stall_at(point, float(seconds), hits=hits)
    elif action == "fail":
        injector.fail_at(
            point, lambda: RuntimeError(f"injected failure at {point}"), hits=hits
        )
    else:
        injector.disk_full_at(point, hits=hits)
    injector.install()
    return Response({"status": "armed", "action": action, "point": point})
