"""The app factory: engine bindings + router the HTTP server dispatches into.

:func:`create_app` is the composition point (the exemplar's FastAPI
``create_app`` shape): it wires one :class:`~repro.engine.PrivateQueryEngine`
to an :class:`~repro.engine.serving.AsyncQueryEngine` front-end, a
:class:`~repro.engine.serving.queries.TicketRegistry` for the poll
endpoints, and the route table from
:mod:`~repro.engine.serving.routes` — then hands the assembled
:class:`ServingApp` to a :class:`~repro.engine.serving.http.ServingServer`
(or to tests, which dispatch :class:`~repro.engine.serving.http.Request`
objects straight into :meth:`ServingApp.dispatch` without a socket).

Query-body memo: a client that re-asks a query re-sends the same bytes, and
the engine answers it from its answer cache at zero ε.  :class:`ServingApp`
keeps an LRU of parsed ``POST /api/queries`` bodies keyed by the sha256
digest of their bytes, as large as the engine's answer cache (and absent
when that cache is off), so a byte-identical re-send skips the JSON decode,
the workload parse and — because it reuses the same
:class:`~repro.core.workload.Workload` object, whose signature is memoised
— the flush-side signature hash.  Only the event-loop thread touches it.

Observability: every dispatch runs inside
:meth:`~repro.engine.observability.Observability.request_context`, which
opens a per-request trace and stacks the ``X-Request-Id`` header (plus
method/path) as ambient ε-audit context — a charge or refusal caused by an
HTTP request is attributable to that request in the audit stream.
"""

from __future__ import annotations

import logging
import re
from typing import Callable, List, Optional, Pattern, Tuple

from ...core.workload import LRUMemo, Workload
from .admission import AdmissionController
from .async_engine import AsyncQueryEngine
from .http import HTTPError, Request, Response, error_response
from .queries import TicketRegistry

logger = logging.getLogger(__name__)

RouteEntry = Tuple[str, Pattern, Callable]
#: A memoised query body: its decoded fields (the workload spec dropped)
#: and the workload parsed from that spec.
ParsedBody = Tuple[dict, Workload]


class ServingApp:
    """Router + engine bindings; the object a :class:`ServingServer` serves.

    Handlers are ``async def handler(app, request, **path_params)`` and are
    registered with :meth:`add_route`; path patterns use
    ``{name}`` placeholders matching one non-``/`` segment.
    """

    def __init__(
        self,
        engine,
        async_engine: AsyncQueryEngine,
        tickets: TicketRegistry,
        admission: Optional[AdmissionController] = None,
        enable_chaos: bool = False,
    ) -> None:
        self.engine = engine
        self.async_engine = async_engine
        self.tickets = tickets
        self.admission = (
            admission if admission is not None else AdmissionController(engine)
        )
        self.async_engine.add_flush_observer(self.admission.observe_flush_seconds)
        #: When ``True`` the ``POST /api/chaos`` fault-injection endpoint is
        #: installed.  Never enable outside a test/chaos deployment.
        self.enable_chaos = enable_chaos
        #: Flipped by :meth:`drain` (SIGTERM path): ``/ready`` turns 503 and
        #: every new submit sheds, while in-flight work keeps completing.
        self.draining = False
        self._routes: List[RouteEntry] = []
        answer_cache = engine.answer_cache
        self._body_memo: Optional[LRUMemo] = (
            None if answer_cache is None else LRUMemo(maxsize=answer_cache.maxsize)
        )

    # ---------------------------------------------------------------- routing
    def add_route(self, method: str, pattern: str, handler: Callable) -> None:
        """Register ``handler`` for ``method`` on the ``{param}`` pattern."""
        regex = re.compile(
            "^"
            + re.sub(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}", r"(?P<\1>[^/]+)", pattern)
            + "$"
        )
        self._routes.append((method.upper(), regex, handler))

    async def dispatch(self, request: Request) -> Response:
        """Route one request; error envelopes for every failure mode."""
        matched_path = False
        for method, regex, handler in self._routes:
            match = regex.match(request.path)
            if match is None:
                continue
            matched_path = True
            if method != request.method:
                continue
            observability = self.engine.observability
            try:
                with observability.request_context(
                    "http_request",
                    request_id=request.header("x-request-id"),
                    method=request.method,
                    path=request.path,
                ):
                    return await handler(self, request, **match.groupdict())
            except HTTPError as exc:
                return error_response(exc.status, exc.message)
            except Exception as exc:  # noqa: BLE001 - the server must answer
                logger.exception(
                    "unhandled error serving %s %s", request.method, request.path
                )
                return error_response(500, f"{type(exc).__name__}: {exc}")
        if matched_path:
            return error_response(405, f"method {request.method} not allowed")
        return error_response(404, f"no route for {request.path}")

    # ------------------------------------------------------------- body memo
    def recall_body(self, digest: str) -> Optional[ParsedBody]:
        """The memoised parse of the query body with this sha256 ``digest``."""
        return None if self._body_memo is None else self._body_memo.get(digest)

    def remember_body(self, digest: str, body: dict, workload: Workload) -> None:
        """Memoise a query body whose workload parsed (oldest out past capacity)."""
        if self._body_memo is not None:
            fields = {name: value for name, value in body.items() if name != "workload"}
            self._body_memo.put(digest, (fields, workload))

    def drain(self) -> None:
        """Stop admitting queries; readiness flips to 503.

        The first half of graceful shutdown: after ``drain()`` the load
        balancer (watching ``/ready``) routes away and every new submit
        sheds with 503, while tickets already admitted keep flowing through
        their flushes.  :meth:`aclose` then completes them.
        """
        self.draining = True

    async def aclose(self) -> None:
        """Drain the async front-end (every accepted ticket resolves)."""
        self.draining = True
        await self.async_engine.aclose()


def create_app(
    engine,
    max_batch_size: int = 32,
    max_delay: float = 0.02,
    registry_capacity: int = 4096,
    async_engine: Optional[AsyncQueryEngine] = None,
    admission: Optional[AdmissionController] = None,
    enable_chaos: bool = False,
) -> ServingApp:
    """Assemble the serving app for ``engine``.

    ``max_batch_size`` / ``max_delay`` configure the async front-end's
    :class:`~repro.engine.waiters.BatchTriggers`; pass a pre-built
    ``async_engine`` to share one front-end between apps or to inject a
    configured one.  ``admission`` overrides the default
    :class:`~repro.engine.serving.admission.AdmissionController` (pending
    bound 256, in-flight cap 1024, no per-client rate limit);
    ``enable_chaos=True`` installs the ``POST /api/chaos`` fault-injection
    endpoint — test deployments only.
    """
    from .routes import install_routes

    if async_engine is None:
        async_engine = AsyncQueryEngine(
            engine, max_batch_size=max_batch_size, max_delay=max_delay
        )
    app = ServingApp(
        engine,
        async_engine,
        TicketRegistry(registry_capacity),
        admission=admission,
        enable_chaos=enable_chaos,
    )
    install_routes(app)
    return app
