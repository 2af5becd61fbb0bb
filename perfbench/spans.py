"""Spans recorded around calls into the engine's layers, from outside the engine.

A traced run wraps public functions and methods of each layer with timing
wrappers (and puts the originals back afterwards); nothing inside ``src/``
is instrumented.  A span is ``(name, start, end, key)`` on the shared
monotonic clock of :func:`harness.clock`.  The key ties spans of one request
together: an engine ticket id, the ``X-Request-Id`` of an HTTP request, or
both for a submit made while serving that request.

Span names and the layer each one times:

=============== ============================================================
``submit``      ``PrivateQueryEngine.submit`` (key: ``(ticket_id, request_id)``)
``flush``       ``PrivateQueryEngine.flush``: the whole plan/charge/execute/
                resolve pipeline (key: tuple of the flushed ticket ids)
``transform``   ``PolicyTransform.transform_workload`` (policy layer)
``mechanism``   the plan's ``NamedAlgorithm`` answer calls (outermost only)
``charge``      ``PrivacyAccountant.charge`` (sessions' scoped ledgers too;
                includes the durable append when a ledger store is bound)
``append``      the durable ledger binding's ``record_charge``
``read``        ``serving.http.read_request`` (includes keep-alive idle time)
``dispatch``    ``ServingApp.dispatch``
``parse``       ``parse_workload`` as the query route calls it
``payload``     ``ticket_payload`` as the query route calls it
``encode``      ``Response.encode``
=============== ============================================================
"""

from __future__ import annotations

import contextvars
import functools
import threading
from typing import Callable, List, Optional, Tuple

from harness import clock

Span = Tuple[str, float, float, object]

#: The ``X-Request-Id`` of the HTTP request being served in this task.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar("request_id", default=None)


class SpanRecorder:
    """In-memory span list; ``list.append`` is atomic, so threads may share it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float, key: object = None) -> None:
        self.spans.append((name, start, end, key))


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        own = name in vars(owner)
        self._saved.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original, own = self._saved.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _timed(
    recorder: SpanRecorder,
    name: str,
    func: Callable,
    key: Optional[Callable] = None,
    depth: Optional[threading.local] = None,
) -> Callable:
    """Wrap ``func`` to record a span per call.

    ``key(args, result)`` names the span's request (by default the HTTP
    request being served, if any).  Wrappers sharing a ``depth`` record
    only the outermost of their nested calls.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if depth is not None and getattr(depth, "active", False):
            return func(*args, **kwargs)
        if depth is not None:
            depth.active = True
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            if depth is not None:
                depth.active = False
        recorder.add(name, start, clock(), key(args, result) if key else REQUEST_ID.get())
        return result

    return wrapper


def install_engine_spans(recorder: SpanRecorder, patches: Patches) -> None:
    """Span the engine's pipeline, policy, mechanism and accounting layers."""
    from repro.accounting.composition import PrivacyAccountant
    from repro.blowfish import NamedAlgorithm
    from repro.engine import PrivateQueryEngine
    from repro.policy import PolicyTransform

    engine = PrivateQueryEngine
    patches.replace(
        engine,
        "submit",
        _timed(
            recorder,
            "submit",
            engine.submit,
            key=lambda args, ticket: (ticket.ticket_id, REQUEST_ID.get()),
        ),
    )
    patches.replace(
        engine,
        "flush",
        _timed(
            recorder,
            "flush",
            engine.flush,
            key=lambda args, tickets: tuple(t.ticket_id for t in tickets),
        ),
    )
    patches.replace(
        PolicyTransform,
        "transform_workload",
        _timed(recorder, "transform", PolicyTransform.transform_workload),
    )
    depth = threading.local()
    for method in ("answer", "answer_batch", "answer_batch_with_noise", "noise_model"):
        patches.replace(
            NamedAlgorithm,
            method,
            _timed(recorder, "mechanism", getattr(NamedAlgorithm, method), depth=depth),
        )
    patches.replace(
        PrivacyAccountant,
        "charge",
        _timed(recorder, "charge", PrivacyAccountant.charge),
    )


def install_durable_spans(recorder: SpanRecorder, patches: Patches, engine) -> None:
    """Span the durable ε-ledger append of ``engine`` (it must have one)."""
    binding = type(engine.accountant.durable)
    patches.replace(
        binding,
        "record_charge",
        _timed(recorder, "append", binding.record_charge),
    )


def install_serving_spans(recorder: SpanRecorder, patches: Patches) -> None:
    """Span the HTTP tier: request read, dispatch, workload parse, encode."""
    from repro.engine.serving import app as app_module
    from repro.engine.serving import http as http_module
    from repro.engine.serving import routes

    dispatch = app_module.ServingApp.dispatch

    @functools.wraps(dispatch)
    async def traced_dispatch(self, request):
        request_id = request.header("x-request-id")
        # Set in the connection's task, so the encode that follows the
        # dispatch sees it too.
        REQUEST_ID.set(request_id)
        start = clock()
        response = await dispatch(self, request)
        recorder.add("dispatch", start, clock(), request_id)
        return response

    read_request = http_module.read_request

    @functools.wraps(read_request)
    async def traced_read(reader):
        start = clock()
        request = await read_request(reader)
        key = request.header("x-request-id") if request is not None else None
        recorder.add("read", start, clock(), key)
        return request

    patches.replace(app_module.ServingApp, "dispatch", traced_dispatch)
    patches.replace(http_module, "read_request", traced_read)
    patches.replace(routes, "parse_workload", _timed(recorder, "parse", routes.parse_workload))
    patches.replace(
        routes, "ticket_payload", _timed(recorder, "payload", routes.ticket_payload)
    )
    patches.replace(
        http_module.Response,
        "encode",
        _timed(recorder, "encode", http_module.Response.encode),
    )
