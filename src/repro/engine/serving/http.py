"""Stdlib-only HTTP/1.1 machinery for the serving tier: asyncio streams.

No web framework, no new dependencies: requests are parsed off an
``asyncio.StreamReader``, responses are rendered straight back onto the
``StreamWriter``, and connections are kept alive per HTTP/1.1 defaults so a
polling client pays one TCP handshake, not one per poll.  The machinery is
deliberately small — request line + headers + ``Content-Length`` body,
JSON-first responses — because the API surface
(:mod:`repro.engine.serving.routes`) only needs that much; it is **not** a
general-purpose HTTP implementation.

Layering (the app-factory + routes split of the Paper-Scanner exemplar,
SNIPPETS.md Snippet 3):

* this module — the protocol: :class:`Request`, :class:`Response`,
  :class:`HTTPError`, :func:`read_request`, and :class:`ServingServer`,
  which owns the listening socket and the per-connection loop;
* :mod:`~repro.engine.serving.app` — :func:`~repro.engine.serving.create_app`
  builds the :class:`~repro.engine.serving.app.ServingApp` (router + engine
  bindings) that :class:`ServingServer` dispatches into;
* :mod:`~repro.engine.serving.routes` — the handlers;
* :mod:`~repro.engine.serving.queries` — wire formats and pagination.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Dict, Optional
from urllib.parse import parse_qsl, unquote

logger = logging.getLogger(__name__)

#: Cap on accepted request bodies; a query over a big domain ships dense
#: workload rows, so this is generous — but unbounded reads would let one
#: client exhaust server memory.
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """Raise from a handler to answer with an error status + JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive

    def json(self) -> dict:
        """The request body as a JSON object; HTTP 400 when it is not one."""
        if not self.body:
            raise HTTPError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return payload

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Request({self.method} {self.path})"


class Response:
    """One response: a JSON payload (or preformatted text) plus a status."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        payload=None,
        status: int = 200,
        text: Optional[str] = None,
        content_type: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = int(status)
        if text is not None:
            self.body = text.encode("utf-8")
            self.content_type = content_type or "text/plain; charset=utf-8"
        elif payload is not None:
            self.body = json.dumps(payload).encode("utf-8")
            self.content_type = content_type or "application/json"
        else:
            self.body = b""
            self.content_type = content_type or "application/json"
        self.headers = dict(headers or {})

    def encode(self, keep_alive: bool) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


def error_response(status: int, message: str) -> Response:
    """The uniform JSON error envelope."""
    return Response({"error": message}, status=status)


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF-terminated line; HTTP 400 when it exceeds the reader's limit.

    ``StreamReader.readline`` raises ``ValueError`` for a line longer than
    the stream's buffer limit (64 KiB for servers started with
    ``asyncio.start_server``'s default).
    """
    try:
        return await reader.readline()
    except ValueError:
        raise HTTPError(400, f"{what} too long") from None


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Malformed requests, request lines or header lines longer than the
    reader's limit included, raise :class:`HTTPError` (the connection loop
    answers 400 and closes).
    """
    try:
        line = await _read_line(reader, "request line")
    except ConnectionError:
        return None
    if not line:
        return None
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HTTPError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        header_line = await _read_line(reader, "header line")
        if header_line in (b"\r\n", b"\n", b""):
            break
        name, separator, value = header_line.decode("latin-1").partition(":")
        if not separator:
            raise HTTPError(400, f"malformed header line {header_line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HTTPError(400, "malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HTTPError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
    path, _, query_string = target.partition("?")
    query = {key: value for key, value in parse_qsl(query_string)}
    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection != "close"
        if version.upper() == "HTTP/1.1"
        else connection == "keep-alive"
    )
    return Request(
        method=method.upper(),
        path=unquote(path),
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


class ServingServer:
    """The asyncio-streams HTTP server wrapping one app.

    ``port=0`` binds an ephemeral port (the default for tests and demos);
    :attr:`port` reports the bound one after :meth:`start`.  Connections
    are served keep-alive until the client closes or sends
    ``Connection: close``.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0) -> None:
        self._app = app
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def app(self):
        return self._app

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        return self._port

    @property
    def host(self) -> str:
        return self._host

    async def start(self) -> "ServingServer":
        """Bind the socket and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        logger.info("serving HTTP on %s:%d", self._host, self._port)
        return self

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the ``__main__`` entry point)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, close the listener, and drain the app."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._app.aclose()

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------- connection
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HTTPError as exc:
                    writer.write(
                        error_response(exc.status, exc.message).encode(keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._app.dispatch(request)
                writer.write(response.encode(keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServingServer({self._host}:{self._port})"
