"""The HTTP/SSE boundary of a :class:`SolveService`.

No third-party dependency: :class:`http.server.ThreadingHTTPServer`
carries the whole wire protocol.  The boundary has two halves:

:func:`respond`
    Answers one request from its method, path and body bytes, with no
    socket.  It looks the route up in :data:`ROUTES` (404 when it is
    not there), decodes a POST body as JSON (400 when the body is empty,
    not JSON or nested too deeply) and maps exceptions to statuses
    once: a :class:`ServiceError` (every request fault) gives its own
    status, anything else a 500.  Errors are JSON too: ``{"error": ...}``.
:class:`ServiceHandler`
    A byte adapter over :func:`respond`.  It reads the body that
    ``Content-Length`` declares and writes back the JSON answer, or the
    SSE frames one at a time.  A length that is not a decimal integer
    is a 400, one past :data:`~repro.service.app.MAX_BODY_BYTES` a 413
    and a ``Transfer-Encoding`` body a 411; then the body is never
    parsed and the connection is closed, so no unread bytes are parsed
    as the next request.  The close is gentle: the handler shuts its
    write side and discards what the client still sends, within a
    fixed time and byte count, so a client that sends the body anyway
    finishes sending and reads the refusal instead of a reset.  A
    client that sent ``Expect: 100-continue`` gets that refusal instead
    of ``100 Continue``, so it never sends the body.

Run it from the CLI (``repro serve --port 8080 --cache-dir CACHE``) or
embed it::

    from repro.service import SolveService, create_server

    server = create_server(SolveService(), "127.0.0.1", 0)
    print("listening on port", server.server_address[1])
    server.serve_forever()
"""

from __future__ import annotations

import json
import socket
import time
from contextlib import closing
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (Any, Callable, Dict, Iterator, NamedTuple, Optional,
                    Tuple, Union)

from ..api.request import read_json
from .app import MAX_BODY_BYTES, ServiceError, SolveService

__all__ = ["ROUTES", "Response", "ServiceHandler", "create_server",
           "encode_sse", "respond"]

#: Socket errors that mean "the client hung up" — on an SSE stream they
#: trigger cooperative cancellation rather than a traceback.
_DISCONNECTS = (BrokenPipeError, ConnectionResetError)


class Response(NamedTuple):
    """One answer of :func:`respond`.

    ``body`` goes out right after the headers.  ``frames`` is ``None``
    except on an SSE stream, where it yields the frames after the first
    one; closing it closes the service's stream, which cancels its
    solve.
    """

    status: int
    headers: Dict[str, str]
    body: bytes
    frames: Optional[Iterator[bytes]] = None


def _json(status: int, payload: Any,
          extra_headers: Optional[Dict[str, str]] = None) -> Response:
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json",
               "Content-Length": str(len(body))}
    headers.update(extra_headers or {})
    return Response(status, headers, body)


def _tiered(answer: Tuple[Dict[str, Any], str]) -> Response:
    """A report and the tier that answered it (``X-Cache-Tier``)."""
    report, tier = answer
    return _json(200, report, {"X-Cache-Tier": tier})


def _stream(service: SolveService, data: Any) -> Response:
    frames = _encoded(service.solve_stream(data))
    # The first frame is pulled before any header goes out, so a bad
    # request is still a clean JSON 400 instead of a dead stream.
    first = next(frames)
    return Response(200, {"Content-Type": "text/event-stream",
                          "Cache-Control": "no-cache",
                          "Connection": "close"}, first, frames)


def _encoded(stream: Iterator[Tuple[str, Any]]) -> Iterator[bytes]:
    with closing(stream):
        for name, payload in stream:
            yield encode_sse(name, payload)


def encode_sse(name: str, payload: Any) -> bytes:
    """One Server-Sent-Events frame: ``event:`` + single-line ``data:``."""
    return ("event: %s\ndata: %s\n\n"
            % (name, json.dumps(payload))).encode("utf-8")


#: Every route of the service: ``(method, path) → handler(service,
#: data)``, where ``data`` is a POST's decoded JSON body (``None`` on a
#: GET).
ROUTES: Dict[Tuple[str, str], Callable[[SolveService, Any], Response]] = {
    # SolveRequest → SolveReport; X-Cache-Tier says which tier answered
    # (ram, disk or engine).
    ("POST", "/solve"): lambda service, data: _tiered(service.solve(data)),
    # SolveRequest → text/event-stream of event and improvement frames
    # and one final report frame; a client that hangs up cancels the
    # solve.
    ("POST", "/solve/stream"): _stream,
    # ResynthRequest → ResynthReport through the same tiers.
    ("POST", "/resynth"):
        lambda service, data: _tiered(service.resynth(data)),
    # A manifest (a list, or {"defaults", "jobs"} plus optional
    # "executor" and "workers") → {"reports", "tiers", "ok"}.
    ("POST", "/batch"):
        lambda service, data: _json(200, service.batch(data)),
    # Liveness probe.
    ("GET", "/healthz"):
        lambda service, _: _json(200, service.healthz()),
    # Tier, engine and disk counter snapshot.
    ("GET", "/stats"):
        lambda service, _: _json(200, service.stats()),
}


def respond(service: SolveService, method: str, path: str,
            body: bytes) -> Response:
    """Answer one request; never raises."""
    handler = ROUTES.get((method, path))
    if handler is None:
        return _json(404, {"error": "no such route: %s" % path})
    try:
        return handler(service, _decode(body) if method == "POST" else None)
    except ServiceError as exc:
        return _json(exc.status, {"error": str(exc)})
    except Exception as exc:  # noqa: BLE001 — the wire boundary
        return _json(500, {"error": "internal error: %s" % exc})


def _decode(body: bytes) -> Any:
    if not body:
        raise ServiceError("request body required")
    try:
        return read_json(body.decode("utf-8"))
    except ValueError as exc:
        raise ServiceError("request body is not valid JSON: %s"
                           % exc) from exc


def _declared_length(value: str) -> Optional[int]:
    """A ``Content-Length`` value as an int; ``None`` if it is not a
    decimal integer.

    A value with more digits than :data:`MAX_BODY_BYTES` reads as one
    byte past the limit, however many digits it has: ``int()`` refuses
    strings past 4,300 digits.
    """
    digits = value.strip()
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)):
        return MAX_BODY_BYTES + 1
    return int(digits)


#: Sent with a 400, 411 or 413 that left the body unread.
_CLOSE = {"Connection": "close"}

#: After such a refusal, the most the handler reads and discards of a
#: body the client sends anyway, and for how long, before it closes.
_DRAIN_BYTES = 64 * 1024 * 1024
_DRAIN_SECONDS = 5.0


def _framing(headers: Message) -> Union[int, Response]:
    """The body length the headers declare, or the 400, 411 or 413
    that refuses the body unread."""
    if "Transfer-Encoding" in headers:
        # A chunked body is not read; close before it is parsed as the
        # next request.
        return _json(411, {"error": "Transfer-Encoding is not supported; "
                                    "send a Content-Length"}, _CLOSE)
    length = _declared_length(headers.get("Content-Length", "0"))
    if length is None:
        return _json(400, {"error": "Content-Length is not a decimal "
                                    "integer"}, _CLOSE)
    if length > MAX_BODY_BYTES:
        return _json(413, {"error": "request body too large"}, _CLOSE)
    return length


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler bound to the server's :class:`SolveService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-solve"
    #: Silenced by default; ``create_server(..., quiet=False)`` restores
    #: the stdlib's per-request stderr lines.
    quiet = True

    def log_message(self, format: str, *args: Any) -> None:
        if not self.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` only for a body :meth:`do_POST` will
        read; otherwise its refusal goes out instead, before the client
        sends the body."""
        framing = _framing(self.headers)
        if isinstance(framing, Response):
            self._refuse(framing)
            return False
        return BaseHTTPRequestHandler.handle_expect_100(self)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        """Read the declared body, then answer through :func:`respond`."""
        framing = _framing(self.headers)
        if isinstance(framing, Response):
            self._refuse(framing)
            return
        service = self.server.service  # type: ignore[attr-defined]
        self._send(respond(service, self.command,
                           self.path.split("?", 1)[0],
                           self.rfile.read(framing)))

    do_GET = do_POST

    def _refuse(self, response: Response) -> None:
        """Send a refusal that leaves the body unparsed, then close.

        Closing a socket with unread bytes resets the connection, and a
        client still sending its body would lose the answer with it.
        So the write side is shut first (the client reads the answer to
        its end), and what the client still sends is read and
        discarded until it closes, :data:`_DRAIN_BYTES` have come or
        :data:`_DRAIN_SECONDS` have passed.
        """
        self._send(response)
        self.close_connection = True
        sock = self.connection
        deadline = time.monotonic() + _DRAIN_SECONDS
        left = _DRAIN_BYTES
        try:
            sock.shutdown(socket.SHUT_WR)
            while left > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                sock.settimeout(remaining)
                chunk = sock.recv(min(left, 1 << 16))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:
            pass  # the client is gone, or too slow: close now

    def _send(self, response: Response) -> None:
        try:
            self.send_response(response.status)
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(response.body)
            if response.frames is not None:
                self.wfile.flush()
                for frame in response.frames:
                    self.wfile.write(frame)
                    self.wfile.flush()
        except _DISCONNECTS:
            self.close_connection = True
        finally:
            if response.frames is not None:
                # Stops the solve when the client hung up mid-stream.
                response.frames.close()


class _ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler: type,
                 service: SolveService) -> None:
        self.service = service
        ThreadingHTTPServer.__init__(self, address, handler)


def create_server(service: SolveService, host: str = "127.0.0.1",
                  port: int = 8080, *, quiet: bool = True
                  ) -> ThreadingHTTPServer:
    """A ready-to-run threaded HTTP server (``port=0`` picks a free one)."""
    handler = type("BoundServiceHandler", (ServiceHandler,),
                   {"quiet": quiet})
    return _ServiceServer((host, port), handler, service)
