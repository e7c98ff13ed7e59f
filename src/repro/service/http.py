"""The stdlib HTTP/SSE transport over a :class:`SolveService`.

No third-party dependency: :class:`http.server.ThreadingHTTPServer`
carries the whole wire protocol.  Routes:

=======  ==================  ===========================================
Method   Path                Body / response
=======  ==================  ===========================================
POST     ``/solve``          SolveRequest JSON → SolveReport JSON; the
                             ``X-Cache-Tier`` header says which tier
                             answered (``ram``/``disk``/``engine``).
POST     ``/solve/stream``   SolveRequest JSON → ``text/event-stream``
                             of ``event:``/``improvement:`` frames and
                             one final ``report:`` frame.  Client
                             disconnect cancels the solve.
POST     ``/resynth``        ResynthRequest JSON → ResynthReport JSON
                             through the same tiers (``X-Cache-Tier``).
POST     ``/batch``          Manifest JSON (list, or ``{"defaults",
                             "jobs"}`` plus optional ``executor``,
                             ``workers``) → ``{"reports", "tiers",
                             "ok"}``.
GET      ``/healthz``        Liveness probe.
GET      ``/stats``          Tier/engine/disk counter snapshot.
=======  ==================  ===========================================

Errors are JSON too: ``{"error": ...}`` with 400 for bad requests
(malformed JSON, unknown relations, invalid options), 404 for unknown
routes, 500 for genuine failures.

Run it from the CLI (``repro serve --port 8080 --cache-dir CACHE``) or
embed it::

    from repro.service import SolveService, create_server

    server = create_server(SolveService(), "127.0.0.1", 0)
    print("listening on port", server.server_address[1])
    server.serve_forever()
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .app import MAX_BODY_BYTES, ServiceError, SolveService

__all__ = ["ServiceHandler", "create_server", "serve"]

#: Socket errors that mean "the client hung up" — on an SSE stream they
#: trigger cooperative cancellation rather than a traceback.
_DISCONNECTS = (BrokenPipeError, ConnectionResetError)


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler bound to the server's :class:`SolveService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-solve"
    #: Silenced by default; ``create_server(..., quiet=False)`` restores
    #: the stdlib's per-request stderr lines.
    quiet = True

    # -- plumbing ------------------------------------------------------
    @property
    def service(self) -> SolveService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if not self.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status: int, payload: Any,
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        try:
            self._send_json(status, {"error": message})
        except _DISCONNECTS:
            pass

    def _read_body_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError("request body required")
        if length > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError("request body is not valid JSON: %s"
                               % exc) from exc

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, self.service.healthz())
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        else:
            self._send_error_json(404, "no such route: %s" % path)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/solve":
                data = self._read_body_json()
                report, tier = self.service.solve(data)
                self._send_json(200, report, {"X-Cache-Tier": tier})
            elif path == "/solve/stream":
                data = self._read_body_json()
                self._stream_solve(data)
            elif path == "/batch":
                data = self._read_body_json()
                self._send_json(200, self.service.batch(data))
            elif path == "/resynth":
                data = self._read_body_json()
                report, tier = self.service.resynth(data)
                self._send_json(200, report, {"X-Cache-Tier": tier})
            else:
                self._send_error_json(404, "no such route: %s" % path)
        except ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
        except _DISCONNECTS:
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 — the wire boundary
            self._send_error_json(500, "internal error: %s" % exc)

    # -- SSE -----------------------------------------------------------
    def _stream_solve(self, data: Any) -> None:
        """Relay the service's anytime stream as Server-Sent Events."""
        stream = self.service.solve_stream(data)
        started = False
        try:
            for name, payload in stream:
                if not started:
                    # Headers go out lazily so a validation error can
                    # still become a clean 400 instead of a dead SSE.
                    self.send_response(200)
                    self.send_header("Content-Type", "text/event-stream")
                    self.send_header("Cache-Control", "no-cache")
                    self.send_header("Connection", "close")
                    self.end_headers()
                    self.close_connection = True
                    started = True
                self.wfile.write(encode_sse(name, payload))
                self.wfile.flush()
        except _DISCONNECTS:
            # Closing the generator trips the solve's CancelToken.
            stream.close()
            self.close_connection = True
        except ServiceError:
            if started:
                self.close_connection = True
                return
            raise
        finally:
            stream.close()


def encode_sse(name: str, payload: Any) -> bytes:
    """One Server-Sent-Events frame: ``event:`` + single-line ``data:``."""
    return ("event: %s\ndata: %s\n\n"
            % (name, json.dumps(payload))).encode("utf-8")


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


def serve(service: SolveService, host: str = "127.0.0.1",
          port: int = 8080, *, quiet: bool = True) -> None:
    """Blocking serve loop, until interrupted."""
    server = create_server(service, host, port, quiet=quiet)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
