"""A dependency-free ASGI app over :class:`SolveService`.

The repository's primary transport is the stdlib server in
:mod:`repro.service.http`; this module speaks the raw ASGI 3.0 protocol
(plain ``async def app(scope, receive, send)``) so deployments that
*do* have an ASGI server handy — uvicorn, hypercorn, daphne — can run
the same service under it without this package importing any of them::

    uvicorn repro.service.asgi:app --port 8080

Configuration of the module-level ``app`` comes from the environment
(it is constructed lazily, on the first request):

``REPRO_CACHE_DIR``    directory for the disk tier (unset = RAM only);
``REPRO_FLUSH_EVERY``  engine solves between memo flushes (default 8).

Routes, bodies and status codes match :mod:`repro.service.http`
exactly; ``/solve/stream`` emits the same SSE frames.  The engine work
itself is synchronous and serialised by the service lock, so it runs in
worker threads (via :func:`asyncio.to_thread`) to keep the event loop
responsive.  One honest caveat against the stdlib transport: ASGI
disconnects are noticed between stream frames, so a client that hangs
up mid-solve cancels the search at the next emitted frame rather than
the next socket write.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from .app import MAX_BODY_BYTES, ServiceError, SolveService
from .diskcache import DiskCache
from .http import encode_sse

__all__ = ["create_app", "app"]

Scope = Dict[str, Any]
Receive = Callable[[], Awaitable[Dict[str, Any]]]
Send = Callable[[Dict[str, Any]], Awaitable[None]]


def create_app(service: Optional[SolveService] = None
               ) -> Callable[[Scope, Receive, Send], Awaitable[None]]:
    """Build the ASGI callable around ``service`` (default from env)."""

    state = {"service": service}
    lock = threading.Lock()

    def get_service() -> SolveService:
        with lock:
            if state["service"] is None:
                state["service"] = _service_from_env()
            return state["service"]

    async def asgi(scope: Scope, receive: Receive, send: Send) -> None:
        if scope["type"] == "lifespan":
            await _lifespan(get_service, receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError("unsupported ASGI scope type %r"
                               % scope["type"])
        await _dispatch(get_service(), scope, receive, send)

    return asgi


def _service_from_env() -> SolveService:
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    disk = DiskCache(cache_dir) if cache_dir else None
    flush_every = int(os.environ.get("REPRO_FLUSH_EVERY", "8"))
    return SolveService(disk=disk, flush_every=flush_every)


async def _lifespan(get_service: Callable[[], SolveService],
                    receive: Receive, send: Send) -> None:
    while True:
        message = await receive()
        if message["type"] == "lifespan.startup":
            get_service()  # eager boot: seed the memo before traffic
            await send({"type": "lifespan.startup.complete"})
        elif message["type"] == "lifespan.shutdown":
            await asyncio.to_thread(get_service().flush)
            await send({"type": "lifespan.shutdown.complete"})
            return


async def _dispatch(service: SolveService, scope: Scope,
                    receive: Receive, send: Send) -> None:
    method = scope["method"]
    path = scope["path"]
    try:
        if method == "GET" and path == "/healthz":
            await _send_json(send, 200, service.healthz())
        elif method == "GET" and path == "/stats":
            await _send_json(send, 200,
                             await asyncio.to_thread(service.stats))
        elif method == "POST" and path == "/solve":
            data = await _read_json(scope, receive)
            report, tier = await asyncio.to_thread(service.solve, data)
            await _send_json(send, 200, report,
                             [(b"x-cache-tier", tier.encode("ascii"))])
        elif method == "POST" and path == "/batch":
            data = await _read_json(scope, receive)
            await _send_json(send, 200,
                             await asyncio.to_thread(service.batch, data))
        elif method == "POST" and path == "/resynth":
            data = await _read_json(scope, receive)
            report, tier = await asyncio.to_thread(service.resynth, data)
            await _send_json(send, 200, report,
                             [(b"x-cache-tier", tier.encode("ascii"))])
        elif method == "POST" and path == "/solve/stream":
            data = await _read_json(scope, receive)
            await _stream(service, data, receive, send)
        else:
            await _send_json(send, 404,
                             {"error": "no such route: %s" % path})
    except ServiceError as exc:
        await _send_json(send, exc.status, {"error": str(exc)})
    except Exception as exc:  # noqa: BLE001 — the wire boundary
        await _send_json(send, 500, {"error": "internal error: %s" % exc})


async def _read_json(scope: Scope, receive: Receive) -> Any:
    """The request body as JSON; 413 as soon as a ``content-length``
    header or the bytes received so far pass :data:`MAX_BODY_BYTES`
    (the rest of the body is never read)."""
    for name, value in scope.get("headers", ()):
        digits = value.strip()
        if name.lower() == b"content-length" and digits.isdigit() and (
                len(digits) > 18 or int(digits) > MAX_BODY_BYTES):
            raise ServiceError("request body too large", status=413)
    chunks = []
    total = 0
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            raise ServiceError("client disconnected before body arrived")
        chunk = message.get("body", b"")
        total += len(chunk)
        if total > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        chunks.append(chunk)
        if not message.get("more_body", False):
            break
    raw = b"".join(chunks)
    if not raw:
        raise ServiceError("request body required")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError("request body is not valid JSON: %s"
                           % exc) from exc


async def _send_json(send: Send, status: int, payload: Any,
                     extra_headers: Optional[list] = None) -> None:
    body = json.dumps(payload).encode("utf-8")
    headers = [(b"content-type", b"application/json"),
               (b"content-length", str(len(body)).encode("ascii"))]
    headers.extend(extra_headers or [])
    await send({"type": "http.response.start", "status": status,
                "headers": headers})
    await send({"type": "http.response.body", "body": body})


async def _stream(service: SolveService, data: Any,
                  receive: Receive, send: Send) -> None:
    """SSE over ASGI: one worker thread owns the sync generator.

    The generator (and the service lock it takes) must live on a single
    thread, so the worker iterates it and posts frames to the event
    loop through a queue; the async side forwards frames and watches
    ``receive`` for ``http.disconnect``, which flips a stop flag the
    worker honours between frames (closing the generator there trips
    the solve's CancelToken on the right thread).
    """
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Tuple[str, Any]]" = asyncio.Queue()
    stop = threading.Event()

    def post(kind: str, payload: Any) -> None:
        loop.call_soon_threadsafe(queue.put_nowait, (kind, payload))

    def worker() -> None:
        stream = service.solve_stream(data)
        try:
            for name, payload in stream:
                post("frame", (name, payload))
                if stop.is_set():
                    break
        except Exception as exc:  # noqa: BLE001 — crosses threads
            post("error", exc)
        finally:
            stream.close()
            post("done", None)

    thread = threading.Thread(target=worker, daemon=True,
                              name="repro-sse-worker")
    thread.start()

    async def watch_disconnect() -> None:
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                stop.set()
                return

    watcher = asyncio.ensure_future(watch_disconnect())
    started = False
    try:
        while True:
            kind, payload = await queue.get()
            if kind == "error":
                if isinstance(payload, ServiceError) and not started:
                    await _send_json(send, payload.status,
                                     {"error": str(payload)})
                elif not started:
                    await _send_json(send, 500,
                                     {"error": "internal error: %s"
                                      % payload})
                return
            if kind == "done":
                if started:
                    await send({"type": "http.response.body",
                                "body": b"", "more_body": False})
                return
            name, frame = payload
            if not started:
                await send({"type": "http.response.start", "status": 200,
                            "headers": [(b"content-type",
                                         b"text/event-stream"),
                                        (b"cache-control", b"no-cache")]})
                started = True
            if stop.is_set():
                continue  # drain silently; worker is winding down
            await send({"type": "http.response.body",
                        "body": encode_sse(name, frame),
                        "more_body": True})
    finally:
        stop.set()
        watcher.cancel()
        await asyncio.to_thread(thread.join, 10.0)


#: The uvicorn-ready entry point: ``uvicorn repro.service.asgi:app``.
app = create_app()
