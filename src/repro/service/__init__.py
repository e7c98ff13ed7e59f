"""Solve-as-a-service: HTTP/SSE transport with a tiered solve cache.

The package splits cleanly into four pieces:

:mod:`~repro.service.app`
    :class:`SolveService` — the transport-independent core: tiered
    ``solve`` (RAM → disk → engine), the anytime ``solve_stream``,
    ``batch``, ``healthz``/``stats``, and periodic memo flushing.
:mod:`~repro.service.diskcache`
    :class:`DiskCache` — the process-spanning tier: atomic JSON report
    files keyed by canonical request fingerprints, plus the shared
    memo template pool (a ``memo.json`` snapshot and append-only
    segments) workers seed from at boot.
:mod:`~repro.service.http`
    The stdlib ``ThreadingHTTPServer`` transport (no dependencies) —
    ``create_server``/``serve`` and the SSE encoder.
:mod:`~repro.service.asgi`
    The same wire protocol as a raw ASGI 3.0 app for uvicorn-style
    servers, still dependency-free.
:mod:`~repro.service.prewarm`
    Corpus replay that fills a cache directory before traffic arrives.

Sixty-second tour::

    from repro.service import DiskCache, SolveService, create_server

    service = SolveService(disk=DiskCache("cache"))
    server = create_server(service, "127.0.0.1", 0)
    port = server.server_address[1]
    # POST {"relation": {"kind": "pla", "text": ...}} to /solve;
    # the second identical POST returns X-Cache-Tier: ram.
"""

from .app import DEFAULT_FLUSH_EVERY, ServiceError, SolveService
from .asgi import create_app
from .diskcache import DEFAULT_DISK_MEMO_LIMIT, DiskCache, fingerprint_payload
from .http import create_server, encode_sse, serve
from .prewarm import prewarm

__all__ = [
    "DEFAULT_DISK_MEMO_LIMIT",
    "DEFAULT_FLUSH_EVERY",
    "DiskCache",
    "ServiceError",
    "SolveService",
    "create_app",
    "create_server",
    "encode_sse",
    "fingerprint_payload",
    "prewarm",
    "serve",
]
