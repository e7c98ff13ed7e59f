"""Solve-as-a-service: HTTP/SSE transport with a tiered solve cache.

The package splits cleanly into four pieces:

:mod:`~repro.service.app`
    :class:`SolveService` — the transport-independent core: tiered
    ``solve`` (RAM → disk → engine), the anytime ``solve_stream``,
    ``batch``, ``resynth`` and ``healthz``/``stats``.
:mod:`~repro.service.diskcache`
    :class:`DiskCache` — the process-spanning tier: atomic JSON report
    files keyed by request fingerprints (``fingerprint_payload``, the
    digest of :meth:`repro.api.SolveRequest.fingerprint`).
:mod:`~repro.service.http`
    The HTTP/SSE boundary (no dependencies): one route table answered
    by ``respond``, carried by the stdlib ``ThreadingHTTPServer`` that
    ``create_server`` builds, and the SSE encoder.
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

from ..api.request import fingerprint_payload
from .app import ServiceError, SolveService
from .diskcache import DiskCache
from .http import create_server, encode_sse
from .prewarm import prewarm

__all__ = [
    "DiskCache",
    "ServiceError",
    "SolveService",
    "create_server",
    "encode_sse",
    "fingerprint_payload",
    "prewarm",
]
