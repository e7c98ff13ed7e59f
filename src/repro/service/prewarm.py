"""Cache prewarming: replay a request corpus into the disk tier.

Deployments keep a corpus of representative requests (the same manifest
JSON :func:`repro.api.load_manifest` reads — a list of request dicts,
or ``{"defaults": ..., "jobs": [...]}``).  ``repro prewarm`` replays it
through a throwaway :class:`SolveService` over the real cache
directory, so by the time traffic arrives every corpus request is a
disk-tier hit.

Idempotent by construction: rerunning the same corpus is a sweep of
disk-tier hits that writes nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..api.request import load_manifest
from .app import SolveService
from .diskcache import DiskCache

__all__ = ["prewarm"]


def prewarm(corpus_path: str, cache_dir: str, *,
            executor: str = "serial", workers: Optional[int] = None,
            service: Optional[SolveService] = None) -> Dict[str, Any]:
    """Solve every corpus request into ``cache_dir``; return a summary.

    ``executor``/``workers`` pass straight through to the batch
    machinery (:meth:`Session.solve_many`); ``service`` lets tests and
    the CLI inject a prepared instance (named relations) — it must
    already own a disk tier on ``cache_dir``.  The summary's ``tiers``
    counts the jobs each tier answered.
    """
    requests = load_manifest(corpus_path)
    if service is None:
        service = SolveService(disk=DiskCache(cache_dir))
    payload: Dict[str, Any] = {
        "jobs": [request.to_dict() for request in requests],
        "executor": executor,
    }
    if workers is not None:
        payload["workers"] = workers
    result = service.batch(payload)
    disk = service.disk
    tier_counts: Dict[str, int] = {}
    for tier in result["tiers"]:
        tier_counts[tier] = tier_counts.get(tier, 0) + 1
    return {
        "corpus": corpus_path,
        "cache_dir": disk.root if disk else cache_dir,
        "jobs": len(requests),
        "ok": result["ok"],
        "tiers": tier_counts,
        "disk": disk.stats() if disk else None,
    }
