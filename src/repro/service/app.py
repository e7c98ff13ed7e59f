"""Solve-as-a-service: the transport-independent service core.

A :class:`SolveService` wraps one :class:`~repro.api.Session` behind the
operations its callers (the route table and stdlib HTTP server in
:mod:`repro.service.http`, a test driving it directly) use:

``solve``          one request through the tiered cache;
``solve_stream``   the anytime event/improvement stream of one solve,
                   through the same tiers;
``batch``          many requests through the same tiers, the misses
                   through one :meth:`Session.solve_many` call;
``resynth``        one network resynthesis run (:mod:`repro.resynth`)
                   through the same tiers, keyed by
                   :meth:`ResynthRequest.fingerprint`;
``healthz``        liveness;
``stats``          engine, report-cache, disk-tier and per-tier
                   request counters, per-tier ``solve`` latency
                   percentiles, plus a ring of recent requests.

Tiered serving
--------------
Every route that solves (``solve``, ``solve_stream`` and each job of
``batch``) walks the tiers in order, through one lookup
(:meth:`SolveService._lookup`):

1. **RAM** — the session's own report cache
   (:meth:`Session.peek_cached`); a hit costs a dict copy.
2. **Disk** — the shared :class:`~repro.service.DiskCache`; a hit is
   promoted into the RAM tier (:meth:`Session.store_report`) so the
   next identical request never reaches the disk.
3. **Engine** — a real solve; the fresh report is written back to the
   disk tier for every other worker (and every future worker) to find.
   The engine solves every relation from scratch.  A write the disk
   refuses (``OSError``) or JSON cannot encode (``ValueError``) is
   counted in ``stats()["disk"]["write_errors"]``, and the report is
   still served and kept in RAM.

A request has one identity, :meth:`SolveRequest.fingerprint` (computed
once per request object): it names the disk file
(``reports/<fingerprint>.json``), dedups ``/batch`` and keys the RAM
tier for every spec but a session name (keyed by its relation).  A
route reads a ``file`` spec or circuit once, as it admits the request
(:meth:`SolveRequest.with_file_text`), and keys, solves and stores
that one text, so an edit between those steps cannot file one text's
report under another's key.

A streamed RAM or disk hit sends one ``improvement`` frame built from
the stored report, then the ``report`` frame.  A batch sends its misses
to one :meth:`Session.solve_many` call, which solves identical jobs
once and returns the copies ``cached``.

A stored report whose ``schema_version`` is not the running one is a
miss: the engine solves the request again and overwrites the file.

Multi-worker story: each worker process builds its own service over the
same cache directory.  Workers share only the report files; a cold
worker serves every report any worker has written, and keeps nothing
else on disk.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (Any, Deque, Dict, Generator, Iterator, List, Optional,
                    Tuple)

from ..api.events import event_to_jsonable
from ..api.request import REQUEST_ERRORS, SolveRequest, merge_manifest_jobs
from ..api.report import REPORT_SCHEMA_VERSION, SolveReport
from ..api.session import Session
from ..core.explore import CancelToken, check_executor, check_int
from ..resynth.report import RESYNTH_SCHEMA_VERSION, ResynthReport
from ..resynth.request import ResynthRequest, load_circuit
from .diskcache import DiskCache

__all__ = ["ServiceError", "SolveService", "MAX_BODY_BYTES"]

#: Largest request body the HTTP server reads; past it the server
#: answers 413 without reading (see :mod:`repro.service.http`).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Recent requests kept for the ``/stats`` attribution ring.
RECENT_REQUESTS = 50

#: ``solve`` latencies kept per tier for the ``/stats`` percentiles.
LATENCY_SAMPLES = 1024


class ServiceError(ValueError):
    """A request's fault, answered with an HTTP 4xx; a ``ValueError``,
    so one of :data:`~repro.api.request.REQUEST_ERRORS`."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _from_wire(stored: Optional[Dict[str, Any]], report_class: Any,
               schema_version: int) -> Any:
    """Rebuild a disk-tier report of ``report_class``; no file, another
    schema version or a file that does not parse is a miss (``None``):
    a stored file is not a request."""
    if stored is None or stored.get("schema_version") != schema_version:
        return None
    try:
        return report_class.from_dict(stored)
    except (ValueError, TypeError):
        return None


def _percentiles(samples: Deque[float]) -> Dict[str, Any]:
    """Sample count plus nearest-rank p50/p99 in milliseconds."""
    ordered = sorted(samples)
    count = len(ordered)

    def rank(share: float) -> Optional[float]:
        if not count:
            return None
        return 1e3 * ordered[min(count - 1, int(share * count))]

    return {"count": count, "p50": rank(0.5), "p99": rank(0.99)}


class SolveService:
    """The service core: one session, a tiered cache, typed operations.

    ``session`` defaults to a fresh :class:`Session`; pass a prepared
    one to pre-register named relations (the service then resolves
    ``{"kind": "name", ...}`` specs against it — deployments must load
    the same corpus into every worker for name-keyed disk entries to
    mean the same thing fleet-wide).  ``disk`` is optional: without it
    the service is RAM-tier only.  All session-touching operations are
    serialised by an internal lock (the BDD engine is single-threaded
    by design); run one service per worker process and scale out with
    more workers over the shared disk tier.
    """

    def __init__(self, session: Optional[Session] = None,
                 disk: Optional[DiskCache] = None, *,
                 max_time_limit: Optional[float] = None
                 ) -> None:
        if max_time_limit is not None and not (
                isinstance(max_time_limit, (int, float))
                and math.isfinite(max_time_limit)
                and max_time_limit > 0):
            raise ValueError("max_time_limit must be a positive finite "
                             "number of seconds, or None for no cap")
        self.session = session if session is not None else Session()
        self.disk = disk
        #: Server-side cap on per-request ``time_limit_seconds``: every
        #: admitted request is clamped to this budget (including
        #: requests asking for *no* limit), so one client cannot hold
        #: the single-threaded engine indefinitely.  ``None`` = no cap.
        self.max_time_limit = max_time_limit
        self.started = time.time()
        self._lock = threading.RLock()
        self.tier_hits = {"ram": 0, "disk": 0, "engine": 0}
        self._latencies: Dict[str, Deque[float]] = {
            tier: deque(maxlen=LATENCY_SAMPLES) for tier in self.tier_hits}
        self.request_counts = {"solve": 0, "stream": 0, "batch": 0,
                               "resynth": 0, "errors": 0,
                               "stream_cancelled": 0}
        #: RAM tier for resynthesis reports (the session report cache
        #: only understands SolveRequests), keyed by the same
        #: fingerprint the disk tier uses.
        self._resynth_cache: Dict[str, ResynthReport] = {}
        #: Disk-tier writes that failed (see _disk_write).
        self.disk_write_errors = 0
        self._recent: Deque[Dict[str, Any]] = deque(maxlen=RECENT_REQUESTS)
        #: Portfolio attribution across served requests: races run and
        #: wins per racer name (cache-served races count — the report
        #: still names its winner).
        self.portfolio_races = 0
        self.portfolio_wins: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Canonical request identity (the disk tier's key)
    # ------------------------------------------------------------------
    def request_fingerprint(self, request: SolveRequest) -> str:
        """:meth:`SolveRequest.fingerprint`, the disk tier's key (a
        method of its own because perfbench's tracer wraps it)."""
        return request.fingerprint()

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    @staticmethod
    def parse_request(data: Any) -> SolveRequest:
        """Validate one request dict; a body that is not an object is a
        :class:`ServiceError`, a bad field a ``ValueError``."""
        if not isinstance(data, dict):
            raise ServiceError("request body must be a JSON object")
        return SolveRequest.from_dict(data)

    def _admit(self, request: SolveRequest) -> SolveRequest:
        """Apply server-side admission policy to a parsed request.

        With :attr:`max_time_limit` configured, requests asking for more
        than the cap — or for no limit at all — come back clamped to it.
        Clamping happens *before* any cache key is computed, so a
        clamped request is cached (RAM, disk, fingerprint) as what
        actually ran.  (A non-finite limit never gets here: the request
        itself rejects it.)
        """
        limit = request.time_limit_seconds
        cap = self.max_time_limit
        if cap is not None and (limit is None or limit > cap):
            request = request.with_time_limit(cap)
        return request

    @contextmanager
    def _failures(self, prefix: str) -> Iterator[None]:
        """The one failure rule of the routes.  A failed request is
        counted once in ``request_counts["errors"]``.  A
        :data:`~repro.api.request.REQUEST_ERRORS` failure is the
        request's fault: a 400 read ``prefix: message`` (a
        :class:`ServiceError` passes as it is).  Anything else is the
        program's, a 500."""
        try:
            yield
        except Exception as exc:
            self.request_counts["errors"] += 1
            if isinstance(exc, ServiceError) \
                    or not isinstance(exc, REQUEST_ERRORS):
                raise
            raise ServiceError("%s: %s" % (prefix, exc)) from exc

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        from .. import __version__
        return {"ok": True, "version": __version__,
                "uptime_seconds": time.time() - self.started}

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot across every layer the service owns.

        ``solve_latency_ms`` gives, per tier, the p50 and p99 of the
        last :data:`LATENCY_SAMPLES` ``solve`` calls that tier served
        (milliseconds, measured once the request holds the engine
        lock; ``None`` before the first sample).  A dashboard poll
        holds the lock only to copy counters; the disk tier's directory
        walk runs after it is released, so a poll never stalls a solve
        on the file system.
        """
        with self._lock:
            session = self.session
            snapshot = {
                "uptime_seconds": time.time() - self.started,
                "max_time_limit": self.max_time_limit,
                "requests": dict(self.request_counts),
                "tiers": dict(self.tier_hits),
                "solve_latency_ms": {
                    tier: _percentiles(samples)
                    for tier, samples in self._latencies.items()},
                "session": {
                    "report_cache_entries": len(session._cache),
                    "resynth_cache_entries": len(self._resynth_cache),
                    "cache_hits": session.cache_hits,
                    "relations": session.relation_names(),
                },
                "engine": session.engine_stats(),
                "disk": None,
                "portfolio": {
                    "races": self.portfolio_races,
                    "wins": dict(self.portfolio_wins),
                },
                "recent": list(self._recent),
            }
            write_errors = self.disk_write_errors
        if self.disk is not None:
            snapshot["disk"] = dict(self.disk.stats(),
                                    write_errors=write_errors)
        return snapshot

    def solve(self, data: Any) -> Tuple[Dict[str, Any], str]:
        """Serve one request through the tiers.

        Returns ``(report_dict, tier)`` where ``tier`` is ``"ram"``,
        ``"disk"`` or ``"engine"``.  Raises :class:`ServiceError` for
        the request's faults (a bad field, an unknown relation, an
        unreadable relation file); anything else propagates as the
        program's (see :meth:`_failures`).
        """
        with self._lock:
            start = time.perf_counter()
            self.request_counts["solve"] += 1
            with self._failures("invalid solve request"):
                request = self._admit(self.parse_request(data))
            with self._failures("solve failed"):
                request = request.with_file_text()
                report, tier, key = self._lookup(request)
                if report is None:
                    report = self.session.solve(request)
                    self._write_back(key, report)
            self._latencies[tier].append(time.perf_counter() - start)
            self.tier_hits[tier] += 1
            self._record(request, report, tier)
            return report.to_dict(), tier

    def _lookup(self, request: SolveRequest
                ) -> Tuple[Optional[SolveReport], str, Optional[str]]:
        """The one tier walk of every route: RAM, then disk.

        Returns ``(report, tier, key)``, where ``key`` is the request's
        disk fingerprint (``None`` on a RAM hit or without a disk
        tier).  A miss is ``(None, "engine", key)``: the caller runs the
        engine and hands the fresh report to :meth:`_write_back`.  A
        disk hit is promoted into the RAM tier so the next identical
        request never reaches the disk.
        """
        cached = self.session.peek_cached(request)
        if cached is not None:
            return cached, "ram", None
        if self.disk is None:
            return None, "engine", None
        key = self.request_fingerprint(request)
        report = _from_wire(self.disk.get_report(key), SolveReport,
                            REPORT_SCHEMA_VERSION)
        if report is None:
            return None, "engine", key
        report = report.copy(cached=True, label=request.label,
                             request=request.to_dict())
        self.session.store_report(request, report)
        return report, "disk", key

    # ------------------------------------------------------------------
    # Resynthesis (repro.resynth through the same tiers)
    # ------------------------------------------------------------------
    def resynth_fingerprint(self, request: ResynthRequest) -> str:
        """:meth:`ResynthRequest.fingerprint`, the key of both tiers
        (wrapped by perfbench's tracer, as :meth:`request_fingerprint`)."""
        return request.fingerprint()

    @staticmethod
    def parse_resynth_request(data: Any) -> ResynthRequest:
        """Validate a wire payload into a :class:`ResynthRequest`; a
        body that is not an object is a :class:`ServiceError`, a bad
        field a ``ValueError``."""
        if not isinstance(data, dict):
            raise ServiceError("request body must be a JSON object")
        return ResynthRequest.from_dict(data)

    def resynth(self, data: Any) -> Tuple[Dict[str, Any], str]:
        """Serve one resynthesis run through the tiers.

        Returns ``(report_dict, tier)``.  Loading the circuit is the
        request's step: an unknown name, an unreadable file or
        malformed BLIF is a :class:`ServiceError`.  The pipeline run
        after it is the program's: its failure is a 500 (see
        :meth:`_failures`).  Failed runs are never cached.  A RAM or
        disk hit carries the caller's label and request, as
        :meth:`_lookup` stamps a solve's.
        """
        from ..resynth.pipeline import resynthesize_network

        with self._lock:
            self.request_counts["resynth"] += 1
            with self._failures("invalid request"):
                request = self.parse_resynth_request(data)
            with self._failures("resynth failed"):
                request = request.with_file_text()
                key = self.resynth_fingerprint(request)
                cached = self._resynth_cache.get(key)
                if cached is not None:
                    tier = "ram"
                    report = cached.copy(cached=True, label=request.label,
                                         request=request.to_dict())
                else:
                    report = None
                    if self.disk is not None:
                        report = _from_wire(self.disk.get_report(key),
                                            ResynthReport,
                                            RESYNTH_SCHEMA_VERSION)
                    if report is not None and report.ok:
                        tier = "disk"
                        self._resynth_cache[key] = report.copy()
                        report = report.copy(cached=True,
                                             label=request.label,
                                             request=request.to_dict())
                    else:
                        tier = "engine"
                        network = load_circuit(request.circuit)
                        _, report = resynthesize_network(
                            network, request, session=self.session)
                        self._resynth_cache[key] = report.copy()
                        if self.disk is not None:
                            self._disk_write(key, report.to_dict())
            self.tier_hits[tier] += 1
            return report.to_dict(), tier

    def solve_stream(self, data: Any
                     ) -> Generator[Tuple[str, Dict[str, Any]], None, None]:
        """The anytime stream of one solve, as ``(event, payload)`` pairs.

        The request walks the tiers of :meth:`solve`.  A RAM or disk hit
        yields one ``("improvement", ...)`` built from the stored report
        (its cost and SOP rendering, at zero elapsed time and explored
        count) and then the ``("report", ...)`` frame.  An engine run
        yields, in order: every :class:`~repro.core.SolveEvent` as
        ``("event", ...)`` (serialised by the shared
        :func:`~repro.api.events.event_to_jsonable`), each strictly
        improving incumbent as ``("improvement", ...)`` (cost, wall
        clock, explored count and the SOP rendering), and finally one
        ``("report", ...)`` with the full report dict.

        Closing the generator mid-stream — what the HTTP layer does
        when the client disconnects — trips the solve's
        :class:`~repro.core.CancelToken`, so the search stops
        cooperatively at the next node boundary instead of running
        headless to completion.  Cancelled partial results are never
        cached (the session guarantees that).
        """
        cancel = CancelToken()
        buffered: List[Dict[str, Any]] = []

        def observer(event: Any) -> None:
            buffered.append(event_to_jsonable(event))

        with self._lock, self._failures("invalid solve request"):
            self.request_counts["stream"] += 1
            request = self._admit(self.parse_request(data)).with_file_text()
            report, tier, key = self._lookup(request)
            if report is None:
                gen = self.session.solve_iter(request, cancel=cancel,
                                              observer=observer)
            if report is not None:
                yield "improvement", {"cost": report.cost,
                                      "elapsed_seconds": 0.0,
                                      "explored": 0, "sop": report.sop}
            else:
                try:
                    while True:
                        try:
                            improvement = next(gen)
                        except StopIteration as stop:
                            report = stop.value
                            break
                        # Events observed while computing this improvement
                        # happened first; flush them before it.
                        for event in buffered:
                            yield "event", event
                        del buffered[:]
                        yield "improvement", {
                            "cost": improvement.cost,
                            "elapsed_seconds": improvement.elapsed_seconds,
                            "explored": improvement.explored,
                            "sop": improvement.solution.describe(),
                        }
                except GeneratorExit:
                    # Client went away: stop the search cooperatively
                    # and let the solver wind down (it returns
                    # best-so-far almost immediately; the session will
                    # not cache it).
                    cancel.cancel()
                    for _ in gen:
                        pass
                    self.request_counts["stream_cancelled"] += 1
                    raise
                for event in buffered:
                    yield "event", event
                del buffered[:]
                self._write_back(key, report)
            self.tier_hits[tier] += 1
            self._record(request, report, tier)
            yield "report", report.to_dict()

    def batch(self, data: Any) -> Dict[str, Any]:
        """Drive :meth:`Session.solve_many` over a manifest payload.

        The body is manifest-shaped (a list of request dicts, or
        ``{"defaults", "jobs"}``) with two optional extras on the
        object form: ``executor`` (``serial``/``process``, default
        serial — the service already parallelises across worker
        processes) and ``workers``, an int >= 1 that the pool caps at
        the host's CPU count.  Each distinct job walks the RAM
        and disk tiers of :meth:`solve` once; the misses go to one
        :meth:`Session.solve_many` call, which solves identical jobs
        once and hands the copies back ``cached`` (tier ``ram``).  Fresh
        reports are written back to the disk tier.
        """
        with self._lock, self._failures("invalid batch manifest"):
            executor = "serial"
            workers: Optional[int] = None
            if isinstance(data, dict):
                data = dict(data)
                executor = check_executor("executor",
                                          data.pop("executor", "serial"))
                workers = data.pop("workers", None)
                check_int("workers", workers, 1, None, True)
            requests = [self._admit(self.parse_request(job))
                        for job in merge_manifest_jobs(data)]
            self.request_counts["batch"] += 1
            found: List[Tuple[Optional[SolveReport], str, Optional[str]]] = []
            # Each distinct job walks the tiers once: a copy of a miss
            # reuses the miss, and a copy of a hit finds it in RAM.
            misses: Dict[str, Tuple[None, str, Optional[str]]] = {}
            for index, request in enumerate(requests):
                try:
                    request = requests[index] = request.with_file_text()
                    job = request.fingerprint()
                    found.append(misses.get(job) or self._lookup(request))
                except Exception:  # noqa: BLE001 — captured per job
                    # A job whose lookup fails: let solve_many capture
                    # it as a failed report, honouring its no-raise
                    # contract.
                    found.append((None, "engine", None))
                    continue
                if found[-1][0] is None:
                    misses[job] = found[-1]
            pending = [index for index, (report, _, _) in enumerate(found)
                       if report is None]
            fresh = self.session.solve_many(
                [requests[index] for index in pending],
                max_workers=workers, executor=executor)
            for index, report in zip(pending, fresh):
                if requests[index].label is None:
                    # solve_many numbers unlabelled jobs by its own
                    # sub-batch position; renumber to the caller's.
                    report = report.copy(label="job-%d" % index)
                _, _, key = found[index]
                tier = "ram" if report.cached else "engine"
                found[index] = (report, tier, key)
                self._write_back(key, report)
            for request, (report, tier, _) in zip(requests, found):
                self.tier_hits[tier] += 1
                self._record(request, report, tier)
        return {
            "reports": [report.to_dict() for report, _, _ in found],
            "tiers": [tier for _, tier, _ in found],
            "ok": all(report.ok for report, _, _ in found),
        }

    # ------------------------------------------------------------------
    # Disk-tier writes
    # ------------------------------------------------------------------
    def _write_back(self, key: Optional[str], report: SolveReport) -> None:
        """Persist a fresh engine report under its fingerprint ``key``
        (``None`` without a disk tier) for every other worker to find;
        failed, cancelled and cache-served reports are not written."""
        if (key is not None and report.ok and not report.cached
                and report.stopped != "cancelled"):
            self._disk_write(key, report.to_dict())

    def _disk_write(self, key: str, payload: Dict[str, Any]) -> None:
        """Write one report to the disk tier; a failing disk never fails
        a request.

        The caller already holds the engine's answer, so an ``OSError``
        (a full disk, a read-only mount) or a ``ValueError`` (a report
        JSON cannot encode, such as a table past the interpreter's
        int-to-str digit limit) is counted in
        ``stats()["disk"]["write_errors"]`` and the write is dropped;
        the report is still served and kept in the RAM tier.
        """
        try:
            self.disk.put_report(key, payload)
        except (OSError, ValueError):
            self.disk_write_errors += 1

    # ------------------------------------------------------------------
    def _record(self, request: SolveRequest, report: SolveReport,
                tier: str) -> None:
        """Append one row to the per-request attribution ring."""
        row = {
            "label": request.label,
            "tier": tier,
            "ok": report.ok,
            "cached": report.cached,
            "cost": report.cost,
            "runtime_seconds": report.stats.get("runtime_seconds", 0.0),
        }
        if report.portfolio is not None:
            winner = report.portfolio.get("winner")
            row["portfolio_winner"] = winner
            self.portfolio_races += 1
            if winner is not None:
                self.portfolio_wins[winner] = \
                    self.portfolio_wins.get(winner, 0) + 1
        self._recent.append(row)
