"""The disk tier: process-spanning persistence of solved reports.

A :class:`DiskCache` is a plain directory shared by every worker of a
deployment (and by consecutive process lifetimes).  It holds one JSON
file per request fingerprint (:meth:`SolveRequest.fingerprint`,
:meth:`ResynthRequest.fingerprint`) under ``reports/``, written
atomically and read back as :meth:`SolveReport.from_dict` payloads.
Serving a report from here costs one small file read; the engine is
never touched.  Reports are the only state kept: every relation the
engine explores is solved from scratch.

Crash and concurrency guarantees:

* Every file is written to a temp file and then moved into place with
  :func:`os.replace`, which is atomic on POSIX and Windows.  A worker
  killed mid-write leaves at most a stray ``*.tmp`` file, which readers
  ignore, and concurrent writers of one key leave one of their
  complete documents.
* An unreadable or truncated report is a cache miss, never an
  exception.
* Files other than ``reports/*.json`` are ignored, so a directory
  written by an older version (which also kept a subproblem-memo pool
  beside the reports) opens as it is.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = ["DiskCache"]


class DiskCache:
    """A directory-backed report store shared across processes.

    The reports directory can be bounded two ways (both optional, both
    enforced on every write so the directory never grows past the
    moment a worker stops writing):

    * ``max_report_bytes`` — total payload bytes; least-recently-*used*
      reports go first (a served hit refreshes its file's mtime, so
      hot entries survive).
    * ``max_report_age_seconds`` — reports whose mtime is older are
      dropped regardless of the byte budget.
    """

    def __init__(self, root: str, *,
                 max_report_bytes: Optional[int] = None,
                 max_report_age_seconds: Optional[float] = None
                 ) -> None:
        if max_report_bytes is not None and max_report_bytes < 0:
            raise ValueError("max_report_bytes must be >= 0 or None")
        if (max_report_age_seconds is not None
                and max_report_age_seconds < 0):
            raise ValueError("max_report_age_seconds must be >= 0 or "
                             "None")
        self.root = os.path.abspath(root)
        self.max_report_bytes = max_report_bytes
        self.max_report_age_seconds = max_report_age_seconds
        self._reports_dir = os.path.join(self.root, "reports")
        os.makedirs(self._reports_dir, exist_ok=True)
        self.report_hits = 0
        self.report_misses = 0
        self.report_stores = 0
        self.report_evictions = 0

    # -- atomic file plumbing ------------------------------------------
    @staticmethod
    def _write_atomic(path: str, payload: Any) -> None:
        """Write JSON so readers only ever see complete documents.

        One :func:`json.dumps` call (the C encoder; tuples encode as
        arrays) and one write.
        """
        text = json.dumps(payload, sort_keys=True)
        directory = os.path.dirname(path)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @staticmethod
    def _read_json(path: str) -> Optional[Any]:
        """Read a JSON file; any failure whatsoever is a miss."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- reports -------------------------------------------------------
    def _report_path(self, key: str) -> str:
        return os.path.join(self._reports_dir, key + ".json")

    def get_report(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored report dict for ``key``, or ``None`` (counted).

        A hit refreshes the file's mtime (best-effort), which is what
        makes the byte-budget eviction least-recently-*used* rather
        than least-recently-written.
        """
        path = self._report_path(key)
        data = self._read_json(path)
        if isinstance(data, dict):
            self.report_hits += 1
            try:
                os.utime(path, None)
            except OSError:
                pass
            return data
        self.report_misses += 1
        return None

    def put_report(self, key: str, report: Dict[str, Any]) -> None:
        """Persist one report dict under its fingerprint (atomic).

        Every write re-enforces the directory bounds, so the tier
        stays within budget without a separate sweeper process.
        """
        self._write_atomic(self._report_path(key), report)
        self.report_stores += 1
        self._evict_reports()

    def _evict_reports(self) -> None:
        """Enforce ``max_report_age_seconds`` / ``max_report_bytes``.

        Age first (expired entries are dead weight whatever the byte
        budget says), then oldest-mtime-first until the remaining
        payload fits.  Races with concurrent workers degrade safely:
        a file deleted under us was evictable for them too.
        """
        if self.max_report_bytes is None \
                and self.max_report_age_seconds is None:
            return
        entries = list(self._report_entries())
        now = time.time()
        if self.max_report_age_seconds is not None:
            cutoff = now - self.max_report_age_seconds
            keep = []
            for entry in entries:
                if entry[0] < cutoff:
                    self._evict_one(entry[2])
                else:
                    keep.append(entry)
            entries = keep
        if self.max_report_bytes is not None:
            total = sum(size for _, size, _ in entries)
            entries.sort()  # oldest mtime first
            for _, size, path in entries:
                if total <= self.max_report_bytes:
                    break
                self._evict_one(path)
                total -= size

    def _evict_one(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            return
        self.report_evictions += 1

    def _report_entries(self) -> Iterator[Tuple[float, int, str]]:
        """``(mtime, size, path)`` of each stored report, from one
        directory walk.

        A report deleted by another worker mid-walk is skipped, and an
        unreadable directory yields nothing.
        """
        try:
            with os.scandir(self._reports_dir) as walk:
                for entry in walk:
                    if not entry.name.endswith(".json"):
                        continue
                    try:
                        status = entry.stat()
                    except OSError:
                        continue
                    yield status.st_mtime, status.st_size, entry.path
        except OSError:
            return

    def report_count(self) -> int:
        """Reports currently in the reports directory."""
        return sum(1 for _ in self._report_entries())

    def report_bytes(self) -> int:
        """Total payload bytes currently in the reports directory."""
        return sum(size for _, size, _ in self._report_entries())

    # -- maintenance ---------------------------------------------------
    def clear(self) -> None:
        """Drop every persisted report (counters kept)."""
        for _, _, path in list(self._report_entries()):
            try:
                os.unlink(path)
            except OSError:
                pass

    def stats(self) -> Dict[str, Any]:
        """Counter + occupancy snapshot (one directory walk)."""
        sizes = [size for _, size, _ in self._report_entries()]
        total = self.report_hits + self.report_misses
        return {
            "root": self.root,
            "reports": len(sizes),
            "report_hits": self.report_hits,
            "report_misses": self.report_misses,
            "report_stores": self.report_stores,
            "report_hit_rate": (self.report_hits / total) if total
            else 0.0,
            "report_bytes": sum(sizes),
            "report_evictions": self.report_evictions,
            "max_report_bytes": self.max_report_bytes,
            "max_report_age_seconds": self.max_report_age_seconds,
        }
