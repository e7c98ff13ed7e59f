"""The disk tier: process-spanning persistence of reports and memo state.

A :class:`DiskCache` is a plain directory shared by every worker of a
deployment (and by consecutive process lifetimes), holding the two
things worth keeping when a worker dies:

* **solved reports** — one JSON file per canonical request fingerprint
  under ``reports/``, written atomically, read back as
  :meth:`SolveReport.from_dict` payloads.  Serving a report from here
  costs one small file read; the engine is never touched.
* **memo templates** — the pool of session
  :class:`~repro.core.memo.MemoStore` entries, in the JSON wire format
  of :func:`repro.core.memo.entries_to_jsonable`.  Fresh workers seed
  their store from it at boot, so the whole fleet shares one growing
  body of solved subproblems.

The memo pool is a journal: a compacted snapshot plus append-only
segments.

* ``memo.json`` is the **snapshot**.
* ``memo-segments/`` holds the **segments**.  Each worker flush
  (:meth:`DiskCache.merge_memo_entries`) writes one new segment file
  holding only what that worker learned since its previous flush.
  Segment names start with a nanosecond stamp, then the writer's pid
  and a per-instance random token, so names never collide and sort in
  write order.  A flush costs the size of what was learned, never the
  size of the pool.
* **Loading** (:meth:`DiskCache.load_memo_entries`) reads the snapshot,
  then the segments in name order.  The last write of a key wins, and
  the newest ``memo_limit`` entries are kept.
* **Compaction** (:meth:`DiskCache.compact_memo`) folds the segments
  into a new snapshot, then deletes the segments it folded.  It runs at
  service boot and at the end of ``repro prewarm``, and only when
  segments exist, so booting a compacted pool reads one file.

Recency on disk is write order.  Learning an entry, or learning it
again in a later segment, makes it newer.  A memo *hit* in some
worker's RAM does not, so under ``memo_limit`` pressure the pool keeps
the most recently *learned* entries.  Templates are transparent (they
rebuild exactly the function a fresh solve would), so this policy
changes what is remembered, never an answer.

Crash and concurrency guarantees:

* Every file is written to a temp file and then moved into place with
  :func:`os.replace`, which is atomic on POSIX and Windows.  A worker
  killed mid-write leaves at most a stray ``*.tmp`` file, which readers
  ignore.
* An unreadable or truncated report is a cache miss, never an
  exception.  The same holds for the snapshot, which then reads as
  empty.  A torn or garbage segment is skipped and counted
  (``memo_segments_skipped``), and the rest of the pool still loads.
* No flush or compaction loses another worker's entries.  Flushes only
  ever create new files.  A compaction holds an exclusive
  :func:`fcntl.flock` on ``memo.lock`` and deletes only the segments it
  listed and folded, so a segment written meanwhile survives.  When
  another process holds the lock, the compaction is skipped.  Loads
  hold the lock shared, so they never see a half-finished compaction.
  The kernel drops the lock when its holder dies.  Without
  :mod:`fcntl` (non-POSIX hosts) nothing is compacted, and segments
  simply accumulate.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.memo import entries_from_jsonable, entries_to_jsonable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None  # type: ignore[assignment]

__all__ = ["DiskCache", "fingerprint_payload"]

#: Default bound on how many memo entries the pool keeps (the most
#: recently written win).  Matches the in-RAM store's default.
DEFAULT_DISK_MEMO_LIMIT = 4096


def fingerprint_payload(payload: Any) -> str:
    """A stable hex digest of a JSON-able payload (the slot name).

    Canonical JSON (sorted keys, no whitespace variance) hashed with
    SHA-256: equal payloads fingerprint equally in every process on
    every platform, which is the whole point of a disk tier shared by
    a worker fleet.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DiskCache:
    """A directory-backed report + memo store shared across processes.

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
                 memo_limit: Optional[int] = DEFAULT_DISK_MEMO_LIMIT,
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
        self.memo_limit = memo_limit
        self.max_report_bytes = max_report_bytes
        self.max_report_age_seconds = max_report_age_seconds
        self._reports_dir = os.path.join(self.root, "reports")
        self._memo_path = os.path.join(self.root, "memo.json")
        self._segments_dir = os.path.join(self.root, "memo-segments")
        self._lock_path = os.path.join(self.root, "memo.lock")
        os.makedirs(self._reports_dir, exist_ok=True)
        os.makedirs(self._segments_dir, exist_ok=True)
        #: Distinguishes this instance's segments from those of other
        #: writers (the pid alone can repeat across hosts and reboots).
        self._token = os.urandom(4).hex()
        self._last_stamp = 0
        self.report_hits = 0
        self.report_misses = 0
        self.report_stores = 0
        self.report_evictions = 0
        #: Pool size as this instance knows it (see :meth:`stats`).
        self.memo_entries = 0
        self.memo_loads = 0
        self.memo_merges = 0
        self.memo_segments_skipped = 0
        self.memo_compactions = 0

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
        entries = []  # (mtime, size, path)
        try:
            names = os.listdir(self._reports_dir)
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._reports_dir, name)
            try:
                status = os.stat(path)
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
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

    def report_count(self) -> int:
        try:
            return sum(1 for name in os.listdir(self._reports_dir)
                       if name.endswith(".json"))
        except OSError:
            return 0

    def report_bytes(self) -> int:
        """Total payload bytes currently in the reports directory."""
        total = 0
        try:
            names = os.listdir(self._reports_dir)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                total += os.stat(
                    os.path.join(self._reports_dir, name)).st_size
            except OSError:
                continue
        return total

    # -- memo templates ------------------------------------------------
    def load_memo_entries(self) -> List[Tuple[Any, Any]]:
        """The pooled memo entries, seed-ready (possibly empty).

        The snapshot, then every segment in write order: the last
        write of a key wins, and the newest ``memo_limit`` entries are
        kept.
        """
        with self._pool_lock(exclusive=False):
            entries, _ = self._read_pool(self._segment_names())
        self.memo_loads += 1
        self.memo_entries = len(entries)
        return entries

    def merge_memo_entries(self, entries: List[Tuple[Any, Any]]) -> int:
        """Append ``entries`` to the pool as one new segment.

        Returns the number of entries appended; an empty list writes
        nothing.  The cost is one serialisation of ``entries``: the
        pool itself is neither read nor rewritten.
        """
        if not entries:
            return 0
        stamp = max(time.time_ns(), self._last_stamp + 1)
        self._last_stamp = stamp
        name = "%020d-%d-%s.json" % (stamp, os.getpid(), self._token)
        self._write_atomic(os.path.join(self._segments_dir, name),
                           {"entries": entries_to_jsonable(entries)})
        self.memo_merges += 1
        self.memo_entries += len(entries)
        if self.memo_limit is not None:
            self.memo_entries = min(self.memo_entries, self.memo_limit)
        return len(entries)

    def compact_memo(self) -> bool:
        """Fold the segments into a new snapshot; ``True`` if it did.

        Nothing happens when there are no segments, or when another
        process holds the pool lock (it is compacting, or loading).
        Only the segments listed and folded here are deleted.  A
        segment that could not be opened is left for a later
        compaction.  A corrupt one is deleted with the rest, because
        no later read could recover it either.
        """
        with self._pool_lock(exclusive=True) as locked:
            names = self._segment_names() if locked else []
            if not names:
                return False
            entries, folded = self._read_pool(names)
            self._write_atomic(self._memo_path,
                               {"entries": entries_to_jsonable(entries)})
            for path in folded:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        self.memo_compactions += 1
        self.memo_entries = len(entries)
        return True

    def memo_segment_count(self) -> int:
        """Segments in the pool not yet folded into the snapshot."""
        return len(self._segment_names())

    def _segment_names(self) -> List[str]:
        try:
            return sorted(name for name in os.listdir(self._segments_dir)
                          if name.endswith(".json"))
        except OSError:
            return []

    def _read_pool(self, names: List[str]
                   ) -> Tuple[List[Tuple[Any, Any]], List[str]]:
        """Snapshot plus the named segments, merged.

        Returns the entries and the paths of the segments that were
        read to the end (folded or found corrupt).
        """
        snapshot = self._read_json(self._memo_path)
        rows = snapshot.get("entries") if isinstance(snapshot, dict) \
            else None
        merged: Dict[Any, Any] = dict(
            entries_from_jsonable(rows) if isinstance(rows, list) else ())
        folded = []
        for name in names:
            path = os.path.join(self._segments_dir, name)
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                self.memo_segments_skipped += 1
                continue
            folded.append(path)
            try:
                data = json.loads(raw)
            except ValueError:  # also undecodable bytes
                data = None
            rows = data.get("entries") if isinstance(data, dict) else None
            if not isinstance(rows, list):
                self.memo_segments_skipped += 1
                continue
            for key, value in entries_from_jsonable(rows):
                merged.pop(key, None)
                merged[key] = value
        items = list(merged.items())
        if self.memo_limit is not None and len(items) > self.memo_limit:
            items = items[-self.memo_limit:]
        return items, folded

    @contextlib.contextmanager
    def _pool_lock(self, exclusive: bool) -> Iterator[bool]:
        """Hold the pool lock; yields whether it is held.

        Shared locks wait for a running compaction to finish.  The
        exclusive lock never waits: ``False`` means someone else holds
        the lock, and the caller skips its compaction.  Where no lock
        can be had (no :mod:`fcntl`, a read-only pool) reads go ahead
        and compactions are skipped.
        """
        try:
            handle = open(self._lock_path, "a") if fcntl else None
        except OSError:
            handle = None
        if handle is None:
            yield not exclusive
            return
        with handle:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB
                            if exclusive else fcntl.LOCK_SH)
                held = True
            except BlockingIOError:
                held = False
            yield held

    # -- maintenance ---------------------------------------------------
    def clear(self) -> None:
        """Drop every persisted report and memo entry (counters kept)."""
        for directory, suffix in ((self._reports_dir, ".json"),
                                  (self._segments_dir, "")):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.endswith(suffix):
                    try:
                        os.unlink(os.path.join(directory, name))
                    except OSError:
                        pass
        try:
            os.unlink(self._memo_path)
        except OSError:
            pass
        self.memo_entries = 0

    def stats(self) -> Dict[str, Any]:
        """Counter + occupancy snapshot (shape mirrors memo stats).

        ``memo_entries`` is the pool size this instance knows without
        reading the pool: exact after its last load or compaction, plus
        what it appended since (capped at ``memo_limit``).  Other
        workers' appends are not seen, and a key appended twice counts
        twice.  ``memo_segments`` lists the segment directory, so it
        does see other workers' segments.
        """
        total = self.report_hits + self.report_misses
        return {
            "root": self.root,
            "reports": self.report_count(),
            "report_hits": self.report_hits,
            "report_misses": self.report_misses,
            "report_stores": self.report_stores,
            "report_hit_rate": (self.report_hits / total) if total
            else 0.0,
            "report_bytes": self.report_bytes(),
            "report_evictions": self.report_evictions,
            "max_report_bytes": self.max_report_bytes,
            "max_report_age_seconds": self.max_report_age_seconds,
            "memo_entries": self.memo_entries,
            "memo_limit": self.memo_limit,
            "memo_loads": self.memo_loads,
            "memo_merges": self.memo_merges,
            "memo_segments": self.memo_segment_count(),
            "memo_segments_skipped": self.memo_segments_skipped,
            "memo_compactions": self.memo_compactions,
        }
