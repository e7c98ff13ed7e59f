"""Tests for the disk tier: atomic report files + shared memo pool."""

import json
import multiprocessing
import os

import pytest

from repro.core.memo import MemoStore
from repro.service import DiskCache, fingerprint_payload


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = fingerprint_payload({"x": 1, "y": [1, 2]})
        b = fingerprint_payload({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 64 and int(a, 16) >= 0

    def test_distinguishes_payloads(self):
        assert (fingerprint_payload({"x": 1})
                != fingerprint_payload({"x": 2}))


class TestReports:
    def test_round_trip(self, cache_dir):
        cache = DiskCache(cache_dir)
        key = fingerprint_payload({"demo": 1})
        assert cache.get_report(key) is None
        cache.put_report(key, {"ok": True, "cost": 3.0})
        assert cache.get_report(key) == {"ok": True, "cost": 3.0}
        assert cache.report_count() == 1
        stats = cache.stats()
        assert stats["report_hits"] == 1
        assert stats["report_misses"] == 1
        assert stats["report_stores"] == 1
        assert stats["report_hit_rate"] == 0.5

    def test_shared_between_instances(self, cache_dir):
        DiskCache(cache_dir).put_report("k" * 64, {"ok": True})
        assert DiskCache(cache_dir).get_report("k" * 64) == {"ok": True}

    def test_corrupt_file_is_a_miss(self, cache_dir):
        cache = DiskCache(cache_dir)
        key = "a" * 64
        cache.put_report(key, {"ok": True})
        path = os.path.join(cache_dir, "reports", key + ".json")
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert cache.get_report(key) is None

    def test_no_tmp_litter_after_writes(self, cache_dir):
        cache = DiskCache(cache_dir)
        for index in range(5):
            cache.put_report("%064d" % index, {"i": index})
        names = os.listdir(os.path.join(cache_dir, "reports"))
        assert all(name.endswith(".json") for name in names)


class TestMemoPool:
    def test_merge_and_load_round_trip(self, cache_dir):
        store = MemoStore()
        store.put(("quick", ("sig",), "isop"), ((1, True), (2, False)))
        store.put(("eval", ("sig2",), "isop"), 7)
        cache = DiskCache(cache_dir)
        cache.merge_memo_entries(store.export_entries())
        loaded = DiskCache(cache_dir).load_memo_entries()
        fresh = MemoStore()
        fresh.seed(loaded)
        assert fresh.get(("quick", ("sig",), "isop")) \
            == ((1, True), (2, False))
        assert fresh.get(("eval", ("sig2",), "isop")) == 7

    def test_merge_keeps_other_workers_entries(self, cache_dir):
        a, b = DiskCache(cache_dir), DiskCache(cache_dir)
        a.merge_memo_entries([(("k", 1), "one")])
        b.merge_memo_entries([(("k", 2), "two")])
        entries = dict(DiskCache(cache_dir).load_memo_entries())
        assert entries == {("k", 1): "one", ("k", 2): "two"}

    def test_merge_bounded_drops_oldest(self, cache_dir):
        cache = DiskCache(cache_dir, memo_limit=3)
        assert cache.merge_memo_entries(
            [(("k", i), i) for i in range(3)]) == 3
        assert cache.merge_memo_entries([(("k", 99), 99)]) == 1
        assert cache.memo_entries == 3  # capped at the limit
        entries = dict(cache.load_memo_entries())
        assert len(entries) == 3
        assert ("k", 0) not in entries  # the oldest fell off
        assert entries[("k", 99)] == 99

    def test_remerge_refreshes_recency(self, cache_dir):
        cache = DiskCache(cache_dir, memo_limit=2)
        cache.merge_memo_entries([(("k", 0), 0), (("k", 1), 1)])
        # Re-merging key 0 makes it most recent; key 1 is now oldest.
        cache.merge_memo_entries([(("k", 0), 0), (("k", 2), 2)])
        assert cache.memo_segment_count() == 2
        entries = dict(cache.load_memo_entries())
        assert set(entries) == {("k", 0), ("k", 2)}
        # Compaction keeps exactly what loading the segments gave.
        assert cache.compact_memo()
        assert cache.memo_segment_count() == 0
        assert set(dict(cache.load_memo_entries())) == {("k", 0), ("k", 2)}

    def test_empty_merge_writes_nothing(self, cache_dir):
        cache = DiskCache(cache_dir)
        assert cache.merge_memo_entries([]) == 0
        assert cache.memo_segment_count() == 0
        assert cache.memo_merges == 0

    def test_corrupt_memo_file_degrades_to_empty(self, cache_dir):
        cache = DiskCache(cache_dir)
        cache.merge_memo_entries([(("k", 0), 0)])
        assert cache.compact_memo()
        with open(os.path.join(cache_dir, "memo.json"), "w") as handle:
            handle.write("not json at all")
        assert cache.load_memo_entries() == []
        assert cache.memo_entries == 0
        # A flush over the corrupt snapshot recovers cleanly, and so
        # does the compaction that replaces it.
        cache.merge_memo_entries([(("k", 1), 1)])
        assert dict(cache.load_memo_entries()) == {("k", 1): 1}
        assert cache.compact_memo()
        assert dict(DiskCache(cache_dir).load_memo_entries()) \
            == {("k", 1): 1}

    def test_stale_rows_skipped_on_load(self, cache_dir):
        cache = DiskCache(cache_dir)
        cache.merge_memo_entries([(("k", 0), 0)])
        assert cache.compact_memo()
        path = os.path.join(cache_dir, "memo.json")
        with open(path) as handle:
            data = json.load(handle)
        data["entries"].append(["only-one-element"])
        data["entries"].append("not a pair at all")
        with open(path, "w") as handle:
            json.dump(data, handle)
        assert dict(cache.load_memo_entries()) == {("k", 0): 0}


def _segment_paths(cache_dir):
    directory = os.path.join(cache_dir, "memo-segments")
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory))


def _flush_worker(cache_dir, worker, flushes, per_flush):
    """One process of the concurrency test: flush, compacting now and
    then, as a worker booting mid-traffic would."""
    cache = DiskCache(cache_dir, memo_limit=None)
    for flush in range(flushes):
        cache.merge_memo_entries(
            [(("w", worker, flush, item), item)
             for item in range(per_flush)])
        if flush % 2:
            cache.compact_memo()


class TestMemoJournal:
    """Snapshot + append-only segments: layout, compaction, failures."""

    def test_flush_appends_a_segment_and_leaves_the_snapshot(
            self, cache_dir):
        cache = DiskCache(cache_dir)
        cache.merge_memo_entries([(("k", 0), 0)])
        assert cache.compact_memo()
        snapshot = os.path.join(cache_dir, "memo.json")
        with open(snapshot) as handle:
            before = handle.read()
        cache.merge_memo_entries([(("k", 1), 1)])
        cache.merge_memo_entries([(("k", 2), 2)])
        with open(snapshot) as handle:
            assert handle.read() == before
        paths = _segment_paths(cache_dir)
        assert len(paths) == 2
        with open(paths[-1]) as handle:  # names sort in write order
            assert json.load(handle) == {"entries": [[["k", 2], 2]]}

    def test_compaction_folds_every_segment(self, cache_dir):
        cache = DiskCache(cache_dir)
        assert not cache.compact_memo()  # nothing to fold
        for index in range(4):
            cache.merge_memo_entries([(("k", index), index)])
        loaded = cache.load_memo_entries()
        assert cache.compact_memo()
        assert _segment_paths(cache_dir) == []
        assert DiskCache(cache_dir).load_memo_entries() == loaded
        stats = cache.stats()
        assert stats["memo_compactions"] == 1
        assert stats["memo_segments"] == 0
        assert stats["memo_entries"] == 4

    def test_torn_and_garbage_segments_are_skipped_and_counted(
            self, cache_dir):
        cache = DiskCache(cache_dir)
        cache.merge_memo_entries([(("k", 0), 0)])
        directory = os.path.join(cache_dir, "memo-segments")
        bad = {"1-torn.json": b'{"entries": [[["k", 9], 9], [["k"',
               "2-garbage.json": b"\xff\xfe\x00 not json",
               "3-wrong-shape.json": b"[1, 2, 3]"}
        for name, raw in bad.items():
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(raw)
        # A worker killed mid-write leaves only a temp file behind.
        with open(os.path.join(directory, "killed.tmp"), "w") as handle:
            handle.write('{"entries": [')
        cache.merge_memo_entries([(("k", 1), 1)])
        fresh = DiskCache(cache_dir)
        assert dict(fresh.load_memo_entries()) == {("k", 0): 0,
                                                   ("k", 1): 1}
        assert fresh.stats()["memo_segments_skipped"] == 3
        assert fresh.stats()["memo_segments"] == 5
        # Compaction folds the good segments and drops the corrupt
        # ones; the temp file is never treated as a segment.
        assert fresh.compact_memo()
        assert fresh.memo_segment_count() == 0
        assert dict(DiskCache(cache_dir).load_memo_entries()) \
            == {("k", 0): 0, ("k", 1): 1}

    def test_segment_written_during_compaction_survives(self, cache_dir):
        compactor, writer = DiskCache(cache_dir), DiskCache(cache_dir)
        compactor.merge_memo_entries([(("k", "folded"), 1)])

        def write_then_race(path, payload):
            # Another worker flushes after the compactor listed the
            # segments but before it writes the snapshot.
            writer.merge_memo_entries([(("k", "late"), 2)])
            DiskCache._write_atomic(path, payload)

        compactor._write_atomic = write_then_race
        assert compactor.compact_memo()
        remaining = _segment_paths(cache_dir)
        assert len(remaining) == 1
        with open(remaining[0]) as handle:
            assert json.load(handle) == {"entries": [[["k", "late"], 2]]}
        assert dict(DiskCache(cache_dir).load_memo_entries()) \
            == {("k", "folded"): 1, ("k", "late"): 2}

    def test_compaction_skipped_while_another_process_holds_the_lock(
            self, cache_dir):
        fcntl = pytest.importorskip("fcntl")
        cache = DiskCache(cache_dir)
        cache.merge_memo_entries([(("k", 0), 0)])
        with open(os.path.join(cache_dir, "memo.lock"), "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_SH)  # a concurrent loader
            assert not cache.compact_memo()
            assert dict(cache.load_memo_entries()) == {("k", 0): 0}
        assert cache.memo_segment_count() == 1
        assert cache.compact_memo()

    def test_concurrent_processes_lose_no_entry(self, cache_dir):
        workers, flushes, per_flush = 3, 20, 4
        context = multiprocessing.get_context("spawn")
        processes = [context.Process(target=_flush_worker,
                                     args=(cache_dir, worker, flushes,
                                           per_flush))
                     for worker in range(workers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert all(not process.is_alive() and process.exitcode == 0
                   for process in processes)
        entries = dict(DiskCache(cache_dir, memo_limit=None)
                       .load_memo_entries())
        expected = {("w", worker, flush, item)
                    for worker in range(workers)
                    for flush in range(flushes)
                    for item in range(per_flush)}
        assert set(entries) == expected

    def test_stats_do_not_read_the_pool(self, cache_dir, monkeypatch):
        cache = DiskCache(cache_dir)
        cache.merge_memo_entries([(("k", 0), 0), (("k", 1), 1)])

        def no_reads(*args, **kwargs):
            raise AssertionError("stats() read the memo pool")

        monkeypatch.setattr(cache, "_read_pool", no_reads)
        monkeypatch.setattr(cache, "_read_json", no_reads)
        stats = cache.stats()
        assert stats["memo_entries"] == 2
        assert stats["memo_segments"] == 1


class TestLearnedLog:
    def test_solve_only_store_log_stays_within_capacity(self):
        """A store that never flushes must not grow from the log, even
        under heavy eviction."""
        from repro.benchdata import instance_by_name
        from repro.core import BrelOptions, BrelSolver

        store = MemoStore(capacity=16)
        relation = instance_by_name("vtx").build()
        BrelSolver(BrelOptions(max_explored=40), memo=store).solve(
            relation)
        assert store.evictions > 0
        assert len(store._learned) <= store.capacity
        assert all(key in store for key in store._learned)


class TestMaintenance:
    def test_clear_drops_everything(self, cache_dir):
        cache = DiskCache(cache_dir)
        cache.put_report("c" * 64, {"ok": True})
        cache.merge_memo_entries([(("k", 0), 0)])
        assert cache.compact_memo()
        cache.merge_memo_entries([(("k", 1), 1)])
        cache.clear()
        assert cache.report_count() == 0
        assert cache.memo_entries == 0
        assert cache.memo_segment_count() == 0
        assert not os.path.exists(os.path.join(cache_dir, "memo.json"))
        assert cache.load_memo_entries() == []

    def test_stats_shape(self, cache_dir):
        stats = DiskCache(cache_dir).stats()
        for field in ("root", "reports", "report_hits", "report_misses",
                      "report_stores", "report_hit_rate", "memo_entries",
                      "memo_limit", "memo_loads", "memo_merges",
                      "memo_segments", "memo_segments_skipped",
                      "memo_compactions"):
            assert field in stats


class TestReportEviction:
    """Bounded reports directory: byte budget, age cutoff, LRU touch."""

    @staticmethod
    def _put(cache, name, age_seconds=None):
        """Store a ~100-byte report; optionally backdate its mtime."""
        key = fingerprint_payload({"case": name})
        cache.put_report(key, {"name": name, "pad": "x" * 80})
        if age_seconds is not None:
            import time
            path = cache._report_path(key)
            stamp = time.time() - age_seconds
            os.utime(path, (stamp, stamp))
        return key

    def test_bounds_are_validated(self, cache_dir):
        import pytest
        with pytest.raises(ValueError):
            DiskCache(cache_dir, max_report_bytes=-1)
        with pytest.raises(ValueError):
            DiskCache(cache_dir, max_report_age_seconds=-0.5)

    def test_unbounded_by_default(self, cache_dir):
        cache = DiskCache(cache_dir)
        for index in range(5):
            self._put(cache, index)
        assert cache.report_count() == 5
        assert cache.report_evictions == 0

    def test_byte_budget_evicts_oldest_first(self, cache_dir):
        cache = DiskCache(cache_dir, max_report_bytes=250)
        old = self._put(cache, "old", age_seconds=300)
        mid = self._put(cache, "mid", age_seconds=200)
        new = self._put(cache, "new")
        # ~300 bytes total against a 250 budget: "old" had the stalest
        # mtime and goes first; the two younger entries fit and stay.
        assert cache.get_report(old) is None
        assert cache.get_report(mid) is not None
        assert cache.get_report(new) is not None
        assert cache.report_evictions == 1
        assert cache.report_bytes() <= 250

    def test_age_cutoff_evicts_regardless_of_budget(self, cache_dir):
        cache = DiskCache(cache_dir, max_report_age_seconds=60.0)
        stale = self._put(cache, "stale", age_seconds=3600)
        fresh = self._put(cache, "fresh")
        trigger = self._put(cache, "trigger")  # write runs the sweep
        assert cache.get_report(stale) is None
        assert cache.get_report(fresh) is not None
        assert cache.get_report(trigger) is not None
        assert cache.report_evictions == 1

    def test_served_hit_survives_byte_pressure(self, cache_dir):
        """A read refreshes mtime, so hot entries outlive cold ones."""
        cache = DiskCache(cache_dir, max_report_bytes=250)
        hot = self._put(cache, "hot", age_seconds=300)
        cold = self._put(cache, "cold", age_seconds=200)
        assert cache.get_report(hot) is not None  # touch: now youngest
        self._put(cache, "filler")  # pressure: one of the two must go
        assert cache.get_report(hot) is not None
        assert cache.get_report(cold) is None

    def test_stats_surface_bounds_and_evictions(self, cache_dir):
        cache = DiskCache(cache_dir, max_report_bytes=250,
                          max_report_age_seconds=90.0)
        self._put(cache, "only")
        stats = cache.stats()
        assert stats["max_report_bytes"] == 250
        assert stats["max_report_age_seconds"] == 90.0
        assert stats["report_evictions"] == 0
        assert stats["report_bytes"] == cache.report_bytes() > 0
