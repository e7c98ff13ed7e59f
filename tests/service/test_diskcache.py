"""Tests for the disk tier: atomic report files."""

import json
import multiprocessing
import os

import pytest

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


def _report_worker(cache_dir, worker, rounds, failures):
    """One process of the concurrency test: write a shared key and a
    private key each round, reading both back after every write."""
    cache = DiskCache(cache_dir)
    shared, private = "s" * 64, ("%d" % worker) * 64
    blob = 2000
    for round_ in range(rounds):
        cache.put_report(shared, {"writer": worker, "round": round_,
                                  "blob": [worker] * blob})
        cache.put_report(private, {"writer": worker, "round": round_,
                                   "blob": [worker] * blob})
        got = cache.get_report(shared)
        # Another writer may have replaced the shared report, but only
        # ever with a whole document of its own.
        if (got is None or got["writer"] not in (0, 1)
                or got["blob"] != [got["writer"]] * blob):
            failures.put("torn shared report in round %d" % round_)
            return
        got = cache.get_report(private)
        if got != {"writer": worker, "round": round_,
                   "blob": [worker] * blob}:
            failures.put("foreign or stale private report in round %d"
                         % round_)
            return


class TestConcurrentWriters:
    def test_two_processes_never_read_torn_or_foreign_reports(
            self, cache_dir):
        context = multiprocessing.get_context("spawn")
        failures = context.Queue()
        processes = [context.Process(target=_report_worker,
                                     args=(cache_dir, worker, 60,
                                           failures))
                     for worker in range(2)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert all(not process.is_alive() and process.exitcode == 0
                   for process in processes)
        assert failures.empty(), failures.get()
        cache = DiskCache(cache_dir)
        assert cache.report_count() == 3
        assert cache.get_report("s" * 64)["writer"] in (0, 1)
        names = os.listdir(os.path.join(cache_dir, "reports"))
        assert all(name.endswith(".json") for name in names)


class TestMaintenance:
    def test_clear_drops_every_report(self, cache_dir):
        cache = DiskCache(cache_dir)
        cache.put_report("c" * 64, {"ok": True})
        cache.put_report("d" * 64, {"ok": True})
        cache.clear()
        assert cache.report_count() == 0
        assert cache.get_report("c" * 64) is None

    def test_stats_shape(self, cache_dir):
        stats = DiskCache(cache_dir).stats()
        assert set(stats) == {
            "root", "reports", "report_hits", "report_misses",
            "report_stores", "report_hit_rate", "report_bytes",
            "report_evictions", "max_report_bytes",
            "max_report_age_seconds"}

    def test_stats_walks_the_directory_once(self, cache_dir,
                                            monkeypatch):
        cache = DiskCache(cache_dir)
        cache.put_report("c" * 64, {"ok": True})
        cache.put_report("d" * 64, {"ok": True, "cost": 12})
        sizes = sum(os.path.getsize(os.path.join(cache_dir, "reports",
                                                 name))
                    for name in os.listdir(os.path.join(cache_dir,
                                                        "reports")))
        walks = []
        real_scandir, real_listdir = os.scandir, os.listdir

        def scandir(path):
            walks.append(path)
            return real_scandir(path)

        def listdir(path):
            walks.append(path)
            return real_listdir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        monkeypatch.setattr(os, "listdir", listdir)
        stats = cache.stats()
        assert len(walks) == 1
        assert stats["reports"] == 2
        assert stats["report_bytes"] == sizes


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
