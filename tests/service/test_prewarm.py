"""Tests for corpus prewarming and the multi-worker seeding story."""

import json
import os

import pytest

from repro.service import DiskCache, SolveService, prewarm


@pytest.fixture
def corpus(tmp_path):
    """A small manifest mixing benchmark and inline-PLA requests."""
    jobs = [{"label": "vtx", "relation": {"kind": "bench", "name": "vtx"},
             "max_explored": 40},
            {"label": "vtx-cubes",
             "relation": {"kind": "bench", "name": "vtx"},
             "cost": "cubes", "max_explored": 40}]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"defaults": {"cost": "size"},
                                "jobs": jobs}))
    return str(path)


class TestPrewarm:
    def test_summary_and_disk_population(self, corpus, cache_dir):
        summary = prewarm(corpus, cache_dir)
        assert summary["ok"] and summary["jobs"] == 2
        assert summary["tiers"] == {"engine": 2}
        assert summary["memo_entries"] > 0
        assert summary["disk"]["report_stores"] == 2
        assert DiskCache(cache_dir).report_count() == 2

    def test_rerun_is_all_cache_hits(self, corpus, cache_dir):
        first = prewarm(corpus, cache_dir)
        summary = prewarm(corpus, cache_dir)
        assert summary["ok"]
        assert summary["tiers"] == {"disk": 2}
        assert summary["memo_entries"] == first["memo_entries"]

    def test_run_ends_with_a_compacted_pool(self, corpus, cache_dir):
        summary = prewarm(corpus, cache_dir)
        assert summary["disk"]["memo_compactions"] == 1
        assert summary["disk"]["memo_segments"] == 0
        assert os.path.isfile(os.path.join(cache_dir, "memo.json"))
        assert len(DiskCache(cache_dir).load_memo_entries()) \
            == summary["memo_entries"] > 0

    def test_prewarmed_worker_serves_corpus_without_engine(
            self, corpus, cache_dir):
        prewarm(corpus, cache_dir)
        worker = SolveService(disk=DiskCache(cache_dir))
        report, tier = worker.solve(
            {"relation": {"kind": "bench", "name": "vtx"},
             "max_explored": 40})
        assert tier == "disk" and report["ok"]
        assert worker.tier_hits["engine"] == 0

    def test_seeded_worker_does_less_memo_work(self, corpus, cache_dir):
        """The acceptance scenario: a cold-but-seeded worker solving a
        *new* request (same relation family, different options, so no
        report-tier hit) re-uses the corpus's memo templates and misses
        measurably less than a truly cold worker."""
        prewarm(corpus, cache_dir)
        novel = {"relation": {"kind": "bench", "name": "vtx"},
                 "strategy": "best-first", "max_explored": 40}
        seeded = SolveService(disk=DiskCache(cache_dir))
        assert seeded.seeded_entries > 0
        warm_report, warm_tier = seeded.solve(dict(novel))
        unseeded = SolveService()
        cold_report, cold_tier = unseeded.solve(dict(novel))
        assert warm_tier == cold_tier == "engine"
        assert warm_report["sop"] == cold_report["sop"]
        assert warm_report["cost"] == cold_report["cost"]
        warm_misses = warm_report["stats"]["memo_misses"]
        cold_misses = cold_report["stats"]["memo_misses"]
        # Seeding cannot be judged by hit counts (seeded quick-solves
        # skip whole subtrees, so *both* hits and misses shrink); the
        # honest signal is that less had to be computed from scratch.
        assert warm_misses < cold_misses

    def test_injected_service_is_used(self, corpus, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        summary = prewarm(corpus, cache_dir, service=service)
        assert summary["ok"]
        assert service.request_counts["batch"] == 1
