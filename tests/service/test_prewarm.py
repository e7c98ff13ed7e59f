"""Tests for corpus prewarming into the disk tier."""

import json

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
        assert summary["disk"]["report_stores"] == 2
        assert DiskCache(cache_dir).report_count() == 2

    def test_rerun_is_all_cache_hits(self, corpus, cache_dir):
        prewarm(corpus, cache_dir)
        summary = prewarm(corpus, cache_dir)
        assert summary["ok"]
        assert summary["tiers"] == {"disk": 2}
        assert summary["disk"]["report_stores"] == 0

    def test_prewarmed_worker_serves_corpus_without_engine(
            self, corpus, cache_dir):
        prewarm(corpus, cache_dir)
        worker = SolveService(disk=DiskCache(cache_dir))
        report, tier = worker.solve(
            {"relation": {"kind": "bench", "name": "vtx"},
             "max_explored": 40})
        assert tier == "disk" and report["ok"]
        assert worker.tier_hits["engine"] == 0

    def test_injected_service_is_used(self, corpus, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        summary = prewarm(corpus, cache_dir, service=service)
        assert summary["ok"]
        assert service.request_counts["batch"] == 1
