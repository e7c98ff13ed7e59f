"""Tests for the transport-independent service core (SolveService)."""

import errno
import json
import os
import random
import threading

import pytest

from repro.api import REPORT_SCHEMA_VERSION, SolveReport, SolveRequest
from repro.resynth import RESYNTH_SCHEMA_VERSION, ResynthRequest
from repro.service import (DiskCache, ServiceError, SolveService,
                           fingerprint_payload)

VTX = {"relation": {"kind": "bench", "name": "vtx"}, "max_explored": 60}


class TestTieredSolve:
    def test_first_engine_then_ram(self, fig1_request):
        service = SolveService()
        first, tier1 = service.solve(dict(fig1_request))
        second, tier2 = service.solve(dict(fig1_request))
        assert (tier1, tier2) == ("engine", "ram")
        assert first["ok"] and second["ok"]
        assert second["cached"] is True
        # Report-equal where it matters: same answer, same cost.
        assert second["sop"] == first["sop"]
        assert second["cost"] == first["cost"]
        assert service.tier_hits == {"ram": 1, "disk": 0, "engine": 1}

    def test_ram_hit_does_no_engine_work(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        before = service.session.engine_stats()
        report, tier = service.solve(dict(fig1_request))
        assert tier == "ram" and report["cached"]
        assert service.session.engine_stats() == before

    def test_disk_tier_survives_worker_death(self, fig1_request,
                                             cache_dir):
        worker1 = SolveService(disk=DiskCache(cache_dir))
        _, tier1 = worker1.solve(dict(fig1_request))
        assert tier1 == "engine"
        # A different process lifetime: fresh session, same directory.
        worker2 = SolveService(disk=DiskCache(cache_dir))
        report, tier2 = worker2.solve(dict(fig1_request))
        assert tier2 == "disk"
        assert report["ok"] and report["cached"]
        # Promotion: the *next* identical request is a RAM hit.
        _, tier3 = worker2.solve(dict(fig1_request))
        assert tier3 == "ram"
        assert worker2.tier_hits["engine"] == 0

    def test_label_does_not_split_the_cache(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request, label="alpha"))
        report, tier = service.solve(dict(fig1_request, label="beta"))
        assert tier == "ram"
        assert report["label"] == "beta"

    def test_options_split_the_cache(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        _, tier = service.solve(dict(fig1_request, cost="cubes"))
        assert tier == "engine"

    def test_node_spec_solves_like_its_pla(self, fig1_pla):
        from repro.api.request import relation_spec_to_jsonable
        from repro.core import parse_relation, relation_to_nodes
        spec = relation_to_nodes(parse_relation(fig1_pla)).spec()
        nodes_request = {"relation": relation_spec_to_jsonable(spec)}
        service = SolveService()
        by_nodes, tier = service.solve(dict(nodes_request))
        by_text, _ = service.solve({"relation": {"kind": "pla",
                                                 "text": fig1_pla}})
        assert tier == "engine" and by_nodes["ok"]
        assert by_nodes["sop"] == by_text["sop"]
        assert by_nodes["pla"] == by_text["pla"]
        assert service.solve(dict(nodes_request))[1] == "ram"

    def test_fingerprint_stable_across_services(self, fig1_request,
                                                cache_dir):
        a = SolveService(disk=DiskCache(cache_dir))
        b = SolveService(disk=DiskCache(cache_dir))
        request = SolveRequest.from_dict(fig1_request)
        assert a.request_fingerprint(request) \
            == b.request_fingerprint(request)

    def test_file_specs_fingerprint_on_content(self, fig1_pla,
                                               tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(fig1_pla)
        service = SolveService()
        by_file = service.request_fingerprint(SolveRequest(
            relation={"kind": "file", "path": str(path)}))
        by_text = service.request_fingerprint(SolveRequest(
            relation={"kind": "pla", "text": fig1_pla}))
        assert by_file == by_text


class TestValidation:
    def test_non_object_body(self):
        with pytest.raises(ServiceError):
            SolveService().solve([1, 2, 3])

    def test_unknown_option_value(self, fig1_request):
        with pytest.raises(ServiceError, match="invalid solve request"):
            SolveService().solve(dict(fig1_request, cost="no-such"))

    def test_missing_relation(self):
        with pytest.raises(ServiceError):
            SolveService().solve({"cost": "size"})

    def test_malformed_node_spec_is_a_client_error(self):
        spec = {"kind": "nodes", "inputs": [0], "outputs": [1],
                "nodes": [[1, 0, 1], [0, 2, 2]], "root": 3}
        with pytest.raises(ServiceError, match="redundant"):
            SolveService().solve({"relation": spec})

    @pytest.mark.parametrize("spec", [
        {"kind": "output_sets", "rows": [[5], [9], [-1], [2]],
         "num_inputs": 2, "num_outputs": 2},
        {"kind": "truth_tables", "tables": [99], "num_inputs": 2},
    ])
    def test_out_of_range_spec_is_a_client_error(self, spec):
        service = SolveService()
        with pytest.raises(ServiceError, match="outside") as raised:
            service.solve({"relation": spec})
        assert raised.value.status == 400
        # Rejected before any tier was consulted.
        assert sum(service.stats()["tiers"].values()) == 0

    def test_error_counted(self, fig1_request):
        service = SolveService()
        with pytest.raises(ServiceError):
            service.solve(dict(fig1_request, strategy="bogus"))
        assert service.request_counts["errors"] == 1


class TestStream:
    def test_stream_shape(self):
        service = SolveService()
        frames = list(service.solve_stream(dict(VTX)))
        kinds = [name for name, _ in frames]
        assert kinds[-1] == "report"
        assert kinds.count("report") == 1
        assert "improvement" in kinds
        report = frames[-1][1]
        assert report["ok"] and not report["cached"]
        improvements = [payload for name, payload in frames
                        if name == "improvement"]
        costs = [imp["cost"] for imp in improvements]
        assert costs == sorted(costs, reverse=True)
        assert all(set(imp) >= {"cost", "elapsed_seconds", "explored",
                                "sop"} for imp in improvements)
        events = [payload for name, payload in frames if name == "event"]
        assert all("kind" in event and "elapsed_seconds" in event
                   for event in events)

    def test_stream_result_lands_in_ram_tier(self, fig1_request):
        service = SolveService()
        frames = list(service.solve_stream(dict(fig1_request)))
        assert frames[-1][0] == "report"
        _, tier = service.solve(dict(fig1_request))
        assert tier == "ram"

    def test_closing_mid_stream_cancels(self):
        service = SolveService()
        stream = service.solve_stream(dict(
            VTX, strategy="best-first", max_explored=None,
            fifo_capacity=None))
        # Take one frame, then hang up like a disconnecting client.
        next(stream)
        stream.close()
        assert service.request_counts["stream_cancelled"] == 1
        # The cancelled partial never entered any cache tier.
        _, tier = service.solve(dict(
            VTX, strategy="best-first", max_explored=None,
            fifo_capacity=None))
        assert tier == "engine"

    def test_stream_validation_error(self):
        service = SolveService()
        with pytest.raises(ServiceError):
            list(service.solve_stream({"relation": "unregistered"}))


class TestBatch:
    def test_mixed_tiers_and_order(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        result = service.batch({"jobs": [dict(fig1_request),
                                         dict(VTX),
                                         dict(fig1_request)]})
        assert result["ok"]
        assert result["tiers"] == ["ram", "engine", "ram"]
        labels = [report["label"] for report in result["reports"]]
        # Unlabelled jobs are numbered by their position in *this*
        # batch, not by their slot in the engine sub-batch.
        assert labels == ["fig1", "job-1", "fig1"]

    def test_list_body_and_defaults(self, fig1_request):
        service = SolveService()
        result = service.batch([dict(fig1_request)])
        assert result["ok"] and result["tiers"] == ["engine"]
        result = service.batch({"defaults": {"cost": "cubes"},
                                "jobs": [dict(fig1_request)]})
        assert result["reports"][0]["request"]["cost"] == "cubes"

    def test_fresh_batch_reports_reach_disk(self, fig1_request,
                                            cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.batch({"jobs": [dict(fig1_request)]})
        cold = SolveService(disk=DiskCache(cache_dir))
        _, tier = cold.solve(dict(fig1_request))
        assert tier == "disk"

    def test_bad_executor_rejected(self, fig1_request):
        with pytest.raises(ServiceError, match="executor"):
            SolveService().batch({"jobs": [dict(fig1_request)],
                                  "executor": "gpu"})
        with pytest.raises(ServiceError, match="workers"):
            SolveService().batch({"jobs": [dict(fig1_request)],
                                  "workers": 0})

    @pytest.mark.parametrize("workers", [0, -2, True, 2.5, "x"])
    def test_bad_workers_rejected(self, fig1_request, workers):
        service = SolveService()
        with pytest.raises(ServiceError) as excinfo:
            service.batch({"jobs": [dict(fig1_request)],
                           "executor": "process", "workers": workers})
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "workers" in message and repr(workers) in message
        assert service.request_counts["batch"] == 0

    def test_failing_job_does_not_sink_batch(self, fig1_request):
        service = SolveService()
        result = service.batch({"jobs": [
            dict(fig1_request),
            {"relation": "never-registered"}]})
        assert not result["ok"]
        assert result["reports"][0]["ok"] is True
        assert result["reports"][1]["ok"] is False


def no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestDiskWriteFailures:
    """A failing disk tier never fails a request: the engine's answer
    is served and each failed write is counted."""

    def test_solve_answers_from_the_engine(self, fig1_request, cache_dir,
                                           monkeypatch):
        service = SolveService(disk=DiskCache(cache_dir))
        monkeypatch.setattr(os, "replace", no_space)
        report, tier = service.solve(dict(fig1_request))
        assert (report["ok"], tier) == (True, "engine")
        assert service.stats()["disk"]["write_errors"] == 1
        _, tier = service.solve(dict(fig1_request))
        assert tier == "ram"

    def test_batch_and_stream_answer_from_the_engine(self, fig1_request,
                                                     cache_dir,
                                                     monkeypatch):
        service = SolveService(disk=DiskCache(cache_dir))
        monkeypatch.setattr(os, "replace", no_space)
        result = service.batch([dict(fig1_request, cost="cubes")])
        assert result["ok"] and result["tiers"] == ["engine"]
        frames = list(service.solve_stream(dict(fig1_request,
                                                cost="literals")))
        assert frames[-1][0] == "report" and frames[-1][1]["ok"]
        assert service.stats()["disk"]["write_errors"] == 2

    def test_resynth_answers_from_the_engine(self, cache_dir, monkeypatch):
        service = SolveService(disk=DiskCache(cache_dir))
        monkeypatch.setattr(os, "replace", no_space)
        report, tier = service.resynth({"circuit": "s27", "passes": 1,
                                        "max_explored": 8})
        assert (report["ok"], tier) == (True, "engine")
        assert service.stats()["disk"]["write_errors"] == 1

    def test_a_report_json_cannot_encode(self, cache_dir):
        # 2**14 bits print to about 4,900 decimal digits, past the digit
        # limit Python 3.11 puts on int-to-str conversion: the request
        # is keyed (its tables in hex) and solved, and only the disk
        # write of the report echoing it fails.  HTTP cannot carry such
        # an int, so this is an in-process caller's request.
        rng = random.Random(7)
        request = {"relation": {"kind": "truth_tables", "num_inputs": 14,
                                "tables": [rng.getrandbits(1 << 14)] * 2}}
        service = SolveService(disk=DiskCache(cache_dir))
        report, tier = service.solve(request)
        assert (report["ok"], tier) == (True, "engine")
        stats = service.stats()["disk"]
        assert stats["write_errors"] == 1 and stats["reports"] == 0
        report, tier = service.solve(request)
        assert (report["ok"], report["cached"], tier) == (True, True, "ram")


class TestStatsAndHealth:
    def test_healthz(self):
        health = SolveService().healthz()
        assert health["ok"] is True
        assert "version" in health and "uptime_seconds" in health

    def test_stats_attribution(self, fig1_request, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        service.solve(dict(fig1_request))
        stats = service.stats()
        assert set(stats) == {"uptime_seconds", "max_time_limit",
                              "requests", "tiers", "solve_latency_ms",
                              "session", "engine", "disk", "portfolio",
                              "recent"}
        assert stats["tiers"] == {"ram": 1, "disk": 0, "engine": 1}
        assert stats["requests"]["solve"] == 2
        assert stats["disk"]["report_stores"] == 1
        assert stats["disk"]["write_errors"] == 0
        assert len(stats["recent"]) == 2
        fresh, cached = stats["recent"]
        assert set(fresh) == {"label", "tier", "ok", "cached", "cost",
                              "runtime_seconds"}
        assert fresh["tier"] == "engine" and cached["tier"] == "ram"
        assert not fresh["cached"] and cached["cached"]

    def test_stats_latency_percentiles_per_tier(self, fig1_request,
                                                cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        for _ in range(3):
            service.solve(dict(fig1_request))
        latency = service.stats()["solve_latency_ms"]
        assert latency["engine"]["count"] == 1
        assert latency["ram"]["count"] == 3
        assert 0 < latency["ram"]["p50"] <= latency["ram"]["p99"]
        assert latency["disk"] == {"count": 0, "p50": None, "p99": None}

    def test_stats_without_disk(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        assert service.stats()["disk"] is None

    def test_disk_walk_runs_outside_the_engine_lock(self, fig1_request,
                                                    cache_dir,
                                                    monkeypatch):
        # A dashboard poll must not stall solves on a directory walk.
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        probes = []
        real_stats = service.disk.stats

        def probe_lock():
            if service._lock.acquire(blocking=False):
                service._lock.release()
                probes.append("free")
            else:
                probes.append("held")

        def stats():
            thread = threading.Thread(target=probe_lock)
            thread.start()
            thread.join()
            return real_stats()

        monkeypatch.setattr(service.disk, "stats", stats)
        assert service.stats()["disk"]["reports"] == 1
        assert probes == ["free"]


class TestWireRoundTrip:
    def test_disk_report_rebuilds_as_report(self, fig1_request,
                                            cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        request = SolveRequest.from_dict(fig1_request)
        key = service.request_fingerprint(request)
        stored = service.disk.get_report(key)
        report = SolveReport.from_dict(stored)
        assert report.ok and report.sop

    def test_corrupt_disk_report_falls_through_to_engine(
            self, fig1_request, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        request = SolveRequest.from_dict(fig1_request)
        key = service.request_fingerprint(request)
        service.disk.put_report(key, {"not": "a report"})
        cold = SolveService(disk=DiskCache(cache_dir))
        report, tier = cold.solve(dict(fig1_request))
        assert tier == "engine" and report["ok"]


INT1 = {"relation": {"kind": "bench", "name": "int1"}}
S27 = {"circuit": "s27", "passes": 1, "max_explored": 8}


def rewrite_stored(cache, key, **changes):
    """Rewrite the stored report ``key`` with ``changes`` applied."""
    stored = cache.get_report(key)
    assert stored is not None
    stored.update(changes)
    cache.put_report(key, stored)


class TestStoredSchemaVersion:
    """A report written under another schema version is a disk miss:
    the engine solves the request again and overwrites the file."""

    def test_solve_report_from_another_version_is_re_solved(
            self, cache_dir):
        first = SolveService(disk=DiskCache(cache_dir))
        fresh, _ = first.solve(dict(INT1))
        key = first.request_fingerprint(SolveRequest.from_dict(INT1))
        rewrite_stored(first.disk, key, schema_version=6,
                       sop="y0 = stale")
        worker = SolveService(disk=DiskCache(cache_dir))
        report, tier = worker.solve(dict(INT1))
        assert tier == "engine"
        assert report["sop"] == fresh["sop"]
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        stored = worker.disk.get_report(key)
        assert stored["schema_version"] == REPORT_SCHEMA_VERSION
        assert stored["sop"] == fresh["sop"]
        again, tier = SolveService(disk=DiskCache(cache_dir)).solve(
            dict(INT1))
        assert tier == "disk" and again["sop"] == fresh["sop"]

    def test_resynth_report_from_another_version_is_re_solved(
            self, cache_dir):
        first = SolveService(disk=DiskCache(cache_dir))
        fresh, _ = first.resynth(dict(S27))
        key = first.resynth_fingerprint(ResynthRequest.from_dict(S27))
        rewrite_stored(first.disk, key, schema_version=1,
                       blif=".model stale\n.end\n")
        worker = SolveService(disk=DiskCache(cache_dir))
        report, tier = worker.resynth(dict(S27))
        assert tier == "engine"
        assert report["blif"] == fresh["blif"]
        assert report["schema_version"] == RESYNTH_SCHEMA_VERSION
        assert worker.disk.get_report(key)["schema_version"] \
            == RESYNTH_SCHEMA_VERSION
        _, tier = SolveService(disk=DiskCache(cache_dir)).resynth(
            dict(S27))
        assert tier == "disk"

    def test_directory_of_an_older_version_opens(self, cache_dir):
        """An older version kept a subproblem-memo pool beside the
        reports (``memo.json``, ``memo-segments/``, ``memo.lock``) and
        wrote schema-7 reports with ``memo_*`` stats.  Such a directory
        opens as it is, misses once, then serves from disk."""
        seed = SolveService(disk=DiskCache(cache_dir))
        fresh, _ = seed.solve(dict(INT1))
        key = seed.request_fingerprint(SolveRequest.from_dict(INT1))
        stats = dict(fresh["stats"], memo_hits=3, memo_misses=9,
                     memo_stores=9)
        rewrite_stored(seed.disk, key, schema_version=7, stats=stats)
        pool = [[["isf3", 2, 1, 2], [[[0, True]]]]]
        with open(os.path.join(cache_dir, "memo.json"), "w") as handle:
            json.dump({"entries": pool}, handle)
        segments = os.path.join(cache_dir, "memo-segments")
        os.makedirs(segments)
        with open(os.path.join(segments, "%020d-1-abcd.json" % 1),
                  "w") as handle:
            json.dump({"entries": pool}, handle)
        open(os.path.join(cache_dir, "memo.lock"), "w").close()

        worker = SolveService(disk=DiskCache(cache_dir))
        report, tier = worker.solve(dict(INT1))
        assert tier == "engine" and report["sop"] == fresh["sop"]
        assert "memo_hits" not in report["stats"]
        again, tier = SolveService(disk=DiskCache(cache_dir)).solve(
            dict(INT1))
        assert tier == "disk" and again["sop"] == fresh["sop"]
        # The old pool files are left alone.
        assert os.listdir(segments) and os.path.isfile(
            os.path.join(cache_dir, "memo.lock"))


class TestTimeLimitAdmission:
    """Server-side time-limit policy: reject the absurd, clamp the rest."""

    def test_cap_is_validated_at_construction(self):
        for bad in (0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                SolveService(max_time_limit=bad)

    def test_non_finite_time_limit_is_a_client_error(self, fig1_request):
        # Rejected even without a cap configured: a non-finite limit
        # can never be honoured.
        service = SolveService()
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ServiceError, match="finite"):
                service.solve(dict(fig1_request,
                                   time_limit_seconds=bad))
        assert service.request_counts["errors"] == 2

    def test_uncapped_and_oversized_requests_clamp_to_the_cap(
            self, fig1_request):
        service = SolveService(max_time_limit=30.0)
        _, tier1 = service.solve(dict(fig1_request))
        # No limit and an over-cap limit both ran as the cap — the
        # clamp precedes the cache key, so they share one slot.
        _, tier2 = service.solve(dict(fig1_request,
                                      time_limit_seconds=1000.0))
        assert (tier1, tier2) == ("engine", "ram")

    def test_clamp_normalises_the_relation_once(self, fig1_request,
                                                monkeypatch):
        # The clamp copies the parsed request; only the request's own
        # construction normalises its relation spec, on every tier.
        from repro.api import request as request_module
        calls = []
        normalize = request_module.normalize_relation_spec

        def counting(spec):
            calls.append(spec)
            return normalize(spec)

        monkeypatch.setattr(request_module, "normalize_relation_spec",
                            counting)
        service = SolveService(max_time_limit=30.0)
        for expected_tier in ("engine", "ram"):
            del calls[:]
            _, tier = service.solve(dict(fig1_request))
            assert tier == expected_tier and len(calls) == 1
        report, _ = service.solve(dict(fig1_request,
                                       time_limit_seconds=1000.0))
        assert report["request"]["time_limit_seconds"] == 30.0
        with pytest.raises(ValueError, match="time_limit_seconds"):
            SolveRequest.from_dict(dict(fig1_request)).with_time_limit(-1)

    def test_under_cap_limits_pass_through_unclamped(self, fig1_request):
        service = SolveService(max_time_limit=30.0)
        service.solve(dict(fig1_request, time_limit_seconds=5.0))
        # 5s was not rewritten to 30s: a 30s request is a distinct slot.
        _, tier = service.solve(dict(fig1_request,
                                     time_limit_seconds=30.0))
        assert tier == "engine"

    def test_stream_and_batch_apply_the_same_admission(self,
                                                       fig1_request):
        service = SolveService(max_time_limit=30.0)
        with pytest.raises(ServiceError):
            list(service.solve_stream(
                dict(fig1_request, time_limit_seconds=float("nan"))))
        with pytest.raises(ServiceError):
            service.batch([dict(fig1_request,
                                time_limit_seconds=float("inf"))])

    def test_stats_surface_the_cap(self):
        assert SolveService(max_time_limit=12.5).stats()[
            "max_time_limit"] == 12.5
        assert SolveService().stats()["max_time_limit"] is None
