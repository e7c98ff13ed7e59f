"""Tests for the /resynth service operation (core, route and server)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import DiskCache, ServiceError, SolveService, create_server
from repro.service.http import respond

S27 = {"circuit": "s27", "passes": 1, "max_explored": 8,
       "label": "s27-resynth"}


class TestResynthTiers:
    def test_engine_then_ram(self):
        service = SolveService()
        first, tier1 = service.resynth(dict(S27))
        second, tier2 = service.resynth(dict(S27))
        assert (tier1, tier2) == ("engine", "ram")
        assert first["ok"] and second["ok"]
        assert second["cached"] is True
        assert second["blif"] == first["blif"]
        assert second["literals_after"] == first["literals_after"]
        assert service.request_counts["resynth"] == 2

    def test_disk_tier_survives_worker_death(self, cache_dir):
        worker1 = SolveService(disk=DiskCache(cache_dir))
        _, tier1 = worker1.resynth(dict(S27))
        assert tier1 == "engine"
        worker2 = SolveService(disk=DiskCache(cache_dir))
        report, tier2 = worker2.resynth(dict(S27))
        assert tier2 == "disk"
        assert report["ok"] and report["cached"]
        _, tier3 = worker2.resynth(dict(S27))
        assert tier3 == "ram"

    def test_label_does_not_split_the_cache(self):
        service = SolveService()
        service.resynth(dict(S27, label="alpha"))
        report, tier = service.resynth(dict(S27, label="beta"))
        assert tier == "ram"
        assert report["label"] == "beta"

    def test_options_split_the_cache(self):
        service = SolveService()
        service.resynth(dict(S27))
        _, tier = service.resynth(dict(S27, passes=2))
        assert tier == "engine"

    def test_corrupt_disk_entry_falls_through_to_engine(self, cache_dir):
        # A stale or foreign-schema disk entry (e.g. a SolveReport, or
        # a future schema version) must degrade to a miss, not crash.
        service = SolveService(disk=DiskCache(cache_dir))
        request = service.parse_resynth_request(dict(S27))
        key = service.resynth_fingerprint(request)
        service.disk.put_report(key, {"ok": True, "sop": ["x"],
                                      "cost": 3})
        report, tier = service.resynth(dict(S27))
        assert tier == "engine"
        assert report["ok"] and report["blif"]

    def test_stats_count_resynth_entries(self):
        service = SolveService()
        service.resynth(dict(S27))
        stats = service.stats()
        assert stats["session"]["resynth_cache_entries"] == 1
        assert stats["requests"]["resynth"] == 1


class TestResynthValidation:
    def test_non_object_body(self):
        with pytest.raises(ServiceError):
            SolveService().resynth(["not", "a", "dict"])

    def test_unknown_field(self):
        with pytest.raises(ServiceError):
            SolveService().resynth(dict(S27, bogus=1))

    def test_bad_option_value(self):
        with pytest.raises(ServiceError):
            SolveService().resynth(dict(S27, passes=0))

    @pytest.mark.parametrize("value", [10 ** 8, 0, True, "256"])
    def test_verify_vectors_bound_answers_at_once(self, value):
        service = SolveService()
        started = time.perf_counter()
        with pytest.raises(ServiceError) as excinfo:
            service.resynth(dict(S27, circuit="sbc", passes=1, max_nodes=1,
                                 verify_vectors=value))
        assert time.perf_counter() - started < 0.5
        assert excinfo.value.status == 400
        assert "verify_vectors" in str(excinfo.value)
        assert service._resynth_cache == {}

    @pytest.mark.parametrize("field,value", [
        ("passes", "2"), ("passes", 2.5), ("window", None),
        ("tfo_depth", 1.5), ("max_nodes", 2.5), ("max_nodes", "x"),
        ("verify_exhaustive_limit", None), ("seed", [1]), ("seed", None),
    ])
    def test_non_int_fields_answer_400_before_any_tier(self, field, value,
                                                        monkeypatch):
        from repro.resynth import pipeline

        def never(*args, **kwargs):
            raise AssertionError("the pipeline must not start")

        monkeypatch.setattr(pipeline, "resynthesize_network", never)
        service = SolveService()
        with pytest.raises(ServiceError) as excinfo:
            service.resynth(dict(S27, circuit="s298", **{field: value}))
        assert excinfo.value.status == 400
        assert str(excinfo.value).startswith("invalid request")
        assert field in str(excinfo.value)
        assert repr(value) in str(excinfo.value)
        assert service._resynth_cache == {}
        assert sum(service.tier_hits.values()) == 0

    @pytest.mark.parametrize("field,value", [
        ("executor", "process"), ("workers", 2), ("workers", None)])
    def test_pool_knobs_answer_400_at_once(self, field, value):
        # Resynthesis solves in the service's process: a request for a
        # pool is rejected while it is parsed, before any mining.
        service = SolveService()
        response = respond(service, "POST", "/resynth",
                           json.dumps(dict(S27, **{field: value})).encode())
        assert response.status == 400
        error = json.loads(response.body)["error"]
        assert error.startswith("invalid request") and field in error
        assert service._resynth_cache == {}
        assert sum(service.tier_hits.values()) == 0

    def test_failed_runs_are_errors_and_never_cached(self):
        service = SolveService()
        bad = {"circuit": "no-such-circuit"}
        with pytest.raises(ServiceError):
            service.resynth(dict(bad))
        assert service._resynth_cache == {}

    def test_fingerprint_stable_across_services(self, cache_dir):
        a = SolveService(disk=DiskCache(cache_dir))
        b = SolveService(disk=DiskCache(cache_dir))
        request = a.parse_resynth_request(dict(S27))
        assert a.resynth_fingerprint(request) == \
            b.resynth_fingerprint(request)


class TestHttpRoute:
    @pytest.fixture
    def served(self, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        server = create_server(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            yield "http://127.0.0.1:%d" % port, service
        finally:
            server.shutdown()
            server.server_close()

    def _post(self, url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read()))

    def test_resynth_round_trip_with_tier_header(self, served):
        base, service = served
        status1, headers1, report1 = self._post(base + "/resynth",
                                                dict(S27))
        status2, headers2, report2 = self._post(base + "/resynth",
                                                dict(S27))
        assert status1 == status2 == 200
        assert headers1["X-Cache-Tier"] == "engine"
        assert headers2["X-Cache-Tier"] == "ram"
        assert report1["ok"] and report1["equivalent"] is True
        assert report2["blif"] == report1["blif"]

    def test_validation_error_is_400(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base + "/resynth", {"circuit": "s27",
                                           "passes": 0})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_verify_vectors_over_the_bound_is_400(self, served):
        base, _ = served
        started = time.perf_counter()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base + "/resynth", {"circuit": "sbc", "passes": 1,
                                           "max_nodes": 1,
                                           "verify_vectors": 10 ** 8})
        assert time.perf_counter() - started < 1.0
        assert excinfo.value.code == 400
        assert "verify_vectors" in json.loads(excinfo.value.read())["error"]


class TestRoute:
    def test_resynth_sets_tier_header(self):
        service = SolveService()
        raw = json.dumps(S27).encode()
        first = respond(service, "POST", "/resynth", raw)
        second = respond(service, "POST", "/resynth", raw)
        assert first.status == second.status == 200
        assert first.headers["X-Cache-Tier"] == "engine"
        assert second.headers["X-Cache-Tier"] == "ram"
        assert json.loads(second.body)["cached"] is True
