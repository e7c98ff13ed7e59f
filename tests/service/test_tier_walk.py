"""One tier walk for every route: RAM, then disk, then the engine.

``/solve``, ``/solve/stream`` and each ``/batch`` job look a request up
the same way, so a worker booted over a disk another worker filled
answers every route from the disk, and a batch's duplicates are solved
once by ``Session.solve_many`` on either executor.
"""

import builtins
import concurrent.futures
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import Session, SolveRequest
from repro.api import report as report_module
from repro.benchdata.circuits import circuit_by_name
from repro.core.brel import BrelSolver
from repro.core.explore import EXECUTORS
from repro.network.blif import write_blif
from repro.resynth import ResynthRequest
from repro.service import DiskCache, SolveService
from repro.service import app as app_module

from ..api.test_request_key import EDITED, PLA


def engine_solves(monkeypatch):
    """Count top-level solves: in this process and on the batch pool."""
    calls = []
    solve, iter_solve = BrelSolver.solve, BrelSolver.iter_solve

    def counting_solve(self, *args, **kwargs):
        calls.append("solve")
        return solve(self, *args, **kwargs)

    def counting_iter_solve(self, *args, **kwargs):
        calls.append("iter_solve")
        return iter_solve(self, *args, **kwargs)

    class CountingPool(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            calls.append("pool")
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(BrelSolver, "solve", counting_solve)
    monkeypatch.setattr(BrelSolver, "iter_solve", counting_iter_solve)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    return calls


def filled_disk(request, cache_dir):
    """A cold worker over a disk another worker filled with ``request``."""
    _, tier = SolveService(disk=DiskCache(cache_dir)).solve(dict(request))
    assert tier == "engine"
    return SolveService(disk=DiskCache(cache_dir))


def frame_names(frames):
    return [name for name, _ in frames]


class TestColdWorker:
    def test_solve_answers_from_disk(self, fig1_request, cache_dir,
                                     monkeypatch):
        cold = filled_disk(fig1_request, cache_dir)
        solves = engine_solves(monkeypatch)
        report, tier = cold.solve(dict(fig1_request))
        assert tier == "disk" and report["cached"]
        assert solves == []

    def test_stream_answers_from_disk(self, fig1_request, cache_dir,
                                      monkeypatch):
        cold = filled_disk(fig1_request, cache_dir)
        solves = engine_solves(monkeypatch)
        frames = list(cold.solve_stream(dict(fig1_request)))
        assert frame_names(frames) == ["improvement", "report"]
        improvement, report = frames[0][1], frames[1][1]
        assert report["ok"] and report["cached"]
        assert improvement == {"cost": report["cost"],
                               "elapsed_seconds": 0.0, "explored": 0,
                               "sop": report["sop"]}
        assert cold.tier_hits == {"ram": 0, "disk": 1, "engine": 0}
        assert cold.stats()["recent"][-1]["tier"] == "disk"
        assert solves == []

    def test_batch_answers_from_disk(self, fig1_request, cache_dir,
                                     monkeypatch):
        cold = filled_disk(fig1_request, cache_dir)
        solves = engine_solves(monkeypatch)
        result = cold.batch([dict(fig1_request)])
        assert result["ok"] and result["tiers"] == ["disk"]
        assert result["reports"][0]["cached"]
        assert solves == []

    def test_stream_of_a_disk_promoted_entry_is_a_ram_hit(
            self, fig1_request, cache_dir, monkeypatch):
        cold = filled_disk(fig1_request, cache_dir)
        solves = engine_solves(monkeypatch)
        _, tier = cold.solve(dict(fig1_request))
        assert tier == "disk"
        frames = list(cold.solve_stream(dict(fig1_request)))
        assert frame_names(frames) == ["improvement", "report"]
        assert frames[1][1]["cached"]
        assert cold.tier_hits == {"ram": 1, "disk": 1, "engine": 0}
        assert solves == []

    def test_streamed_hit_matches_a_live_hit(self, fig1_request):
        """A stream served from the RAM tier sends the frames a live
        hit in ``Session.solve_iter`` would: one improvement at zero
        time, then the report."""
        service = SolveService()
        engine = list(service.solve_stream(dict(fig1_request)))
        hit = list(service.solve_stream(dict(fig1_request)))
        assert frame_names(hit) == ["improvement", "report"]
        assert hit[0][1]["sop"] == engine[-1][1]["sop"]
        assert hit[0][1]["cost"] == engine[-1][1]["cost"]
        assert service.tier_hits == {"ram": 1, "disk": 0, "engine": 1}


@pytest.mark.parametrize("executor", EXECUTORS)
def test_batch_solves_identical_jobs_once(executor, fig1_request,
                                          cache_dir, monkeypatch):
    service = SolveService(disk=DiskCache(cache_dir))
    writes = []
    put_report = DiskCache.put_report

    def counting_put(self, key, report):
        writes.append(key)
        return put_report(self, key, report)

    monkeypatch.setattr(DiskCache, "put_report", counting_put)
    reads, fingerprints = [], []
    get_report = DiskCache.get_report
    fingerprint = SolveService.request_fingerprint

    def counting_get(self, key):
        reads.append(key)
        return get_report(self, key)

    def counting_fingerprint(self, request):
        fingerprints.append(request.label)
        return fingerprint(self, request)

    monkeypatch.setattr(DiskCache, "get_report", counting_get)
    monkeypatch.setattr(SolveService, "request_fingerprint",
                        counting_fingerprint)
    solves = engine_solves(monkeypatch)
    unlabelled = {key: value for key, value in fig1_request.items()
                  if key != "label"}
    result = service.batch({"jobs": [dict(fig1_request, label="a"),
                                     dict(fig1_request, label="b"),
                                     unlabelled],
                            "executor": executor, "workers": 2})
    assert result["ok"]
    assert result["tiers"] == ["engine", "ram", "ram"]
    reports = result["reports"]
    assert [report["label"] for report in reports] == ["a", "b", "job-2"]
    assert [report["cached"] for report in reports] == [False, True, True]
    assert len({report["sop"] for report in reports}) == 1
    assert len(solves) == 1 and len(writes) == 1
    # The three copies walk the tiers once: one fingerprint, one read.
    assert len(reads) == 1 and fingerprints == ["a"]
    stats = service.stats()
    assert stats["tiers"] == {"ram": 2, "disk": 0, "engine": 1}
    assert stats["session"]["cache_hits"] == 2


class TestPlaExportRenderedOnce:
    def test_three_ram_hits_render_at_most_once(self, fig1_request,
                                                monkeypatch):
        service = SolveService()
        service.solve(dict(fig1_request))
        renders = []
        write_relation = report_module.write_relation

        def counting(*args, **kwargs):
            renders.append(args)
            return write_relation(*args, **kwargs)

        monkeypatch.setattr(report_module, "write_relation", counting)
        hits = [service.solve(dict(fig1_request)) for _ in range(3)]
        assert [tier for _, tier in hits] == ["ram"] * 3
        assert len(renders) <= 1
        assert hits[0][0] == hits[1][0] == hits[2][0]
        assert hits[0][0]["pla"]

    def test_session_solve_never_renders(self, fig1_request, monkeypatch):
        renders = []
        monkeypatch.setattr(report_module, "write_relation",
                            lambda *args, **kwargs: renders.append(args))
        session = Session()
        request = SolveRequest.from_dict(fig1_request)
        session.solve(request)
        assert session.solve(request).cached
        assert renders == []


class TestOneReadingOfAFile:
    """A route reads a ``file`` spec or circuit once, as it admits the
    request, and keys, solves and stores that one text."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every path handed to ``open``, wherever it is called."""
        paths = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            paths.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        return paths

    @staticmethod
    def stored(cache_dir):
        """The disk tier's reports by key."""
        disk = DiskCache(cache_dir)
        return {name[:-len(".json")]: disk.get_report(name[:-len(".json")])
                for name in os.listdir(os.path.join(cache_dir, "reports"))}

    @pytest.mark.parametrize("route", ["solve", "stream", "batch"])
    def test_an_engine_miss_opens_the_file_once(self, route, opened,
                                                tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(PLA)
        data = {"relation": {"kind": "file", "path": str(path)}}
        service = SolveService(disk=DiskCache(str(tmp_path / "cache")))
        if route == "solve":
            assert service.solve(data)[1] == "engine"
        elif route == "stream":
            assert list(service.solve_stream(data))[-1][0] == "report"
        else:
            assert service.batch({"jobs": [data]})["tiers"] == ["engine"]
        assert opened.count(str(path)) == 1
        assert service.tier_hits["engine"] == 1

    def test_a_resynth_run_opens_its_circuit_once(self, opened, tmp_path):
        path = tmp_path / "s27.blif"
        path.write_text(write_blif(circuit_by_name("s27").build()))
        service = SolveService(disk=DiskCache(str(tmp_path / "cache")))
        report, tier = service.resynth({"circuit": {"kind": "file",
                                                    "path": str(path)}})
        assert (report["ok"], tier) == (True, "engine")
        assert opened.count(str(path)) == 1

    @pytest.mark.parametrize("route, engine", [
        ("solve", "solve"), ("stream", "solve_iter"),
        ("batch", "solve_many")])
    def test_an_edit_before_the_engine_keeps_key_and_report_together(
            self, route, engine, monkeypatch, tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(PLA)
        expected = {}
        for text in (PLA, EDITED):
            request = SolveRequest(relation={"kind": "pla", "text": text})
            expected[request.fingerprint()] = Session().solve(request).sop
        assert len(set(expected.values())) == 2
        run_engine = getattr(Session, engine)

        def edit_then_run(session, *args, **kwargs):
            path.write_text(EDITED)  # after the RAM and disk lookups
            return run_engine(session, *args, **kwargs)

        monkeypatch.setattr(Session, engine, edit_then_run)
        cache_dir = str(tmp_path / "cache")
        service = SolveService(disk=DiskCache(cache_dir))
        data = {"relation": {"kind": "file", "path": str(path)}}
        if route == "solve":
            served = service.solve(data)[0]
        elif route == "stream":
            served = list(service.solve_stream(data))[-1][1]
        else:
            served = service.batch({"jobs": [data]})["reports"][0]
        stored = self.stored(cache_dir)
        assert len(stored) == 1
        for key, report in stored.items():
            assert report["sop"] == expected[key]
        assert served["sop"] == expected[SolveRequest(
            relation={"kind": "pla", "text": PLA}).fingerprint()]

    def test_an_edited_circuit_keeps_key_and_report_together(
            self, monkeypatch, tmp_path):
        path = tmp_path / "c.blif"
        texts = [write_blif(circuit_by_name(name).build())
                 for name in ("s27", "s208")]
        path.write_text(texts[0])
        load = app_module.load_circuit

        def edit_then_load(spec):
            path.write_text(texts[1])  # after the tier walk
            return load(spec)

        monkeypatch.setattr(app_module, "load_circuit", edit_then_load)
        cache_dir = str(tmp_path / "cache")
        service = SolveService(disk=DiskCache(cache_dir))
        service.resynth({"circuit": {"kind": "file", "path": str(path)}})
        key = ResynthRequest(circuit={"kind": "blif",
                                      "text": texts[0]}).fingerprint()
        stored = self.stored(cache_dir)
        assert list(stored) == [key]
        assert stored[key]["circuit"] == "s27"
