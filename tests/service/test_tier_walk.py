"""One tier walk for every route: RAM, then disk, then the engine.

``/solve``, ``/solve/stream`` and each ``/batch`` job look a request up
the same way, so a worker booted over a disk another worker filled
answers every route from the disk, and a batch's duplicates are solved
once by ``Session.solve_many`` on either executor.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import Session, SolveRequest
from repro.api import report as report_module
from repro.api import session as session_module
from repro.core.brel import BrelSolver
from repro.core.explore import EXECUTORS
from repro.service import DiskCache, SolveService


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
    monkeypatch.setattr(session_module, "ProcessPoolExecutor", CountingPool)
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
