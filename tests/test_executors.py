"""Every executor option accepts exactly ``EXECUTORS`` and rejects the rest.

Executors choose where the solves of a batch run (``solve_many``, the
service's batches and prewarming, and the matching CLI flags); they all
validate against :data:`repro.core.explore.EXECUTORS`, and a rejected
value names the valid ones: a ``ValueError`` from the Python API, a
400-mapped :class:`~repro.service.ServiceError` from the service, and
exit status 2 from the CLI.  A batch pool starts at most one process per
job, per the call's ``workers`` and per CPU.  A single solve has no
executor: it always runs in its caller's process, and the knobs that
once split it across processes are rejected.  Resynthesis solves its
mined relations in its caller's process too; its request accepts
``executor="serial"`` alone (:mod:`tests.resynth.test_request_report`).
"""

import concurrent.futures
import json
import os

import pytest

from repro import Session, SolveRequest
from repro.cli import main
from repro.core import BrelOptions
from repro.core.explore import EXECUTORS
from repro.core.relation import BooleanRelation
from repro.core.relio import write_relation
from repro.service import ServiceError, SolveService, prewarm
from repro.service.http import respond

JOB = {"relation": {"kind": "bench", "name": "int1"}, "max_explored": 5,
       "label": "int1"}


def fig1_file(tmp_path):
    relation = BooleanRelation.from_output_sets(
        [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
    path = tmp_path / "fig1.pla"
    path.write_text(write_relation(relation))
    return str(path)


def manifest_file(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([JOB]))
    return str(path)


def run_cli(argv):
    code = main(argv)
    assert code == 0, "exit %s for %r" % (code, argv)


ENTRY_POINTS = {
    "Session.solve_many executor": lambda value, tmp: Session().solve_many(
        [SolveRequest(**JOB)], executor=value),
    "SolveService.batch executor": lambda value, tmp: SolveService().batch(
        {"jobs": [JOB], "executor": value}),
    "prewarm executor": lambda value, tmp: prewarm(
        manifest_file(tmp), str(tmp / "cache"), executor=value),
    "repro batch --executor": lambda value, tmp: run_cli(
        ["batch", manifest_file(tmp), "--executor", value, "--quiet"]),
    "repro prewarm --executor": lambda value, tmp: run_cli(
        ["prewarm", manifest_file(tmp), str(tmp / "cache"),
         "--executor", value]),
}


@pytest.mark.parametrize("value", EXECUTORS + ("thread",))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_accepts_exactly_the_executors(entry, value, tmp_path,
                                                   capsys):
    call = ENTRY_POINTS[entry]
    if value in EXECUTORS:
        call(value, tmp_path)
        return
    with pytest.raises((ValueError, ServiceError, SystemExit)) as info:
        call(value, tmp_path)
    if info.type is SystemExit:
        assert info.value.code == 2
        message = capsys.readouterr().err
    else:
        message = str(info.value)
    assert "'thread'" in message
    for name in EXECUTORS:
        assert repr(name) in message, message


class TestSingleSolveHasNoExecutor:
    def test_retired_knobs_are_rejected(self):
        with pytest.raises(TypeError):
            BrelOptions(strategy="portfolio", portfolio_executor="serial")
        with pytest.raises(TypeError):
            Session().solve(SolveRequest(**JOB), block_executor="serial")
        with pytest.raises(ValueError, match="unknown SolveRequest fields: "
                                             "portfolio_executor"):
            SolveRequest.from_dict(dict(JOB, strategy="portfolio",
                                        portfolio_executor="serial"))

    @pytest.mark.parametrize("flag", ["--block-executor",
                                      "--portfolio-executor"])
    def test_retired_solve_flags_exit_2(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", fig1_file(tmp_path), flag, "serial"])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err


class TestPoolSize:
    """A pool starts one process per distinct job, at most the call's
    ``workers`` and at most the CPU count.  The stand-in pool records
    its size and cannot start, so the jobs run in this process."""

    #: Five distinct jobs.
    JOBS = [dict(JOB, max_explored=budget, label="int1-%d" % budget)
            for budget in range(1, 6)]

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []

        def no_pool(max_workers=None):
            sizes.append(max_workers)
            raise OSError("no process layer")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return sizes

    @pytest.mark.parametrize("workers,expected", [
        (None, 2), (1, 1), (2, 2), (5, 2), (64, 2)])
    def test_solve_many(self, sizes, workers, expected):
        reports = Session().solve_many(
            [SolveRequest(**job) for job in self.JOBS],
            max_workers=workers, executor="process")
        assert sizes == [expected]
        assert all(report.ok for report in reports)

    def test_one_job_starts_one_process(self, sizes):
        Session().solve_many([SolveRequest(**JOB)], max_workers=8,
                             executor="process")
        assert sizes == [1]

    def test_post_batch(self, sizes):
        body = {"jobs": self.JOBS, "executor": "process", "workers": 64}
        response = respond(SolveService(), "POST", "/batch",
                           json.dumps(body).encode())
        assert response.status == 200
        assert json.loads(response.body)["ok"] is True
        assert sizes == [2]

    def test_repro_batch_workers(self, sizes, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(self.JOBS))
        run_cli(["batch", str(path), "--workers", "64", "--quiet"])
        assert sizes == [2]
