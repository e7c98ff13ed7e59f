"""Every way to solve a request gives the same answer.

Seeded relations with 0-5 inputs and 1-4 outputs (every fourth one
made of two independent output blocks, so sharding is exercised) go
through a shared session, a fresh session per request, ``solve_many``
on the serial and process executors, and ``SolveService.solve``.
Every path must report the same SOP text and cost.

The ``backend`` request field is accepted and ignored: a request
carrying it gets the same report from the same cache slot, and a value
outside the accepted choices is still rejected.
"""

import pytest

from repro import Session, SolveRequest
from repro.benchdata.brgen import block_structured_relation, random_relation
from repro.core import relation_to_nodes
from repro.core.explore import EXECUTORS
from repro.service import ServiceError, SolveService

NUM_CASES = 40


def case_relation(seed):
    if seed % 4 == 3:
        return block_structured_relation(
            [(seed % 3, 1 + seed % 2), (1 + seed % 3, 1 + seed % 2)],
            seed=seed)
    return random_relation(seed % 6, 1 + seed % 4, seed=seed)


@pytest.fixture(scope="module")
def requests():
    return [SolveRequest(relation=relation_to_nodes(case_relation(seed))
                         .spec(),
                         max_explored=8, label="case-%d" % seed)
            for seed in range(NUM_CASES)]


def answers(reports):
    return [(report.sop, report.cost) for report in reports]


class TestPathParity:
    def test_every_path_gives_the_same_answer(self, requests):
        shared = Session()
        expected = answers(shared.solve(request) for request in requests)
        assert any(shared.solve(request).partition is not None
                   for request in requests)
        paths = {
            "fresh session": answers(Session().solve(request)
                                     for request in requests),
        }
        for executor in EXECUTORS:
            paths["solve_many " + executor] = answers(
                Session().solve_many(requests, max_workers=2,
                                     executor=executor))
        service = SolveService()
        paths["service"] = [
            (report["sop"], report["cost"])
            for report, _ in (service.solve(request.to_dict())
                              for request in requests)]
        for name, got in paths.items():
            assert got == expected, name


def report_row(report):
    stats = {key: value for key, value in report.stats.items()
             if key != "runtime_seconds"}
    return (report.sop, report.cost, report.cube_count,
            report.literal_count, report.compatible, report.stopped,
            stats)


class TestBackendField:
    def test_backend_is_ignored_and_shares_a_slot(self, requests):
        request = requests[5]
        with_backend = request.replace(backend="auto")
        assert report_row(Session().solve(with_backend)) \
            == report_row(Session().solve(request))
        session = Session()
        session.solve(request)
        assert session.solve(with_backend).cached is True
        service = SolveService()
        service.solve(request.to_dict())
        _, tier = service.solve(with_backend.to_dict())
        assert tier == "ram"

    def test_unknown_backend_is_rejected(self, requests):
        with pytest.raises(ValueError, match="backend"):
            requests[0].replace(backend="gpu")
        with pytest.raises(ServiceError) as info:
            SolveService().solve(dict(requests[0].to_dict(),
                                      backend="gpu"))
        assert info.value.status == 400
