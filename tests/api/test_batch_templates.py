"""Solution templates as the batch hand-over format.

A report's template is renamed from the ISOP covers its renderings
already extracted, and must equal ``repro.core.memo.solution_template``
on the solved functions wherever the report came from.  ``solve_many``
keys node-spec jobs by their node list before building anything: cache
hits build no relation, process jobs build none in the parent, and a
pool that cannot start still solves them in-process.
"""

import concurrent.futures

import pytest

from repro.api import Session, SolveRequest
from repro.api import request as request_module
from repro.api import session as session_module
from repro.api.request import root_of_nodes
from repro.bdd import BddManager
from repro.benchdata.brgen import random_relation
from repro.core.memo import solution_template
from repro.core.relio import relation_to_nodes

FIG1_ROWS = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]


def node_specs(count, seed=0):
    return [relation_to_nodes(random_relation(2 + index % 3,
                                              1 + index % 3,
                                              seed=seed + index)).spec()
            for index in range(count)]


def reference(report):
    """The template a second ISOP of the live solution gives."""
    solution = report.solution
    return solution_template(solution.mgr, solution.functions,
                             report._inputs)


def answers(reports):
    return [(report.sop, report.cost, report.solution_template())
            for report in reports]


@pytest.fixture
def count_builds(monkeypatch):
    """Count the relations ``solve_many`` builds in this process.

    An in-process job builds its root through ``root_of_spec``, which
    calls ``repro.api.request.root_of_nodes``; the pool worker's entry
    point calls ``repro.api.session.root_of_nodes``.
    """
    calls = []

    def counting(data, *args, **kwargs):
        calls.append(data)
        return root_of_nodes(data, *args, **kwargs)

    monkeypatch.setattr(session_module, "root_of_nodes", counting)
    monkeypatch.setattr(request_module, "root_of_nodes", counting)
    return calls


class TestReportTemplate:
    def test_session_solve(self):
        session = Session()
        for spec in node_specs(6):
            report = session.solve(SolveRequest(relation=spec,
                                                max_explored=8))
            assert report.solution_template() == reference(report)

    def test_runs_no_second_isop(self, monkeypatch):
        session = Session()
        session.add_output_sets("fig1", FIG1_ROWS, 2, 2)
        report = session.solve(SolveRequest(relation="fig1"))
        calls = []
        isop = BddManager.isop

        def counting(self, lower, upper):
            calls.append((lower, upper))
            return isop(self, lower, upper)

        monkeypatch.setattr(BddManager, "isop", counting)
        template = report.solution_template()
        assert template is not None and calls == []
        monkeypatch.undo()
        assert template == reference(report)

    def test_serial_solve_many(self):
        session = Session()
        session.add_output_sets("fig1", FIG1_ROWS, 2, 2)
        requests = [SolveRequest(relation=spec, max_explored=8)
                    for spec in node_specs(5)]
        requests.append(SolveRequest(relation="fig1"))
        reports = session.solve_many(requests, executor="serial")
        for report in reports:
            assert report.ok and report.solution is not None
            assert report.solution_template() == reference(report)

    def test_process_solve_many(self):
        requests = [SolveRequest(relation=spec, max_explored=8)
                    for spec in node_specs(5)]
        serial = Session().solve_many(requests, executor="serial")
        session = Session()
        session.add_output_sets("fig1", FIG1_ROWS, 2, 2)
        named = SolveRequest(relation="fig1")
        reports = session.solve_many(requests + [named],
                                     executor="process", max_workers=2)
        assert answers(reports[:-1]) == answers(serial)
        for report, expected in zip(reports, serial):
            assert report.solution_template() == reference(expected)
        # A named relation still gets a live solution in its manager.
        fig1 = reports[-1]
        assert fig1.solution.mgr is session.relation("fig1").mgr
        assert fig1.solution_template() == reference(fig1)

    def test_stripped_report(self):
        session = Session()
        session.add_relation("r", random_relation(4, 3, seed=5))
        report = session.solve(SolveRequest(relation="r"))
        expected = reference(report)
        session._strip_solution(report)
        assert report.solution is None
        assert report.solution_template() == expected

    def test_cache_hits_carry_the_template(self):
        session = Session()
        requests = [SolveRequest(relation=spec, max_explored=8)
                    for spec in node_specs(3)]
        first = session.solve_many(requests, executor="serial")
        again = session.solve_many(requests, executor="serial")
        for fresh, hit in zip(first, again):
            assert hit.cached
            # Derived once, at the solve; the hit did not re-derive it.
            assert hit._template is fresh._template


class TestNodeSpecBatches:
    def test_repeated_specs_build_relations_only_for_misses(
            self, count_builds):
        specs = node_specs(3)
        requests = [SolveRequest(relation=spec, max_explored=8,
                                 label="j%d" % index)
                    for index, spec in enumerate(specs + specs[:2])]
        session = Session()
        reports = session.solve_many(requests, executor="serial")
        assert all(report.ok for report in reports)
        assert len(count_builds) == 3
        again = session.solve_many(requests, executor="serial")
        assert len(count_builds) == 3
        assert all(report.cached for report in again)
        assert [report.label for report in again] == \
            ["j%d" % index for index in range(5)]
        assert answers(again) == answers(reports)

    def test_a_hit_returns_the_cached_report_as_it_is(self,
                                                      count_builds):
        request = SolveRequest(relation=node_specs(1)[0], max_explored=8)
        session = Session()
        [solved] = session.solve_many([request], executor="serial")
        [served] = session.solve_many([request], executor="process")
        assert served.cached
        # The live solution it was solved with, in that manager.
        assert served.solution is solved.solution
        assert served._inputs == solved._inputs
        assert served.solution_template() == solved.solution_template()
        assert len(count_builds) == 1

    def test_process_batch_builds_none_in_the_parent(self, count_builds,
                                                     monkeypatch):
        flattened = []
        monkeypatch.setattr(session_module, "relation_to_nodes",
                            lambda relation: flattened.append(relation))
        specs = node_specs(6, seed=40)
        requests = [SolveRequest(relation=spec, max_explored=8)
                    for spec in specs + specs[:3]]
        reports = Session().solve_many(requests, executor="process",
                                       max_workers=2)
        assert count_builds == [] and flattened == []
        assert all(report.ok and report.solution is None
                   for report in reports)
        serial = Session().solve_many(requests, executor="serial")
        assert answers(reports) == answers(serial)

    def test_a_pool_that_cannot_start_solves_in_process(self,
                                                        count_builds,
                                                        monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process layer")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            broken_pool)
        specs = node_specs(4, seed=60)
        requests = [SolveRequest(relation=spec, max_explored=8)
                    for spec in specs]
        reports = Session().solve_many(requests, executor="process")
        assert len(count_builds) == len(specs)
        for report in reports:
            # Solved in this process: a live solution rides along.
            assert report.ok and report.compatible
            assert report.solution is not None
            assert report.solution_template() == reference(report)
        serial = Session().solve_many(requests, executor="serial")
        assert answers(reports) == answers(serial)
