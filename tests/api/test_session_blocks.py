"""Session-level output-block decomposition: dispatch, cache, reports."""

import json

import pytest

from repro.api import Session, SolveRequest, SolveReport
from repro.benchdata.brgen import block_structured_relation


@pytest.fixture
def session():
    s = Session()
    s.add_relation("blocky",
                   block_structured_relation([(4, 2), (4, 2)], seed=3))
    s.add_relation("mono",
                   block_structured_relation([(4, 2)], seed=3))
    return s


BLOCK_REQUEST = SolveRequest(relation="blocky", max_explored=200,
                             label="blocky")


class TestRequestField:
    def test_decompose_round_trips_through_json(self):
        for value in (None, True, False):
            request = SolveRequest(relation="blocky", decompose=value)
            again = SolveRequest.from_json(request.to_json())
            assert again == request
            assert again.decompose is value

    def test_decompose_reaches_options(self):
        assert SolveRequest(decompose=False).to_options().decompose \
            is False
        assert SolveRequest().to_options().decompose is None

    def test_legacy_dicts_without_decompose_still_load(self):
        data = SolveRequest(relation="blocky").to_dict()
        del data["decompose"]
        assert SolveRequest.from_dict(data).decompose is None


class TestSessionSolveSharded:
    def test_serial_solve_reports_partition(self, session):
        report = session.solve(BLOCK_REQUEST)
        assert report.partition is not None
        assert report.partition["num_blocks"] == 2
        assert report.compatible
        assert report.stats["relations_explored"] == sum(
            block["stats"]["relations_explored"]
            for block in report.partition["blocks"])

    def test_monolithic_relation_has_no_partition(self, session):
        report = session.solve(SolveRequest(relation="mono"))
        assert report.partition is None

    def test_forced_off_suppresses_partition(self, session):
        report = session.solve(
            BLOCK_REQUEST.replace(decompose=False))
        assert report.partition is None
        assert report.compatible

    def test_auto_and_forced_on_share_a_cache_slot(self, session):
        first = session.solve(BLOCK_REQUEST)
        hits_before = session.cache_hits
        again = session.solve(BLOCK_REQUEST.replace(decompose=True))
        assert session.cache_hits == hits_before + 1
        assert again.cached and again.cost == first.cost

    def test_forced_off_gets_its_own_cache_slot(self, session):
        session.solve(BLOCK_REQUEST)
        hits_before = session.cache_hits
        off = session.solve(BLOCK_REQUEST.replace(decompose=False))
        assert session.cache_hits == hits_before
        assert not off.cached
        assert off.partition is None

    def test_traced_sharded_solve_keeps_its_trace_in_the_cache(
            self, session):
        # The cache must never hold a trace-less report under a
        # record_trace key.
        report = session.solve(BLOCK_REQUEST.replace(record_trace=True))
        assert report.trace is not None
        assert report.trace[0]["kind"] == "partition"
        again = session.solve(BLOCK_REQUEST.replace(record_trace=True))
        assert again.cached
        assert again.trace is not None

    def test_precancelled_sharded_solve_is_not_cached(self, session):
        from repro.api import CancelToken
        cancel = CancelToken()
        cancel.cancel()
        report = session.solve(BLOCK_REQUEST, cancel=cancel)
        assert report.stopped == "cancelled"
        assert report.compatible
        # Cancelled partial results never enter the cache.
        fresh = session.solve(BLOCK_REQUEST)
        assert not fresh.cached


class TestReportSchema:
    def test_partition_survives_json_round_trip(self, session):
        report = session.solve(BLOCK_REQUEST)
        again = SolveReport.from_json(report.to_json())
        assert again.partition == report.partition
        assert again.schema_version == report.schema_version

    def test_copy_does_not_share_partition_dict(self, session):
        report = session.solve(BLOCK_REQUEST)
        clone = report.copy()
        clone.partition["blocks"][0]["cost"] = -1
        assert report.partition["blocks"][0]["cost"] != -1

    def test_summary_mentions_blocks(self, session):
        report = session.solve(BLOCK_REQUEST)
        assert "[2 blocks]" in report.summary()


class TestSolveManySharded:
    def test_batch_workers_shard_in_solver(self, session):
        requests = [BLOCK_REQUEST,
                    SolveRequest(relation="mono", label="mono")]
        reports = session.solve_many(requests, executor="serial")
        assert all(report.ok for report in reports)
        assert reports[0].partition is not None
        assert reports[1].partition is None

    def test_batch_process_reports_carry_partition(self, session):
        reports = session.solve_many([BLOCK_REQUEST],
                                     executor="process")
        assert reports[0].ok
        assert reports[0].partition is not None
        assert reports[0].partition["num_blocks"] == 2
        # Data-only report: the partition travelled across the process
        # boundary as JSON-ready data.
        json.dumps(reports[0].partition)