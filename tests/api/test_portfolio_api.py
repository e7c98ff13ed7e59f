"""Portfolio racing through the API layer: requests, reports, session
caching, and the solve_many duplicate-fingerprint fix."""

import json

import pytest

from repro.api import Session, SolveReport, SolveRequest
from repro.core.relation import BooleanRelation
from repro.core.relio import write_relation

FIG1_ROWS = [[0b01], [0b01], [0b00, 0b11], [0b10, 0b11]]


def make_session():
    session = Session()
    session.add_output_sets("fig1", [set(row) for row in FIG1_ROWS],
                            2, 2)
    return session


def fig1_pla():
    relation = BooleanRelation.from_output_sets(
        [set(row) for row in FIG1_ROWS], 2, 2)
    return write_relation(relation)


def portfolio_request(**kwargs):
    kwargs.setdefault("strategy", "portfolio")
    kwargs.setdefault("portfolio_executor", "serial")
    return SolveRequest(relation="fig1", **kwargs)


class TestRequestPlumbing:
    def test_racers_normalised_at_construction(self):
        request = SolveRequest(strategy="portfolio",
                               portfolio_racers="bfs, dfs")
        assert request.portfolio_racers == (
            {"name": "bfs", "strategy": "bfs"},
            {"name": "dfs", "strategy": "dfs"})

    def test_bad_racers_rejected_at_construction(self):
        with pytest.raises(ValueError, match="did you mean"):
            SolveRequest(strategy="portfolio", portfolio_racers="dfss")
        with pytest.raises(ValueError, match="strategy='portfolio'"):
            SolveRequest(strategy="bfs", portfolio_racers="bfs,dfs")

    def test_malformed_racer_specs_rejected(self):
        from ..core.test_portfolio import BAD_RACER_SPECS
        for racers, field in BAD_RACER_SPECS:
            with pytest.raises(ValueError, match=field):
                SolveRequest(strategy="portfolio", portfolio_racers=racers)
            data = {"relation": "fig1", "strategy": "portfolio",
                    "portfolio_racers": racers}
            with pytest.raises(ValueError, match=field):
                SolveRequest.from_dict(data)

    def test_dict_round_trip(self):
        request = SolveRequest(
            relation="fig1", strategy="portfolio",
            portfolio_racers=[{"strategy": "beam", "fifo_capacity": 8},
                              "dfs"],
            portfolio_executor="process")
        data = json.loads(json.dumps(request.to_dict()))
        assert SolveRequest.from_dict(data) == request

    def test_default_lineup_survives_round_trip(self):
        request = SolveRequest(relation="fig1", strategy="portfolio")
        assert request.portfolio_racers is None
        assert SolveRequest.from_dict(request.to_dict()) == request


class TestSessionPortfolio:
    def test_report_carries_the_race_summary(self):
        session = make_session()
        report = session.solve(portfolio_request())
        assert report.ok and report.compatible
        assert report.portfolio["winner"] is not None
        assert "race won by" in report.summary()
        # The summary survives serialisation and the defensive copies.
        again = SolveReport.from_dict(json.loads(report.to_json()))
        assert again.portfolio == report.portfolio

    def test_non_portfolio_report_has_no_summary(self):
        session = make_session()
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.portfolio is None
        assert "race won by" not in report.summary()

    def test_cache_hit_preserves_the_summary(self):
        session = make_session()
        first = session.solve(portfolio_request())
        second = session.solve(portfolio_request())
        assert second.cached is True
        assert second.portfolio == first.portfolio

    def test_racer_lineups_do_not_cross_serve(self):
        session = make_session()
        session.solve(portfolio_request(portfolio_racers="bfs,dfs"))
        other = session.solve(portfolio_request(portfolio_racers="dfs"))
        assert other.cached is False

    def test_executor_shares_a_cache_slot(self):
        # The executor is an execution detail (like the block pool):
        # same race, same line-up -> same slot, whatever ran it.
        session = make_session()
        session.solve(portfolio_request(portfolio_executor="serial"))
        raced = session.solve(
            portfolio_request(portfolio_executor="process"))
        assert raced.cached is True

    def test_solve_iter_streams_the_race(self):
        session = make_session()
        stream = session.solve_iter(portfolio_request())
        improvements = []
        try:
            while True:
                improvements.append(next(stream))
        except StopIteration as stop:
            report = stop.value
        assert report.ok and report.portfolio["winner"] is not None
        costs = [imp.cost for imp in improvements]
        assert costs == sorted(costs, reverse=True)


class TestSolveManyDedup:
    """The duplicate-fingerprint fix: identical self-contained specs in
    one batch must be solved once and fanned out, not dispatched N
    times."""

    def test_identical_inline_specs_solved_once(self):
        session = Session()
        spec = {"kind": "pla", "text": fig1_pla()}
        reports = session.solve_many(
            [SolveRequest(relation=dict(spec), label="a"),
             SolveRequest(relation=dict(spec), label="b"),
             SolveRequest(relation=dict(spec), label="c")],
            executor="serial")
        assert all(report.ok for report in reports)
        assert [report.label for report in reports] == ["a", "b", "c"]
        assert session.cache_hits == 2  # two fan-outs, one solve
        assert {report.cost for report in reports} == {reports[0].cost}

    def test_file_and_inline_spec_share_a_fingerprint(self, tmp_path):
        pla = fig1_pla()
        path = tmp_path / "fig1.pla"
        path.write_text(pla)
        session = Session()
        reports = session.solve_many(
            [SolveRequest(relation={"kind": "file", "path": str(path)},
                          label="file"),
             SolveRequest(relation={"kind": "pla", "text": pla},
                          label="inline")],
            executor="serial")
        assert all(report.ok for report in reports)
        assert session.cache_hits == 1
        assert reports[0].cost == reports[1].cost

    def test_different_specs_not_conflated(self):
        session = Session()
        other_rows = [[0b01], [0b10], [0b00, 0b11], [0b10, 0b11]]
        other = BooleanRelation.from_output_sets(
            [set(row) for row in other_rows], 2, 2)
        reports = session.solve_many(
            [SolveRequest(relation={"kind": "pla", "text": fig1_pla()}),
             SolveRequest(relation={"kind": "pla",
                                    "text": write_relation(other)})],
            executor="serial")
        assert all(report.ok for report in reports)
        assert session.cache_hits == 0

    def test_missing_file_fails_only_its_job(self, tmp_path):
        session = Session()
        reports = session.solve_many(
            [SolveRequest(relation={"kind": "file",
                                    "path": str(tmp_path / "nope.pla")},
                          label="missing"),
             SolveRequest(relation={"kind": "pla", "text": fig1_pla()},
                          label="good")],
            executor="serial")
        assert reports[0].ok is False
        assert reports[1].ok is True

    def test_shared_report_fans_portfolio_summary_out(self):
        session = Session()
        spec = {"kind": "pla", "text": fig1_pla()}
        reports = session.solve_many(
            [SolveRequest(relation=dict(spec), label="a",
                          strategy="portfolio",
                          portfolio_executor="serial"),
             SolveRequest(relation=dict(spec), label="b",
                          strategy="portfolio",
                          portfolio_executor="serial")],
            executor="serial")
        assert all(report.ok for report in reports)
        assert reports[0].portfolio == reports[1].portfolio
        assert reports[1].cached is True


class TestDecomposedPortfolioReports:
    def test_block_entries_carry_racer_summaries(self):
        from repro.benchdata.brgen import block_structured_relation
        from repro.core import save_relation  # noqa: F401 - import check
        session = Session()
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        session.add_relation("blocky", relation)
        report = session.solve(SolveRequest(
            relation="blocky", strategy="portfolio",
            portfolio_executor="serial", decompose=True))
        assert report.ok
        for entry in report.partition["blocks"]:
            assert entry["portfolio"]["winner"] is not None
