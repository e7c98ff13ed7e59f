"""Portfolio racing through the service layer: race summaries in the
request log and /stats, and the SSE-disconnect cancellation path."""

import time

import pytest

from repro.service import DiskCache, ServiceError, SolveService

PORTFOLIO_FIG1 = {"strategy": "portfolio"}


class TestPortfolioReports:
    def test_report_and_stats_carry_the_race(self, fig1_request):
        service = SolveService()
        report, tier = service.solve(dict(fig1_request,
                                          **PORTFOLIO_FIG1))
        assert tier == "engine"
        assert report["ok"]
        winner = report["portfolio"]["winner"]
        assert winner is not None
        stats = service.stats()
        assert stats["portfolio"]["races"] == 1
        assert stats["portfolio"]["wins"] == {winner: 1}
        recent = stats["recent"][-1]
        assert recent["portfolio_winner"] == winner
        assert "portfolio_executor" not in recent

    def test_non_portfolio_requests_not_counted(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        stats = service.stats()
        assert stats["portfolio"] == {"races": 0, "wins": {}}
        assert "portfolio_winner" not in stats["recent"][-1]

    def test_ram_tier_preserves_the_summary(self, fig1_request):
        service = SolveService()
        first, _ = service.solve(dict(fig1_request, **PORTFOLIO_FIG1))
        second, tier = service.solve(dict(fig1_request,
                                          **PORTFOLIO_FIG1))
        assert tier == "ram"
        assert second["portfolio"] == first["portfolio"]

    def test_racer_lineup_splits_the_cache(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request, **PORTFOLIO_FIG1))
        _, tier = service.solve(dict(fig1_request, **PORTFOLIO_FIG1,
                                     portfolio_racers="bfs,dfs"))
        assert tier == "engine"


class TestRacerSpecValidation:
    @pytest.mark.parametrize("racers", [
        [{"strategy": "bfs", "name": 3}],
        [{"strategy": ["bfs"]}],
        [{"strategy": "bfs", "name": ["x"]}],
        5,
    ])
    def test_bad_spec_is_a_400_before_any_tier(self, fig1_request,
                                               cache_dir, racers,
                                               monkeypatch):
        service = SolveService(disk=DiskCache(cache_dir))

        def no_tier(*args, **kwargs):
            raise AssertionError("a cache tier was consulted")

        monkeypatch.setattr(service.session, "peek_cached", no_tier)
        monkeypatch.setattr(service.disk, "get_report", no_tier)
        body = dict(fig1_request, strategy="portfolio",
                    portfolio_racers=racers)
        for call in (service.solve, lambda data: next(
                service.solve_stream(data))):
            with pytest.raises(ServiceError) as excinfo:
                call(dict(body))
            assert excinfo.value.status == 400
            assert str(excinfo.value).startswith("invalid solve request")
        with pytest.raises(ServiceError) as excinfo:
            service.batch({"jobs": [dict(body)]})
        assert excinfo.value.status == 400
        assert service.tier_hits == {"ram": 0, "disk": 0, "engine": 0}


class TestPortfolioStream:
    def test_stream_reaches_the_report(self, fig1_request):
        service = SolveService()
        frames = list(service.solve_stream(dict(fig1_request,
                                                **PORTFOLIO_FIG1)))
        kinds = [name for name, _ in frames]
        assert kinds[-1] == "report"
        events = [payload for name, payload in frames
                  if name == "event"]
        assert any(event["kind"] == "portfolio" for event in events)
        assert any(event["kind"] == "racer-done" for event in events)
        assert frames[-1][1]["portfolio"]["winner"] is not None

    def test_disconnect_mid_race_cancels_the_race(self):
        """A client hanging up mid-portfolio-stream must stop the race
        instead of letting it run headless.  Exhaustive bfs on vtx runs
        for seconds, so only a cancelled race closes fast."""
        service = SolveService()
        stream = service.solve_stream({
            "relation": {"kind": "bench", "name": "vtx"},
            "strategy": "portfolio",
            "portfolio_racers": [{"strategy": "bfs",
                                  "max_explored": None,
                                  "fifo_capacity": None}]})
        # Past the three opening events: the fourth is the racer's
        # first improvement, so the race is in flight.
        events = 0
        while events < 4:
            kind, _ = next(stream)
            events += kind == "event"
        started = time.monotonic()
        stream.close()
        assert time.monotonic() - started < 3.0, "the race was not cancelled"
        assert service.request_counts["stream_cancelled"] == 1
        # The cancelled partial never entered a cache tier.
        stats = service.stats()
        assert stats["portfolio"]["races"] == 0
