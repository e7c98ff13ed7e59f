"""Session.solve_iter and batch cancellation (the anytime service API)."""

import pytest

from repro.api import (CancelToken, Session, SolveRequest,
                       register_strategy, strategy_names,
                       strategy_registry)
from repro.core import FifoStrategy, make_strategy


def drive(gen):
    """Drain a solve_iter generator; return (improvements, report)."""
    improvements = []
    try:
        while True:
            improvements.append(next(gen))
    except StopIteration as stop:
        return improvements, stop.value


@pytest.fixture
def session():
    s = Session()
    s.add_benchmark("vtx")
    return s


class TestSolveIter:
    def test_yields_at_least_two_improving_solutions(self, session):
        # Acceptance criterion: a Table 2 relation yields >= 2 strictly
        # improving solutions before returning.
        gen = session.solve_iter(SolveRequest(relation="vtx",
                                              max_explored=60))
        improvements, report = drive(gen)
        assert len(improvements) >= 2
        costs = [imp.cost for imp in improvements]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
        assert report.ok and report.compatible
        assert report.cost == costs[-1]
        assert [imp["cost"] for imp in report.improvements] == costs

    def test_cancellation_returns_best_so_far_report(self, session):
        token = CancelToken()
        gen = session.solve_iter(
            SolveRequest(relation="vtx", strategy="best-first",
                         max_explored=None, fifo_capacity=None),
            cancel=token)
        first = next(gen)
        token.cancel()
        improvements, report = drive(gen)
        assert report.ok and report.compatible
        assert report.stopped == "cancelled"
        assert report.cost <= first.cost
        assert report.solution is not None

    def test_cancelled_solve_is_never_cached(self, session):
        # Regression: a cancelled partial result must not be served to
        # future uncancelled calls (cancel is not part of the cache key).
        request = SolveRequest(relation="vtx", max_explored=60)
        token = CancelToken()
        token.cancel()
        partial = session.solve(request, cancel=token)
        assert partial.stopped == "cancelled"
        full = session.solve(request)
        assert not full.cached and session.cache_hits == 0
        assert full.stopped != "cancelled"
        assert full.cost <= partial.cost

    def test_cancelled_solve_iter_is_never_cached(self, session):
        request = SolveRequest(relation="vtx", max_explored=60)
        token = CancelToken()
        token.cancel()
        _, partial = drive(session.solve_iter(request, cancel=token))
        assert partial.stopped == "cancelled"
        full = session.solve(request)
        assert not full.cached and full.cost <= partial.cost

    def test_report_lands_in_cache(self, session):
        request = SolveRequest(relation="vtx", strategy="beam",
                               max_explored=30)
        _, report = drive(session.solve_iter(request))
        again = session.solve(request)
        assert again.cached and session.cache_hits == 1
        assert again.cost == report.cost

    def test_cache_hit_yields_single_improvement(self, session):
        request = SolveRequest(relation="vtx", max_explored=30)
        fresh = session.solve(request)
        improvements, report = drive(session.solve_iter(request))
        assert report.cached and len(improvements) == 1
        assert improvements[0].cost == fresh.cost

    def test_validation_is_eager(self, session):
        # Bad inputs raise at the call, like solve(), not at the first
        # next() deep inside some consumer loop.
        with pytest.raises(KeyError, match="no relation named"):
            session.solve_iter(SolveRequest(relation="no-such-name"))
        with pytest.raises(ValueError, match="no relation"):
            session.solve_iter(SolveRequest())
        with pytest.raises(OSError):
            session.solve_iter(SolveRequest(
                relation={"kind": "file", "path": "/no/such/file.pla"}))
        with pytest.raises(ValueError, match="bad cube character"):
            session.solve_iter(SolveRequest(relation={
                "kind": "pla", "text": ".i 2\n.o 2\n.type fr\n0z 11\n.e\n"}))

    def test_observer_sees_events(self, session):
        kinds = []
        gen = session.solve_iter(
            SolveRequest(relation="vtx", max_explored=20),
            observer=lambda event: kinds.append(event.kind))
        drive(gen)
        assert kinds[0] == "quick-solution" and kinds[-1] == "done"

    def test_solve_accepts_observer_and_cancel(self, session):
        kinds = []
        token = CancelToken()
        report = session.solve(
            SolveRequest(relation="vtx", max_explored=20),
            observer=lambda event: kinds.append(event.kind),
            cancel=token)
        assert report.ok and "done" in kinds


class TestSolveManyCancellation:
    def requests(self, n=4):
        return [SolveRequest(relation="vtx", cost=cost, label=cost,
                             max_explored=40)
                for cost in ("size", "size2", "cubes", "literals")[:n]]

    def test_pre_cancelled_serial_batch_skips_jobs(self, session):
        token = CancelToken()
        token.cancel()
        reports = session.solve_many(self.requests(), executor="serial",
                                     cancel=token)
        assert len(reports) == 4
        assert all(not report.ok for report in reports)
        assert all("cancelled" in report.error for report in reports)

    def test_serial_batch_without_cancel_unaffected(self, session):
        reports = session.solve_many(self.requests(2), executor="serial",
                                     cancel=CancelToken())
        assert all(report.ok for report in reports)

    def test_serial_batch_cancelled_mid_job_is_not_cached(self, session):
        # The token trips while the first job runs: its search stops
        # right after the guaranteed quick solution and reports
        # best-so-far, and the jobs behind it are skipped.
        token = CancelToken()

        @register_strategy("trip-token-test")
        def trip(options):
            token.cancel()
            return FifoStrategy(capacity=options.fifo_capacity)

        try:
            requests = [request.replace(strategy="trip-token-test")
                        for request in self.requests()]
            first, *rest = session.solve_many(requests, executor="serial",
                                              cancel=token)
            assert first.ok and first.compatible
            assert first.stopped == "cancelled"
            assert first.stats["relations_explored"] == 0
            assert all(not report.ok and "cancelled" in report.error
                       for report in rest)
            # Regression: that best-so-far result must not poison the
            # cache for later uncancelled batches.
            fresh = session.solve_many(requests, executor="serial")
            assert all(r.ok and r.stopped != "cancelled" and not r.cached
                       for r in fresh)
        finally:
            strategy_registry.unregister("trip-token-test")

    def test_process_batch_cancels_undispatched(self, session):
        token = CancelToken()
        token.cancel()
        reports = session.solve_many(self.requests(), max_workers=1,
                                     executor="process", cancel=token)
        assert len(reports) == 4
        # Cancelled before dispatch -> failed reports; anything already
        # running finishes normally.  Either way nothing hangs or raises.
        for report in reports:
            assert report.ok or "cancelled" in report.error


class TestStrategyRegistryPlugin:
    def test_custom_strategy_runs_from_request(self, session):
        @register_strategy("narrow-bfs-test")
        def narrow(options):
            return FifoStrategy(capacity=2)

        try:
            assert "narrow-bfs-test" in strategy_names()
            # Visible to the core resolver too (shared backing dict).
            from repro.core import BrelOptions
            strategy = make_strategy("narrow-bfs-test", BrelOptions())
            assert strategy.capacity == 2
            report = session.solve(SolveRequest(
                relation="vtx", strategy="narrow-bfs-test",
                max_explored=30))
            assert report.ok and report.compatible
        finally:
            strategy_registry.unregister("narrow-bfs-test")
        with pytest.raises(ValueError):
            SolveRequest(strategy="narrow-bfs-test")
