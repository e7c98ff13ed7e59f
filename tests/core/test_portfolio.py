"""Portfolio racing: spec normalisation, bound sharing, the race loop,
winner attribution, and the cancellation races."""

import pytest

from repro.benchdata.brsuite import instance_by_name
from repro.core import BrelOptions, BrelSolver, CancelToken
from repro.core.portfolio import (BoundChannel, DEFAULT_RACERS,
                                  normalize_racers, racers_cache_key)

#: Keys every racer summary row must carry (the report consumers'
#: contract — the CLI table and the service request log read these).
ROW_KEYS = {"name", "strategy", "cost", "explored",
            "improvements_contributed", "runtime_seconds", "stopped",
            "proved_optimal", "error", "winner"}


#: Racer line-ups of the wrong shape, each with the field its error
#: must name.
BAD_RACER_SPECS = [
    ([{"strategy": "bfs", "name": 3}], "name"),
    ([{"strategy": ["bfs"]}], "strategy"),
    ([{"strategy": "bfs", "name": ["x"]}], "name"),
    ([{"strategy": ""}], "strategy"),
    ([{"name": "orphan"}], "strategy"),
    (5, "portfolio_racers"),
    ({"bfs", "dfs"}, "portfolio_racers"),
]


def small_relation():
    return instance_by_name("int1").build()


def racing_relation():
    return instance_by_name("int5").build()


# ----------------------------------------------------------------------
# Racer spec normalisation (and the construction-time validation)
# ----------------------------------------------------------------------
class TestNormalizeRacers:
    def test_none_is_the_default_lineup(self):
        specs = normalize_racers(None)
        assert tuple(s["strategy"] for s in specs) == DEFAULT_RACERS
        assert tuple(s["name"] for s in specs) == DEFAULT_RACERS

    def test_comma_string_form(self):
        specs = normalize_racers("bfs, dfs")
        assert [s["strategy"] for s in specs] == ["bfs", "dfs"]

    def test_mapping_specs_with_deltas(self):
        specs = normalize_racers([
            {"strategy": "beam", "fifo_capacity": 8},
            {"strategy": "beam", "fifo_capacity": 64, "name": "wide"},
        ])
        assert specs[0] == {"name": "beam", "strategy": "beam",
                            "fifo_capacity": 8}
        assert specs[1]["name"] == "wide"

    def test_duplicate_names_get_suffixes(self):
        specs = normalize_racers(["dfs", "dfs", "dfs"])
        assert [s["name"] for s in specs] == ["dfs", "dfs#2", "dfs#3"]

    def test_single_mapping_rejected(self):
        with pytest.raises(ValueError, match="wrap it in a list"):
            normalize_racers({"strategy": "bfs"})

    def test_empty_lineup_rejected(self):
        with pytest.raises(ValueError, match="at least one racer"):
            normalize_racers([])

    def test_nested_portfolio_rejected(self):
        with pytest.raises(ValueError, match="cannot race itself"):
            normalize_racers(["bfs", "portfolio"])

    def test_unknown_strategy_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'dfs'"):
            normalize_racers(["dfss"])

    @pytest.mark.parametrize("racers, field", BAD_RACER_SPECS)
    def test_malformed_specs_rejected(self, racers, field):
        with pytest.raises(ValueError, match=field):
            normalize_racers(racers)
        with pytest.raises(ValueError, match=field):
            BrelOptions(strategy="portfolio", portfolio_racers=racers)

    def test_empty_name_falls_back_to_the_strategy(self):
        specs = normalize_racers([{"strategy": "bfs", "name": ""},
                                  {"strategy": "dfs", "name": None}])
        assert [s["name"] for s in specs] == ["bfs", "dfs"]

    def test_unknown_delta_field_rejected(self):
        with pytest.raises(ValueError, match="unknown racer option"):
            normalize_racers([{"strategy": "bfs", "beam_width": 3}])

    def test_cache_key_folds_default_spellings(self):
        # None and the spelled-out default line-up share a cache slot.
        assert racers_cache_key(None) \
            == racers_cache_key(list(DEFAULT_RACERS))
        assert racers_cache_key("bfs,dfs") != racers_cache_key("dfs,bfs")


class TestEagerOptionValidation:
    def test_racers_require_portfolio_strategy(self):
        with pytest.raises(ValueError, match="strategy='portfolio'"):
            BrelOptions(strategy="bfs", portfolio_racers="bfs,dfs")

    def test_racer_executor_knob_is_gone(self):
        # Racers always take turns in the caller's process.
        with pytest.raises(TypeError):
            BrelOptions(strategy="portfolio", portfolio_executor="serial")

    def test_bad_racer_combo_fails_at_construction(self):
        # The beam width rule fires while the options are built, not
        # mid-race (mirrors the plain beam/fifo_capacity=0 behaviour).
        with pytest.raises(ValueError, match="beam"):
            BrelOptions(strategy="portfolio",
                        portfolio_racers=[{"strategy": "beam",
                                           "fifo_capacity": 0}])

    def test_did_you_mean_knows_portfolio(self):
        with pytest.raises(ValueError, match="portfolio"):
            BrelOptions(strategy="portfolo")

    def test_direct_frontier_construction_rejected(self):
        from repro.core.explore import get_strategy_factory
        factory = get_strategy_factory("portfolio")
        with pytest.raises(ValueError, match="meta-strategy"):
            factory(BrelOptions())


# ----------------------------------------------------------------------
# The bound channel and the solver's shared-bound pruning
# ----------------------------------------------------------------------
class TestBoundChannel:
    def test_strictly_improving(self):
        channel = BoundChannel()
        assert channel.publish(10.0) is True
        assert channel.publish(10.0) is False  # equal is not better
        assert channel.publish(12.0) is False
        assert channel.publish(9.0) is True
        assert channel.cost == 9.0

    def test_seeded(self):
        channel = BoundChannel(5.0)
        assert channel.publish(6.0) is False
        assert channel.cost == 5.0


class TestSharedBoundPruning:
    def test_external_bound_prunes_candidates(self):
        """A solver handed an already-optimal external bound must not
        waste work trying to beat it (another racer holds that
        solution) — and must label those prunes so traces attribute
        them to the race, not the local incumbent."""
        relation = small_relation()
        exhaustive = BrelOptions(strategy="dfs", max_explored=None)
        baseline = BrelSolver(exhaustive).solve(relation)
        bounded = BrelSolver(
            BrelOptions(strategy="dfs", max_explored=None,
                        record_trace=True),
            bound=BoundChannel(baseline.solution.cost)).solve(relation)
        # Nothing can *strictly* beat the seeded bound, so the local
        # incumbent never improves past it and the tree collapses.
        assert bounded.solution.cost >= baseline.solution.cost
        assert bounded.stats.relations_explored \
            <= baseline.stats.relations_explored
        details = {ev.detail for ev in bounded.events
                   if ev.kind == "prune"}
        assert "shared-bound" in details

    def test_without_channel_no_shared_bound_events(self):
        relation = small_relation()
        result = BrelSolver(BrelOptions(record_trace=True)) \
            .solve(relation)
        assert all(ev.detail != "shared-bound" for ev in result.events
                   if ev.kind == "prune")


# ----------------------------------------------------------------------
# The race itself
# ----------------------------------------------------------------------
class TestRace:
    def test_cost_parity_with_single_strategy(self):
        # The race loop interleaves racers deterministically, so the
        # raced cost reproduces the single exhaustive solve exactly.
        relation = racing_relation()
        single = BrelSolver(BrelOptions(
            strategy="dfs", max_explored=None)).solve(relation)
        assert single.stopped == "exhausted"
        raced = BrelSolver(BrelOptions(
            strategy="portfolio", portfolio_racers="dfs,best-first",
            max_explored=None, fifo_capacity=None)).solve(relation)
        assert raced.solution.cost == single.solution.cost
        assert relation.is_compatible(raced.solution.functions)

    def test_summary_shape(self):
        result = BrelSolver(BrelOptions(
            strategy="portfolio",
            portfolio_racers="bfs,dfs")).solve(small_relation())
        summary = result.portfolio
        assert set(summary) == {"winner", "racers"}
        rows = summary["racers"]
        assert [row["name"] for row in rows] == ["bfs", "dfs"]
        assert all(set(row) == ROW_KEYS for row in rows)
        winners = [row for row in rows if row["winner"]]
        assert len(winners) == 1
        assert summary["winner"] == winners[0]["name"]

    def test_serial_race_is_deterministic(self):
        relation = racing_relation()

        def race():
            result = BrelSolver(BrelOptions(
                strategy="portfolio")).solve(relation)
            stable = [(row["name"], row["cost"], row["explored"],
                       row["stopped"], row["winner"])
                      for row in result.portfolio["racers"]]
            costs = [imp.cost for imp in result.improvements]
            return result.solution.cost, stable, costs

        assert race() == race()

    def test_improvement_stream_is_strictly_improving(self):
        result = BrelSolver(BrelOptions(
            strategy="portfolio")).solve(racing_relation())
        costs = [imp.cost for imp in result.improvements]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)

    def test_proved_optimality_cancels_losers(self):
        # best-first exhausts int5 in ~12 subrelations, bfs needs ~23;
        # in the deterministic serial interleave the fast prover
        # finishes first and must cancel the slower racer mid-flight.
        result = BrelSolver(BrelOptions(
            strategy="portfolio", portfolio_racers="best-first,bfs",
            max_explored=None,
            fifo_capacity=None)).solve(racing_relation())
        rows = {row["name"]: row for row in result.portfolio["racers"]}
        assert rows["best-first"]["proved_optimal"]
        assert rows["bfs"]["stopped"] == "cancelled"
        assert result.stopped == "exhausted"

    @pytest.fixture
    def crashy_strategy(self):
        from repro.api import strategy_registry

        def crashy(options):
            raise RuntimeError("boom")

        strategy_registry.register("crashy-test", crashy)
        try:
            yield "crashy-test"
        finally:
            strategy_registry.unregister("crashy-test")

    def test_failed_racer_is_isolated(self, crashy_strategy):
        result = BrelSolver(BrelOptions(
            strategy="portfolio",
            portfolio_racers="bfs,crashy-test")).solve(small_relation())
        rows = {row["name"]: row for row in result.portfolio["racers"]}
        assert "boom" in rows["crashy-test"]["error"]
        assert rows["bfs"]["error"] is None
        assert result.portfolio["winner"] == "bfs"

    def test_all_racers_failing_raises(self, crashy_strategy):
        with pytest.raises(RuntimeError, match="every portfolio racer"):
            BrelSolver(BrelOptions(
                strategy="portfolio",
                portfolio_racers="crashy-test,crashy-test")).solve(
                    small_relation())

    def test_trace_has_the_portfolio_stream_shape(self):
        result = BrelSolver(BrelOptions(
            strategy="portfolio", portfolio_racers="bfs,dfs",
            record_trace=True)).solve(small_relation())
        kinds = [ev.kind for ev in result.events]
        assert kinds[0] == "portfolio"
        assert result.events[0].detail == "2 racers: bfs | dfs"
        assert kinds[-1] == "done"
        assert kinds.count("racer-done") == 2
        assert "quick-solution" in kinds


# ----------------------------------------------------------------------
# Cancellation races (deadline, external cancel)
# ----------------------------------------------------------------------
class TestCancellationRaces:
    def test_deadline_mid_race_returns_best_so_far(self):
        relation = instance_by_name("vtx").build()
        result = BrelSolver(BrelOptions(
            strategy="portfolio",
            portfolio_racers=[{"strategy": "best-first",
                               "max_explored": None,
                               "fifo_capacity": None}],
            time_limit_seconds=0.2)).solve(relation)
        assert result.stopped == "timeout"
        assert relation.is_compatible(result.solution.functions)
        row = result.portfolio["racers"][0]
        assert row["error"] is None  # cancelled, not crashed

    def test_pre_cancelled_token_yields_root_solution(self):
        relation = racing_relation()
        token = CancelToken()
        token.cancel()
        result = BrelSolver(BrelOptions(
            strategy="portfolio")).solve(relation, cancel=token)
        assert result.stopped == "cancelled"
        assert relation.is_compatible(result.solution.functions)

    def test_abandoned_stream_closes_every_racer(self, monkeypatch):
        """Closing the event stream mid-race (the SSE-disconnect path)
        closes every racer at once and leaves the manager's solve
        scope, so nothing waits for the racers to be collected."""
        closed = []
        loop = BrelSolver._iter_events_monolithic

        def tracked(self, relation, cancel):
            try:
                return (yield from loop(self, relation, cancel))
            finally:
                closed.append(self)

        monkeypatch.setattr(BrelSolver, "_iter_events_monolithic", tracked)
        relation = instance_by_name("vtx").build()
        stream = BrelSolver(BrelOptions(
            strategy="portfolio",
            portfolio_racers=[{"strategy": "bfs",
                               "max_explored": None,
                               "fifo_capacity": None}])).iter_events(relation)
        # Past the three opening events: the fourth is the racer's
        # first improvement, so the race is in flight.
        for _ in range(4):
            event = next(stream)
        assert event.kind == "new-best"
        # The race holds the one solve scope; its racer runs inside it.
        assert relation.mgr._solve_depth == 1 and not closed
        stream.close()
        assert relation.mgr._solve_depth == 0
        assert len(closed) == 1


# ----------------------------------------------------------------------
# Portfolio under the sharding layer
# ----------------------------------------------------------------------
class TestDecomposedPortfolio:
    def test_blocks_race_individually(self):
        from repro.benchdata.brgen import block_structured_relation
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        result = BrelSolver(BrelOptions(
            strategy="portfolio", portfolio_racers="bfs,dfs",
            decompose=True)).solve(relation)
        assert result.partition is not None
        blocks = result.partition["blocks"]
        assert len(blocks) >= 2
        for entry in blocks:
            assert entry["portfolio"]["winner"] is not None
        assert relation.is_compatible(result.solution.functions)
