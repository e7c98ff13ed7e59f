"""The solve-wide ISOP table.

ISOP covers and nodes served from a warm table equal a fresh manager's,
whatever filled, flushed or collected the table first; the table lives
exactly as long as the outermost solve.
"""

import random

import pytest

from repro.bdd import BddManager
from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver

WIDTH = 9


def fresh_manager():
    """A fresh manager of ``WIDTH`` variables."""
    return BddManager(["v%d" % i for i in range(WIDTH)])


def interval_specs(seed, num_vars, count=12):
    """Seeded ``(lower, upper)`` minterm lists over ``num_vars`` vars."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        points = range(1 << num_vars)
        lower = [p for p in points if rng.random() < 0.3]
        upper = sorted(set(lower) | {p for p in points
                                     if rng.random() < 0.4})
        specs.append((lower, upper))
    return specs


def build_intervals(mgr, specs, num_vars):
    variables = list(range(num_vars))
    return [(mgr.from_minterms(variables, lower),
             mgr.from_minterms(variables, upper)) for lower, upper in specs]


def isop_results(mgr, pairs):
    """Covers plus the nodes' functions, comparable across managers."""
    variables = list(range(mgr.num_vars))
    out = []
    for lower, upper in pairs:
        cover, node = mgr.isop(lower, upper)
        out.append((cover, sorted(mgr.minterms(node, variables))))
    return out


class TestIsopTableParity:
    @pytest.mark.parametrize("warmup", ["unrelated", "flush", "collect",
                                        "clear_caches"])
    def test_warm_table_matches_fresh_manager(self, warmup):
        specs = interval_specs(11, WIDTH)
        fresh = fresh_manager()
        expected = isop_results(fresh, build_intervals(fresh, specs, WIDTH))
        mgr = fresh_manager()
        if warmup == "flush":
            mgr.set_cache_limit(8)
        mgr.enter_solve()
        try:
            isop_results(mgr, build_intervals(
                mgr, interval_specs(12, WIDTH), WIDTH))  # unrelated
            assert mgr.stats()["isop_entries"] > 0
            if warmup == "collect":
                mgr.collect()
                assert mgr.stats()["isop_entries"] == 0
            elif warmup == "clear_caches":
                mgr.clear_caches()
                assert mgr.stats()["isop_entries"] == 0
            pairs = build_intervals(mgr, specs, WIDTH)
            assert isop_results(mgr, pairs) == expected
            # A second pass is served from the table, identically.
            hits = mgr.stats()["isop_hits"]
            assert isop_results(mgr, pairs) == expected
            assert mgr.stats()["isop_hits"] > hits
            if warmup == "flush":
                assert mgr.stats()["isop_entries"] <= 8
        finally:
            mgr.exit_solve()
        assert mgr.stats()["isop_entries"] == 0

    def test_table_is_empty_after_a_solve(self):
        relation = random_relation(5, 4, seed=3)
        mgr = relation.mgr
        before = mgr.stats()
        events = BrelSolver(BrelOptions(max_explored=30)).iter_events(
            relation)
        next(events)
        assert mgr.stats()["isop_entries"] > 0
        for _ in events:
            pass
        after = mgr.stats()
        assert after["isop_entries"] == 0
        assert after["isop_hits"] > before["isop_hits"]

    def test_sharded_blocks_share_the_solve_table(self):
        from repro.benchdata.brgen import block_structured_relation
        relation = block_structured_relation([(3, 2), (3, 2)], seed=3)
        mgr = relation.mgr
        entries = []
        kinds = []
        for event in BrelSolver(BrelOptions(max_explored=20)).iter_events(
                relation):
            kinds.append(event.kind)
            entries.append(mgr.stats()["isop_entries"])
        assert kinds[0] == "partition"
        # Once filled, the table stays open across every block until the
        # outer stream ends.
        first = next(i for i, size in enumerate(entries) if size)
        assert all(size > 0 for size in entries[first:])
        assert mgr.stats()["isop_entries"] == 0
