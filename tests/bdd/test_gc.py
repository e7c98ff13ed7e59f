"""Garbage collection and computed-table management of the BDD engine."""

from __future__ import annotations

import pytest

from repro.bdd import BddManager, FALSE, TRUE
from tests.conftest import bdd_from_tt, tt_from_bdd


def build_manager():
    return BddManager(["a", "b", "c", "d"])


class TestPinning:
    def test_pin_returns_node_and_counts(self):
        mgr = build_manager()
        f = mgr.and_(mgr.var(0), mgr.var(1))
        assert mgr.pin(f) == f
        assert mgr.pin_count(f) == 1
        mgr.pin(f)
        assert mgr.pin_count(f) == 2
        mgr.unpin(f)
        mgr.unpin(f)
        assert mgr.pin_count(f) == 0

    def test_unpin_unknown_raises(self):
        mgr = build_manager()
        with pytest.raises(ValueError):
            mgr.unpin(mgr.var(0))

    def test_pin_unknown_node_raises(self):
        mgr = build_manager()
        with pytest.raises(ValueError):
            mgr.pin(10_000)


class TestCollect:
    def test_collect_reclaims_garbage_and_remaps_pins(self):
        mgr = build_manager()
        variables = [0, 1, 2, 3]
        keep = mgr.and_(mgr.var(0), mgr.or_(mgr.var(1), mgr.var(2)))
        keep_tt = tt_from_bdd(mgr, variables, keep)
        mgr.pin(keep)
        # Plenty of dead intermediates.
        for table in range(40):
            bdd_from_tt(mgr, variables, table * 1103 % 65536)
        before = mgr.num_nodes
        mapping = mgr.collect()
        after = mgr.num_nodes
        assert after < before
        assert mgr.stats()["gc_runs"] == 1
        assert mgr.stats()["gc_reclaimed_nodes"] == before - after
        new_keep = mapping[keep]
        assert tt_from_bdd(mgr, variables, new_keep) == keep_tt
        assert mgr.pin_count(new_keep) == 1

    def test_collect_keeps_terminals_and_variables(self):
        mgr = build_manager()
        mgr.and_(mgr.var(0), mgr.var(1))  # garbage
        mapping = mgr.collect()
        assert mapping[FALSE] == FALSE
        assert mapping[TRUE] == TRUE
        for index in range(mgr.num_vars):
            node = mgr.var(index)
            assert mgr.level(node) == index
            assert mgr.low(node) == FALSE and mgr.high(node) == TRUE

    def test_collect_extra_roots_survive(self):
        mgr = build_manager()
        variables = [0, 1, 2, 3]
        f = bdd_from_tt(mgr, variables, 0xBEEF)
        tt = tt_from_bdd(mgr, variables, f)
        mapping = mgr.collect(extra_roots=[f])
        assert tt_from_bdd(mgr, variables, mapping[f]) == tt

    def test_collect_then_rebuild_is_consistent(self):
        """Hash-consing invariants hold across a collection."""
        mgr = build_manager()
        variables = [0, 1, 2, 3]
        f = bdd_from_tt(mgr, variables, 0x1234)
        tt = tt_from_bdd(mgr, variables, f)
        mapping = mgr.collect(extra_roots=[f])
        rebuilt = bdd_from_tt(mgr, variables, tt)
        # Same function, same manager => same node id (hash-consing).
        assert rebuilt == mapping[f]

    def test_unpinned_root_is_collected(self):
        mgr = build_manager()
        f = mgr.and_(mgr.var(0), mgr.and_(mgr.var(1), mgr.var(2)))
        mapping = mgr.collect()
        assert f not in mapping

    def test_size_memo_follows_collect(self):
        """Memoised sizes move with their nodes; reused ids start cold."""
        mgr = build_manager()
        variables = [0, 1, 2, 3]
        kept = bdd_from_tt(mgr, variables, 0x6996)
        dead = [bdd_from_tt(mgr, variables, tt) for tt in (0x1234, 0x8001)]
        sizes = {f: mgr.size(f) for f in [kept] + dead}
        mapping = mgr.collect(extra_roots=[kept])
        assert mgr.size(mapping[kept]) == sizes[kept]
        # New nodes take the collected ids over; none inherits a size.
        fresh = [bdd_from_tt(mgr, variables, tt)
                 for tt in (0x0F0F, 0x3C3C, 0x7777, 0x1248)]
        for f in fresh:
            assert mgr.size(f) == mgr.shared_size([f])
        mgr.release_caches()
        assert mgr.size(mapping[kept]) == sizes[kept]


class TestComputedTable:
    def test_cache_limit_bounds_entries(self):
        mgr = BddManager(["v%d" % i for i in range(10)], cache_limit=256)
        for table in range(60):
            bdd_from_tt(mgr, [0, 1, 2, 3], (table * 2654435761) % 65536)
        stats = mgr.stats()
        assert stats["cache_entries"] < 256
        assert stats["cache_flushes"] >= 1
        assert stats["cache_evictions"] > 0

    def test_invalid_cache_limit_rejected(self):
        with pytest.raises(ValueError):
            BddManager(cache_limit=0)
        with pytest.raises(ValueError):
            BddManager().set_cache_limit(-5)

    def test_set_cache_limit_rebounds(self):
        mgr = BddManager(["v%d" % i for i in range(10)])
        mgr.set_cache_limit(64)
        for table in range(40):
            bdd_from_tt(mgr, [0, 1, 2, 3], (table * 48271) % 65536)
        stats = mgr.stats()
        assert stats["cache_limit"] == 64
        assert stats["cache_entries"] < 64
        assert stats["cache_flushes"] >= 1

    def test_unbounded_cache_allowed(self):
        mgr = BddManager(["a", "b"], cache_limit=None)
        mgr.xor_(mgr.var(0), mgr.var(1))
        assert mgr.stats()["cache_limit"] is None
        assert mgr.stats()["cache_flushes"] == 0

    def test_hit_miss_counters(self):
        mgr = build_manager()
        # Non-literal operands so the literal fast path cannot bypass the
        # computed table.
        f = mgr.xor_(mgr.var(0), mgr.var(1))
        g = mgr.or_(mgr.var(1), mgr.var(2))
        mgr.and_(f, g)
        misses = mgr.stats()["cache_misses"]
        assert misses >= 1
        hits_before = mgr.stats()["cache_hits"]
        mgr.and_(f, g)  # same op: served from the computed table
        assert mgr.stats()["cache_hits"] == hits_before + 1
        assert mgr.stats()["cache_misses"] == misses

    def test_clear_caches_preserves_unique_table(self):
        mgr = build_manager()
        f = mgr.and_(mgr.var(0), mgr.var(1))
        nodes = mgr.num_nodes
        mgr.clear_caches()
        assert mgr.stats()["cache_entries"] == 0
        assert mgr.num_nodes == nodes
        assert mgr.and_(mgr.var(0), mgr.var(1)) == f


class TestStats:
    def test_stats_keys(self):
        mgr = build_manager()
        stats = mgr.stats()
        assert set(stats) == {
            "nodes", "peak_nodes", "num_vars", "unique_entries",
            "cache_entries", "cache_limit", "cache_hits", "cache_misses",
            "cache_evictions", "cache_flushes", "isop_entries",
            "isop_hits", "isop_misses", "pinned_nodes", "gc_runs",
            "gc_reclaimed_nodes"}

    def test_peak_nodes_survives_collect(self):
        mgr = build_manager()
        for table in range(30):
            bdd_from_tt(mgr, [0, 1, 2, 3], (table * 40503) % 65536)
        peak = mgr.stats()["peak_nodes"]
        mgr.collect()
        stats = mgr.stats()
        assert stats["peak_nodes"] >= peak
        assert stats["nodes"] < peak
