"""MemoStore unit behaviour, signatures, templates, and the satellite
regressions (cached ``Isf.upper``, once-per-construction ``mode``
deprecation)."""

import warnings

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.core import (BooleanRelation, BrelOptions, Isf, MemoStore,
                        minimize_isop, minimizer_memo_key, quick_solve,
                        solve_misf)
from repro.core.memo import (instantiate_cover, instantiate_solution,
                             solution_template, template_from_var_cover,
                             var_cover_from_template)
from repro.core.minimize import minimize_restrict


def fig1_relation(mgr=None):
    rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
    return BooleanRelation.from_output_sets(rows, 2, 2, mgr=mgr)


class TestMemoStore:
    def test_get_put_and_counters(self):
        store = MemoStore(capacity=8)
        assert store.get("a") is None
        store.put("a", 1)
        assert store.get("a") == 1
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)
        assert len(store) == 1 and "a" in store

    def test_lru_eviction_order(self):
        store = MemoStore(capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1       # refresh "a"; "b" is now LRU
        store.put("c", 3)                # evicts "b"
        assert "b" not in store
        assert "a" in store and "c" in store
        assert store.evictions == 1

    def test_put_refresh_does_not_grow(self):
        store = MemoStore(capacity=4)
        store.put("a", 1)
        store.put("a", 2)
        assert len(store) == 1 and store.get("a") == 2
        assert store.stores == 1  # refresh is not a new store

    def test_capacity_validation_and_unbounded(self):
        with pytest.raises(ValueError):
            MemoStore(capacity=0)
        store = MemoStore(capacity=None)
        for index in range(5000):
            store.put(index, index)
        assert len(store) == 5000

    def test_trim_evicts_lru_down_to_target(self):
        store = MemoStore(capacity=100)
        for index in range(10):
            store.put(index, index)
        store.get(0)  # 0 becomes most recent
        evicted = store.trim(target=2)
        assert evicted == 8 and len(store) == 2
        assert 0 in store and 9 in store

    def test_stats_shape_and_hit_rate(self):
        store = MemoStore()
        stats = store.stats()
        assert stats["hit_rate"] == 0.0
        store.put("a", 1)
        store.get("a")
        store.get("missing")
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_export_seed_round_trip(self):
        store = MemoStore()
        for index in range(6):
            store.put(("k", index), index * 10)
        entries = store.export_entries(limit=4)
        assert len(entries) == 4
        assert entries[-1] == (("k", 5), 50)  # most recent last
        seeded = MemoStore(entries=entries)
        assert len(seeded) == 4
        assert seeded.stores == 0  # seeding is not counted as stores
        assert seeded.get(("k", 5)) == 50

    def test_absorb_counters(self):
        store = MemoStore()
        store.absorb_counters(hits=3, misses=2, stores=1)
        assert (store.hits, store.misses, store.stores) == (3, 2, 1)

    def test_clear_keeps_counters(self):
        store = MemoStore()
        store.put("a", 1)
        store.get("a")
        store.clear()
        assert len(store) == 0
        assert store.hits == 1 and store.stores == 1

    def test_take_learned_returns_puts_not_seeds(self):
        store = MemoStore(entries=[("seeded", 0)])
        store.put("a", 1)
        store.put("b", 2)
        store.get("seeded")  # a hit is not learning
        store.put("a", 3)    # re-learning makes "a" the newest
        assert store.take_learned() == [("b", 2), ("a", 3)]
        assert store.take_learned() == []  # the take drained the log
        assert len(store) == 3

    def test_take_learned_limit_keeps_newest(self):
        store = MemoStore()
        for index in range(5):
            store.put(index, index)
        assert store.take_learned(limit=2) == [(3, 3), (4, 4)]
        assert store.take_learned(limit=2) == []

    def test_learned_log_follows_evictions_trim_and_clear(self):
        store = MemoStore(capacity=2)
        for key in "abc":
            store.put(key, key)  # "a" is evicted
        assert store.take_learned() == [("b", "b"), ("c", "c")]
        store = MemoStore(capacity=10)
        for index in range(6):
            store.put(index, index)
        store.trim(target=2)
        assert store.take_learned() == [(4, 4), (5, 5)]
        store.put("x", 1)
        store.clear()
        assert store.take_learned() == []
        store = MemoStore(capacity=2)
        store.put("mine", 1)
        store.seed([("s1", 1), ("s2", 2)])  # seeding evicts "mine"
        assert store.take_learned() == []


class TestSignatures:
    def test_relation_signature_shift_invariant(self):
        base = fig1_relation()
        mgr = BddManager(["p", "x0", "x1", "y0", "y1"])
        rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
        shifted = BooleanRelation.from_output_sets(
            [rows[value >> 1] for value in range(8)], 3, 2, mgr=mgr)
        sig_a, sig_b = base.signature(), shifted.signature()
        assert sig_a.key == sig_b.key
        assert sig_a.support != sig_b.support

    def test_relation_signature_distinguishes_output_roles(self):
        """Functional relations for (f0=x, f1=~x) vs (f0=~x, f1=x) must
        not collide: output positions are part of the identity."""
        mgr = BddManager(["x", "y0", "y1"])
        x = mgr.var(0)
        forward = BooleanRelation.from_functions(
            mgr, [0], [1, 2], [x, mgr.not_(x)])
        swapped = BooleanRelation.from_functions(
            mgr, [0], [1, 2], [mgr.not_(x), x])
        assert forward.signature().key != swapped.signature().key

    def test_relation_signature_cached_and_frame_guard(self):
        relation = fig1_relation()
        assert relation.signature() is relation.signature()
        # A node mentioning a variable outside the frame is unmemoisable.
        mgr = BddManager(["x", "y", "extra"])
        rogue = BooleanRelation(mgr, [0], [1],
                                mgr.and_(mgr.var(1), mgr.var(2)))
        assert rogue.signature() is None

    def test_isf_signature_shift_invariant(self):
        mgr = BddManager(["a", "b", "c"])
        low = Isf(mgr, mgr.var(0), FALSE, (0,))
        high = Isf(mgr, mgr.var(2), FALSE, (2,))
        assert low.signature().key == high.signature().key
        mixed = Isf(mgr, mgr.var(0),
                    mgr.and_(mgr.var(1), mgr.not_(mgr.var(0))), (0, 1))
        assert mixed.signature().key != low.signature().key


class TestWideSupportKeys:
    """Supports past 64 variables fold their rank masks to 64 bits; two
    different functions on one support must still get different keys,
    or the memo serves one for the other."""

    def pair(self):
        mgr = BddManager(["v%d" % i for i in range(200)])
        var = mgr.var
        high = TRUE
        for index in range(1, 200):
            high = mgr.and_(high, var(index))
        # The low children differ by a shift of 64 ranks.
        first = mgr.ite(var(0), high, mgr.and_(var(1), var(65)))
        second = mgr.ite(var(0), high, mgr.and_(var(65), var(129)))
        return mgr, first, second

    def test_signatures_differ(self):
        mgr, first, second = self.pair()
        assert first != second
        assert mgr.node_signature(first)[0] \
            == mgr.node_signature(second)[0]
        assert mgr.node_signature(first) != mgr.node_signature(second)

    def test_memoised_minimisation_keeps_each_interval(self):
        from repro.core.minimize import minimize_with_cover
        mgr, first, second = self.pair()
        inputs = tuple(range(200))
        store = MemoStore()
        for node in (first, second):
            result, _, _ = minimize_with_cover(
                Isf(mgr, node, FALSE, inputs), minimize_isop, store,
                "isop")
            assert result == node
        assert store.counters() == (0, 2, 2)


class TestTemplates:
    def test_solution_template_round_trip(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        sig = relation.signature()
        template = solution_template(relation.mgr, solution.functions,
                                     sig.support)
        rebuilt = instantiate_solution(relation.mgr, template, sig.support)
        assert rebuilt == tuple(solution.functions)

    def test_template_instantiates_across_managers(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        sig = relation.signature()
        template = solution_template(relation.mgr, solution.functions,
                                     sig.support)
        other = fig1_relation()  # fresh manager, same layout
        rebuilt = instantiate_solution(other.mgr, template,
                                       other.signature().support)
        fresh = quick_solve(other)
        assert rebuilt == tuple(fresh.functions)

    def test_var_cover_conversions_invert(self):
        support = (3, 5, 8)
        template = (((0, True), (2, False)), ((1, False),), ())
        var_cover = var_cover_from_template(template, support)
        rank_of_var = {var: rank for rank, var in enumerate(support)}
        assert template_from_var_cover(var_cover, rank_of_var) == template

    def test_constant_cover_round_trip(self):
        mgr = BddManager(["a"])
        assert instantiate_cover(mgr, (), ()) == FALSE
        assert instantiate_cover(mgr, ((),), ()) == TRUE


class TestMemoisedEntryPoints:
    def test_quick_solve_memo_round_trip(self):
        relation = fig1_relation()
        plain = quick_solve(relation)
        store = MemoStore()
        cold = quick_solve(relation, memo=store)
        warm = quick_solve(relation, memo=store)
        assert plain.functions == cold.functions == warm.functions
        assert plain.cost == cold.cost == warm.cost
        assert store.hits > 0

    def test_quick_solve_output_order_keys_separately(self):
        relation = fig1_relation()
        store = MemoStore()
        default = quick_solve(relation, memo=store)
        reordered = quick_solve(relation, output_order=[1, 0], memo=store)
        assert reordered.functions == quick_solve(
            relation, output_order=[1, 0]).functions
        assert default.functions == quick_solve(relation).functions

    def test_solve_misf_memoises_components(self):
        relation = fig1_relation()
        store = MemoStore()
        fresh = solve_misf(relation.misf())
        cold = solve_misf(relation.misf(), memo=store)
        warm = solve_misf(relation.misf(), memo=store)
        assert fresh == cold == warm
        assert store.hits > 0

    def test_custom_minimizer_bypasses_store(self):
        def custom(isf):
            return minimize_isop(isf)

        assert minimizer_memo_key(custom) is None
        assert minimizer_memo_key(minimize_isop) == "isop"
        assert minimizer_memo_key(minimize_restrict) == "restrict"
        relation = fig1_relation()
        store = MemoStore()
        solution = quick_solve(relation, minimizer=custom, memo=store)
        assert solution.functions == quick_solve(relation).functions
        assert len(store) == 0  # nothing was stored


class TestIsfUpperCache:
    def test_repeated_upper_access_is_engine_free(self):
        """Satellite regression: ``upper`` is computed once per ISF;
        repeated access must not issue manager operations at all."""
        mgr = BddManager(["a", "b", "c"])
        isf = Isf(mgr, mgr.and_(mgr.var(0), mgr.var(1)),
                  mgr.and_(mgr.var(1), mgr.not_(mgr.var(0))), (0, 1, 2))
        first = isf.upper
        before = mgr.stats()
        for _ in range(50):
            assert isf.upper == first
        after = mgr.stats()
        assert after["cache_hits"] == before["cache_hits"]
        assert after["cache_misses"] == before["cache_misses"]
        assert after["nodes"] == before["nodes"]

    def test_upper_still_correct(self):
        mgr = BddManager(["a", "b"])
        isf = Isf(mgr, mgr.var(0), mgr.and_(mgr.var(1),
                                            mgr.not_(mgr.var(0))), (0, 1))
        assert isf.upper == mgr.or_(isf.on, isf.dc)
        assert isf.off == mgr.not_(isf.upper)


class TestMemoOptionValidation:
    def test_memo_tristate_accepts_only_bools_and_none(self):
        for good in (None, True, False):
            assert BrelOptions(memo=good).memo is good
        # 0/1 satisfy equality with False/True but fail the identity
        # checks the solver makes; they must be rejected eagerly.
        for bad in (0, 1, "yes"):
            with pytest.raises(ValueError, match="memo must be"):
                BrelOptions(memo=bad)


class TestModeDeprecation:
    def test_options_mode_warns_exactly_once_per_construction(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            BrelOptions(mode="dfs")
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "mode" in str(deprecations[0].message)

    def test_default_mode_never_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            BrelOptions()
            BrelOptions(strategy="dfs")
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]

    def test_strategy_wins_when_both_given(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            options = BrelOptions(mode="dfs", strategy="bfs")
        assert options.exploration_strategy() == "bfs"
        assert len([w for w in caught
                    if issubclass(w.category, DeprecationWarning)]) == 1


class TestJsonWireFormat:
    """The disk-tier wire format: entries survive JSON serialisation."""

    def round_trip(self, entries):
        import json

        from repro.core.memo import (entries_from_jsonable,
                                     entries_to_jsonable)
        text = json.dumps(entries_to_jsonable(entries))
        return entries_from_jsonable(json.loads(text))

    def test_synthetic_entries_round_trip_losslessly(self):
        entries = [
            (("quick", ("sig", 3, True), "isop"), ((1, True), (2, False))),
            (("eval", ("s",), "restrict", (1, 0)), 7),
            (("isf", (None, "x"), "isop"), (((0, False),), True)),
        ]
        assert self.round_trip(entries) == entries

    def test_real_solve_templates_round_trip(self):
        """Templates learned from a real solve, pushed through JSON and
        seeded into a fresh store, replay as hits with byte-identical
        results in a brand-new manager."""
        import json

        relation = fig1_relation()
        store = MemoStore()
        original = quick_solve(relation, memo=store)
        assert store.stores > 0
        revived = MemoStore(entries=self.round_trip(
            store.export_entries()))
        # Same content, new manager: only the wire entries are shared.
        fresh = fig1_relation()
        replayed = quick_solve(fresh, memo=revived)
        assert replayed.describe() == original.describe()
        assert replayed.cost == original.cost
        assert revived.hits > 0 and revived.misses == 0

    def test_capacity_bounded_export_keeps_most_recent(self):
        store = MemoStore()
        for index in range(10):
            store.put(("k", index), index)
        wired = self.round_trip(store.export_entries(limit=3))
        assert wired == [(("k", 7), 7), (("k", 8), 8), (("k", 9), 9)]
        bounded = MemoStore(capacity=2, entries=wired)
        assert len(bounded) == 2  # seeding respects the store's bound
        assert bounded.get(("k", 9)) == 9

    def test_stale_and_malformed_rows_are_skipped(self):
        from repro.core.memo import entries_from_jsonable
        data = [
            [["quick", ["sig"], "isop"], [[1, True]]],  # good
            ["not-a-pair"],                             # wrong arity
            "garbage",                                  # wrong shape
            [["eval", ["s"], "isop"], 4, "extra"],      # wrong arity
            [["eval", ["s2"], "isop"], 9],              # good
        ]
        entries = entries_from_jsonable(data)
        assert entries == [(("quick", ("sig",), "isop"), ((1, True),)),
                           (("eval", ("s2",), "isop"), 9)]

    def test_unknown_keys_tolerated_by_store(self):
        """Entries from a future/other version never hit, but they also
        never break the store: they just age out via LRU."""
        store = MemoStore(capacity=4, entries=[
            (("future-kind", ("whatever", 9)), "opaque")])
        relation = fig1_relation()
        solution = quick_solve(relation, memo=store)
        assert solution.functions == quick_solve(relation).functions
