"""TableManager unit + protocol-conformance tests.

The bit-parallel kernel must be a drop-in :class:`FunctionBackend`:
same handle discipline (FALSE=0/TRUE=1, semantic equality == handle
equality), same structural view (level/low/high of the reduced BDD),
same fingerprints, same stats key set.  Parity here is checked against
a :class:`BddManager` holding the same functions.
"""

import random

import pytest

from repro.bdd import BACKEND_METHODS, BddManager, FunctionBackend, conforms
from repro.bdd.manager import FALSE, TRUE
from repro.table import MAX_TABLE_WIDTH, TableManager


def paired_managers(num_vars, seed, functions=6):
    """A BddManager and TableManager holding the same random functions."""
    rng = random.Random(seed)
    mgr = BddManager()
    tm = TableManager(max_width=num_vars)
    bdd_vars = mgr.add_vars(num_vars)
    table_vars = tm.add_vars(num_vars)
    pairs = []
    for _ in range(functions):
        minterms = [i for i in range(1 << num_vars)
                    if rng.random() < 0.5]
        pairs.append((mgr.from_minterms(bdd_vars, minterms),
                      tm.from_minterms(table_vars, minterms)))
    return mgr, tm, bdd_vars, table_vars, pairs


class TestConformance:
    def test_table_manager_satisfies_protocol(self):
        tm = TableManager(max_width=4)
        assert conforms(tm) == []
        assert isinstance(tm, FunctionBackend)

    def test_bdd_manager_satisfies_protocol(self):
        mgr = BddManager()
        assert conforms(mgr) == []
        assert isinstance(mgr, FunctionBackend)

    def test_backend_methods_is_the_shared_surface(self):
        # Every protocol method must exist on both engines.
        mgr, tm = BddManager(), TableManager(max_width=2)
        for name in BACKEND_METHODS:
            assert hasattr(mgr, name), name
            assert hasattr(tm, name), name

    def test_stats_key_parity(self):
        mgr, tm = BddManager(), TableManager(max_width=2)
        assert set(tm.stats()) == set(mgr.stats())


class TestConstruction:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            TableManager(max_width=0)
        with pytest.raises(ValueError):
            TableManager(max_width=MAX_TABLE_WIDTH + 1)
        assert TableManager().max_width == 12

    def test_add_var_past_width_raises(self):
        tm = TableManager(max_width=2)
        tm.add_vars(2)
        with pytest.raises(ValueError):
            tm.add_var()

    def test_terminals_and_var_names(self):
        tm = TableManager(["a", "b"], max_width=4)
        assert tm.num_vars == 2
        assert tm.var_name(0) == "a" and tm.var_name(1) == "b"
        assert tm.not_(FALSE) == TRUE and tm.not_(TRUE) == FALSE
        assert tm.nvar(0) == tm.not_(tm.var(0))

    def test_semantic_equality_is_handle_equality(self):
        tm = TableManager(max_width=3)
        a, b, c = tm.add_vars(3)
        left = tm.and_(tm.var(a), tm.or_(tm.var(b), tm.var(c)))
        right = tm.or_(tm.and_(tm.var(a), tm.var(b)),
                       tm.and_(tm.var(a), tm.var(c)))
        assert left == right  # distributivity, canonically interned


class TestAddVarWidening:
    def test_existing_handles_survive_add_var(self):
        """Widening must keep prior handles (and caches) semantically
        intact: the new variable is irrelevant to old functions."""
        tm = TableManager(max_width=4)
        a, b = tm.add_vars(2)
        f = tm.xor_(tm.var(a), tm.var(b))
        before = [tm.eval(f, {a: bool(i & 1), b: bool(i >> 1)})
                  for i in range(4)]
        fp_before = tm.fingerprint(f)
        c = tm.add_var()
        after = [tm.eval(f, {a: bool(i & 1), b: bool(i >> 1)})
                 for i in range(4)]
        assert before == after
        assert tm.fingerprint(f) == fp_before
        assert c not in tm.support(f)
        # The cached op result is still the canonical handle.
        assert tm.xor_(tm.var(a), tm.var(b)) == f


class TestStructuralView:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_level_low_high_match_bdd(self, seed):
        mgr, tm, bdd_vars, table_vars, pairs = paired_managers(5, seed)
        rank = {var: index for index, var in enumerate(bdd_vars)}
        stack = list(pairs)
        seen = set()
        while stack:
            f_b, f_t = stack.pop()
            if f_t in seen:
                continue
            seen.add(f_t)
            assert mgr.is_terminal(f_b) == tm.is_terminal(f_t)
            if tm.is_terminal(f_t):
                assert f_b == f_t  # shared FALSE/TRUE handles
                continue
            assert rank[mgr.level(f_b)] == tm.level(f_t)
            stack.append((mgr.low(f_b), tm.low(f_t)))
            stack.append((mgr.high(f_b), tm.high(f_t)))

    @pytest.mark.parametrize("seed", [21, 22])
    def test_size_support_fingerprint_parity(self, seed):
        mgr, tm, bdd_vars, table_vars, pairs = paired_managers(5, seed)
        rank = {var: index for index, var in enumerate(bdd_vars)}
        for f_b, f_t in pairs:
            assert tm.size(f_t) == mgr.size(f_b)
            assert tm.support(f_t) \
                == tuple(rank[v] for v in mgr.support(f_b))
            assert tm.fingerprint(f_t) == mgr.fingerprint(f_b)
            assert tm.support_fingerprint(f_t) \
                == mgr.support_fingerprint(f_b)
        bdd_nodes = [p[0] for p in pairs]
        table_nodes = [p[1] for p in pairs]
        assert tm.shared_size(table_nodes) == mgr.shared_size(bdd_nodes)
        assert tm.fingerprints(table_nodes) == mgr.fingerprints(bdd_nodes)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_minterms_and_compose_parity(self, seed):
        mgr, tm, bdd_vars, table_vars, pairs = paired_managers(4, seed)
        for f_b, f_t in pairs:
            assert list(tm.minterms(f_t, table_vars)) \
                == list(mgr.minterms(f_b, bdd_vars))
        g_b, g_t = pairs[0]
        h_b, h_t = pairs[1]
        composed_b = mgr.compose(g_b, bdd_vars[1], h_b)
        composed_t = tm.compose(g_t, table_vars[1], h_t)
        assert list(tm.minterms(composed_t, table_vars)) \
            == list(mgr.minterms(composed_b, bdd_vars))

    def test_cube_minterm_restrict(self):
        tm = TableManager(max_width=3)
        a, b, c = tm.add_vars(3)
        cube = tm.cube({a: True, b: False})
        assert tm.eval(cube, {a: True, b: False, c: False})
        assert not tm.eval(cube, {a: True, b: True, c: False})
        assert tm.minterm([a, b], 0b01) == tm.cube({a: True, b: False})
        f = tm.or_(tm.and_(tm.var(a), tm.var(c)), tm.var(b))
        assert tm.restrict_cube(f, {a: True, b: False}) == tm.var(c)

    def test_isop_delegates_to_shared_cover(self):
        """Covers must be cube-for-cube those of the protocol isop."""
        mgr, tm, bdd_vars, table_vars, pairs = paired_managers(4, 77)
        rank = {var: index for index, var in enumerate(bdd_vars)}
        for f_b, f_t in pairs:
            bdd_cover, bdd_node = mgr.isop(f_b, f_b)
            table_cover, table_node = tm.isop(f_t, f_t)
            # Same cover function (handles are manager-local).
            assert tm.fingerprint(table_node) == mgr.fingerprint(bdd_node)
            assert table_cover == [
                {rank[v]: p for v, p in cube.items()}
                for cube in bdd_cover]


class TestHousekeeping:
    def test_pin_collect_are_noops_with_stable_handles(self):
        tm = TableManager(max_width=3)
        a, b, _ = tm.add_vars(3)
        f = tm.and_(tm.var(a), tm.var(b))
        tm.pin(f)
        tm.unpin(f)
        tm.collect()
        assert tm.and_(tm.var(a), tm.var(b)) == f

    def test_cache_counters_move(self):
        tm = TableManager(max_width=3)
        a, b, _ = tm.add_vars(3)
        tm.and_(tm.var(a), tm.var(b))
        misses = tm.stats()["cache_misses"]
        tm.and_(tm.var(a), tm.var(b))
        stats = tm.stats()
        assert stats["cache_hits"] >= 1
        assert stats["cache_misses"] == misses
