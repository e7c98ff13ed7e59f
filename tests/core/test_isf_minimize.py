"""Tests for ISF/MISF containers and the ISF minimiser registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BddManager
from repro.core import (BooleanRelation, Isf, MINIMIZERS, Misf,
                        eliminate_nonessential_variables, get_minimizer,
                        minimize_exact_cubes, minimize_isop,
                        minimizer_memo_key, quick_solve, solve_misf)
from repro.core.minimize import minimize_restrict

from ..conftest import bdd_from_tt

VARS = [0, 1, 2]
tt8 = st.integers(min_value=0, max_value=255)


def fresh_mgr():
    return BddManager(["a", "b", "c"])


def make_isf(mgr, on_tt, dc_tt):
    dc_tt &= ~on_tt & 255
    return Isf(mgr, bdd_from_tt(mgr, VARS, on_tt),
               bdd_from_tt(mgr, VARS, dc_tt), tuple(VARS))


class TestIsfBasics:
    def test_overlapping_on_dc_rejected(self):
        mgr = fresh_mgr()
        a = mgr.var(0)
        with pytest.raises(ValueError):
            Isf(mgr, a, a, (0,))

    def test_interval_endpoints(self):
        mgr = fresh_mgr()
        isf = make_isf(mgr, 0b00001111, 0b00110000)
        assert isf.upper == mgr.or_(isf.on, isf.dc)
        assert mgr.and_(isf.off, isf.upper) == FALSE

    def test_from_interval_roundtrip(self):
        mgr = fresh_mgr()
        lower = bdd_from_tt(mgr, VARS, 0b00001111)
        upper = bdd_from_tt(mgr, VARS, 0b00111111)
        isf = Isf.from_interval(mgr, lower, upper, VARS)
        assert isf.on == lower
        assert isf.upper == upper

    def test_from_interval_invalid(self):
        mgr = fresh_mgr()
        with pytest.raises(ValueError):
            Isf.from_interval(mgr, TRUE, mgr.var(0), VARS)

    def test_admits(self):
        mgr = fresh_mgr()
        isf = make_isf(mgr, 0b00001111, 0b11110000)
        assert isf.admits(isf.on)
        assert isf.admits(isf.upper)
        assert isf.admits(TRUE)

    def test_completely_specified(self):
        mgr = fresh_mgr()
        assert make_isf(mgr, 0b1010, 0).is_completely_specified
        assert not make_isf(mgr, 0b1010, 0b0101).is_completely_specified

    def test_value_at(self):
        mgr = fresh_mgr()
        isf = make_isf(mgr, 0b00000010, 0b00000100)
        assert isf.value_at({0: True, 1: False, 2: False}) == "1"
        assert isf.value_at({0: False, 1: True, 2: False}) == "-"
        assert isf.value_at({0: False, 1: False, 2: False}) == "0"


class TestMisf:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            Misf([])

    def test_shared_manager_enforced(self):
        m1, m2 = fresh_mgr(), fresh_mgr()
        with pytest.raises(ValueError):
            Misf([make_isf(m1, 1, 0), make_isf(m2, 1, 0)])

    def test_admits_vector(self):
        mgr = fresh_mgr()
        misf = Misf([make_isf(mgr, 0b1010, 0b0101),
                     make_isf(mgr, 0b1100, 0)])
        functions = solve_misf(misf)
        assert misf.admits(functions)

    def test_admits_arity_check(self):
        mgr = fresh_mgr()
        misf = Misf([make_isf(mgr, 0b1010, 0)])
        with pytest.raises(ValueError):
            misf.admits([TRUE, TRUE])


class TestNonessentialElimination:
    def test_removes_redundant_variable(self):
        mgr = fresh_mgr()
        # ON = a&b, DC = a&~b: b is non-essential (interval contains "a").
        on = mgr.and_(mgr.var(0), mgr.var(1))
        dc = mgr.and_(mgr.var(0), mgr.not_(mgr.var(1)))
        isf = Isf(mgr, on, dc, (0, 1, 2))
        reduced = eliminate_nonessential_variables(isf)
        assert 1 not in mgr.support(reduced.on)
        assert 1 not in mgr.support(reduced.upper)
        assert reduced.on == mgr.var(0)

    def test_keeps_essential_variables(self):
        mgr = fresh_mgr()
        on = mgr.xor_(mgr.var(0), mgr.var(1))
        isf = Isf(mgr, on, FALSE, (0, 1, 2))
        reduced = eliminate_nonessential_variables(isf)
        assert reduced.on == on


class TestRegistry:
    def test_all_names_resolve(self):
        for name in MINIMIZERS:
            assert get_minimizer(name) is MINIMIZERS[name]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_minimizer("quantum")

    def test_exact_guard(self):
        # ON = parity(5), DC = complement minus one point: no variable is
        # non-essential and the DC count (15) exceeds the exhaustive bound.
        mgr = BddManager(["v%d" % i for i in range(5)])
        parity = FALSE
        for i in range(5):
            parity = mgr.xor_(parity, mgr.var(i))
        dc = mgr.diff(mgr.not_(parity), mgr.minterm(list(range(5)), 0))
        isf = Isf(mgr, parity, dc, tuple(range(5)))
        with pytest.raises(ValueError):
            minimize_exact_cubes(isf)

    def test_builtin_minimizers_are_named_and_custom_ones_are_not(self):
        def custom(isf):
            return minimize_isop(isf)

        assert minimizer_memo_key(custom) is None
        assert minimizer_memo_key(minimize_isop) == "isop"
        assert minimizer_memo_key(minimize_restrict) == "restrict"
        # A custom minimiser gets its ISFs as nodes and lands on the
        # same solution as the built-in it wraps.
        relation = BooleanRelation.from_output_sets(
            [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
        assert quick_solve(relation, minimizer=custom).functions \
            == quick_solve(relation).functions


class TestIsfUpperCache:
    def test_repeated_upper_access_is_engine_free(self):
        """``upper`` is computed once per ISF; repeated access must not
        issue manager operations at all."""
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


@given(tt8, tt8)
@settings(max_examples=40, deadline=None)
def test_all_minimizers_return_implementations(on_tt, dc_tt):
    mgr = fresh_mgr()
    isf = make_isf(mgr, on_tt, dc_tt)
    for name, minimizer in MINIMIZERS.items():
        impl = minimizer(isf)
        assert mgr.implies(isf.on, impl), name
        assert mgr.implies(impl, isf.upper), name


@given(tt8, tt8)
@settings(max_examples=40, deadline=None)
def test_elimination_preserves_interval_validity(on_tt, dc_tt):
    mgr = fresh_mgr()
    isf = make_isf(mgr, on_tt, dc_tt)
    reduced = eliminate_nonessential_variables(isf)
    # The reduced interval is contained in the original one.
    assert mgr.implies(isf.on, reduced.on)
    assert mgr.implies(reduced.upper, isf.upper)
    assert mgr.implies(reduced.on, reduced.upper)
