"""Unit tests for the BDD manager core operations."""

from repro.bdd import FALSE, TRUE, BddManager

from ..conftest import bdd_from_tt, tt_from_bdd


class TestNodeConstruction:
    def test_terminals_are_fixed(self):
        mgr = BddManager()
        assert FALSE == 0
        assert TRUE == 1
        assert mgr.is_terminal(FALSE)
        assert mgr.is_terminal(TRUE)

    def test_variable_nodes_are_distinct(self):
        mgr = BddManager(["a", "b"])
        assert mgr.var(0) != mgr.var(1)
        assert mgr.var_name(0) == "a"
        assert mgr.var_name(1) == "b"

    def test_hash_consing_gives_unique_nodes(self):
        mgr = BddManager(["a", "b"])
        f1 = mgr.and_(mgr.var(0), mgr.var(1))
        f2 = mgr.and_(mgr.var(1), mgr.var(0))
        assert f1 == f2

    def test_reduction_removes_redundant_tests(self):
        mgr = BddManager(["a"])
        node = mgr.ite(mgr.var(0), TRUE, TRUE)
        assert node == TRUE

    def test_add_vars_names(self):
        mgr = BddManager()
        ids = mgr.add_vars(3, prefix="x")
        assert ids == [0, 1, 2]
        assert mgr.var_name(2) == "x2"

    def test_num_vars(self):
        mgr = BddManager(["a", "b", "c"])
        assert mgr.num_vars == 3


class TestConnectives:
    def test_and_constants(self):
        mgr = BddManager(["a"])
        a = mgr.var(0)
        assert mgr.and_(a, TRUE) == a
        assert mgr.and_(a, FALSE) == FALSE
        assert mgr.and_(a, a) == a

    def test_or_constants(self):
        mgr = BddManager(["a"])
        a = mgr.var(0)
        assert mgr.or_(a, FALSE) == a
        assert mgr.or_(a, TRUE) == TRUE

    def test_not_involution(self):
        mgr = BddManager(["a", "b"])
        f = mgr.xor_(mgr.var(0), mgr.var(1))
        assert mgr.not_(mgr.not_(f)) == f

    def test_xor_self_is_false(self):
        mgr = BddManager(["a", "b"])
        f = mgr.or_(mgr.var(0), mgr.var(1))
        assert mgr.xor_(f, f) == FALSE

    def test_xnor(self):
        mgr = BddManager(["a", "b"])
        f = mgr.xnor_(mgr.var(0), mgr.var(1))
        assert mgr.eval(f, {0: True, 1: True})
        assert mgr.eval(f, {0: False, 1: False})
        assert not mgr.eval(f, {0: True, 1: False})

    def test_ite_basis(self):
        mgr = BddManager(["a", "b", "c"])
        a, b, c = mgr.var(0), mgr.var(1), mgr.var(2)
        f = mgr.ite(a, b, c)
        # mux semantics: a ? b : c
        assert mgr.eval(f, {0: True, 1: True, 2: False})
        assert not mgr.eval(f, {0: True, 1: False, 2: True})
        assert mgr.eval(f, {0: False, 1: False, 2: True})

    def test_implies(self):
        mgr = BddManager(["a", "b"])
        ab = mgr.and_(mgr.var(0), mgr.var(1))
        assert mgr.implies(ab, mgr.var(0))
        assert not mgr.implies(mgr.var(0), ab)

    def test_diff(self):
        mgr = BddManager(["a", "b"])
        f = mgr.diff(mgr.var(0), mgr.var(1))
        assert mgr.eval(f, {0: True, 1: False})
        assert not mgr.eval(f, {0: True, 1: True})


class TestCofactorsQuantifiers:
    def test_cofactor_shannon_expansion(self):
        mgr = BddManager(["a", "b", "c"])
        f = bdd_from_tt(mgr, [0, 1, 2], 0b10010110)
        f0 = mgr.cofactor(f, 0, False)
        f1 = mgr.cofactor(f, 0, True)
        rebuilt = mgr.ite(mgr.var(0), f1, f0)
        assert rebuilt == f

    def test_cofactor_of_independent_var(self):
        mgr = BddManager(["a", "b"])
        f = mgr.var(1)
        assert mgr.cofactor(f, 0, True) == f

    def test_exists_definition(self):
        mgr = BddManager(["a", "b", "c"])
        f = bdd_from_tt(mgr, [0, 1, 2], 0b01100101)
        expected = mgr.or_(mgr.cofactor(f, 1, False), mgr.cofactor(f, 1, True))
        assert mgr.exists(f, [1]) == expected

    def test_forall_definition(self):
        mgr = BddManager(["a", "b", "c"])
        f = bdd_from_tt(mgr, [0, 1, 2], 0b01100101)
        expected = mgr.and_(mgr.cofactor(f, 1, False),
                            mgr.cofactor(f, 1, True))
        assert mgr.forall(f, [1]) == expected

    def test_exists_multiple_vars(self):
        mgr = BddManager(["a", "b", "c"])
        f = mgr.and_(mgr.var(0), mgr.and_(mgr.var(1), mgr.var(2)))
        assert mgr.exists(f, [0, 1, 2]) == TRUE

    def test_exists_no_vars_identity(self):
        mgr = BddManager(["a"])
        f = mgr.var(0)
        assert mgr.exists(f, []) == f

    def test_restrict_cube(self):
        mgr = BddManager(["a", "b", "c"])
        f = bdd_from_tt(mgr, [0, 1, 2], 0b10010110)
        g = mgr.restrict_cube(f, {0: True, 2: False})
        expected = mgr.cofactor(mgr.cofactor(f, 0, True), 2, False)
        assert g == expected


class TestComposePermute:
    def test_compose_substitutes(self):
        mgr = BddManager(["a", "b", "c"])
        f = mgr.xor_(mgr.var(0), mgr.var(1))
        g = mgr.and_(mgr.var(1), mgr.var(2))
        composed = mgr.compose(f, 0, g)
        # f[a := b&c] = (b&c) xor b
        for i in range(8):
            env = {j: bool((i >> j) & 1) for j in range(3)}
            expected = (env[1] and env[2]) != env[1]
            assert mgr.eval(composed, env) == expected

    def test_vector_compose_simultaneous(self):
        mgr = BddManager(["a", "b"])
        f = mgr.xor_(mgr.var(0), mgr.var(1))
        # Swap a and b simultaneously: result unchanged for xor.
        swapped = mgr.vector_compose(f, {0: mgr.var(1), 1: mgr.var(0)})
        assert swapped == f

    def test_vector_compose_not_sequential(self):
        mgr = BddManager(["a", "b"])
        f = mgr.and_(mgr.var(0), mgr.not_(mgr.var(1)))
        # a := b, b := a simultaneously gives b & ~a (sequential would differ).
        result = mgr.vector_compose(f, {0: mgr.var(1), 1: mgr.var(0)})
        expected = mgr.and_(mgr.var(1), mgr.not_(mgr.var(0)))
        assert result == expected

    def test_permute_roundtrip(self):
        mgr = BddManager(["a", "b", "c"])
        f = bdd_from_tt(mgr, [0, 1, 2], 0b01011010)
        g = mgr.permute(f, {0: 2, 2: 0})
        assert mgr.permute(g, {0: 2, 2: 0}) == f

    def test_swap_vars(self):
        mgr = BddManager(["a", "b"])
        f = mgr.and_(mgr.var(0), mgr.not_(mgr.var(1)))
        g = mgr.swap_vars(f, 0, 1)
        expected = mgr.and_(mgr.var(1), mgr.not_(mgr.var(0)))
        assert g == expected


class TestQueries:
    def test_support(self):
        mgr = BddManager(["a", "b", "c"])
        f = mgr.or_(mgr.var(0), mgr.var(2))
        assert mgr.support(f) == (0, 2)

    def test_support_constant(self):
        mgr = BddManager(["a"])
        assert mgr.support(TRUE) == ()

    def test_size_constants_zero(self):
        mgr = BddManager(["a"])
        assert mgr.size(TRUE) == 0
        assert mgr.size(FALSE) == 0

    def test_size_single_var(self):
        mgr = BddManager(["a"])
        assert mgr.size(mgr.var(0)) == 1

    def test_shared_size_counts_sharing_once(self):
        mgr = BddManager(["a", "b"])
        f = mgr.and_(mgr.var(0), mgr.var(1))
        assert mgr.shared_size([f, f]) == mgr.size(f)

    def test_sat_count_simple(self):
        mgr = BddManager(["a", "b", "c"])
        f = mgr.var(1)  # top level skipped
        assert mgr.sat_count(f, [0, 1, 2]) == 4

    def test_sat_count_exhaustive(self):
        mgr = BddManager(["a", "b", "c"])
        for table in (0, 1, 0b10010110, 0b11111111, 0b10000000):
            f = bdd_from_tt(mgr, [0, 1, 2], table)
            assert mgr.sat_count(f, [0, 1, 2]) == bin(table).count("1")

    def test_eval_terminal(self):
        mgr = BddManager(["a"])
        assert mgr.eval(TRUE, {}) is True
        assert mgr.eval(FALSE, {}) is False


class TestCubesMinterm:
    def test_cube_builds_conjunction(self):
        mgr = BddManager(["a", "b", "c"])
        cube = mgr.cube({0: True, 2: False})
        expected = mgr.and_(mgr.var(0), mgr.not_(mgr.var(2)))
        assert cube == expected

    def test_empty_cube_is_true(self):
        mgr = BddManager(["a"])
        assert mgr.cube({}) == TRUE

    def test_minterm_encoding(self):
        mgr = BddManager(["a", "b"])
        node = mgr.minterm([0, 1], 0b10)  # a=0, b=1
        assert mgr.eval(node, {0: False, 1: True})
        assert not mgr.eval(node, {0: True, 1: True})

    def test_from_minterms_roundtrip(self):
        mgr = BddManager(["a", "b", "c"])
        values = [0, 3, 5, 6]
        node = mgr.from_minterms([0, 1, 2], values)
        assert sorted(mgr.minterms(node, [0, 1, 2])) == values

    def test_minterms_of_true(self):
        mgr = BddManager(["a", "b"])
        assert sorted(mgr.minterms(TRUE, [0, 1])) == [0, 1, 2, 3]

    def test_minterms_of_false_empty(self):
        mgr = BddManager(["a", "b"])
        assert list(mgr.minterms(FALSE, [0, 1])) == []

    def test_tt_roundtrip(self):
        mgr = BddManager(["a", "b", "c", "d"])
        table = 0x5AF0
        node = bdd_from_tt(mgr, [0, 1, 2, 3], table)
        assert tt_from_bdd(mgr, [0, 1, 2, 3], node) == table
