"""Randomized differential suite: engines vs brute-force truth.

Every operation of the rewritten explicit-stack engine — apply
(and/or/xor/diff), ite, cofactor and the quantifiers — is checked against
direct truth-table evaluation over *all* assignments, on seeded random
relations from :mod:`repro.benchdata.brgen` with up to 6+6 variables.

The same seeded cases also drive the bit-parallel table kernel
(:class:`repro.table.TableManager`), on relations rebuilt there: every
operation is compared **three ways** (BDD engine vs table kernel vs
brute force), and full solver runs on the two engines must agree
bit-for-bit.
"""

from __future__ import annotations

import random

import pytest

from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver

from ..conftest import table_relation

#: (num_inputs, num_outputs, seed) per differential round.
CASES = [
    (3, 3, 1),
    (4, 4, 2),
    (5, 5, 3),
    (6, 6, 4),
    (6, 6, 5),
]

#: Engine modes: "hybrid" is the default dispatch (small managers take
#: the bounded recursive twins); "iterative" forces every operation onto
#: the explicit-stack engine, which small managers never reach naturally
#: (the iterative floor only activates past MAX_RECURSIVE_LEVELS vars).
MODES = ("hybrid", "iterative")


def set_engine_mode(mgr, mode):
    if mode == "iterative":
        # A floor above every level means no operation qualifies for the
        # recursive twins — all walks run on the explicit stacks.
        mgr._iter_floor = mgr.num_vars + 1


def case_params():
    return [case + (mode,) for case in CASES for mode in MODES]


def function_pool(relation):
    """Assorted engine-produced functions living in one manager."""
    mgr = relation.mgr
    pool = [relation.node, relation.misf_relation().node]
    for position in range(min(3, len(relation.outputs))):
        isf = relation.project(position)
        pool.extend([isf.on, isf.upper])
    pool.extend(mgr.var(v) for v in relation.inputs[:2])
    return [node for node in set(pool)]


def truth_table(mgr, node, variables):
    """Bitmask truth table: bit i == value under assignment encoded by i."""
    table = 0
    for i in range(1 << len(variables)):
        assignment = {var: bool((i >> j) & 1)
                      for j, var in enumerate(variables)}
        if mgr.eval(node, assignment):
            table |= 1 << i
    return table


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_apply_and_ite_match_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    full = (1 << (1 << len(variables))) - 1
    pool = function_pool(relation)
    tt = {node: truth_table(mgr, node, variables) for node in pool}
    rng = random.Random(seed)
    for _ in range(12):
        f, g, h = (rng.choice(pool) for _ in range(3))
        assert truth_table(mgr, mgr.and_(f, g), variables) == tt[f] & tt[g]
        assert truth_table(mgr, mgr.or_(f, g), variables) == tt[f] | tt[g]
        assert truth_table(mgr, mgr.xor_(f, g), variables) == tt[f] ^ tt[g]
        assert truth_table(mgr, mgr.diff(f, g), variables) == \
            tt[f] & (full ^ tt[g])
        assert truth_table(mgr, mgr.not_(f), variables) == full ^ tt[f]
        expected_ite = (tt[f] & tt[g]) | ((full ^ tt[f]) & tt[h])
        assert truth_table(mgr, mgr.ite(f, g, h), variables) == expected_ite
        assert mgr.implies(f, g) == (tt[f] & ~tt[g] == 0)


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_quantifiers_match_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    pool = function_pool(relation)
    rng = random.Random(100 + seed)

    def brute_quant(table, quantified, universal):
        result = 0
        n = len(variables)
        free = [j for j in range(n) if variables[j] not in quantified]
        qpos = [j for j in range(n) if variables[j] in quantified]
        for i in range(1 << n):
            values = []
            for combo in range(1 << len(qpos)):
                k = i
                for bit, j in enumerate(qpos):
                    k = (k & ~(1 << j)) | (((combo >> bit) & 1) << j)
                values.append((table >> k) & 1)
            bit = all(values) if universal else any(values)
            if bit:
                result |= 1 << i
        return result

    for _ in range(6):
        f = rng.choice(pool)
        table = truth_table(mgr, f, variables)
        quantified = rng.sample(variables, rng.randint(1, 3))
        assert truth_table(mgr, mgr.exists(f, quantified), variables) == \
            brute_quant(table, set(quantified), universal=False)
        assert truth_table(mgr, mgr.forall(f, quantified), variables) == \
            brute_quant(table, set(quantified), universal=True)


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_cofactors_match_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    pool = function_pool(relation)
    rng = random.Random(200 + seed)
    for _ in range(6):
        f = rng.choice(pool)
        table = truth_table(mgr, f, variables)
        var = rng.choice(variables)
        j = variables.index(var)
        for value in (False, True):
            restricted = mgr.cofactor(f, var, value)
            expected = 0
            for i in range(1 << len(variables)):
                k = (i | (1 << j)) if value else (i & ~(1 << j))
                if (table >> k) & 1:
                    expected |= 1 << i
            assert truth_table(mgr, restricted, variables) == expected


# ---------------------------------------------------------------------------
# Table kernel: three-way differential (BDD vs table vs brute force)
# ---------------------------------------------------------------------------

def table_pool(relation, table):
    """Matched (bdd_node, table_node) pairs for the rebuilt relation."""
    pairs = [(relation.node, table.node)]
    for position in range(min(3, len(relation.outputs))):
        bdd_isf = relation.project(position)
        table_isf = table.project(position)
        pairs.append((bdd_isf.on, table_isf.on))
        pairs.append((bdd_isf.upper, table_isf.upper))
    return pairs


@pytest.mark.parametrize("num_inputs,num_outputs,seed", CASES)
def test_table_kernel_three_way(num_inputs, num_outputs, seed):
    """Each op on the table kernel == the BDD engine == brute force."""
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    table = table_relation(relation)
    tm = table.mgr
    variables = list(relation.inputs) + list(relation.outputs)
    n = len(variables)
    full = (1 << (1 << n)) - 1
    pairs = table_pool(relation, table)
    # Node-for-node: the table kernel's raw mask must equal the truth
    # table the BDD engine evaluates to (frame order == var order).
    for bdd_node, table_node in pairs:
        assert tm.table(table_node) == truth_table(mgr, bdd_node, variables)
    rng = random.Random(1000 + seed)
    for _ in range(8):
        (f_b, f_t), (g_b, g_t), (h_b, h_t) = (rng.choice(pairs)
                                              for _ in range(3))
        tf, tg = tm.table(f_t), tm.table(g_t)
        for name, t_res, b_res, brute in (
                ("and", tm.and_(f_t, g_t), mgr.and_(f_b, g_b), tf & tg),
                ("or", tm.or_(f_t, g_t), mgr.or_(f_b, g_b), tf | tg),
                ("xor", tm.xor_(f_t, g_t), mgr.xor_(f_b, g_b), tf ^ tg),
                ("diff", tm.diff(f_t, g_t), mgr.diff(f_b, g_b),
                 tf & (full ^ tg)),
                ("not", tm.not_(f_t), mgr.not_(f_b), full ^ tf),
                ("ite", tm.ite(f_t, g_t, h_t), mgr.ite(f_b, g_b, h_b),
                 (tf & tg) | ((full ^ tf) & tm.table(h_t)))):
            assert tm.table(t_res) == brute, name
            assert tm.table(t_res) == truth_table(mgr, b_res,
                                                  variables), name
        assert tm.implies(f_t, g_t) == mgr.implies(f_b, g_b) \
            == (tf & ~tg == 0)
        # Structural/semantic accessors agree across backends.
        assert tm.size(f_t) == mgr.size(f_b)
        assert tm.sat_count(f_t, range(n)) == mgr.sat_count(f_b, variables)


@pytest.mark.parametrize("num_inputs,num_outputs,seed", CASES)
def test_table_quantifiers_and_cofactors_three_way(num_inputs,
                                                   num_outputs, seed):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    table = table_relation(relation)
    tm = table.mgr
    variables = list(relation.inputs) + list(relation.outputs)
    pairs = table_pool(relation, table)
    rng = random.Random(2000 + seed)
    for _ in range(6):
        f_b, f_t = rng.choice(pairs)
        rank = rng.randrange(len(variables))
        var = variables[rank]
        for value in (False, True):
            assert tm.table(tm.cofactor(f_t, rank, value)) \
                == truth_table(mgr, mgr.cofactor(f_b, var, value),
                               variables)
        assert tm.table(tm.exists(f_t, [rank])) \
            == truth_table(mgr, mgr.exists(f_b, [var]), variables)
        assert tm.table(tm.forall(f_t, [rank])) \
            == truth_table(mgr, mgr.forall(f_b, [var]), variables)
        # ISOP covers are cube-for-cube identical modulo the rank
        # renaming (both delegate to the shared protocol-level isop).
        rename = {var: rank for rank, var in enumerate(variables)}
        bdd_cover, _ = mgr.isop(f_b, f_b)
        table_cover, _ = tm.isop(f_t, f_t)
        assert [{rename[v]: p for v, p in cube.items()}
                for cube in bdd_cover] == table_cover


# ---------------------------------------------------------------------------
# Full-solve parity across engines
# ---------------------------------------------------------------------------

def solution_tables(relation, solution):
    """Per-output truth tables of a solution, over the relation inputs."""
    inputs = list(relation.inputs)
    return [tuple(solution.mgr.minterms(func, inputs))
            for func in solution.functions]


def check_solution_allowed(relation, solution):
    """Brute force: every input's chosen output row is in the relation."""
    mgr = relation.mgr
    inputs = list(relation.inputs)
    for i in range(1 << len(inputs)):
        assignment = {var: bool((i >> j) & 1)
                      for j, var in enumerate(inputs)}
        for position, var in enumerate(relation.outputs):
            assignment[var] = solution.mgr.eval(
                solution.functions[position], dict(assignment))
        assert mgr.eval(relation.node, assignment), \
            "solution leaves the relation at input %d" % i


@pytest.mark.parametrize("num_inputs,num_outputs,seed", CASES)
@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
def test_engine_solver_parity(num_inputs, num_outputs, seed, strategy):
    """The BDD engine and the table engine produce identical results."""
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    table = table_relation(relation)
    options = BrelOptions(strategy=strategy, max_explored=40)
    baseline = BrelSolver(options).solve(relation)
    result = BrelSolver(options).solve(table)
    check_solution_allowed(relation, baseline.solution)
    assert result.solution.cost == baseline.solution.cost
    assert result.stopped == baseline.stopped
    assert solution_tables(table, result.solution) \
        == solution_tables(relation, baseline.solution)
    assert [imp.cost for imp in result.improvements] \
        == [imp.cost for imp in baseline.improvements]
    # The table solve stays on the manager its relation lives on.
    assert result.solution.mgr is table.mgr
    check_solution_allowed(table, result.solution)
