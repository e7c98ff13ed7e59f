"""Randomized differential suite: the BDD engine vs brute-force truth.

Every operation of the explicit-stack engine — apply
(and/or/xor/diff), ite, cofactor, the quantifiers, ``sat_count`` and
ISOP — is checked against direct truth-table evaluation over *all*
assignments, on seeded random relations from
:mod:`repro.benchdata.brgen` with up to 6+6 variables, and every full
solver run's answer stays inside its relation.
"""

from __future__ import annotations

import random

import pytest

from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver

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
        assert mgr.sat_count(f, variables) == bin(tt[f]).count("1")


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


def cover_truth_table(cover, variables):
    """Bitmask truth table of an SOP cover over ``variables``."""
    table = 0
    for i in range(1 << len(variables)):
        assignment = {var: bool((i >> j) & 1)
                      for j, var in enumerate(variables)}
        if any(all(assignment[var] == value for var, value in cube.items())
               for cube in cover):
            table |= 1 << i
    return table


@pytest.mark.parametrize("num_inputs,num_outputs,seed", CASES)
def test_isop_covers_match_truth_tables(num_inputs, num_outputs, seed):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    variables = list(relation.inputs) + list(relation.outputs)
    for f in function_pool(relation):
        cover, node = mgr.isop(f, f)
        assert node == f
        assert cover_truth_table(cover, variables) \
            == truth_table(mgr, f, variables)


# ---------------------------------------------------------------------------
# Full solves stay inside their relations
# ---------------------------------------------------------------------------

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
def test_solver_answers_stay_in_the_relation(num_inputs, num_outputs, seed,
                                             strategy):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    options = BrelOptions(strategy=strategy, max_explored=40)
    result = BrelSolver(options).solve(relation)
    assert result.solution.mgr is relation.mgr
    check_solution_allowed(relation, result.solution)
