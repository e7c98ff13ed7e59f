"""Strategy parity: no behaviour drift behind the strategy redesign.

Two guarantees:

* ``bfs`` and ``dfs`` through the new strategy-driven loop are
  *byte-identical* to the pre-redesign solver (whose two hard-coded
  loops are preserved below as a reference implementation) on the
  Table 2 suite — same solution functions, same cost, same counters.
* every registered strategy, on seeded brgen relations, returns a
  solution the relation itself verifies as compatible.
"""

import time
from collections import deque

import pytest

from repro.bdd.manager import FALSE
from repro.benchdata.brgen import random_relation
from repro.benchdata.brsuite import SUITE, instance_by_name
from repro.core import (BrelOptions, BrelSolver, Solution, SolverStats,
                        quick_solve, solve_misf, strategy_names)
from repro.core.relio import function_nodes
from repro.core.split import select_split_from_conflicts
from repro.core.symmetry import SymmetryCache

#: Table 2 instances the byte-identical check runs on (a spread of
#: shapes; the full suite would only slow CI without new coverage).
PARITY_INSTANCES = ("int1", "int3", "int5", "int6", "she1", "she3",
                    "b9", "vtx", "c17i")


# ----------------------------------------------------------------------
# Reference: the pre-redesign solver, verbatim modulo plumbing.
# ----------------------------------------------------------------------
class ReferenceSolver:
    """The solver exactly as it was before the strategy redesign:
    ``strategy="dfs"`` the literal Fig. 6 recursion, ``strategy="bfs"`` the
    bounded-FIFO heuristic with QuickSolver on subrelations."""

    def __init__(self, options):
        self.options = options
        self._deadline = None

    def _out_of_time(self):
        return (self._deadline is not None
                and time.perf_counter() > self._deadline)

    def solve(self, relation):
        relation.require_well_defined()
        start = time.perf_counter()
        self._deadline = (start + self.options.time_limit_seconds
                          if self.options.time_limit_seconds is not None
                          else None)
        stats = SolverStats()
        options = self.options
        best = quick_solve(relation, options.minimizer,
                           options.cost_function)
        stats.quick_solutions += 1
        symmetry = (SymmetryCache(relation, options.symmetry_max_depth)
                    if options.symmetry_pruning else None)
        if options.exploration_strategy() == "dfs":
            best = self._solve_dfs(relation, best, stats, symmetry)
        else:
            best = self._solve_bfs(relation, best, stats, symmetry)
        return best, stats

    def _evaluate(self, relation, stats):
        functions = tuple(solve_misf(relation.misf(),
                                     self.options.minimizer))
        stats.misf_minimizations += 1
        cost = self.options.cost_function(relation.mgr, functions)
        conflicts = relation.conflict_inputs(functions)
        return Solution(relation.mgr, functions, cost), conflicts

    def _children(self, relation, conflicts, stats):
        choice = select_split_from_conflicts(relation, conflicts)
        stats.splits += 1
        return relation.split(choice.vertex_dict(), choice.position)

    def _solve_dfs(self, relation, best, stats, symmetry):
        options = self.options

        def rec(current, depth):
            nonlocal best
            if self._out_of_time():
                return
            if (options.max_explored is not None
                    and stats.relations_explored >= options.max_explored):
                return
            stats.relations_explored += 1
            if current.is_function():
                functions = tuple(current.function_vector())
                cost = options.cost_function(current.mgr, functions)
                if cost < best.cost:
                    best = Solution(current.mgr, functions, cost)
                    stats.compatible_found += 1
                return
            candidate, conflicts = self._evaluate(current, stats)
            if candidate.cost >= best.cost:
                stats.cost_prunes += 1
                return
            if conflicts == FALSE:
                best = candidate
                stats.compatible_found += 1
                return
            left, right = self._children(current, conflicts, stats)
            for child in (left, right):
                if symmetry is not None and symmetry.should_prune(
                        child, depth + 1):
                    stats.symmetry_prunes += 1
                    continue
                rec(child, depth + 1)

        rec(relation, 0)
        return best

    def _solve_bfs(self, relation, best, stats, symmetry):
        options = self.options
        # Pre-redesign default: quick-on-subrelations was on unless
        # explicitly disabled (the field defaulted to True; None is the
        # redesign's "strategy default" tri-state and maps to on here).
        quick_enabled = (options.quick_on_subrelations
                         if options.quick_on_subrelations is not None
                         else True)
        frontier = deque()
        frontier.append((relation, 0))
        while frontier:
            if self._out_of_time():
                break
            if (options.max_explored is not None
                    and stats.relations_explored >= options.max_explored):
                break
            current, depth = frontier.popleft()
            stats.relations_explored += 1
            if current.is_function():
                functions = tuple(current.function_vector())
                cost = options.cost_function(current.mgr, functions)
                if cost < best.cost:
                    best = Solution(current.mgr, functions, cost)
                    stats.compatible_found += 1
                continue
            if quick_enabled and depth > 0:
                quick = quick_solve(current, options.minimizer,
                                    options.cost_function)
                stats.quick_solutions += 1
                if quick.cost < best.cost:
                    best = quick
                    stats.compatible_found += 1
            candidate, conflicts = self._evaluate(current, stats)
            if candidate.cost >= best.cost:
                stats.cost_prunes += 1
                continue
            if conflicts == FALSE:
                best = candidate
                stats.compatible_found += 1
                continue
            left, right = self._children(current, conflicts, stats)
            for child in (left, right):
                if symmetry is not None and symmetry.should_prune(
                        child, depth + 1):
                    stats.symmetry_prunes += 1
                    continue
                if (options.fifo_capacity is not None
                        and len(frontier) >= options.fifo_capacity):
                    stats.frontier_overflow += 1
                    continue
                frontier.append((child, depth + 1))
        return best


#: Counters both solvers maintain (the redesign added frontier_prunes
#: and runtime/engine counters, which the reference does not track).
PARITY_COUNTERS = ("relations_explored", "misf_minimizations", "splits",
                   "cost_prunes", "symmetry_prunes", "quick_solutions",
                   "compatible_found", "frontier_overflow")


def assert_identical(name, options):
    # The reference implementation is monolithic by definition.
    # (Logical parity of the auto default is covered by
    # TestDecomposeAutoLogicalParity.)
    options.decompose = False
    # Separate builds: the two solvers must not share manager state
    # (node ids and caches), or the comparison would not be independent.
    reference_relation = instance_by_name(name).build()
    ref_best, ref_stats = ReferenceSolver(options).solve(
        reference_relation)
    relation = instance_by_name(name).build()
    result = BrelSolver(options).solve(relation)
    assert result.solution.cost == ref_best.cost, name
    # Same functions, node for node: the reduced-BDD DAGs of the two
    # function vectors are identical.  (Node ids are not compared: the
    # reference evaluates on nodes, the solver on packed tables, so the
    # two managers build different intermediate nodes.)
    frame = {var: var for var in range(relation.mgr.num_vars)}
    assert function_nodes(relation.mgr, result.solution.functions,
                          frame) \
        == function_nodes(reference_relation.mgr, ref_best.functions,
                          frame), name
    for counter in PARITY_COUNTERS:
        assert getattr(result.stats, counter) == \
            getattr(ref_stats, counter), (name, counter)
    assert relation.is_compatible(result.solution.functions)


class TestByteIdenticalParity:
    @pytest.mark.parametrize("name", PARITY_INSTANCES)
    def test_bfs_matches_pre_redesign(self, name):
        assert_identical(name, BrelOptions(strategy="bfs"))

    @pytest.mark.parametrize("name", PARITY_INSTANCES)
    def test_bfs_deep_budget_matches_pre_redesign(self, name):
        assert_identical(name, BrelOptions(strategy="bfs",
                                           max_explored=60,
                                           fifo_capacity=8))

    @pytest.mark.parametrize("name", PARITY_INSTANCES)
    def test_dfs_matches_pre_redesign(self, name):
        # The pre-redesign DFS never ran QuickSolver on subrelations
        # (the knob was BFS-only); under the redesign's tri-state the
        # dfs strategy defaults it off, so *default options* stay
        # byte-identical — no pinning needed.
        assert_identical(name, BrelOptions(strategy="dfs"))

    def test_quick_tristate_defaults_follow_strategy(self):
        relation = instance_by_name("she1").build()
        # dfs default == explicit False; explicit True opts in and may
        # find different (never worse) incumbents.
        default = BrelSolver(BrelOptions(strategy="dfs")).solve(relation)
        pinned_off = BrelSolver(BrelOptions(
            strategy="dfs", quick_on_subrelations=False)).solve(relation)
        assert default.solution.functions == pinned_off.solution.functions
        assert default.stats.quick_solutions == \
            pinned_off.stats.quick_solutions == 1
        opted_in = BrelSolver(BrelOptions(
            strategy="dfs", quick_on_subrelations=True)).solve(relation)
        assert opted_in.stats.quick_solutions > 1
        assert opted_in.solution.cost <= default.solution.cost
        # bfs default == explicit True.
        bfs_default = BrelSolver(BrelOptions(strategy="bfs")).solve(relation)
        bfs_on = BrelSolver(BrelOptions(
            strategy="bfs", quick_on_subrelations=True)).solve(relation)
        assert bfs_default.solution.functions == bfs_on.solution.functions
        assert bfs_default.stats.quick_solutions == \
            bfs_on.stats.quick_solutions > 1

    @pytest.mark.parametrize("name", ("int1", "she1", "c17i"))
    def test_bfs_with_symmetries_matches_pre_redesign(self, name):
        assert_identical(name, BrelOptions(
            strategy="bfs", symmetry_pruning=True, max_explored=40))


class TestDecomposeAutoLogicalParity:
    """The auto-decompose default must not change what default solves
    *mean*: none of the Table 2 instances is separable, so the router
    falls through to the monolithic loop and the solution is logically
    identical to a ``decompose=False`` solve — same cost, same SOP
    rendering, same search counters (node ids may differ because the
    support analysis touches the engine first)."""

    @pytest.mark.parametrize("name", PARITY_INSTANCES)
    def test_auto_matches_forced_off(self, name):
        auto = BrelSolver(BrelOptions()).solve(
            instance_by_name(name).build())
        off = BrelSolver(BrelOptions(decompose=False)).solve(
            instance_by_name(name).build())
        assert auto.partition is None, name
        assert auto.solution.cost == off.solution.cost, name
        assert auto.solution.describe() == off.solution.describe(), name
        for counter in PARITY_COUNTERS:
            assert getattr(auto.stats, counter) == \
                getattr(off.stats, counter), (name, counter)


class TestAllStrategiesCompatible:
    @pytest.mark.parametrize("seed", (7, 21, 42, 1001))
    @pytest.mark.parametrize("strategy", strategy_names())
    def test_seeded_brgen_verified_compatible(self, seed, strategy):
        relation = random_relation(num_inputs=4, num_outputs=3,
                                   seed=seed, flexibility=0.6,
                                   non_cube_fraction=0.6)
        quick_cost = quick_solve(relation).cost
        options = BrelOptions(strategy=strategy, max_explored=30)
        result = BrelSolver(options).solve(relation)
        assert relation.is_compatible(result.solution.functions), \
            (seed, strategy)
        # Branch-and-bound never regresses below its own incumbent.
        assert result.solution.cost <= quick_cost

    @pytest.mark.parametrize("strategy", strategy_names())
    def test_table2_instances_verified_compatible(self, strategy):
        for name in ("int1", "vtx"):
            relation = instance_by_name(name).build()
            result = BrelSolver(
                BrelOptions(strategy=strategy)).solve(relation)
            assert relation.is_compatible(result.solution.functions), \
                (name, strategy)
