"""The packed solver loop against the node-level loop.

A relation whose frame fits :data:`~repro.bdd.packed.MAX_TABLE_WIDTH` is
packed once, at the root of its solve, and its subrelations stay truth
tables down to every leaf (:mod:`repro.core.packedrel`).  Each packed
step is held here to the :class:`~repro.core.BooleanRelation` step it
stands in for, on seeded brgen relations of up to 16 frame variables:

* the split children equal the packed node-level children;
* the split vertex and output equal ``select_split_from_conflicts`` on
  the node conflict set;
* the table costs equal the node costs for ``size``, ``size2``,
  ``shared``, ``cubes`` and ``literals``;
* the per-output supports equal ``output_support``.

Whole solves then run again with ``pack_relation`` switched off, so
every relation takes the node path, and must give the same SOP, cost,
improvement trajectory, explored count, split count and partition and
portfolio summaries under every strategy, the portfolio and symmetry
pruning; one relation has two output blocks, so its solves are sharded.
A narrow solve packs its relation once (a sharded one once more per
block) and builds no node while it explores, and a packed solution
renders its covers without building one.
"""

import random

import pytest

from repro.bdd import BddManager
from repro.bdd import packed as packed_module
from repro.bdd.packed import pack, unpack
from repro.benchdata.brgen import block_structured_relation, random_relation
from repro.core import (BrelOptions, BrelSolver, bdd_size_cost,
                        bdd_size_squared_cost, cube_count_cost,
                        literal_count_cost, shared_bdd_size_cost,
                        weighted_cost)
from repro.core import brel as brel_module
from repro.core import isf as isf_module
from repro.core import quick as quick_module
from repro.core import solution as solution_module
from repro.core.minimize import minimize_isop
from repro.core.packedrel import pack_relation
from repro.core.split import select_split_from_conflicts

from .test_packed_misf import LAYOUTS, shaped_relation

#: brgen (inputs, outputs) shapes, up to the full 16-variable frame;
#: the wide-input ones walk fewer relations of the split tree.
SHAPES = [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (6, 4), (7, 2), (4, 8),
          (8, 5), (2, 14)]
WIDE_SHAPES = [(10, 6), (12, 4)]

COSTS = {"size": bdd_size_cost, "size2": bdd_size_squared_cost,
         "shared": shared_bdd_size_cost, "cubes": cube_count_cost,
         "literals": literal_count_cost}


def split_outcome(relation, conflicts):
    try:
        return select_split_from_conflicts(relation, conflicts)
    except ValueError as exc:
        return str(exc)


def check_costs(relation, packed, tables):
    """Every built-in cost prices ``tables`` on the packed relation as
    the node cost prices their nodes."""
    nodes = tuple(unpack(relation.mgr, table, packed.frame)
                  for table in tables)
    for name, cost in COSTS.items():
        solution = packed.solution(tables, cost)
        assert solution.cost == cost(relation.mgr, nodes), name
        assert solution.functions == nodes, name


def check_steps(relation, rng, limit=6):
    """Walk the split tree breadth first from ``relation``, holding each
    packed step to the node-level one."""
    mgr = relation.mgr
    packed = pack_relation(relation)
    assert packed is not None
    assert packed.node == relation.node
    assert packed.output_supports() == [
        relation.output_support(position)
        for position in range(len(relation.outputs))]
    pending = [(relation, packed)]
    seen = 0
    while pending and seen < limit:
        current, view = pending.pop(0)
        seen += 1
        frame = view.frame
        assert view.table == pack_relation(current).table
        assert view.is_function() == current.is_function()
        if current.is_function():
            assert view.function_vector() \
                == pack(mgr, current.function_vector(), frame)
            continue
        nodes = [current.minimize(position, minimize_isop)
                 for position in range(len(current.outputs))]
        tables = [view.minimize(position, minimize_isop)
                  for position in range(len(current.outputs))]
        assert tables == pack(mgr, nodes, frame)
        check_costs(current, view, tables)
        # A random vector prices apart from the minimised one.
        check_costs(current, view,
                    [rng.getrandbits(1 << view.n) for _ in nodes])
        conflicts = current.conflict_inputs(nodes)
        table = view.conflict_inputs(tables)
        assert [table] == pack(mgr, [conflicts], frame)
        if not table:
            continue
        choice = select_split_from_conflicts(current, conflicts)
        assert split_outcome(view, table) == choice
        children = current.split(choice.vertex_dict(), choice.position)
        packed_children = view.split(choice.vertex_dict(), choice.position)
        for child, packed_child in zip(children, packed_children):
            assert packed_child.table == pack_relation(child).table
            assert packed_child.node == child.node
            pending.append((child, packed_child))
    return seen


class TestPackedSteps:
    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["%dx%d" % shape for shape in SHAPES])
    def test_brgen(self, shape):
        n, m = shape
        relation = random_relation(n, m, seed=n * 17 + m)
        assert check_steps(relation, random.Random(n * 31 + m)) >= 1

    @pytest.mark.parametrize("shape", WIDE_SHAPES,
                             ids=["%dx%d" % shape for shape in WIDE_SHAPES])
    def test_brgen_wide_inputs(self, shape):
        n, m = shape
        relation = random_relation(n, m, seed=n * 17 + m)
        assert check_steps(relation, random.Random(n * 31 + m), 3) >= 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", [(3, 2), (5, 4), (8, 3), (2, 6)])
    def test_layouts(self, shape, layout):
        # Frames that are offset, gapped, interleaved or put the outputs
        # first: vertex indices, supports and the characteristic node
        # follow the level order, not the variable numbers.
        seed = LAYOUTS.index(layout) + 5 * (shape[0] * 7 + shape[1])
        relation, rng = shaped_relation(*shape, seed=seed)
        check_steps(relation, rng)

    def test_split_at_every_dont_care(self):
        # Both children at every (vertex, output) Theorem 5.2 allows.
        relation = random_relation(4, 3, seed=2)
        packed = pack_relation(relation)
        inputs = relation.inputs
        for value in range(1 << len(inputs)):
            vertex = {var: bool(value >> i & 1)
                      for i, var in enumerate(inputs)}
            for position in range(len(relation.outputs)):
                assert packed.can_split(vertex, position) \
                    == relation.can_split(vertex, position)
                children = relation.split(vertex, position)
                assert [child.table for child in
                        packed.split(vertex, position)] \
                    == [pack_relation(child).table for child in children]


def switched_off(monkeypatch):
    """Every relation takes the node path, as before the packed layer."""
    monkeypatch.setattr(brel_module, "pack_relation", lambda relation: None)
    monkeypatch.setattr(quick_module, "pack_relation",
                        lambda relation: None)


def symmetric_relation(seed):
    """``R ∨ swap(R)`` for a brgen ``R``: outputs 0 and 1 are
    non-equivalence symmetric, so symmetry pruning has work to do."""
    relation = random_relation(5, 3, seed=seed)
    mgr, (y0, y1, _) = relation.mgr, relation.outputs
    return relation.with_node(mgr.or_(relation.node,
                                      mgr.swap_vars(relation.node, y0, y1)))


def relations():
    built = [random_relation(*shape, seed=seed)
             for shape, seed in (((5, 3), 1), ((6, 4), 2), ((4, 6), 3),
                                 ((7, 2), 4))]
    # Two independent output blocks: a sharded solve, and under the
    # portfolio a race per block, each searching its block's packed form.
    built.append(block_structured_relation([(4, 2), (4, 2)], seed=3))
    return built + [symmetric_relation(seed) for seed in (5, 6)]


#: Option sets the whole solves run under.
OPTION_SETS = {
    "bfs": dict(strategy="bfs"),
    "dfs": dict(strategy="dfs"),
    "best-first": dict(strategy="best-first"),
    "beam": dict(strategy="beam", fifo_capacity=3),
    "portfolio": dict(strategy="portfolio"),
    "symmetry": dict(symmetry_pruning=True, symmetry_max_depth=3,
                     decompose=False),
}


def answers(summary):
    """A partition or portfolio summary without its timings and engine
    counters."""
    if isinstance(summary, dict):
        return {key: answers(value) for key, value in summary.items()
                if key != "runtime_seconds" and not key.startswith("bdd_")}
    if isinstance(summary, list):
        return [answers(value) for value in summary]
    return summary


def solve_row(result):
    stats = result.stats
    return (result.solution.describe(), result.solution.cost,
            [(imp.cost, imp.explored) for imp in result.improvements],
            stats.relations_explored, stats.splits, stats.symmetry_prunes,
            answers(result.partition), answers(result.portfolio))


def solve_rows(**fields):
    options = BrelOptions(max_explored=25, **fields)
    return [solve_row(BrelSolver(options).solve(relation))
            for relation in relations()]


class TestWholeSolves:
    @pytest.mark.parametrize("name", sorted(OPTION_SETS))
    def test_strategies_match_the_node_path(self, name, monkeypatch):
        fields = OPTION_SETS[name]
        packed = solve_rows(**fields)
        switched_off(monkeypatch)
        assert solve_rows(**fields) == packed
        if name == "symmetry":
            assert any(row[5] for row in packed)

    @pytest.mark.parametrize("cost", sorted(COSTS) + ["weighted"])
    def test_costs_match_the_node_path(self, cost, monkeypatch):
        function = COSTS.get(cost) or weighted_cost(1.0, 2.0, 0.5)
        packed = solve_rows(cost_function=function)
        switched_off(monkeypatch)
        assert solve_rows(cost_function=function) == packed


def counted_packs(monkeypatch):
    """The relations ``pack_relation`` is called on, from now on."""
    calls = []

    def counted(relation):
        calls.append(relation)
        return pack_relation(relation)

    monkeypatch.setattr(brel_module, "pack_relation", counted)
    monkeypatch.setattr(quick_module, "pack_relation", counted)
    return calls


def counted_builds(monkeypatch):
    """The variables of the nodes the manager finds or creates, from now
    on: every node build goes through ``BddManager._mk``."""
    built = []
    mk = BddManager._mk

    def counted(mgr, var, low, high):
        built.append(var)
        return mk(mgr, var, low, high)

    monkeypatch.setattr(BddManager, "_mk", counted)
    return built


def counted_unpacks(monkeypatch):
    """The tables turned into nodes, from now on, through every module
    that binds ``unpack``."""
    calls = []

    def counted(mgr, table, frame):
        calls.append(table)
        return unpack(mgr, table, frame)

    for module in (packed_module, isf_module, solution_module):
        monkeypatch.setattr(module, "unpack", counted)
    return calls


class TestPackedOnce:
    @pytest.mark.parametrize("fields", [dict(), dict(strategy="dfs"),
                                        dict(decompose=False),
                                        dict(strategy="beam")])
    def test_one_pack_per_monolithic_solve(self, fields, monkeypatch):
        calls = counted_packs(monkeypatch)
        relation = random_relation(6, 4, seed=2)
        result = BrelSolver(BrelOptions(max_explored=30, **fields)).solve(
            relation)
        assert result.partition is None
        assert result.stats.relations_explored > 10
        assert calls == [relation]

    def test_one_pack_per_block(self, monkeypatch):
        # The root, then each block once: its opening quick pass and
        # its search run on the same packed form.
        calls = counted_packs(monkeypatch)
        relation = block_structured_relation([(4, 2), (4, 2)], seed=3)
        result = BrelSolver(BrelOptions(max_explored=30)).solve(relation)
        blocks = result.partition["blocks"]
        assert len(blocks) == 2
        assert all(block["stats"]["relations_explored"] for block in blocks)
        assert len(calls) == 3 and calls[0] is relation

    def test_racers_share_the_packed_root(self, monkeypatch):
        calls = counted_packs(monkeypatch)
        relation = random_relation(6, 4, seed=2)
        result = BrelSolver(BrelOptions(strategy="portfolio",
                                        max_explored=30)).solve(relation)
        assert result.partition is None
        assert len(result.portfolio["racers"]) == 4
        assert result.stats.relations_explored > 10
        assert calls == [relation]

    def test_no_node_built_while_exploring(self, monkeypatch):
        relation = random_relation(7, 4, seed=9)
        built = counted_builds(monkeypatch)
        unpacked = counted_unpacks(monkeypatch)
        result = BrelSolver(BrelOptions(max_explored=30)).solve(relation)
        assert result.stats.relations_explored > 10
        assert not built and not unpacked
        functions = result.solution.functions
        assert len(unpacked) == len(functions) == 4
        assert relation.is_compatible(functions)

    def test_covers_build_no_node(self, monkeypatch):
        relation = random_relation(7, 4, seed=9)
        result = BrelSolver(BrelOptions(max_explored=30)).solve(relation)
        solution = result.solution
        assert solution.tables is not None
        built = counted_builds(monkeypatch)
        text = solution.describe()
        assert text.count("\n") == 3 and not built
        monkeypatch.undo()
        # The covers are the node-level ISOP of the functions.
        mgr = relation.mgr
        assert [[list(cube.items()) for cube in cover]
                for cover in solution.sop_covers()] \
            == [[list(cube.items()) for cube in mgr.isop(f, f)[0]]
                for f in solution.functions]
