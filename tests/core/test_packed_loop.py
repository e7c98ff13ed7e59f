"""The packed solver loop against the node-level loop.

A relation whose frame fits :data:`~repro.bdd.packed.MAX_TABLE_WIDTH` is
packed once, at the root of its solve, and its subrelations stay truth
tables down to every leaf (:mod:`repro.core.packedrel`).  Each packed
step is held here to the :class:`~repro.core.BooleanRelation` step it
stands in for, on seeded brgen relations of up to 16 frame variables,
on both engines:

* the split children equal the packed node-level children;
* the split vertex and output equal ``select_split_from_conflicts`` on
  the node conflict set;
* the table costs equal the node costs for ``size``, ``size2``,
  ``shared``, ``cubes`` and ``literals``;
* the per-output supports equal ``output_support``.

Whole solves then run again with ``pack_relation`` switched off, so
every relation takes the node path, and must give the same SOP, cost,
improvement trajectory, explored count and split count under every
strategy, the portfolio and symmetry pruning.  A monolithic narrow solve
packs its relation once and builds no node while it explores.
"""

import random

import pytest

from repro.bdd import packed as packed_module
from repro.bdd.packed import node_of, tables_of
from repro.benchdata.brgen import random_relation
from repro.core import (BrelOptions, BrelSolver, bdd_size_cost,
                        bdd_size_squared_cost, cube_count_cost,
                        literal_count_cost, shared_bdd_size_cost,
                        weighted_cost)
from repro.core import brel as brel_module
from repro.core import quick as quick_module
from repro.core.minimize import minimize_isop
from repro.core.packedrel import pack_relation
from repro.core.split import select_split_from_conflicts
from repro.table import npkernel

from ..conftest import table_relation
from .test_packed_misf import LAYOUTS, shaped_relation

KERNELS = ["int"] + (["numpy"] if npkernel.available() else [])

#: ``None`` is the BDD engine; a kernel name is the table engine.
ENGINES = [None] + KERNELS

#: brgen (inputs, outputs) shapes, up to the full 16-variable frame;
#: the wide-input ones, whose node-level steps are slow on the table
#: engine, run on the BDD engine only.
SHAPES = [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (6, 4), (7, 2), (4, 8),
          (8, 5), (2, 14)]
WIDE_SHAPES = [(10, 6), (12, 4)]

COSTS = {"size": bdd_size_cost, "size2": bdd_size_squared_cost,
         "shared": shared_bdd_size_cost, "cubes": cube_count_cost,
         "literals": literal_count_cost}


def on_engine(relation, engine):
    return relation if engine is None else table_relation(relation, engine)


def split_outcome(relation, conflicts):
    try:
        return select_split_from_conflicts(relation, conflicts)
    except ValueError as exc:
        return str(exc)


def check_costs(relation, packed, tables):
    """Every built-in cost prices ``tables`` on the packed relation as
    the node cost prices their nodes."""
    nodes = tuple(node_of(relation.mgr, table, packed.frame)
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
                == tables_of(mgr, current.function_vector(), frame)
            continue
        nodes = [current.minimize(position, minimize_isop)
                 for position in range(len(current.outputs))]
        tables = [view.minimize(position, minimize_isop)
                  for position in range(len(current.outputs))]
        assert tables == tables_of(mgr, nodes, frame)
        check_costs(current, view, tables)
        # A random vector prices apart from the minimised one.
        check_costs(current, view,
                    [rng.getrandbits(1 << view.n) for _ in nodes])
        conflicts = current.conflict_inputs(nodes)
        table = view.conflict_inputs(tables)
        assert [table] == tables_of(mgr, [conflicts], frame)
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
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=["bdd"] + ["table-%s" % kernel
                                            for kernel in KERNELS])
    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["%dx%d" % shape for shape in SHAPES])
    def test_brgen(self, shape, engine):
        n, m = shape
        relation = on_engine(random_relation(n, m, seed=n * 17 + m),
                             engine)
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


def relations(engine):
    built = [random_relation(*shape, seed=seed)
             for shape, seed in (((5, 3), 1), ((6, 4), 2), ((4, 6), 3),
                                 ((7, 2), 4))]
    built += [symmetric_relation(seed) for seed in (5, 6)]
    return [on_engine(relation, engine) for relation in built]


def engines_for(name):
    """Symmetry pruning swaps variables, which only the BDD engine
    does."""
    return [None] if name == "symmetry" else ENGINES


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


def solve_row(result):
    stats = result.stats
    return (result.solution.describe(), result.solution.cost,
            [(imp.cost, imp.explored) for imp in result.improvements],
            stats.relations_explored, stats.splits, stats.symmetry_prunes)


def solve_rows(engine, **fields):
    options = BrelOptions(max_explored=25, **fields)
    return [solve_row(BrelSolver(options).solve(relation))
            for relation in relations(engine)]


class TestWholeSolves:
    @pytest.mark.parametrize("name", sorted(OPTION_SETS))
    def test_strategies_match_the_node_path(self, name, monkeypatch):
        fields = OPTION_SETS[name]
        packed = [solve_rows(engine, **fields)
                  for engine in engines_for(name)]
        switched_off(monkeypatch)
        assert [solve_rows(engine, **fields)
                for engine in engines_for(name)] == packed
        if name == "symmetry":
            assert any(row[5] for row in packed[0])

    @pytest.mark.parametrize("cost", sorted(COSTS) + ["weighted"])
    def test_costs_match_the_node_path(self, cost, monkeypatch):
        function = COSTS.get(cost) or weighted_cost(1.0, 2.0, 0.5)
        packed = solve_rows(None, cost_function=function)
        switched_off(monkeypatch)
        assert solve_rows(None, cost_function=function) == packed


class TestPackedOnce:
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=["bdd"] + ["table-%s" % kernel
                                            for kernel in KERNELS])
    @pytest.mark.parametrize("fields", [dict(), dict(strategy="dfs"),
                                        dict(decompose=False),
                                        dict(strategy="beam")])
    def test_one_pack_per_monolithic_solve(self, fields, engine,
                                           monkeypatch):
        calls = []

        def counted(relation):
            calls.append(relation)
            return pack_relation(relation)

        monkeypatch.setattr(brel_module, "pack_relation", counted)
        monkeypatch.setattr(quick_module, "pack_relation", counted)
        relation = on_engine(random_relation(6, 4, seed=2), engine)
        result = BrelSolver(BrelOptions(max_explored=30, **fields)).solve(
            relation)
        assert result.partition is None
        assert result.stats.relations_explored > 10
        assert calls == [relation]

    def test_no_node_built_while_exploring(self, monkeypatch):
        built = []
        unpack = packed_module.unpack

        def counted(mgr, table, frame):
            built.append(table)
            return unpack(mgr, table, frame)

        monkeypatch.setattr(packed_module, "unpack", counted)
        relation = random_relation(7, 4, seed=9)
        result = BrelSolver(BrelOptions(max_explored=30)).solve(relation)
        assert result.stats.relations_explored > 10 and not built
        functions = result.solution.functions
        assert len(built) == len(functions) == 4
        assert relation.is_compatible(functions)
