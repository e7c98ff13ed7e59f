"""The packed MISF layer against the node-level MISF operations.

:mod:`repro.core.packedrel` runs the solver loop's MISF work — per-output
ISF bounds, QuickSolver's restriction, conflict sets, the split output's
don't-care test, functionality — on one truth table per relation.  Every
result here is checked against :class:`~repro.core.BooleanRelation`'s
node-level operations, which stay the wide path and the reference:

* seeded relations of every shape with ``n + m <= 16``, on contiguous,
  offset, gapped, interleaved and outputs-first frames;
* relations the selection test turns down (out-of-frame variables, 17
  variables) solve on nodes, as before;
* ISF memo keys from tables split ISFs into the renamed-fingerprint
  classes, survive the disk tier's JSON, and never match entries keyed
  the old way;
* reports agree across engines, table kernels, memo on/off, and with
  the layer switched off (the node-level computation).
"""

import json
import random

import pytest

import repro
from repro import SolveRequest
from repro.bdd import BddManager
from repro.bdd.manager import FALSE
from repro.bdd.packed import MAX_TABLE_WIDTH, tables_of
from repro.benchdata import instance_by_name
from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver, MemoStore, quick_solve
from repro.core import brel as brel_module
from repro.core import quick as quick_module
from repro.core.isf import Isf, PackedIsf
from repro.core.memo import instantiate_solution, template_from_var_cover
from repro.core.minimize import (MINIMIZERS, minimize_isop,
                                 minimize_with_cover)
from repro.core.packedrel import pack_relation
from repro.core.relation import BooleanRelation
from repro.core.route import SubproblemRouter
from repro.core.split import select_split_from_conflicts
from repro.service.diskcache import DiskCache
from repro.table import TableManager

from ..conftest import table_relation
from .test_subproblem_layer import (KERNELS, assert_same_classes,
                                    engine_ids, engines, random_isfs,
                                    renamed_isf_key)

LAYOUTS = ("contiguous", "offset", "gapped", "interleaved",
           "outputs-first")

#: Every (inputs, outputs) shape the packed layer takes.
SHAPES = [(n, total - n) for total in range(1, MAX_TABLE_WIDTH + 1)
          for n in range(total)]


def frame_for(n, m, layout, rng):
    """``(num_vars, inputs, outputs)`` for a shape laid out as asked."""
    width = n + m
    if layout == "contiguous":
        levels = list(range(width))
        inputs, outputs = levels[:n], levels[n:]
    elif layout == "offset":
        levels = list(range(3, 3 + width))
        inputs, outputs = levels[:n], levels[n:]
    elif layout == "gapped":
        levels = sorted(rng.sample(range(width + 6), width))
        inputs, outputs = levels[:n], levels[n:]
    elif layout == "interleaved":
        levels = list(range(width))
        outputs = sorted(rng.sample(levels, m))
        inputs = [var for var in levels if var not in outputs]
    else:
        levels = list(range(width))
        outputs, inputs = levels[:m], levels[m:]
    if layout != "contiguous":
        # Output positions need not follow the levels, nor inputs.
        rng.shuffle(outputs)
        rng.shuffle(inputs)
    return max(levels) + 2, tuple(inputs), tuple(outputs)


def cube_relation(mgr, inputs, outputs, rng, well_defined=True):
    """A seeded relation: random cubes over the frame, completed to a
    left-total relation unless ``well_defined`` is off."""
    frame = list(inputs) + list(outputs)
    node = FALSE
    for _ in range(rng.randint(1, 3 + len(frame))):
        literals = rng.sample(frame, rng.randint(1, min(len(frame), 5)))
        node = mgr.or_(node, mgr.cube({var: rng.random() < 0.5
                                       for var in literals}))
    if well_defined:
        fill = mgr.cube({var: rng.random() < 0.5 for var in outputs})
        node = mgr.or_(node, mgr.and_(mgr.not_(mgr.exists(node, outputs)),
                                      fill))
    return BooleanRelation(mgr, inputs, outputs, node)


def shaped_relation(n, m, seed):
    rng = random.Random(seed)
    layout = LAYOUTS[seed % len(LAYOUTS)]
    num_vars, inputs, outputs = frame_for(n, m, layout, rng)
    mgr = BddManager(["v%d" % i for i in range(num_vars)])
    return cube_relation(mgr, inputs, outputs, rng), rng


def wide_engines():
    """One fresh manager per engine/kernel, as wide as a table gets."""
    names = ["v%d" % i for i in range(MAX_TABLE_WIDTH)]
    return [BddManager(names)] + [
        TableManager(names, max_width=MAX_TABLE_WIDTH, kernel=kernel)
        for kernel in KERNELS]


def cover_function(mgr, cover, variables):
    """Disjoin a cover over ranks with rank ``r`` on ``variables[r]``."""
    node = FALSE
    for cube in cover:
        node = mgr.or_(node, mgr.cube({variables[rank]: polarity
                                       for rank, polarity in cube}))
    return node


def full_support_cover(mgr, k, rng):
    """A seeded cover over ranks ``0..k-1`` that depends on every rank."""
    while True:
        cover = [[(rank, rng.random() < 0.5)
                  for rank in rng.sample(range(k), min(k, 4))]
                 for _ in range(k)]
        node = cover_function(mgr, cover, list(range(k)))
        if len(mgr.support(node)) == k:
            return cover


def full_support_function(mgr, variables, rng):
    """A seeded function of ``variables`` that depends on every one."""
    return cover_function(mgr, full_support_cover(mgr, len(variables), rng),
                          variables)


def wide_isfs(mgr, seed):
    """Seeded ISFs over supports of 7 to 16 variables.

    Each base interval sits at several order-preserving placements, and
    under ``a`` and ``~a`` for its lowest variable ``a`` -- with both
    the ON and the DC set shifted by whole 64-bit chunks of the table.
    """
    rng = random.Random(seed)
    width = MAX_TABLE_WIDTH
    frame = tuple(range(width))
    isfs = []
    for k in range(7, width + 1):
        on_cover = full_support_cover(mgr, k - 1, rng)
        dc_cover = full_support_cover(mgr, k - 1, rng)
        starts = sorted({0, width - k, rng.randint(0, width - k)})
        for start in starts:
            rest = list(range(start + 1, start + k))
            on = cover_function(mgr, on_cover, rest)
            dc = mgr.diff(cover_function(mgr, dc_cover, rest), on)
            a = mgr.var(start)
            for literal in (a, mgr.not_(a)):
                isfs.append(Isf(mgr, mgr.and_(literal, on),
                                mgr.and_(literal, dc), frame))
            isfs.append(Isf(mgr, mgr.and_(a, on), FALSE, frame))
            isfs.append(Isf(mgr, mgr.and_(mgr.not_(a), on), FALSE, frame))
    return isfs


def isf_tables(relation, isf, frame):
    return tuple(tables_of(relation.mgr, (isf.on, isf.dc), frame))


def split_outcome(relation, conflicts, view=None):
    try:
        return select_split_from_conflicts(relation, conflicts, view)
    except ValueError as exc:
        return str(exc)


def check_against_nodes(relation, rng):
    """Every packed MISF operation equals its node-level counterpart."""
    view = pack_relation(relation)
    assert view is not None
    mgr, frame = relation.mgr, view.frame
    n, m = len(relation.inputs), len(relation.outputs)
    assert view.is_well_defined() == relation.is_well_defined()
    assert view.is_function() == relation.is_function()
    for position in range(m):
        assert view.project(position) \
            == isf_tables(relation, relation.project(position), frame)
    # QuickSolver's restriction sequence, in a seeded output order.
    order = list(range(m))
    rng.shuffle(order)
    table, current = view.table, relation
    for position in order:
        isf = current.project(position)
        assert view.project(position, table) \
            == isf_tables(relation, isf, frame)
        expected = minimize_isop(isf)
        node, _, function = view.minimize(position, minimize_isop, "isop",
                                          None, table)
        assert node == expected
        assert [function] == tables_of(mgr, (expected,), frame)
        current = current.restrict_output(position, expected)
        table = view.restrict(table, position, function)
        assert table == pack_relation(current).table
    # Conflicts and the split choice for random function vectors.
    for _ in range(3):
        functions = [rng.getrandbits(1 << n) for _ in range(m)]
        nodes = [view.node(function) for function in functions]
        expected = relation.conflict_inputs(nodes)
        assert view.node(view.conflict_table(functions)) == expected
        assert view.conflict_table(tables_of(mgr, nodes, frame)) \
            == view.conflict_table(functions)
        if expected != FALSE:
            assert split_outcome(relation, expected, view) \
                == split_outcome(relation, expected)


class TestAgainstNodes:
    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["%dx%d" % shape for shape in SHAPES])
    def test_every_shape(self, shape):
        relation, rng = shaped_relation(*shape, seed=sum(shape) * 7
                                        + shape[0])
        check_against_nodes(relation, rng)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", [(2, 14), (1, 15), (8, 8), (6, 3)])
    def test_layouts(self, shape, layout):
        rng = random.Random("%dx%d:%s" % (shape + (layout,)))
        num_vars, inputs, outputs = frame_for(*shape, layout, rng)
        mgr = BddManager(["v%d" % i for i in range(num_vars)])
        check_against_nodes(cube_relation(mgr, inputs, outputs, rng), rng)

    @pytest.mark.parametrize("shape", [(0, 1), (1, 1), (3, 2), (4, 5),
                                       (7, 1), (2, 14)])
    def test_functions_and_well_definedness(self, shape):
        n, m = shape
        rng = random.Random(n * 31 + m)
        num_vars, inputs, outputs = frame_for(n, m, "gapped", rng)
        mgr = BddManager(["v%d" % i for i in range(num_vars)])
        functions = [mgr.from_minterms(sorted(inputs), [
            point for point in range(1 << n) if rng.random() < 0.5])
            for _ in range(m)]
        relation = BooleanRelation.from_functions(mgr, inputs, outputs,
                                                  functions)
        view = pack_relation(relation)
        assert view.is_function() and relation.is_function()
        assert view.function_vector() == relation.function_vector() \
            == functions
        partial = cube_relation(mgr, inputs, outputs, rng,
                                well_defined=False)
        view = pack_relation(partial)
        assert view.is_well_defined() == partial.is_well_defined()
        assert view.is_function() == partial.is_function()
        if not partial.is_function():
            with pytest.raises(ValueError):
                view.function_vector()

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shape", [(1, 1), (4, 3), (6, 6), (2, 10)])
    def test_table_engine_reads_the_same_table(self, shape, kernel):
        n, m = shape
        width = n + m
        bdd = BddManager(["v%d" % i for i in range(width)])
        tm = TableManager(["v%d" % i for i in range(width)],
                          max_width=width, kernel=kernel)
        inputs, outputs = tuple(range(n)), tuple(range(n, width))
        views = [pack_relation(cube_relation(mgr, inputs, outputs,
                                             random.Random(width)))
                 for mgr in (bdd, tm)]
        assert views[0].table == views[1].table
        for position in range(m):
            assert views[0].project(position) == views[1].project(position)
        check_against_nodes(views[1].relation, random.Random(3))

    def test_table_engine_frame_must_hold_inputs_first(self):
        tm = TableManager(["v%d" % i for i in range(5)], max_width=5)
        rng = random.Random(1)
        assert pack_relation(cube_relation(tm, (0, 1, 2), (3, 4), rng)) \
            is not None
        for inputs, outputs in (((2, 3, 4), (0, 1)), ((0, 1), (3, 4)),
                                ((0, 1, 2), (4, 3))):
            relation = cube_relation(tm, inputs, outputs, rng)
            assert pack_relation(relation) is None


def solve_row(result):
    stats = result.stats
    return (result.solution.describe(), result.solution.cost,
            stats.relations_explored, stats.splits, stats.cost_prunes,
            stats.quick_solutions)


class TestMemoTemplates:
    def test_template_tables_match_instantiated_nodes(self):
        relation = random_relation(6, 4, seed=13)
        store = MemoStore()
        BrelSolver(BrelOptions(max_explored=6), memo=store).solve(relation)
        view = pack_relation(relation)
        sig = relation.signature()
        covers, _ = store.get(("eval", sig.key, "isop"))
        functions = instantiate_solution(relation.mgr, covers, sig.support)
        assert view.template_tables(covers, sig.support) \
            == tables_of(relation.mgr, functions, view.frame)


class TestNodePath:
    def test_out_of_frame_variable(self):
        rng = random.Random(5)
        mgr = BddManager(["v%d" % i for i in range(8)])
        inputs, outputs = (0, 1, 2), (3, 4)
        low = cube_relation(mgr, inputs, outputs, rng)
        high = cube_relation(mgr, inputs, outputs, rng)
        relation = low.with_node(mgr.ite(mgr.var(7), high.node, low.node))
        assert relation.is_well_defined()
        assert pack_relation(relation) is None
        result = BrelSolver(BrelOptions(max_explored=15)).solve(relation)
        assert relation.is_compatible(result.solution.functions)
        assert quick_solve(relation).cost > 0

    def test_seventeen_variables(self, monkeypatch):
        relation = random_relation(12, 5, seed=4)
        assert pack_relation(relation) is None
        options = BrelOptions(max_explored=4, decompose=False)
        packed = solve_row(BrelSolver(options).solve(relation))
        off(monkeypatch)
        fresh = random_relation(12, 5, seed=4)
        assert solve_row(BrelSolver(options).solve(fresh)) == packed


class TestIsfKeys:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("index", range(1 + len(KERNELS)),
                             ids=engine_ids())
    def test_keys_match_renamed_fingerprints(self, seed, index):
        mgr = engines()[index]
        isfs = random_isfs(mgr, seed)

        def key(isf):
            return PackedIsf.from_isf(isf, isf.signature().support).key()

        assert_same_classes(isfs, key, renamed_isf_key)
        keys = {key(isf) for isf in isfs}
        assert 1 < len(keys) < len(isfs)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("index", range(1 + len(KERNELS)),
                             ids=engine_ids())
    def test_wide_supports_match_renamed_fingerprints(self, seed, index):
        # Tables of 7 or more variables span several 64-bit chunks;
        # the placements under ``a`` / ``~a`` shift one table by whole
        # chunks.
        mgr = wide_engines()[index]
        isfs = wide_isfs(mgr, seed)

        def key(isf):
            return PackedIsf.from_isf(isf, isf.signature().support).key()

        assert_same_classes(isfs, key, renamed_isf_key)
        assert len({key(isf) for isf in isfs}) < len(isfs)

    @pytest.mark.parametrize("k", range(7, MAX_TABLE_WIDTH + 1))
    def test_chunk_shifted_tables_get_different_keys(self, k):
        mgr = BddManager(["v%d" % i for i in range(MAX_TABLE_WIDTH)])
        rng = random.Random(k)
        a = mgr.var(0)
        g = full_support_function(mgr, list(range(1, k)), rng)
        h = full_support_function(mgr, list(range(2, k)), rng)
        frame = tuple(range(MAX_TABLE_WIDTH))

        def key(on, dc=FALSE):
            isf = Isf(mgr, on, dc, frame)
            assert len(isf.signature().support) == k
            return PackedIsf.from_isf(isf, isf.signature().support).key()

        assert key(mgr.and_(a, g)) != key(mgr.and_(mgr.not_(a), g))
        assert key(mgr.and_(a, g), FALSE) \
            != key(FALSE, mgr.and_(mgr.not_(a), g))
        quadrants = [key(mgr.and_(mgr.cube({0: pa, 1: pb}), h))
                     for pa in (False, True) for pb in (False, True)]
        assert len(set(quadrants)) == 4

    def test_view_and_isf_keys_agree(self):
        relation = random_relation(6, 4, seed=9)
        view = pack_relation(relation)
        for position in range(4):
            packed = view.isf(*view.project(position))
            isf = relation.project(position)
            assert packed.support == isf.signature().support
            assert packed.key() \
                == PackedIsf.from_isf(isf, packed.support).key()

    def test_fifteen_variable_entry_round_trips_through_disk(self,
                                                            tmp_path):
        names = ["v%d" % i for i in range(16)]
        rng = random.Random(15)

        def wide_isf(mgr):
            support = list(range(1, 16))
            lower = FALSE
            for _ in range(12):
                literals = rng.sample(support, 4)
                lower = mgr.or_(lower, mgr.cube(
                    {var: rng.random() < 0.5 for var in literals}))
            dc = mgr.diff(mgr.cube({1: True, 15: False}), lower)
            return Isf(mgr, lower, dc, tuple(range(16)))

        state = rng.getstate()
        mgr = BddManager(names)
        isf = wide_isf(mgr)
        assert len(isf.signature().support) == 15
        store = MemoStore()
        node, cover, _ = minimize_with_cover(isf, minimize_isop, store,
                                             "isop")
        (key, template), = store.export_entries()
        assert key[1][0] == "isf3" and key[1][1] == 15
        disk = DiskCache(str(tmp_path / "pool"))
        disk.merge_memo_entries(store.export_entries())
        loaded = DiskCache(str(tmp_path / "pool")).load_memo_entries()
        assert loaded == [(key, template)]
        json.dumps(loaded)  # keys stay small enough to write
        rng.setstate(state)
        other = BddManager(names)
        twin = wide_isf(other)
        revived = MemoStore(entries=loaded)
        served, served_cover, _ = minimize_with_cover(twin, minimize_isop,
                                                      revived, "isop")
        assert revived.hits == 1 and revived.misses == 0
        assert served_cover == cover
        assert other.isop(served, served)[0] == mgr.isop(node, node)[0]

    def test_old_isf2_entries_never_match(self):
        relation = random_relation(5, 3, seed=21)
        rank_entries = []
        for position in range(3):
            isf = relation.project(position)
            sig = isf.signature()
            node, cover, _ = minimize_with_cover(isf, minimize_isop, None,
                                                 "isop")
            rank_entries.append((("isf", sig.key, "isop"),
                                 template_from_var_cover(
                                     cover, sig.rank_map())))
        assert all(key[1][0] == "isf2" for key, _ in rank_entries)
        store = MemoStore(entries=rank_entries)
        quick_solve(random_relation(5, 3, seed=21), memo=store)
        BrelSolver(BrelOptions(max_explored=10),
                   memo=store).solve(random_relation(5, 3, seed=21))
        assert store.hits > 0  # the new entries do serve repeats...
        for key, _ in rank_entries:
            assert key in store
        router = SubproblemRouter(MemoStore(entries=rank_entries))
        view = pack_relation(relation)
        for position in range(3):
            view.minimize(position, minimize_isop, "isop", router)
        # ...but the seeded old-key entries are never hit.
        assert router.memo.hits == 0
        assert router.memo.misses == 3


def off(monkeypatch):
    """Switch the packed layer off: every relation takes the node path,
    the computation before the layer existed."""
    monkeypatch.setattr(brel_module, "pack_relation", lambda relation: None)
    monkeypatch.setattr(quick_module, "pack_relation",
                        lambda relation: None)


def report_row(report):
    stats = {key: value for key, value in report.stats.items()
             if not key.startswith("bdd_") and key != "runtime_seconds"}
    return (report.sop, report.cost, report.cube_count,
            report.literal_count, report.compatible, stats)


def reports(kernel=None, **fields):
    """Report rows of five solves through one session; with a
    ``kernel``, each relation is rebuilt on a ``TableManager`` running
    it."""
    relations = [instance_by_name(name).build() for name in ("vtx", "int3")]
    relations += [random_relation(*shape, seed=seed)
                  for shape, seed in (((5, 3), 1), ((6, 4), 2),
                                      ((4, 6), 3))]
    if kernel is not None:
        relations = [table_relation(relation, kernel)
                     for relation in relations]
    session = repro.Session()
    return [report_row(session.solve(
        SolveRequest(max_explored=12, **fields), relation=relation))
        for relation in relations]


class TestReports:
    def test_engines_and_kernels_agree(self):
        expected = reports()
        for kernel in KERNELS:
            assert reports(kernel) == expected

    def test_memo_on_and_off_agree(self):
        def answers(rows):
            return [row[:-1] + ({key: value for key, value in
                                 row[-1].items()
                                 if not key.startswith("memo_")},)
                    for row in rows]

        assert answers(reports(memo=False)) == answers(reports())

    @pytest.mark.parametrize("minimizer", ["constrain", "licompact",
                                           "isop-noelim"])
    @pytest.mark.parametrize("memo", [True, False])
    def test_minimizers_match_the_node_path(self, minimizer, memo,
                                            monkeypatch):
        packed = reports(minimizer=minimizer, memo=memo)
        off(monkeypatch)
        assert reports(minimizer=minimizer, memo=memo) == packed

    def test_isop_matches_the_node_path(self, monkeypatch):
        def every_engine():
            return [reports()] + [reports(kernel) for kernel in KERNELS]

        packed = every_engine()
        off(monkeypatch)
        assert every_engine() == packed

    def test_custom_minimizer_gets_unpacked_isfs(self, monkeypatch):
        seen = []

        def custom(isf):
            seen.append(type(isf))
            return MINIMIZERS["isop"](isf)

        relation = random_relation(5, 3, seed=8)
        options = BrelOptions(minimizer=custom, max_explored=8)
        packed = solve_row(BrelSolver(options, memo=MemoStore()).solve(
            relation))
        assert seen and set(seen) == {Isf}
        off(monkeypatch)
        assert solve_row(BrelSolver(options, memo=MemoStore()).solve(
            random_relation(5, 3, seed=8))) == packed
