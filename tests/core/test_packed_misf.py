"""The packed MISF layer against the node-level MISF operations.

:mod:`repro.core.packedrel` runs the solver loop's MISF work — per-output
ISF bounds, QuickSolver's restriction, conflict sets, the split output's
don't-care test, functionality — on one truth table per relation.  Every
result here is checked against :class:`~repro.core.BooleanRelation`'s
node-level operations, which stay the wide path and the reference:

* seeded relations of every shape with ``n + m <= 16``, on contiguous,
  offset, gapped, interleaved and outputs-first frames;
* a relation of 17 variables, which the selection test turns down,
  solves on nodes, as before, and one whose function mentions a
  variable outside its frame is refused;
* ISFs packed over their own supports -- shifted, interleaved, up to 16
  variables wide, and shifted by whole 64-bit chunks of the table --
  unpack to the same intervals, and every built-in minimiser gives the
  same implementation on the packed ISF as on the nodes;
* reports agree with the layer switched off (the node-level
  computation).
"""

import random

import pytest

import repro
from repro import SolveRequest
from repro.bdd import BddManager
from repro.bdd.manager import FALSE
from repro.bdd.packed import MAX_TABLE_WIDTH, pack, unpack
from repro.benchdata import instance_by_name
from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver
from repro.core import brel as brel_module
from repro.core import quick as quick_module
from repro.core.isf import Isf, PackedIsf
from repro.core.minimize import (MINIMIZERS, minimize_isop,
                                 minimize_packed, minimizer_memo_key)
from repro.core.packedrel import pack_relation
from repro.core.relation import BooleanRelation
from repro.core.split import select_split_from_conflicts

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


#: The built-in minimisers, which run on packed ISFs.
PACKED_MINIMIZERS = [name for name, minimizer in MINIMIZERS.items()
                     if minimizer_memo_key(minimizer) == name]

ISF_WIDTH = 9


def fresh_manager(width=ISF_WIDTH):
    """A fresh manager of ``width`` variables."""
    return BddManager(["v%d" % i for i in range(width)])


def random_isfs(mgr, seed, count=40):
    """Seeded ISFs over shifted and interleaved supports.

    Each base interval (random ON/DC tables over ``k`` variables) is
    embedded at several variable placements, so the set mixes ISFs
    equal up to an order-preserving renaming with genuinely different
    ones.
    """
    rng = random.Random(seed)
    placements = [(0, 1, 2), (3, 4, 5), (1, 4, 7), (2, 5, 8),
                  (0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 4, 6), (5, 6, 7, 8),
                  (1, 3, 5, 7)]
    bases = []
    for _ in range(count // 4):
        k = rng.choice((3, 4))
        points = list(range(1 << k))
        on = {p for p in points if rng.random() < 0.4}
        dc = {p for p in points if p not in on and rng.random() < 0.3}
        bases.append((k, sorted(on), sorted(dc)))
    # An interval whose cover the elimination pre-pass changes, so the
    # two ``isop`` minimisers give different answers.
    bases.append((4, [2, 5, 8, 9, 12], [0, 1, 3, 6, 7, 10, 13, 14, 15]))
    isfs = []
    for k, on, dc in bases:
        for variables in [p for p in placements if len(p) == k]:
            isfs.append(Isf(mgr, mgr.from_minterms(variables, on),
                            mgr.from_minterms(variables, dc),
                            tuple(range(ISF_WIDTH))))
    return isfs


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


def joint_support(isf):
    return tuple(sorted(set(isf.mgr.support(isf.on))
                        | set(isf.mgr.support(isf.dc))))


def pack_isf(isf):
    """``isf`` as tables over its own support."""
    support = joint_support(isf)
    on, dc = pack(isf.mgr, (isf.on, isf.dc), support)
    return PackedIsf(isf.mgr, on, dc, support, isf.inputs)


def check_packed_isf(packed, isf, names=PACKED_MINIMIZERS):
    """``packed`` holds ``isf``, and each named minimiser implements it
    the same way on either form."""
    mgr = isf.mgr
    assert packed.support == joint_support(isf)
    unpacked = packed.unpack()
    assert (unpacked.on, unpacked.dc, unpacked.inputs) \
        == (isf.on, isf.dc, isf.inputs)
    for name in names:
        table = minimize_packed(packed, MINIMIZERS[name], name)
        node = MINIMIZERS[name](isf)
        assert unpack(mgr, table, packed.support) == node, name
        assert [table] == pack(mgr, (node,), packed.support), name


def isf_tables(relation, isf, frame):
    return tuple(pack(relation.mgr, (isf.on, isf.dc), frame))


def split_outcome(relation, conflicts):
    try:
        return select_split_from_conflicts(relation, conflicts)
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
    packed, current = view, relation
    for position in order:
        isf = current.project(position)
        assert packed.project(position) \
            == isf_tables(relation, isf, frame)
        expected = minimize_isop(isf)
        function = packed.minimize(position, minimize_isop)
        assert unpack(mgr, function, frame) == expected
        assert [function] == pack(mgr, (expected,), frame)
        current = current.restrict_output(position, expected)
        packed = packed.restrict_output(position, function)
        assert packed.table == pack_relation(current).table
    # Conflicts and the split choice for random function vectors.
    for _ in range(3):
        functions = [rng.getrandbits(1 << n) for _ in range(m)]
        nodes = [unpack(mgr, function, frame) for function in functions]
        expected = relation.conflict_inputs(nodes)
        conflicts = view.conflict_inputs(functions)
        assert unpack(mgr, conflicts, frame) == expected
        assert view.conflict_inputs(pack(mgr, nodes, frame)) \
            == conflicts
        if expected != FALSE:
            assert split_outcome(view, conflicts) \
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
        assert relation.function_vector() == functions
        assert view.function_vector() \
            == pack(mgr, functions, view.frame)
        partial = cube_relation(mgr, inputs, outputs, rng,
                                well_defined=False)
        view = pack_relation(partial)
        assert view.is_well_defined() == partial.is_well_defined()
        assert view.is_function() == partial.is_function()
        if not partial.is_function():
            with pytest.raises(ValueError):
                view.function_vector()


def solve_row(result):
    stats = result.stats
    return (result.solution.describe(), result.solution.cost,
            stats.relations_explored, stats.splits, stats.cost_prunes,
            stats.quick_solutions)


class TestNodePath:
    def test_out_of_frame_variable(self):
        """A relation whose function mentions a variable outside its
        inputs and outputs is refused, naming it, before any event."""
        rng = random.Random(5)
        mgr = BddManager(["v%d" % i for i in range(8)])
        inputs, outputs = (0, 1, 2), (3, 4)
        low = cube_relation(mgr, inputs, outputs, rng)
        high = cube_relation(mgr, inputs, outputs, rng)
        gapped = low.with_node(mgr.ite(mgr.var(7), high.node, low.node))
        drawn = random_relation(6, 4, seed=1)
        z = drawn.mgr.add_var("z")
        y0, y1 = (drawn.mgr.var(var) for var in drawn.outputs[:2])
        stray = drawn.with_node(drawn.mgr.or_(
            drawn.node, drawn.mgr.and_(drawn.mgr.var(z),
                                       drawn.mgr.and_(y0, y1))))
        for relation, name in ((gapped, "v7"), (stray, "z")):
            assert relation.is_well_defined()
            assert pack_relation(relation) is None
            events = []
            with pytest.raises(ValueError, match="outside its inputs and "
                               "outputs: %s$" % name):
                BrelSolver(BrelOptions(max_explored=5)).solve(
                    relation, observer=events.append)
            assert events == []

    def test_seventeen_variables(self, monkeypatch):
        relation = random_relation(12, 5, seed=4)
        assert pack_relation(relation) is None
        options = BrelOptions(max_explored=4, decompose=False)
        packed = solve_row(BrelSolver(options).solve(relation))
        off(monkeypatch)
        fresh = random_relation(12, 5, seed=4)
        assert solve_row(BrelSolver(options).solve(fresh)) == packed


class TestPackedIsfs:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shifted_supports_match_the_nodes(self, seed):
        mgr = fresh_manager()
        isfs = random_isfs(mgr, seed)
        for isf in isfs:
            check_packed_isf(pack_isf(isf), isf)
        # Shifted copies of one base pack to equal tables.
        tables = {(packed.on, packed.dc)
                  for packed in map(pack_isf, isfs)}
        assert 1 < len(tables) < len(isfs)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_wide_supports_match_the_nodes(self, seed):
        # Tables of 7 or more variables span several 64-bit chunks;
        # the placements under ``a`` / ``~a`` shift one table by whole
        # chunks.  Only the ``isop`` minimisers run a packed kernel.
        mgr = fresh_manager(MAX_TABLE_WIDTH)
        for isf in wide_isfs(mgr, seed):
            check_packed_isf(pack_isf(isf), isf, ("isop", "isop-noelim"))

    @pytest.mark.parametrize("k", range(7, MAX_TABLE_WIDTH + 1))
    def test_chunk_shifted_tables_pack_apart(self, k):
        mgr = BddManager(["v%d" % i for i in range(MAX_TABLE_WIDTH)])
        rng = random.Random(k)
        a = mgr.var(0)
        g = full_support_function(mgr, list(range(1, k)), rng)
        h = full_support_function(mgr, list(range(2, k)), rng)
        frame = tuple(range(MAX_TABLE_WIDTH))
        intervals = [(mgr.and_(a, g), FALSE),
                     (mgr.and_(mgr.not_(a), g), FALSE),
                     (FALSE, mgr.and_(mgr.not_(a), g))]
        intervals += [(mgr.and_(mgr.cube({0: pa, 1: pb}), h), FALSE)
                      for pa in (False, True) for pb in (False, True)]
        tables = set()
        for on, dc in intervals:
            isf = Isf(mgr, on, dc, frame)
            packed = pack_isf(isf)
            assert len(packed.support) == k
            check_packed_isf(packed, isf, ("isop", "isop-noelim"))
            tables.add((packed.on, packed.dc))
        assert len(tables) == len(intervals)

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_view_isfs_match_the_nodes(self, seed):
        relation = random_relation(6, 4, seed=seed)
        view = pack_relation(relation)
        # The exact search takes at most 12 don't-care points, fewer
        # than six-input ISFs have.
        names = [name for name in PACKED_MINIMIZERS if name != "exact"]
        for position in range(4):
            isf = relation.project(position)
            check_packed_isf(view.isf(*view.project(position)), isf, names)
            for name in names:
                table = view.minimize(position, MINIMIZERS[name])
                node = MINIMIZERS[name](isf)
                assert unpack(relation.mgr, table, view.frame) == node, name
                assert [table] \
                    == pack(relation.mgr, (node,), view.frame), name


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


def reports(**fields):
    """Report rows of five solves through one session."""
    relations = [instance_by_name(name).build() for name in ("vtx", "int3")]
    relations += [random_relation(*shape, seed=seed)
                  for shape, seed in (((5, 3), 1), ((6, 4), 2),
                                      ((4, 6), 3))]
    session = repro.Session()
    return [report_row(session.solve(
        SolveRequest(max_explored=12, **fields), relation=relation))
        for relation in relations]


class TestReports:
    @pytest.mark.parametrize("minimizer", ["constrain", "licompact",
                                           "isop-noelim"])
    def test_minimizers_match_the_node_path(self, minimizer, monkeypatch):
        packed = reports(minimizer=minimizer)
        off(monkeypatch)
        assert reports(minimizer=minimizer) == packed

    def test_isop_matches_the_node_path(self, monkeypatch):
        packed = reports()
        off(monkeypatch)
        assert reports() == packed

    def test_custom_minimizer_gets_unpacked_isfs(self, monkeypatch):
        seen = []

        def custom(isf):
            seen.append(type(isf))
            return MINIMIZERS["isop"](isf)

        relation = random_relation(5, 3, seed=8)
        options = BrelOptions(minimizer=custom, max_explored=8)
        packed = solve_row(BrelSolver(options).solve(relation))
        assert seen and set(seen) == {Isf}
        off(monkeypatch)
        assert solve_row(BrelSolver(options).solve(
            random_relation(5, 3, seed=8))) == packed
