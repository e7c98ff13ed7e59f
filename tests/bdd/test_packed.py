"""The packed truth-table kernel against the node-level reference.

:mod:`repro.bdd.packed` is the solver's only truth-table engine: every
narrow MISF step, ISOP and cost of a solve runs on its primitives.  Each
primitive is checked on every frame width it serves, against the
node-level operation it stands in for or against point-by-point
evaluation:

* ``frame_masks`` are the packed tables of the frame's literals;
* ``pack`` agrees with ``eval`` at every point, ``unpack`` inverts it,
  and ``pack_positions`` honours any assignment of positions;
* ``squeeze`` is ``pack`` over the kept sub-frame, ``spread`` its inverse;
* ``table_size`` is ``shared_size`` of the packed nodes;
* ``cover_table`` is the OR of its cubes' nodes;
* ``eliminate`` is Brown's node-level elimination;
* ``packed_isop`` gives ``interval_isop``'s cubes and cover, building no
  node;
* ``table_nodes`` is ``function_nodes`` of the unpacked node.

:func:`repro.bdd.packed.interval_isop` must return exactly what Brown's
elimination plus the Minato-Morreale expansion of :mod:`repro.bdd.isop`
return — the same cube list in the same order, and the same node —
whether the frame is packed (at most 16 variables) or wide (the
node-level fallback).  ``BooleanRelation.from_output_sets``
builds bottom-up and must give the node of the minterm-OR definition.
"""
import random

import pytest

from repro.bdd import BddManager
from repro.bdd.isop import eliminate_nonessential, expand
from repro.bdd.manager import FALSE, TRUE
from repro.bdd.packed import (MAX_FRAME_WIDTH, MAX_TABLE_WIDTH,
                              cover_table, eliminate, frame_masks,
                              interval_isop, pack, pack_positions,
                              packed_isop, spread, squeeze, table_nodes,
                              table_size, unpack)
from repro.core.isf import Isf
from repro.core.minimize import (_isop_pipeline,
                                 eliminate_nonessential_variables)
from repro.core.relation import BooleanRelation
from repro.core.relio import function_nodes


#: Every width the table helpers serve, and every width the ISOP kernel
#: packs.
FRAME_WIDTHS = range(MAX_FRAME_WIDTH + 1)
TABLE_WIDTHS = range(MAX_TABLE_WIDTH + 1)

#: Widths small enough to evaluate every point of the frame.
EVAL_WIDTHS = range(11)


def random_rank_cubes(rng, width, count):
    """``count`` random cubes as ``(rank, polarity)`` lists over a
    ``width``-variable frame, a few literals each."""
    if not width:
        return [[] for _ in range(count)]
    return [[(rank, rng.random() < 0.5)
             for rank in rng.sample(range(width),
                                    rng.randint(1, min(width, 5)))]
            for _ in range(count)]


def cubes_node(mgr, frame, cubes):
    """The node of a cover of ``(rank, polarity)`` cubes, built by the
    manager's own operations."""
    node = FALSE
    for cube in cubes:
        node = mgr.or_(node, mgr.cube({frame[rank]: value
                                       for rank, value in cube}))
    return node


def random_cubes(mgr, rng, frame, count):
    """OR of ``count`` random cubes over ``frame`` (a few literals each)."""
    return cubes_node(mgr, frame, random_rank_cubes(rng, len(frame), count))


def random_functions(mgr, frame, rng, count=4):
    """Seeded nodes over ``frame``: the constants, full random tables on
    narrow frames, and covers of random cubes."""
    nodes = [FALSE, TRUE]
    width = len(frame)
    for _ in range(count):
        if width <= 8 and rng.random() < 0.5:
            nodes.append(mgr.from_minterms(
                frame, [p for p in range(1 << width)
                        if rng.random() < 0.5]))
        else:
            nodes.append(random_cubes(mgr, rng, frame,
                                      rng.randint(1, 4 + width // 2)))
    return nodes


def random_interval(mgr, rng, frame):
    """A seeded ``lower <= upper`` pair whose joint support is ``frame``
    (or part of it): random cubes, plus full tables on small frames."""
    if not frame:
        lower = rng.choice((FALSE, TRUE))
        return lower, rng.choice((lower, TRUE))
    if len(frame) <= 8 and rng.random() < 0.5:
        points = range(1 << len(frame))
        lower = mgr.from_minterms(frame, [p for p in points
                                          if rng.random() < 0.3])
        extra = mgr.from_minterms(frame, [p for p in points
                                          if rng.random() < 0.4])
    else:
        count = 4 + len(frame) // 2
        lower = random_cubes(mgr, rng, frame, rng.randint(1, count))
        extra = random_cubes(mgr, rng, frame, rng.randint(0, count))
    return lower, mgr.or_(lower, extra)


def reference(mgr, lower, upper, eliminate_first=False):
    """Node-level elimination and expansion, call-scoped table."""
    if eliminate_first:
        lower, upper = eliminate_nonessential(mgr, lower, upper)
    (cubes, node), _, _ = expand(mgr, lower, upper, {}, float("inf"))
    return [dict(cube) for cube in cubes], node


def ordered(cover):
    """A cover with each cube's literal order made comparable."""
    return [list(cube.items()) for cube in cover]


def gapped_frame(width, rng):
    """``(manager, frame)``: ``width`` sorted variables out of a few
    more, so frame ranks and manager levels differ."""
    num_vars = width + rng.randint(0, 5)
    mgr = BddManager(["v%d" % i for i in range(num_vars)])
    return mgr, sorted(rng.sample(range(num_vars), width))


def assignment_at(frame, index):
    """The frame point of table bit ``index``: rank ``r`` sits on
    position ``k-1-r``."""
    top = len(frame) - 1
    return {var: bool(index >> (top - rank) & 1)
            for rank, var in enumerate(frame)}


def kept_frame(frame, keep):
    """The sub-frame of the positions set in ``keep``, in frame order."""
    top = len(frame) - 1
    return [var for rank, var in enumerate(frame)
            if keep >> (top - rank) & 1]


def frames(seed, count=30):
    """Seeded ``(num_vars, frame)`` pairs: widths 0..17, gapped frames,
    frames past level 64."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        width = index % (MAX_TABLE_WIDTH + 2)
        num_vars = rng.choice((width, width + 5, 80))
        num_vars = max(num_vars, width)
        out.append((num_vars, sorted(rng.sample(range(num_vars), width))))
    return out


class TestPackedMatchesExpand:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_covers_and_nodes_identical(self, seed):
        rng = random.Random(seed)
        for num_vars, frame in frames(seed):
            mgr = BddManager(["v%d" % i for i in range(num_vars)])
            lower, upper = random_interval(mgr, rng, frame)
            for eliminate_first in (False, True):
                expected = reference(mgr, lower, upper, eliminate_first)
                cover, node = interval_isop(mgr, lower, upper, None,
                                            eliminate_first)
                assert ordered(cover) == ordered(expected[0])
                assert node == expected[1]
                assert mgr.isop(lower, upper) == reference(mgr, lower,
                                                           upper)

    def test_explicit_frame_wider_than_the_support(self):
        rng = random.Random(4)
        mgr = BddManager(["v%d" % i for i in range(70)])
        frame = (2, 9, 30, 64, 65, 69)
        for _ in range(20):
            lower, upper = random_interval(mgr, rng, frame[1:5])
            assert interval_isop(mgr, lower, upper, frame, True) \
                == reference(mgr, lower, upper, True)

    def test_lower_above_upper_raises(self):
        for width in (3, MAX_TABLE_WIDTH + 1):
            mgr = BddManager(["v%d" % i for i in range(width)])
            lower, upper = mgr.var(0), mgr.var(width - 1)
            with pytest.raises(ValueError):
                mgr.isop(lower, upper)
            with pytest.raises(ValueError):
                interval_isop(mgr, lower, upper, None, True)

    def test_wide_frames_use_the_node_table(self):
        width = MAX_TABLE_WIDTH + 1
        mgr = BddManager(["v%d" % i for i in range(width)])
        lower = FALSE
        for var in range(width - 1):
            lower = mgr.or_(lower, mgr.cube({var: True, var + 1: True}))
        upper = mgr.or_(lower, mgr.cube({0: True, width - 1: False}))
        mgr.enter_solve()
        try:
            assert mgr.isop(lower, upper) == reference(mgr, lower, upper)
            keys = list(mgr._isop_table)
        finally:
            mgr.exit_solve()
        assert keys and all(len(key) == 2 for key in keys)

    def test_shifted_intervals_share_packed_entries(self):
        mgr = BddManager(["v%d" % i for i in range(12)])
        rng = random.Random(6)
        cubes = [{var: rng.random() < 0.5 for var in rng.sample(range(4),
                                                                 3)}
                 for _ in range(4)]
        mgr.enter_solve()
        try:
            covers = []
            for offset in (0, 5):
                lower = FALSE
                for cube in cubes:
                    lower = mgr.or_(lower, mgr.cube(
                        {var + offset: value
                         for var, value in cube.items()}))
                hits = mgr.stats()["isop_hits"]
                covers.append(mgr.isop(lower, lower)[0])
            # The shifted copy is served from the first one's entries.
            assert mgr.stats()["isop_hits"] > hits
        finally:
            mgr.exit_solve()
        assert [{var - 5: value for var, value in cube.items()}
                for cube in covers[1]] == covers[0]


    @pytest.mark.parametrize("pipeline_first", [False, True])
    def test_interval_keys_never_meet_sub_interval_keys(self,
                                                        pipeline_first):
        # [v0'v1', v0'v1'] stores the packed sub-interval (2, 1, 1);
        # eliminating [v0, TRUE] is the call on handles (2, TRUE) with
        # elimination on, which must not share that key.
        mgr = BddManager(["v0", "v1"])
        assert mgr.var(0) == 2 and TRUE == 1
        both = mgr.and_(mgr.nvar(0), mgr.nvar(1))
        isf = Isf(mgr, mgr.var(0), mgr.nvar(0), (0, 1))
        mgr.enter_solve()
        try:
            for step in ((1, 0) if pipeline_first else (0, 1)):
                if step:
                    assert _isop_pipeline(isf, True) == ([{}], TRUE)
                else:
                    assert mgr.isop(both, both) \
                        == ([{0: False, 1: False}], both)
        finally:
            mgr.exit_solve()


class TestPackedElimination:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_matches_node_elimination(self, seed):
        rng = random.Random(seed)
        for num_vars, frame in frames(seed):
            if len(frame) > MAX_TABLE_WIDTH:
                continue
            mgr = BddManager(["v%d" % i for i in range(num_vars)])
            lower, upper = random_interval(mgr, rng, frame)
            isf = Isf.from_interval(mgr, lower, upper, tuple(frame))
            expected = eliminate_nonessential_variables(isf)
            low, upp = eliminate(len(frame),
                                 *pack(mgr, (lower, upper), frame))
            assert [low, upp] == pack(mgr, (expected.on, expected.upper),
                                      frame)

    @pytest.mark.parametrize("width", FRAME_WIDTHS)
    def test_frame_masks(self, width):
        # The masks are the packed literals: rank r on position k-1-r.
        mgr, frame = gapped_frame(width, random.Random(width))
        zeros, ones = frame_masks(width)
        assert len(zeros) == len(ones) == width
        for rank, var in enumerate(frame):
            p = width - 1 - rank
            assert pack(mgr, [mgr.var(var), mgr.nvar(var)], frame) \
                == [ones[p], zeros[p]]
        if width == 3:
            assert zeros == (0x55, 0x33, 0x0F)
            assert ones == (0xAA, 0xCC, 0xF0)

    def test_pipeline_matches_reference(self):
        rng = random.Random(9)
        mgr = BddManager(["v%d" % i for i in range(6)])
        for _ in range(15):
            lower, upper = random_interval(mgr, rng, range(6))
            isf = Isf.from_interval(mgr, lower, upper, tuple(range(6)))
            narrowed = eliminate_nonessential_variables(isf)
            assert _isop_pipeline(isf, True) == reference(
                mgr, narrowed.on, narrowed.upper)


class TestPack:
    @pytest.mark.parametrize("width", EVAL_WIDTHS)
    def test_pack_agrees_with_eval(self, width):
        rng = random.Random(100 + width)
        mgr, frame = gapped_frame(width, rng)
        nodes = random_functions(mgr, frame, rng)
        for node, table in zip(nodes, pack(mgr, nodes, frame)):
            assert table >> (1 << width) == 0
            for index in range(1 << width):
                assert bool(table >> index & 1) \
                    == mgr.eval(node, assignment_at(frame, index))

    @pytest.mark.parametrize("width", FRAME_WIDTHS)
    def test_unpack_inverts_pack(self, width):
        rng = random.Random(200 + width)
        mgr, frame = gapped_frame(width, rng)
        nodes = random_functions(mgr, frame, rng)
        tables = pack(mgr, nodes, frame)
        assert [unpack(mgr, table, frame) for table in tables] == nodes
        # Packing one node at a time gives the shared walk's tables.
        assert [pack(mgr, [node], frame)[0] for node in nodes] == tables

    @pytest.mark.parametrize("width", EVAL_WIDTHS)
    def test_pack_positions_honours_any_order(self, width):
        rng = random.Random(300 + width)
        mgr, frame = gapped_frame(width, rng)
        positions = list(range(width))
        rng.shuffle(positions)
        position = dict(zip(frame, positions))
        nodes = random_functions(mgr, frame, rng)
        for node, table in zip(nodes, pack_positions(mgr, nodes, position,
                                                     width)):
            for index in range(1 << width):
                point = {var: bool(index >> position[var] & 1)
                         for var in frame}
                assert bool(table >> index & 1) == mgr.eval(node, point)

    def test_variable_outside_the_frame_raises(self):
        mgr = BddManager(["v0", "v1", "v2"])
        node = mgr.and_(mgr.var(0), mgr.var(2))
        with pytest.raises(KeyError):
            pack(mgr, [node], [0, 1])


class TestSqueezeSpread:
    @pytest.mark.parametrize("width", TABLE_WIDTHS)
    def test_squeeze_is_pack_over_the_kept_positions(self, width):
        rng = random.Random(400 + width)
        mgr, frame = gapped_frame(width, rng)
        full = (1 << width) - 1
        for keep in (0, full, rng.getrandbits(width),
                     rng.getrandbits(width)):
            sub = kept_frame(frame, keep)
            for node in random_functions(mgr, sub, rng, 3):
                (table,) = pack(mgr, [node], frame)
                assert squeeze(table, width, keep) \
                    == pack(mgr, [node], sub)[0]

    @pytest.mark.parametrize("width", TABLE_WIDTHS)
    def test_spread_is_pack_over_the_whole_frame(self, width):
        rng = random.Random(500 + width)
        mgr, frame = gapped_frame(width, rng)
        full = (1 << width) - 1
        for keep in (0, full, rng.getrandbits(width),
                     rng.getrandbits(width)):
            sub = kept_frame(frame, keep)
            for node in random_functions(mgr, sub, rng, 3):
                (table,) = pack(mgr, [node], sub)
                spread_table = spread(table, width, keep)
                assert spread_table == pack(mgr, [node], frame)[0]
                assert squeeze(spread_table, width, keep) == table


class TestTableSize:
    @pytest.mark.parametrize("width", FRAME_WIDTHS)
    def test_table_size_is_shared_size(self, width):
        rng = random.Random(600 + width)
        mgr, frame = gapped_frame(width, rng)
        nodes = random_functions(mgr, frame, rng, 5)
        tables = pack(mgr, nodes, frame)
        assert table_size(tables, width) == mgr.shared_size(nodes)
        for node, table in zip(nodes, tables):
            assert table_size([table], width) == mgr.size(node)


class TestCoverTable:
    @pytest.mark.parametrize("width", FRAME_WIDTHS)
    def test_cover_table_is_the_or_of_its_cubes(self, width):
        rng = random.Random(700 + width)
        mgr, frame = gapped_frame(width, rng)
        covers = [[], [[]]] + [random_rank_cubes(rng, width,
                                                 rng.randint(1, 8))
                               for _ in range(4)]
        for cubes in covers:
            assert cover_table(width, cubes) \
                == pack(mgr, [cubes_node(mgr, frame, cubes)], frame)[0]


class TestPackedIsop:
    @pytest.mark.parametrize("eliminate_first", [False, True])
    @pytest.mark.parametrize("width", TABLE_WIDTHS)
    def test_matches_interval_isop(self, width, eliminate_first):
        rng = random.Random(900 + width)
        mgr, frame = gapped_frame(width, rng)
        top = width - 1
        for _ in range(4):
            lower, extra = random_functions(mgr, frame, rng, 2)[2:]
            upper = mgr.or_(lower, extra)
            low, upp = pack(mgr, (lower, upper), frame)
            nodes = mgr.num_nodes
            cubes, cover = packed_isop(mgr, low, upp, width,
                                       eliminate_first)
            assert mgr.num_nodes == nodes
            expected, node = interval_isop(mgr, lower, upper, frame,
                                           eliminate_first)
            assert [[(frame[top - p], value) for p, value in cube]
                    for cube in cubes] \
                == [list(cube.items()) for cube in expected]
            assert cover == pack(mgr, [node], frame)[0]
            assert cover_table(width, [[(top - p, value)
                                        for p, value in cube]
                                       for cube in cubes]) == cover
            assert not low & ~cover and not cover & ~upp


class TestTableNodes:
    """``table_nodes`` is ``function_nodes`` of the unpacked node, with
    no manager, at every width the table helpers serve."""

    @pytest.mark.parametrize("width", range(MAX_FRAME_WIDTH + 1))
    def test_matches_function_nodes_of_unpack(self, width):
        rng = random.Random(300 + width)
        tables = [0, (1 << (1 << width)) - 1]
        if width <= MAX_TABLE_WIDTH:  # dense: BDDs near 2**width/width
            tables += [rng.getrandbits(1 << width) for _ in range(3)]
        for _ in range(4):  # sparse covers: wide tables, small BDDs
            tables.append(cover_table(width, [
                [(rank, rng.random() < 0.5) for rank in
                 rng.sample(range(width), rng.randint(1, min(width, 6)))]
                for _ in range(rng.randint(1, 8))] if width else []))
        frame = list(range(width))
        mgr = BddManager(["v%d" % var for var in frame])
        for table in tables:
            node = unpack(mgr, table, frame)
            assert pack(mgr, [node], frame) == [table]
            nodes, (root,) = function_nodes(
                mgr, (node,), {var: var for var in frame})
            assert table_nodes(table, width) == (nodes, root)


def minterm_or(rows, num_inputs, num_outputs):
    """The definition-level build of a relation node (reference)."""
    mgr = BddManager(["x%d" % i for i in range(num_inputs)]
                     + ["y%d" % j for j in range(num_outputs)])
    inputs = list(range(num_inputs))
    outputs = list(range(num_inputs, num_inputs + num_outputs))
    node = FALSE
    for value, row in enumerate(rows):
        out_node = FALSE
        for out_value in row:
            out_node = mgr.or_(out_node, mgr.minterm(outputs, out_value))
        node = mgr.or_(node, mgr.and_(mgr.minterm(inputs, value),
                                      out_node))
    return mgr, node


class TestFromOutputSets:
    @pytest.mark.parametrize("shape", [(0, 1), (0, 3), (1, 1), (3, 1),
                                       (4, 3), (6, 2)])
    @pytest.mark.parametrize("rows_kind", ["random", "full", "singleton"])
    def test_same_node_as_minterm_or(self, shape, rows_kind):
        num_inputs, num_outputs = shape
        rng = random.Random(num_inputs * 10 + num_outputs)
        space = range(1 << num_outputs)
        rows = []
        for _ in range(1 << num_inputs):
            if rows_kind == "full":
                rows.append(set(space))
            elif rows_kind == "singleton":
                rows.append({rng.choice(space)})
            else:
                rows.append(set(rng.sample(space,
                                           rng.randint(1, len(space)))))
        mgr, expected = minterm_or(rows, num_inputs, num_outputs)
        relation = BooleanRelation.from_output_sets(
            rows, num_inputs, num_outputs, mgr=mgr)
        assert relation.node == expected
        fresh = BooleanRelation.from_output_sets(rows, num_inputs,
                                                 num_outputs)
        assert [fresh.output_set(v) for v in range(1 << num_inputs)] \
            == [set(row) for row in rows]
