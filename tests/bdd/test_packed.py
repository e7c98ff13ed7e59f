"""The packed narrow-interval kernel against the node-level reference.

:func:`repro.bdd.packed.interval_isop` must return exactly what Brown's
elimination plus the Minato-Morreale expansion of :mod:`repro.bdd.isop`
return — the same cube list in the same order, and the same node — on
either engine, whether the frame is packed (at most 16 variables) or
wide (the node-level fallback).  ``BooleanRelation.from_output_sets``
builds bottom-up and must give the node of the minterm-OR definition.
"""

import random

import pytest

from repro.bdd import BddManager
from repro.bdd.isop import eliminate_nonessential, expand
from repro.bdd.manager import FALSE, TRUE
from repro.bdd.packed import (MAX_FRAME_WIDTH, MAX_TABLE_WIDTH,
                              cover_table, eliminate, frame_masks,
                              interval_isop, pack, reverse_index,
                              table_nodes, unpack)
from repro.core.isf import Isf
from repro.core.minimize import (_isop_pipeline,
                                 eliminate_nonessential_variables)
from repro.core.relation import BooleanRelation
from repro.core.relio import function_nodes
from repro.table import TableManager, npkernel

KERNELS = ["int"] + (["numpy"] if npkernel.available() else [])


def random_cubes(mgr, rng, frame, count):
    """OR of ``count`` random cubes over ``frame`` (a few literals each)."""
    node = FALSE
    for _ in range(count):
        width = rng.randint(1, min(len(frame), 5))
        cube = {var: rng.random() < 0.5
                for var in rng.sample(list(frame), width)}
        node = mgr.or_(node, mgr.cube(cube))
    return node


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

    def test_frame_masks_and_index_reversal(self):
        zeros, ones = frame_masks(3)
        assert zeros == (0x55, 0x33, 0x0F)
        assert ones == (0xAA, 0xCC, 0xF0)
        assert frame_masks(0) == ((), ())
        rng = random.Random(11)
        for n in range(MAX_TABLE_WIDTH + 1):
            table = rng.getrandbits(1 << n)
            reversed_table = reverse_index(n, table)
            for index in rng.sample(range(1 << n), min(1 << n, 50)):
                mirrored = int(format(index, "0%db" % n)[::-1] or "0", 2)
                assert (reversed_table >> mirrored) & 1 \
                    == (table >> index) & 1
            assert reverse_index(n, reversed_table) == table

    def test_pipeline_matches_reference_on_both_engines(self):
        rng = random.Random(9)
        names = ["v%d" % i for i in range(6)]
        for mgr in [BddManager(names)] + [
                TableManager(names, max_width=6, kernel=kernel)
                for kernel in KERNELS]:
            for _ in range(15):
                lower, upper = random_interval(mgr, rng, range(6))
                isf = Isf.from_interval(mgr, lower, upper, tuple(range(6)))
                narrowed = eliminate_nonessential_variables(isf)
                assert _isop_pipeline(isf, True) == reference(
                    mgr, narrowed.on, narrowed.upper)


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


class TestTableEngine:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("width", [1, 7, 12])
    def test_isop_matches_expand_on_the_same_manager(self, kernel, width):
        rng = random.Random(width)
        mgr = TableManager(["v%d" % i for i in range(width)],
                           max_width=width, kernel=kernel)
        for _ in range(12):
            frame = sorted(rng.sample(range(width), rng.randint(0, width)))
            lower, upper = random_interval(mgr, rng, frame)
            expected = reference(mgr, lower, upper)
            cover, node = mgr.isop(lower, upper)
            assert ordered(cover) == ordered(expected[0])
            assert node == expected[1]

    @pytest.mark.skipif("numpy" not in KERNELS, reason="numpy missing")
    def test_wide_numpy_frame_falls_back_to_expand(self):
        width = MAX_TABLE_WIDTH + 1
        mgr = TableManager(["v%d" % i for i in range(width)],
                           max_width=width, kernel="numpy")
        rng = random.Random(10)
        frame = (0, 3, 8, 16)
        lower = random_cubes(mgr, rng, frame, 3)
        upper = mgr.or_(lower, random_cubes(mgr, rng, frame, 2))
        assert mgr.isop(lower, upper) == reference(mgr, lower, upper)
        with pytest.raises(ValueError):
            mgr.isop(mgr.var(0), mgr.var(16))


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

    def test_table_engine_matches(self):
        rows = [{0, 3}, {1}, {2, 3}, {0}, {1, 2}, {3}, {0, 1}, {2}]
        mgr = TableManager(["v%d" % i for i in range(5)], max_width=5)
        relation = BooleanRelation.from_output_sets(rows, 3, 2, mgr=mgr)
        assert [relation.output_set(v) for v in range(8)] == rows
