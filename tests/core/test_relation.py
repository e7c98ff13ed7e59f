"""Tests for BooleanRelation structural operations against the set oracle."""

import pytest
from hypothesis import given, settings

from repro.bdd import FALSE, TRUE
from repro.core import BooleanRelation, NotWellDefinedError

from .reference import SetRelation
from .strategies import relations_with_vertex_and_output, set_relations


class TestConstruction:
    def test_from_output_sets_rows_roundtrip(self):
        rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
        relation = BooleanRelation.from_output_sets(rows, 2, 2)
        assert [outs for _, outs in relation.rows()] == rows

    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            BooleanRelation.from_output_sets([{0}], 2, 1)

    @pytest.mark.parametrize("rows, row, value", [
        ([{1}, {4}, {0}, {2}], 1, 4),
        ([{1}, {0}, {-1}, {2}], 2, -1),
        ([{0, 1}, {2}, {3}, {3, 9}], 3, 9),
    ])
    def test_out_of_range_output_vertex_rejected(self, rows, row, value):
        # Vertices outside 0..2**m-1 used to be truncated silently into
        # a different relation.
        with pytest.raises(ValueError, match="row %d: output vertex %d "
                           % (row, value)):
            BooleanRelation.from_output_sets(rows, 2, 2)

    def test_universe_contains_everything(self):
        rows = [{0, 1}, {0}, {1}, {0, 1}]
        relation = BooleanRelation.from_output_sets(rows, 2, 1)
        universe = BooleanRelation.universe(relation.mgr, relation.inputs,
                                            relation.outputs)
        assert relation <= universe

    def test_from_functions_is_functional(self):
        rows = [{0, 1}] * 4
        frame = BooleanRelation.from_output_sets(rows, 2, 1)
        mgr = frame.mgr
        func = mgr.and_(mgr.var(0), mgr.var(1))
        relation = BooleanRelation.from_functions(
            mgr, frame.inputs, frame.outputs, [func])
        assert relation.is_function()
        assert relation.function_vector() == [func]

    def test_overlapping_variables_rejected(self):
        rows = [{0, 1}] * 4
        frame = BooleanRelation.from_output_sets(rows, 2, 1)
        with pytest.raises(ValueError):
            BooleanRelation(frame.mgr, (0, 1), (1, 2), TRUE)


class TestPredicates:
    def test_well_defined_detection(self):
        good = BooleanRelation.from_output_sets([{0}, {1}], 1, 1)
        assert good.is_well_defined()
        bad = BooleanRelation.from_output_sets([set(), {1}], 1, 1)
        assert not bad.is_well_defined()

    def test_require_well_defined_raises(self):
        bad = BooleanRelation.from_output_sets([set(), {1}], 1, 1)
        with pytest.raises(NotWellDefinedError):
            bad.require_well_defined()

    def test_function_detection(self):
        func = BooleanRelation.from_output_sets([{0}, {1}, {1}, {0}], 2, 1)
        assert func.is_function()
        nonfunc = BooleanRelation.from_output_sets([{0, 1}, {1}, {1}, {0}],
                                                   2, 1)
        assert not nonfunc.is_function()

    def test_pair_count(self):
        relation = BooleanRelation.from_output_sets(
            [{0, 1}, {1}, {1, 2}, {0}], 2, 2)
        assert relation.pair_count() == 6


class TestFunctionVector:
    def test_extracts_functions(self):
        func = BooleanRelation.from_output_sets([{0}, {1}, {1}, {0}],
                                                2, 1)
        assert func.is_function()
        vector = func.function_vector()
        assert len(vector) == 1

    def test_raises_on_flexible_relation(self):
        flexible = BooleanRelation.from_output_sets(
            [{0, 1}, {1}, {1}, {0}], 2, 1)
        assert not flexible.is_function()
        with pytest.raises(ValueError, match="functional relation"):
            flexible.function_vector()

    def test_raises_on_not_well_defined_relation(self):
        partial = BooleanRelation.from_output_sets([set(), {1}], 1, 1)
        with pytest.raises(ValueError, match="not well defined"):
            partial.function_vector()


class TestSupportAnalysis:
    def test_output_support_tracks_dependencies(self):
        # y0 = x0 and y1 = x1: each output depends on its own input.
        rows = [{(value & 1) | ((value >> 1) << 1)}
                for value in range(4)]
        relation = BooleanRelation.from_output_sets(rows, 2, 2)
        assert relation.output_support(0) == (0,)
        assert relation.output_support(1) == (1,)
        assert relation.output_supports() == [(0,), (1,)]

    def test_input_support_drops_unused_inputs(self):
        # The output ignores x1 entirely.
        relation = BooleanRelation.from_output_sets(
            [{0}, {1}, {0}, {1}], 2, 1)
        assert relation.input_support() == (0,)

    def test_constant_output_has_empty_support(self):
        relation = BooleanRelation.from_output_sets([{1}, {1}], 1, 1)
        assert relation.output_support(0) == ()


class TestProjectDegenerate:
    """project() on degenerate relations (previously only exercised
    through the solver)."""

    def test_empty_relation_projects_to_empty_isf(self):
        empty = BooleanRelation.from_output_sets([set(), set()], 1, 1)
        assert empty.node == FALSE
        isf = empty.project(0)
        # Nothing is allowed: no onset, no don't-cares.
        assert isf.on == FALSE
        assert isf.dc == FALSE
        assert isf.upper == FALSE

    def test_single_output_projection_is_the_relation_itself(self):
        relation = BooleanRelation.from_output_sets(
            [{0}, {0, 1}, {1}, {1}], 2, 1)
        isf = relation.project(0)
        mgr = relation.mgr
        # Onset: vertices forced to 1; don't-care: vertices allowing
        # both.  Rebuilding the relation from the interval reproduces
        # the characteristic function exactly.
        rebuilt = mgr.or_(
            mgr.and_(mgr.var(relation.outputs[0]), isf.upper),
            mgr.and_(mgr.nvar(relation.outputs[0]), mgr.not_(isf.on)))
        assert rebuilt == relation.node

    def test_output_independent_of_all_inputs(self):
        # y0 is always free, whatever the input: the ISF is the full
        # don't-care interval [0, 1] with empty support.
        relation = BooleanRelation.from_output_sets(
            [{0, 1}, {0, 1}, {0, 1}, {0, 1}], 2, 1)
        isf = relation.project(0)
        assert isf.on == FALSE
        assert isf.dc == TRUE
        assert isf.upper == TRUE
        assert relation.output_support(0) == ()

    def test_constant_output_projection(self):
        relation = BooleanRelation.from_output_sets([{1}, {1}], 1, 1)
        isf = relation.project(0)
        assert isf.on == TRUE
        assert isf.dc == FALSE


class TestAlgebra:
    def test_intersect_union(self):
        left = BooleanRelation.from_output_sets([{0, 1}, {0}], 1, 1)
        right = left.with_node(left.mgr.not_(left.node))
        assert left.intersect(right).pair_count() == 0
        assert left.union(right).pair_count() == 4

    def test_order_operators(self):
        big = BooleanRelation.from_output_sets([{0, 1}, {0, 1}], 1, 1)
        mgr = big.mgr
        # y0 == x0 as a sub-relation in the same manager/frame.
        small = big.with_node(mgr.xnor_(mgr.var(big.outputs[0]),
                                        mgr.var(big.inputs[0])))
        assert small <= big
        assert small < big
        assert not (big <= small)

    def test_frame_mismatch_raises(self):
        a = BooleanRelation.from_output_sets([{0}, {1}], 1, 1)
        b = BooleanRelation.from_output_sets([{0}, {1}], 1, 1)
        with pytest.raises(ValueError):
            a.intersect(b)  # different managers


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=60, deadline=None)
def test_rows_match_reference(reference):
    relation = reference.to_bdd_relation()
    assert [outs for _, outs in relation.rows()] == reference.rows


@given(set_relations(num_inputs=2, num_outputs=2, well_defined=False))
@settings(max_examples=60, deadline=None)
def test_well_defined_matches_reference(reference):
    relation = reference.to_bdd_relation()
    assert relation.is_well_defined() == reference.is_well_defined()


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=60, deadline=None)
def test_pair_count_matches_reference(reference):
    relation = reference.to_bdd_relation()
    assert relation.pair_count() == reference.pair_count()


@given(set_relations(num_inputs=3, num_outputs=2))
@settings(max_examples=40, deadline=None)
def test_projection_matches_reference(reference):
    relation = reference.to_bdd_relation()
    for position in range(2):
        isf = relation.project(position)
        expected = reference.project(position)
        for x in range(8):
            assignment = {var: bool((x >> i) & 1)
                          for i, var in enumerate(relation.inputs)}
            value = isf.value_at(assignment)
            allowed = expected[x]
            if allowed == {0, 1}:
                assert value == "-"
            elif allowed == {1}:
                assert value == "1"
            elif allowed == {0}:
                assert value == "0"
            # empty set (not well defined per-vertex) maps to OFF here;
            # projections of well-defined relations never hit this.


@given(set_relations(num_inputs=2, num_outputs=3))
@settings(max_examples=40, deadline=None)
def test_misf_relation_matches_reference(reference):
    relation = reference.to_bdd_relation()
    misf_rel = relation.misf_relation()
    expected = reference.misf_rows()
    assert [outs for _, outs in misf_rel.rows()] == expected


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=60, deadline=None)
def test_misf_contains_relation(reference):
    """Paper Property 5.2: R <= MISF_R."""
    relation = reference.to_bdd_relation()
    assert relation <= relation.misf_relation()


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=60, deadline=None)
def test_misf_projections_equal_relation_projections(reference):
    """Paper Property 5.3 (minimality): projections are preserved."""
    relation = reference.to_bdd_relation()
    misf_rel = relation.misf_relation()
    for position in range(2):
        ours = relation.project(position)
        theirs = misf_rel.project(position)
        assert ours.on == theirs.on
        assert ours.dc == theirs.dc


@given(relations_with_vertex_and_output())
@settings(max_examples=60, deadline=None)
def test_split_matches_reference(data):
    reference, vertex, position = data
    relation = reference.to_bdd_relation()
    vertex_assignment = {var: bool((vertex >> i) & 1)
                         for i, var in enumerate(relation.inputs)}
    ours0, ours1 = relation.split(vertex_assignment, position)
    ref0, ref1 = reference.split(vertex, position)
    assert [o for _, o in ours0.rows()] == ref0.rows
    assert [o for _, o in ours1.rows()] == ref1.rows


@given(relations_with_vertex_and_output())
@settings(max_examples=60, deadline=None)
def test_split_theorem_5_2(data):
    """Split halves are well defined and strictly smaller iff the
    projected ISF has a don't care at the vertex (Theorem 5.2)."""
    reference, vertex, position = data
    relation = reference.to_bdd_relation()
    vertex_assignment = {var: bool((vertex >> i) & 1)
                         for i, var in enumerate(relation.inputs)}
    both_allowed = relation.can_split(vertex_assignment, position)
    r0, r1 = relation.split(vertex_assignment, position)
    if both_allowed:
        assert r0.is_well_defined()
        assert r1.is_well_defined()
        assert r0 < relation
        assert r1 < relation
    else:
        # One half keeps the whole relation (not strict), the other loses
        # the vertex entirely (not left-total).
        assert r0.node == relation.node or r1.node == relation.node
        assert (not r0.is_well_defined()) or (not r1.is_well_defined())


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=40, deadline=None)
def test_compatibility_matches_reference(reference):
    relation = reference.to_bdd_relation()
    mgr = relation.mgr
    for function in list(reference.compatible_functions())[:8]:
        nodes = []
        for j in range(2):
            minterms = [x for x, y in enumerate(function) if (y >> j) & 1]
            nodes.append(mgr.from_minterms(list(relation.inputs), minterms))
        assert relation.is_compatible(nodes)
