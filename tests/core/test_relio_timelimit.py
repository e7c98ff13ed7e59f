"""Tests for relation file I/O and the solver time limit."""

import pytest
from hypothesis import given, settings

from repro.core import (BooleanRelation, BrelOptions, BrelSolver,
                        RelationFormatError, parse_relation, write_relation)

from .strategies import set_relations


class TestRelationFormat:
    def test_parse_basic(self):
        text = """
.i 2
.o 2
.type fr
00 01
01 01
10 00
10 11
11 1-
.e
"""
        relation = parse_relation(text)
        assert relation.output_set(0b00) == {0b10}
        # vertex 10 (x0=1): rows '10 00' and '10 11'
        assert relation.output_set(0b01) == {0b00, 0b11}
        # output cube 1- covers {01 (y0=1,y1=0), 11}
        assert relation.output_set(0b11) == {0b01, 0b11}

    def test_input_cubes_expand(self):
        text = ".i 2\n.o 1\n-- 1\n.e\n"
        relation = parse_relation(text)
        for vertex in range(4):
            assert relation.output_set(vertex) == {1}

    def test_missing_header_rejected(self):
        with pytest.raises(RelationFormatError):
            parse_relation("00 1\n.e\n")

    def test_malformed_row_rejected(self):
        with pytest.raises(RelationFormatError):
            parse_relation(".i 2\n.o 1\n0 0 1\n.e\n")

    def test_width_mismatch_rejected(self):
        with pytest.raises(RelationFormatError):
            parse_relation(".i 2\n.o 1\n000 1\n.e\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(RelationFormatError):
            parse_relation(".i 1\n.o 1\n.type pdf\n0 1\n.e\n")

    def test_comments_ignored(self):
        text = ".i 1\n.o 1\n# a comment\n0 1  # trailing\n1 0\n.e\n"
        relation = parse_relation(text)
        assert relation.is_well_defined()

    def test_write_contains_header_and_rows(self):
        relation = BooleanRelation.from_output_sets(
            [{0b1}, {0b0, 0b1}], 1, 1)
        text = write_relation(relation, comment="demo")
        assert ".i 1" in text and ".o 1" in text
        assert "# demo" in text
        assert text.strip().endswith(".e")

    def test_file_roundtrip(self, tmp_path):
        from repro.core import load_relation, save_relation
        relation = BooleanRelation.from_output_sets(
            [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
        path = str(tmp_path / "fig1.rel")
        save_relation(relation, path)
        again = load_relation(path)
        assert [o for _, o in again.rows()] == [o for _, o in
                                                relation.rows()]


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(reference):
    relation = reference.to_bdd_relation()
    again = parse_relation(write_relation(relation))
    assert [o for _, o in again.rows()] == reference.rows


class TestTimeLimit:
    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            BrelOptions(time_limit_seconds=-1.0)

    def test_zero_limit_still_returns_solution(self):
        """QuickSolver runs before the deadline check, so the solver is
        never left without a compatible answer (§7.2)."""
        rows = [{0b01, 0b10}] * 8
        relation = BooleanRelation.from_output_sets(rows, 3, 2)
        options = BrelOptions(time_limit_seconds=0.0, max_explored=None,
                              fifo_capacity=None)
        result = BrelSolver(options).solve(relation)
        assert relation.is_compatible(result.solution.functions)
        assert result.stats.relations_explored <= 1

    def test_dfs_respects_limit(self):
        rows = [{0b01, 0b10, 0b11}] * 8
        relation = BooleanRelation.from_output_sets(rows, 3, 2)
        options = BrelOptions(strategy="dfs", time_limit_seconds=0.0,
                              max_explored=None, fifo_capacity=None)
        result = BrelSolver(options).solve(relation)
        assert relation.is_compatible(result.solution.functions)
