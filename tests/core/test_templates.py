"""Rank templates: solved functions as covers over support ranks.

Templates are how a solution leaves the manager it was solved in
(process pools, racer processes, resynthesis), so rebuilding one must
give back exactly the functions it was made from, in the same manager
or in a fresh one with the same layout.
"""

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.core import BooleanRelation, quick_solve
from repro.core.memo import (instantiate_cover, instantiate_solution,
                             instantiate_var_cover, solution_template,
                             var_cover_from_template)


def fig1_relation(mgr=None):
    rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
    return BooleanRelation.from_output_sets(rows, 2, 2, mgr=mgr)


class TestTemplates:
    def test_solution_template_round_trip(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        template = solution_template(relation.mgr, solution.functions,
                                     relation.inputs)
        rebuilt = instantiate_solution(relation.mgr, template,
                                       relation.inputs)
        assert rebuilt == tuple(solution.functions)

    def test_template_instantiates_across_managers(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        template = solution_template(relation.mgr, solution.functions,
                                     relation.inputs)
        other = fig1_relation()  # fresh manager, same layout
        rebuilt = instantiate_solution(other.mgr, template, other.inputs)
        fresh = quick_solve(other)
        assert rebuilt == tuple(fresh.functions)

    def test_template_matches_the_solution_covers(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        assert solution.template(relation.inputs) == solution_template(
            relation.mgr, solution.functions, relation.inputs)

    def test_var_cover_conversion_renames_ranks(self):
        support = (3, 5, 8)
        template = (((0, True), (2, False)), ((1, False),), ())
        var_cover = var_cover_from_template(template, support)
        assert var_cover == (((3, True), (8, False)), ((5, False),), ())
        mgr = BddManager(["v%d" % i for i in range(9)])
        assert instantiate_var_cover(mgr, var_cover) \
            == instantiate_cover(mgr, template, support)

    def test_constant_cover_round_trip(self):
        mgr = BddManager(["a"])
        assert instantiate_cover(mgr, (), ()) == FALSE
        assert instantiate_cover(mgr, ((),), ()) == TRUE
