"""QuickSolver: the naive sequential BR solver (paper Fig. 4).

Minimises each output in order using the full flexibility still available,
then propagates the chosen function back into the relation before handling
the next output.  Fast but order-dependent: early outputs consume the
flexibility, late outputs inherit little (Example 6.1 / Fig. 5) — the
weakness that motivates the recursive paradigm.

Within BREL it plays two roles (paper §7.2): the initial solution, and a
guaranteed compatible solution for every subrelation dequeued from the
bounded BFS frontier.  A relation narrow enough for the packed MISF
layer (:mod:`repro.core.packedrel`) is projected and restricted on its
truth table; no intermediate relation node is built.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .cost import CostFunction, bdd_size_cost
from .minimize import IsfMinimizer, minimize_isop, minimizer_memo_key
from .packedrel import PackedRelation, pack_relation
from .relation import BooleanRelation
from .solution import Solution


def quick_solve(relation: BooleanRelation,
                minimizer: IsfMinimizer = minimize_isop,
                cost_function: CostFunction = bdd_size_cost,
                output_order: Optional[Sequence[int]] = None,
                view: Optional[PackedRelation] = None) -> Solution:
    """Solve a well-defined BR with the sequential heuristic of Fig. 4.

    Parameters
    ----------
    output_order:
        Optional permutation of output positions; the paper notes the
        result depends on this order, which makes it a useful experiment
        knob.
    view:
        The relation's :class:`~repro.core.packedrel.PackedRelation`
        when the caller packed it already (the solver loop packs each
        dequeued relation once); otherwise the call packs its own, and
        a relation :func:`~repro.core.packedrel.pack_relation` turns
        down is solved on nodes.  Either way the solution is the same.

    Returns a :class:`Solution` that is always compatible with the
    relation (the projection of a well-defined relation is a valid ISF
    and constraining by an implementation keeps the relation well
    defined).
    """
    if view is None:
        view = pack_relation(relation)
    (relation if view is None else view).require_well_defined()
    positions = list(output_order) if output_order is not None else list(
        range(len(relation.outputs)))
    if sorted(positions) != list(range(len(relation.outputs))):
        raise ValueError("output_order must permute the output positions")

    chosen: List[Optional[int]] = [None] * len(relation.outputs)
    if view is not None:
        minimizer_name = minimizer_memo_key(minimizer)
        table = view.table
        for position in positions:
            function, ftable = view.minimize(position, minimizer,
                                             minimizer_name, table)
            chosen[position] = function
            table = view.restrict(table, position, ftable)
    else:
        current = relation
        for position in positions:
            function = minimizer(current.project(position))
            chosen[position] = function
            current = current.restrict_output(position, function)
    functions = tuple(func for func in chosen if func is not None)
    cost = cost_function(relation.mgr, functions)
    return Solution(relation.mgr, functions, cost)
