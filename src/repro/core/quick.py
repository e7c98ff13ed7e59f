"""QuickSolver: the naive sequential BR solver (paper Fig. 4).

Minimises each output in order using the full flexibility still available,
then propagates the chosen function back into the relation before handling
the next output.  Fast but order-dependent: early outputs consume the
flexibility, late outputs inherit little (Example 6.1 / Fig. 5) — the
weakness that motivates the recursive paradigm.

Within BREL it plays two roles (paper §7.2): the initial solution, and a
guaranteed compatible solution for every subrelation dequeued from the
bounded BFS frontier.  A relation narrow enough for the packed MISF
layer (:mod:`repro.core.packedrel`) is projected, minimised, restricted
and priced on its truth table, and its solution holds input tables: no
node is built unless the solution's functions are read.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .cost import CostFunction, bdd_size_cost
from .minimize import IsfMinimizer, minimize_isop
from .packedrel import PackedRelation, pack_relation
from .relation import BooleanRelation
from .solution import Solution


def quick_solve(relation: Union[BooleanRelation, PackedRelation],
                minimizer: IsfMinimizer = minimize_isop,
                cost_function: CostFunction = bdd_size_cost,
                output_order: Optional[Sequence[int]] = None) -> Solution:
    """Solve a well-defined BR with the sequential heuristic of Fig. 4.

    Parameters
    ----------
    relation:
        A :class:`~repro.core.relation.BooleanRelation`, packed here
        when :func:`~repro.core.packedrel.pack_relation` takes it, or a
        :class:`~repro.core.packedrel.PackedRelation` (the solver loop
        packs its root once and explores packed subrelations).  Either
        way the solution is the same.
    output_order:
        Optional permutation of output positions; the paper notes the
        result depends on this order, which makes it a useful experiment
        knob.

    Returns a :class:`Solution` that is always compatible with the
    relation (the projection of a well-defined relation is a valid ISF
    and constraining by an implementation keeps the relation well
    defined).
    """
    if isinstance(relation, BooleanRelation):
        relation = pack_relation(relation) or relation
    relation.require_well_defined()
    positions = list(output_order) if output_order is not None else list(
        range(len(relation.outputs)))
    if sorted(positions) != list(range(len(relation.outputs))):
        raise ValueError("output_order must permute the output positions")

    chosen: List[int] = [0] * len(relation.outputs)
    current = relation
    for position in positions:
        chosen[position] = current.minimize(position, minimizer)
        current = current.restrict_output(position, chosen[position])
    return relation.solution(chosen, cost_function)
