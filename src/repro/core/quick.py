"""QuickSolver: the naive sequential BR solver (paper Fig. 4).

Minimises each output in order using the full flexibility still available,
then propagates the chosen function back into the relation before handling
the next output.  Fast but order-dependent: early outputs consume the
flexibility, late outputs inherit little (Example 6.1 / Fig. 5) — the
weakness that motivates the recursive paradigm.

Within BREL it plays two roles (paper §7.2): the initial solution, and a
guaranteed compatible solution for every subrelation dequeued from the
bounded BFS frontier.  Both call sites run hot on repeated traffic, so
the solver threads an optional :class:`~repro.core.memo.MemoStore`
through here: a whole-relation hit skips the projection/minimisation
sequence entirely, and on a miss each per-output minimisation still goes
through the ISF-level memo before the full result is recorded.  A
relation narrow enough for the packed MISF layer
(:mod:`repro.core.packedrel`) is projected and restricted on its truth
table; no intermediate relation node is built.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .cost import CostFunction, bdd_size_cost
from .memo import MemoStore, VarCover, template_from_var_cover
from .minimize import IsfMinimizer, minimize_isop, minimizer_memo_key
from .packedrel import PackedRelation, pack_relation
from .relation import BooleanRelation
from .route import SubproblemRouter
from .solution import Solution


def quick_solve(relation: BooleanRelation,
                minimizer: IsfMinimizer = minimize_isop,
                cost_function: CostFunction = bdd_size_cost,
                output_order: Optional[Sequence[int]] = None,
                memo: Optional[MemoStore] = None,
                router: Optional[SubproblemRouter] = None,
                view: Optional[PackedRelation] = None) -> Solution:
    """Solve a well-defined BR with the sequential heuristic of Fig. 4.

    Parameters
    ----------
    output_order:
        Optional permutation of output positions; the paper notes the
        result depends on this order, which makes it a useful experiment
        knob.
    memo:
        Optional shared :class:`~repro.core.memo.MemoStore`.  Relations
        whose canonical signature (and output order) was quick-solved
        before — in this solve, an earlier solve, or another manager
        entirely — are answered from the stored solution template
        instead of re-projecting and re-minimising every output; the
        reconstruction is byte-identical to a fresh run.
    router:
        The enclosing solve's
        :class:`~repro.core.route.SubproblemRouter` over ``memo``: memo
        hits then reuse the nodes the solve already built.  A call
        with a store but no router gets a router of its own.
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

    minimizer_name = minimizer_memo_key(minimizer)
    if minimizer_name is None:
        router = None
    elif router is None and memo is not None:
        router = SubproblemRouter(memo)
    sig = None
    key = None
    if router is not None:
        sig = relation.signature()
        if sig is not None:
            # Output *positions* are renaming-invariant, so a custom
            # order keys cleanly; any spelling of the default order
            # (omitted or explicit) keys as None so it shares one slot.
            order_key = tuple(positions)
            if order_key == tuple(range(len(relation.outputs))):
                order_key = None
            key = ("quick", sig.key, minimizer_name, order_key)
            covers = router.memo.get(key)
            if covers is not None:
                functions = router.instantiate(relation.mgr, key, covers,
                                               sig.support)
                return Solution(relation.mgr, functions,
                                cost_function(relation.mgr, functions))

    chosen: List[Optional[int]] = [None] * len(relation.outputs)
    covers: List[Optional[VarCover]] = [None] * len(relation.outputs)
    if view is not None:
        table = view.table
        for position in positions:
            function, covers[position], ftable = view.minimize(
                position, minimizer, minimizer_name, router, table)
            chosen[position] = function
            table = view.restrict(table, position, ftable)
    else:
        current = relation
        for position in positions:
            isf = current.project(position)
            if router is not None:
                function, covers[position], _ = router.minimize(
                    isf, minimizer, minimizer_name)
            else:
                function = minimizer(isf)
            chosen[position] = function
            current = current.restrict_output(position, function)
    functions = tuple(func for func in chosen if func is not None)
    if key is not None:
        rank_of_var = sig.rank_map()
        router.memo.put_if_mappable(
            key, lambda: tuple(template_from_var_cover(cover, rank_of_var)
                               for cover in covers))
        router.remember(key, sig.support, functions)
    cost = cost_function(relation.mgr, functions)
    return Solution(relation.mgr, functions, cost)
