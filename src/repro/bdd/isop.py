"""Minato-Morreale irredundant sum-of-products from a BDD interval.

Implements reference [24] of the paper: given a function interval
``[lower, upper]`` (for an ISF, ``[ON, ON + DC]``), produce an irredundant
prime cover ``F`` with ``lower <= F <= upper`` together with the BDD of the
cover.  This is the workhorse ISF minimiser the paper selects in
Section 7.5 after comparing it with constrain/restrict and LICompact
(Table 1).

The expansion runs on an explicit frame stack (a three-phase state machine
per interval) so cover extraction works on BDDs of any depth under the
default interpreter recursion limit.  Every expanded sub-interval lands
in a ``(lower, upper) -> (cubes, node)`` table (the CUDD computed-table
treatment of the recursion): :func:`isop` keeps it for one call, the
engines' ``isop`` for the whole enclosing solve.

:func:`expand` and :func:`eliminate_nonessential` are the node-level
path: the engines' ``isop`` and the minimiser pipeline run intervals of
at most 16 variables through the packed truth-table kernel of
:mod:`repro.bdd.packed` instead (same covers, same nodes), and only
wider ones through these.  :func:`isop` always runs node by node; it is
the reference the packed kernel is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .manager import FALSE, TRUE, BddManager, union_support

#: A cube is a variable -> polarity mapping; missing variables are don't care.
Cube = Dict[int, bool]

# Phases of the explicit-stack expansion.
_EXPAND = 0     # inspect an interval, push its polarised halves
_MERGE = 1      # polarised halves done, push the don't-care interval
_COMBINE = 2    # all three sub-covers done, build this interval's cover


def isop(mgr: BddManager, lower: int, upper: int) -> Tuple[List[Cube], int]:
    """Compute an irredundant SOP within the interval ``[lower, upper]``.

    Parameters
    ----------
    mgr:
        The owning manager (any :class:`~repro.bdd.FunctionBackend`;
        the expansion only uses protocol operations).
    lower, upper:
        Nodes with ``lower <= upper`` (raises ``ValueError`` otherwise).

    Returns
    -------
    (cover, node):
        ``cover`` is a list of cubes; ``node`` is the BDD of their
        disjunction, satisfying ``lower <= node <= upper``.  The cover is
        irredundant: removing any cube uncovers part of ``lower``.

    The sub-interval table lives for this call only;
    :meth:`BddManager.isop <repro.bdd.BddManager.isop>` runs the same
    expansion against the table of the enclosing solve.
    """
    if not mgr.implies(lower, upper):
        raise ValueError("isop requires lower <= upper")
    (cubes, node), _, _ = expand(mgr, lower, upper, {}, float("inf"))
    return [dict(cube) for cube in cubes], node


def expand(mgr: BddManager, lower: int, upper: int,
           table: Dict[Tuple[int, int], Tuple], limit: float
           ) -> Tuple[Tuple[Tuple, int], int, int]:
    """The Minato-Morreale expansion of ``[lower, upper]`` (``lower <=
    upper`` already checked) against a sub-interval table.

    ``table`` maps ``(lower, upper)`` node pairs to ``(cubes, node)``,
    cubes as tuples of ``(var, polarity)`` pairs sorted by var; entries
    are read and added, and the table is flushed wholesale when it
    reaches ``limit`` entries.  Returns ``((cubes, node), hits,
    misses)``: the interval's result and how many sub-intervals the
    table served and how many were expanded.
    """
    hits = misses = 0
    # results holds (cubes, node) pairs, one per completed sub-interval;
    # tasks is a flat mixed stack (operands pushed, phase tag popped first).
    results: List[Tuple[Tuple[Tuple[Tuple[int, bool], ...], ...], int]] = []
    tasks: list = [upper, lower, _EXPAND]
    push = tasks.append
    pop = tasks.pop
    lookup = table.get
    while tasks:
        phase = pop()
        if phase == _EXPAND:
            low = pop()
            upp = pop()
            if low == FALSE:
                results.append(((), FALSE))
                continue
            if upp == TRUE:
                results.append((((),), TRUE))
                continue
            key = (low, upp)
            hit = lookup(key)
            if hit is not None:
                hits += 1
                results.append(hit)
                continue
            misses += 1
            var = min(mgr.level(low), mgr.level(upp))
            low0 = mgr.cofactor(low, var, False)
            low1 = mgr.cofactor(low, var, True)
            upp0 = mgr.cofactor(upp, var, False)
            upp1 = mgr.cofactor(upp, var, True)

            # Vertices of the 0-half that the 1-half cannot absorb must be
            # covered by cubes carrying the literal ~var (and dually).
            need0 = mgr.diff(low0, upp1)
            need1 = mgr.diff(low1, upp0)
            tasks.extend((upp1, upp0, low1, low0, var, key, _MERGE,
                          upp1, need1, _EXPAND,
                          upp0, need0, _EXPAND))
        elif phase == _MERGE:
            key = pop()
            var = pop()
            low0 = pop()
            low1 = pop()
            upp0 = pop()
            upp1 = pop()
            cubes1, f1 = results.pop()
            cubes0, f0 = results.pop()
            # What is still uncovered may be captured by cubes without var.
            rest = mgr.or_(mgr.diff(low0, f0), mgr.diff(low1, f1))
            upp_dc = mgr.and_(upp0, upp1)
            push(var)
            push(key)
            push(_COMBINE)
            push(upp_dc)
            push(rest)
            push(_EXPAND)
            results.append((cubes0, f0, cubes1, f1))  # parked for _COMBINE
        else:
            key = pop()
            var = pop()
            cubes_dc, f_dc = results.pop()
            cubes0, f0, cubes1, f1 = results.pop()
            node = mgr.or_(
                mgr.ite(mgr.var(var), f1, f0),
                f_dc,
            )
            cubes = tuple(
                [((var, False),) + cube for cube in cubes0]
                + [((var, True),) + cube for cube in cubes1]
                + list(cubes_dc)
            )
            result = (cubes, node)
            if len(table) >= limit:
                table.clear()
            table[key] = result
            results.append(result)

    return results[0], hits, misses


def eliminate_nonessential(mgr: BddManager, lower: int, upper: int
                           ) -> Tuple[int, int]:
    """Brown's greedy non-essential-variable elimination on nodes.

    Variable ``z`` is dropped when ``[exists z. lower, forall z. upper]``
    is still a valid interval; variables are tried top to bottom in the
    order.  Returns the narrowed ``(lower, upper)``.
    """
    for var in union_support(mgr.support(lower), mgr.support(upper)):
        new_lower = mgr.exists(lower, [var])
        new_upper = mgr.forall(upper, [var])
        if mgr.implies(new_lower, new_upper):
            lower, upper = new_lower, new_upper
    return lower, upper


def isop_node(mgr: BddManager, lower: int, upper: int) -> int:
    """Like :func:`isop` but return only the BDD of the cover."""
    return isop(mgr, lower, upper)[1]


def cover_literals(cover: List[Cube]) -> int:
    """Total literal count of a cube list."""
    return sum(len(cube) for cube in cover)


def cover_to_node(mgr: BddManager, cover: List[Cube]) -> int:
    """Disjunction of a cube list as a BDD node."""
    result = FALSE
    for cube in cover:
        result = mgr.or_(result, mgr.cube(cube))
    return result
