"""Rank templates: solved functions as covers over support ranks.

A solved function vector often has to leave the manager it was built
in: a worker process hands its solution back to the parent, a racer
hands its incumbent to the race, and resynthesis realises a solved
window in a logic network that has no BDD manager at all.  This module
supplies the one manager-independent form they all use:

* **Solution templates**: each solved function rendered as an ISOP
  cover over support *ranks* (:func:`solution_template`), re-built in
  any manager by mapping rank ``i`` back to the ``i``-th variable of a
  support (:func:`instantiate_solution`).  Because reduced ordered BDDs
  are canonical, re-building a template gives *exactly* the function
  the solve produced, renamed by the order-preserving support map.

Every relation is solved from scratch: nothing here is looked up or
stored across subproblems.  (The module name predates that.)
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from ..bdd.manager import FALSE, TRUE, BddManager

#: A cube over support ranks: ``((rank, polarity), ...)`` sorted by rank.
RankCube = Tuple[Tuple[int, bool], ...]
#: An ISOP cover over support ranks (one solved function).
CoverTemplate = Tuple[RankCube, ...]
#: One cover per output: a solved multiple-output function.
SolutionTemplate = Tuple[CoverTemplate, ...]
#: A cube/cover at concrete variable level (variables by increasing
#: level).
VarCube = Tuple[Tuple[int, bool], ...]
VarCover = Tuple[VarCube, ...]


# ----------------------------------------------------------------------
# Solution templates
# ----------------------------------------------------------------------
def cover_template(mgr: BddManager, node: int,
                   rank_of_var: Dict[int, int]) -> CoverTemplate:
    """Render one function as an ISOP cover over support ranks.

    Raises ``KeyError`` when the function mentions a variable outside
    ``rank_of_var``.
    """
    return rank_cover(mgr.isop(node, node)[0], rank_of_var)


def rank_cover(cover: Sequence[Mapping[int, bool]],
               rank_of_var: Mapping[int, int]) -> CoverTemplate:
    """Renumber an ISOP cover (cubes as ``{var: polarity}``) into a
    rank template, each cube's literals sorted by rank.

    Raises ``KeyError`` for out-of-support variables (see
    :func:`cover_template`).
    """
    return tuple(tuple(sorted((rank_of_var[var], polarity)
                              for var, polarity in cube.items()))
                 for cube in cover)


def var_cover_from_template(cover: CoverTemplate,
                            support: Sequence[int]) -> VarCover:
    """The inverse renumbering: rank template back to variable level."""
    return tuple(tuple((support[rank], polarity)
                       for rank, polarity in cube)
                 for cube in cover)


def solution_template(mgr: BddManager, functions: Sequence[int],
                      support: Sequence[int]) -> SolutionTemplate:
    """Render a solved function vector as per-output rank covers."""
    rank_of_var = {var: rank for rank, var in enumerate(support)}
    return tuple(cover_template(mgr, func, rank_of_var)
                 for func in functions)


def instantiate_cover(mgr: BddManager, cover: CoverTemplate,
                      support: Sequence[int]) -> int:
    """Rebuild one rank cover as a BDD node over ``support`` variables.

    By ROBDD canonicity the disjunction of the cover's cubes lands on
    exactly the node the original function would have (renamed through
    the rank -> ``support[rank]`` map), regardless of build order.
    """
    return instantiate_var_cover(mgr,
                                 var_cover_from_template(cover, support))


def instantiate_var_cover(mgr: BddManager, cover: VarCover) -> int:
    """Disjoin a variable-level cover into ``mgr``.

    Cubes are stored sorted by level, so conjoining right-to-left keeps
    every ``and_`` on the manager's literal-above O(1) fast path (no
    ``cube()`` dict round-trip).
    """
    var, nvar = mgr.var, mgr.nvar
    and_, or_ = mgr.and_, mgr.or_
    node = FALSE
    for cube in cover:
        conj = TRUE
        for level, polarity in reversed(cube):
            literal = var(level) if polarity else nvar(level)
            conj = and_(literal, conj)
        node = or_(node, conj)
    return node


def instantiate_solution(mgr: BddManager, covers: SolutionTemplate,
                         support: Sequence[int]) -> Tuple[int, ...]:
    """Rebuild a per-output template into ``mgr``; one node per output."""
    return tuple(instantiate_cover(mgr, cover, support)
                 for cover in covers)
