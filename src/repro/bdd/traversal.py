"""Path- and cube-oriented BDD traversals.

The BREL split heuristic (paper Section 7.4) extracts *the shortest path in
the BDD* of the conflict set: the path with the fewest literals, i.e. the
largest cube of adjacent conflicting vertices.  This module provides that
extraction plus cube/minterm enumeration used by covers, printing, and the
test oracles.

All walks are iterative (explicit work stacks): like the manager itself,
nothing here depends on the interpreter recursion limit, so arbitrarily
deep BDDs are traversable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .manager import FALSE, TRUE, BddManager

#: Cost placeholder for paths that cannot reach TRUE.
_INFINITY = float("inf")


def shortest_path_cube(mgr: BddManager, f: int) -> Optional[Dict[int, bool]]:
    """Return the cube (var -> polarity) of the shortest root-to-TRUE path.

    The *length* of a path is the number of variables it constrains, so the
    returned cube is a largest cube contained in ``f``.  Returns ``None``
    when ``f`` is unsatisfiable and the empty dict when ``f`` is TRUE.

    Ties are broken deterministically: the 0-branch is preferred.
    """
    if f == FALSE:
        return None
    # Post-order sweep: memo[node] = (fewest literals to TRUE, branch).
    memo: Dict[int, Tuple[float, Optional[bool]]] = {
        TRUE: (0, None), FALSE: (_INFINITY, None)}
    stack = [f]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        lo, hi = mgr.low(node), mgr.high(node)
        ready = True
        if lo not in memo:
            stack.append(lo)
            ready = False
        if hi not in memo:
            stack.append(hi)
            ready = False
        if not ready:
            continue
        stack.pop()
        low_cost = memo[lo][0]
        high_cost = memo[hi][0]
        if low_cost <= high_cost:
            memo[node] = (1 + low_cost, False)
        else:
            memo[node] = (1 + high_cost, True)

    cube: Dict[int, bool] = {}
    node = f
    while node > TRUE:
        branch = memo[node][1]
        cube[mgr.level(node)] = bool(branch)
        node = mgr.high(node) if branch else mgr.low(node)
    return cube


# Op-codes for the iter_cubes walk below.
_VISIT = 0
_SET = 1
_UNSET = 2


def iter_cubes(mgr: BddManager, f: int) -> Iterator[Dict[int, bool]]:
    """Yield every root-to-TRUE path of ``f`` as a cube (var -> polarity).

    The cubes are disjoint (they follow distinct BDD paths) and their union
    is exactly ``f``.  Variables skipped along a path do not appear in the
    cube: they are don't-cares.
    """
    # One shared path dict mutated by SET/UNSET ops interleaved with node
    # visits; stack memory stays linear in the BDD depth.
    path: Dict[int, bool] = {}
    stack: List[Tuple[int, int, bool]] = [(_VISIT, f, False)]
    while stack:
        op, arg, polarity = stack.pop()
        if op == _SET:
            path[arg] = polarity
            continue
        if op == _UNSET:
            del path[arg]
            continue
        if arg == FALSE:
            continue
        if arg == TRUE:
            yield dict(path)
            continue
        var = mgr.level(arg)
        # Reverse execution order: low branch first, then high, then tidy.
        stack.append((_UNSET, var, False))
        stack.append((_VISIT, mgr.high(arg), False))
        stack.append((_SET, var, True))
        stack.append((_VISIT, mgr.low(arg), False))
        stack.append((_SET, var, False))


def pick_minterm(mgr: BddManager, f: int,
                 variables: Sequence[int]) -> Optional[Dict[int, bool]]:
    """Return one satisfying full assignment over ``variables``, or None.

    Unconstrained variables are set to ``False``; the choice is
    deterministic (low branch explored first).
    """
    cube = shortest_path_cube(mgr, f)
    if cube is None:
        return None
    return {var: cube.get(var, False) for var in variables}


def count_paths(mgr: BddManager, f: int) -> int:
    """Number of distinct root-to-TRUE paths (cubes in the path cover)."""
    memo: Dict[int, int] = {TRUE: 1, FALSE: 0}
    stack = [f]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        lo, hi = mgr.low(node), mgr.high(node)
        ready = True
        if lo not in memo:
            stack.append(lo)
            ready = False
        if hi not in memo:
            stack.append(hi)
            ready = False
        if ready:
            stack.pop()
            memo[node] = memo[lo] + memo[hi]
    return memo[f]


def truth_table(mgr: BddManager, f: int, variables: Sequence[int]) -> List[bool]:
    """Explicit truth table of ``f`` over ``variables``.

    Entry ``i`` holds ``f`` evaluated with bit ``j`` of ``i`` assigned to
    ``variables[j]``.  Only usable for small variable counts; intended for
    tests and pretty-printing.
    """
    n = len(variables)
    table = []
    for value in range(1 << n):
        assignment = {var: bool((value >> j) & 1)
                      for j, var in enumerate(variables)}
        table.append(mgr.eval(f, assignment))
    return table
