"""Cost functions guiding the BREL search (paper Section 7.3).

The solver accepts any callable ``cost(mgr, functions) -> float`` where
``functions`` is the candidate multiple-output function as a sequence of
BDD nodes.  The paper uses two BDD-based costs:

* the **sum of BDD sizes** when targeting area, and
* the **sum of squared BDD sizes** when targeting delay — squaring biases
  the search toward balanced functions, evening out path depths.

Cube- and literal-count costs (the objectives of the exact solver [6] and
gyocro [33]) are provided for the Table 2 comparison.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..bdd.backend import FunctionBackend

#: The cost-function signature used throughout the solver.  Costs are
#: measured through the backend protocol, so a candidate prices the
#: same whichever engine (BDD or truth table) produced it — ``size``
#: always means reduced-BDD node count.
CostFunction = Callable[[FunctionBackend, Sequence[int]], float]


def bdd_size_cost(mgr: FunctionBackend, functions: Sequence[int]) -> float:
    """Sum of per-output BDD sizes — the paper's area-oriented cost."""
    return float(sum(mgr.size(func) for func in functions))


def bdd_size_squared_cost(mgr: FunctionBackend, functions: Sequence[int]) -> float:
    """Sum of squared BDD sizes — the paper's delay-oriented cost.

    Squaring penalises a lopsided split of complexity across the outputs,
    favouring balanced solutions whose mapped logic has more even path
    delays (paper §7.3 and §10.2).
    """
    return float(sum(mgr.size(func) ** 2 for func in functions))


def shared_bdd_size_cost(mgr: FunctionBackend, functions: Sequence[int]) -> float:
    """DAG size of the whole vector, counting shared nodes once."""
    return float(mgr.shared_size(list(functions)))


def cube_count_cost(mgr: FunctionBackend, functions: Sequence[int]) -> float:
    """Number of ISOP product terms summed over the outputs.

    This is the objective of the exact minimiser of Brayton/Somenzi [6]
    and (primarily) of gyocro; provided for like-for-like comparisons.
    """
    total = 0
    for func in functions:
        cover, _ = mgr.isop(func, func)
        total += len(cover)
    return float(total)


def literal_count_cost(mgr: FunctionBackend, functions: Sequence[int]) -> float:
    """Number of ISOP literals summed over the outputs (gyocro tie-break)."""
    total = 0
    for func in functions:
        cover, _ = mgr.isop(func, func)
        total += sum(len(cube) for cube in cover)
    return float(total)


def weighted_cost(size_weight: float = 1.0, cube_weight: float = 0.0,
                  literal_weight: float = 0.0) -> CostFunction:
    """Build a custom blend of the base metrics.

    Demonstrates the "customisable cost function" knob the paper
    highlights as a differentiator over Herb/gyocro.
    """

    def cost(mgr: FunctionBackend, functions: Sequence[int]) -> float:
        value = 0.0
        if size_weight:
            value += size_weight * bdd_size_cost(mgr, functions)
        if cube_weight:
            value += cube_weight * cube_count_cost(mgr, functions)
        if literal_weight:
            value += literal_weight * literal_count_cost(mgr, functions)
        return value

    return cost
