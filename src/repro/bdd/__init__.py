"""BDD engine: the reproduction's substitute for CUDD.

Public surface:

* :class:`BddManager` — the one function engine (node store, Boolean
  connectives, quantifiers); core code is annotated with it.
* :func:`isop` — Minato-Morreale irredundant SOP within an interval.
* :func:`constrain` / :func:`restrict` — generalized cofactors.
* :func:`squeeze` — safe interval minimisation (LICompact stand-in).
* traversal helpers — shortest-path cube, cube/minterm iteration.
"""

from .gencof import (constrain, minimize_with_constrain,
                     minimize_with_restrict, restrict)
from .isop import cover_literals, isop
from .manager import FALSE, TRUE, BddManager
from .safemin import minimize_with_squeeze, squeeze
from .traversal import (count_paths, iter_cubes, pick_minterm,
                        shortest_path_cube, truth_table)
from .dot import to_dot

__all__ = [
    "BddManager",
    "FALSE",
    "TRUE",
    "constrain",
    "count_paths",
    "cover_literals",
    "isop",
    "iter_cubes",
    "minimize_with_constrain",
    "minimize_with_restrict",
    "minimize_with_squeeze",
    "pick_minterm",
    "restrict",
    "shortest_path_cube",
    "squeeze",
    "to_dot",
    "truth_table",
]
