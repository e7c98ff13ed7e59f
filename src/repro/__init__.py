"""repro — a reproduction of the BREL Boolean-relation solver.

Baneres, Cortadella, Kishinevsky: *A Recursive Paradigm to Solve Boolean
Relations* (DAC 2004; extended in IEEE Trans. Computers 58(4), 2009).

The package is organised as layered subsystems (README, "Architecture"):

* :mod:`repro.api` — the official front door: :class:`Session`,
  declarative :class:`SolveRequest`/:class:`SolveReport`, named
  registries, batch solving;
* :mod:`repro.bdd` — hash-consed BDD engine (CUDD stand-in);
* :mod:`repro.sop` — two-level cube/cover machinery;
* :mod:`repro.core` — Boolean relations and the BREL solver;
* :mod:`repro.baselines` — gyocro / Herb heuristic re-creations;
* :mod:`repro.equations` — Boolean equation systems (paper §8);
* :mod:`repro.network` — SIS-like logic networks, algebraic script,
  technology mapping;
* :mod:`repro.decompose` — the §10 logic-decomposition application;
* :mod:`repro.benchdata` — seeded benchmark instances.

Quickstart::

    from repro import Session, SolveRequest

    session = Session()
    session.add_output_sets(
        "fig1", [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
    report = session.solve(SolveRequest(relation="fig1"))
    print(report.sop)            # minimised SOP per output
    print(report.cost, report.compatible)

Batches run process-parallel, and every request round-trips through
JSON::

    requests = [SolveRequest(relation="fig1", cost=c)
                for c in ("size", "size2", "cubes")]
    for r in session.solve_many(requests, max_workers=2):
        print(r.summary())

The lower-level entry points remain available::

    from repro import BooleanRelation, solve_relation

    rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]  # paper Fig. 1
    relation = BooleanRelation.from_output_sets(rows, 2, 2)
    result = solve_relation(relation)
    print(result.solution.describe())
"""

from .bdd import BddManager
from .core import (BooleanRelation, BrelOptions, BrelResult, BrelSolver,
                   CancelToken, ExplorationStrategy, Improvement, Isf,
                   Misf, NotWellDefinedError, Partition, Solution,
                   SolveEvent, SolverStats, bdd_size_cost,
                   bdd_size_squared_cost, cube_count_cost, exact_solve,
                   literal_count_cost, partition_relation, quick_solve,
                   solve_exactly, solve_relation, weighted_cost)
from .equations import BooleanEquation, BooleanSystem
from .api import (Session, SolveReport, SolveRequest, register_cost,
                  register_minimizer, register_strategy, strategy_names)

__version__ = "1.1.0"

__all__ = [
    "BddManager",
    "BooleanEquation",
    "BooleanRelation",
    "BooleanSystem",
    "BrelOptions",
    "BrelResult",
    "BrelSolver",
    "Isf",
    "Misf",
    "NotWellDefinedError",
    "Partition",
    "Session",
    "Solution",
    "SolveReport",
    "SolveRequest",
    "SolverStats",
    "bdd_size_cost",
    "bdd_size_squared_cost",
    "cube_count_cost",
    "exact_solve",
    "literal_count_cost",
    "partition_relation",
    "quick_solve",
    "register_cost",
    "register_minimizer",
    "solve_exactly",
    "solve_relation",
    "weighted_cost",
    "__version__",
]
