"""The official front door of the package: sessions, requests, reports.

This layer turns relation solving into a *service* interface (the framing
of the source paper's tool): a solve is described as data
(:class:`SolveRequest`), executed inside a :class:`Session` that owns the
BDD managers and a result cache, and answered with a structured
:class:`SolveReport`.  Batches run process-parallel through
:meth:`Session.solve_many`; custom objectives and minimisers plug in
through the named registries.

Quickstart::

    from repro.api import Session, SolveRequest

    session = Session()
    session.add_output_sets(
        "fig1", [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
    report = session.solve(SolveRequest(relation="fig1", cost="size"))
    print(report.sop, report.cost, report.compatible)

    # The same solve as wire-ready JSON:
    text = SolveRequest(relation="fig1").to_json()
    again = SolveRequest.from_json(text)

Anytime solving: :meth:`Session.solve_iter` yields each strictly
improving solution as the search finds it, honours a
:class:`CancelToken`, and returns the final :class:`SolveReport` as
the generator's return value::

    gen = session.solve_iter(SolveRequest(relation="fig1",
                                          strategy="best-first"))
    for improvement in gen:
        print(improvement.cost, improvement.elapsed_seconds)
"""

from ..core.explore import CancelToken, Improvement, SolveEvent
from .events import event_to_jsonable, format_event
from .registry import (COSTS, Registry, cost_names, cost_registry, get_cost,
                       get_minimizer, get_strategy, minimizer_names,
                       minimizer_registry, register_cost, register_minimizer,
                       register_strategy, strategy_names, strategy_registry)
from .report import REPORT_SCHEMA_VERSION, SolveReport
from .request import (RelationSpec, SolveRequest, build_relation,
                      load_manifest, normalize_relation_spec)
from .session import RelationLike, Session

__all__ = [
    "COSTS",
    "CancelToken",
    "Improvement",
    "REPORT_SCHEMA_VERSION",
    "Registry",
    "RelationLike",
    "RelationSpec",
    "Session",
    "SolveEvent",
    "SolveReport",
    "SolveRequest",
    "build_relation",
    "cost_names",
    "cost_registry",
    "event_to_jsonable",
    "format_event",
    "get_cost",
    "get_minimizer",
    "get_strategy",
    "load_manifest",
    "minimizer_names",
    "minimizer_registry",
    "normalize_relation_spec",
    "register_cost",
    "register_minimizer",
    "register_strategy",
    "strategy_names",
    "strategy_registry",
]
