"""Structured solve results.

A :class:`SolveReport` is the data-only record of one solve: the solution
summary (cost, per-output sizes, SOP and PLA renderings, compatibility),
the :class:`~repro.core.SolverStats` counters, and — for failed jobs — the
captured error.  Being pure data it pickles across process boundaries
(:meth:`Session.solve_many`) and serialises to JSON for the CLI's
``--json`` / ``batch`` output.

A report is read off the relation the solve started from.  For a
narrow spec that is the root packed straight from the spec
(:func:`repro.api.request.root_of_spec`), and the report reads its
table and the solution's: ``pairs`` is a popcount, compatibility is
``χ_F ∧ ¬R = 0`` on the root's table, the sizes come from
:func:`~repro.bdd.packed.table_size`, the covers from the packed ISOP
kernel and the PLA export from :func:`~repro.core.relio.table_rows`, so
no BDD node is built.  A sharded or node-level solution, and a relation
on nodes, are read on nodes.

When the solve ran in the calling process the live
:class:`~repro.core.Solution` (BDD nodes and manager) is attached as
``report.solution``; it is excluded from comparison and serialisation.
A report that crossed a manager or process boundary instead
keeps the solved vector as a manager-independent rank template
(:meth:`SolveReport.solution_template`), from which
:class:`~repro.api.Session` re-instantiates a live solution in the
caller's manager, :meth:`SolveReport.solution_pla` renders the PLA
export and resynthesis realises its covers without a BDD manager.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from ..bdd.manager import BddManager
from ..core.brel import BrelResult
from ..core.memo import SolutionTemplate, instantiate_solution
from ..core.packedrel import PackedRelation
from ..core.relation import BooleanRelation
from ..core.relio import table_rows, write_relation, write_rows
from ..core.solution import Solution

#: Bumped when the report schema changes shape.
#: 2: added ``improvements`` (anytime trajectory), ``trace`` (optional
#: per-event search trace) and ``stopped`` (completion reason).
#: 3: added ``partition`` (output-block decomposition summary with
#: per-block stats; ``None`` for monolithic solves).
#: 4: added ``portfolio`` (strategy-race summary with per-racer
#: attribution; ``None`` unless ``strategy="portfolio"``).
#: 5: ``stats`` gained the subproblem-routing counters
#: (``subproblems_routed``, ``route_conversions``, ``route_hits``).
#: 6: ``stats`` dropped those three counters (in-recursion routing was
#: retired).
#: 7: the echoed ``request`` dropped the table engine's width and
#: kernel fields (whole-relation routing was retired).
#: 8: ``stats`` dropped ``memo_hits``/``memo_misses``/``memo_stores``
#: and the echoed ``request`` dropped ``memo`` and ``mode`` (the
#: subproblem memo and the ``mode`` alias were retired).
#: 9: ``portfolio`` dropped its two executor fields and ``note``, and
#: the echoed ``request`` dropped the racer executor (a solve always
#: runs in its caller's process).
REPORT_SCHEMA_VERSION = 9


def _compatible(relation: Union[BooleanRelation, PackedRelation],
                solution: Solution) -> bool:
    """Is ``solution`` a solution of ``relation`` (Definition 5.3)?

    Checked against the relation as the solve was given it, never the
    subrelation the solver found it in.  A packed root and a solution
    held as tables over its frame answer on the table: ``χ_F ∧ ¬R``
    is empty, which is what the root's ``conflict_inputs`` tests.
    Anything else — a sharded or node-level solution, a relation on
    nodes — is checked on nodes.
    """
    if isinstance(relation, PackedRelation):
        if solution.tables is not None \
                and solution.frame == relation.frame:
            return not relation.conflict_inputs(solution.tables)
        relation = relation.unpacked()
    return relation.is_compatible(solution.functions)


@dataclass
class SolveReport:
    """Outcome of one solve job (success or captured failure)."""

    ok: bool
    label: Optional[str] = None
    error: Optional[str] = None
    request: Optional[Dict[str, Any]] = None
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    pairs: Optional[int] = None
    cost: Optional[float] = None
    compatible: Optional[bool] = None
    bdd_sizes: List[int] = field(default_factory=list)
    cube_count: Optional[int] = None
    literal_count: Optional[int] = None
    sop: Optional[str] = None
    pla: Optional[str] = None
    stats: Dict[str, float] = field(default_factory=dict)
    #: Anytime trajectory: one ``{cost, elapsed_seconds, explored}``
    #: entry per strictly improving incumbent, in discovery order.
    improvements: List[Dict[str, Any]] = field(default_factory=list)
    #: Full event trace (``SolveEvent.as_dict()`` rows) when the
    #: request set ``record_trace``; ``None`` otherwise.
    trace: Optional[List[Dict[str, Any]]] = None
    #: Why the search ended: ``exhausted``, ``budget``, ``timeout``,
    #: or ``cancelled`` (``None`` for failed jobs).
    stopped: Optional[str] = None
    #: Output-block decomposition summary when the solve was sharded
    #: (:mod:`repro.core.partition`): block output positions and
    #: frames, plus per-block cost, stats and completion reason.
    #: ``None`` when the relation solved monolithically.
    partition: Optional[Dict[str, Any]] = None
    #: Portfolio race summary when ``strategy="portfolio"`` raced the
    #: solve (:mod:`repro.core.portfolio`): the winner and one
    #: attribution row per racer (cost, explored, improvements
    #: contributed, wall time, completion reason).  ``None`` otherwise.
    portfolio: Optional[Dict[str, Any]] = None
    cached: bool = False
    schema_version: int = REPORT_SCHEMA_VERSION
    #: Live solution when solved in-process; never serialised.
    solution: Optional[Solution] = field(default=None, compare=False,
                                         repr=False)
    #: Variable frame of the solved relation (for lazy PLA export).
    _inputs: Optional[tuple] = field(default=None, compare=False,
                                     repr=False)
    _outputs: Optional[tuple] = field(default=None, compare=False,
                                      repr=False)
    #: The solved vector as per-output rank covers over the inputs in
    #: positional order; never serialised.
    _template: Optional[SolutionTemplate] = field(default=None,
                                                  compare=False,
                                                  repr=False)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_result(cls, relation: Union[BooleanRelation, PackedRelation],
                    result: BrelResult,
                    request: Optional[Mapping[str, Any]] = None,
                    label: Optional[str] = None) -> "SolveReport":
        """Summarise a solver result against the relation it solved.

        ``relation`` is the relation the solve started from, on nodes or
        packed from its spec.  A packed root answers from its table
        (:func:`_compatible`, a popcount for ``pairs``), and a solution
        held as tables gives its sizes and covers from them, so a
        narrow spec's report builds no BDD node.  The PLA rendering
        enumerates every input vertex, so it is *not* built here;
        :meth:`solution_pla` materialises it on demand (and
        serialisation does so automatically while the live solution is
        attached).
        """
        solution = result.solution
        return cls(
            ok=True,
            label=label,
            request=dict(request) if request is not None else None,
            num_inputs=len(relation.inputs),
            num_outputs=len(relation.outputs),
            pairs=relation.pair_count(),
            cost=solution.cost,
            compatible=_compatible(relation, solution),
            bdd_sizes=solution.bdd_sizes(),
            cube_count=solution.cube_count(),
            literal_count=solution.literal_count(),
            sop=solution.describe(),
            pla=None,
            stats=result.stats.as_dict(),
            improvements=[imp.as_dict() for imp in result.improvements],
            trace=([event.as_dict() for event in result.events]
                   if result.events is not None else None),
            stopped=result.stopped,
            partition=copy.deepcopy(result.partition),
            portfolio=copy.deepcopy(result.portfolio),
            solution=solution,
            _inputs=tuple(relation.inputs),
            _outputs=tuple(relation.outputs))

    @classmethod
    def from_error(cls, exc: BaseException,
                   request: Optional[Mapping[str, Any]] = None,
                   label: Optional[str] = None, *,
                   with_traceback: bool = False) -> "SolveReport":
        """Capture a failure as a report instead of letting it raise."""
        message = "%s: %s" % (type(exc).__name__, exc)
        if with_traceback:
            message = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)).rstrip()
        return cls(ok=False, label=label, error=message,
                   request=dict(request) if request is not None else None)

    # -- solution export -----------------------------------------------
    def solution_template(self) -> Optional[SolutionTemplate]:
        """The solved vector as a manager-independent template (memoised).

        Rank ``i`` of the template is input position ``i``, so
        :func:`~repro.core.memo.instantiate_solution` over any
        relation's inputs rebuilds the same functions there.  It is
        renamed from the ISOP covers :meth:`from_result` already
        extracted (:meth:`~repro.core.Solution.template`), and copies
        carry it once derived.
        """
        if self._template is None and self.solution is not None \
                and self._inputs is not None:
            self._template = self.solution.template(self._inputs)
        return self._template

    def solution_pla(self) -> Optional[str]:
        """PLA rendering of the solved function vector (memoised).

        Built on first use — the enumeration of every input vertex is
        paid only by callers who want it — from the live solution, or
        from the template when the report crossed a manager boundary.
        A live solution held as truth tables is written straight from
        them (:func:`~repro.core.relio.table_rows`); the text is the
        one :func:`~repro.core.relio.write_relation` gives for its
        nodes.
        """
        if self.pla is not None or self._inputs is None:
            return self.pla
        solution = self.solution
        if (solution is not None and solution.tables is not None
                and solution.frame == tuple(sorted(self._inputs))):
            self.pla = write_rows(
                len(self._inputs), len(self._outputs),
                table_rows(solution.tables, solution.frame, self._inputs))
            return self.pla
        if self.solution is not None:
            mgr, inputs, outputs = (self.solution.mgr, self._inputs,
                                    self._outputs)
            functions = list(self.solution.functions)
        elif self._template is not None:
            num_inputs, num_outputs = len(self._inputs), len(self._outputs)
            mgr = BddManager(["x%d" % i for i in range(num_inputs)]
                             + ["y%d" % j for j in range(num_outputs)])
            inputs = tuple(range(num_inputs))
            outputs = tuple(range(num_inputs, num_inputs + num_outputs))
            functions = list(instantiate_solution(mgr, self._template,
                                                  inputs))
        else:
            return None
        self.pla = write_relation(BooleanRelation.from_functions(
            mgr, inputs, outputs, functions))
        return self.pla

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (the live ``solution`` handle is dropped)."""
        self.solution_pla()
        out = {}
        for f in dataclasses.fields(self):
            if f.name in ("solution", "_inputs", "_outputs", "_template"):
                continue
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveReport":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError("unknown SolveReport fields: %s"
                             % ", ".join(sorted(unknown)))
        return cls(**dict(data))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        return cls.from_dict(json.loads(text))

    # -- convenience ---------------------------------------------------
    def copy(self, **changes: Any) -> "SolveReport":
        """A copy that shares no mutable containers with the original.

        The session cache hands out copies so caller mutations cannot
        corrupt cached entries.  The live ``solution`` handle (immutable
        for our purposes) is carried over unless overridden.
        """
        fresh = dict(
            bdd_sizes=list(self.bdd_sizes),
            stats=dict(self.stats),
            request=dict(self.request) if self.request is not None
            else None,
            improvements=[dict(imp) for imp in self.improvements],
            trace=([dict(event) for event in self.trace]
                   if self.trace is not None else None),
            partition=copy.deepcopy(self.partition),
            portfolio=copy.deepcopy(self.portfolio),
            solution=self.solution)
        fresh.update(changes)
        return dataclasses.replace(self, **fresh)

    def raise_for_error(self) -> "SolveReport":
        """Re-raise a captured failure; returns ``self`` when ok."""
        if not self.ok:
            raise RuntimeError(self.error or "solve failed")
        return self

    def summary(self) -> str:
        """One status line per job, for batch progress output."""
        name = self.label or "<unnamed>"
        if not self.ok:
            return "%s: FAILED (%s)" % (name, self.error)
        return ("%s: cost=%.0f compatible=%s explored=%d runtime=%.3fs"
                "%s%s%s"
                % (name, self.cost, self.compatible,
                   int(self.stats.get("relations_explored", 0)),
                   self.stats.get("runtime_seconds", 0.0),
                   " [%d blocks]" % self.partition["num_blocks"]
                   if self.partition else "",
                   " [race won by %s]" % self.portfolio["winner"]
                   if self.portfolio else "",
                   " [cached]" if self.cached else ""))
