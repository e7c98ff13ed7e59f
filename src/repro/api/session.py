"""The session layer: named relations, cached solving, batch execution.

A :class:`Session` is the stateful front door of the package.  It

* owns reusable :class:`~repro.bdd.BddManager` instances (one per
  relation shape) so relations ingested through it share BDD nodes —
  the Section 7.1 sharing benefit, extended across relations;
* accepts relations from every ingestion path the package has (output
  sets, PLA-dialect files/strings, truth tables, Boolean equation
  systems, bundled benchmarks) and registers them under names a
  :class:`~repro.api.SolveRequest` can refer to;
* runs single solves (:meth:`Session.solve`) and batches
  (:meth:`Session.solve_many`, and :meth:`Session.solve_tables` for
  resynthesis's mined tables) with a shared result cache and per-job
  failures captured as failed :class:`SolveReport`\\ s.

A single solve runs in its caller's process (sharded blocks and
portfolio racers run in turn inside the solver), and so does every
mined table of :meth:`Session.solve_tables`.  The pool of
:meth:`Session.solve_many`, at most one worker per CPU, is the
package's one process pool: parallelism pays on heavy batches.

Every path into the report cache — :meth:`Session.solve`,
:meth:`Session.solve_iter`, :meth:`Session.solve_many` on either
executor, and the service hooks :meth:`Session.peek_cached` and
:meth:`Session.store_report` — keys a request the same way: a session
name or a caller's relation object by identity, a node spec by its
node list, any other self-contained spec by its content, each plus
:meth:`SolveRequest.options_key`.  The request's spec is keyed as it
was normalised when the request was built.  The one other key is the
mined-table key of :meth:`Session.solve_tables`: ``("table", n, m,
table)`` plus the options, which no spec shares, so a ``nodes`` spec
and a mined table of the same relation are separate entries.

Pool jobs are made *self-contained* before dispatch: a packed root
travels as its ``(n, m, table)`` triple, any other as its node list
(:func:`repro.core.relio.relation_to_nodes`, linear in BDD size), and
the request as its dict form, so a job needs nothing from the parent
process beyond importable code; the solution comes back as a rank
template, which the session re-instantiates in the manager of the
job's root when the parent built one.  A node spec ships its own list,
and its reports keep the template.  (Custom registry entries reach
workers through the default ``fork`` start method on POSIX; under
``spawn`` they must be registered at import time of a module the
workers import.)

A solve of a self-contained spec starts from :func:`root_of_spec`: a
narrow spec (16 variables or fewer) is packed straight into its root
table, with no BDD node built, and its report reads that table; wider
specs, equation systems and session names are built on nodes.  Batch
jobs on either executor and pool workers build their roots the same
way.  A mined table is its own root (:func:`root_of_table`): packed as
it is when narrow, else its BDD node.

Every solve explores its relation from scratch: the session caches
whole reports, never subproblems.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import FIRST_COMPLETED, wait
from typing import (Any, Dict, Generator, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..bdd.manager import BddManager
from ..core.brel import BrelResult, BrelSolver
from ..core.explore import (CancelToken, Improvement, Observer,
                            check_executor)
from ..core.memo import instantiate_solution
from ..core.packedrel import PackedRelation
from ..core.relation import BooleanRelation
from ..core.relio import (RelationNodes, parse_relation, peek_shape,
                          relation_to_nodes)
from ..core.solution import Solution
from .report import SolveReport
from .request import (RelationSpec, SolveRequest, nodes_of_spec,
                      normalize_relation_spec, relation_spec_to_jsonable,
                      root_of_nodes, root_of_spec, root_of_table,
                      truth_tables_to_output_sets)

#: What solve()/solve_many() accept as the thing to solve.
RelationLike = Union[BooleanRelation, RelationSpec]

#: What a solve starts from: a relation on nodes, or a narrow spec's
#: root packed straight from the spec (:func:`root_of_spec`).
Root = Union[BooleanRelation, PackedRelation]

#: Node count past which a session garbage-collects a manager between
#: solves (None disables auto-trimming).
DEFAULT_AUTO_TRIM_NODES = 500_000

def _run_job(job: Dict[str, Any],
             cancel: Optional[CancelToken] = None) -> SolveReport:
    """Execute one unique batch job, in this process or a pool worker.

    Never raises: any failure — malformed request, unparsable relation,
    solver error — comes back as a failed report so one bad job cannot
    poison a batch.  In this process the job carries the live, validated
    request and (unless it is a node-spec or a mined-table job) the live
    root, whose manager keeps the solution valid.  A worker gets
    only the request dict, the node list or the ``(n, m, table)``
    triple, and the label, and no cancel token; BDD handles must not
    cross back over the process boundary, so it ships the solved vector
    as a template.
    """
    label = job["label"]
    request_dict = job["request"]
    try:
        request = job.get("solve_request")
        in_worker = request is None
        if in_worker:
            request = SolveRequest.from_dict(request_dict)
        relation = job.get("relation")
        built = relation is None
        if built:
            # A node-spec job, a mined-table job or a pool job: built
            # only now, packed straight from its data when it is narrow.
            table = job.get("table")
            relation = (root_of_nodes(job["nodes"]) if table is None
                        else root_of_table(*table))
        # As in Session.solve(): the report's covers are read inside the
        # solve's ISOP scope.
        mgr = relation.mgr
        mgr.enter_solve()
        try:
            result = BrelSolver(request.to_options()).solve(relation,
                                                            cancel=cancel)
            report = SolveReport.from_result(relation, result,
                                             request=request_dict,
                                             label=label)
        finally:
            mgr.exit_solve()
        if in_worker:
            report.solution_template()
            report.solution = None
        elif built:
            relation.mgr.release_caches()  # as in Session.solve()
        return report
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return SolveReport.from_error(exc, request=request_dict,
                                      label=label)


class Session:
    """A workspace of named relations with cached, batchable solving.

    Memory management: registered relations are *pinned* in their BDD
    manager, so :meth:`trim` (explicit) and the automatic between-solve
    trim (``auto_trim_nodes``) can garbage-collect everything else —
    solver scratch, dead intermediate relations — while keeping every
    registered relation valid.  A trim invalidates live
    :class:`~repro.core.Solution` handles returned by earlier solves
    (their data renderings — SOP, PLA, cost — are unaffected); cached
    reports keep serving data and re-solve lazily when a live handle is
    requested again.
    """

    def __init__(self,
                 auto_trim_nodes: Optional[int] = DEFAULT_AUTO_TRIM_NODES
                 ) -> None:
        self._relations: Dict[str, BooleanRelation] = {}
        self._managers: Dict[Tuple[int, int], BddManager] = {}
        self._cache: Dict[Tuple[Any, ...], SolveReport] = {}
        self.cache_hits = 0
        self.auto_trim_nodes = auto_trim_nodes
        self.trims = 0

    # ------------------------------------------------------------------
    # Managers
    # ------------------------------------------------------------------
    def manager_for(self, num_inputs: int, num_outputs: int) -> BddManager:
        """The session's shared manager for a relation shape."""
        key = (num_inputs, num_outputs)
        if key not in self._managers:
            self._managers[key] = BddManager(
                ["x%d" % i for i in range(num_inputs)]
                + ["y%d" % j for j in range(num_outputs)])
        return self._managers[key]

    def _session_managers(self) -> List[BddManager]:
        """Every manager this session owns or has adopted, deduplicated."""
        managers: List[BddManager] = []
        seen = set()
        for mgr in self._managers.values():
            if id(mgr) not in seen:
                seen.add(id(mgr))
                managers.append(mgr)
        for relation in self._relations.values():
            if id(relation.mgr) not in seen:
                seen.add(id(relation.mgr))
                managers.append(relation.mgr)
        return managers

    def engine_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-manager :meth:`BddManager.stats` snapshots.

        Shape-owned managers key as ``"shape:IxO"``.  Managers adopted
        through registered relations (equation systems, benchmarks) key
        as ``"adopted:N"``, numbered by sorted relation name; the labels
        are positional and recomputed per call, so they can shift when
        relations are added or removed — treat each call's result as a
        self-contained snapshot.
        """
        out: Dict[str, Dict[str, Any]] = {}
        seen = set()
        for (ni, no), mgr in sorted(self._managers.items()):
            out["shape:%dx%d" % (ni, no)] = mgr.stats()
            seen.add(id(mgr))
        adopted = 0
        for name in sorted(self._relations):
            mgr = self._relations[name].mgr
            if id(mgr) not in seen:
                seen.add(id(mgr))
                out["adopted:%d" % adopted] = mgr.stats()
                adopted += 1
        return out

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def trim(self) -> Dict[str, Dict[str, Any]]:
        """Reclaim engine memory now: GC every manager, drop op caches.

        Registered relations survive (they are pinned and remapped);
        everything unreachable — solver scratch, deregistered relations —
        is collected.  Live solutions handed out by earlier solves become
        invalid; their reports' data fields stay correct.  Returns
        :meth:`engine_stats` after the collection.
        """
        for mgr in self._session_managers():
            self._trim_manager(mgr)
        return self.engine_stats()

    @staticmethod
    def _strip_solution(report: SolveReport) -> None:
        """Drop a report's live solution, keeping it as a template.

        The template is linear in the cover size at any width, so the
        report can still hand out a live solution
        (:meth:`_portable_solution`) and render its PLA export later.
        """
        report.solution_template()
        report.solution = None

    def _trim_manager(self, mgr: BddManager,
                      keep: Optional[BooleanRelation] = None,
                      extra_reports: Iterable[SolveReport] = (),
                      extra_jobs: Iterable[Dict[str, Any]] = ()
                      ) -> Optional[BooleanRelation]:
        """GC one manager, remapping this session's state through it.

        ``keep`` is an extra relation to protect (the one about to be
        solved); the remapped copy is returned.  Cached reports (and any
        ``extra_reports``, e.g. a batch's finished jobs) lose their live
        solutions (kept as templates), identity-keyed cache
        entries of this manager are dropped — their key objects would
        hold stale node ids — and relations referenced by
        ``extra_jobs`` (a batch's pending jobs) are kept live and
        remapped in place.
        """
        stale_keys = []
        for key, report in self._cache.items():
            if isinstance(key[0], BooleanRelation) and key[0].mgr is mgr:
                # Doomed entry: no point keeping its template.
                stale_keys.append(key)
            elif (report.solution is not None
                    and report.solution.mgr is mgr):
                self._strip_solution(report)
        for key in stale_keys:
            del self._cache[key]
        for report in extra_reports:
            if (report.solution is not None
                    and report.solution.mgr is mgr):
                self._strip_solution(report)
        job_relations = [
            (job, job["relation"]) for job in extra_jobs
            if isinstance(job.get("relation"), BooleanRelation)
            and job["relation"].mgr is mgr]
        mgr.clear_caches()
        extra = [keep.node] if keep is not None else []
        extra.extend(relation.node for _, relation in job_relations)
        mapping = mgr.collect(extra_roots=extra)
        for name, relation in list(self._relations.items()):
            if relation.mgr is mgr:
                self._relations[name] = relation.with_node(
                    mapping[relation.node])
        for job, relation in job_relations:
            job["relation"] = relation.with_node(mapping[relation.node])
        self.trims += 1
        if keep is not None:
            return keep.with_node(mapping[keep.node])
        return None

    def _maybe_trim(self, resolved: BooleanRelation) -> BooleanRelation:
        """Auto-trim the solved relation's manager when it grew too big."""
        limit = self.auto_trim_nodes
        if limit is None or resolved.mgr.num_nodes <= limit:
            return resolved
        return self._trim_manager(resolved.mgr, keep=resolved)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_relation(self, name: str, relation: BooleanRelation, *,
                     overwrite: bool = False) -> BooleanRelation:
        """Register an existing relation under ``name``.

        The relation's BDD root is pinned in its manager so session trims
        (:meth:`trim` / ``auto_trim_nodes``) never collect it.
        """
        previous = self._relations.get(name)
        if previous is not None and not overwrite:
            raise ValueError("relation %r is already registered "
                             "(pass overwrite=True to replace)" % name)
        relation.mgr.pin(relation.node)
        if previous is not None:
            previous.mgr.unpin(previous.node)
        self._relations[name] = relation
        return relation

    def remove_relation(self, name: str) -> None:
        """Deregister ``name``; its nodes become collectable on trim."""
        relation = self._relations.pop(name, None)
        if relation is None:
            raise KeyError("no relation named %r in this session" % name)
        relation.mgr.unpin(relation.node)

    def add_output_sets(self, name: str, rows: Sequence[Iterable[int]],
                        num_inputs: int, num_outputs: int,
                        **kwargs: Any) -> BooleanRelation:
        """Ingest the paper's tabular notation (Example 4.2 style)."""
        relation = BooleanRelation.from_output_sets(
            rows, num_inputs, num_outputs,
            mgr=self.manager_for(num_inputs, num_outputs))
        return self.add_relation(name, relation, **kwargs)

    def add_truth_tables(self, name: str, tables: Sequence[int],
                         num_inputs: int, **kwargs: Any) -> BooleanRelation:
        """Ingest one truth-table bitmask per completely specified output.

        See :func:`~repro.api.request.truth_tables_to_output_sets` for
        the encoding.  The result is a functional relation (no
        flexibility); useful as a degenerate case and for decomposition
        targets.
        """
        rows = truth_tables_to_output_sets(tables, num_inputs)
        return self.add_output_sets(name, rows, num_inputs, len(tables),
                                    **kwargs)

    def add_pla(self, name: str, text: str, **kwargs: Any) -> BooleanRelation:
        """Ingest a PLA-dialect relation string (:mod:`repro.core.relio`)."""
        num_inputs, num_outputs = peek_shape(text)
        mgr = self.manager_for(num_inputs, num_outputs)
        return self.add_relation(name, parse_relation(text, mgr=mgr),
                                 **kwargs)

    def add_pla_file(self, name: str, path: str,
                     **kwargs: Any) -> BooleanRelation:
        """Ingest a PLA-dialect relation file."""
        with open(path, "r", encoding="ascii") as handle:
            return self.add_pla(name, handle.read(), **kwargs)

    def add_system(self, name: str, system: Any,
                   independents: Optional[Sequence[str]] = None,
                   dependents: Optional[Sequence[str]] = None,
                   **kwargs: Any) -> BooleanRelation:
        """Ingest a Boolean equation system (paper Section 8).

        ``system`` is either a :class:`repro.equations.BooleanSystem` or a
        sequence of equation strings (then ``independents`` and
        ``dependents`` are required).  The system's own manager is kept —
        its variables carry the user's names.
        """
        from ..equations.system import BooleanSystem
        if not isinstance(system, BooleanSystem):
            if independents is None or dependents is None:
                raise ValueError("equation strings need independents= "
                                 "and dependents=")
            system = BooleanSystem.parse(list(system), list(independents),
                                         list(dependents))
        if not system.is_consistent():
            raise ValueError("the Boolean system is inconsistent")
        return self.add_relation(name, system.to_relation(), **kwargs)

    def add_benchmark(self, name: str,
                      instance: Optional[str] = None,
                      **kwargs: Any) -> BooleanRelation:
        """Ingest a bundled :mod:`repro.benchdata` suite instance."""
        from ..benchdata import instance_by_name
        relation = instance_by_name(instance or name).build()
        return self.add_relation(name, relation, **kwargs)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def relation(self, name: str) -> BooleanRelation:
        """Look up a registered relation."""
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError("no relation named %r in this session "
                           "(registered: %s)"
                           % (name, ", ".join(sorted(self._relations))
                              or "none")) from None

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    @staticmethod
    def _live_key(relation: BooleanRelation,
                  request: SolveRequest) -> Tuple[Any, ...]:
        """Identity-based key for interactive solves.

        Keying on the relation object (manager identity + node) costs
        nothing per call and guarantees a cached live ``Solution``
        belongs to the caller's manager.  The relation in the key keeps
        its manager alive, so ids cannot be recycled while the entry
        exists.
        """
        return (relation,) + request.options_key()

    @staticmethod
    def _spec_key(spec: Mapping[str, Any],
                  request: SolveRequest) -> Tuple[Any, ...]:
        """Content-based key for self-contained (normalised) specs.

        The spec identifies the relation without building it, so
        repeated spec solves and batch jobs hit the cache instead of
        minting a fresh manager per call.  Node specs key on their node
        list, which is exact: by ROBDD canonicity equal relations over
        the same frame give equal tuples, and unequal ones never
        collide.  The rest key on their canonical JSON (file specs are
        inlined first, see :meth:`_inline_file`).
        """
        if spec["kind"] == "nodes":
            head: Tuple[Any, ...] = (nodes_of_spec(spec),)
        else:
            head = ("spec", json.dumps(relation_spec_to_jsonable(spec),
                                       sort_keys=True))
        return head + request.options_key()

    @staticmethod
    def _inline_file(spec: Mapping[str, Any]) -> Mapping[str, Any]:
        """A ``file`` spec as inline PLA text, so on-disk edits
        invalidate its cache key; other specs pass through."""
        if spec["kind"] != "file":
            return spec
        with open(spec["path"], "r", encoding="ascii") as handle:
            return {"kind": "pla", "text": handle.read()}

    @staticmethod
    def _portable_solution(report: SolveReport, relation: Optional[Root]
                           ) -> Optional[Solution]:
        """``report``'s solution, live in ``relation``'s manager.

        Content-keyed cache entries are shared between same-content
        relations living in *different* managers, and pool reports come
        back with no live handle at all.  The live handle travels as is
        only to the relation it was solved on; anywhere else the report's
        template is instantiated over ``relation``'s inputs, with the
        cost carried over unchanged.  ``None`` without a relation or a
        solution to hand over.
        """
        if relation is None or not report.ok:
            return None
        solution = report.solution
        if (solution is not None and solution.mgr is relation.mgr
                and report._inputs == relation.inputs
                and report._outputs == relation.outputs):
            return solution
        template = report.solution_template()
        if template is None:
            return None
        return Solution(relation.mgr,
                        instantiate_solution(relation.mgr, template,
                                             relation.inputs),
                        report.cost)

    def _hand_over(self, report: SolveReport,
                   relation: Optional[Root]) -> Dict[str, Any]:
        """Copy changes giving a batch caller ``report`` on ``relation``.

        A job the batch built no relation for (``None``: a node spec, or
        a cache hit on a self-contained spec) gets its report as it is,
        with its template and whatever live solution it was solved with.
        """
        if relation is None:
            return {}
        solution = self._portable_solution(report, relation)
        if solution is None:
            return {"solution": None}
        return {"solution": solution, "_inputs": relation.inputs,
                "_outputs": relation.outputs}

    def clear_cache(self) -> None:
        self._cache.clear()
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # External cache tiers (the service layer's hooks)
    # ------------------------------------------------------------------
    def peek_cached(self, request: Optional[SolveRequest] = None,
                    relation: Optional[RelationLike] = None
                    ) -> Optional[SolveReport]:
        """Probe the in-RAM report cache without ever solving.

        Returns the cached report for this request (a defensive copy,
        ``cached=True``) or ``None`` on a miss.  Unlike :meth:`solve`,
        a data-only entry — one produced by a pool worker or adopted
        from an external tier via :meth:`store_report` — *is* served:
        callers of this hook (the service layer) want the report data,
        not a live :class:`~repro.core.Solution` handle.  They also
        serialise it, so the entry's PLA export is rendered into the
        entry the first time it is served, and never again.  Input
        validation matches :meth:`solve`: unknown names and unreadable
        files raise here.
        """
        request = request or SolveRequest()
        _, _, key, _ = self._prepare_solve(request, relation)
        cached = self._cache.get(key)
        if cached is None:
            return None
        self.cache_hits += 1
        cached.solution_pla()
        return cached.copy(cached=True, label=request.label,
                           request=request.to_dict())

    def store_report(self, request: SolveRequest, report: SolveReport,
                     relation: Optional[RelationLike] = None) -> None:
        """Adopt an externally produced report into the in-RAM cache.

        The service layer promotes disk-tier hits through this hook so
        the *next* identical request is served from RAM.  The entry is
        stored data-only (any live solution handle is dropped — it
        belongs to a foreign manager) under exactly the key
        :meth:`solve` would compute, and the usual cache hygiene
        applies: failed and cancelled reports are never stored.
        """
        if not report.ok or report.stopped == "cancelled":
            return
        _, _, key, _ = self._prepare_solve(request, relation)
        self._cache[key] = report.copy(solution=None)

    def _prepare_solve(self, request: SolveRequest,
                       relation: Optional[RelationLike]
                       ) -> Tuple[Optional[BooleanRelation],
                                  Optional[Dict[str, Any]],
                                  Tuple[Any, ...], bool]:
        """Resolve the relation source into ``(resolved, spec, key,
        from_registry)`` without materialising spec-built relations.

        This is the one cache key of every solve path.  The request's
        own spec is keyed as it stands (the request normalised it when
        it was built); only an explicit ``relation=`` spec is
        normalised here.  The key is picked *before* materialising
        anything: session names and caller objects key by identity
        (:meth:`_live_key`); self-contained specs key by content
        (:meth:`_spec_key`), which lets repeated spec solves hit the
        cache instead of minting a fresh manager per call.
        """
        if relation is None:
            spec = request.relation
            if spec is None:
                raise ValueError("no relation: pass relation= or set "
                                 "request.relation")
        elif isinstance(relation, BooleanRelation):
            return relation, None, self._live_key(relation, request), False
        else:
            spec = normalize_relation_spec(relation)
        if spec["kind"] == "name":
            resolved = self.relation(spec["name"])
            return resolved, spec, self._live_key(resolved, request), True
        spec = self._inline_file(spec)
        return None, spec, self._spec_key(spec, request), False

    def _live_hit(self, key: Tuple[Any, ...], request: SolveRequest
                  ) -> Optional[SolveReport]:
        """The cache entry for ``key`` as a hit, if it has a live solution.

        A data-only entry (from a pool worker or an external tier) is a
        miss here: the solve paths promise a live solution, so they
        re-solve and upgrade the entry rather than serve it.
        """
        cached = self._cache.get(key)
        if cached is None or cached.solution is None:
            return None
        self.cache_hits += 1
        return cached.copy(cached=True, label=request.label,
                           request=request.to_dict())

    def _materialize(self, resolved: Optional[BooleanRelation],
                     spec: Optional[Dict[str, Any]],
                     key: Tuple[Any, ...], from_registry: bool,
                     request: SolveRequest
                     ) -> Tuple[Root, Tuple[Any, ...], bool]:
        """Build (or trim around) the relation a solve will run on.

        Returns the relation, its key and whether it was built from the
        spec here.  A spec is built by :func:`root_of_spec`, so a
        narrow one comes packed, with no BDD node.
        """
        if resolved is None:
            # Spec-built relations get a fresh manager per call; there is
            # nothing from earlier solves to reclaim in it.
            return root_of_spec(spec), key, True
        if from_registry:
            # Auto-trim only fires for registry-resolved relations: the
            # session can remap those safely.  Trimming around a
            # caller-owned handle would leave the caller's object holding
            # stale node ids and silently corrupt its next use.
            trimmed = self._maybe_trim(resolved)
            if trimmed is not resolved:
                # The trim remapped node ids; re-key on the fresh object.
                return trimmed, self._live_key(trimmed, request), False
        return resolved, key, False

    def _finish(self, request: SolveRequest, resolved: Root,
                result: BrelResult, key: Tuple[Any, ...],
                spec_built: bool) -> SolveReport:
        """Report a fresh run, cache it, and release a spec's manager."""
        report = SolveReport.from_result(resolved, result,
                                         request=request.to_dict(),
                                         label=request.label)
        # A cancelled solve is a partial result of *this call's* token,
        # which is not part of the cache key — caching it would serve
        # the truncated answer to future uncancelled calls.
        if report.stopped != "cancelled":
            self._cache[key] = report.copy()
        if spec_built:
            # A manager built from a spec is private to this solve, but
            # the cached report's live solution keeps it alive: drop its
            # derived tables (computed and ISOP tables, per-node sizes)
            # now that the report exists.  Registry and
            # caller-owned relations keep theirs.
            resolved.mgr.release_caches()
        return report

    def solve(self, request: Optional[SolveRequest] = None,
              relation: Optional[RelationLike] = None, *,
              cancel: Optional[CancelToken] = None,
              observer: Optional[Observer] = None) -> SolveReport:
        """Run one solve, in this process, and return its report.

        The relation comes from the explicit ``relation`` argument or,
        failing that, the request's ``relation`` spec.  Unlike
        :meth:`solve_many` this raises on failure — single solves are
        interactive.

        ``cancel`` stops an in-flight search cooperatively (the report
        then carries the best-so-far solution with
        ``stopped="cancelled"``); ``observer`` receives every
        :class:`~repro.core.SolveEvent` of a fresh run (cache hits
        emit no events).
        """
        request = request or SolveRequest()
        resolved, spec, key, from_registry = \
            self._prepare_solve(request, relation)
        hit = self._live_hit(key, request)
        if hit is not None:
            return hit
        resolved, key, spec_built = self._materialize(
            resolved, spec, key, from_registry, request)
        # The solve's ISOP scope (BddManager.enter_solve) stays open
        # until the report is built, so the report's covers look up the
        # sub-intervals the solve already expanded.
        mgr = resolved.mgr
        mgr.enter_solve()
        try:
            result = BrelSolver(request.to_options()).solve(
                resolved, cancel=cancel, observer=observer)
            return self._finish(request, resolved, result, key, spec_built)
        finally:
            mgr.exit_solve()

    def solve_iter(self, request: Optional[SolveRequest] = None,
                   relation: Optional[RelationLike] = None, *,
                   cancel: Optional[CancelToken] = None,
                   observer: Optional[Observer] = None
                   ) -> Generator[Improvement, None, SolveReport]:
        """Anytime solve: yield each strictly improving solution.

        A generator over :class:`~repro.core.Improvement`\\ s — the
        first is QuickSolver's initial incumbent, every later one
        strictly beats its predecessor.  The generator's *return value*
        (``report = yield from session.solve_iter(...)``, or
        ``StopIteration.value`` when driving it by hand) is the final
        :class:`SolveReport`, which lands in the session cache exactly
        like a :meth:`solve` result.  Cancelling mid-iteration (via
        ``cancel``) or exceeding the request's ``time_limit_seconds``
        ends the stream early; the report still carries the best
        solution found so far.

        A cache hit with a live solution yields that single solution
        and returns the cached report immediately.

        Input validation is eager, matching :meth:`solve`: unknown
        relation names, unreadable files, specs that do not build a
        relation (a bad PLA cube, an unknown benchmark) and relations
        that are not left-total raise *here*, not at the first
        ``next()`` — only the search itself runs lazily.
        """
        request = request or SolveRequest()
        resolved, spec, key, from_registry = \
            self._prepare_solve(request, relation)
        hit = self._live_hit(key, request)
        if hit is not None:
            return self._yield_hit(hit)
        resolved, key, spec_built = self._materialize(
            resolved, spec, key, from_registry, request)
        resolved.require_well_defined()
        return self._solve_iter(request, resolved, key, spec_built,
                                cancel, observer)

    @staticmethod
    def _yield_hit(hit: SolveReport
                   ) -> Generator[Improvement, None, SolveReport]:
        yield Improvement(hit.solution, hit.cost, 0.0, 0)
        return hit

    def _solve_iter(self, request: SolveRequest, resolved: Root,
                    key: Tuple[Any, ...], spec_built: bool,
                    cancel: Optional[CancelToken],
                    observer: Optional[Observer]
                    ) -> Generator[Improvement, None, SolveReport]:
        """The lazy half of :meth:`solve_iter`: the search itself, and
        its report inside the solve's ISOP scope, as in :meth:`solve`."""
        solver = BrelSolver(request.to_options())
        mgr = resolved.mgr
        mgr.enter_solve()
        try:
            result = yield from solver.iter_solve(resolved, cancel=cancel,
                                                  observer=observer)
            return self._finish(request, resolved, result, key, spec_built)
        finally:
            mgr.exit_solve()

    def solve_many(self, requests: Sequence[SolveRequest],
                   max_workers: Optional[int] = None,
                   executor: str = "process",
                   cancel: Optional[CancelToken] = None
                   ) -> List[SolveReport]:
        """Solve a batch of requests; one report per request, in order.

        * Failures (bad relation names, malformed inputs, solver errors)
          are captured in the corresponding report, never raised.
        * ``cancel`` propagates to workers as each executor allows:
          serial jobs share the token, so the in-flight search stops
          cooperatively and reports its best-so-far solution
          (``stopped="cancelled"``); process workers cannot share a
          token, so cancellation stops dispatch — queued jobs are
          cancelled and come back as failed ``cancelled before start``
          reports while already-running workers finish their job.
        * Every job is keyed as :meth:`solve` keys it, on both
          executors: a session name by the relation object, a node spec
          by its node list, any other spec by its content, plus the
          options.  Identical jobs are solved once *per batch* and the
          shared report fanned back out (``cached=True`` on the
          copies); the session cache additionally persists across
          calls.
        * ``executor`` selects ``"process"`` (default; one worker per
          job, at most ``max_workers`` and the CPU count) or
          ``"serial"`` (in-process).  Both build a miss's root here as
          :meth:`solve` does, a node spec's aside; a process job ships a
          packed root as its ``(n, m, table)`` triple, any other as its
          node list.

        Every successful report carries its solution template
        (:meth:`SolveReport.solution_template`).  A report on a named
        session relation also carries a live ``report.solution`` in
        that relation's manager, and so does a fresh report on any
        other spec the batch builds in this process (PLA text, output
        sets, ...): pool results are re-instantiated there
        (:meth:`_portable_solution`).  Nothing is built before the
        cache lookup, so a hit on a self-contained spec builds no
        relation and a node spec is never built here for a process
        job; such a report carries a live solution only when this call
        solved it in-process, or when the cached entry it was served
        from has one (in the manager that entry was solved in).
        """
        check_executor("executor", executor)
        reports: List[Optional[SolveReport]] = [None] * len(requests)
        pending: Dict[Tuple[Any, ...], List[int]] = {}
        jobs: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        spec_built: List[Root] = []

        for index, request in enumerate(requests):
            label = request.label or "job-%d" % index
            try:
                resolved, spec, key, from_registry = \
                    self._prepare_solve(request, None)
                cached = self._cache.get(key)
                if cached is None and key not in jobs:
                    # A node spec's own list (the request checked it)
                    # ships as it is, and a serial job builds it when it
                    # is solved; any other spec's root is built here.
                    nodes: Optional[RelationNodes] = None
                    table: Optional[Tuple[int, int, int]] = None
                    if spec["kind"] == "nodes":
                        nodes = nodes_of_spec(spec)
                    else:
                        if not from_registry:
                            resolved = root_of_spec(spec)
                            spec_built.append(resolved)
                        if executor == "process":
                            if isinstance(resolved, PackedRelation):
                                table = (resolved.n, resolved.m,
                                         resolved.table)
                            else:
                                nodes = relation_to_nodes(resolved)
                    # "relation" and "solve_request" are the live objects
                    # for in-process execution; workers get only the
                    # node list or triple and the request dict.  The
                    # registry name lets the serial path re-resolve and
                    # auto-trim.
                    jobs[key] = {
                        "nodes": nodes, "table": table,
                        "request": request.to_dict(),
                        "solve_request": request, "label": label,
                        "relation": resolved,
                        "registry_name": spec["name"] if from_registry
                        else None}
            except Exception as exc:  # noqa: BLE001 — capture per job
                reports[index] = SolveReport.from_error(
                    exc, request=request.to_dict(), label=label)
                continue
            if cached is not None:
                self.cache_hits += 1
                reports[index] = cached.copy(
                    cached=True, label=label, request=request.to_dict(),
                    **self._hand_over(cached, resolved))
                continue
            pending.setdefault(key, []).append(index)

        if pending:
            fresh = self._run_jobs(list(pending), jobs, max_workers,
                                   executor, cancel)
            for key, report in fresh.items():
                # Derived once here, the template rides along in every
                # copy below, the cache entry's included.
                report.solution_template()
                # Cancelled in-flight jobs report ok with a best-so-far
                # solution; like solve(), that partial answer must not
                # be served to future uncancelled calls.
                if report.ok and report.stopped != "cancelled":
                    self._cache[key] = report.copy()
                hand_over = self._hand_over(report, jobs[key]["relation"])
                for position, index in enumerate(pending[key]):
                    # Failures are never cached, so only successful
                    # shared results count (and read) as cache hits.
                    shared = position > 0 and report.ok
                    if shared:
                        self.cache_hits += 1
                    reports[index] = report.copy(
                        cached=shared,
                        label=requests[index].label or "job-%d" % index,
                        request=requests[index].to_dict(), **hand_over)
        for relation in spec_built:
            relation.mgr.release_caches()  # as in solve()
        # Every index was filled above: failure, cache hit, or fresh run.
        return [report for report in reports if report is not None]

    def solve_tables(self, tables: Sequence[Tuple[int, int, int]],
                     request: SolveRequest) -> List[SolveReport]:
        """Solve relations mined as ``(n, m, table)`` triples under one
        options-only request; one report per triple, in order.

        The resynthesis pipeline's entry point.  Each table is in the
        root layout of :func:`~repro.decompose.cutflex.cut_flexibility_table`
        and is keyed as ``("table", n, m, table)`` plus
        :meth:`SolveRequest.options_key`, an exact key that no spec
        kind shares.  A miss is solved in this process from a root
        built straight from its table (:func:`root_of_table`), and its
        report is stored with its template and no live solution.
        Every report handed back is the session's entry itself (a
        failure, never stored, is its own report), for the caller to
        read and never mutate: no copy, request dict or label is made
        per table.  A triple listed twice is solved once and its copies
        share the report; only a triple served from an entry stored
        before the call counts as a cache hit.
        """
        options = request.options_key()
        request_dict = request.to_dict()
        fresh: Dict[Tuple[Any, ...], SolveReport] = {}
        reports: List[SolveReport] = []
        for mined in tables:
            key = ("table",) + tuple(mined) + options
            report = fresh.get(key)
            if report is None:
                report = self._cache.get(key)
                if report is not None:
                    self.cache_hits += 1
                else:
                    report = _run_job({
                        "table": tuple(mined), "request": request_dict,
                        "solve_request": request, "label": request.label})
                    self._strip_solution(report)
                    if report.ok:
                        self._cache[key] = report
                    fresh[key] = report
            reports.append(report)
        return reports

    # ------------------------------------------------------------------
    @staticmethod
    def _cancelled_report(job: Dict[str, Any]) -> SolveReport:
        """The failed report of a job cancelled before it started."""
        return SolveReport.from_error(
            RuntimeError("cancelled before start"),
            request=job["request"], label=job["label"])

    def _run_jobs(self, keys: List[Tuple[Any, ...]],
                  jobs: Dict[Tuple[Any, ...], Dict[str, Any]],
                  max_workers: Optional[int],
                  executor: str,
                  cancel: Optional[CancelToken] = None
                  ) -> Dict[Tuple[Any, ...], SolveReport]:
        """Execute the unique jobs, serially or on a process pool."""
        results: Dict[Tuple[Any, ...], SolveReport] = {}
        # Only an explicit "serial" runs in this process: process keeps
        # its isolation contract (a private manager per job) even for a
        # single job or max_workers=1.
        if executor == "serial":
            limit = self.auto_trim_nodes
            for key in keys:
                job = jobs[key]
                if cancel is not None and cancel.cancelled:
                    # In-flight jobs stopped themselves (best-so-far);
                    # jobs not yet started are skipped outright.
                    results[key] = self._cancelled_report(job)
                    continue
                name = job["registry_name"]
                if name is not None and name in self._relations:
                    # Re-resolve from the registry so earlier trims in
                    # this batch cannot leave the job holding stale
                    # node ids, then trim if the engine grew too big.
                    relation = self._relations[name]
                    job["relation"] = relation
                    if (limit is not None
                            and relation.mgr.num_nodes > limit):
                        job["relation"] = self._trim_manager(
                            relation.mgr, keep=relation,
                            extra_reports=results.values(),
                            extra_jobs=[jobs[k] for k in keys])
                results[key] = _run_job(job, cancel)
            return results

        # One worker per job, capped by the call and by the CPU count:
        # the engine is pure Python, so a process beyond the cores only
        # takes turns with the others.
        workers = min(len(keys), os.cpu_count() or 1)
        if max_workers is not None:
            workers = min(workers, max_workers)
        # Imported here so that ``import repro`` loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
                futures = {}
                for key in keys:
                    job = jobs[key]
                    # Workers get only the picklable part of a job.
                    futures[key] = pool.submit(_run_job, {
                        "nodes": job.get("nodes"), "table": job.get("table"),
                        "request": job["request"], "label": job["label"]})
                # A CancelToken cannot cross the process boundary, so
                # cancellation here stops dispatch: queued futures are
                # cancelled, running workers finish their current job.
                outstanding = set(futures.values())
                while outstanding:
                    done, outstanding = wait(
                        outstanding,
                        timeout=0.1 if cancel is not None else None,
                        return_when=FIRST_COMPLETED)
                    if (cancel is not None and cancel.cancelled
                            and outstanding):
                        for future in outstanding:
                            future.cancel()
                        break
                for key, future in futures.items():
                    job = jobs[key]
                    if future.cancelled():
                        results[key] = self._cancelled_report(job)
                        continue
                    try:
                        results[key] = future.result()
                    except Exception as exc:  # noqa: BLE001 — pool breakage
                        # A dead worker or a pickling failure fails
                        # this job only.
                        results[key] = SolveReport.from_error(
                            exc, request=job["request"],
                            label=job["label"])
        except OSError:
            # Process pools need a working fork/semaphore layer; fall
            # back to in-process execution in restricted sandboxes.
            for key in keys:
                if key not in results:
                    if cancel is not None and cancel.cancelled:
                        results[key] = self._cancelled_report(jobs[key])
                    else:
                        results[key] = _run_job(jobs[key], cancel)
        return results
