"""The session layer: named relations, cached solving, batch execution.

A :class:`Session` is the stateful front door of the package.  It

* owns reusable :class:`~repro.bdd.BddManager` instances (one per
  relation shape) so relations ingested through it share BDD nodes —
  the Section 7.1 sharing benefit, extended across relations;
* accepts relations from every ingestion path the package has (output
  sets, PLA-dialect files/strings, truth tables, Boolean equation
  systems, bundled benchmarks) and registers them under names a
  :class:`~repro.api.SolveRequest` can refer to; a source that a
  relation spec can carry is registered as that spec builds it, after
  the spec's checks, so one that fails them builds nothing;
* runs single solves (:meth:`Session.solve`) and batches
  (:meth:`Session.solve_many`, and :meth:`Session.solve_tables` for
  resynthesis's mined tables) with a shared result cache and per-job
  failures captured as failed :class:`SolveReport`\\ s.

A single solve runs in its caller's process (sharded blocks and
portfolio racers run in turn inside the solver), and so does every
mined table of :meth:`Session.solve_tables`.  The pool of
:meth:`Session.solve_many`, at most one worker per CPU, is the
package's one process pool: parallelism pays on heavy batches.

An in-process miss takes one path (:meth:`Session._solve_miss`) from
:meth:`Session.solve`, a serial batch job or a pool that cannot start:
a session name is resolved as it stands and keyed after the trim around
it, its report is built inside the solve's ISOP scope
(:func:`_solve_report`, shared with the pool worker) and stored
(:meth:`Session._store`, shared with :meth:`Session.solve_iter`).  A
mined table's miss stores only what resynthesis reads of it
(:func:`_table_entry`).

Every path into the report cache — :meth:`Session.solve`,
:meth:`Session.solve_iter`, :meth:`Session.solve_many` on either
executor, and the service hooks :meth:`Session.peek_cached` and
:meth:`Session.store_report` — keys a request the same way: a session
name or a caller's relation object by identity plus
:meth:`SolveRequest.options_key`, any other spec by
:meth:`SolveRequest.fingerprint` (which also names its disk-tier file),
as it was normalised when the request was built.  The one other key
is the mined-table key of :meth:`Session.solve_tables`: ``("table", n,
m, table)`` plus the options, which no spec shares, so a ``nodes`` spec
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
specs, equation systems and session names are built on nodes.  A pool
job's root is built the same way, in the parent before dispatch or from
its node list in the worker.  A mined table is its own root
(:func:`root_of_table`): packed as it is when narrow, else its BDD node.

Every solve explores its relation from scratch: the session caches
whole reports, never subproblems.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, wait
from typing import (Any, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from ..bdd.manager import BddManager
from ..core.brel import BrelOptions, BrelSolver
from ..core.explore import (CancelToken, Improvement, Observer,
                            check_executor, lookup_name)
from ..core.memo import instantiate_solution
from ..core.packedrel import PackedRelation
from ..core.relation import BooleanRelation
from ..core.relio import RelationNodes, relation_to_nodes
from ..core.solution import Solution
from .report import SolveReport
from .request import (RelationSpec, SolveRequest, build_relation,
                      nodes_of_spec, normalize_relation_spec, root_of_nodes,
                      root_of_spec, root_of_table, rows_of_spec)

#: What solve()/solve_many() accept as the thing to solve.
RelationLike = Union[BooleanRelation, RelationSpec]

#: What a solve starts from: a relation on nodes, or a narrow spec's
#: root packed straight from the spec (:func:`root_of_spec`).
Root = Union[BooleanRelation, PackedRelation]

#: A report-cache key: a spec's :meth:`SolveRequest.fingerprint`, an
#: identity tuple (the relation first) or a mined table's tuple.
Key = Union[str, Tuple[Any, ...]]

#: Node count past which a session garbage-collects a manager between
#: solves (None disables auto-trimming).
DEFAULT_AUTO_TRIM_NODES = 500_000

#: Why a batch job that its token stopped before it started failed.
_NOT_STARTED = RuntimeError("cancelled before start")


def _solve_report(root: Root, request: SolveRequest,
                  request_dict: Dict[str, Any], label: Optional[str],
                  cancel: Optional[CancelToken] = None,
                  observer: Optional[Observer] = None) -> SolveReport:
    """Solve ``root`` and build its report inside the solve's ISOP scope.

    The scope (:meth:`BddManager.enter_solve`) stays open until the
    report is built, so the report's covers look up the sub-intervals
    the solve already expanded.  The solve step of every in-process
    miss and of the pool worker.
    """
    mgr = root.mgr
    mgr.enter_solve()
    try:
        result = BrelSolver(request.to_options()).solve(
            root, cancel=cancel, observer=observer)
        return SolveReport.from_result(root, result, request=request_dict,
                                       label=label)
    finally:
        mgr.exit_solve()


def _table_entry(root: Root, options: BrelOptions) -> SolveReport:
    """Solve a mined table's root into the entry resynthesis reads.

    The entry holds ``ok``, the cost, why the search stopped, the
    frame and the solution's rank template, taken inside the solve's
    ISOP scope as :func:`_solve_report` takes its covers; nothing else
    of :meth:`SolveReport.from_result` (pairs, compatibility, sizes,
    cube and literal counts, SOP text, stats, improvements) is built.
    The template and cost are those of the full report.
    """
    mgr = root.mgr
    mgr.enter_solve()
    try:
        result = BrelSolver(options).solve(root)
        solution = result.solution
        return SolveReport(
            ok=True, num_inputs=len(root.inputs),
            num_outputs=len(root.outputs), cost=solution.cost,
            stopped=result.stopped, _inputs=tuple(root.inputs),
            _outputs=tuple(root.outputs),
            _template=solution.template(root.inputs))
    finally:
        mgr.exit_solve()


def _run_job(job: Dict[str, Any]) -> SolveReport:
    """A pool worker's entry point: solve one self-contained batch job.

    The job is the request dict, the node list or the ``(n, m, table)``
    triple, and the label.  Never raises: any failure — malformed
    request, unparsable relation, solver error — comes back as a failed
    report so one bad job cannot poison a batch.  BDD handles must not
    cross back over the process boundary, so it ships the solved vector
    as a template.
    """
    request_dict, label = job["request"], job["label"]
    try:
        table = job["table"]
        root = (root_of_nodes(job["nodes"]) if table is None
                else root_of_table(*table))
        report = _solve_report(root, SolveRequest.from_dict(request_dict),
                               request_dict, label)
        Session._strip_solution(report)
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
    requested again.  A trim never leaves a cache key, a batch report or
    an open stream stale: every miss is keyed after its own trim, a
    batch hands its reports over after its last job, and a manager that
    an open :meth:`solve_iter` stream reads is not trimmed until the
    stream ends, nor one where another session pinned a relation.
    """

    def __init__(self,
                 auto_trim_nodes: Optional[int] = DEFAULT_AUTO_TRIM_NODES
                 ) -> None:
        self._relations: Dict[str, BooleanRelation] = {}
        self._managers: Dict[Tuple[int, int], BddManager] = {}
        self._cache: Dict[Key, SolveReport] = {}
        #: The manager of each open solve_iter stream, once per stream.
        self._streaming: List[BddManager] = []
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
        invalid; their reports' data fields stay correct.  A manager
        that an open :meth:`solve_iter` stream reads is skipped; the
        first trim after the stream ends collects it.  So is a manager
        holding a pin this session did not take, whose holder it could
        not remap.  Returns :meth:`engine_stats` after the collection.
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
                      keep: Optional[BooleanRelation] = None
                      ) -> Optional[BooleanRelation]:
        """GC one manager, remapping this session's state through it.

        ``keep`` is an extra relation to protect (the one about to be
        solved); the remapped copy is returned.  Every cached report
        whose live solution the collection invalidates loses it (kept as
        a template), the entries about to be dropped included, so a
        report a batch still holds hands over from its template; then
        identity-keyed cache entries of this manager are dropped — their
        key objects would hold stale node ids.  A manager an open stream
        reads, or one holding a pin that is not this session's
        registration (whose holder it could not remap), is left as it
        is, and ``keep`` comes back unchanged.
        """
        mine = Counter(relation.node for relation in self._relations.values()
                       if relation.mgr is mgr)
        if (mgr in self._streaming
                or mgr.stats()["pinned_nodes"] != len(mine)
                or any(mgr.pin_count(node) != count
                       for node, count in mine.items())):
            return keep
        stale_keys = []
        for key, report in self._cache.items():
            if report.solution is not None and report.solution.mgr is mgr:
                self._strip_solution(report)
            if isinstance(key[0], BooleanRelation) and key[0].mgr is mgr:
                stale_keys.append(key)
        for key in stale_keys:
            del self._cache[key]
        mgr.clear_caches()
        mapping = mgr.collect(
            extra_roots=[keep.node] if keep is not None else [])
        for name, relation in list(self._relations.items()):
            if relation.mgr is mgr:
                self._relations[name] = relation.with_node(
                    mapping[relation.node])
        self.trims += 1
        if keep is not None:
            return keep.with_node(mapping[keep.node])
        return None

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
        relation = self.relation(name)
        del self._relations[name]
        relation.mgr.unpin(relation.node)

    def _add_rows(self, name: str, spec: Dict[str, Any],
                  **kwargs: Any) -> BooleanRelation:
        """Register what a tabular, ``pla`` or ``file`` spec builds.

        The spec is checked (:func:`normalize_relation_spec`) and read
        (:func:`rows_of_spec`) before the shape's shared manager is
        asked for, so a source that fails its checks builds nothing.
        """
        rows, num_inputs, num_outputs = rows_of_spec(
            normalize_relation_spec(spec))
        relation = BooleanRelation.from_output_sets(
            rows, num_inputs, num_outputs,
            mgr=self.manager_for(num_inputs, num_outputs))
        return self.add_relation(name, relation, **kwargs)

    def add_output_sets(self, name: str, rows: Sequence[Iterable[int]],
                        num_inputs: int, num_outputs: int,
                        **kwargs: Any) -> BooleanRelation:
        """Ingest the paper's tabular notation (Example 4.2 style): an
        ``output_sets`` spec."""
        return self._add_rows(name, {
            "kind": "output_sets", "rows": rows, "num_inputs": num_inputs,
            "num_outputs": num_outputs}, **kwargs)

    def add_truth_tables(self, name: str, tables: Sequence[int],
                         num_inputs: int, **kwargs: Any) -> BooleanRelation:
        """Ingest one truth-table bitmask per completely specified
        output: a ``truth_tables`` spec.

        See :func:`~repro.api.request.truth_tables_to_output_sets` for
        the encoding.  The result is a functional relation (no
        flexibility); useful as a degenerate case and for decomposition
        targets.
        """
        return self._add_rows(name, {
            "kind": "truth_tables", "tables": list(tables),
            "num_inputs": num_inputs}, **kwargs)

    def add_pla(self, name: str, text: str, **kwargs: Any) -> BooleanRelation:
        """Ingest a PLA-dialect relation string (:mod:`repro.core.relio`):
        a ``pla`` spec."""
        return self._add_rows(name, {"kind": "pla", "text": text}, **kwargs)

    def add_pla_file(self, name: str, path: Union[str, os.PathLike],
                     **kwargs: Any) -> BooleanRelation:
        """Ingest a PLA-dialect relation file: a ``file`` spec."""
        return self._add_rows(name, {"kind": "file",
                                     "path": os.fspath(path)}, **kwargs)

    def add_system(self, name: str, system: Any,
                   independents: Optional[Sequence[str]] = None,
                   dependents: Optional[Sequence[str]] = None,
                   **kwargs: Any) -> BooleanRelation:
        """Ingest a Boolean equation system (paper Section 8).

        ``system`` is either a :class:`repro.equations.BooleanSystem` or a
        sequence of equation strings (then ``independents`` and
        ``dependents`` are required), built as an ``equations`` spec
        (:func:`build_relation`).  The system's own manager is kept —
        its variables carry the user's names.
        """
        from ..equations.system import BooleanSystem
        if not isinstance(system, BooleanSystem):
            return self.add_relation(name, build_relation({
                "kind": "equations", "equations": list(system),
                "independents": independents, "dependents": dependents}),
                **kwargs)
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
        return lookup_name(self._relations, name,
                           "no relation named %r in this session")

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

        A self-contained spec the batch built no root for (``None``:
        one solved in this process, a node spec of a pool job, or a
        cache hit) gets its report as it is, with its template and
        whatever live solution it was solved with.
        A solution instantiated here describes itself in ``relation``'s
        variable names, so its ``sop`` is the text a serial solve gives
        (a pool worker names a node list's variables ``x0..``).
        """
        if relation is None:
            return {}
        solution = self._portable_solution(report, relation)
        if solution is None:
            return {"solution": None}
        changes = {"solution": solution, "_inputs": relation.inputs,
                   "_outputs": relation.outputs}
        if solution is not report.solution:
            changes["sop"] = solution.describe()
        return changes

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
                                  Key, bool]:
        """Resolve the relation source into ``(resolved, spec, key,
        from_registry)`` without materialising spec-built relations.

        This is the one cache key of every solve path.  The request's
        own spec is keyed as it stands (the request normalised it when
        it was built); only an explicit ``relation=`` spec is
        normalised here.  The key is picked *before* materialising
        anything: session names and caller objects key by identity
        (:meth:`_live_key`); a self-contained spec by its fingerprint
        (:meth:`SolveRequest.keyed_spec`, which reads a ``file`` spec
        once, into a ``pla`` spec), so repeated spec solves hit the
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
        spec, key = request.keyed_spec(spec)
        return None, spec, key, False

    def _live_hit(self, key: Key, request: SolveRequest
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
                     key: Key, from_registry: bool,
                     request: SolveRequest
                     ) -> Tuple[Root, Key, bool]:
        """Build (or trim around) the relation a solve will run on.

        Returns the relation, its key and whether it was built from the
        spec here.  A spec is built by :func:`root_of_spec`, so a
        narrow one comes packed, with no BDD node.  A session name's
        manager is trimmed first once it holds more than
        ``auto_trim_nodes`` nodes.
        """
        if resolved is None:
            # Spec-built relations get a fresh manager per call; there is
            # nothing from earlier solves to reclaim in it.
            return root_of_spec(spec), key, True
        limit = self.auto_trim_nodes
        # Auto-trim only fires for registry-resolved relations: the
        # session can remap those safely.  Trimming around a
        # caller-owned handle would leave the caller's object holding
        # stale node ids and silently corrupt its next use.
        if (from_registry and limit is not None
                and resolved.mgr.num_nodes > limit):
            trimmed = self._trim_manager(resolved.mgr, keep=resolved)
            if trimmed is not resolved:
                # The trim remapped node ids; re-key on the fresh object.
                return trimmed, self._live_key(trimmed, request), False
        return resolved, key, False

    def _store(self, key: Key, report: SolveReport,
               root: Root, spec_built: bool) -> SolveReport:
        """Cache a fresh report, release a spec's manager, return it.

        The report itself is the entry, so a trim strips the report a
        batch holds; :meth:`solve` and :meth:`solve_iter` hand out a copy.
        """
        # A cancelled solve is a partial result of *this call's* token,
        # which is not part of the cache key — caching it would serve
        # the truncated answer to future uncancelled calls.
        if report.stopped != "cancelled":
            self._cache[key] = report
        if spec_built:
            # A manager built from a spec is private to this solve, but
            # the cached report's live solution keeps it alive: drop its
            # derived tables (computed table, per-node sizes) now that
            # the report exists.  Registry and caller-owned relations
            # keep theirs.
            root.mgr.release_caches()
        return report

    def _solve_miss(self, request: SolveRequest,
                    resolved: Optional[BooleanRelation],
                    spec: Optional[Dict[str, Any]], key: Key,
                    from_registry: bool,
                    cancel: Optional[CancelToken] = None,
                    observer: Optional[Observer] = None) -> SolveReport:
        """The one in-process miss path, after :meth:`solve`'s hit check.

        The arguments after ``request`` are :meth:`_prepare_solve`'s
        reading of it as the session stands now.  The relation is
        trimmed around and keyed after the trim (:meth:`_materialize`),
        solved and reported (:func:`_solve_report`), and stored
        (:meth:`_store`).
        """
        root, key, spec_built = self._materialize(
            resolved, spec, key, from_registry, request)
        report = _solve_report(root, request, request.to_dict(),
                               request.label, cancel, observer)
        return self._store(key, report, root, spec_built)

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
        return self._solve_miss(request, resolved, spec, key, from_registry,
                                cancel, observer).copy()

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
        ``next()`` — only the search itself runs lazily.  The relation
        is also trimmed around and keyed here, and until the stream
        ends no trim — :meth:`trim` or an automatic one — collects the
        manager it reads, so the relation and its key stay as they
        were.  A stream closed or dropped before it ends releases that
        hold.
        """
        request = request or SolveRequest()
        resolved, spec, key, from_registry = \
            self._prepare_solve(request, relation)
        hit = self._live_hit(key, request)
        if hit is not None:
            return self._yield_hit(hit)
        root, key, spec_built = self._materialize(
            resolved, spec, key, from_registry, request)
        root.require_in_frame()
        root.require_well_defined()
        stream = self._solve_iter(request, root, key, spec_built, cancel,
                                  observer)
        next(stream)  # takes the hold: see _solve_iter
        return stream

    @staticmethod
    def _yield_hit(hit: SolveReport
                   ) -> Generator[Improvement, None, SolveReport]:
        yield Improvement(hit.solution, hit.cost, 0.0, 0)
        return hit

    def _solve_iter(self, request: SolveRequest, root: Root,
                    key: Key, spec_built: bool,
                    cancel: Optional[CancelToken],
                    observer: Optional[Observer]
                    ) -> Generator[Improvement, None, SolveReport]:
        """The lazy half of :meth:`solve_iter`: the search itself, and
        its report inside the solve's ISOP scope, as in :meth:`solve`.

        :meth:`solve_iter` runs it to a first ``yield`` the caller never
        sees, so the hold on the root's manager is taken at once and the
        ``finally`` that drops it runs however the stream ends —
        drained, closed, or dropped before its first improvement.
        """
        mgr = root.mgr
        self._streaming.append(mgr)
        try:
            yield  # primed by solve_iter
            mgr.enter_solve()
            try:
                result = yield from BrelSolver(request.to_options()) \
                    .iter_solve(root, cancel=cancel, observer=observer)
                report = SolveReport.from_result(
                    root, result, request=request.to_dict(),
                    label=request.label)
            finally:
                mgr.exit_solve()
            return self._store(key, report, root, spec_built).copy()
        finally:
            self._streaming.remove(mgr)

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
          (``stopped="cancelled"``, never cached); process workers
          cannot share a token, so cancellation stops dispatch.  Either
          way jobs not yet started come back as failed ``cancelled
          before start`` reports; running workers finish their job.
        * Every job is keyed as :meth:`solve` keys it, on both
          executors: a session name by the relation object plus the
          options, any other spec by its request's fingerprint.
          Identical jobs are solved once *per batch* and the shared
          report fanned back out (``cached=True`` on the copies); the
          session cache additionally persists across calls.
        * ``executor`` selects ``"process"`` (default; one worker per
          job, at most ``max_workers`` and the CPU count) or
          ``"serial"``, where each job takes :meth:`solve`'s miss path
          when it runs (:meth:`_solve_miss`), and so does every job of
          a pool that cannot start.  A process job's root is built here
          as :meth:`solve` builds it, a node spec's aside, and ships as
          its ``(n, m, table)`` triple when packed, else as its node list.

        Every report is handed over after the last job, cache hits
        included, and carries its solution template
        (:meth:`SolveReport.solution_template`).  A report on a named
        session relation also carries a live ``report.solution`` in
        that relation's manager as it stands then, and so does a fresh
        report on any other spec, in the root it was solved on or, for a
        pool report, the root built here (:meth:`_portable_solution`).
        Nothing is built before the cache lookup, so a hit on a
        self-contained spec builds no relation and a node spec is never
        built here for a process job; such a report carries a live
        solution only when this call solved it in-process, or when the
        cached entry it was served from has one (in the manager that
        entry was solved in).
        """
        check_executor("executor", executor)
        reports: List[Optional[SolveReport]] = [None] * len(requests)
        # The batch's unique jobs by the key each has when it is queued:
        # the indices each answers, and its report — a hit's cache
        # entry, held as it is until the hand-over, or a fresh one.
        indices: Dict[Key, List[int]] = {}
        results: Dict[Key, SolveReport] = {}
        # Each miss's first request and its _prepare_solve reading.
        misses: Dict[Key, Tuple[Any, ...]] = {}
        for index, request in enumerate(requests):
            try:
                resolved, spec, key, from_registry = \
                    self._prepare_solve(request, None)
            except Exception as exc:  # noqa: BLE001 — capture per job
                reports[index] = SolveReport.from_error(
                    exc, request=request.to_dict(),
                    label=request.label or "job-%d" % index)
                continue
            if key not in indices:
                cached = self._cache.get(key)
                if cached is not None:
                    results[key] = cached
                else:
                    misses[key] = (request, resolved, spec, from_registry)
            indices.setdefault(key, []).append(index)

        # The roots built here for pool jobs, to hand their reports over.
        roots: Dict[Key, Root] = {}
        if executor == "process" and misses:
            self._run_pool(misses, results, roots, max_workers, cancel)
        for key, (request, *_) in misses.items():
            if key in results:
                continue
            if cancel is not None and cancel.cancelled:
                # In-flight jobs stopped themselves (best-so-far); jobs
                # not yet started are skipped outright.
                results[key] = SolveReport.from_error(_NOT_STARTED)
                continue
            try:
                results[key] = self._solve_miss(
                    request, *self._prepare_solve(request, None),
                    cancel=cancel)
            except Exception as exc:  # noqa: BLE001 — capture per job
                results[key] = SolveReport.from_error(exc)

        for key, positions in indices.items():
            report = results[key]
            # Derived once here, the template rides along in every copy.
            report.solution_template()
            spec = requests[positions[0]].relation
            relation = (self._relations.get(spec["name"])
                        if spec["kind"] == "name" else roots.get(key))
            hand_over = self._hand_over(report, relation)
            if key in roots:
                roots[key].mgr.release_caches()  # as in solve()
            for position, index in enumerate(positions):
                # Failures are never cached, so only successful shared
                # results count (and read) as cache hits.
                shared = (position > 0 or key not in misses) and report.ok
                if shared:
                    self.cache_hits += 1
                reports[index] = report.copy(
                    cached=shared,
                    label=requests[index].label or "job-%d" % index,
                    request=requests[index].to_dict(), **hand_over)
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
        kind shares, so only this method reaches such an entry.  The
        request's solver options are resolved once per call.  A miss is
        solved in this process from a root built straight from its
        table (:func:`root_of_table`), and its entry holds only what
        the pipeline reads (:func:`_table_entry`): ``ok``, the cost,
        ``stopped``, the frame and the rank template, with no live
        solution and none of a full report's summary.
        Every report handed back is the session's entry itself (a
        failure, never stored, is its own report), for the caller to
        read and never mutate: no copy, request dict or label is made
        per table.  A triple listed twice is solved once and its copies
        share the report; only a triple served from an entry stored
        before the call counts as a cache hit.
        """
        options = request.options_key()
        brel_options = request.to_options()
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
                    try:
                        report = _table_entry(root_of_table(*mined),
                                              brel_options)
                    except Exception as exc:  # noqa: BLE001 — per table
                        report = SolveReport.from_error(
                            exc, request=request.to_dict(),
                            label=request.label)
                    if report.ok:
                        self._cache[key] = report
                    fresh[key] = report
            reports.append(report)
        return reports

    # ------------------------------------------------------------------
    def _run_pool(self, misses: Dict[Key, Tuple[Any, ...]],
                  results: Dict[Key, SolveReport],
                  roots: Dict[Key, Root],
                  max_workers: Optional[int],
                  cancel: Optional[CancelToken]) -> None:
        """Solve a batch's misses on a process pool and store each
        report under the key its job was queued with.

        Only an explicit ``"process"`` gets here: it keeps its isolation
        contract (a private manager per job) even for a single job or
        ``max_workers=1``.  Jobs are made self-contained once the pool
        has started, so a pool that cannot start builds nothing and
        leaves its jobs to the caller's in-process loop.
        """
        # One worker per job, capped by the call and by the CPU count:
        # the engine is pure Python, so a process beyond the cores only
        # takes turns with the others.
        workers = min(len(misses), os.cpu_count() or 1)
        if max_workers is not None:
            workers = min(workers, max_workers)
        # Imported here so that ``import repro`` loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
                futures = {}
                for key, (request, resolved, spec, from_registry) \
                        in misses.items():
                    # A node spec ships its own list (the request checked
                    # it); any other root is built here, and ships as its
                    # triple when packed, else as its node list.
                    nodes: Optional[RelationNodes] = None
                    table: Optional[Tuple[int, int, int]] = None
                    try:
                        if spec["kind"] == "nodes":
                            nodes = nodes_of_spec(spec)
                        elif not from_registry:
                            resolved = roots[key] = root_of_spec(spec)
                        if isinstance(resolved, PackedRelation):
                            table = (resolved.n, resolved.m, resolved.table)
                        elif nodes is None:
                            nodes = relation_to_nodes(resolved)
                    except Exception as exc:  # noqa: BLE001 — per job
                        results[key] = SolveReport.from_error(exc)
                        continue
                    futures[key] = pool.submit(_run_job, {
                        "nodes": nodes, "table": table,
                        "request": request.to_dict(), "label": request.label})
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
                    try:
                        report = (SolveReport.from_error(_NOT_STARTED)
                                  if future.cancelled() else future.result())
                    except Exception as exc:  # noqa: BLE001 — pool breakage
                        # A dead worker or a pickling failure fails
                        # this job only.
                        report = SolveReport.from_error(exc)
                    if report.ok:
                        self._cache[key] = report
                    results[key] = report
        except OSError:
            # Process pools need a working fork/semaphore layer; in
            # restricted sandboxes the jobs run in this process.
            pass
