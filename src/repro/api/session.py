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
  (:meth:`Session.solve_many`) with a shared result cache, the latter
  optionally process-parallel via :mod:`concurrent.futures`, with
  per-job failures captured as failed :class:`SolveReport`\\ s rather
  than raised.

Pool jobs are made *self-contained* before dispatch: the relation
travels as its node list (:func:`repro.core.relio.relation_to_nodes`,
linear in BDD size) and the request as its dict form, so a job needs
nothing from the parent process beyond importable code; the solution
comes back as a rank template, which the session re-instantiates in the
manager of the job's relation when the parent built one.  Node-spec
jobs are node lists already: they ship as they are, and their reports
keep the template.  (Custom registry entries reach workers through the
default ``fork`` start method on POSIX; under ``spawn`` they must be
registered at import time of a module the workers import.)

Every solve explores its relation from scratch: the session caches
whole reports, never subproblems.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from typing import (Any, Dict, Generator, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..bdd.manager import BddManager
from ..core.brel import BrelResult, BrelSolver
from ..core.explore import (CancelToken, Improvement, Observer,
                            check_executor)
from ..core.memo import instantiate_solution
from ..core.partition import (merge_block_stats, partition_relation,
                              worst_stopped)
from ..core.relation import BooleanRelation
from ..core.relio import (RelationNodes, parse_relation, peek_shape,
                          relation_from_nodes, relation_to_nodes)
from ..core.solution import Solution, SolverStats
from .report import SolveReport
from .request import (RelationSpec, SolveRequest, build_relation,
                      nodes_of_spec, normalize_relation_spec,
                      relation_spec_to_jsonable,
                      truth_tables_to_output_sets)

#: What solve()/solve_many() accept as the thing to solve.
RelationLike = Union[BooleanRelation, RelationSpec]

#: Node count past which a session garbage-collects a manager between
#: solves (None disables auto-trimming).
DEFAULT_AUTO_TRIM_NODES = 500_000

def _solve_payload(payload: Dict[str, Any]) -> SolveReport:
    """Execute one self-contained pool job (runs in worker processes).

    Never raises: any failure — malformed request, unparsable relation,
    solver error — comes back as a failed report so one bad job cannot
    poison a batch.  Workers cannot share a cancel token; they stop
    only between jobs.
    """
    label = payload.get("label")
    request_dict = payload.get("request")
    try:
        request = SolveRequest.from_dict(request_dict)
        relation = relation_from_nodes(payload["nodes"])
        result = BrelSolver(request.to_options()).solve(relation)
        report = SolveReport.from_result(relation, result,
                                         request=request_dict, label=label)
        # BDD handles must not cross back over the process boundary:
        # keep the solved vector as a template, then ship the report.
        report.solution_template()
        report.solution = None
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

    def __init__(self, max_workers: Optional[int] = None,
                 auto_trim_nodes: Optional[int] = DEFAULT_AUTO_TRIM_NODES
                 ) -> None:
        self._relations: Dict[str, BooleanRelation] = {}
        self._managers: Dict[Tuple[int, int], BddManager] = {}
        self._cache: Dict[Tuple[Any, ...], SolveReport] = {}
        self.cache_hits = 0
        self.default_max_workers = max_workers
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
                      extra_payloads: Iterable[Dict[str, Any]] = ()
                      ) -> Optional[BooleanRelation]:
        """GC one manager, remapping this session's state through it.

        ``keep`` is an extra relation to protect (the one about to be
        solved); the remapped copy is returned.  Cached reports (and any
        ``extra_reports``, e.g. a batch's finished jobs) lose their live
        solutions (kept as templates), identity-keyed cache
        entries of this manager are dropped — their key objects would
        hold stale node ids — and relations referenced by
        ``extra_payloads`` (a batch's pending jobs) are kept live and
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
        payload_relations = [
            (payload, payload["relation"]) for payload in extra_payloads
            if isinstance(payload.get("relation"), BooleanRelation)
            and payload["relation"].mgr is mgr]
        mgr.clear_caches()
        extra = [keep.node] if keep is not None else []
        extra.extend(relation.node for _, relation in payload_relations)
        mapping = mgr.collect(extra_roots=extra)
        for name, relation in list(self._relations.items()):
            if relation.mgr is mgr:
                self._relations[name] = relation.with_node(
                    mapping[relation.node])
        for payload, relation in payload_relations:
            payload["relation"] = relation.with_node(mapping[relation.node])
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

    def resolve_relation(self, source: RelationLike) -> BooleanRelation:
        """Materialise any accepted relation source."""
        if isinstance(source, BooleanRelation):
            return source
        if isinstance(source, str):
            return self.relation(source)
        if isinstance(source, Mapping) and source.get("kind") == "name":
            return self.relation(source["name"])
        return build_relation(source)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _options_key(self, request: SolveRequest) -> Tuple[Any, ...]:
        # The *effective* strategy keys the entry, so strategy=None and
        # strategy="bfs" share a slot; record_trace is keyed because it
        # changes the report's content (the trace field).
        # Every future request field that can alter a report's content
        # MUST join this tuple — the schema-evolution regression test
        # (tests/api/test_session.py::TestCacheKeySchemaGuard)
        # enumerates the dataclass fields to catch omissions.
        # Decomposition keys by its *effective* decision too: None
        # (auto) and True shard identically, so they share a slot,
        # while False reports lack the partition breakdown and must
        # not be served to sharded requests (or vice versa).  The
        # block executor is deliberately NOT keyed: sharded results
        # are byte-identical across serial and process dispatch.
        # The backend field is NOT keyed either: it is accepted and
        # ignored, so its values share one slot.
        # The portfolio racer line-up keys by its *resolved* canonical
        # JSON — None and an explicitly spelled-out default line-up
        # share a slot — while portfolio_executor, like the block
        # executor, is an execution detail and is NOT keyed.
        if request.exploration_strategy() == "portfolio":
            from ..core.portfolio import racers_cache_key
            racers = racers_cache_key(request.portfolio_racers)
        else:
            racers = None
        return (request.cost, request.minimizer,
                request.exploration_strategy(),
                request.max_explored, request.fifo_capacity,
                request.quick_on_subrelations, request.symmetry_pruning,
                request.symmetry_max_depth, request.time_limit_seconds,
                request.record_trace, request.decompose is not False,
                racers)

    def _cache_key(self, nodes: RelationNodes, request: SolveRequest
                   ) -> Tuple[Any, ...]:
        """Content key for pool jobs and node specs (any manager).

        The node list is exact: by ROBDD canonicity equal relations
        over the same frame give equal tuples, and unequal ones never
        collide, so no hash can serve a wrong answer.
        """
        return (nodes,) + self._options_key(request)

    def _live_key(self, relation: BooleanRelation,
                  request: SolveRequest) -> Tuple[Any, ...]:
        """Identity-based key for interactive solves.

        Keying on the relation object (manager identity + node) costs
        nothing per call and guarantees a cached live ``Solution``
        belongs to the caller's manager.  The relation in the key keeps
        its manager alive, so ids cannot be recycled while the entry
        exists.
        """
        return (relation,) + self._options_key(request)

    def _spec_key(self, spec: Mapping[str, Any],
                  request: SolveRequest) -> Tuple[Any, ...]:
        """Content-based key for self-contained relation specs.

        The spec identifies the relation without building it, so
        repeated spec solves hit the cache instead of minting a fresh
        manager per call.  Node specs key on their node list, the key a
        pool job on the same relation uses; the rest key on their
        canonical JSON (file specs are inlined first, see
        :meth:`_inline_file`).
        """
        if spec["kind"] == "nodes":
            return self._cache_key(nodes_of_spec(spec), request)
        return ("spec", json.dumps(relation_spec_to_jsonable(dict(spec)),
                                   sort_keys=True)) \
            + self._options_key(request)

    @staticmethod
    def _inline_file(spec: Mapping[str, Any]) -> Mapping[str, Any]:
        """A ``file`` spec as inline PLA text, so on-disk edits
        invalidate its cache key; other specs pass through."""
        if spec["kind"] != "file":
            return spec
        with open(spec["path"], "r", encoding="ascii") as handle:
            return {"kind": "pla", "text": handle.read()}

    @staticmethod
    def _portable_solution(report: SolveReport,
                           relation: Optional[BooleanRelation]
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
                   relation: Optional[BooleanRelation]) -> Dict[str, Any]:
        """Copy changes giving a batch caller ``report`` on ``relation``.

        A node-spec job has no relation (``None``): its report goes out
        as it is, with its template and whatever live solution it was
        solved with.
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
    def options_key(self, request: SolveRequest) -> Tuple[Any, ...]:
        """The request's result-affecting option values, as a tuple.

        Every field that can change a report's content is present (the
        schema-evolution guard in the test suite enforces it), and all
        values are JSON-safe primitives — external cache tiers key
        their slots on this tuple plus a canonical relation rendering.
        Tri-states are resolved to their *effective* decision against
        this session's defaults, exactly like the in-RAM report cache.
        """
        return self._options_key(request)

    def peek_cached(self, request: Optional[SolveRequest] = None,
                    relation: Optional[RelationLike] = None
                    ) -> Optional[SolveReport]:
        """Probe the in-RAM report cache without ever solving.

        Returns the cached report for this request (a defensive copy,
        ``cached=True``) or ``None`` on a miss.  Unlike :meth:`solve`,
        a data-only entry — one produced by a pool worker or adopted
        from an external tier via :meth:`store_report` — *is* served:
        callers of this hook (the service layer) want the report data,
        not a live :class:`~repro.core.Solution` handle.  Input
        validation matches :meth:`solve`: unknown names and unreadable
        files raise here.
        """
        request = request or SolveRequest()
        _, _, key, _ = self._prepare_solve(request, relation)
        cached = self._cache.get(key)
        if cached is None:
            return None
        self.cache_hits += 1
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

        The cache key is picked *before* materialising anything: session
        names and caller objects key by identity; self-contained specs
        key by content (:meth:`_spec_key`), which lets repeated spec
        solves hit the cache instead of minting a fresh manager per
        call.
        """
        if relation is None:
            if request.relation is None:
                raise ValueError("no relation: pass relation= or set "
                                 "request.relation")
            relation = request.relation
        resolved: Optional[BooleanRelation] = None
        spec: Optional[Dict[str, Any]] = None
        from_registry = False
        if isinstance(relation, BooleanRelation):
            resolved = relation
            key = self._live_key(resolved, request)
        else:
            spec = normalize_relation_spec(relation)
            if spec["kind"] == "name":
                resolved = self.relation(spec["name"])
                from_registry = True
                key = self._live_key(resolved, request)
            else:
                spec = self._inline_file(spec)
                key = self._spec_key(spec, request)
        return resolved, spec, key, from_registry

    def _materialize(self, resolved: Optional[BooleanRelation],
                     spec: Optional[Dict[str, Any]],
                     key: Tuple[Any, ...], from_registry: bool,
                     request: SolveRequest
                     ) -> Tuple[BooleanRelation, Tuple[Any, ...]]:
        """Build (or trim around) the relation a solve will run on."""
        if resolved is None:
            # Spec-built relations get a fresh manager per call; there is
            # nothing from earlier solves to reclaim in it.
            resolved = build_relation(spec)
        elif from_registry:
            # Auto-trim only fires for registry-resolved relations: the
            # session can remap those safely.  Trimming around a
            # caller-owned handle would leave the caller's object holding
            # stale node ids and silently corrupt its next use.
            trimmed = self._maybe_trim(resolved)
            if trimmed is not resolved:
                # The trim remapped node ids; re-key on the fresh object.
                resolved = trimmed
                key = self._live_key(resolved, request)
        return resolved, key

    def solve(self, request: Optional[SolveRequest] = None,
              relation: Optional[RelationLike] = None, *,
              cancel: Optional[CancelToken] = None,
              observer: Optional[Observer] = None,
              block_executor: str = "serial",
              block_workers: Optional[int] = None) -> SolveReport:
        """Run one solve and return its report.

        The relation comes from the explicit ``relation`` argument or,
        failing that, the request's ``relation`` spec.  Unlike
        :meth:`solve_many` this raises on failure — single solves are
        interactive.

        ``cancel`` stops an in-flight search cooperatively (the report
        then carries the best-so-far solution with
        ``stopped="cancelled"``); ``observer`` receives every
        :class:`~repro.core.SolveEvent` of a fresh run (cache hits
        emit no events).

        ``block_executor`` dispatches the *blocks of this one solve*
        when output-block decomposition shards the relation
        (:mod:`repro.core.partition`): ``"serial"`` (default) solves
        them in the fixed partition order inside the solver loop;
        ``"process"`` ships each block to the same process-pool
        machinery :meth:`solve_many` uses (node list out, solution
        template back) and recombines the per-block solutions in the
        caller's manager — byte-identical to the serial result, since
        every block still runs the same deterministic strategy loop on
        the same ordered BDD.  Relations that do not shard, calls
        that need the live event stream (an ``observer`` or
        ``record_trace`` — workers cannot stream events back), and
        environments without a working pool layer all fall back to the
        in-process solve, which still shards serially in-solver.
        ``block_workers`` caps the pool (default: one worker per
        block, capped at the CPU count).  The recombined report carries
        a live solution in the caller's manager, rebuilt from the
        blocks' templates.
        """
        request = request or SolveRequest()
        check_executor("block_executor", block_executor)
        resolved, spec, key, from_registry = \
            self._prepare_solve(request, relation)
        cached = self._cache.get(key)
        # A worker-produced cache entry has its solution stripped; this
        # path promises a live solution, so re-solve (and upgrade the
        # cache entry) rather than serve it.
        if cached is not None and cached.solution is not None:
            self.cache_hits += 1
            return cached.copy(cached=True, label=request.label,
                               request=request.to_dict())
        spec_built = resolved is None
        resolved, key = self._materialize(resolved, spec, key,
                                          from_registry, request)
        report = None
        partition = None
        if (block_executor == "process"
                and request.decompose is not False
                and len(resolved.outputs) >= 2
                # Pool workers cannot stream events back to the caller
                # (observer/trace), and cannot share the serial path's
                # single cross-block deadline (time limit); those
                # contracts beat pooling, so such solves run in-solver.
                and observer is None and not request.record_trace
                and request.time_limit_seconds is None):
            partition = partition_relation(resolved)
            if not partition.is_trivial:
                report = self._solve_blocks_pooled(request, resolved,
                                                   partition,
                                                   block_workers, cancel)
        if report is None:
            # Hand any partition computed above to the solver's router
            # so the support/separability analysis is never paid twice.
            result = BrelSolver(request.to_options()).solve(
                resolved, cancel=cancel, observer=observer,
                partition=partition)
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

    def _solve_blocks_pooled(self, request: SolveRequest,
                             resolved: BooleanRelation,
                             partition,
                             max_workers: Optional[int],
                             cancel: Optional[CancelToken]
                             ) -> Optional[SolveReport]:
        """Shard one solve across a process pool; ``None`` = run
        in-process.

        Ships each block of the (non-trivial) ``partition`` as a
        self-contained job (node list + block request) through the
        same worker entry point batches use, and recombines the
        per-block solution templates into a live full solution in the
        caller's manager.  Returns ``None`` when the pool layer is
        unavailable or the solve was cancelled before the pool
        finished — the caller then runs the in-process solve, which
        still shards serially in-solver and honours the token
        (immediately returning the quick incumbents).  Block failures
        raise, matching :meth:`solve`'s raise-on-failure contract.
        """
        # The serial path's solver checks left-totality first and lets
        # NotWellDefinedError propagate; raise the same error here
        # rather than shipping doomed blocks and wrapping the worker's
        # failure in RuntimeError.
        resolved.require_well_defined()
        start = time.perf_counter()
        base_request = request.to_dict()
        base_request["relation"] = None
        # Blocks are connected components: they cannot shard further,
        # but pin the router off so workers skip the re-analysis.
        base_request["decompose"] = False
        payloads = []
        for block in partition.blocks:
            payload = {"nodes": relation_to_nodes(block.relation),
                       "request": dict(base_request),
                       "label": "block-%d" % block.index}
            payload["request"]["label"] = payload["label"]
            payloads.append(payload)

        reports = self._run_block_jobs(payloads, max_workers, cancel)
        if reports is None:
            return None  # pool layer unavailable; solve in-process
        for payload, block_report in zip(payloads, reports):
            if not block_report.ok:
                raise RuntimeError(
                    "sharded solve failed on %s: %s"
                    % (payload["label"], block_report.error))

        block_solutions = [self._portable_solution(block_report,
                                                   block.relation)
                           for block, block_report
                           in zip(partition.blocks, reports)]
        full = partition.recombine_solutions(
            block_solutions, request.to_options().cost_function)
        stats = merge_block_stats(
            [SolverStats(**block_report.stats)
             for block_report in reports])
        stats.runtime_seconds = time.perf_counter() - start
        stats.bdd_nodes = resolved.mgr.num_nodes
        stopped = worst_stopped(
            [block_report.stopped or "exhausted"
             for block_report in reports])
        # No executor tag in the summary: pooled and serial sharded
        # reports share a cache slot, so their content must not depend
        # on which executor produced them.
        summary = partition.summary()
        for entry, solution, block_report in zip(
                summary["blocks"], block_solutions, reports):
            entry["cost"] = solution.cost
            entry["stats"] = dict(block_report.stats)
            entry["stopped"] = block_report.stopped
        improvements = self._recombine_improvements(reports,
                                                    block_solutions,
                                                    full, stats)
        result = BrelResult(
            full, stats, improvements=improvements,
            events=None, stopped=stopped, partition=summary)
        return SolveReport.from_result(resolved, result,
                                       request=request.to_dict(),
                                       label=request.label)

    @staticmethod
    def _recombine_improvements(reports: List[SolveReport],
                                block_solutions: List[Solution],
                                full: Solution,
                                stats: SolverStats) -> List[Improvement]:
        """Rebuild the serial-equivalent anytime trajectory.

        The serial sharded loop records one improvement per strictly
        improving recombination, walking the blocks in partition order;
        for per-output-additive costs each block-local improvement
        lowers the running total by exactly its local delta, so the
        same trajectory (costs and cumulative explored counts; wall
        stamps are worker-local) reconstructs from the block reports.
        A cost function the block deltas cannot explain (the trajectory
        would not end at the recombined cost) falls back to the single
        final entry rather than fabricating a sequence.
        """
        trajectories = [list(report.improvements) for report in reports]
        if any(not trajectory for trajectory in trajectories):
            return [Improvement(full, full.cost, stats.runtime_seconds,
                                stats.relations_explored)]
        running = [trajectory[0]["cost"] for trajectory in trajectories]
        best_total = sum(running)
        improvements = [Improvement(full, best_total, 0.0, 0)]
        explored_base = 0
        for index, trajectory in enumerate(trajectories):
            for entry in trajectory[1:]:
                running[index] = entry["cost"]
                candidate_total = sum(running)
                if candidate_total < best_total:
                    best_total = candidate_total
                    improvements.append(Improvement(
                        full, best_total, entry["elapsed_seconds"],
                        explored_base + int(entry["explored"])))
            explored_base += int(reports[index].stats.get(
                "relations_explored", 0))
        if improvements[-1].cost != full.cost:
            return [Improvement(full, full.cost, stats.runtime_seconds,
                                stats.relations_explored)]
        return improvements

    def _run_block_jobs(self, payloads: List[Dict[str, Any]],
                        max_workers: Optional[int],
                        cancel: Optional[CancelToken]
                        ) -> Optional[List[SolveReport]]:
        """Run block payloads on a process pool; ``None`` = abandon
        pooling.

        Workers cannot share the cancel token, so a cancellation
        observed while waiting abandons the pooled attempt (``None``)
        at once — the in-process sharded solve then honours the token
        directly.  A worker that dies (broken pool, pickling breakage)
        comes back as a failed report for its block rather than an
        escaping exception.
        """
        if cancel is not None and cancel.cancelled:
            return None
        try:
            pool = self._process_pool(max_workers, len(payloads))
        except OSError:
            # No working fork/semaphore layer (restricted sandboxes):
            # signal the caller to run the in-process sharded solve.
            return None
        try:
            futures = [self._submit(pool, payload) for payload in payloads]
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding,
                    timeout=0.1 if cancel is not None else None,
                    return_when=FIRST_COMPLETED)
                if (cancel is not None and cancel.cancelled
                        and outstanding):
                    # Abandon without joining: workers cannot see the
                    # token, so waiting for them would stall the cancel
                    # for the duration of the longest block.  The
                    # finally-shutdown cancels queued blocks; running
                    # ones finish in the background and are discarded.
                    return None
            return [self._future_report(future, payload)
                    for payload, future in zip(payloads, futures)]
        except OSError:
            return None
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _process_pool(self, max_workers: Optional[int], jobs: int
                      ) -> ProcessPoolExecutor:
        """A pool for ``jobs`` jobs; raises ``OSError`` without a
        working process layer.

        ``max_workers`` (else the session default, else one worker per
        job up to the CPU count) caps its size.
        """
        if max_workers is None:
            max_workers = self.default_max_workers
        if max_workers is None:
            max_workers = min(jobs, os.cpu_count() or 1)
        return ProcessPoolExecutor(max_workers=max(1, min(max_workers,
                                                          jobs)))

    @staticmethod
    def _submit(pool: ProcessPoolExecutor, payload: Dict[str, Any]
                ) -> Future:
        """Ship a job's picklable part (node list, request dict,
        label) to the pool."""
        return pool.submit(_solve_payload, {
            "nodes": payload["nodes"], "request": payload["request"],
            "label": payload["label"]})

    @staticmethod
    def _future_report(future: Future, payload: Dict[str, Any]
                       ) -> SolveReport:
        """A finished job's report; a broken pool or a pickling failure
        becomes a failed report for that job."""
        try:
            return future.result()
        except Exception as exc:  # noqa: BLE001 — pool/pickling breakage
            return SolveReport.from_error(exc, request=payload["request"],
                                          label=payload["label"])

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
        relation names and unreadable files raise *here*, not at the
        first ``next()`` — only the search itself runs lazily.
        """
        request = request or SolveRequest()
        resolved, spec, key, from_registry = \
            self._prepare_solve(request, relation)
        return self._solve_iter(request, resolved, spec, key,
                                from_registry, cancel, observer)

    def _solve_iter(self, request: SolveRequest,
                    resolved: Optional[BooleanRelation],
                    spec: Optional[Dict[str, Any]],
                    key: Tuple[Any, ...], from_registry: bool,
                    cancel: Optional[CancelToken],
                    observer: Optional[Observer]
                    ) -> Generator[Improvement, None, SolveReport]:
        """The lazy half of :meth:`solve_iter` (inputs already vetted)."""
        cached = self._cache.get(key)
        if cached is not None and cached.solution is not None:
            self.cache_hits += 1
            report = cached.copy(cached=True, label=request.label,
                                 request=request.to_dict())
            yield Improvement(report.solution, report.cost, 0.0, 0)
            return report
        spec_built = resolved is None
        resolved, key = self._materialize(resolved, spec, key,
                                          from_registry, request)
        solver = BrelSolver(request.to_options())
        result = yield from solver.iter_solve(resolved, cancel=cancel,
                                              observer=observer)
        report = SolveReport.from_result(resolved, result,
                                         request=request.to_dict(),
                                         label=request.label)
        # Same rule as solve(): never cache a cancelled partial result.
        if result.stopped != "cancelled":
            self._cache[key] = report.copy()
        if spec_built:
            resolved.mgr.release_caches()  # as in solve()
        return report

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
        * Identical jobs — same relation (node-list content for process
          jobs and node specs; object identity for serial jobs
          naming a session relation, spec content for other
          self-contained serial specs), same options — are solved once
          *per batch* and the shared report fanned back out.  The
          session cache additionally persists across calls.
        * ``executor`` selects ``"process"`` (default; true parallelism
          across cores) or ``"serial"`` (in-process, on the live
          relation).  Process jobs ship the relation as its node list
          (:func:`~repro.core.relio.relation_to_nodes`), linear in BDD
          size at any input width.

        Every successful report carries its solution template
        (:meth:`SolveReport.solution_template`).  A report on a named
        session relation also carries a live ``report.solution`` in
        that relation's manager, and so does one on any other spec the
        batch builds in this process (PLA text, output sets, ...): pool
        and cached results are re-instantiated there
        (:meth:`_portable_solution`).  Node specs are keyed by their
        node list before anything is built, so a cache hit builds no
        relation and a process job ships the list as it is; a
        node-spec report carries a live solution only when this call
        solved it in-process, or when the cached entry it was served
        from has one (in the manager that entry was solved in).
        """
        check_executor("executor", executor)
        reports: List[Optional[SolveReport]] = [None] * len(requests)
        pending: Dict[Tuple[Any, ...], List[int]] = {}
        payloads: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        resolved_by_index: List[Optional[BooleanRelation]] = \
            [None] * len(requests)
        spec_built: List[BooleanRelation] = []

        for index, request in enumerate(requests):
            label = request.label or "job-%d" % index
            source = request.relation
            resolved: Optional[BooleanRelation] = None
            nodes: Optional[RelationNodes] = None
            try:
                if source is None:
                    raise ValueError("request has no relation source")
                if source["kind"] == "nodes":
                    # The spec's own node list (SolveRequest checked it)
                    # is the key on both executors and the pool
                    # transport: a hit builds nothing, and only a serial
                    # miss builds the relation, when it is solved.
                    nodes = nodes_of_spec(source)
                    key = self._cache_key(nodes, request)
                else:
                    resolved = self.resolve_relation(source)
                    if source["kind"] != "name":
                        spec_built.append(resolved)
                    if executor == "process":
                        # The pool transport, linear in BDD size; serial
                        # jobs solve the live object and skip it.
                        nodes = relation_to_nodes(resolved)
                        key = self._cache_key(nodes, request)
                    elif source["kind"] != "name":
                        # Serial jobs with self-contained specs key by
                        # spec *content*, mirroring _prepare_solve.
                        # Keying these on the resolved object would
                        # dispatch duplicate jobs: each materialisation
                        # mints a fresh manager, so identical specs never
                        # collide by identity.
                        key = self._spec_key(self._inline_file(source),
                                             request)
                    else:
                        key = self._live_key(resolved, request)
            except Exception as exc:  # noqa: BLE001 — capture per job
                reports[index] = SolveReport.from_error(
                    exc, request=request.to_dict(), label=label)
                continue
            resolved_by_index[index] = resolved
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                reports[index] = cached.copy(
                    cached=True, label=label, request=request.to_dict(),
                    **self._hand_over(cached, resolved))
                continue
            if key not in pending:
                # "relation" and "solve_request" are the live objects
                # for in-process execution; workers get only the
                # picklable node list and request dict.  The registry
                # name (when the job referenced one) lets the serial
                # path re-resolve and auto-trim safely.
                registry_name = (source["name"]
                                 if source["kind"] == "name" else None)
                payloads[key] = {"nodes": nodes,
                                 "request": request.to_dict(),
                                 "solve_request": request,
                                 "label": label,
                                 "relation": resolved,
                                 "registry_name": registry_name}
            pending.setdefault(key, []).append(index)

        if pending:
            fresh = self._run_jobs(list(pending), payloads, max_workers,
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
                first, *rest = pending[key]
                reports[first] = report.copy(
                    label=requests[first].label or "job-%d" % first,
                    request=requests[first].to_dict(),
                    **self._hand_over(report, resolved_by_index[first]))
                for index in rest:
                    # Failures are never cached, so only successful
                    # shared results count (and read) as cache hits.
                    if report.ok:
                        self.cache_hits += 1
                    reports[index] = report.copy(
                        cached=report.ok,
                        label=requests[index].label or "job-%d" % index,
                        request=requests[index].to_dict(),
                        **self._hand_over(report, resolved_by_index[index]))
        for relation in spec_built:
            relation.mgr.release_caches()  # as in solve()
        # Every index was filled above: failure, cache hit, or fresh run.
        return [report for report in reports if report is not None]

    # ------------------------------------------------------------------
    @staticmethod
    def _cancelled_report(payload: Dict[str, Any]) -> SolveReport:
        """The failed report of a job cancelled before it started."""
        return SolveReport.from_error(
            RuntimeError("cancelled before start"),
            request=payload["request"], label=payload["label"])

    def _run_jobs(self, keys: List[Tuple[Any, ...]],
                  payloads: Dict[Tuple[Any, ...], Dict[str, Any]],
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
                payload = payloads[key]
                if cancel is not None and cancel.cancelled:
                    # In-flight jobs stopped themselves (best-so-far);
                    # jobs not yet started are skipped outright.
                    results[key] = self._cancelled_report(payload)
                    continue
                name = payload.get("registry_name")
                if name is not None and name in self._relations:
                    # Re-resolve from the registry so earlier trims in
                    # this batch cannot leave the payload holding stale
                    # node ids, then trim if the engine grew too big.
                    relation = self._relations[name]
                    payload["relation"] = relation
                    if (limit is not None
                            and relation.mgr.num_nodes > limit):
                        payload["relation"] = self._trim_manager(
                            relation.mgr, keep=relation,
                            extra_reports=results.values(),
                            extra_payloads=[payloads[k] for k in keys])
                results[key] = self._solve_in_process(payload, cancel)
            return results

        try:
            with self._process_pool(max_workers, len(keys)) as pool:
                futures = {key: self._submit(pool, payloads[key])
                           for key in keys}
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
                    if future.cancelled():
                        results[key] = self._cancelled_report(
                            payloads[key])
                        continue
                    results[key] = self._future_report(future,
                                                       payloads[key])
        except OSError:
            # Process pools need a working fork/semaphore layer; fall
            # back to in-process execution in restricted sandboxes.
            for key in keys:
                if key not in results:
                    if cancel is not None and cancel.cancelled:
                        results[key] = self._cancelled_report(
                            payloads[key])
                    else:
                        results[key] = self._solve_in_process(
                            payloads[key], cancel)
        return results

    def _solve_in_process(self, payload: Dict[str, Any],
                          cancel: Optional[CancelToken] = None
                          ) -> SolveReport:
        """In-process execution: same contract as the worker, but solves
        the live relation object (keeping ``Solution`` handles valid in
        the caller's managers) under the live, already validated
        request.  A node-spec job has no relation until this builds it
        from the payload's node list."""
        label = payload.get("label")
        request_dict = payload.get("request")
        try:
            request = payload["solve_request"]
            relation = payload["relation"]
            spec_built = relation is None
            if spec_built:
                # A node-spec job: its relation is built only now.
                relation = relation_from_nodes(payload["nodes"])
            result = BrelSolver(request.to_options()).solve(
                relation, cancel=cancel)
            report = SolveReport.from_result(relation, result,
                                             request=request_dict,
                                             label=label)
            if spec_built:
                relation.mgr.release_caches()  # as in solve()
            return report
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            return SolveReport.from_error(exc, request=request_dict,
                                          label=label)
