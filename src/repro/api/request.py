"""Declarative solve specifications.

A :class:`SolveRequest` describes one BREL solve as *pure data*: the
relation source, the objective, the minimiser, the exploration strategy,
and the budgets — everything :class:`repro.core.BrelOptions` holds, but with
the live callables replaced by registry names so the spec round-trips
through JSON (``from_dict(r.to_dict()) == r``), can be stored in batch
manifests, and can cross process boundaries.

Relation sources
----------------
The ``relation`` field is a small tagged dict (a bare string is shorthand
for a session-registered name).  Supported kinds mirror the package's
ingestion paths:

``{"kind": "name", "name": N}``
    a relation previously ingested into the :class:`~repro.api.Session`;
``{"kind": "file", "path": P}``
    a PLA-dialect relation file (:mod:`repro.core.relio`);
``{"kind": "pla", "text": T}``
    the same dialect, inline;
``{"kind": "bench", "name": N}``
    a bundled :mod:`repro.benchdata` suite instance;
``{"kind": "output_sets", "rows": [[..], ..], "num_inputs": n,
"num_outputs": m}``
    the tabular notation of the paper's examples;
``{"kind": "truth_tables", "tables": [t0, ..], "num_inputs": n}``
    one truth-table bitmask per (completely specified) output;
``{"kind": "equations", "equations": [..], "independents": [..],
"dependents": [..]}``
    a Boolean equation system (paper Section 8) solved through its BR;
``{"kind": "nodes", "inputs": [..], "outputs": [..], "nodes": [[rank,
lo, hi], ..], "root": r}``
    the structural node list of :mod:`repro.core.relio` — how the
    program itself ships relations to worker pools, linear in BDD size
    where PLA text is exponential in the inputs.  It is validated on
    ingest (:func:`repro.core.relio.check_nodes`).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..core.brel import BrelOptions
from ..core.relation import (BooleanRelation, check_output_sets,
                             check_truth_tables)
from ..core.relio import RelationNodes, check_nodes, relation_from_nodes
from .registry import cost_registry, minimizer_registry

#: What callers may pass as a relation source.
RelationSpec = Union[str, Mapping[str, Any]]

#: Accepted values of the no-op :attr:`SolveRequest.backend` field.
_BACKEND_CHOICES = (None, "bdd", "table", "auto")

_SPEC_KEYS = {
    "name": ("name",),
    "file": ("path",),
    "pla": ("text",),
    "bench": ("name",),
    "output_sets": ("rows", "num_inputs", "num_outputs"),
    "truth_tables": ("tables", "num_inputs"),
    "equations": ("equations", "independents", "dependents"),
    "nodes": ("inputs", "outputs", "nodes", "root"),
}


def normalize_relation_spec(spec: RelationSpec) -> Dict[str, Any]:
    """Canonicalise a relation source into a hashable-value dict.

    Sequences become tuples (``output_sets`` rows additionally sorted and
    deduplicated) so that two specs describing the same source compare
    equal regardless of JSON/Python container types.  ``output_sets``
    and ``truth_tables`` values are range-checked here, so a bad one is
    rejected (``ValueError``) before anything is looked up or built.
    """
    if isinstance(spec, str):
        spec = {"kind": "name", "name": spec}
    if not isinstance(spec, Mapping):
        raise TypeError("relation spec must be a string or a mapping, "
                        "got %r" % type(spec).__name__)
    kind = spec.get("kind")
    if kind not in _SPEC_KEYS:
        raise ValueError("unknown relation kind %r (expected one of %s)"
                         % (kind, ", ".join(sorted(_SPEC_KEYS))))
    expected = _SPEC_KEYS[kind]
    extra = set(spec) - set(expected) - {"kind"}
    missing = set(expected) - set(spec)
    if extra or missing:
        raise ValueError("malformed %r relation spec (missing: %s, "
                         "unexpected: %s)"
                         % (kind, sorted(missing) or "-",
                            sorted(extra) or "-"))
    if kind == "nodes":
        return check_nodes(spec).spec()
    out: Dict[str, Any] = {"kind": kind}
    for key in expected:
        value = spec[key]
        if key == "rows":
            value = tuple(tuple(sorted(set(int(v) for v in row)))
                          for row in value)
        elif key in ("tables", "equations", "independents", "dependents"):
            value = tuple(value)
        out[key] = value
    if kind == "output_sets":
        check_output_sets(out["rows"], out["num_inputs"],
                          out["num_outputs"])
    elif kind == "truth_tables":
        check_truth_tables(out["tables"], out["num_inputs"])
    return out


def relation_spec_to_jsonable(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """The inverse container mapping: tuples back to JSON lists."""
    out: Dict[str, Any] = {}
    for key, value in spec.items():
        if key in ("rows", "nodes"):
            value = [list(row) for row in value]
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def nodes_of_spec(spec: Mapping[str, Any]) -> RelationNodes:
    """The node data of a *normalised* ``nodes`` spec (no re-check)."""
    return RelationNodes(spec["inputs"], spec["outputs"], spec["nodes"],
                         spec["root"])


def truth_tables_to_output_sets(tables: Sequence[int],
                                num_inputs: int) -> List[set]:
    """Expand per-output truth-table bitmasks into output-set rows.

    Bit ``i`` of ``tables[j]`` is output ``j``'s value on the input
    vertex encoded by ``i`` — the encoding used throughout the test
    suite.  The result is functional (one output vertex per row).
    Raises ``ValueError`` on a table outside ``0..2**(2**num_inputs)-1``.
    """
    check_truth_tables(tables, num_inputs)
    rows: List[set] = []
    for vertex in range(1 << num_inputs):
        value = 0
        for position, table in enumerate(tables):
            if (int(table) >> vertex) & 1:
                value |= 1 << position
        rows.append({value})
    return rows


def build_relation(spec: RelationSpec) -> BooleanRelation:
    """Materialise a self-contained relation spec.

    Handles every kind except ``"name"``, which only a
    :class:`~repro.api.Session` (the owner of the name table) can
    resolve.
    """
    spec = normalize_relation_spec(spec)
    kind = spec["kind"]
    if kind == "name":
        raise ValueError("relation %r is a session name; resolve it "
                         "through Session.solve()/solve_many()"
                         % spec["name"])
    if kind == "file":
        from ..core.relio import load_relation
        return load_relation(spec["path"])
    if kind == "pla":
        from ..core.relio import parse_relation
        return parse_relation(spec["text"])
    if kind == "nodes":
        return relation_from_nodes(nodes_of_spec(spec))
    if kind == "bench":
        from ..benchdata import instance_by_name
        return instance_by_name(spec["name"]).build()
    if kind == "output_sets":
        return BooleanRelation.from_output_sets(
            [set(row) for row in spec["rows"]],
            spec["num_inputs"], spec["num_outputs"])
    if kind == "truth_tables":
        num_inputs = spec["num_inputs"]
        tables = spec["tables"]
        rows = truth_tables_to_output_sets(tables, num_inputs)
        return BooleanRelation.from_output_sets(rows, num_inputs,
                                                len(tables))
    # kind == "equations"
    from ..equations.system import BooleanSystem
    system = BooleanSystem.parse(list(spec["equations"]),
                                 list(spec["independents"]),
                                 list(spec["dependents"]))
    if not system.is_consistent():
        raise ValueError("the Boolean system is inconsistent")
    return system.to_relation()


def merge_manifest_jobs(data: Any, base: str = "") -> List[Dict[str, Any]]:
    """Expand manifest JSON into per-job request dicts.

    A manifest is either a JSON list of :class:`SolveRequest` dicts or
    an object ``{"defaults": {...}, "jobs": [{...}, ...]}`` where each
    job is merged over the defaults.  Relation ``file`` paths are
    resolved relative to ``base`` (the manifest's directory) so a
    corpus travels with its relation files.  Used by the CLI's
    ``batch`` verb and the service layer's prewarming corpus loader.
    """
    if isinstance(data, dict):
        defaults = data.get("defaults", {})
        jobs = data.get("jobs")
        if jobs is None:
            raise ValueError("manifest object needs a 'jobs' list")
    elif isinstance(data, list):
        defaults, jobs = {}, data
    else:
        raise ValueError("manifest must be a JSON list or object")
    merged_jobs: List[Dict[str, Any]] = []
    for position, job in enumerate(jobs):
        if not isinstance(job, dict):
            raise ValueError("job %d is not a JSON object" % position)
        merged = dict(defaults)
        merged.update(job)
        relation = merged.get("relation")
        if (isinstance(relation, dict) and relation.get("kind") == "file"
                and base and not os.path.isabs(relation.get("path", ""))):
            relation = dict(relation)
            relation["path"] = os.path.join(base, relation["path"])
            merged["relation"] = relation
        merged_jobs.append(merged)
    return merged_jobs


def load_manifest(path: str) -> List["SolveRequest"]:
    """Parse a batch/prewarm manifest file into validated requests."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    base = os.path.dirname(os.path.abspath(path))
    return [SolveRequest.from_dict(job)
            for job in merge_manifest_jobs(data, base)]


@dataclass(frozen=True)
class SolveRequest:
    """One solve, described declaratively.

    All solver knobs mirror :class:`repro.core.BrelOptions` but name the
    callables through the :mod:`repro.api.registry` tables.  Construction
    validates everything eagerly — unknown registry names, bad
    strategies, and negative budgets are rejected here, not deep inside
    a worker process.
    """

    relation: Any = None
    cost: str = "size"
    minimizer: str = "isop"
    #: Exploration strategy name; ``None`` means ``"bfs"``.
    strategy: Optional[str] = None
    max_explored: Optional[int] = 10
    fifo_capacity: Optional[int] = 64
    #: Tri-state like the BrelOptions field: None = strategy default
    #: (on for bfs/best-first/beam, off for dfs).
    quick_on_subrelations: Optional[bool] = None
    symmetry_pruning: bool = False
    symmetry_max_depth: int = 2
    time_limit_seconds: Optional[float] = None
    record_trace: bool = False
    #: Output-block decomposition tri-state (mirrors
    #: :attr:`repro.core.BrelOptions.decompose`): ``None`` (auto) and
    #: ``True`` shard the relation into verified-independent output
    #: blocks when the partition finds at least two, ``False`` always
    #: solves monolithically.  Sharded reports carry the block
    #: breakdown in :attr:`SolveReport.partition`.
    decompose: Optional[bool] = None
    #: Accepted for wire compatibility and ignored: every solve runs on
    #: the manager its relation lives on.  Still validated against
    #: ``_BACKEND_CHOICES``; not part of any cache key, because
    #: requests that differ only here get identical answers.
    backend: Optional[str] = None
    #: Racer line-up for ``strategy="portfolio"`` (mirrors
    #: :attr:`repro.core.BrelOptions.portfolio_racers`): ``None`` races
    #: the default line-up; otherwise a comma-separated string or a
    #: list of names/spec mappings, normalised here to the canonical
    #: spec tuple so equal line-ups compare (and cache) equal.
    portfolio_racers: Any = None
    #: Racer executor (``"serial"``/``"process"``; ``None`` = serial).
    #: An execution detail like the session's block executor: never
    #: part of a cache key.
    portfolio_executor: Optional[str] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.relation is not None:
            object.__setattr__(self, "relation",
                               normalize_relation_spec(self.relation))
        if self.portfolio_racers is not None:
            from ..core.portfolio import normalize_racers
            object.__setattr__(self, "portfolio_racers",
                               normalize_racers(self.portfolio_racers))
        if self.cost not in cost_registry:
            cost_registry.get(self.cost)  # raises with the valid names
        if self.minimizer not in minimizer_registry:
            minimizer_registry.get(self.minimizer)
        if self.backend not in _BACKEND_CHOICES:
            raise ValueError("backend must be one of %r (accepted and "
                             "ignored)" % (_BACKEND_CHOICES,))
        # Budget validation is shared with BrelOptions.__post_init__; build
        # the options eagerly so a bad request never reaches a worker.
        self.to_options()

    # -- conversion ----------------------------------------------------
    def exploration_strategy(self) -> str:
        """The effective strategy name (``None`` means ``"bfs"``)."""
        return self.strategy if self.strategy is not None else "bfs"

    def to_options(self) -> BrelOptions:
        """Resolve the registry names into live :class:`BrelOptions`."""
        return BrelOptions(
            cost_function=cost_registry.get(self.cost),
            minimizer=minimizer_registry.get(self.minimizer),
            strategy=self.strategy,
            max_explored=self.max_explored,
            fifo_capacity=self.fifo_capacity,
            quick_on_subrelations=self.quick_on_subrelations,
            symmetry_pruning=self.symmetry_pruning,
            symmetry_max_depth=self.symmetry_max_depth,
            time_limit_seconds=self.time_limit_seconds,
            record_trace=self.record_trace,
            decompose=self.decompose,
            portfolio_racers=self.portfolio_racers,
            portfolio_executor=self.portfolio_executor)

    @classmethod
    def from_options(cls, options: BrelOptions,
                     relation: Optional[RelationSpec] = None,
                     label: Optional[str] = None) -> "SolveRequest":
        """Serialise live options back into a request.

        Requires the cost function and minimiser to be registered (the
        registries are the only way to name a callable as data).
        """
        cost = cost_registry.name_of(options.cost_function)
        if cost is None:
            raise ValueError("cost function %r is not registered; "
                             "register_cost() it first"
                             % getattr(options.cost_function, "__name__",
                                       options.cost_function))
        minimizer = minimizer_registry.name_of(options.minimizer)
        if minimizer is None:
            raise ValueError("minimizer %r is not registered; "
                             "register_minimizer() it first"
                             % getattr(options.minimizer, "__name__",
                                       options.minimizer))
        return cls(relation=relation, cost=cost, minimizer=minimizer,
                   strategy=options.strategy,
                   max_explored=options.max_explored,
                   fifo_capacity=options.fifo_capacity,
                   quick_on_subrelations=options.quick_on_subrelations,
                   symmetry_pruning=options.symmetry_pruning,
                   symmetry_max_depth=options.symmetry_max_depth,
                   time_limit_seconds=options.time_limit_seconds,
                   record_trace=options.record_trace,
                   decompose=options.decompose,
                   portfolio_racers=options.portfolio_racers,
                   portfolio_executor=options.portfolio_executor,
                   label=label)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-ready dict; ``from_dict`` inverts it exactly.

        A shallow field copy: every field but the two rebuilt below is
        immutable, and ``dataclasses.asdict`` would deep-copy a node
        spec's triples one by one.
        """
        out: Dict[str, Any] = {f.name: getattr(self, f.name)
                               for f in dataclasses.fields(self)}
        if self.relation is not None:
            out["relation"] = relation_spec_to_jsonable(self.relation)
        if self.portfolio_racers is not None:
            out["portfolio_racers"] = [dict(spec)
                                       for spec in self.portfolio_racers]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveRequest":
        """Build a request from a dict, rejecting unknown keys."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError("unknown SolveRequest fields: %s"
                             % ", ".join(sorted(unknown)))
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveRequest":
        return cls.from_dict(json.loads(text))

    # -- convenience ---------------------------------------------------
    def replace(self, **changes: Any) -> "SolveRequest":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)
