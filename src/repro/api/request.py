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

import copy
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Type, TypeVar, Union)

from ..core.brel import BrelOptions
from ..core.explore import check_int, suggest, value_repr
from ..core.packedrel import (PackedRelation, narrow, pack_nodes,
                              pack_rows, pack_table)
from ..core.portfolio import (RACER_DELTA_FIELDS, normalize_racers,
                              racers_cache_key)
from ..core.relation import (BooleanRelation, check_output_sets,
                             check_truth_tables)
from ..core.relio import (RelationNodes, check_nodes, parse_rows,
                          relation_from_nodes)
from .registry import cost_registry, minimizer_registry

try:  # The interpreter's own SHA-256, as ``random`` imports it:
    from _sha2 import sha256  # hashlib would load OpenSSL, 3.6 MB of RSS.
except ImportError:  # Python before 3.12
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

#: What callers may pass as a relation source.
RelationSpec = Union[str, Mapping[str, Any]]

#: A request's faults: every check of a request, relation, circuit or
#: manifest raises ``ValueError`` (an unknown name too), and an
#: ``OSError`` is a file the request names.  The service answers them
#: 400 and the CLI exits 2; any other failure is the program's.
REQUEST_ERRORS = (ValueError, OSError)

#: The option fields of :class:`SolveRequest` as ``name: (kind, bound,
#: optional)``, in the form of ``ResynthRequest``'s integer table.
#: ``kind`` is ``"int"`` (an int, not a bool, at least ``bound``; see
#: :func:`~repro.core.explore.check_int`), ``"seconds"`` (a finite int
#: or float, not a bool, at least ``bound``), ``"bool"``, ``"str"`` or
#: ``"choice"`` (one of the names in ``bound``, a tuple or a registry);
#: ``optional`` admits ``None``.  The relation and the racer line-up have checkers of
#: their own; a strategy's name is checked against the strategy table
#: when the options are built.
_FIELDS: Dict[str, tuple] = {
    "cost": ("choice", cost_registry, False),
    "minimizer": ("choice", minimizer_registry, False),
    "strategy": ("str", None, True),
    "max_explored": ("int", 0, True),
    "fifo_capacity": ("int", 0, True),
    "quick_on_subrelations": ("bool", None, True),
    "symmetry_pruning": ("bool", None, False),
    "symmetry_max_depth": ("int", 0, False),
    "time_limit_seconds": ("seconds", 0, True),
    "record_trace": ("bool", None, False),
    "decompose": ("bool", None, True),
    # Accepted and ignored (see SolveRequest.backend).
    "backend": ("choice", ("bdd", "table", "auto"), True),
    "label": ("str", None, True),
}


def _check_field(name: str, value: Any, kind: str, bound: Any,
                 optional: bool) -> None:
    """``ValueError`` naming the field and the value unless ``value``
    fits its :data:`_FIELDS` row."""
    if kind == "int":
        check_int(name, value, bound, None, optional)
        return
    if value is None:
        ok = optional
    elif kind == "seconds":
        # The limit becomes a float deadline: NaN, infinities and ints
        # past the float range cannot.
        ok = (type(value) in (int, float)
              and bound <= value < sys.float_info.max)
    elif kind == "bool":
        ok = type(value) is bool
    elif kind == "str":
        ok = isinstance(value, str)
    else:  # choice
        ok = isinstance(value, str) and value in bound
    if ok:
        return
    hint = ""
    if kind == "seconds":
        wanted = "a finite number >= %d" % bound
    elif kind == "bool":
        wanted = "True or False"
    elif kind == "str":
        wanted = "a str"
    else:
        wanted = "one of %s" % ", ".join(map(repr, bound))
        if isinstance(value, str):
            hint = suggest(value, list(bound))
    raise ValueError("%s must be %s%s, got %s%s"
                     % (name, "None or " if optional else "", wanted,
                        value_repr(value), hint))


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
    equal regardless of JSON/Python container types.  Every field's
    shape is checked, and ``output_sets`` and ``truth_tables`` values
    are range-checked, so a bad spec is rejected (``ValueError``)
    before anything is looked up or built.
    """
    if isinstance(spec, str):
        spec = {"kind": "name", "name": spec}
    if not isinstance(spec, Mapping):
        raise ValueError("relation spec must be a string or a mapping, "
                         "got %s" % value_repr(spec))
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError("unknown relation kind %s (expected one of %s)"
                         % (value_repr(kind), ", ".join(sorted(_SPEC_KEYS))))
    expected = _SPEC_KEYS[kind]
    extra = set(spec) - set(expected) - {"kind"}
    missing = set(expected) - set(spec)
    if extra or missing:
        raise ValueError("malformed %r relation spec (missing: %s, "
                         "unexpected: %s)"
                         % (kind, sorted(missing) or "-",
                            sorted(extra, key=str) or "-"))
    if kind == "nodes":
        return check_nodes(spec).spec()
    out: Dict[str, Any] = {"kind": kind}
    for key in expected:
        value = spec[key]
        if key == "rows":
            # A row is a set of output vertices, in any order and with
            # repeats; check_output_sets checks each vertex below.
            try:
                value = tuple(tuple(sorted(set(row))) for row in value)
            except TypeError:
                raise ValueError("'output_sets' relation spec: rows must "
                                 "be a list of lists of ints, got %s"
                                 % value_repr(value)) from None
        elif key in ("tables", "equations", "independents", "dependents"):
            if not isinstance(value, (list, tuple)):
                raise ValueError("%r relation spec: %s must be a list, "
                                 "got %s" % (kind, key, value_repr(value)))
            value = tuple(value)
            if key != "tables" and not all(isinstance(item, str)
                                           for item in value):
                raise ValueError("%r relation spec: %s must be a list of "
                                 "str, got %s"
                                 % (kind, key, value_repr(value)))
        elif key in ("name", "path", "text") \
                and not isinstance(value, str):
            raise ValueError("%r relation spec: %s must be a str, got %s"
                             % (kind, key, value_repr(value)))
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


def fingerprint_payload(payload: Any) -> str:
    """The SHA-256 of a payload's canonical JSON (sorted keys, no
    whitespace, tuples as arrays): equal payloads fingerprint equally
    in every process on every platform, as a shared disk tier needs."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode("utf-8")).hexdigest()


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
    return relation_of_spec(normalize_relation_spec(spec))


def _spec_rows(spec: Mapping[str, Any]) -> Tuple[Sequence[Any], int, int]:
    """``(rows, num_inputs, num_outputs)`` of a normalised tabular,
    ``bench``, ``pla`` or ``file`` spec: each source's one row
    producer, in the tabular notation of
    :meth:`~repro.core.relation.BooleanRelation.from_output_sets`."""
    kind = spec["kind"]
    if kind == "output_sets":
        return spec["rows"], spec["num_inputs"], spec["num_outputs"]
    if kind == "truth_tables":
        tables = spec["tables"]
        return (truth_tables_to_output_sets(tables, spec["num_inputs"]),
                spec["num_inputs"], len(tables))
    if kind == "bench":
        from ..benchdata import instance_by_name
        instance = instance_by_name(spec["name"])
        return instance.rows(), instance.num_inputs, instance.num_outputs
    if kind == "file":
        with open(spec["path"], "r", encoding="ascii") as handle:
            text = handle.read()
    else:  # kind == "pla"
        text = spec["text"]
    num_inputs, num_outputs, rows = parse_rows(text)
    return rows, num_inputs, num_outputs


def relation_of_spec(spec: Mapping[str, Any]) -> BooleanRelation:
    """:func:`build_relation` of a *normalised* spec (no re-check)."""
    kind = spec["kind"]
    if kind == "name":
        raise ValueError("relation %r is a session name; resolve it "
                         "through Session.solve()/solve_many()"
                         % spec["name"])
    if kind == "nodes":
        return relation_from_nodes(nodes_of_spec(spec))
    if kind == "equations":
        from ..equations.system import BooleanSystem
        system = BooleanSystem.parse(list(spec["equations"]),
                                     list(spec["independents"]),
                                     list(spec["dependents"]))
        if not system.is_consistent():
            raise ValueError("the Boolean system is inconsistent")
        return system.to_relation()
    return BooleanRelation.from_output_sets(*_spec_rows(spec))


def root_of_nodes(data: RelationNodes
                  ) -> Union[BooleanRelation, PackedRelation]:
    """The solve root of trusted node-list data: packed straight from
    the list when its frame is :func:`~repro.core.packedrel.narrow`,
    else :func:`~repro.core.relio.relation_from_nodes`."""
    if narrow(len(data.inputs), len(data.outputs)):
        return pack_nodes(data)
    return relation_from_nodes(data)


def root_of_table(num_inputs: int, num_outputs: int, table: int
                  ) -> Union[BooleanRelation, PackedRelation]:
    """The solve root of a relation mined as a table in the root layout
    (:func:`~repro.decompose.cutflex.cut_flexibility_table`).

    A :func:`~repro.core.packedrel.narrow` frame is solved on the table
    as it is (:func:`~repro.core.packedrel.pack_table`); a wider one on
    that packed relation's node, the relation
    :func:`~repro.core.relio.relation_from_nodes` builds from the
    frame's node list.
    """
    root = pack_table(num_inputs, num_outputs, table)
    if narrow(num_inputs, num_outputs):
        return root
    return root.unpacked()


def root_of_spec(spec: Mapping[str, Any]
                 ) -> Union[BooleanRelation, PackedRelation]:
    """The relation a solve of a *normalised* spec starts from.

    A narrow relation (:func:`~repro.core.packedrel.narrow`, the width
    test of :func:`~repro.core.packedrel.pack_relation`) is packed
    straight from the spec's rows or node list, and no BDD node is
    built for it; its table equals
    ``pack_relation(relation_of_spec(spec))``.  Wider relations get
    the node builders of :func:`relation_of_spec` over the same rows,
    and equation systems (and session names, which raise) go through
    :func:`relation_of_spec` itself.
    """
    kind = spec["kind"]
    if kind == "nodes":
        return root_of_nodes(nodes_of_spec(spec))
    if kind in ("name", "equations"):
        return relation_of_spec(spec)
    rows, num_inputs, num_outputs = _spec_rows(spec)
    if narrow(num_inputs, num_outputs):
        return pack_rows(rows, num_inputs, num_outputs)
    return BooleanRelation.from_output_sets(rows, num_inputs, num_outputs)


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
        if not isinstance(defaults, dict):
            raise ValueError("manifest 'defaults' must be a JSON object, "
                             "got %s" % value_repr(defaults))
        if not isinstance(jobs, (list, tuple)):
            raise ValueError("manifest 'jobs' must be a JSON list, got %s"
                             % value_repr(jobs))
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
                and base and isinstance(relation.get("path"), str)
                and not os.path.isabs(relation["path"])):
            relation = dict(relation)
            relation["path"] = os.path.join(base, relation["path"])
            merged["relation"] = relation
        merged_jobs.append(merged)
    return merged_jobs


def read_json(text: str) -> Any:
    """``json.loads`` of a request or a manifest; nesting too deep to
    decode is a ``ValueError``, not a ``RecursionError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


Record = TypeVar("Record", bound="WireRecord")


class WireRecord:
    """The JSON round trip of a request or report dataclass:
    :meth:`to_dict` is its JSON form and :meth:`from_dict` inverts it."""

    def to_dict(self) -> Dict[str, Any]:
        """The fields as a plain dict (a shallow copy)."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls: Type[Record], data: Mapping[str, Any]) -> Record:
        """Build one from a dict; a key that is no field is a
        ``ValueError`` naming every such key."""
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError("unknown %s fields: %s" % (
                cls.__name__, ", ".join(sorted(map(str, unknown)))))
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls: Type[Record], text: str) -> Record:
        return cls.from_dict(json.loads(text))


def load_manifest(path: str) -> List["SolveRequest"]:
    """Parse a batch/prewarm manifest file into validated requests."""
    with open(path, "r", encoding="utf-8") as handle:
        data = read_json(handle.read())
    base = os.path.dirname(os.path.abspath(path))
    return [SolveRequest.from_dict(job)
            for job in merge_manifest_jobs(data, base)]


@dataclass(frozen=True)
class SolveRequest(WireRecord):
    """One solve, described declaratively.

    All solver knobs mirror :class:`repro.core.BrelOptions` but name the
    callables through the :mod:`repro.api.registry` tables.  Construction
    validates everything eagerly, each option field against its
    :data:`_FIELDS` row: a wrong type, an unknown name, a negative
    budget or a non-finite time limit is a ``ValueError`` naming the
    field and the value, raised here rather than deep inside a worker
    process.
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
    #: the manager its relation lives on.  Still validated against its
    #: :data:`_FIELDS` choices; not part of any cache key, because
    #: requests that differ only here get identical answers.
    backend: Optional[str] = None
    #: Racer line-up for ``strategy="portfolio"`` (mirrors
    #: :attr:`repro.core.BrelOptions.portfolio_racers`): ``None`` races
    #: the default line-up; otherwise a comma-separated string or a
    #: list of names/spec mappings, normalised here to the canonical
    #: spec tuple so equal line-ups compare (and cache) equal.
    portfolio_racers: Any = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.relation is not None:
            object.__setattr__(self, "relation",
                               normalize_relation_spec(self.relation))
        for name, rule in _FIELDS.items():
            _check_field(name, getattr(self, name), *rule)
        if self.portfolio_racers is not None:
            racers = normalize_racers(self.portfolio_racers)
            for spec in racers:
                for field in RACER_DELTA_FIELDS:
                    if field in spec:
                        _check_field("racer %r %s" % (spec["name"], field),
                                     spec[field], *_FIELDS[field])
            object.__setattr__(self, "portfolio_racers", racers)
        # Option combinations are checked by BrelOptions.__post_init__;
        # build the options eagerly so a bad request never reaches a
        # worker.
        self.to_options()

    # -- conversion ----------------------------------------------------
    def exploration_strategy(self) -> str:
        """The effective strategy name (``None`` means ``"bfs"``)."""
        return self.strategy if self.strategy is not None else "bfs"

    def options_key(self) -> Tuple[Any, ...]:
        """Every result-affecting option value, as a JSON-safe tuple.

        Every cache key is this tuple plus the relation (see
        :meth:`fingerprint`), so every field that can
        change a report's content MUST join it: the schema guard in the
        test suite (``TestCacheKeySchemaGuard``) enumerates the dataclass
        fields to catch omissions.  ``record_trace`` is keyed because it
        fills the report's trace; the label (it names the job, not the
        problem) and ``backend`` (accepted and ignored) are not.
        Tri-states key by their *effective* decision: the strategy
        ``None`` shares ``"bfs"``'s slot, ``decompose=None`` (auto)
        shares ``True``'s (both shard identically, while ``False``
        reports lack the partition breakdown), and the racer line-up
        keys by its resolved canonical JSON, so ``None`` and the
        spelled-out default line-up share a slot.  The time limit keys
        as a float, so 3 and 3.0 share one.
        """
        if self.exploration_strategy() == "portfolio":
            racers = racers_cache_key(self.portfolio_racers)
        else:
            racers = None
        limit = self.time_limit_seconds
        return (self.cost, self.minimizer, self.exploration_strategy(),
                self.max_explored, self.fifo_capacity,
                self.quick_on_subrelations, self.symmetry_pruning,
                self.symmetry_max_depth,
                None if limit is None else float(limit),
                self.record_trace, self.decompose is not False, racers)

    def keyed_spec(self, spec: Mapping[str, Any]
                   ) -> Tuple[Mapping[str, Any], str]:
        """``(spec, fingerprint)`` of a normalised ``spec`` under these
        options.  A ``file`` spec comes back as the ``pla`` spec of the
        text its key was read from, so the key and the relation built
        share one reading; the request's own spec is keyed once per
        request object, unless it names a file."""
        own = spec is self.relation and spec["kind"] != "file"
        if own and "_fingerprint" in self.__dict__:
            return spec, self.__dict__["_fingerprint"]
        keyed = spec
        if spec["kind"] == "file":
            with open(spec["path"], "r", encoding="ascii") as handle:
                spec = keyed = {"kind": "pla", "text": handle.read()}
        elif spec["kind"] == "truth_tables":
            # Hex: decimal text meets the int-to-str digit limit.
            keyed = dict(spec, tables=["%x" % table
                                       for table in spec["tables"]])
        key = fingerprint_payload({"relation": keyed,
                                   "options": self.options_key()})
        if own:
            object.__setattr__(self, "_fingerprint", key)
        return spec, key

    def fingerprint(self) -> str:
        """The request's identity in every process: the
        :func:`fingerprint_payload` of ``{"relation": spec, "options":
        options_key()}``, a ``file`` spec read as the text it holds now
        and ``truth_tables`` in hex.  It keys the session's RAM tier
        for every spec but a session name, names the service's disk
        file (``reports/<fingerprint>.json``) and dedups ``/batch``."""
        if self.relation is None:
            raise ValueError("request has no relation source")
        return self.keyed_spec(self.relation)[1]

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
            portfolio_racers=self.portfolio_racers)

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
                   label=label)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-ready dict; ``from_dict`` inverts it exactly.

        A shallow field copy: every field but the two rebuilt below is
        immutable, and ``dataclasses.asdict`` would deep-copy a node
        spec's triples one by one.
        """
        out = super().to_dict()
        if self.relation is not None:
            out["relation"] = relation_spec_to_jsonable(self.relation)
        if self.portfolio_racers is not None:
            out["portfolio_racers"] = [dict(spec)
                                       for spec in self.portfolio_racers]
        return out

    # -- convenience ---------------------------------------------------
    def replace(self, **changes: Any) -> "SolveRequest":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def with_file_text(self) -> "SolveRequest":
        """A copy whose ``file`` spec is read, once, into the ``pla``
        spec of the text the file holds now; any other request comes
        back as it is.  The copy keys as the file spec did (a file is
        keyed as its text), and keying, solving and storing it never
        read the file again."""
        if self.relation is None or self.relation["kind"] != "file":
            return self
        spec, key = self.keyed_spec(self.relation)
        read = copy.copy(self)
        object.__setattr__(read, "relation", spec)
        object.__setattr__(read, "_fingerprint", key)
        return read

    def with_time_limit(self, seconds: Optional[float]) -> "SolveRequest":
        """A copy with another time limit, checked against its
        :data:`_FIELDS` row; unlike :meth:`replace`, the relation is
        not normalised again, and the copy has a fingerprint of its
        own."""
        _check_field("time_limit_seconds", seconds,
                     *_FIELDS["time_limit_seconds"])
        clamped = copy.copy(self)
        object.__setattr__(clamped, "time_limit_seconds", seconds)
        clamped.__dict__.pop("_fingerprint", None)
        return clamped
