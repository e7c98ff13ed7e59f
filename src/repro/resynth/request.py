"""Declarative description of one resynthesis run.

Mirrors the :class:`repro.api.SolveRequest` idiom: a frozen dataclass
with eager validation, JSON round-trip, and a canonical options key
that :meth:`ResynthRequest.fingerprint` hashes.  A run solves its mined
relations in its caller's process, so the request carries no pool
knobs: ``executor`` accepts ``"serial"`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..api.request import SolveRequest, WireRecord, fingerprint_payload
from ..benchdata.circuits import circuit_by_name
from ..core.explore import check_int, value_repr
from ..network.blif import parse_blif
from ..network.netlist import LogicNetwork
from .window import CUT_POLICIES, MAX_WINDOW_LEAVES

VERIFY_MODES = ("auto", "exhaustive", "signature", "none")

#: Most random vectors the final check may simulate: the vector count
#: of the widest exhaustive check (16 leaves).  The check runs under
#: the service lock and its cost grows with the count, so a request
#: may not ask for more.
MAX_VERIFY_VECTORS = 1 << 16

#: The integer fields as ``(name, least, greatest, optional)``: each
#: must be an int (not a bool) in ``least..greatest`` (``None`` leaves
#: that side open), or ``None`` where optional.
_INT_FIELDS = (
    ("passes", 1, None, False),
    ("window", 1, MAX_WINDOW_LEAVES, False),
    ("tfo_depth", 0, None, False),
    ("max_nodes", 1, None, True),
    ("verify_exhaustive_limit", 0, 16, False),
    ("verify_vectors", 1, MAX_VERIFY_VECTORS, False),
    ("seed", None, None, False),
)


def normalize_circuit_spec(spec: Any) -> Dict[str, Any]:
    """Canonicalise the circuit source into a tagged dict.

    Accepted shorthands: a bare string is a bundled benchdata circuit
    name; tagged dicts are ``{"kind": "bench", "name": ...}``,
    ``{"kind": "blif", "text": ...}`` and ``{"kind": "file",
    "path": ...}``.
    """
    if isinstance(spec, str):
        return {"kind": "bench", "name": spec}
    if isinstance(spec, Mapping):
        kind = spec.get("kind")
        if kind == "bench":
            if not isinstance(spec.get("name"), str):
                raise ValueError("bench circuit spec needs a 'name'")
            return {"kind": "bench", "name": spec["name"]}
        if kind == "blif":
            if not isinstance(spec.get("text"), str):
                raise ValueError("blif circuit spec needs 'text'")
            return {"kind": "blif", "text": spec["text"]}
        if kind == "file":
            if not isinstance(spec.get("path"), str):
                raise ValueError("file circuit spec needs a 'path'")
            return {"kind": "file", "path": spec["path"]}
        raise ValueError("unknown circuit spec kind %s" % value_repr(kind))
    raise ValueError("circuit spec must be a name or a tagged dict, "
                     "got %r" % type(spec).__name__)


def load_circuit(spec: Any) -> LogicNetwork:
    """Materialise the circuit named by a (normalised) spec."""
    spec = normalize_circuit_spec(spec)
    if spec["kind"] == "bench":
        return circuit_by_name(spec["name"]).build()
    if spec["kind"] == "blif":
        return parse_blif(spec["text"])
    with open(spec["path"], "r", encoding="utf-8") as handle:
        return parse_blif(handle.read())


@dataclass(frozen=True)
class ResynthRequest(WireRecord):
    """One end-to-end resynthesis run, described declaratively."""

    circuit: Any = None
    #: Optimisation passes over the network; the pipeline stops early
    #: when a pass accepts no rewrite.
    passes: int = 2
    #: Maximum window boundary inputs (= relation inputs) per cut.
    window: int = 8
    #: Transitive-fanout levels included in each window (backed off
    #: per cut until the boundary fits ``window``).
    tfo_depth: int = 1
    #: Cut enumeration policy (:data:`repro.resynth.window.CUT_POLICIES`).
    cut_policy: str = "nodes"
    #: Cap on candidate cuts per pass; ``None`` = all of them.
    max_nodes: Optional[int] = None
    # -- solver knobs, passed through to each SolveRequest -------------
    cost: str = "literals"
    minimizer: str = "isop"
    strategy: Optional[str] = None
    max_explored: Optional[int] = 10
    decompose: Optional[bool] = None
    #: Where the mined relations are solved: ``"serial"``, the only
    #: value, in the caller's process.
    executor: str = "serial"
    # -- verification ---------------------------------------------------
    #: ``auto`` = exhaustive when the frame has at most
    #: ``verify_exhaustive_limit`` leaves, random-vector signature
    #: otherwise; ``none`` skips the final whole-network check (the
    #: per-rewrite window checks always run).
    verify: str = "auto"
    verify_exhaustive_limit: int = 12
    #: Random vectors of the signature check, in
    #: ``1..MAX_VERIFY_VECTORS``.
    verify_vectors: int = 256
    #: Seed for the signature vectors (and any other tie-breaking).
    seed: int = 0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.circuit is not None:
            object.__setattr__(self, "circuit",
                               normalize_circuit_spec(self.circuit))
        for name, least, greatest, optional in _INT_FIELDS:
            check_int(name, getattr(self, name), least, greatest,
                       optional)
        if self.cut_policy not in CUT_POLICIES:
            raise ValueError("unknown cut policy %s"
                             % value_repr(self.cut_policy))
        if self.executor != "serial":
            raise ValueError("executor must be 'serial': resynthesis "
                             "solves in its caller's process, got %s"
                             % value_repr(self.executor))
        if self.verify not in VERIFY_MODES:
            raise ValueError("verify must be one of %s, got %s"
                             % (", ".join(VERIFY_MODES),
                                value_repr(self.verify)))
        # Validate the solver knobs eagerly via a throwaway request.
        self.solver_request(None)

    # -- conversion ----------------------------------------------------
    def solver_request(self, relation_spec: Any,
                       label: Optional[str] = None) -> SolveRequest:
        """The :class:`SolveRequest` of the solver knobs, for
        ``relation_spec``; the pipeline asks for one with no relation
        and hands every mined table over with it
        (:meth:`~repro.api.Session.solve_tables`)."""
        return SolveRequest(
            relation=relation_spec,
            cost=self.cost,
            minimizer=self.minimizer,
            strategy=self.strategy,
            max_explored=self.max_explored,
            decompose=self.decompose,
            label=label)

    def options_key(self) -> Tuple[Any, ...]:
        """Canonical tuple of every result-affecting knob.

        :meth:`fingerprint` hashes this into the cache key, so — like
        :meth:`SolveRequest.options_key` — every field that can change the
        rewritten network or the report MUST appear here.  The schema
        guard test enumerates the dataclass fields against this tuple.
        """
        return (
            "resynth-v1",
            self.passes,
            self.window,
            self.tfo_depth,
            self.cut_policy,
            self.max_nodes,
            self.cost,
            self.minimizer,
            self.strategy,
            self.max_explored,
            self.decompose,
            self.verify,
            self.verify_exhaustive_limit,
            self.verify_vectors,
            self.seed,
        )

    def with_file_text(self) -> "ResynthRequest":
        """A copy whose ``file`` circuit is read, once, into the
        ``blif`` spec of the text the file holds now (read as
        :func:`load_circuit` reads it); any other run comes back as it
        is.  The copy keys as the file did, and keying and loading it
        never read the file again."""
        spec = self.circuit
        if spec is None or spec["kind"] != "file":
            return self
        with open(spec["path"], "r", encoding="utf-8") as handle:
            return replace(self, circuit={"kind": "blif",
                                          "text": handle.read()})

    def fingerprint(self) -> str:
        """The run's identity on both service tiers: the
        :func:`~repro.api.request.fingerprint_payload` of ``{"resynth":
        circuit, "options": options_key()}``, a ``file`` circuit read as
        the BLIF it holds now (a ``bench`` name is a deterministic
        build)."""
        if self.circuit is None:
            raise ValueError("request has no circuit source")
        return fingerprint_payload({"resynth": self.with_file_text().circuit,
                                    "options": self.options_key()})

