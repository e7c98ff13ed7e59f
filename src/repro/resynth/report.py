"""Structured resynthesis results (data-only, JSON round-trip)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..api.request import WireRecord

#: Bumped when the report schema changes shape.
#: 2: dropped ``memo_hits``, ``memo_misses`` and ``memo_hit_rate`` (the
#: subproblem memo was retired).
#: 3: the echoed ``request`` dropped ``workers`` (resynthesis solves in
#: its caller's process).
RESYNTH_SCHEMA_VERSION = 3


@dataclass
class ResynthReport(WireRecord):
    """Outcome of one resynthesis run (success or captured failure)."""

    ok: bool
    label: Optional[str] = None
    error: Optional[str] = None
    request: Optional[Dict[str, Any]] = None
    #: Circuit identity (model name of the parsed netlist).
    circuit: Optional[str] = None
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    num_latches: Optional[int] = None
    gates_before: Optional[int] = None
    gates_after: Optional[int] = None
    literals_before: Optional[int] = None
    literals_after: Optional[int] = None
    literal_savings: Optional[int] = None
    gate_savings: Optional[int] = None
    #: One record per optimisation pass: candidates, windows, accept /
    #: reject counters, literals at pass end, wall clock.
    passes: List[Dict[str, Any]] = field(default_factory=list)
    #: Totals across passes.
    relations_mined: int = 0
    relations_solved: int = 0
    rewrites_accepted: int = 0
    #: Final whole-network equivalence verdict; ``None`` when the
    #: request disabled the check (``verify="none"``).
    equivalent: Optional[bool] = None
    verify_method: Optional[str] = None
    verify_vectors: Optional[int] = None
    runtime_seconds: float = 0.0
    #: The rewritten netlist, serialised back to BLIF.
    blif: Optional[str] = None
    cached: bool = False
    schema_version: int = RESYNTH_SCHEMA_VERSION

    #: Always 0, and not dataclass fields, so they stay out of
    #: :meth:`to_dict` and the wire.  Only ``perfbench/`` still reads
    #: them; remove both once it stops.
    memo_hits = 0
    memo_misses = 0

    @classmethod
    def from_error(cls, exc: BaseException,
                   request: Optional[Mapping[str, Any]] = None,
                   label: Optional[str] = None) -> "ResynthReport":
        return cls(ok=False, label=label,
                   error="%s: %s" % (type(exc).__name__, exc),
                   request=dict(request) if request is not None else None)

    def copy(self, **changes: Any) -> "ResynthReport":
        """A copy sharing no mutable containers with the original."""
        fresh: Dict[str, Any] = dict(
            request=dict(self.request) if self.request is not None
            else None,
            passes=[dict(record) for record in self.passes])
        fresh.update(changes)
        return dataclasses.replace(self, **fresh)

    # -- convenience ---------------------------------------------------
    def summary(self) -> str:
        """One status line, for CLI / bench progress output."""
        name = self.label or self.circuit or "<unnamed>"
        if not self.ok:
            return "%s: FAILED (%s)" % (name, self.error)
        verdict = {True: "equivalent", False: "NOT EQUIVALENT",
                   None: "unverified"}[self.equivalent]
        return ("%s: literals %d -> %d (saved %d), %d/%d rewrites, "
                "%s, %.3fs%s"
                % (name, self.literals_before or 0,
                   self.literals_after or 0, self.literal_savings or 0,
                   self.rewrites_accepted, self.relations_mined,
                   verdict, self.runtime_seconds,
                   " [cached]" if self.cached else ""))
