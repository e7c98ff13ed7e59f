"""Solution and statistics containers for the relation solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.manager import BddManager
from ..bdd.packed import packed_isop, unpack
from .memo import SolutionTemplate, rank_cover


class Solution:
    """A multiple-output function produced by a solver.

    Attributes
    ----------
    mgr:
        Owning function engine.
    functions:
        One node per relation output.  A solution found on packed
        truth tables (:mod:`repro.core.packedrel`) builds them from
        ``tables`` the first time this is read.
    cost:
        Value of the solver's cost function on ``functions``.
    tables, frame:
        One input table per output over ``frame`` (the inputs sorted
        by level), or ``None`` and ``()``.
    """

    __slots__ = ("mgr", "cost", "tables", "frame", "_functions",
                 "_cover_cache")

    def __init__(self, mgr: BddManager,
                 functions: Optional[Tuple[int, ...]], cost: float,
                 tables: Optional[Tuple[int, ...]] = None,
                 frame: Tuple[int, ...] = ()) -> None:
        self.mgr = mgr
        self._functions = functions
        self.cost = cost
        self.tables = tables
        self.frame = frame
        #: The per-output ISOP covers, extracted once (:meth:`_covers`).
        self._cover_cache: Optional[List[List[Dict[int, bool]]]] = None

    @property
    def functions(self) -> Tuple[int, ...]:
        if self._functions is None:
            self._functions = tuple(unpack(self.mgr, table, self.frame)
                                    for table in self.tables)
        return self._functions

    def bdd_sizes(self) -> List[int]:
        """Per-output BDD sizes."""
        return [self.mgr.size(func) for func in self.functions]

    def _covers(self) -> List[List[Dict[int, bool]]]:
        """The ISOP covers, shared by the read-only renderings below (a
        report asks for cubes, literals and the SOP text of one
        solution).  A packed solution takes them from its tables, with
        no node built; they equal ``mgr.isop(f, f)`` of its functions.
        """
        if self._cover_cache is None:
            if self.tables is None:
                self._cover_cache = [self.mgr.isop(func, func)[0]
                                     for func in self.functions]
            else:
                frame, top = self.frame, len(self.frame) - 1
                self._cover_cache = [
                    [{frame[top - p]: value for p, value in cube}
                     for cube in packed_isop(self.mgr, table, table,
                                             len(frame))[0]]
                    for table in self.tables]
        return self._cover_cache

    def template(self, support: Sequence[int]) -> SolutionTemplate:
        """The ISOP covers as a rank template: rank ``i`` is variable
        ``support[i]``.

        Equal to :func:`~repro.core.memo.solution_template` over
        ``support``, renamed from the covers the renderings below share
        instead of extracted again.
        """
        rank_of_var = {var: rank for rank, var in enumerate(support)}
        return tuple(rank_cover(cover, rank_of_var)
                     for cover in self._covers())

    def sop_covers(self) -> List[List[Dict[int, bool]]]:
        """Per-output irredundant SOP covers of the exact functions."""
        return [[dict(cube) for cube in cover] for cover in self._covers()]

    def cube_count(self) -> int:
        """Total ISOP cubes across outputs (paper Table 2 column CB)."""
        return sum(len(cover) for cover in self._covers())

    def literal_count(self) -> int:
        """Total ISOP literals across outputs (paper Table 2 column LIT)."""
        return sum(sum(len(cube) for cube in cover)
                   for cover in self._covers())

    def describe(self, output_names: Optional[Sequence[str]] = None) -> str:
        """Human-readable SOP rendering of each output function."""
        lines = []
        for position, cover in enumerate(self._covers()):
            name = (output_names[position] if output_names
                    else "f%d" % position)
            if not cover:
                lines.append("%s = 0" % name)
                continue
            terms = []
            for cube in cover:
                if not cube:
                    terms.append("1")
                    continue
                literals = []
                for var in sorted(cube):
                    var_name = self.mgr.var_name(var)
                    literals.append(var_name if cube[var]
                                    else var_name + "'")
                terms.append("".join(literals))
            lines.append("%s = %s" % (name, " + ".join(terms)))
        return "\n".join(lines)


@dataclass
class SolverStats:
    """Counters describing one solver run (useful for the benchmarks)."""

    relations_explored: int = 0
    misf_minimizations: int = 0
    splits: int = 0
    cost_prunes: int = 0
    symmetry_prunes: int = 0
    quick_solutions: int = 0
    compatible_found: int = 0
    frontier_overflow: int = 0
    # Queued nodes dropped by the strategy when a new incumbent made
    # their cost bound hopeless (best-first / beam frontiers).
    frontier_prunes: int = 0
    runtime_seconds: float = 0.0
    # BDD-engine counters for the run (deltas over the solve, except
    # bdd_nodes which is the manager's node count when the solve ended).
    bdd_nodes: int = 0
    bdd_cache_hits: int = 0
    bdd_cache_misses: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for table printing."""
        return {
            "relations_explored": self.relations_explored,
            "misf_minimizations": self.misf_minimizations,
            "splits": self.splits,
            "cost_prunes": self.cost_prunes,
            "symmetry_prunes": self.symmetry_prunes,
            "quick_solutions": self.quick_solutions,
            "compatible_found": self.compatible_found,
            "frontier_overflow": self.frontier_overflow,
            "frontier_prunes": self.frontier_prunes,
            "runtime_seconds": self.runtime_seconds,
            "bdd_nodes": self.bdd_nodes,
            "bdd_cache_hits": self.bdd_cache_hits,
            "bdd_cache_misses": self.bdd_cache_misses,
        }
