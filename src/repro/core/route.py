"""Backend routing and the per-solve subproblem layer.

The solver is written against the :class:`repro.bdd.FunctionBackend`
protocol, so a relation can be solved on whichever engine suits its
width.  This module holds the policy and the boundary conversions:

* :func:`route_relation` — decide, from ``BrelOptions.backend`` /
  ``table_width``, whether a relation should move to the table engine;
* :func:`relation_to_table` — rebuild a relation on a fresh
  :class:`~repro.table.TableManager` over a compacted (order-
  preserving) variable frame, through the node list of
  :mod:`repro.core.relio`;
* :class:`RoutedRelation` — the conversion context, able to translate
  solved functions back to the parent manager through the same node
  list.

Because the compaction preserves relative variable order and both
backends expose the same reduced-BDD structural view, a routed solve
makes the same split decisions, the same ISOP covers, and the same
cost measurements as the BDD solve — only the kernel underneath each
operation changes.  Memo signatures are renaming-invariant, so
templates minted on one backend instantiate under the other.

Routing moves whole relations (or whole decomposed blocks) only:
inside a BDD solve, narrowed subproblems stay on the BDD engine, whose
per-node signatures and solve-wide ISOP table make them cheaper than a
table conversion.  :class:`SubproblemRouter` is the per-solve
subproblem layer: every memoised minimisation of a solve goes through
it, and a memo hit reuses the node the solve already built for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..table import DEFAULT_TABLE_WIDTH, MAX_TABLE_WIDTH, TableManager
from .memo import MemoStore, SolutionTemplate, instantiate_cover
from .minimize import IsfMinimizer, Minimized, minimize_with_cover
from .relation import BooleanRelation
from .relio import (build_nodes, function_nodes, relation_from_nodes,
                    relation_to_nodes)
from .solution import Solution

__all__ = ["BACKEND_CHOICES", "RoutedRelation", "SubproblemRouter",
           "relation_to_table", "route_decision", "route_relation",
           "routing_width"]

#: Valid ``BrelOptions.backend`` values.  ``None`` and ``"bdd"`` keep
#: every subproblem on the BDD engine (the byte-identical default),
#: ``"auto"`` routes relations whose variable frame fits the width
#: threshold, ``"table"`` forces the table engine (raising when the
#: relation is too wide).
BACKEND_CHOICES = (None, "bdd", "table", "auto")


@dataclass
class RoutedRelation:
    """A relation rebuilt on the table backend, plus its way back.

    Attributes
    ----------
    relation:
        The table-backed equivalent of ``parent`` (same semantics,
        compacted variable frame).
    parent:
        The original BDD-backed relation.
    var_map:
        Parent variable level -> table variable index (order
        preserving).
    """

    relation: BooleanRelation
    parent: BooleanRelation
    var_map: Dict[int, int]

    def function_to_parent(self, func: int) -> int:
        """Translate a solved table function back to the parent manager.

        Walks the function's reduced-BDD node list on the table manager
        and rebuilds it over the parent frame (table variable ``i`` is
        the ``i``-th frame variable), one ``ite`` per node; by
        canonicity the result is the parent node of the same function.
        """
        tm = self.relation.mgr
        frame = sorted(self.var_map, key=self.var_map.__getitem__)
        nodes, (ref,) = function_nodes(
            tm, (func,), {index: index for index in range(tm.num_vars)})
        return build_nodes(self.parent.mgr, nodes, frame)[ref]

    def solution_converter(self) -> Callable[[Solution], Solution]:
        """A memoised ``Solution`` translator (table -> parent manager).

        The same ``Solution`` object appears in several places of one
        run (the ``new-best`` event, the improvement list, the final
        result), and translated functions must stay identical across
        those appearances; the memo also keeps the originals alive so
        ``id``-keying is sound.
        """
        cache: Dict[int, Tuple[Solution, Solution]] = {}

        def convert(solution: Solution) -> Solution:
            hit = cache.get(id(solution))
            if hit is not None:
                return hit[1]
            converted = Solution(
                mgr=self.parent.mgr,
                functions=tuple(self.function_to_parent(func)
                                for func in solution.functions),
                cost=solution.cost)
            cache[id(solution)] = (solution, converted)
            return converted

        return convert


def routing_width(table_width: Optional[int]) -> int:
    """The effective width threshold (`None` -> the default)."""
    return DEFAULT_TABLE_WIDTH if table_width is None else table_width


def _frame_of(relation: BooleanRelation) -> Tuple[int, ...]:
    """The sorted variable frame (inputs + outputs) of a relation."""
    return tuple(sorted(set(relation.inputs) | set(relation.outputs)))


def relation_to_table(relation: BooleanRelation,
                      table_width: Optional[int] = None,
                      kernel: Optional[str] = None) -> RoutedRelation:
    """Rebuild ``relation`` on a fresh :class:`TableManager`.

    The table frame is the relation's variable frame compacted to
    ``0..k-1`` preserving relative order (so reduced-BDD structure —
    and therefore split choices, ISOP covers, sizes and fingerprint
    ranks — is unchanged).  ``kernel`` selects the raw-table kernel
    (``TableManager``'s knob).  Raises ``ValueError`` when the frame
    exceeds the width threshold or the characteristic function depends
    on variables outside it.
    """
    width = routing_width(table_width)
    frame = _frame_of(relation)
    if len(frame) > width:
        raise ValueError(
            "relation frame has %d variables, beyond the table backend "
            "width %d; raise table_width (<= %d) or use backend='auto'"
            % (len(frame), width, MAX_TABLE_WIDTH))
    data = relation_to_nodes(relation)
    parent = relation.mgr
    tm = TableManager([parent.var_name(var) for var in frame],
                      max_width=max(len(frame), 1), kernel=kernel)
    return RoutedRelation(relation=relation_from_nodes(data, mgr=tm),
                          parent=relation,
                          var_map={var: index
                                   for index, var in enumerate(frame)})


def route_relation(relation: BooleanRelation, backend: Optional[str],
                   table_width: Optional[int],
                   kernel: Optional[str] = None
                   ) -> Optional[RoutedRelation]:
    """Apply the routing policy; ``None`` means stay on this manager.

    ``backend=None``/``"bdd"`` never route.  ``"auto"`` routes when the
    relation's variable frame fits the width threshold and the relation
    is not already table-backed; an unroutable relation silently stays
    on the BDD engine.  ``"table"`` demands the table engine and raises
    ``ValueError`` when the relation cannot be represented there.
    """
    return route_decision(relation, backend, table_width, kernel)[0]


def route_decision(relation: BooleanRelation, backend: Optional[str],
                   table_width: Optional[int],
                   kernel: Optional[str] = None
                   ) -> Tuple[Optional[RoutedRelation], Optional[str]]:
    """:func:`route_relation` plus a human-readable explanation.

    Returns ``(routed, detail)``.  ``detail`` is ``None`` exactly when
    no routing was requested (``backend`` None/"bdd") — otherwise it
    names the engine chosen, the width that drove the decision, and
    the fallback reason when "auto" stayed on the BDD engine.  The
    solver surfaces it as a ``route`` event so the silent "auto"
    fallback is visible in the anytime stream.
    """
    if backend is None or backend == "bdd":
        return None, None
    width = routing_width(table_width)
    if isinstance(relation.mgr, TableManager):
        return None, ("backend=table kernel=%s (already table-backed)"
                      % relation.mgr.kernel)
    if backend == "table":
        routed = relation_to_table(relation, table_width, kernel)
        mgr = routed.relation.mgr
        return routed, ("backend=table width=%d/%d kernel=%s"
                        % (mgr.num_vars, width, mgr.kernel))
    # "auto": route only what fits.
    frame = _frame_of(relation)
    if len(frame) > width:
        return None, ("backend=bdd (frame %d wider than table_width %d)"
                      % (len(frame), width))
    try:
        routed = relation_to_table(relation, table_width, kernel)
    except ValueError as exc:
        return None, "backend=bdd (fallback: %s)" % exc
    mgr = routed.relation.mgr
    return routed, ("backend=table width=%d/%d kernel=%s"
                    % (mgr.num_vars, width, mgr.kernel))


class SubproblemRouter:
    """One solve's subproblem layer over one manager and memo store.

    Every memoised ISF minimisation of the solve goes through
    :meth:`minimize` — packed ISFs from the packed MISF layer
    (:mod:`repro.core.packedrel`) and node-level ISFs of wider
    relations alike — and the relation-level ``"quick"``/``"eval"``
    hits through :meth:`instantiate`.  The memo store itself is used
    exactly as without the router (same ``get``/``put`` calls, so the
    counters and LRU order do not change); what the router adds is the
    map ``(memo key, support) -> what the solve built for it``.  A memo
    hit whose key and support the solve already built is served from
    that map — node, cover and packed table — instead of rebuilding
    the cover: by ROBDD canonicity the rebuild would land on the same
    node, and the manager never collects mid-solve.
    """

    def __init__(self, memo: MemoStore) -> None:
        self.memo = memo
        self._instantiated: Dict[Tuple, Any] = {}
        #: ``(rank cover, support) -> node`` of the covers relation-level
        #: hits rebuilt: sibling relations' templates share most covers.
        self._covers: Dict[Tuple, int] = {}

    def minimize(self, isf, minimizer: IsfMinimizer,
                 minimizer_name: str) -> Minimized:
        """Memoised minimisation ``(node, variable-level cover, table)``
        of an :class:`~repro.core.isf.Isf` or a packed
        :class:`~repro.core.isf.PackedIsf`
        (:func:`~repro.core.minimize.minimize_with_cover`)."""
        return minimize_with_cover(isf, minimizer, self.memo,
                                   minimizer_name, self._instantiated)

    def instantiate(self, mgr, key: Tuple, covers: SolutionTemplate,
                    support: Tuple[int, ...]) -> Tuple[int, ...]:
        """The functions of a relation-level memo hit, built once per
        ``(key, support)`` in this solve."""
        inst_key = (key, support)
        functions = self._instantiated.get(inst_key)
        if functions is None:
            functions = tuple(self._cover_node(mgr, cover, support)
                              for cover in covers)
            self._instantiated[inst_key] = functions
        return functions

    def _cover_node(self, mgr, cover, support: Tuple[int, ...]) -> int:
        cover_key = (cover, support)
        node = self._covers.get(cover_key)
        if node is None:
            node = self._covers[cover_key] = instantiate_cover(mgr, cover,
                                                               support)
        return node

    def remember(self, key: Tuple, support: Tuple[int, ...],
                 functions: Tuple[int, ...]) -> None:
        """Record what a relation-level memo miss built."""
        self._instantiated[(key, support)] = functions
