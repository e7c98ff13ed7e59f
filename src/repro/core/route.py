"""Backend routing: send narrow subproblems to the truth-table kernel.

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
  solved functions back to the parent manager via minterm enumeration
  + :meth:`~repro.bdd.BddManager.from_minterms`;
* :class:`SubproblemRouter` — the *in-recursion* routing path: inside
  one BDD-backed solve, ISF minimisations whose support has narrowed
  to the table width are computed on a throwaway table manager whose
  variables are the ISF's support ranks, producing exactly the rank
  template the memo layer would store; the template is instantiated
  back over the parent support, so results are byte-identical to an
  unrouted solve while the inner minimisation runs on the fast kernel.

Because the compaction preserves relative variable order and both
backends expose the same reduced-BDD structural view, a routed solve
makes the same split decisions, the same ISOP covers, and the same
cost measurements as the BDD solve — only the kernel underneath each
operation changes.  Memo signatures are renaming-invariant, so
templates minted on one backend instantiate under the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..table import DEFAULT_TABLE_WIDTH, MAX_TABLE_WIDTH, TableManager
from .memo import (template_from_var_cover, var_cover_from_template,
                   instantiate_var_cover)
from .relation import BooleanRelation
from .relio import (build_nodes, function_nodes, relation_from_nodes,
                    relation_to_nodes)
from .solution import Solution

__all__ = ["BACKEND_CHOICES", "DEFAULT_ROUTE_CONVERSION_BUDGET",
           "RoutedRelation", "SubproblemRouter", "relation_to_table",
           "route_decision", "route_relation", "routing_width"]

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

        ``func`` must depend only on the routed relation's inputs (true
        of every solver output); the translation enumerates its
        minterms over them and rebuilds the function with
        ``from_minterms`` on the parent manager.
        """
        table_inputs = self.relation.inputs
        parent_inputs = self.parent.inputs
        minterms = self.relation.mgr.minterms(func, table_inputs)
        return self.parent.mgr.from_minterms(parent_inputs, minterms)

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


#: Default per-solve cap on fresh ISF-to-table conversions.  Each
#: conversion walks the subproblem's interval BDDs once; the cap
#: bounds that overhead on adversarial runs where no signature ever
#: repeats, while normal runs (heavy signature reuse) rarely reach it.
DEFAULT_ROUTE_CONVERSION_BUDGET = 512


class SubproblemRouter:
    """In-recursion routing of narrow ISF minimisations onto the table kernel.

    One router serves one solve.  When the solver's evaluation /
    quick-solve pipeline is about to run a *structural* minimiser on an
    ISF whose support has narrowed to ``table_width`` variables or
    fewer, :meth:`minimize` rebuilds the ISF once on a throwaway
    :class:`TableManager` whose variables are the support ranks
    ``0..k-1`` (order preserving), runs the minimiser there, and keeps
    the resulting *rank template* — exactly the object the memo layer
    stores for that signature.  Instantiating the template back over
    the parent support reproduces the unrouted result byte-for-byte
    (the memo transparency invariant), so routing changes wall-clock,
    never answers.

    Templates are memoised by the PR 4 signature key, so a subproblem
    is never converted twice; fresh conversions are bounded by
    ``conversion_budget`` (``None`` = unlimited).  Counters land in the
    shared :class:`~repro.core.solution.SolverStats`:
    ``subproblems_routed`` (minimisations served), ``route_conversions``
    (fresh table builds), ``route_hits`` (template reuse).
    """

    def __init__(self, stats, table_width: Optional[int] = None,
                 kernel: Optional[str] = None,
                 conversion_budget: Optional[int] =
                 DEFAULT_ROUTE_CONVERSION_BUDGET):
        self.stats = stats
        self.width = routing_width(table_width)
        self.kernel = kernel
        self.conversion_budget = conversion_budget
        #: True once the conversion budget is spent (solver emits one
        #: ``route`` event when it sees this flip).
        self.exhausted = False
        #: True when table construction itself failed (e.g. a width
        #: past the int-kernel ceiling without numpy); the router then
        #: stands down for the rest of the solve.
        self.disabled = False
        # (sig.key, minimizer_name) -> rank template.
        self._templates: Dict[Tuple, Tuple] = {}
        # (sig.key, minimizer_name, support) -> (node, var cover).
        # Same template over the same support instantiates to the same
        # node (ROBDD canonicity), and the parent manager never
        # collects mid-solve, so serving repeats from here skips the
        # cover rebuild without changing any answer.
        self._instantiated: Dict[Tuple, Tuple[int, Tuple]] = {}

    def minimize(self, isf, minimizer, minimizer_name: str):
        """Serve one minimisation from the table kernel, or ``None``.

        ``None`` means "not routed — run the minimiser normally": the
        ISF is already table-backed, its support is empty or wider
        than the table width, the budget is exhausted, or conversion
        failed.  Otherwise returns ``(node, var_cover)`` exactly as
        :func:`~repro.core.minimize._run_with_cover` would.
        """
        mgr = isf.mgr
        if self.disabled or isinstance(mgr, TableManager):
            return None
        sig = isf.signature()
        support = sig.support
        if not support or len(support) > self.width:
            return None
        key = (sig.key, minimizer_name)
        template = self._templates.get(key)
        if template is None:
            if self.exhausted:
                return None
            if (self.conversion_budget is not None and
                    self.stats.route_conversions >= self.conversion_budget):
                self.exhausted = True
                return None
            try:
                template = self._mint(isf, support, minimizer,
                                      minimizer_name)
            except ValueError:
                self.disabled = True
                return None
            self._templates[key] = template
            self.stats.route_conversions += 1
        else:
            self.stats.route_hits += 1
        self.stats.subproblems_routed += 1
        inst_key = (sig.key, minimizer_name, support)
        served = self._instantiated.get(inst_key)
        if served is None:
            cover = var_cover_from_template(template, support)
            served = (instantiate_var_cover(mgr, cover), cover)
            self._instantiated[inst_key] = served
        return served

    def _mint(self, isf, support: Tuple[int, ...], minimizer,
              minimizer_name: str) -> Tuple:
        """Convert the ISF to a rank-framed table and minimise there.

        The table's variable ``i`` *is* support rank ``i``, so the
        cover the structural minimiser extracts is already at rank
        level and ``template_from_var_cover`` maps it with the
        identity — producing what a memo-on unrouted run would have
        stored for this signature.
        """
        from .isf import Isf
        from .minimize import _run_with_cover
        parent = isf.mgr
        rank = {var: index for index, var in enumerate(support)}
        tm = TableManager([parent.var_name(var) for var in support],
                          max_width=len(support), kernel=self.kernel)
        nodes, (on_ref, dc_ref) = function_nodes(parent, (isf.on, isf.dc),
                                                 rank)
        built = build_nodes(tm, nodes, range(len(support)))
        table_isf = Isf(tm, built[on_ref], built[dc_ref],
                        tuple(range(len(support))))
        _, cover = _run_with_cover(table_isf, minimizer, minimizer_name)
        identity = {index: index for index in range(len(support))}
        return template_from_var_cover(cover, identity)
