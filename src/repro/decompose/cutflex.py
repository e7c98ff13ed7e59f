"""Cut flexibility: the paper's Section 1 motivating application.

    "Given a cut in the network, the flexibility of the nodes at the cut
     can be specified with a BR.  E.g., if the cut contains two nodes
     y1, y2 that reconverge to an AND gate and for a given primary vector
     the output of the AND gate must be 0, then the flexibility at y1, y2
     is {00, 01, 10}."

Given a logic network and a set of internal nodes (the *cut*), this module
builds the Boolean relation of all joint re-implementations of those nodes
that preserve every combinational output:

    R(X, Y) = AND over roots r of ( r(X, Y) == r(X) )

where ``r(X, Y)`` re-evaluates root ``r`` with the cut nodes replaced by
free variables ``Y``.  The relation is well defined by construction (the
original node functions are a compatible assignment), usually *not* an
MISF (joint flexibility!), and can be handed to BREL to resynthesise the
cut under any cost function.

Two builders give the same relation: :func:`cut_flexibility_relation`
collapses the frame into BDDs (the whole-network API of
:func:`resynthesize_cut`, and the reference), and
:func:`cut_flexibility_table` mines it by bit-parallel simulation as
one packed truth table, already in the layout a solve's packed root
uses, which resynthesis hands to the solver as it is
(:meth:`repro.api.Session.solve_tables`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..bdd.manager import FALSE, TRUE, BddManager
from ..bdd.packed import MAX_FRAME_WIDTH, frame_masks
from ..core.brel import BrelOptions, BrelResult, solve_relation
from ..core.memo import SolutionTemplate
from ..core.relation import BooleanRelation
from ..network.netlist import LogicNetwork
from ..network.simulate import signal_masks
from ..sop.cover import Cover
from ..sop.cube import DASH, Cube

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resynth.window import Window


class CutError(ValueError):
    """Raised on invalid cuts (unknown nodes, leaves, or cyclic usage)."""


def _frame_leaves(network: LogicNetwork, cut: Sequence[str]) -> List[str]:
    """The frame's leaves, after checking the cut against them."""
    if not cut:
        raise CutError("the cut is empty")
    if len(set(cut)) != len(cut):
        raise CutError("the cut repeats a node")
    leaves = network.combinational_inputs()
    leaf_set = set(leaves)
    for name in cut:
        if name not in network.nodes and name not in leaf_set:
            raise CutError("cut member %r is not a network signal" % name)
    return leaves


def _collapse_with_cut(network: LogicNetwork, cut: Sequence[str]
                       ) -> Tuple[BddManager, Dict[str, int],
                                  Dict[str, int], Dict[str, int],
                                  Dict[str, int]]:
    """Collapse the frame twice: normally, and with cut nodes freed.

    Returns (mgr, leaf_vars, cut_vars, original_roots, freed_roots).
    """
    cut_set = set(cut)
    leaves = _frame_leaves(network, cut)
    mgr = BddManager(leaves + ["cut_%s" % name for name in cut])
    leaf_vars = {name: index for index, name in enumerate(leaves)}
    cut_vars = {name: len(leaves) + index
                for index, name in enumerate(cut)}

    def collapse(free_cut: bool) -> Dict[str, int]:
        values: Dict[str, int] = {}
        for name, var in leaf_vars.items():
            if free_cut and name in cut_set:
                values[name] = mgr.var(cut_vars[name])
            else:
                values[name] = mgr.var(var)
        for name in network.topological_order():
            node = network.nodes[name]
            total = FALSE
            for cube in node.cover:
                term = TRUE
                for position, value in enumerate(cube.values):
                    if value == 2:
                        continue
                    fanin = values[node.fanins[position]]
                    literal = fanin if value == 1 else mgr.not_(fanin)
                    term = mgr.and_(term, literal)
                total = mgr.or_(total, term)
            if free_cut and name in cut_set:
                values[name] = mgr.var(cut_vars[name])
            else:
                values[name] = total
        return values

    original = collapse(free_cut=False)
    freed = collapse(free_cut=True)
    roots = network.combinational_outputs()
    original_roots = {name: original[name] for name in roots}
    freed_roots = {name: freed[name] for name in roots}
    return mgr, leaf_vars, cut_vars, original_roots, freed_roots


def cut_flexibility_relation(network: LogicNetwork, cut: Sequence[str]
                             ) -> Tuple[BooleanRelation, Dict[str, int]]:
    """The BR of all joint re-implementations of the cut nodes.

    Returns ``(relation, cut_vars)`` where the relation's inputs are the
    frame leaves and its outputs are fresh variables, one per cut node
    (``cut_vars`` maps node name -> variable index).

    Note: a cut node that (transitively) feeds another cut node
    contributes its *freed* variable to the other's cone, which captures
    the joint flexibility correctly; the resynthesised functions returned
    by :func:`resynthesize_cut` are expressed over the leaves only.

    Degenerate cuts are tolerated rather than rejected: constant nodes
    and unobservable (dangling / single-path) members simply yield the
    corresponding flexibility, and a cut member that is itself a frame
    *leaf* (a primary input or latch output wired straight to an
    output) gets the identity relation ``y == x`` — a leaf admits no
    re-implementation, so its flexibility is the singleton.
    """
    mgr, leaf_vars, cut_vars, original_roots, freed_roots = \
        _collapse_with_cut(network, cut)
    node = TRUE
    for name, original in original_roots.items():
        node = mgr.and_(node, mgr.xnor_(freed_roots[name], original))
    for name in cut:
        if name in leaf_vars:
            node = mgr.and_(node, mgr.xnor_(mgr.var(cut_vars[name]),
                                            mgr.var(leaf_vars[name])))
    relation = BooleanRelation(mgr, sorted(leaf_vars.values()),
                               [cut_vars[name] for name in cut], node)
    return relation, cut_vars


def cut_flexibility_table(network: LogicNetwork, cut: Sequence[str],
                          window: Optional["Window"] = None
                          ) -> Tuple[int, int, int]:
    """:func:`cut_flexibility_relation`'s relation as ``(n, m, table)``:
    its characteristic function packed over the frame of its ``n``
    leaves and ``m`` cut variables, mined with no BDD manager.

    The frame is the whole combinational network or, given the
    :class:`~repro.resynth.window.Window` around ``cut``, the window's
    leaves, nodes and roots, mined in place on ``network``.  The table
    is a solve's packed root (:func:`repro.api.request.root_of_table`):
    leaf ``i`` on position ``n-1-i`` and cut variable ``j`` on ``n+j``,
    as :func:`~repro.bdd.packed.pack_positions` lays out the relation's
    node.  Equal relations over one frame give equal triples; the
    :class:`CutError` messages and degenerate cases are
    :func:`cut_flexibility_relation`'s.  One bit-parallel evaluator
    simulates the frame with its leaves pinned to their variables, then
    with the cut pinned to its own too, and ANDs the roots' XNORs.  A
    frame wider than :data:`~repro.bdd.packed.MAX_FRAME_WIDTH`
    variables raises :class:`CutError`.
    """
    leaves = window.leaves if window else _frame_leaves(network, cut)
    order = window.nodes if window else network.topological_order()
    roots = window.roots if window else network.combinational_outputs()
    n, m = len(leaves), len(cut)
    width = n + m
    if width > MAX_FRAME_WIDTH:
        raise CutError("the cut's frame has %d variables; packed mining "
                       "stops at %d" % (width, MAX_FRAME_WIDTH))
    _, ones = frame_masks(width)
    pins = {leaf: ones[n - 1 - rank] for rank, leaf in enumerate(leaves)}
    cut_masks = {name: ones[n + index] for index, name in enumerate(cut)}
    count = 1 << width
    original = signal_masks(network, (), count, pinned=pins, order=order)
    freed = signal_masks(network, (), count,
                         pinned={**pins, **cut_masks}, order=order)
    table = (1 << count) - 1
    for name in roots:
        table &= ~(freed[name] ^ original[name])
    for name in cut:
        if name not in network.nodes:  # a leaf member: y == x
            table &= ~(cut_masks[name] ^ original[name])
    return n, m, table


@dataclass
class CutResynthesis:
    """Result of resynthesising a cut through its flexibility BR."""

    network: LogicNetwork
    relation: BooleanRelation
    brel: BrelResult
    literals_before: int
    literals_after: int
    #: Whether the rewrite was kept.  ``False`` means the candidate did
    #: not beat the original under the acceptance gate and ``network``
    #: is an untouched copy of the input.
    accepted: bool = True


def realize_template(template: SolutionTemplate, leaves: Sequence[str]
                     ) -> List[Tuple[List[str], Cover]]:
    """Materialise rank covers as ``(fanins, cover)`` pairs, one per
    output, with rank ``i`` renamed to ``leaves[i]``.

    Each function's fanins are the leaves its cubes mention, sorted by
    name; its cubes keep the template's order.  A renaming: no manager
    and no ISOP.
    """
    realized = []
    for cover in template:
        fanins = sorted({leaves[rank] for cube in cover
                         for rank, _ in cube})
        index_of = {leaf: i for i, leaf in enumerate(fanins)}
        cubes = []
        for cube in cover:
            values = [DASH] * len(fanins)
            for rank, polarity in cube:
                values[index_of[leaves[rank]]] = 1 if polarity else 0
            cubes.append(Cube(values))
        realized.append((fanins, Cover(len(fanins), cubes)))
    return realized


def resynthesize_cut(network: LogicNetwork, cut: Sequence[str],
                     options: Optional[BrelOptions] = None,
                     accept: str = "improved") -> CutResynthesis:
    """Re-implement the cut nodes with a BREL-chosen compatible function.

    The new node functions are materialised as ISOP covers over the frame
    leaves (their support may differ from the original fanins — that is
    the point).  Output behaviour is preserved by construction; the
    rewritten network is validated and swept.

    ``accept`` gates the rewrite: ``"improved"`` (the default) keeps it
    only when it strictly lowers the network literal count — on a tie
    or a regression the original network is returned unchanged
    (``accepted=False``) — while ``"always"`` installs whatever the
    solver chose, the pre-gate behaviour.

    Cut members that are frame leaves (see
    :func:`cut_flexibility_relation`) pass through unchanged — their
    flexibility is pinned to the identity, so there is nothing to
    rewrite.
    """
    if accept not in ("improved", "always"):
        raise ValueError("accept must be 'improved' or 'always'")
    relation, _ = cut_flexibility_relation(network, cut)
    result = solve_relation(relation, options)
    # The relation's input i is the frame's leaf i.
    realized = realize_template(result.solution.template(relation.inputs),
                                network.combinational_inputs())
    rewritten = network.copy()
    for position, name in enumerate(cut):
        if name not in rewritten.nodes:
            continue  # leaf member: identity-pinned, nothing to rewrite
        fanins, cover = realized[position]
        node = rewritten.nodes[name]
        node.fanins = list(fanins)
        node.cover = cover
    rewritten.sweep_dangling()
    rewritten.validate()
    literals_before = network.literal_count()
    literals_after = rewritten.literal_count()
    if accept == "improved" and literals_after >= literals_before:
        return CutResynthesis(
            network=network.copy(),
            relation=relation,
            brel=result,
            literals_before=literals_before,
            literals_after=literals_before,
            accepted=False,
        )
    return CutResynthesis(
        network=rewritten,
        relation=relation,
        brel=result,
        literals_before=literals_before,
        literals_after=literals_after,
        accepted=True,
    )
