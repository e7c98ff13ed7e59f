"""Windowed cut extraction for network resynthesis.

The full-network flexibility relation of :mod:`repro.decompose.cutflex`
collapses the whole combinational frame — exact, but its BDDs grow with
the whole network and every cut pays for collapsing all of it.  This
module builds the *windowed* variant used
by SIS-style don't-care optimisation: around each candidate cut, a view
of a small part of the host network (nothing is copied) whose boundary
inputs become free variables and whose boundary outputs are preserved.

Soundness: the window's roots are every window node that is observable
outside the window (a primary output, a latch input, or a signal read by
a node outside the window).  Preserving those root functions for *every*
assignment of the window leaves preserves them in particular for the
reachable assignments, so any rewrite drawn from the window's
flexibility relation leaves the global combinational behaviour
untouched.  The window sees only a subset of the true flexibility
(no satisfiability don't-cares from the leaves' cones), which costs
optimisation power, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..network.netlist import LogicNetwork

#: Widest window the pipeline will build: the per-rewrite verification
#: simulates the window exhaustively (``2^leaves`` vectors), so it
#: needs a hard ceiling.
MAX_WINDOW_LEAVES = 16

CUT_POLICIES = ("nodes", "reconvergent")


@dataclass
class Window:
    """A view of its host network around one cut."""

    #: The cut being resynthesised (internal nodes of the host network).
    cut: Tuple[str, ...]
    #: The cut plus its in-window transitive fanout, in host order.
    nodes: Tuple[str, ...]
    #: Boundary input signals, in deterministic first-seen order; these
    #: are the window's free variables (= relation inputs).
    leaves: Tuple[str, ...]
    #: Window nodes observable outside the window, whose functions of
    #: the leaves a rewrite preserves.
    roots: Tuple[str, ...]


def _grow_tfo(network: LogicNetwork, seeds: Sequence[str], depth: int,
              fanouts: Dict[str, List[str]],
              position: Mapping[str, int]) -> List[str]:
    """Seed nodes plus their transitive fanout up to ``depth`` levels,
    in topological order (``position`` ranks every node)."""
    member = set(seeds)
    frontier = list(seeds)
    for _ in range(depth):
        grown: List[str] = []
        for name in frontier:
            for reader in fanouts.get(name, ()):
                if reader in network.nodes and reader not in member:
                    member.add(reader)
                    grown.append(reader)
        if not grown:
            break
        frontier = grown
    return sorted(member, key=position.__getitem__)


def extract_window(network: LogicNetwork, cut: Sequence[str],
                   max_leaves: int = 8, tfo_depth: int = 1,
                   fanouts: Optional[Dict[str, List[str]]] = None,
                   position: Optional[Mapping[str, int]] = None,
                   outputs: Optional[AbstractSet[str]] = None
                   ) -> Optional[Window]:
    """The window around ``cut``, or ``None`` if none fits.

    The window is the cut plus its transitive fanout up to ``tfo_depth``
    levels; when the resulting boundary has more than ``max_leaves``
    input signals the depth is backed off one level at a time.  At depth
    0 the window is the cut itself and the leaves are the cut's fanins —
    if even that exceeds the cap, the cut is not windowable.

    ``fanouts`` (:meth:`LogicNetwork.fanouts`), ``position`` (each
    node's index in a topological order) and ``outputs`` (the set of
    combinational outputs) describe the unchanged host network; a
    caller windowing many cuts computes them once and passes them in.
    """
    if max_leaves > MAX_WINDOW_LEAVES:
        raise ValueError("max_leaves is capped at %d" % MAX_WINDOW_LEAVES)
    for name in cut:
        if name not in network.nodes:
            return None  # leaves and unknown signals are not windowable
    if fanouts is None:
        fanouts = network.fanouts()
    if position is None:
        position = {name: index for index, name
                    in enumerate(network.topological_order())}
    if outputs is None:
        outputs = set(network.combinational_outputs())
    for depth in range(max(tfo_depth, 0), -1, -1):
        member_order = _grow_tfo(network, cut, depth, fanouts, position)
        member = set(member_order)
        leaves: List[str] = []
        seen = set()
        for name in member_order:
            for fanin in network.nodes[name].fanins:
                if fanin not in member and fanin not in seen:
                    seen.add(fanin)
                    leaves.append(fanin)
        if len(leaves) > max_leaves:
            continue
        roots = [name for name in member_order
                 if name in outputs
                 or any(reader not in member
                        for reader in fanouts.get(name, ()))]
        return Window(cut=tuple(cut), nodes=tuple(member_order),
                      leaves=tuple(leaves), roots=tuple(roots))
    return None


def enumerate_cuts(network: LogicNetwork, policy: str = "nodes",
                   max_cuts: Optional[int] = None,
                   order: Optional[Sequence[str]] = None
                   ) -> List[Tuple[str, ...]]:
    """Candidate cuts under the given enumeration policy, visiting the
    nodes in ``order`` (a topological order, computed when not given).

    ``"nodes"``
        Every internal node as a singleton cut, in topological order —
        the workhorse policy; one relation per gate.
    ``"reconvergent"``
        The paper's §1 shape: for every node with two or more internal
        fanins, the first two fanins as a joint cut (deduplicated).
        Joint cuts capture flexibility the per-node MISF cannot express.
    """
    if policy not in CUT_POLICIES:
        raise ValueError("unknown cut policy %r (choose from %s)"
                         % (policy, ", ".join(CUT_POLICIES)))
    if order is None:
        order = network.topological_order()
    cuts: List[Tuple[str, ...]] = []
    if policy == "nodes":
        for name in order:
            if name in network.nodes:
                cuts.append((name,))
    else:
        seen = set()
        for name in order:
            if name not in network.nodes:
                continue
            internal = [fanin for fanin in network.nodes[name].fanins
                        if fanin in network.nodes]
            if len(internal) >= 2:
                pair = tuple(internal[:2])
                if pair not in seen and pair[0] != pair[1]:
                    seen.add(pair)
                    cuts.append(pair)
    if max_cuts is not None:
        cuts = cuts[:max_cuts]
    return cuts
