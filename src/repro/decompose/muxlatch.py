"""The mux-latch next-state decomposition flow (paper Section 10.2).

For every latch, the next-state function ``F(X)`` is re-implemented as
three functions A, B, C feeding a flip-flop with an embedded 2:1 mux
(``Q+ = A*C' + B*C``).  All valid (A, B, C) triples form the BR
``F(X) ⇔ (A*C' + B*C)`` which BREL solves with either

* ``cost="delay"`` — sum of *squared* BDD sizes, balancing the three
  cones (the paper's delay optimisation), or
* ``cost="area"`` — plain sum of BDD sizes.

The mux is assumed absorbed into the flip-flop at zero cost (the paper's
explicit "optimistic assumption"), so the evaluation frame of a
decomposed circuit ends at A, B and C.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.isop import isop
from ..core.brel import BrelOptions, BrelSolver
from ..core.cost import bdd_size_cost, bdd_size_squared_cost
from ..core.relation import BooleanRelation
from ..network.collapse import CollapsedNetwork
from ..network.netlist import LogicNetwork
from ..sop.cover import Cover
from ..sop.cube import DASH, Cube
from .gatedec import mux_function


@dataclass
class MuxLatchStats:
    """Bookkeeping for one decomposition run."""

    latches_total: int = 0
    latches_decomposed: int = 0
    latches_skipped_support: int = 0
    relations_explored: int = 0
    runtime_seconds: float = 0.0


@dataclass
class MuxLatchResult:
    """The rewritten network plus run statistics."""

    network: LogicNetwork
    mux_nodes: List[str]
    stats: MuxLatchStats


def _bdd_to_node_cover(mgr, node: int, support_names: Dict[int, str]
                       ) -> Tuple[List[str], Cover]:
    """Convert a BDD into (fanins, positional SOP cover) for a netlist."""
    cover, _ = isop(mgr, node, node)
    names = sorted({support_names[var] for cube in cover for var in cube})
    position = {name: index for index, name in enumerate(names)}
    cubes = []
    for cube in cover:
        values = [DASH] * len(names)
        for var, polarity in cube.items():
            values[position[support_names[var]]] = 1 if polarity else 0
        cubes.append(Cube(values))
    return names, Cover(len(names), cubes)


def decompose_mux_latches(network: LogicNetwork, cost: str = "delay",
                          max_explored: int = 200,
                          max_support: int = 12,
                          fifo_capacity: int = 64,
                          symmetry_pruning: bool = False
                          ) -> MuxLatchResult:
    """Rewrite every latch's next-state cone through the mux-latch BR.

    Latches whose collapsed next-state support exceeds ``max_support``
    leaves are left untouched (and counted in the stats) — the same
    practical guard the paper's runtime limits imply.
    """
    if cost not in ("delay", "area"):
        raise ValueError("cost must be 'delay' or 'area'")
    cost_function = (bdd_size_squared_cost if cost == "delay"
                     else bdd_size_cost)
    start = time.perf_counter()
    stats = MuxLatchStats(latches_total=len(network.latches))
    result = network.copy()
    collapsed = CollapsedNetwork(network)
    mgr = collapsed.mgr
    var_to_name = {var: name for name, var in collapsed.leaf_vars.items()}
    mux_nodes: List[str] = []

    for latch in result.latches:
        target = collapsed.next_state_nodes()[latch.output]
        support = mgr.support(target)
        if len(support) > max_support:
            stats.latches_skipped_support += 1
            continue
        # Three fresh gate variables per latch keep relations independent.
        gate_vars = [mgr.add_var("A_%s" % latch.output),
                     mgr.add_var("B_%s" % latch.output),
                     mgr.add_var("C_%s" % latch.output)]
        gate = mux_function(mgr, *gate_vars)
        relation = BooleanRelation(mgr, list(support), gate_vars,
                                   mgr.xnor_(target, gate))
        options = BrelOptions(cost_function=cost_function,
                              max_explored=max_explored,
                              fifo_capacity=fifo_capacity,
                              symmetry_pruning=symmetry_pruning)
        solved = BrelSolver(options).solve(relation)
        stats.relations_explored += solved.stats.relations_explored
        functions = solved.solution.functions

        # Materialise A, B, C as SOP nodes and re-point the latch through
        # a mux node (excluded from cost by the evaluation frame).
        names = []
        for tag, func in zip("abc", functions):
            fanins, cover = _bdd_to_node_cover(mgr, func, var_to_name)
            name = result.fresh_name("%s_%s" % (tag, latch.output))
            result.add_node(name, fanins, cover)
            names.append(name)
        mux_name = result.fresh_name("mux_%s" % latch.output)
        mux_cover = Cover.from_strings(3, ["1-0", "-11"])
        result.add_node(mux_name, names, mux_cover)
        mux_nodes.append(mux_name)
        latch.input = mux_name
        stats.latches_decomposed += 1

    result.sweep_dangling()
    result.validate()
    stats.runtime_seconds = time.perf_counter() - start
    return MuxLatchResult(result, mux_nodes, stats)


def evaluation_frame(decomposed: MuxLatchResult) -> LogicNetwork:
    """The combinational frame costed by the paper's Table 3.

    The mux is absorbed into the flip-flop, so each decomposed latch's
    frame ends at its A/B/C cones: the mux node is removed, the latch is
    fed by A, and B and C become extra frame outputs.
    """
    frame = decomposed.network.copy()
    mux_set = set(decomposed.mux_nodes)
    for latch in frame.latches:
        if latch.input not in mux_set:
            continue
        mux_node = frame.nodes[latch.input]
        a_name, b_name, c_name = mux_node.fanins
        frame.remove_node(latch.input)
        latch.input = a_name
        frame.outputs.append(b_name)
        frame.outputs.append(c_name)
        frame._output_set.update((b_name, c_name))
    frame.sweep_dangling()
    frame.validate()
    return frame
