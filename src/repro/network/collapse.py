"""Collapsing a network into global BDDs over its combinational leaves.

Used by the Section 10.2 flow: each latch's next-state function is
collapsed to a BDD over primary inputs and latch outputs before building
the decomposition relation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bdd.manager import FALSE, BddManager
from .netlist import LogicNetwork


class CollapsedNetwork:
    """Global BDDs for every signal of the combinational frame."""

    def __init__(self, network: LogicNetwork,
                 mgr: Optional[BddManager] = None) -> None:
        self.network = network
        leaves = network.combinational_inputs()
        if mgr is None:
            mgr = BddManager(leaves)
            self.leaf_vars = {name: index
                              for index, name in enumerate(leaves)}
        else:
            self.leaf_vars = {name: mgr.add_var(name) for name in leaves}
        self.mgr = mgr
        self.signal_nodes: Dict[str, int] = {
            name: mgr.var(var) for name, var in self.leaf_vars.items()}
        for name in network.topological_order():
            node = network.nodes[name]
            total = FALSE
            for cube in node.cover:
                literals = {}
                for position, value in enumerate(cube.values):
                    if value == 2:
                        continue
                    fanin_node = self.signal_nodes[node.fanins[position]]
                    literals[position] = (fanin_node, bool(value))
                term = None
                for position, (fanin_node, polarity) in sorted(
                        literals.items()):
                    lit = fanin_node if polarity else mgr.not_(fanin_node)
                    term = lit if term is None else mgr.and_(term, lit)
                if term is None:
                    from ..bdd.manager import TRUE
                    term = TRUE
                total = mgr.or_(total, term)
            self.signal_nodes[name] = total

    def node(self, name: str) -> int:
        """The global BDD of a signal."""
        return self.signal_nodes[name]

    def next_state_nodes(self) -> Dict[str, int]:
        """Latch-input functions keyed by latch *output* (state) name."""
        return {latch.output: self.signal_nodes[latch.input]
                for latch in self.network.latches}

    def support_names(self, name: str) -> List[str]:
        """Leaf names a signal depends on."""
        inverse = {var: leaf for leaf, var in self.leaf_vars.items()}
        return [inverse[var] for var in self.mgr.support(self.node(name))]
