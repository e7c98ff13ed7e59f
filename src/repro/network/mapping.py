"""Tree-covering technology mapping (SIS `map` analogue).

Classic three-stage mapper from Rudell's thesis [25], the tool behind the
paper's AREA and delay columns:

1. **Technology decomposition** — every node's SOP becomes a balanced
   AND/OR tree, lowered onto a NAND2/INV *subject graph* with structural
   hashing;
2. **Tree partition** — multi-fanout subject nodes and the combinational
   outputs become tree roots; patterns never cross tree boundaries;
3. **Dynamic programming** — per tree, the minimum-area (or
   minimum-arrival) cover over the library's pattern trees.

Area is the sum of chosen gate areas; delay is the longest gate-delay path
(load-independent pin delays — see README, "Benchmark substitutions", for
why ratios are the meaningful output).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .library import Gate, Pattern, default_library
from .netlist import LogicNetwork
from .kernels import node_terms

# Subject node kinds.
LEAF = "leaf"
NAND = "nand"
INV = "inv"
CONST0 = "const0"
CONST1 = "const1"


class SubjectGraph:
    """A structurally-hashed NAND2/INV DAG for a network's frame."""

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.children: List[Tuple[int, ...]] = []
        self.leaf_names: Dict[int, str] = {}
        self._hash: Dict[Tuple, int] = {}
        self.roots: Dict[str, int] = {}

    # -- construction ----------------------------------------------------
    def _make(self, kind: str, children: Tuple[int, ...] = ()) -> int:
        if kind == INV:
            child = children[0]
            if self.kinds[child] == INV:        # double inversion folds
                return self.children[child][0]
            if self.kinds[child] == CONST0:
                return self._make(CONST1)
            if self.kinds[child] == CONST1:
                return self._make(CONST0)
        if kind == NAND:
            children = tuple(sorted(children))
        key = (kind, children)
        node = self._hash.get(key)
        if node is None:
            node = len(self.kinds)
            self.kinds.append(kind)
            self.children.append(children)
            self._hash[key] = node
        return node

    def leaf(self, name: str) -> int:
        key = (LEAF, name)
        node = self._hash.get(key)
        if node is None:
            node = len(self.kinds)
            self.kinds.append(LEAF)
            self.children.append(())
            self._hash[key] = node
            self.leaf_names[node] = name
        return node

    def const(self, value: bool) -> int:
        return self._make(CONST1 if value else CONST0)

    def nand(self, a: int, b: int) -> int:
        return self._make(NAND, (a, b))

    def inv(self, a: int) -> int:
        return self._make(INV, (a,))

    def and_(self, a: int, b: int) -> int:
        return self.inv(self.nand(a, b))

    def or_(self, a: int, b: int) -> int:
        return self.nand(self.inv(a), self.inv(b))

    def balanced(self, op, operands: List[int]) -> int:
        """Reduce a list with a balanced binary tree (delay-friendly)."""
        items = list(operands)
        if not items:
            raise ValueError("empty operand list")
        while len(items) > 1:
            merged = []
            for index in range(0, len(items) - 1, 2):
                merged.append(op(items[index], items[index + 1]))
            if len(items) % 2:
                merged.append(items[-1])
            items = merged
        return items[0]

    # -- queries ----------------------------------------------------------
    def live_nodes(self) -> Set[int]:
        """Nodes reachable from the roots (construction leaves garbage)."""
        live: Set[int] = set()
        stack = list(self.roots.values())
        while stack:
            node = stack.pop()
            if node in live:
                continue
            live.add(node)
            stack.extend(self.children[node])
        return live

    def fanout_counts(self) -> Dict[int, int]:
        """Per-node fanout, counted over live nodes only."""
        counts: Dict[int, int] = {}
        for node in self.live_nodes():
            for kid in self.children[node]:
                counts[kid] = counts.get(kid, 0) + 1
        return counts


def build_subject_graph(network: LogicNetwork) -> SubjectGraph:
    """Lower a network's combinational frame onto a subject graph."""
    graph = SubjectGraph()
    signal_node: Dict[str, int] = {}
    for name in network.combinational_inputs():
        signal_node[name] = graph.leaf(name)
    for name in network.topological_order():
        node = network.nodes[name]
        if not node.fanins:
            value = node.cover.cube_count() > 0
            signal_node[name] = graph.const(value)
            continue
        products: List[int] = []
        for cube in node.cover:
            literals: List[int] = []
            for position, value in enumerate(cube.values):
                if value == 2:
                    continue
                base = signal_node[node.fanins[position]]
                literals.append(base if value == 1 else graph.inv(base))
            if not literals:
                products.append(graph.const(True))
            else:
                products.append(graph.balanced(graph.and_, literals))
        if not products:
            signal_node[name] = graph.const(False)
        else:
            signal_node[name] = graph.balanced(graph.or_, products)
    for name in network.combinational_outputs():
        graph.roots[name] = signal_node[name]
    return graph


# ----------------------------------------------------------------------
# Pattern matching
# ----------------------------------------------------------------------
def _match(graph: SubjectGraph, pattern: Pattern, node: int,
           boundaries: Set[int], bindings: Dict[str, int], top: bool
           ) -> List[Dict[str, int]]:
    """All consistent leaf bindings for ``pattern`` rooted at ``node``."""
    if isinstance(pattern, str):
        bound = bindings.get(pattern)
        if bound is not None and bound != node:
            return []
        new_bindings = dict(bindings)
        new_bindings[pattern] = node
        return [new_bindings]
    # Non-leaf pattern nodes may not sit on a tree boundary (except the
    # match root itself).
    if not top and node in boundaries:
        return []
    kind = pattern[0]
    if kind == INV:
        if graph.kinds[node] != INV:
            return []
        return _match(graph, pattern[1], graph.children[node][0],
                      boundaries, bindings, False)
    if kind == NAND:
        if graph.kinds[node] != NAND:
            return []
        left, right = graph.children[node]
        results = []
        for p_first, p_second in ((pattern[1], pattern[2]),
                                  (pattern[2], pattern[1])):
            for partial in _match(graph, p_first, left, boundaries,
                                  bindings, False):
                results.extend(_match(graph, p_second, right, boundaries,
                                      partial, False))
        # Deduplicate identical bindings from symmetric patterns.
        unique = []
        seen = set()
        for result in results:
            key = tuple(sorted(result.items()))
            if key not in seen:
                seen.add(key)
                unique.append(result)
        return unique
    raise ValueError("unknown pattern kind %r" % kind)


@dataclass
class MappedGate:
    """One gate instance in the mapped netlist."""

    gate: Gate
    output: int            # subject node implemented
    inputs: Tuple[int, ...]  # subject nodes feeding the gate


@dataclass
class MappingResult:
    """Area/delay/structure of one mapping run."""

    area: float
    delay: float
    gates: List[MappedGate]
    mode: str
    arrival: Dict[int, float] = field(default_factory=dict)

    def gate_count(self) -> int:
        return len(self.gates)

    def histogram(self) -> Dict[str, int]:
        result: Dict[str, int] = {}
        for mapped in self.gates:
            result[mapped.gate.name] = result.get(mapped.gate.name, 0) + 1
        return result


def map_network(network: LogicNetwork,
                library: Optional[Sequence[Gate]] = None,
                mode: str = "area") -> MappingResult:
    """Map a network onto the library; ``mode`` is ``"area"`` or ``"delay"``.

    Area mode minimises total gate area per tree; delay mode minimises the
    arrival time at every root.  Both report the other metric as measured
    on the chosen cover.
    """
    if mode not in ("area", "delay"):
        raise ValueError("mode must be 'area' or 'delay'")
    gates = list(library) if library is not None else default_library()
    graph = build_subject_graph(network)

    live = graph.live_nodes()
    fanouts = graph.fanout_counts()
    boundaries: Set[int] = set()
    for node, kind in enumerate(graph.kinds):
        if kind in (LEAF, CONST0, CONST1):
            boundaries.add(node)
        elif fanouts.get(node, 0) > 1:
            boundaries.add(node)
    boundaries |= set(graph.roots.values())

    # Topological order of the whole graph (ids are created bottom-up).
    arrival: Dict[int, float] = {}
    chosen: Dict[int, Tuple[Gate, Dict[str, int]]] = {}
    best: Dict[int, float] = {}

    for node in range(len(graph.kinds)):
        if node not in live:
            continue
        kind = graph.kinds[node]
        if kind in (LEAF, CONST0, CONST1):
            best[node] = 0.0
            arrival[node] = 0.0
            continue
        best_cost = None
        best_choice = None
        for gate in gates:
            for bindings in _match(graph, gate.pattern, node, boundaries,
                                   {}, True):
                leaf_nodes = [bindings[name]
                              for name in gate.leaf_names()]
                if any(leaf not in best for leaf in leaf_nodes):
                    continue  # leaf above us topologically: impossible
                if mode == "area":
                    internal = [leaf for leaf in leaf_nodes
                                if leaf not in boundaries]
                    cost = gate.area + sum(best[leaf]
                                           for leaf in internal)
                    # Boundary leaves are paid by their own tree.
                    tie = gate.delay + max(
                        [arrival[leaf] for leaf in leaf_nodes] or [0.0])
                else:
                    cost = gate.delay + max(
                        [arrival[leaf] for leaf in leaf_nodes] or [0.0])
                    internal = [leaf for leaf in leaf_nodes
                                if leaf not in boundaries]
                    tie = gate.area + sum(best[leaf] for leaf in internal)
                key = (cost, tie)
                if best_cost is None or key < best_cost:
                    best_cost = key
                    best_choice = (gate, bindings)
        if best_choice is None:
            raise RuntimeError("no library gate matches subject node %d"
                               % node)
        gate, bindings = best_choice
        chosen[node] = best_choice
        leaf_nodes = [bindings[name] for name in gate.leaf_names()]
        if mode == "area":
            internal = [leaf for leaf in leaf_nodes
                        if leaf not in boundaries]
            best[node] = gate.area + sum(best[leaf] for leaf in internal)
            arrival[node] = gate.delay + max(
                [arrival[leaf] for leaf in leaf_nodes] or [0.0])
        else:
            arrival[node] = gate.delay + max(
                [arrival[leaf] for leaf in leaf_nodes] or [0.0])
            internal = [leaf for leaf in leaf_nodes
                        if leaf not in boundaries]
            best[node] = gate.area + sum(best[leaf] for leaf in internal)

    # Emit gates: walk chosen covers from every boundary/root, depth
    # first in pre-order on an explicit stack (a deep netlist maps
    # one level per gate).
    emitted: Dict[int, MappedGate] = {}
    stack = list(reversed(graph.roots.values()))
    while stack:
        node = stack.pop()
        if node in emitted or graph.kinds[node] in (LEAF, CONST0, CONST1):
            continue
        gate, bindings = chosen[node]
        leaf_nodes = tuple(bindings[name] for name in gate.leaf_names())
        emitted[node] = MappedGate(gate, node, leaf_nodes)
        stack.extend(reversed(leaf_nodes))

    total_area = sum(mapped.gate.area for mapped in emitted.values())
    total_delay = max([arrival[root] for root in graph.roots.values()]
                      or [0.0])
    return MappingResult(total_area, total_delay, list(emitted.values()),
                         mode, arrival)
