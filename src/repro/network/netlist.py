"""Multi-level logic networks with SOP node functions and latches.

The reproduction's stand-in for the SIS [31] network data structure: a DAG
of single-output nodes, each carrying a sum-of-products local function over
its fanins, plus D-latches separating the combinational frame from the
sequential behaviour.  Latch outputs behave like primary inputs of the
combinational frame; latch inputs like primary outputs (the next-state
functions the Section 10.2 decomposition flow operates on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..sop.cover import Cover
from ..sop.cube import DASH, Cube


@dataclass
class Node:
    """One combinational node: ``name = cover(fanins)``."""

    name: str
    fanins: List[str]
    cover: Cover

    def __post_init__(self) -> None:
        if self.cover.width != len(self.fanins):
            raise ValueError("cover width %d != fanin count %d for %r"
                             % (self.cover.width, len(self.fanins),
                                self.name))

    def literal_count(self) -> int:
        return self.cover.literal_count()

    def is_buffer(self) -> bool:
        """True for ``f = a`` (single positive-literal cube)."""
        return (len(self.fanins) == 1 and self.cover.cube_count() == 1
                and self.cover.cubes[0].values == (1,))

    def is_inverter(self) -> bool:
        """True for ``f = a'``."""
        return (len(self.fanins) == 1 and self.cover.cube_count() == 1
                and self.cover.cubes[0].values == (0,))


@dataclass
class Latch:
    """A D-latch: ``output`` takes the value of ``input`` next cycle.

    ``trigger``/``clock`` carry the optional BLIF ``<type> <control>``
    pair (``fe``/``re``/``ah``/``al``/``as`` + a control signal) so
    parse/write round-trips preserve them; the combinational frame
    semantics ignore both.  ``init`` accepts the four BLIF values
    (0, 1, 2 = don't care, 3 = unknown).
    """

    input: str
    output: str
    init: int = 0
    trigger: Optional[str] = None
    clock: Optional[str] = None


class LogicNetwork:
    """A named multi-level network (combinational nodes + latches)."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.nodes: Dict[str, Node] = {}
        self.latches: List[Latch] = []
        #: The frame's leaf names (inputs and latch outputs), kept by
        #: :meth:`add_input`, :meth:`add_latch` and :meth:`copy` so
        #: that naming checks take constant time.
        self._leaves: Set[str] = set()
        #: The names in :attr:`outputs`, kept by :meth:`add_output`,
        #: :meth:`copy` and every other writer of :attr:`outputs`, so
        #: that the duplicate check takes constant time.
        self._output_set: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        self._check_fresh(name)
        self.inputs.append(name)
        self._leaves.add(name)

    def add_output(self, name: str) -> None:
        if name in self._output_set:
            raise ValueError("duplicate output %r" % name)
        self.outputs.append(name)
        self._output_set.add(name)

    def add_node(self, name: str, fanins: Sequence[str],
                 cover: Cover) -> Node:
        self._check_fresh(name)
        node = Node(name, list(fanins), cover)
        self.nodes[name] = node
        return node

    def add_latch(self, input_name: str, output_name: str,
                  init: int = 0, *, trigger: Optional[str] = None,
                  clock: Optional[str] = None) -> Latch:
        self._check_fresh(output_name)
        latch = Latch(input_name, output_name, init, trigger, clock)
        self.latches.append(latch)
        self._leaves.add(output_name)
        return latch

    def _check_fresh(self, name: str) -> None:
        if name in self.nodes or name in self._leaves:
            raise ValueError("signal %r already defined" % name)

    def fresh_name(self, prefix: str = "n") -> str:
        """A signal name not yet used anywhere in the network."""
        index = len(self.nodes)
        while True:
            candidate = "%s%d" % (prefix, index)
            try:
                self._check_fresh(candidate)
                return candidate
            except ValueError:
                index += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def combinational_inputs(self) -> List[str]:
        """Primary inputs plus latch outputs (the frame's leaves)."""
        return list(self.inputs) + [latch.output for latch in self.latches]

    def combinational_outputs(self) -> List[str]:
        """Primary outputs plus latch inputs (the frame's roots)."""
        return list(self.outputs) + [latch.input for latch in self.latches]

    def is_leaf(self, name: str) -> bool:
        return name in self._leaves

    def fanouts(self) -> Dict[str, List[str]]:
        """Map each signal to the node names that read it."""
        result: Dict[str, List[str]] = {}
        for node in self.nodes.values():
            for fanin in node.fanins:
                result.setdefault(fanin, []).append(node.name)
        return result

    def literal_count(self) -> int:
        """Total SOP literals (the SIS cost metric of Table 2's ALG)."""
        return sum(node.literal_count() for node in self.nodes.values())

    def node_count(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Structure checks
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Node names sorted leaves-to-roots; raises on cycles.

        A depth-first walk from the outputs, then from every node (so
        dangling ones are listed too), fanins in order.  It runs on an
        explicit stack, so a netlist of any depth is sorted.
        """
        nodes = self.nodes
        state: Dict[str, int] = {}  # 1: on the stack, 2: listed
        order: List[str] = []
        leaves = set(self.combinational_inputs())

        def enter(name: str) -> bool:
            """Whether ``name`` is a node still to be walked."""
            if name not in nodes:
                if name not in leaves:
                    raise ValueError("undefined signal %r" % name)
                return False
            mark = state.get(name, 0)
            if mark == 1:
                raise ValueError("combinational cycle through %r" % name)
            if mark == 2:
                return False
            state[name] = 1
            return True

        for start in self.combinational_outputs() + list(nodes):
            if not enter(start):
                continue
            stack = [(start, iter(nodes[start].fanins))]
            while stack:
                name, fanins = stack[-1]
                for fanin in fanins:
                    if enter(fanin):
                        stack.append((fanin, iter(nodes[fanin].fanins)))
                        break
                else:
                    stack.pop()
                    state[name] = 2
                    order.append(name)
        return order

    def validate(self) -> None:
        """Raise on undefined signals, cycles, or missing outputs."""
        self.topological_order()
        for name in self.combinational_outputs():
            if name not in self.nodes and not self.is_leaf(name):
                raise ValueError("output %r is undefined" % name)

    # ------------------------------------------------------------------
    # Copy / surgery
    # ------------------------------------------------------------------
    def copy(self) -> "LogicNetwork":
        clone = LogicNetwork(self.name)
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        clone.latches = [Latch(l.input, l.output, l.init, l.trigger,
                               l.clock)
                         for l in self.latches]
        clone._leaves = set(self._leaves)
        clone._output_set = set(self._output_set)
        for node in self.nodes.values():
            clone.nodes[node.name] = Node(node.name, list(node.fanins),
                                          node.cover.copy())
        return clone

    def remove_node(self, name: str) -> None:
        del self.nodes[name]

    def sweep_dangling(self) -> int:
        """Drop nodes not reachable from any output; returns removal count."""
        reachable: Set[str] = set()
        stack = [name for name in self.combinational_outputs()]
        while stack:
            name = stack.pop()
            if name in reachable or name not in self.nodes:
                continue
            reachable.add(name)
            stack.extend(self.nodes[name].fanins)
        removed = [name for name in self.nodes if name not in reachable]
        for name in removed:
            del self.nodes[name]
        return len(removed)
