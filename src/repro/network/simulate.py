"""Network simulation (reference semantics for the transform tests)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..sop.cube import ONE, ZERO
from .netlist import LogicNetwork


def evaluate(network: LogicNetwork,
             assignment: Dict[str, bool]) -> Dict[str, bool]:
    """Evaluate every signal of the combinational frame.

    ``assignment`` must bind every primary input and latch output.
    Returns a dict with the values of all signals (leaves included).
    """
    values = dict(assignment)
    for name in network.combinational_inputs():
        if name not in values:
            raise ValueError("missing value for leaf %r" % name)
    for name in network.topological_order():
        node = network.nodes[name]
        point = 0
        for position, fanin in enumerate(node.fanins):
            if values[fanin]:
                point |= 1 << position
        values[name] = node.cover.covers_point(point)
    return values


def simulate_step(network: LogicNetwork, inputs: Dict[str, bool],
                  state: Dict[str, bool]
                  ) -> Tuple[Dict[str, bool], Dict[str, bool]]:
    """One clock cycle: returns (primary outputs, next state).

    ``state`` maps latch *output* names to their current values.
    """
    assignment = dict(inputs)
    assignment.update(state)
    values = evaluate(network, assignment)
    outputs = {name: values[name] for name in network.outputs}
    next_state = {latch.output: values[latch.input]
                  for latch in network.latches}
    return outputs, next_state


def initial_state(network: LogicNetwork) -> Dict[str, bool]:
    """The latch init values as a state dict."""
    return {latch.output: bool(latch.init) for latch in network.latches}


def _signature_from_masks(network: LogicNetwork, leaf_masks: List[int],
                          count: int) -> List[Tuple[bool, ...]]:
    """Simulate ``count`` vectors at once, one int bit per vector.

    ``leaf_masks[i]`` carries leaf ``i``'s value in every vector.  A
    cube is the AND of its fanin masks or their complements and a cover
    the OR of its cubes, so one pass in topological order evaluates the
    whole batch; the result has :func:`combinational_signature`'s shape.
    """
    full = (1 << count) - 1
    values = dict(zip(network.combinational_inputs(), leaf_masks))
    nodes = network.nodes
    for name in network.topological_order():
        node = nodes[name]
        fanins = [values[fanin] for fanin in node.fanins]
        total = 0
        for cube in node.cover.cubes:
            term = full
            for mask, value in zip(fanins, cube.values):
                if value == ONE:
                    term &= mask
                elif value == ZERO:
                    term &= ~mask
            total |= term
        values[name] = total
    columns = [format(values[name], "0%db" % count)[::-1]
               for name in network.combinational_outputs()]
    return [tuple(bit == "1" for bit in row) for row in zip(*columns)]


def combinational_signature(network: LogicNetwork,
                            vectors: Sequence[Dict[str, bool]]
                            ) -> List[Tuple[bool, ...]]:
    """Frame outputs for a list of leaf assignments (equivalence checks).

    Bit-parallel: equal to calling :func:`evaluate` on every vector,
    including the ``ValueError`` for a vector missing a leaf.
    """
    if not vectors:
        return []
    leaves = network.combinational_inputs()
    masks = [0] * len(leaves)
    for index, vector in enumerate(vectors):
        bit = 1 << index
        for position, leaf in enumerate(leaves):
            if leaf not in vector:
                raise ValueError("missing value for leaf %r" % leaf)
            if vector[leaf]:
                masks[position] |= bit
    return _signature_from_masks(network, masks, len(vectors))


def exhaustive_signature(network: LogicNetwork) -> List[Tuple[bool, ...]]:
    """Frame outputs over all leaf assignments (small frames only).

    Vector ``v`` assigns leaf ``i`` bit ``i`` of ``v``.
    """
    leaves = network.combinational_inputs()
    if len(leaves) > 16:
        raise ValueError("exhaustive simulation limited to 16 leaves")
    count = 1 << len(leaves)
    full = (1 << count) - 1
    # Leaf i is set in every vector whose bit i is set: blocks of 2^i
    # zeros then 2^i ones, the classic truth-table variable pattern.
    masks = [full // ((1 << (1 << i)) + 1) << (1 << i)
             for i in range(len(leaves))]
    return _signature_from_masks(network, masks, count)
