"""Network simulation: per-vector reference semantics, and the
bit-parallel evaluator that equivalence checks and window relations
run on."""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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


def signal_masks(network: LogicNetwork, leaf_masks: Sequence[int],
                 count: int, pinned: Optional[Mapping[str, int]] = None,
                 order: Optional[Sequence[str]] = None) -> Dict[str, int]:
    """Simulate ``count`` vectors at once, one int bit per vector.

    ``leaf_masks[i]`` carries leaf ``i``'s value in every vector.  A
    cube is the AND of its fanin masks or their complements and a cover
    the OR of its cubes, so one pass in topological order evaluates the
    whole batch.  ``pinned`` maps signals (leaves or nodes) to masks
    that stand in for their own values.  ``order`` lists the nodes to
    evaluate, each after its fanins unless they are leaves or pinned: a
    topological order of ``network`` (computed when not given) or of a
    part of it, such as a resynthesis window.  Returns the mask of every
    signal it set, leaves included.
    """
    full = (1 << count) - 1
    values = dict(zip(network.combinational_inputs(), leaf_masks)) \
        if leaf_masks else {}
    if pinned:
        values.update(pinned)
    if order is None:
        order = network.topological_order()
    nodes = network.nodes
    for name in order:
        if pinned and name in pinned:
            continue
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
    return values


def output_masks(network: LogicNetwork, leaf_masks: Sequence[int],
                 count: int) -> List[int]:
    """The mask of every frame output, in :meth:`combinational_outputs`
    order: two networks over the same leaves agree on ``count``
    vectors exactly when their output masks are equal."""
    values = signal_masks(network, leaf_masks, count)
    return [values[name] for name in network.combinational_outputs()]


#: Draws :func:`random_leaf_masks` takes from the generator at once;
#: a chunk's temporaries take about 10 bytes per draw.
DRAWS_PER_CHUNK = 1 << 18

#: Byte ``b`` -> ASCII ``1`` when its top bit is set, else ``0``.
_TOP_BIT = bytes(0x30 + (byte >> 7) for byte in range(256))


def random_leaf_masks(rng: random.Random, width: int,
                      count: int) -> List[int]:
    """``count`` seeded random vectors over ``width`` leaves as leaf
    masks.  Vector ``v`` draws one ``rng.getrandbits(1)`` per leaf, in
    leaf order, into bit ``v`` of that leaf's mask: the draws of
    ``[{leaf: bool(rng.getrandbits(1)) for leaf in leaves} for _ in
    range(count)]``, and the generator ends in the state they leave.

    The draws are taken in bulk, with the same bits.
    ``getrandbits(1)`` is bit 31 of one 32-bit Mersenne Twister output,
    and ``getrandbits(32 * k)`` is ``k`` such outputs in the order ``k``
    single calls take them, least significant word first.  So the top
    bit of every fourth byte of its little-endian bytes is one draw.
    Vectors are drawn in order, in chunks of whole bytes of every mask
    and at most :data:`DRAWS_PER_CHUNK` draws (or 8 vectors, when 8
    take more), so the temporaries stay bounded however many vectors
    are asked for, and each chunk only appends to the masks' bytes.
    """
    columns = [bytearray() for _ in range(width)]
    per_chunk = max(8, DRAWS_PER_CHUNK // max(width, 1) // 8 * 8)
    for start in range(0, count, per_chunk):
        vectors = min(per_chunk, count - start)
        draws = vectors * width
        # One ASCII digit per draw, the last draw first: for leaf
        # ``position`` every ``width``-th digit, last vector first,
        # which is that leaf's chunk of mask bits read as binary.
        digits = rng.getrandbits(32 * draws).to_bytes(
            4 * draws, "little")[3::4].translate(_TOP_BIT)[::-1]
        for position, column in enumerate(columns):
            column += int(digits[width - 1 - position::width], 2) \
                .to_bytes((vectors + 7) // 8, "little")
    return [int.from_bytes(column, "little") for column in columns]


def _signature_rows(masks: Sequence[int],
                    count: int) -> List[Tuple[bool, ...]]:
    """Output masks as one row of output values per vector."""
    columns = [format(mask, "0%db" % count)[::-1] for mask in masks]
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
    return _signature_rows(output_masks(network, masks, len(vectors)),
                           len(vectors))


def exhaustive_outputs(network: LogicNetwork) -> List[int]:
    """:func:`output_masks` over all leaf assignments (small frames
    only); vector ``v`` assigns leaf ``i`` bit ``i`` of ``v``."""
    leaves = network.combinational_inputs()
    if len(leaves) > 16:
        raise ValueError("exhaustive simulation limited to 16 leaves")
    count = 1 << len(leaves)
    full = (1 << count) - 1
    # Leaf i is set in every vector whose bit i is set: blocks of 2^i
    # zeros then 2^i ones, the classic truth-table variable pattern.
    masks = [full // ((1 << (1 << i)) + 1) << (1 << i)
             for i in range(len(leaves))]
    return output_masks(network, masks, count)


def exhaustive_signature(network: LogicNetwork) -> List[Tuple[bool, ...]]:
    """Frame outputs over all leaf assignments (small frames only).

    Vector ``v`` assigns leaf ``i`` bit ``i`` of ``v``.
    """
    return _signature_rows(exhaustive_outputs(network),
                           1 << len(network.combinational_inputs()))
