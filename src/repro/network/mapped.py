"""Materialise a technology-mapping result as a gate-level LogicNetwork.

This closes the loop on the mapper: the emitted network instantiates one
node per chosen library gate (with the gate's Boolean function as its SOP
cover), preserves the original interface names, and can therefore be
simulated against the original network — the strongest correctness check
the mapper has.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..sop.cover import Cover
from ..sop.cube import Cube
from .library import Gate, Pattern
from .mapping import CONST0, CONST1, INV, LEAF, MappingResult, SubjectGraph, \
    build_subject_graph
from .netlist import LogicNetwork


def _pattern_value(pattern: Pattern, assignment: Dict[str, bool]) -> bool:
    """Evaluate a pattern tree under a leaf assignment."""
    if isinstance(pattern, str):
        return assignment[pattern]
    kind = pattern[0]
    if kind == INV:
        return not _pattern_value(pattern[1], assignment)
    if kind == "nand":
        return not (_pattern_value(pattern[1], assignment)
                    and _pattern_value(pattern[2], assignment))
    raise ValueError("unknown pattern kind %r" % kind)


def gate_cover(gate: Gate) -> Cover:
    """The gate's Boolean function as an SOP over its leaf order."""
    leaves = gate.leaf_names()
    cubes = []
    for value in range(1 << len(leaves)):
        assignment = {leaf: bool((value >> i) & 1)
                      for i, leaf in enumerate(leaves)}
        if _pattern_value(gate.pattern, assignment):
            cubes.append(Cube([(value >> i) & 1
                               for i in range(len(leaves))]))
    return Cover(len(leaves), cubes)


def mapping_to_network(network: LogicNetwork,
                       result: MappingResult) -> LogicNetwork:
    """Instantiate a mapping as a gate-level network.

    The returned network has the same primary inputs, outputs, and latches
    as ``network``; every internal node is one library-gate instance.
    ``result`` must come from :func:`repro.network.mapping.map_network`
    run on the *same* network (the subject graph is rebuilt here, which is
    deterministic).
    """
    graph = build_subject_graph(network)
    mapped = LogicNetwork(network.name + "_mapped")
    for name in network.inputs:
        mapped.add_input(name)
    for latch in network.latches:
        mapped.add_latch("__pending__", latch.output, latch.init)

    signal: Dict[int, str] = {}
    for node, kind in enumerate(graph.kinds):
        if kind == LEAF:
            signal[node] = graph.leaf_names[node]

    def ensure_const(node: int, value: bool) -> str:
        name = "const1" if value else "const0"
        if name not in mapped.nodes:
            cover = (Cover.universe(0) if value else Cover.empty(0))
            mapped.add_node(name, [], cover)
        return name

    by_output = {gate.output: gate for gate in result.gates}

    def emit(root: int) -> str:
        # Fanins before their gate, depth first and in order, on an
        # explicit stack: a deep netlist maps one level per gate.
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in signal:
                continue
            kind = graph.kinds[node]
            if kind in (CONST0, CONST1):
                signal[node] = ensure_const(node, kind == CONST1)
                continue
            mapped_gate = by_output.get(node)
            if mapped_gate is None:
                raise ValueError("subject node %d has no mapped gate "
                                 "(was the result produced for this "
                                 "network?)" % node)
            if expanded:
                signal[node] = "m%d" % node
                mapped.add_node(signal[node],
                                [signal[leaf] for leaf in mapped_gate.inputs],
                                gate_cover(mapped_gate.gate))
            else:
                stack.append((node, True))
                stack.extend((leaf, False)
                             for leaf in reversed(mapped_gate.inputs))
        return signal[root]

    # Interface: primary outputs keep their names through buffer nodes
    # when necessary; latch inputs are rewired to the mapped signals.
    for name in network.outputs:
        root_signal = emit(graph.roots[name])
        if root_signal == name:
            mapped.add_output(name)
            continue
        mapped.add_node(name, [root_signal], Cover.from_strings(1, ["1"]))
        mapped.add_output(name)
    for latch in mapped.latches:
        original = next(l for l in network.latches
                        if l.output == latch.output)
        latch.input = emit(graph.roots[original.input])
    mapped.validate()
    return mapped
