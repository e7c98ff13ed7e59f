"""Sequential benchmark circuits for the Table 3 decomposition flow.

``s27`` is the genuine ISCAS'89 netlist (it is tiny and universally
reproduced in the literature).  The remaining entries are deterministic
synthetic circuits matched to the published PI/PO/FF counts of their
ISCAS'89 namesakes, with gate counts scaled down to pure-Python scale and
next-state cone supports bounded by construction (real ISCAS next-state
logic is similarly local) — see README, "Benchmark substitutions".
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..core.explore import lookup_name
from ..network.blif import parse_blif
from ..network.netlist import LogicNetwork
from ..sop.cover import Cover
from ..sop.cube import Cube

#: The genuine ISCAS'89 s27 netlist.
S27_BLIF = """
.model s27
.inputs G0 G1 G2 G3
.outputs G17
.latch G10 G5 0
.latch G11 G6 0
.latch G13 G7 0
.names G0 G14
0 1
.names G11 G17
0 1
.names G14 G6 G8
11 1
.names G12 G8 G15
1- 1
-1 1
.names G3 G8 G16
1- 1
-1 1
.names G16 G15 G9
0- 1
-0 1
.names G14 G11 G10
00 1
.names G5 G9 G11
00 1
.names G1 G7 G12
00 1
.names G2 G12 G13
00 1
.end
"""


def _gate_cover(kind: str, arity: int) -> Cover:
    """Positional cover of a primitive gate."""
    if kind == "and":
        return Cover(arity, [Cube([1] * arity)])
    if kind == "nand":
        return Cover(arity, [Cube([2] * i + [0] + [2] * (arity - i - 1))
                             for i in range(arity)])
    if kind == "or":
        return Cover(arity, [Cube([2] * i + [1] + [2] * (arity - i - 1))
                             for i in range(arity)])
    if kind == "nor":
        return Cover(arity, [Cube([0] * arity)])
    if kind == "xor":
        cubes = []
        for value in range(1 << arity):
            if bin(value).count("1") % 2 == 1:
                cubes.append(Cube([(value >> i) & 1 for i in range(arity)]))
        return Cover(arity, cubes)
    if kind == "mux" and arity == 3:
        return Cover(3, [Cube([1, 2, 0]), Cube([2, 1, 1])])
    raise ValueError("unknown gate kind %r" % kind)


_GATE_KINDS = ["and", "or", "nand", "nor", "and", "or", "nand", "nor",
               "xor", "mux"]


def synthetic_circuit(name: str, num_inputs: int, num_outputs: int,
                      num_latches: int, num_gates: int,
                      seed: Optional[int] = None,
                      max_cone_support: int = 8) -> LogicNetwork:
    """A seeded random sequential circuit with bounded cone supports.

    Every internal signal's leaf support is tracked during construction
    and fanin choices that would exceed ``max_cone_support`` are rejected,
    which keeps the collapsed next-state functions BR-solvable (and
    mirrors the locality of real ISCAS'89 next-state logic).
    """
    if seed is None:
        seed = zlib.crc32(name.encode("ascii"))
    rng = random.Random(seed)
    network = LogicNetwork(name)
    for index in range(num_inputs):
        network.add_input("pi%d" % index)
    states = []
    for index in range(num_latches):
        states.append("st%d" % index)
    leaves = list(network.inputs) + states

    support: Dict[str, Set[str]] = {leaf: {leaf} for leaf in leaves}
    signals: List[str] = list(leaves)
    gate_outputs: List[str] = []

    for index in range(num_gates):
        kind = rng.choice(_GATE_KINDS)
        arity = 3 if kind == "mux" else rng.choice([2, 2, 2, 3])
        fanins: List[str] = []
        merged: Set[str] = set()
        # Prefer recent signals (depth) but fall back to any that keep the
        # support bounded.
        candidates = signals[-16:] + signals
        for candidate in rng.sample(candidates, len(candidates)):
            if candidate in fanins:
                continue
            widened = merged | support[candidate]
            if len(widened) > max_cone_support:
                continue
            fanins.append(candidate)
            merged = widened
            if len(fanins) == arity:
                break
        if len(fanins) < 2:
            continue
        arity = len(fanins)
        if kind == "mux" and arity != 3:
            kind = "and"
        gate_name = "g%d" % index
        network.add_node(gate_name, fanins, _gate_cover(kind, arity))
        support[gate_name] = merged
        signals.append(gate_name)
        gate_outputs.append(gate_name)

    if not gate_outputs:
        raise ValueError("circuit generation produced no gates")

    def pick_deep_gate() -> str:
        if len(gate_outputs) > 1:
            return gate_outputs[rng.randrange(len(gate_outputs) // 2,
                                              len(gate_outputs))]
        return gate_outputs[0]

    # Next-state functions.  Real ISCAS'89 registers are frequently
    # load-enable style (hold the state unless a condition fires); these
    # hold-muxes are exactly what the Section 10.2 flow absorbs into the
    # flip-flop, so the generator reproduces that structure with
    # probability ~0.6.
    for index in range(num_latches):
        state = states[index]
        if rng.random() < 0.6:
            data = pick_deep_gate()
            condition = pick_deep_gate()
            merged = (support[state] | support[data]
                      | support[condition])
            if len(merged) <= max_cone_support:
                hold_name = "ns%d" % index
                network.add_node(hold_name, [state, data, condition],
                                 _gate_cover("mux", 3))
                support[hold_name] = merged
                network.add_latch(hold_name, state, init=rng.randint(0, 1))
                continue
        network.add_latch(pick_deep_gate(), state, init=rng.randint(0, 1))

    # Primary outputs: distinct gates where possible.
    pool = list(gate_outputs)
    rng.shuffle(pool)
    for index in range(num_outputs):
        source = pool[index % len(pool)]
        network.add_output(source)

    network.validate()
    return network


@dataclass(frozen=True)
class CircuitSpec:
    """One Table 3 circuit: ISCAS'89-style interface statistics."""

    name: str
    num_inputs: int
    num_outputs: int
    num_latches: int
    num_gates: int

    def build(self) -> LogicNetwork:
        if self.name == "s27":
            return parse_blif(S27_BLIF)
        return synthetic_circuit(self.name, self.num_inputs,
                                 self.num_outputs, self.num_latches,
                                 self.num_gates)


#: Table 3 circuit list; PI/PO/FF follow the ISCAS'89 namesakes, gate
#: counts are scaled to pure-Python runtimes (README, "Benchmark
#: substitutions").
CIRCUITS: List[CircuitSpec] = [
    CircuitSpec("s27", 4, 1, 3, 10),
    CircuitSpec("s208", 10, 1, 8, 32),
    CircuitSpec("s298", 3, 6, 14, 40),
    CircuitSpec("s344", 9, 11, 15, 46),
    CircuitSpec("s349", 9, 11, 15, 47),
    CircuitSpec("s382", 3, 6, 21, 48),
    CircuitSpec("s386", 7, 7, 6, 42),
    CircuitSpec("s400", 3, 6, 21, 50),
    CircuitSpec("s420", 18, 1, 16, 52),
    CircuitSpec("s444", 3, 6, 21, 52),
    CircuitSpec("s510", 19, 7, 6, 54),
    CircuitSpec("s526", 3, 6, 21, 56),
    CircuitSpec("s641", 35, 24, 19, 60),
    CircuitSpec("s713", 35, 23, 19, 62),
    CircuitSpec("s820", 18, 19, 5, 58),
    CircuitSpec("s832", 18, 19, 5, 60),
    CircuitSpec("s953", 16, 23, 29, 66),
    CircuitSpec("s1196", 14, 14, 18, 70),
    CircuitSpec("s1238", 14, 14, 18, 72),
    CircuitSpec("s1488", 8, 19, 6, 74),
    CircuitSpec("s1494", 8, 19, 6, 76),
    CircuitSpec("sbc", 40, 56, 27, 80),
]


def circuit_by_name(name: str) -> CircuitSpec:
    return lookup_name({spec.name: spec for spec in CIRCUITS}, name,
                       "unknown circuit %r")


def build_circuits(names: Sequence[str] = ()) -> Dict[str, LogicNetwork]:
    """Build all (or the named subset of) benchmark circuits."""
    specs = CIRCUITS if not names else [circuit_by_name(n) for n in names]
    return {spec.name: spec.build() for spec in specs}
