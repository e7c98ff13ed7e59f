"""Bit-parallel signature simulation against per-vector evaluation."""

import random

import pytest

from repro.network.netlist import LogicNetwork
from repro.network.simulate import (combinational_signature, evaluate,
                                    exhaustive_signature)
from repro.sop.cover import Cover
from repro.sop.cube import Cube


def random_network(seed: int) -> LogicNetwork:
    """A random frame with latches, constant nodes and dangling nodes."""
    rng = random.Random(seed)
    net = LogicNetwork("rand%d" % seed)
    signals = []
    for index in range(rng.randint(1, 4)):
        net.add_input("i%d" % index)
        signals.append("i%d" % index)
    latches = []
    for index in range(rng.randint(0, 2)):
        latches.append("q%d" % index)
        signals.append("q%d" % index)
    for index in range(rng.randint(3, 9)):
        name = "n%d" % index
        if rng.random() < 0.15:
            fanins = []  # a constant node
        else:
            fanins = rng.sample(signals, rng.randint(1, min(3, len(signals))))
        cubes = [Cube([rng.choice((0, 1, 2)) for _ in fanins])
                 for _ in range(rng.randint(0, 3))]
        net.add_node(name, fanins, Cover(len(fanins), cubes))
        signals.append(name)
    nodes = list(net.nodes)
    # Some nodes stay dangling: only a few reach an output or a latch.
    for name in rng.sample(nodes, rng.randint(1, min(3, len(nodes)))):
        net.add_output(name)
    if rng.random() < 0.3:
        net.add_output(signals[0])  # a leaf wired straight out
    for latch in latches:
        net.add_latch(rng.choice(nodes), latch, init=rng.randint(0, 1))
    return net


def reference(net: LogicNetwork, vectors):
    roots = net.combinational_outputs()
    return [tuple(evaluate(net, vector)[name] for name in roots)
            for vector in vectors]


@pytest.mark.parametrize("seed", range(40))
def test_random_vectors_match_evaluate(seed):
    net = random_network(seed)
    rng = random.Random(1000 + seed)
    leaves = net.combinational_inputs()
    vectors = [{leaf: bool(rng.getrandbits(1)) for leaf in leaves}
               for _ in range(rng.randint(1, 70))]
    assert combinational_signature(net, vectors) == reference(net, vectors)


@pytest.mark.parametrize("seed", range(40))
def test_exhaustive_matches_evaluate(seed):
    net = random_network(seed)
    leaves = net.combinational_inputs()
    vectors = [{leaf: bool((value >> i) & 1)
                for i, leaf in enumerate(leaves)}
               for value in range(1 << len(leaves))]
    assert exhaustive_signature(net) == reference(net, vectors)


def test_no_vectors_gives_no_rows():
    assert combinational_signature(random_network(1), []) == []


def test_missing_leaf_raises_like_evaluate():
    net = random_network(3)
    leaves = net.combinational_inputs()
    full = {leaf: True for leaf in leaves}
    partial = dict(full)
    del partial[leaves[-1]]
    with pytest.raises(ValueError) as expected:
        evaluate(net, partial)
    with pytest.raises(ValueError) as got:
        combinational_signature(net, [full, partial])
    assert str(got.value) == str(expected.value)
