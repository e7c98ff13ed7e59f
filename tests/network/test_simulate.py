"""Bit-parallel signature simulation against per-vector evaluation."""

import hashlib
import random

import pytest

from repro.network.netlist import LogicNetwork
from repro.network.simulate import (DRAWS_PER_CHUNK,
                                    combinational_signature, evaluate,
                                    exhaustive_outputs,
                                    exhaustive_signature, output_masks,
                                    random_leaf_masks, signal_masks)
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


def rows(masks, count):
    return [tuple(bool(mask >> vector & 1) for mask in masks)
            for vector in range(count)]


def test_random_networks_include_latches():
    assert any(random_network(seed).latches for seed in range(20))


@pytest.mark.parametrize("seed", range(20))
def test_drawn_masks_are_the_dict_vectors(seed):
    """``random_leaf_masks`` draws what the per-vector dicts drew, so a
    check on output masks sees the same vectors as one on signatures."""
    net = random_network(seed)
    leaves = net.combinational_inputs()
    count = random.Random(seed).randint(1, 300)
    rng = random.Random(2000 + seed)
    vectors = [{leaf: bool(rng.getrandbits(1)) for leaf in leaves}
               for _ in range(count)]
    masks = random_leaf_masks(random.Random(2000 + seed), len(leaves),
                              count)
    assert [{leaf: bool(masks[position] >> vector & 1)
             for position, leaf in enumerate(leaves)}
            for vector in range(count)] == vectors
    assert rows(output_masks(net, masks, count), count) == \
        combinational_signature(net, vectors)


def per_bit_masks(rng, width, count):
    """The draw ``random_leaf_masks`` replaced: one ``getrandbits(1)``
    per leaf per vector."""
    masks = [0] * width
    for index in range(count):
        for position in range(width):
            if rng.getrandbits(1):
                masks[position] |= 1 << index
    return masks


def assert_drawn_as_per_bit(seed, width, count):
    """The bulk draw gives the per-bit masks and leaves the generator
    where the per-bit loop leaves it."""
    bulk, loop = random.Random(seed), random.Random(seed)
    assert random_leaf_masks(bulk, width, count) == \
        per_bit_masks(loop, width, count)
    assert bulk.getrandbits(64) == loop.getrandbits(64)


@pytest.mark.parametrize("count", [0, 1, 255, 256, 65536])
@pytest.mark.parametrize("width", [0, 1, 2, 29, 40])
def test_bulk_draw_is_the_per_bit_draw(width, count):
    assert_drawn_as_per_bit(width * 65537 + count, width, count)


@pytest.mark.parametrize("width, count", [
    (3, DRAWS_PER_CHUNK // 3 + 9),   # one chunk and 9 vectors
    (DRAWS_PER_CHUNK // 8 + 5, 19),  # 8-vector chunks of wide vectors
])
def test_bulk_draw_crosses_chunks_as_the_per_bit_draw(width, count):
    assert width * count > DRAWS_PER_CHUNK
    assert_drawn_as_per_bit(17, width, count)


#: SHA-256 of ``random_leaf_masks(random.Random(seed), width, count)``,
#: the masks as comma-joined hex, as the per-bit draw gave them.  A
#: Python whose ``getrandbits`` fills its words in another order fails
#: here by name.
PINNED_MASKS = {
    (0, 29, 256):
        "87f94a00fa242eee6bcc0435242bd113bed7ceda2066e2dae0b147f182cf9e45",
    (3, 40, 1000):
        "f08b875aae646dcafd316eee06b980a5ca297db50f69592f9bce9889417a89c8",
    (7, 5, 65536):
        "3e0c1ff405d70179cb2b308ffee5ce116412907aa8098f813a44fd59b435fa4b",
    (11, 300, 700):
        "ab06e6c883122aec5224ef974711eeb8ff4db2f61b8801d9bba6c929f1213f48",
    (2024, 1, 3):
        "4b227777d4dd1fc61c6f884f48641d02b4d121d3fd328cb08b5531fcacdabf8a",
}


@pytest.mark.parametrize("seed, width, count", sorted(PINNED_MASKS))
def test_drawn_masks_are_pinned(seed, width, count):
    masks = random_leaf_masks(random.Random(seed), width, count)
    digest = hashlib.sha256(
        ",".join("%x" % mask for mask in masks).encode()).hexdigest()
    assert digest == PINNED_MASKS[seed, width, count]


@pytest.mark.parametrize("seed", range(20))
def test_exhaustive_outputs_are_the_signature_columns(seed):
    net = random_network(seed)
    count = 1 << len(net.combinational_inputs())
    assert rows(exhaustive_outputs(net), count) == exhaustive_signature(net)


@pytest.mark.parametrize("seed", range(20))
def test_pinned_signal_behaves_as_a_free_leaf(seed):
    """Pinning a node to a mask equals cutting it out as a new leaf."""
    net = random_network(seed)
    rng = random.Random(3000 + seed)
    name = rng.choice(sorted(net.nodes))
    freed = net.copy()
    freed.remove_node(name)
    freed.inputs.append(name)
    count = 64
    masks = [rng.getrandbits(count) for _ in net.combinational_inputs()]
    pin = rng.getrandbits(count)
    pinned = signal_masks(net, masks, count, pinned={name: pin})
    # freed's leaves: the primary inputs, the new leaf, then the latches.
    inputs = len(net.inputs)
    expected = signal_masks(freed, masks[:inputs] + [pin] + masks[inputs:],
                            count)
    assert pinned == expected
