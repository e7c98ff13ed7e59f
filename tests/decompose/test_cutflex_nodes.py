"""Packed cut-flexibility mining against the BDD reference.

:func:`repro.decompose.cut_flexibility_table` must return ``(n, m,
table)`` with ``table`` exactly what ``pack_positions`` gives for
``cut_flexibility_relation(network, cut)``'s node in the solver's root
layout (leaf ``i`` on position ``n-1-i``, cut variable ``j`` on
``n+j``): on every window the resynthesis pipeline can build, 17- and
18-variable frames included, with the same degenerate relations and
the same :class:`CutError` messages.  A window is mined in place on its
host network; the tests carve its sub-network out themselves and hold
the in-place table to that copy's.
"""

import pytest

from repro.bdd.packed import MAX_FRAME_WIDTH, pack_positions
from repro.benchdata.circuits import CIRCUITS
from repro.decompose import (CutError, cut_flexibility_relation,
                             cut_flexibility_table)
from repro.network import LogicNetwork, parse_blif
from repro.resynth.window import CUT_POLICIES, enumerate_cuts, extract_window
from repro.sop import Cover

from .test_cutflex import reconvergent_and_network


def reference(network, cut):
    """The BDD path's relation, packed in the root layout."""
    relation, _ = cut_flexibility_relation(network, cut)
    n, m = len(relation.inputs), len(relation.outputs)
    position = {var: n - 1 - index
                for index, var in enumerate(relation.inputs)}
    position.update({var: n + index
                     for index, var in enumerate(relation.outputs)})
    (table,) = pack_positions(relation.mgr, [relation.node], position,
                              n + m)
    return n, m, table


def carve(network, window):
    """The window as a network of its own: its leaves are the inputs,
    copies of its nodes the nodes, its roots the outputs."""
    sub = LogicNetwork("win_%s" % window.cut[0])
    for leaf in window.leaves:
        sub.add_input(leaf)
    for name in window.nodes:
        node = network.nodes[name]
        sub.add_node(name, node.fanins, node.cover.copy())
    for root in window.roots:
        sub.add_output(root)
    return sub


@pytest.mark.parametrize("window", [8, 16])
@pytest.mark.parametrize("circuit", [spec.name for spec in CIRCUITS])
def test_every_window_matches_the_bdd_path(circuit, window):
    """Both cut policies at tfo_depth 0-2; window 16 reaches frames of
    17-18 variables (16 leaves plus a two-node cut)."""
    spec = next(spec for spec in CIRCUITS if spec.name == circuit)
    network = spec.build()
    for policy in CUT_POLICIES:
        for depth in range(3):
            for cut in enumerate_cuts(network, policy):
                win = extract_window(network, cut, max_leaves=window,
                                     tfo_depth=depth)
                if win is None:
                    continue
                sub = carve(network, win)
                assert cut_flexibility_table(network, cut, win) \
                    == cut_flexibility_table(sub, cut) \
                    == reference(sub, cut), (policy, depth, cut)


def test_wide_windows_are_exercised():
    """The window-16 sweep above does reach past 16 variables."""
    widths = set()
    for spec in CIRCUITS:
        network = spec.build()
        for cut in enumerate_cuts(network, "reconvergent"):
            win = extract_window(network, cut, max_leaves=16, tfo_depth=2)
            if win is not None:
                widths.add(len(win.leaves) + len(cut))
    assert max(widths) == MAX_FRAME_WIDTH


def test_whole_networks_match_the_bdd_path():
    """Not only windows: a sequential frame with latches, joint cuts
    and a member feeding another member."""
    net = parse_blif(".model seq\n.inputs a b\n.outputs o\n.latch n q 0\n"
                     ".names a q t\n11 1\n"
                     ".names t b n\n1- 1\n-1 1\n"
                     ".names q t o\n1- 1\n-0 1\n.end\n")
    for cut in (["t"], ["n"], ["t", "n"], ["n", "t"], ["q"], ["q", "t"]):
        assert cut_flexibility_table(net, cut) == reference(net, cut)


class TestDegenerateCuts:
    """The cases of ``test_cutflex.TestDegenerateCuts``, table for
    table."""

    def test_paper_and_gate(self):
        net = reconvergent_and_network()
        for cut in (["y1", "y2"], ["y2", "y1"], ["y1"], ["f"],
                    ["y1", "f"]):
            assert cut_flexibility_table(net, cut) == reference(net, cut)

    def test_leaf_member_is_pinned_to_the_identity(self):
        net = reconvergent_and_network()
        for cut in (["a"], ["a", "y1"], ["y2", "c"]):
            assert cut_flexibility_table(net, cut) == reference(net, cut)

    def test_constant_node_cut(self):
        net = LogicNetwork("const")
        net.add_input("a")
        net.add_node("k", [], Cover(0, []))
        net.add_node("f", ["a", "k"], Cover.from_strings(2, ["1-"]))
        net.add_output("f")
        assert cut_flexibility_table(net, ["k"]) == reference(net, ["k"])

    def test_all_constant_network(self):
        net = LogicNetwork("pure")
        net.add_node("one", [], Cover(0, [Cover.universe(0)[0]]))
        net.add_output("one")
        mined = cut_flexibility_table(net, ["one"])
        assert mined[:2] == (0, 1)
        assert mined == reference(net, ["one"])

    def test_single_fanout_window(self):
        net = LogicNetwork("chain1")
        net.add_input("a")
        net.add_input("b")
        net.add_node("g", ["a", "b"], Cover.from_strings(2, ["10"]))
        net.add_node("f", ["g"], Cover.from_strings(1, ["0"]))
        net.add_output("f")
        assert cut_flexibility_table(net, ["g"]) == reference(net, ["g"])

    def test_dangling_node_is_unconstrained(self):
        net = LogicNetwork("dangle")
        net.add_input("a")
        net.add_node("d", ["a"], Cover.from_strings(1, ["1"]))
        net.add_node("f", ["a"], Cover.from_strings(1, ["0"]))
        net.add_output("f")
        mined = cut_flexibility_table(net, ["d"])
        assert mined == (1, 1, 0b1111)  # the constant TRUE relation
        assert mined == reference(net, ["d"])

    def test_leaf_wired_to_an_output(self):
        net = LogicNetwork("wire")
        net.add_input("a")
        net.add_input("b")
        net.add_output("a")
        net.add_node("f", ["a", "b"], Cover.from_strings(2, ["11"]))
        net.add_output("f")
        assert cut_flexibility_table(net, ["a", "f"]) == \
            reference(net, ["a", "f"])


class TestCutErrors:
    @pytest.mark.parametrize("cut", [[], ["y1", "y1"], ["zz"]])
    def test_same_errors_as_the_bdd_path(self, cut):
        net = reconvergent_and_network()
        with pytest.raises(CutError) as expected:
            cut_flexibility_relation(net, cut)
        with pytest.raises(CutError) as got:
            cut_flexibility_table(net, cut)
        assert str(got.value) == str(expected.value)

    def test_frame_wider_than_the_table_helpers(self):
        net = LogicNetwork("wide")
        leaves = ["x%d" % index for index in range(MAX_FRAME_WIDTH)]
        for leaf in leaves:
            net.add_input(leaf)
        net.add_node("f", leaves[:2], Cover.from_strings(2, ["11"]))
        net.add_output("f")
        with pytest.raises(CutError, match="stops at %d" % MAX_FRAME_WIDTH):
            cut_flexibility_table(net, ["f"])
        # One variable narrower is mined.
        del net.inputs[-1]
        assert cut_flexibility_table(net, ["f"]) == reference(net, ["f"])
