"""Tests for windowed cut extraction (repro.resynth.window)."""

import pytest

from repro.decompose import cut_flexibility_table
from repro.network import LogicNetwork
from repro.resynth import (CUT_POLICIES, MAX_WINDOW_LEAVES,
                           enumerate_cuts, extract_window, load_circuit)
from repro.sop import Cover

from ..decompose.test_cutflex_nodes import carve


def chain_network():
    """a -> g1 -> g2 -> g3 -> out, with side input per stage."""
    net = LogicNetwork("chain")
    for name in ("a", "b", "c", "d"):
        net.add_input(name)
    net.add_node("g1", ["a", "b"], Cover.from_strings(2, ["11"]))
    net.add_node("g2", ["g1", "c"], Cover.from_strings(2, ["1-", "-1"]))
    net.add_node("g3", ["g2", "d"], Cover.from_strings(2, ["11"]))
    net.add_output("g3")
    return net


class TestExtractWindow:
    def test_depth_zero_window_is_the_cut(self):
        net = chain_network()
        window = extract_window(net, ["g2"], max_leaves=8, tfo_depth=0)
        assert window.nodes == ("g2",)
        assert window.leaves == ("g1", "c")
        assert window.roots == ("g2",)

    def test_depth_one_includes_the_reader(self):
        net = chain_network()
        window = extract_window(net, ["g2"], max_leaves=8, tfo_depth=1)
        assert set(window.nodes) == {"g2", "g3"}
        assert set(window.leaves) == {"g1", "c", "d"}
        # g2 is fully consumed inside the window; only g3 escapes.
        assert window.roots == ("g3",)

    def test_internal_member_read_outside_is_a_root(self):
        net = chain_network()
        net.add_output("g2")  # now observable even when windowed over
        window = extract_window(net, ["g2"], max_leaves=8, tfo_depth=1)
        assert set(window.roots) == {"g2", "g3"}

    def test_depth_backs_off_when_boundary_overflows(self):
        net = chain_network()
        # At depth 1 the boundary is {g1, c, d} — cap it to 2 so the
        # extractor must fall back to depth 0 ({g1, c}).
        window = extract_window(net, ["g2"], max_leaves=2, tfo_depth=1)
        assert window.nodes == ("g2",)
        assert window.leaves == ("g1", "c")

    def test_unwindowable_cut_returns_none(self):
        net = chain_network()
        assert extract_window(net, ["g2"], max_leaves=1) is None

    def test_primary_input_cut_returns_none(self):
        net = chain_network()
        assert extract_window(net, ["a"]) is None

    def test_cap_enforced(self):
        net = chain_network()
        with pytest.raises(ValueError):
            extract_window(net, ["g2"],
                           max_leaves=MAX_WINDOW_LEAVES + 1)

    def test_window_is_a_view_of_the_host(self):
        net = chain_network()
        window = extract_window(net, ["g2"], max_leaves=8, tfo_depth=1)
        # Nothing is copied: the window names host signals, its nodes
        # in host topological order, and mining it in place gives the
        # table of the sub-network it names.
        assert not hasattr(window, "network")
        order = net.topological_order()
        assert list(window.nodes) == [name for name in order
                                      if name in window.nodes]
        assert cut_flexibility_table(net, ["g2"], window) == \
            cut_flexibility_table(carve(net, window), ["g2"])


class TestEnumerateCuts:
    def test_nodes_policy_is_every_internal_node(self):
        net = chain_network()
        cuts = enumerate_cuts(net, "nodes")
        assert cuts == [("g1",), ("g2",), ("g3",)]

    def test_reconvergent_policy_pairs_internal_fanins(self):
        net = LogicNetwork("reconv")
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_node("y1", ["a", "b"], Cover.from_strings(2, ["11"]))
        net.add_node("y2", ["a", "c"], Cover.from_strings(2, ["1-", "-1"]))
        net.add_node("f", ["y1", "y2"], Cover.from_strings(2, ["11"]))
        net.add_output("f")
        assert enumerate_cuts(net, "reconvergent") == [("y1", "y2")]

    def test_max_cuts_truncates(self):
        net = chain_network()
        assert len(enumerate_cuts(net, "nodes", max_cuts=2)) == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cuts(chain_network(), "magic")

    def test_policies_constant_is_exhaustive(self):
        for policy in CUT_POLICIES:
            assert enumerate_cuts(chain_network(), policy) is not None


class TestOnePassIndex:
    """Fanouts, topological positions and outputs computed once per
    pass give the windows and cuts each call computes for itself."""

    @staticmethod
    def pass_index(net):
        order = net.topological_order()
        return order, {"fanouts": net.fanouts(),
                       "position": {name: index
                                    for index, name in enumerate(order)},
                       "outputs": set(net.combinational_outputs())}

    @staticmethod
    def shape(window):
        return None if window is None else \
            (window.nodes, window.leaves, window.roots)

    @pytest.mark.parametrize("circuit", ["s27", "s298", "s1488"])
    def test_precomputed_index_changes_nothing(self, circuit):
        net = load_circuit(circuit)
        order, index = self.pass_index(net)
        for policy in CUT_POLICIES:
            cuts = enumerate_cuts(net, policy)
            assert enumerate_cuts(net, policy, order=order) == cuts
            for cut in cuts:
                for depth in range(3):
                    own = extract_window(net, cut, max_leaves=8,
                                         tfo_depth=depth)
                    given = extract_window(net, cut, max_leaves=8,
                                           tfo_depth=depth, **index)
                    assert self.shape(given) == self.shape(own)

    def test_precomputed_index_skips_the_network_walk(self, monkeypatch):
        net = load_circuit("s298")
        order, index = self.pass_index(net)

        def walk():
            raise AssertionError("topological_order recomputed")

        monkeypatch.setattr(net, "topological_order", walk)
        for cut in enumerate_cuts(net, "nodes", order=order):
            extract_window(net, cut, max_leaves=8, tfo_depth=2, **index)
