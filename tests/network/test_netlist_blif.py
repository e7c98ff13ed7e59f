"""Tests for the network data structure and BLIF I/O."""

import time

import pytest

from repro.network import (BlifError, Latch, LogicNetwork, parse_blif,
                           write_blif)
from repro.network.simulate import (evaluate, exhaustive_signature,
                                    initial_state, simulate_step)
from repro.sop import Cover, Cube


def tiny_network() -> LogicNetwork:
    net = LogicNetwork("tiny")
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", ["a", "b"], Cover.from_strings(2, ["11"]))
    net.add_output("f")
    return net


class TestNetworkBasics:
    def test_duplicate_signal_rejected(self):
        net = tiny_network()
        with pytest.raises(ValueError):
            net.add_input("a")
        with pytest.raises(ValueError):
            net.add_node("f", ["a"], Cover.from_strings(1, ["1"]))

    def test_cover_width_checked(self):
        net = tiny_network()
        with pytest.raises(ValueError):
            net.add_node("g", ["a"], Cover.from_strings(2, ["11"]))

    def test_topological_order(self):
        net = tiny_network()
        net.add_node("g", ["f", "a"], Cover.from_strings(2, ["1-"]))
        net.add_output("g")
        order = net.topological_order()
        assert order.index("f") < order.index("g")

    def test_cycle_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("x", ["y"], Cover.from_strings(1, ["1"]))
        net.add_node("y", ["x"], Cover.from_strings(1, ["1"]))
        net.add_output("x")
        with pytest.raises(ValueError):
            net.topological_order()

    def test_undefined_signal_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("f", ["a", "ghost"], Cover.from_strings(2, ["11"]))
        net.add_output("f")
        with pytest.raises(ValueError):
            net.validate()

    def test_latches_are_leaves_and_roots(self):
        net = tiny_network()
        net.add_latch("f", "q")
        assert "q" in net.combinational_inputs()
        assert "f" in net.combinational_outputs()
        assert net.is_leaf("q")

    def test_literal_count(self):
        net = tiny_network()
        assert net.literal_count() == 2

    def test_fresh_name_avoids_collisions(self):
        net = tiny_network()
        name = net.fresh_name("f")
        assert name not in net.nodes
        assert name != "f"

    def test_copy_is_deep(self):
        net = tiny_network()
        clone = net.copy()
        clone.nodes["f"].fanins[0] = "b"
        assert net.nodes["f"].fanins[0] == "a"

    def test_sweep_dangling(self):
        net = tiny_network()
        net.add_node("dead", ["a"], Cover.from_strings(1, ["1"]))
        assert net.sweep_dangling() == 1
        assert "dead" not in net.nodes

    def test_latch_outputs_and_copies_keep_names_unique(self):
        net = tiny_network()
        net.add_latch("f", "q")
        for add in (lambda n: n.add_input("q"),
                    lambda n: n.add_latch("f", "a"),
                    lambda n: n.add_node("q", [], Cover(0, []))):
            with pytest.raises(ValueError, match="already defined"):
                add(net)
            with pytest.raises(ValueError, match="already defined"):
                add(net.copy())
        clone = net.copy()
        clone.add_input("c")
        assert clone.is_leaf("c") and not net.is_leaf("c")
        net.add_input("x1")  # fresh_name's first candidate
        assert net.fresh_name("x") == "x2"

    def test_node_classifiers(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("buf", ["a"], Cover.from_strings(1, ["1"]))
        net.add_node("inv", ["a"], Cover.from_strings(1, ["0"]))
        assert net.nodes["buf"].is_buffer()
        assert net.nodes["inv"].is_inverter()
        assert not net.nodes["inv"].is_buffer()


class TestSimulation:
    def test_evaluate_and_gate(self):
        net = tiny_network()
        values = evaluate(net, {"a": True, "b": True})
        assert values["f"] is True
        values = evaluate(net, {"a": True, "b": False})
        assert values["f"] is False

    def test_missing_leaf_rejected(self):
        net = tiny_network()
        with pytest.raises(ValueError):
            evaluate(net, {"a": True})

    def test_simulate_step_advances_state(self):
        net = LogicNetwork()
        net.add_input("d")
        net.add_node("nxt", ["d"], Cover.from_strings(1, ["1"]))
        net.add_latch("nxt", "q", init=0)
        net.add_node("out", ["q"], Cover.from_strings(1, ["1"]))
        net.add_output("out")
        state = initial_state(net)
        outputs, state = simulate_step(net, {"d": True}, state)
        assert outputs["out"] is False      # latch not yet updated
        outputs, state = simulate_step(net, {"d": False}, state)
        assert outputs["out"] is True       # previous d arrived

    def test_exhaustive_signature_guard(self):
        net = LogicNetwork()
        for index in range(17):
            net.add_input("i%d" % index)
        net.add_node("f", ["i0"], Cover.from_strings(1, ["1"]))
        net.add_output("f")
        with pytest.raises(ValueError):
            exhaustive_signature(net)


class TestBlif:
    def test_roundtrip(self):
        text = """
.model rt
.inputs a b c
.outputs f
.latch n q 1
.names a b n
11 1
.names q c f
1- 1
-1 1
.end
"""
        net = parse_blif(text)
        again = parse_blif(write_blif(net))
        assert exhaustive_signature(net) == exhaustive_signature(again)
        assert again.latches[0].init == 1

    def test_constant_nodes(self):
        net = parse_blif(".model c\n.outputs one zero\n"
                         ".names one\n1\n.names zero\n.end\n")
        sig = exhaustive_signature(net)
        assert sig == [(True, False)]

    def test_comments_and_continuations(self):
        text = (".model x # comment\n.inputs a \\\nb\n.outputs f\n"
                ".names a b f\n11 1\n.end\n")
        net = parse_blif(text)
        assert net.inputs == ["a", "b"]

    def test_malformed_row_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.inputs a\n.outputs f\n"
                       ".names a f\n1 1 1\n.end\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.inputs a b\n.outputs f\n"
                       ".names a b f\n111 1\n.end\n")

    def test_row_outside_names_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.inputs a\n11 1\n.end\n")

    def test_unknown_output_value_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.inputs a\n.outputs f\n"
                       ".names a f\n1 2\n.end\n")


class TestBlifRoundTripGaps:
    """Regressions for gaps surfaced by the resynth pipeline (PR 8)."""

    def test_off_set_table(self):
        """A table of 0-rows denotes the complement, not constant 0."""
        net = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                         ".names a b f\n11 0\n.end\n")
        # f = NAND(a, b)
        sig = exhaustive_signature(net)
        assert sig == [(True,), (True,), (True,), (False,)]

    def test_off_set_with_dont_cares(self):
        net = parse_blif(".model m\n.inputs a b c\n.outputs f\n"
                         ".names a b c f\n1-- 0\n-1- 0\n.end\n")
        # f = a' & b'
        node = net.nodes["f"]
        for point in range(8):
            a, b = bool(point & 1), bool(point & 2)
            assert node.cover.covers_point(point) == (not a and not b)

    def test_mixed_on_off_rows_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model m\n.inputs a\n.outputs f\n"
                       ".names a f\n1 1\n0 0\n.end\n")

    def test_off_set_round_trips(self):
        net = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                         ".names a b f\n10 0\n01 0\n.end\n")
        again = parse_blif(write_blif(net))
        assert exhaustive_signature(net) == exhaustive_signature(again)

    def test_latch_type_and_control_round_trip(self):
        text = (".model s\n.inputs a clk\n.outputs o\n"
                ".latch n q re clk 2\n"
                ".names a q n\n11 1\n.names q o\n1 1\n.end\n")
        net = parse_blif(text)
        latch = net.latches[0]
        assert (latch.trigger, latch.clock, latch.init) == ("re", "clk", 2)
        again = parse_blif(write_blif(net))
        assert again.latches[0] == latch

    def test_latch_type_without_init(self):
        net = parse_blif(".model s\n.inputs a clk\n.outputs q\n"
                         ".latch a q fe clk\n.end\n")
        latch = net.latches[0]
        assert (latch.trigger, latch.clock, latch.init) == ("fe", "clk", 0)

    def test_latch_unknown_init_values(self):
        for init in (2, 3):
            net = parse_blif(".model s\n.inputs a\n.outputs q\n"
                             ".latch a q %d\n.end\n" % init)
            assert net.latches[0].init == init
            assert parse_blif(write_blif(net)).latches[0].init == init

    def test_latch_bad_init_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model s\n.inputs a\n.outputs q\n"
                       ".latch a q x\n.end\n")

    def test_latch_bad_type_rejected(self):
        with pytest.raises(BlifError):
            parse_blif(".model s\n.inputs a clk\n.outputs q\n"
                       ".latch a q zz clk 1\n.end\n")

    def test_copy_preserves_latch_metadata(self):
        net = parse_blif(".model s\n.inputs a clk\n.outputs q\n"
                         ".latch a q ah clk 1\n.end\n")
        assert net.copy().latches[0] == net.latches[0]

    def test_names_blocks_in_any_order(self):
        """.names blocks need not be topologically ordered."""
        net = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                         ".names g b f\n11 1\n"
                         ".names a g\n0 1\n.end\n")
        values = evaluate(net, {"a": False, "b": True})
        assert values["f"] is True

    def test_write_parse_write_is_fixpoint(self):
        """Writer output is stable: write(parse(write(n))) == write(n)."""
        text = (".model m\n.inputs a b c\n.outputs f g\n"
                ".latch f q 0\n"
                ".names b a u\n1- 1\n-1 1\n"
                ".names u c f\n11 1\n"
                ".names q u g\n-1 1\n1- 1\n.end\n")
        net = parse_blif(text)
        once = write_blif(net)
        assert write_blif(parse_blif(once)) == once

    def test_multi_output_names_order_preserved(self):
        """Declared .outputs order survives the round trip."""
        net = parse_blif(".model m\n.inputs a\n.outputs z y x\n"
                         ".names a z\n1 1\n.names a y\n0 1\n"
                         ".names a x\n1 1\n.end\n")
        again = parse_blif(write_blif(net))
        assert again.outputs == ["z", "y", "x"]
        assert exhaustive_signature(net) == exhaustive_signature(again)


def wide_netlist(width):
    """``width`` inputs, ``width // 4`` latches, each fed by a buffer of
    one input, and one output."""
    lines = [".model wide",
             ".inputs " + " ".join("i%d" % k for k in range(width)),
             ".outputs b0"]
    lines += [".latch b%d q%d 0" % (k, k) for k in range(width // 4)]
    lines += [".names i%d b%d\n1 1" % (k, k) for k in range(width // 4)]
    return "\n".join(lines + [".end"]) + "\n"


def test_a_wide_netlist_parses_in_linear_time():
    """Each new signal's name is checked against a set of the frame's
    leaves, not a scan of the inputs and latches: this 560 KB netlist
    parsed in about 0.2 s that way and in 27 s with the scans (2-core
    VM, Python 3.11)."""
    text = wide_netlist(32000)
    started = time.perf_counter()
    net = parse_blif(text)
    elapsed = time.perf_counter() - started
    assert (len(net.inputs), len(net.latches), len(net.nodes)) == \
        (32000, 8000, 8000)
    assert net.is_leaf("q7999") and not net.is_leaf("b7999")
    assert elapsed < 2.0, elapsed


def fanout_netlist(width):
    """One input and ``width`` outputs, each a buffer of it."""
    lines = [".model fanout", ".inputs a",
             ".outputs " + " ".join("o%d" % k for k in range(width))]
    lines += [".names a o%d\n1 1" % k for k in range(width)]
    return "\n".join(lines + [".end"]) + "\n"


def test_many_outputs_parse_in_linear_time():
    """Each output name is checked against a set of the outputs, not a
    scan of the list: this 842 KB netlist parsed in 6.38 s with the
    scan (2-core VM, Python 3.11)."""
    text = fanout_netlist(32000)
    started = time.perf_counter()
    net = parse_blif(text)
    elapsed = time.perf_counter() - started
    assert len(net.outputs) == len(net.nodes) == 32000
    assert net.outputs[-1] == "o31999"
    assert elapsed < 2.0, elapsed


class TestOutputNames:
    def test_a_duplicate_output_is_rejected(self):
        net = tiny_network()
        with pytest.raises(ValueError, match="duplicate output 'f'"):
            net.add_output("f")
        with pytest.raises(ValueError, match="duplicate output 'z'"):
            parse_blif(".model m\n.inputs a\n.outputs z z\n"
                       ".names a z\n1 1\n.end\n")

    def test_a_copy_keeps_its_own_output_names(self):
        net = tiny_network()
        clone = net.copy()
        with pytest.raises(ValueError, match="duplicate output 'f'"):
            clone.add_output("f")
        clone.add_output("a")
        assert clone.outputs == ["f", "a"] and net.outputs == ["f"]
        net.add_output("a")  # the original never saw the clone's output
