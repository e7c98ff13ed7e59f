"""Tests for the mux-latch flow: behaviour preservation and evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchdata import circuit_by_name, synthetic_circuit
from repro.decompose import (compare_flows, decompose_mux_latches,
                             evaluation_frame, run_baseline, run_decomposed)
from repro.network import parse_blif
from repro.network.simulate import initial_state, simulate_step


def sequential_trace(network, input_sequence):
    """Output trace of a sequential circuit over an input sequence."""
    state = initial_state(network)
    trace = []
    for vector in input_sequence:
        outputs, state = simulate_step(network, vector, state)
        trace.append(tuple(outputs[name] for name in network.outputs))
    return trace


def input_sequences(network, count=16, seed=7):
    import random
    rng = random.Random(seed)
    return [{name: bool(rng.getrandbits(1)) for name in network.inputs}
            for _ in range(count)]


class TestMuxLatchDecomposition:
    def test_s27_behaviour_preserved(self):
        net = circuit_by_name("s27").build()
        result = decompose_mux_latches(net, cost="delay", max_explored=20)
        assert result.stats.latches_decomposed == 3
        sequence = input_sequences(net, count=32)
        assert sequential_trace(net, sequence) == \
            sequential_trace(result.network, sequence)

    def test_area_cost_behaviour_preserved(self):
        net = circuit_by_name("s27").build()
        result = decompose_mux_latches(net, cost="area", max_explored=20)
        sequence = input_sequences(net, count=32)
        assert sequential_trace(net, sequence) == \
            sequential_trace(result.network, sequence)

    def test_bad_cost_rejected(self):
        net = circuit_by_name("s27").build()
        with pytest.raises(ValueError):
            decompose_mux_latches(net, cost="power")

    def test_support_guard_skips_latches(self):
        net = circuit_by_name("s27").build()
        result = decompose_mux_latches(net, max_support=0)
        assert result.stats.latches_decomposed == 0
        assert result.stats.latches_skipped_support == 3
        # Untouched circuit: same structure.
        assert result.network.latches[0].input == net.latches[0].input

    def test_evaluation_frame_drops_mux(self):
        net = circuit_by_name("s27").build()
        result = decompose_mux_latches(net, max_explored=10)
        frame = evaluation_frame(result)
        for mux in result.mux_nodes:
            assert mux not in frame.nodes
        # B and C cones became frame outputs: 1 PO + 2 extra per latch.
        assert len(frame.outputs) == 1 + 2 * 3
        # ... and the frame knows them as outputs.
        for name in frame.outputs:
            with pytest.raises(ValueError, match="duplicate output"):
                frame.add_output(name)


class TestFlows:
    def test_compare_flows_row_shape(self):
        net = circuit_by_name("s27").build()
        row = compare_flows("s27", net, mode="delay", max_explored=10)
        assert row.name == "s27"
        assert row.num_latches == 3
        assert row.baseline.area > 0
        assert row.decomposed.area > 0
        assert row.baseline.cpu_seconds >= 0
        assert 0 < row.area_ratio < 10
        assert 0 < row.delay_ratio < 10

    def test_delay_mode_improves_delay_on_s27(self):
        """The paper's headline Table 3 behaviour on the real netlist."""
        net = circuit_by_name("s27").build()
        row = compare_flows("s27", net, mode="delay", max_explored=20)
        assert row.decomposed.delay <= row.baseline.delay

    def test_run_baseline_metrics(self):
        net = circuit_by_name("s27").build()
        metrics = run_baseline(net, mode="area")
        assert metrics.area > 0 and metrics.delay > 0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=8, deadline=None)
def test_decomposition_preserves_random_circuits(seed):
    net = synthetic_circuit("dec", 4, 2, 3, 14, seed=seed,
                            max_cone_support=6)
    result = decompose_mux_latches(net, cost="delay", max_explored=8)
    sequence = input_sequences(net, count=24, seed=seed & 0xFFFF)
    assert sequential_trace(net, sequence) == \
        sequential_trace(result.network, sequence)
