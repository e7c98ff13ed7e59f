"""Tests for the subject graph, pattern matching, and tree covering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.network import (CollapsedNetwork, Gate, LogicNetwork,
                           build_subject_graph, critical_path,
                           default_library, gate_report, map_network,
                           mapping_to_network, parse_blif)
from repro.network.mapping import INV, LEAF, NAND, SubjectGraph
from repro.network.simulate import exhaustive_outputs, exhaustive_signature
from repro.sop import Cover

from ..resynth.test_pipeline import deep_chain


class TestSubjectGraph:
    def test_structural_hashing(self):
        graph = SubjectGraph()
        a, b = graph.leaf("a"), graph.leaf("b")
        n1 = graph.nand(a, b)
        n2 = graph.nand(b, a)
        assert n1 == n2

    def test_double_inversion_folds(self):
        graph = SubjectGraph()
        a = graph.leaf("a")
        assert graph.inv(graph.inv(a)) == a

    def test_constant_inversion_folds(self):
        graph = SubjectGraph()
        assert graph.inv(graph.const(False)) == graph.const(True)

    def test_balanced_tree_depth(self):
        graph = SubjectGraph()
        leaves = [graph.leaf("l%d" % index) for index in range(8)]
        root = graph.balanced(graph.and_, leaves)

        def depth(node):
            if not graph.children[node]:
                return 0
            return 1 + max(depth(child) for child in graph.children[node])

        # Balanced AND of 8 leaves: 3 AND levels = 6 nand/inv levels.
        assert depth(root) <= 6

    def test_build_covers_all_outputs(self):
        net = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                         ".names a b f\n10 1\n01 1\n.end\n")
        graph = build_subject_graph(net)
        assert "f" in graph.roots


class TestMapping:
    def simple_net(self, rows, num_inputs=3):
        net = LogicNetwork()
        names = [chr(ord("a") + i) for i in range(num_inputs)]
        for name in names:
            net.add_input(name)
        net.add_node("f", names, Cover.from_strings(num_inputs, rows))
        net.add_output("f")
        return net

    def test_inverter_maps_to_single_gate(self):
        net = self.simple_net(["0--"])
        result = map_network(net)
        assert result.area == 1.0
        assert result.histogram() == {"inv1": 1}

    def test_nand2_maps_to_single_gate(self):
        net = self.simple_net(["0--", "-0-"])  # a' + b' = nand(a,b)
        result = map_network(net)
        assert result.histogram() == {"nand2": 1}

    def test_and2(self):
        net = self.simple_net(["11-"])
        result = map_network(net)
        assert result.area <= 3.0

    def test_aoi_opportunity(self):
        # f = (a*b + c)' built as g = ab + c followed by an inverter:
        # the subject graph is exactly the aoi21 pattern.
        net = LogicNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_node("g", ["a", "b", "c"],
                     Cover.from_strings(3, ["11-", "--1"]))
        net.add_node("f", ["g"], Cover.from_strings(1, ["0"]))
        net.add_output("f")
        result = map_network(net)
        assert result.area == 3.0
        assert result.histogram() == {"aoi21": 1}

    def test_delay_mode_never_slower(self):
        net = parse_blif(".model m\n.inputs a b c d e f g h\n.outputs o\n"
                         ".names a b c d e f g h o\n11111111 1\n.end\n")
        area_mapped = map_network(net, mode="area")
        delay_mapped = map_network(net, mode="delay")
        assert delay_mapped.delay <= area_mapped.delay

    def test_bad_mode_rejected(self):
        net = self.simple_net(["1--"])
        with pytest.raises(ValueError):
            map_network(net, mode="power")

    def test_constant_output_costs_nothing(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("f", [], Cover.universe(0))
        net.add_output("f")
        result = map_network(net)
        assert result.area == 0.0

    def test_wire_output_costs_nothing(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("f", ["a"], Cover.from_strings(1, ["1"]))
        net.add_output("f")
        result = map_network(net)
        assert result.area <= 2.0  # at worst a buffer

    def test_gate_report_renders(self):
        net = self.simple_net(["11-", "--1"])
        result = map_network(net)
        text = gate_report(result)
        assert "area" in text and "delay" in text

    def test_critical_path_nonempty(self):
        net = self.simple_net(["111"])
        result = map_network(net)
        path = critical_path(result)
        assert path
        arrival = sum(g.gate.delay for g in path)
        assert abs(arrival - result.delay) < 1e-9


class TestMappedFunctionality:
    """The mapped netlist must compute the original functions."""

    def _verify(self, net):
        graph = build_subject_graph(net)
        result = map_network(net)
        # Evaluate the subject graph and the mapped gates side by side on
        # every leaf assignment.
        leaves = net.combinational_inputs()
        from repro.network.simulate import evaluate as net_eval

        def subject_eval(assignment):
            values = {}
            for node in range(len(graph.kinds)):
                kind = graph.kinds[node]
                if kind == LEAF:
                    values[node] = assignment[graph.leaf_names[node]]
                elif kind == "const0":
                    values[node] = False
                elif kind == "const1":
                    values[node] = True
                elif kind == INV:
                    values[node] = not values[graph.children[node][0]]
                else:
                    left, right = graph.children[node]
                    values[node] = not (values[left] and values[right])
            return values

        for value in range(1 << len(leaves)):
            assignment = {leaf: bool((value >> i) & 1)
                          for i, leaf in enumerate(leaves)}
            reference = net_eval(net, assignment)
            subject = subject_eval(assignment)
            for name, root in graph.roots.items():
                assert subject[root] == reference[name], name

    def test_subject_graph_matches_network(self):
        net = parse_blif(".model m\n.inputs a b c\n.outputs f g\n"
                         ".names a b c f\n11- 1\n--1 1\n"
                         ".names a c g\n10 1\n01 1\n.end\n")
        self._verify(net)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_circuits(self, seed):
        from repro.benchdata import synthetic_circuit
        net = synthetic_circuit("map", 4, 2, 2, 10, seed=seed,
                                max_cone_support=6)
        self._verify(net)


class TestDeepNetlists:
    """A netlist maps one subject-graph level per gate; the walks that
    emit the mapped gates must not recurse per level."""

    @pytest.mark.parametrize("mode", ["area", "delay"])
    def test_a_3000_gate_chain_maps_and_simulates_equal(self, mode):
        network = parse_blif(deep_chain(3000))
        result = map_network(network, mode=mode)
        mapped = mapping_to_network(network, result)
        # Both inputs: all 4 vectors.
        assert exhaustive_outputs(mapped) == exhaustive_outputs(network)
        assert len(critical_path(result)) == result.gate_count()

    def test_repro_map_exits_0_on_the_chain(self, tmp_path, capsys):
        path = tmp_path / "chain.blif"
        path.write_text(deep_chain(3000))
        assert main(["map", str(path)]) == 0
        assert "area" in capsys.readouterr().out


class TestCollapse:
    def test_collapsed_functions_match_simulation(self):
        net = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                         ".latch n q 0\n"
                         ".names a q n\n11 1\n"
                         ".names a b q f\n1-- 1\n-11 1\n.end\n")
        collapsed = CollapsedNetwork(net)
        from repro.network.simulate import evaluate as net_eval
        leaves = net.combinational_inputs()
        for value in range(1 << len(leaves)):
            assignment = {leaf: bool((value >> i) & 1)
                          for i, leaf in enumerate(leaves)}
            reference = net_eval(net, assignment)
            bdd_assignment = {collapsed.leaf_vars[leaf]: assignment[leaf]
                              for leaf in leaves}
            for signal in ("f", "n"):
                assert collapsed.mgr.eval(collapsed.node(signal),
                                          bdd_assignment) \
                    == reference[signal]

    def test_next_state_nodes_keyed_by_state(self):
        net = parse_blif(".model m\n.inputs a\n.outputs o\n"
                         ".latch n q 0\n.names a q n\n11 1\n"
                         ".names q o\n1 1\n.end\n")
        collapsed = CollapsedNetwork(net)
        assert set(collapsed.next_state_nodes()) == {"q"}

    def test_support_names(self):
        net = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                         ".names a f\n1 1\n.end\n")
        collapsed = CollapsedNetwork(net)
        assert collapsed.support_names("f") == ["a"]
