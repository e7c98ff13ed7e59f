"""End-to-end tests for the resynthesis pipeline."""

import pytest

from repro.api import Session
from repro.network import LogicNetwork
from repro.network.blif import parse_blif
from repro.network.simulate import exhaustive_signature
from repro.resynth import (MAX_VERIFY_VECTORS, ResynthRequest, extract_window,
                           load_circuit, resynthesize, resynthesize_network)
from repro.resynth.pipeline import _verify_final, _verify_window
from repro.sop import Cover
from repro.sop.cube import DASH, Cube

from ..decompose.test_cutflex import reconvergent_and_network


def run(circuit="s27", **kwargs):
    kwargs.setdefault("passes", 1)
    kwargs.setdefault("max_explored", 8)
    return resynthesize(ResynthRequest(circuit=circuit, **kwargs))


class TestEndToEnd:
    def test_s27_equivalent_and_never_worse(self):
        report = run("s27", passes=2)
        assert report.ok
        assert report.equivalent is True
        assert report.literal_savings >= 0
        assert report.literals_after <= report.literals_before

    def test_rewritten_blif_parses_back_equivalent(self):
        report = run("s386")
        original = load_circuit("s386")
        rewritten = parse_blif(report.blif)
        assert exhaustive_signature(rewritten) == \
            exhaustive_signature(original)
        assert rewritten.literal_count() == report.literals_after

    def test_savings_actually_happen_somewhere(self):
        report = run("s298")
        assert report.rewrites_accepted > 0
        assert report.literal_savings > 0

    def test_input_network_is_not_mutated(self):
        network = load_circuit("s298")
        literals = network.literal_count()
        request = ResynthRequest(circuit="s298", passes=1,
                                 max_explored=8)
        net, report = resynthesize_network(network, request)
        assert network.literal_count() == literals
        assert net.literal_count() == report.literals_after

    def test_early_stop_when_a_pass_accepts_nothing(self):
        # s27 is already minimal under this flow: pass 0 accepts no
        # rewrite, so the remaining budgeted passes never run.
        report = run("s27", passes=5)
        assert report.ok and report.rewrites_accepted == 0
        assert len(report.passes) == 1

    def test_pass_records_account_for_every_candidate(self):
        report = run("s298")
        for record in report.passes:
            explained = (record["accepted"] + record["rejected_cost"]
                         + record["skipped_conflict"]
                         + record["rejected_cycle"]
                         + record["rejected_verify"]
                         + record["solver_failures"]
                         + record["unrealized"])
            assert explained == record["relations_mined"]
            assert record["relations_mined"] + record["windows_skipped"] \
                == record["candidates"]

    def test_max_nodes_caps_the_candidates(self):
        report = run("s298", max_nodes=5)
        assert report.passes[0]["candidates"] == 5


class TestExecutorsAndPolicies:
    @pytest.mark.parametrize("circuit", ("s27", "s298"))
    def test_process_executor_matches_serial(self, circuit):
        serial = run(circuit)
        pooled = run(circuit, executor="process", workers=2)
        assert pooled.ok and pooled.equivalent is True
        assert pooled.literals_after == serial.literals_after

    def test_reconvergent_policy_runs_clean(self):
        report = run("s298", cut_policy="reconvergent", passes=1)
        assert report.ok and report.equivalent is True
        assert report.literal_savings >= 0


class TestVerification:
    def test_verify_none_skips_the_final_check(self):
        report = run("s27", verify="none")
        assert report.equivalent is None
        assert report.verify_method is None

    def test_verify_signature_mode(self):
        report = run("s27", verify="signature", verify_vectors=64)
        assert report.equivalent is True
        assert report.verify_method == "signature"
        assert report.verify_vectors <= 64

    def test_verify_auto_prefers_exhaustive_on_narrow_frames(self):
        report = run("s27", verify="auto")
        assert report.verify_method == "exhaustive"
        leaves = len(load_circuit("s27").combinational_inputs())
        assert report.verify_vectors == 1 << leaves


def flip_first_literal(cover):
    """``cover`` with its first literal complemented."""
    cubes = [list(cube.values) for cube in cover.cubes]
    for values in cubes:
        for position, value in enumerate(values):
            if value != DASH:
                values[position] = 1 - value
                return Cover(cover.width, [Cube(row) for row in cubes])
    raise AssertionError("the cover has no literal")


def corrupted(network, name):
    """A copy of ``network`` with one literal of node ``name`` flipped."""
    bad = network.copy()
    bad.nodes[name].cover = flip_first_literal(bad.nodes[name].cover)
    return bad


def wide_buffer_network(leaves=20):
    """``o = x0`` beside an AND of every leaf: too wide to simulate
    exhaustively, and flipping ``o``'s literal changes every vector."""
    net = LogicNetwork("wide")
    names = ["x%d" % index for index in range(leaves)]
    for name in names:
        net.add_input(name)
    net.add_node("o", ["x0"], Cover.from_strings(1, ["1"]))
    net.add_node("g", names, Cover.from_strings(leaves, ["1" * leaves]))
    net.add_output("o")
    net.add_output("g")
    return net


class TestCorruptedRewrites:
    """The mask comparisons reject a rewrite that changes an output."""

    def test_window_check_rejects_a_flipped_literal(self):
        net = reconvergent_and_network()
        window = extract_window(net, ["y1"], max_leaves=8, tfo_depth=0)
        node = window.network.nodes["y1"]
        assert _verify_window(window, {"y1": (node.fanins, node.cover)})
        assert not _verify_window(
            window, {"y1": (node.fanins, flip_first_literal(node.cover))})

    def test_window_check_sees_through_the_tfo(self):
        net = reconvergent_and_network()
        window = extract_window(net, ["y1"], max_leaves=8, tfo_depth=1)
        assert window.roots == ("f",)
        node = window.network.nodes["y1"]
        assert not _verify_window(
            window, {"y1": (node.fanins, flip_first_literal(node.cover))})

    @pytest.mark.parametrize("verify", ["exhaustive", "auto"])
    def test_final_exhaustive_check_rejects_a_flipped_literal(self,
                                                              verify):
        net = reconvergent_and_network()
        request = ResynthRequest(circuit="s27", verify=verify)
        assert _verify_final(net, net.copy(), request) == \
            (True, "exhaustive", 8)
        assert _verify_final(net, corrupted(net, "f"), request) == \
            (False, "exhaustive", 8)

    @pytest.mark.parametrize("verify", ["signature", "auto", "exhaustive"])
    def test_final_signature_check_rejects_a_flipped_literal(self,
                                                             verify):
        """20 leaves: every mode falls back to seeded random vectors."""
        net = wide_buffer_network()
        request = ResynthRequest(circuit="s27", verify=verify,
                                 verify_vectors=100)
        assert _verify_final(net, net.copy(), request) == \
            (True, "signature", 100)
        assert _verify_final(net, corrupted(net, "o"), request) == \
            (False, "signature", 100)

    def test_signature_vectors_stop_at_the_frame_size(self):
        net = reconvergent_and_network()
        request = ResynthRequest(circuit="s27", verify="signature",
                                 verify_vectors=MAX_VERIFY_VECTORS)
        assert _verify_final(net, net.copy(), request) == \
            (True, "signature", 8)


class TestSharedSession:
    def test_shared_session_hits_across_circuits(self):
        session = Session()
        request = ResynthRequest(circuit="s298", passes=1,
                                 max_explored=8)
        first = resynthesize(request, session=session)
        hits = session.cache_hits
        second = resynthesize(request, session=session)
        assert first.ok and second.ok
        # Identical relations re-solved in the same session: the
        # report cache answers, and the results agree.
        assert session.cache_hits > hits
        assert second.literals_after == first.literals_after
        assert second.blif == first.blif


class TestFailureCapture:
    def test_unknown_bench_circuit_is_a_captured_failure(self):
        report = resynthesize(ResynthRequest(circuit="no-such-circuit",
                                             label="bad"))
        assert not report.ok
        assert report.label == "bad"
        assert report.error

    def test_malformed_blif_is_a_captured_failure(self):
        report = resynthesize(ResynthRequest(
            circuit={"kind": "blif", "text": ".model broken\n.names"}))
        assert not report.ok

    def test_missing_circuit_is_a_captured_failure(self):
        report = resynthesize(ResynthRequest())
        assert not report.ok
        assert "circuit" in report.error
