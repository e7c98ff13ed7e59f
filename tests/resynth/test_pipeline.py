"""End-to-end tests for the resynthesis pipeline."""

import sys

import pytest

from repro.api import Session, SolveRequest
from repro.api import session as session_module
from repro.api.request import root_of_table
from repro.benchdata.circuits import CIRCUITS
from repro.core import packedrel, relio
from repro.core.packedrel import narrow
from repro.core.relation import BooleanRelation
from repro.network import LogicNetwork
from repro.network.blif import parse_blif
from repro.network.simulate import exhaustive_signature
from repro.resynth import (MAX_VERIFY_VECTORS, ResynthRequest, extract_window,
                           load_circuit, resynthesize, resynthesize_network)
from repro.resynth.pipeline import _verify_final, _verify_window
from repro.sop import Cover
from repro.sop.cube import DASH, Cube

from ..decompose.test_cutflex import reconvergent_and_network
from ..test_pinned_answers import RESYNTH_DIGESTS, sha256

#: Options that give some windows 16 leaves and a one-node cut: frames
#: of 17 variables, solved on BDD nodes.
WIDE_OPTIONS = {"s420": {"window": 16, "tfo_depth": 2}}

#: A 22-circuit round at the workload options (serial, one session,
#: circuits in sorted order): its session cache hits and solved
#: relations, pinned like the BLIF digests of ``test_pinned_answers``.
ROUND_CACHE_HITS = 1114
ROUND_RELATIONS_SOLVED = 1487


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


class TestFramesAndPolicies:
    @pytest.mark.parametrize("circuit", ("s27", "s298", "s420"))
    def test_wide_frames_are_solved_on_nodes(self, circuit, monkeypatch):
        options = WIDE_OPTIONS.get(circuit, {})
        roots = []
        build = session_module.root_of_table

        def recording(*args):
            roots.append(build(*args))
            return roots[-1]

        monkeypatch.setattr(session_module, "root_of_table", recording)
        report = run(circuit, **options)
        assert report.ok and report.equivalent is True
        wide = [root for root in roots
                if not narrow(len(root.inputs), len(root.outputs))]
        assert [(len(root.inputs) + len(root.outputs),
                 isinstance(root, BooleanRelation)) for root in wide] == \
            ([(17, True)] if options else [])

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

    @staticmethod
    def covers(net, name, flip=False):
        node = net.nodes[name]
        cover = flip_first_literal(node.cover) if flip else node.cover
        return {name: (node.fanins, cover)}

    def test_window_check_rejects_a_flipped_literal(self):
        net = reconvergent_and_network()
        window = extract_window(net, ["y1"], max_leaves=8, tfo_depth=0)
        saved = self.covers(net, "y1")
        assert _verify_window(net, window, saved, saved)
        flipped = self.covers(net, "y1", flip=True)
        assert not _verify_window(net, window, saved, flipped)
        # Checked in place: the host holds the rewrite on return.
        assert net.nodes["y1"].cover is flipped["y1"][1]

    def test_window_check_sees_through_the_tfo(self):
        net = reconvergent_and_network()
        window = extract_window(net, ["y1"], max_leaves=8, tfo_depth=1)
        assert window.roots == ("f",)
        assert not _verify_window(net, window, self.covers(net, "y1"),
                                  self.covers(net, "y1", flip=True))

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


@pytest.fixture
def no_node_lists(monkeypatch):
    """``pack_nodes`` and ``check_nodes`` raise wherever they are bound."""
    originals = {"pack_nodes": packedrel.pack_nodes,
                 "check_nodes": relio.check_nodes}

    def stub(*args, **kwargs):
        raise AssertionError("a node list on the resynthesis path")

    for module in list(sys.modules.values()):
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, stub)


class TestTableHandover:
    def test_a_round_keeps_its_answers_and_builds_no_request_per_table(
            self, no_node_lists, monkeypatch):
        built = []
        post_init = SolveRequest.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(SolveRequest, "__post_init__", counting)
        session = Session()
        solved = 0
        for name in sorted(spec.name for spec in CIRCUITS):
            request = ResynthRequest(circuit=name, passes=2, window=8,
                                     max_explored=8)
            del built[:]
            report = resynthesize(request, session=session)
            assert report.ok, report.error
            assert sha256(report.blif) == RESYNTH_DIGESTS[name], name
            assert len(built) <= len(report.passes), name
            solved += report.relations_solved
        assert session.cache_hits == ROUND_CACHE_HITS
        assert solved == ROUND_RELATIONS_SOLVED

    def test_every_report_is_the_cache_entry_itself(self):
        session = Session()
        request = SolveRequest(cost="literals", max_explored=8)
        # a & b feeding an output: y0 must equal x0 & x1.
        mined = (2, 1, 0b10000111)
        first, again = session.solve_tables([mined, mined], request)
        assert first is again and first.ok and first.solution is None
        assert first.solution_template() == ((((0, True), (1, True)),),)
        assert session.cache_hits == 0
        (hit,) = session.solve_tables([mined], request)
        assert hit is first and session.cache_hits == 1
        # Another request's options are another key.
        (other,) = session.solve_tables([mined],
                                        request.replace(cost="size"))
        assert other is not first and session.cache_hits == 1


class TestLeanTableEntries:
    def test_every_entry_of_a_round_is_the_full_reports_answer(
            self, monkeypatch):
        """A table miss stores only ``ok``, the cost, ``stopped``, the
        frame and the template; over every table a round hands the
        session, they are the answers of the full report of the same
        root under the same request."""
        handed = []
        solve_tables = Session.solve_tables

        def recording(self, tables, request):
            reports = solve_tables(self, tables, request)
            handed.extend((mined, entry, request)
                          for mined, entry in zip(tables, reports))
            return reports

        monkeypatch.setattr(Session, "solve_tables", recording)
        session = Session()
        for name in sorted(spec.name for spec in CIRCUITS):
            report = resynthesize(ResynthRequest(
                circuit=name, passes=2, window=8, max_explored=8),
                session=session)
            assert report.ok, report.error
        assert len(handed) == ROUND_RELATIONS_SOLVED
        for mined, entry, request in handed:
            key = ("table",) + mined + request.options_key()
            assert session._cache[key] is entry
            full = session_module._solve_report(
                root_of_table(*mined), request, request.to_dict(), None)
            assert entry.ok and full.ok
            assert entry.solution is None
            assert entry.solution_template() == full.solution_template()
            assert entry.cost == full.cost
            assert entry.stopped == full.stopped
            assert (entry.num_inputs, entry.num_outputs) == \
                (full.num_inputs, full.num_outputs) == mined[:2]
            # The summary a full report carries is not built.
            assert (entry.pairs, entry.sop, entry.stats) == (None, None, {})


def deep_chain(gates):
    """``n{i} = n{i-1} & b`` for ``gates`` levels over ``n0 = a``."""
    lines = [".model chain", ".inputs a b", ".outputs n%d" % gates,
             ".names a n0", "1 1"]
    for index in range(1, gates + 1):
        lines += [".names n%d b n%d" % (index - 1, index), "11 1"]
    return "\n".join(lines + [".end"]) + "\n"


class TestDeepNetlists:
    def test_a_3000_gate_chain_parses_and_resynthesizes(self):
        text = deep_chain(3000)
        network = parse_blif(text)
        network.validate()
        assert network.topological_order() == \
            ["n%d" % index for index in range(3001)]
        report = resynthesize(ResynthRequest(
            circuit={"kind": "blif", "text": text}, passes=1))
        assert report.ok, report.error
        assert report.equivalent is True
        assert report.literals_before == 6001
        assert report.literals_after < report.literals_before


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
