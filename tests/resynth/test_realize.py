"""Realising solved windows: rank templates -> (fanins, Cover) pairs.

The pipeline prices each candidate on its report's rank template and
realises the ones it keeps by renaming the template to the window's
leaves (``realize_template``).  These tests hold that renaming to the
node-level realisation it replaced (a ``repro.bdd.isop.isop`` per
solved function, fanins sorted by name), and the template's literal
count to the realised one, on every candidate the bundled circuits
price, and hold the pipeline's local acyclicity check to
``LogicNetwork.topological_order``.
"""

import random

import pytest

from repro.api import Session
from repro.api.report import SolveReport
from repro.bdd import BddManager
from repro.bdd.isop import isop
from repro.benchdata.circuits import CIRCUITS
from repro.core.memo import instantiate_solution
from repro.decompose import realize_template
from repro.resynth import ResynthRequest, resynthesize
from repro.resynth import pipeline
from repro.resynth.pipeline import _apply_pass, _Candidate, _closes_cycle
from repro.resynth.window import Window
from repro.sop import Cover
from repro.sop.cube import DASH, Cube

from ..decompose.test_cutflex import reconvergent_and_network


def node_level_realize(mgr, functions, var_to_leaf):
    """The node-level realisation the template renaming replaced."""
    realized = []
    for func in functions:
        cover, _ = isop(mgr, func, func)
        fanins = sorted({var_to_leaf[var] for cube in cover
                         for var in cube})
        index_of = {leaf: i for i, leaf in enumerate(fanins)}
        cubes = []
        for cube in cover:
            values = [DASH] * len(fanins)
            for var, polarity in cube.items():
                values[index_of[var_to_leaf[var]]] = 1 if polarity else 0
            cubes.append(Cube(values))
        realized.append((fanins, Cover(len(fanins), cubes)))
    return realized


def exact(realized):
    """Fanins plus cube rows in order (``Cover.__eq__`` is semantic)."""
    return [(list(fanins), [cube.values for cube in cover.cubes])
            for fanins, cover in realized]


@pytest.fixture(scope="module")
def bundled_runs():
    """Every (template, leaves, realisation) of a candidate the
    pipeline's cost test priced, and every cycle verdict it took, over
    the bundled circuits at windows 8 and 16.

    The pipeline realises only the candidates that pass its cost test,
    so each priced template is realised here, as the pipeline would.
    """
    priced, verdicts = [], []
    original_apply = pipeline._apply_pass
    original_check = pipeline._closes_cycle

    def recording_apply(network, candidates, reports_by_relation,
                        counters):
        for candidate in candidates:
            report = reports_by_relation[candidate.relation]
            template = report.solution_template() if report.ok else None
            if template is not None:
                priced.append((template, candidate.window.leaves))
        return original_apply(network, candidates, reports_by_relation,
                              counters)

    def recording_check(network, cut):
        verdict = original_check(network, cut)
        try:
            network.topological_order()
            reference = False
        except ValueError:
            reference = True
        verdicts.append((verdict, reference))
        return verdict

    pipeline._apply_pass = recording_apply
    pipeline._closes_cycle = recording_check
    try:
        for window in (8, 16):
            session = Session()
            for spec in CIRCUITS:
                report = resynthesize(ResynthRequest(
                    circuit=spec.name, passes=2, window=window,
                    max_explored=8), session=session)
                assert report.ok and report.equivalent, spec.name
    finally:
        pipeline._apply_pass = original_apply
        pipeline._closes_cycle = original_check
    realized = [(template, leaves, realize_template(template, leaves))
                for template, leaves in priced]
    return realized, verdicts


class TestTemplateRealisation:
    def test_matches_the_node_level_realisation(self, bundled_runs):
        realized, _ = bundled_runs
        assert len(realized) > 1000
        for template, leaves, got in realized:
            mgr = BddManager(list(leaves))
            functions = instantiate_solution(mgr, template,
                                             range(len(leaves)))
            var_to_leaf = dict(enumerate(leaves))
            expected = exact(node_level_realize(mgr, functions,
                                                var_to_leaf))
            assert exact(got) == expected

    def test_the_template_prices_its_realisation(self, bundled_runs):
        """The cost test reads the template's literal count: renaming
        distinct ranks to distinct leaves keeps every literal."""
        realized, _ = bundled_runs
        for template, leaves, got in realized:
            assert sum(len(cube) for cover in template
                       for cube in cover) == \
                sum(cover.literal_count() for _, cover in got)

    def test_renaming_keeps_rank_order_and_sorts_fanins(self):
        template = ((((0, True), (2, False)), ((1, True),)), (), ((),))
        realized = realize_template(template, ["z", "a", "m"])
        assert exact(realized) == [
            (["a", "m", "z"], [(DASH, 0, 1), (1, DASH, DASH)]),
            ([], []),
            ([], [()]),
        ]


class TestLocalAcyclicityCheck:
    def test_agrees_with_topological_order_on_bundled_runs(self,
                                                           bundled_runs):
        _, verdicts = bundled_runs
        assert len(verdicts) > 100
        assert all(verdict == reference for verdict, reference in verdicts)

    def test_agrees_with_topological_order_on_random_rewirings(self):
        rng = random.Random(20)
        seen = set()
        for spec in CIRCUITS:
            network = spec.build()
            signals = network.combinational_inputs() + list(network.nodes)
            names = list(network.nodes)
            for _ in range(12):
                cut = tuple(rng.sample(names, min(len(names),
                                                  rng.choice((1, 2)))))
                saved = {name: network.nodes[name].fanins for name in cut}
                for name in cut:
                    network.nodes[name].fanins = rng.sample(
                        signals, min(len(signals), 3))
                try:
                    network.topological_order()
                    reference = False
                except ValueError:
                    reference = True
                assert _closes_cycle(network, cut) == reference, \
                    (spec.name, cut)
                seen.add(reference)
                for name, fanins in saved.items():
                    network.nodes[name].fanins = fanins
        assert seen == {False, True}

    def test_a_rewrite_closing_a_cycle_is_rolled_back(self):
        # y1 = a & b feeds f = y1 & y2; rewriting y1 as f itself costs
        # one literal instead of two, but closes the cycle y1 -> f -> y1.
        network = reconvergent_and_network()
        before = {name: (list(node.fanins), node.cover)
                  for name, node in network.nodes.items()}
        window = Window(cut=("y1",), nodes=("y1", "f"), leaves=("f",),
                        roots=("f",))
        candidate = _Candidate(cut=("y1",), window=window, relation="key",
                               old_literals=2)
        report = SolveReport(ok=True, _template=((((0, True),),),))
        counters = dict.fromkeys(("solver_failures", "unrealized",
                                  "rejected_cost", "skipped_conflict",
                                  "rejected_cycle", "rejected_verify",
                                  "accepted"), 0)
        assert _apply_pass(network, [candidate], {"key": report},
                           counters) == 0
        assert counters["rejected_cycle"] == 1
        assert counters["accepted"] == 0
        for name, node in network.nodes.items():
            assert node.fanins == before[name][0]
            assert node.cover is before[name][1]
        network.topological_order()  # still acyclic
