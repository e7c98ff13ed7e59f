"""Session-level memory management: pinning, trims, bounded engines.

Regression suite for the seed bug where a long-lived :class:`Session`
never cleared or bounded its managers' unique/computed tables, leaking
memory across batch workloads.
"""

from __future__ import annotations

import pytest

from repro.api import Session, SolveRequest
from repro.bdd.manager import BddManager
from repro.benchdata.brgen import random_relation
from repro.core.relation import BooleanRelation

from ..conftest import wide_relation

FIG1_ROWS = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]


def make_session(**kwargs):
    session = Session(**kwargs)
    session.add_output_sets("fig1", FIG1_ROWS, 2, 2)
    return session


class TestPinningAndTrim:
    def test_registered_relations_are_pinned(self):
        session = make_session()
        relation = session.relation("fig1")
        assert relation.mgr.pin_count(relation.node) == 1

    def test_overwrite_moves_the_pin(self):
        session = make_session()
        old = session.relation("fig1")
        replacement = old.with_node(old.mgr.not_(old.node))
        session.add_relation("fig1", replacement, overwrite=True)
        assert old.mgr.pin_count(old.node) == 0
        assert old.mgr.pin_count(replacement.node) == 1

    def test_remove_relation_unpins(self):
        session = make_session()
        relation = session.relation("fig1")
        session.remove_relation("fig1")
        assert relation.mgr.pin_count(relation.node) == 0
        with pytest.raises(KeyError):
            session.remove_relation("fig1")

    def test_trim_preserves_registered_relations(self):
        session = make_session()
        before = [sorted(outs) for _, outs in
                  session.relation("fig1").rows()]
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.ok
        stats = session.trim()
        assert session.trims >= 1
        assert any(entry["gc_runs"] >= 1 for entry in stats.values())
        after = [sorted(outs) for _, outs in
                 session.relation("fig1").rows()]
        assert before == after
        # Solving again still works and agrees.
        again = session.solve(SolveRequest(relation="fig1"))
        assert again.ok and again.cost == report.cost

    def test_trim_strips_live_solutions_but_keeps_data(self):
        session = make_session()
        report = session.solve(SolveRequest(relation="fig1"))
        pla_before = report.solution_pla()
        session.trim()
        fresh = session.solve(SolveRequest(relation="fig1"))
        assert fresh.ok
        assert fresh.solution is not None  # re-solved, live again
        assert fresh.solution_pla() == pla_before


class TestBoundedEngineAcrossSolves:
    def test_node_and_cache_counts_stay_bounded(self):
        """100 solves on one relation must not grow the engine unboundedly."""
        session = make_session(auto_trim_nodes=4000)
        relation = session.relation("fig1")
        mgr = relation.mgr
        mgr.set_cache_limit(4096)
        peaks = []
        for round_number in range(100):
            session.clear_cache()  # force genuine re-solves
            report = session.solve(SolveRequest(relation="fig1"))
            assert report.ok
            stats = mgr.stats()
            assert stats["cache_entries"] <= 4096
            peaks.append(stats["nodes"])
        # The node store is trimmed whenever it crosses the threshold, so
        # it can never run away across a long session.
        assert max(peaks) <= 4000 + 3000, \
            "node store grew unboundedly: %d" % max(peaks)

    def test_auto_trim_fires_and_relation_survives(self):
        session = make_session(auto_trim_nodes=1)  # trim before every solve
        for _ in range(5):
            session.clear_cache()
            report = session.solve(SolveRequest(relation="fig1"))
            assert report.ok and report.compatible
        assert session.trims >= 5

    def test_caller_owned_relation_never_auto_trimmed(self):
        """Regression: auto-trim must not remap under a caller's handle.

        Solving a live, unregistered relation repeatedly with an
        aggressive trim threshold has to keep returning the same answer —
        the session may not collect a manager it cannot safely remap for
        the caller.
        """
        session = Session(auto_trim_nodes=1)
        relation = random_relation(3, 3, seed=33)
        first = session.solve(SolveRequest(), relation=relation)
        assert first.ok
        for _ in range(3):
            session.clear_cache()
            again = session.solve(SolveRequest(), relation=relation)
            assert again.ok
            assert again.cost == first.cost
            assert again.sop == first.sop
        assert session.trims == 0

    def test_serial_batch_respects_auto_trim(self):
        """Regression: solve_many(serial) must also bound engine memory."""
        session = make_session(auto_trim_nodes=1)
        requests = [SolveRequest(relation="fig1", cost=cost, label=cost)
                    for cost in ("size", "size2", "cubes", "literals")]
        reports = session.solve_many(requests, executor="serial")
        assert all(report.ok for report in reports)
        assert session.trims >= 1
        # The relation survived every mid-batch collection.
        final = session.solve(SolveRequest(relation="fig1"))
        assert final.ok and final.compatible

    def test_strip_solution_keeps_a_template_at_any_width(self):
        """Trimming never enumerates 2^inputs PLA rows: the stripped
        report keeps its solution as a template instead."""
        session = Session()
        session.add_relation("wide", wide_relation())
        report = session.solve(SolveRequest(relation="wide"))
        assert report.ok and report.solution is not None
        session._strip_solution(report)
        assert report.solution is None and report.pla is None
        assert report.solution_template() is not None
        # The template still hands a live solution to the relation.
        relation = session.relation("wide")
        solution = session._portable_solution(report, relation)
        assert solution.cost == report.cost
        assert relation.is_compatible(solution.functions)

    def test_stripped_report_still_exports_pla(self):
        session = Session()
        session.add_relation("narrow", random_relation(4, 2, seed=11))
        report = session.solve(SolveRequest(relation="narrow"))
        expected = report.copy().solution_pla()
        session._strip_solution(report)
        assert report.solution is None
        assert report.solution_pla() == expected

    def test_engine_stats_exposes_managers(self):
        session = make_session()
        stats = session.engine_stats()
        assert "shape:2x2" in stats
        assert stats["shape:2x2"]["num_vars"] == 4


class TestPoolTransport:
    """Pools ship node lists: no input-width cap, and workers solve the
    same ordered BDD as a serial job."""

    def test_wide_relation_pools_to_the_serial_answer(self):
        session = Session()
        session.add_relation("wide", wide_relation())
        relation = session.relation("wide")
        assert len(relation.inputs) == 18
        request = SolveRequest(relation="wide", label="wide")
        serial = session.solve_many([request], executor="serial")[0]
        session.clear_cache()
        pooled = session.solve_many([request], executor="process")[0]
        assert pooled.ok and not pooled.cached
        assert pooled.cost == serial.cost
        assert pooled.sop == serial.sop
        assert pooled.stats["relations_explored"] \
            == serial.stats["relations_explored"]
        # The solution comes back live in the caller's manager.
        assert pooled.solution.mgr is relation.mgr
        assert pooled.solution.functions == serial.solution.functions

    def test_functional_wide_relation_pools(self):
        session = Session()
        mgr = session.manager_for(17, 1)
        relation = BooleanRelation.from_functions(
            mgr, list(range(17)), [17], [mgr.var(0)])
        session.add_relation("huge", relation)
        report = session.solve_many([SolveRequest(relation="huge")],
                                    executor="process")[0]
        assert report.ok and report.cost == session.solve(
            SolveRequest(relation="huge")).cost

    def test_interleaved_relation_pools_to_the_serial_answer(self):
        # The node list keeps the source's variable order, outputs
        # interleaved among the inputs included.
        base = random_relation(4, 2, seed=5)
        mgr = BddManager(["x0", "y0", "x1", "x2", "y1", "x3"])
        slot = [0, 2, 3, 5, 1, 4]
        node = mgr.from_minterms(
            slot, list(base.mgr.minterms(base.node, list(range(6)))))
        session = Session()
        session.add_relation(
            "mixed", BooleanRelation(mgr, [0, 2, 3, 5], [1, 4], node))
        request = SolveRequest(relation="mixed", max_explored=20)
        serial = session.solve_many([request], executor="serial")[0]
        session.clear_cache()
        pooled = session.solve_many([request], executor="process")[0]
        assert pooled.sop == serial.sop
        assert pooled.solution.functions == serial.solution.functions

    def test_narrow_relations_still_parallelise(self):
        session = make_session()
        reports = session.solve_many(
            [SolveRequest(relation="fig1", cost=cost, label=cost)
             for cost in ("size", "cubes")],
            executor="process", max_workers=2)
        assert all(report.ok for report in reports)


class TestSpecManagersReleaseCaches:
    ROWS = [{0b01}, {0b01, 0b10}, {0b00, 0b11}, {0b10, 0b11},
            {0b00}, {0b01, 0b11}, {0b10}, {0b00, 0b01, 0b11}]

    def spec(self):
        return {"kind": "output_sets", "rows": [sorted(r) for r in self.ROWS],
                "num_inputs": 3, "num_outputs": 2}

    def test_spec_built_solve_drops_derived_tables(self):
        session = Session()
        report = session.solve(SolveRequest(relation=self.spec(),
                                            max_explored=20))
        stats = report.solution.mgr.stats()
        assert stats["cache_entries"] == 0
        assert stats["isop_entries"] == 0
        registered = Session()
        registered.add_output_sets("r", self.ROWS, 3, 2)
        reference = registered.solve(SolveRequest(relation="r",
                                                  max_explored=20))
        assert report.to_dict()["pla"] == reference.to_dict()["pla"]
        assert report.sop == reference.sop
        assert report.cost == reference.cost
        # The registry relation's manager keeps its computed table.
        assert registered.relation("r").mgr.stats()["cache_entries"] > 0

    def test_solve_many_and_solve_iter_release_spec_managers(self):
        session = Session()
        reports = session.solve_many(
            [SolveRequest(relation=self.spec(), max_explored=10,
                          label="a")], executor="serial")
        assert reports[0].solution.mgr.stats()["cache_entries"] == 0
        gen = session.solve_iter(SolveRequest(relation=self.spec(),
                                              max_explored=11))
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            report = stop.value
        assert report.solution.mgr.stats()["cache_entries"] == 0

    def test_caller_owned_relation_keeps_its_tables(self):
        session = Session()
        relation = random_relation(4, 3, seed=4)
        session.solve(SolveRequest(max_explored=10), relation=relation)
        assert relation.mgr.stats()["cache_entries"] > 0
