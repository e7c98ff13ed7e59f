"""Session's one in-process miss path, and what a trim may not touch.

A serial batch job is resolved, trimmed and keyed when it runs, as a
:meth:`Session.solve` miss is, so a trim during a batch never leaves a
report filed under a stale key or handed over with a stale live
solution.  An open :meth:`Session.solve_iter` stream keeps its manager
out of every trim until it ends.  A token passed to a batch stops it as
each executor allows, and no cancelled report is cached.
"""

import pytest

from repro.api import (CancelToken, Session, SolveRequest, cost_registry,
                       register_cost)
from repro.benchdata.brgen import random_rows
from repro.core.cost import bdd_size_cost
from repro.service.app import SolveService


def add(session, name, seed):
    """Register a 5 x 3 relation in the session's shared manager."""
    return session.add_output_sets(name, random_rows(5, 3, seed), 5, 3)


def late_layout(seed, drafts=1, after=(), auto_trim_nodes=1):
    """Registered-then-removed relations below ``late``, and ``after``.

    The removed ones leave garbage below ``late``, so the next trim
    moves ``late``'s node id down.
    """
    session = Session(auto_trim_nodes=auto_trim_nodes)
    for index in range(drafts):
        add(session, "gone%d" % index, seed * 100 + index)
        session.remove_relation("gone%d" % index)
    add(session, "late", seed * 100 + 50)
    for index, name in enumerate(after):
        add(session, name, seed * 100 + 60 + index)
    return session


def drain(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def answer(report):
    return report.cost, report.sop


class TestTrimmedBatchKeys:
    def test_a_trimming_batch_keys_after_the_trim(self):
        session = late_layout(0)
        before = session.relation("late").node
        request = SolveRequest(relation="late", max_explored=3)
        [report] = session.solve_many([request], executor="serial")
        assert report.ok and report.compatible and session.trims == 1
        assert session.relation("late").node != before
        hit = session.peek_cached(request)
        assert hit is not None and answer(hit) == answer(report)

    def collision(self):
        """A layout where ``late``'s node id before a trim is another
        name's id after it: the key a stale filing would answer for."""
        names = ["r%d" % index for index in range(12)]
        for seed in range(60):
            for drafts in (1, 2, 3):
                probe = late_layout(seed, drafts, names)
                stale = probe.relation("late").node
                probe.trim()
                for name in names:
                    if probe.relation(name).node == stale:
                        return seed, drafts, names, name
        pytest.fail("no seeded layout collides")

    def test_a_batch_report_never_answers_for_another_name(self):
        seed, drafts, names, victim = self.collision()
        session = late_layout(seed, drafts, names)
        service = SolveService(session)
        batch = service.batch({"jobs": [{"relation": "late",
                                         "max_explored": 3}]})
        assert batch["ok"] and batch["tiers"] == ["engine"]
        served, tier = service.solve({"relation": victim,
                                      "max_explored": 3})
        reference = late_layout(seed, drafts, names).solve(
            SolveRequest(relation=victim, max_explored=3))
        assert tier == "engine"
        assert (served["cost"], served["sop"]) == answer(reference)


class TestBatchHandOver:
    def test_hits_hand_over_after_a_later_trim(self):
        session = Session()
        for index in range(6):
            add(session, "r%d" % index, 100 + index)
        requests = [SolveRequest(relation="r%d" % index, max_explored=3)
                    for index in range(6)]
        solved = [session.solve(request) for request in requests[:3]]
        session.auto_trim_nodes = 1
        reports = session.solve_many(requests, executor="serial")
        assert [report.cached for report in reports] == [True] * 3 \
            + [False] * 3
        assert session.trims == 3
        for index, report in enumerate(reports):
            relation = session.relation("r%d" % index)
            assert report.solution.mgr is relation.mgr
            assert relation.is_compatible(report.solution.functions)
        assert [answer(report) for report in reports[:3]] == \
            [answer(report) for report in solved]

    def test_duplicates_share_one_solve_across_trims(self):
        session = late_layout(1, after=["other"])
        requests = [SolveRequest(relation=name, max_explored=3)
                    for name in ("late", "other", "late")]
        first, other, again = session.solve_many(requests,
                                                 executor="serial")
        assert not first.cached and not other.cached and again.cached
        assert answer(first) == answer(again)
        for name, report in (("late", again), ("other", other)):
            relation = session.relation(name)
            assert relation.is_compatible(report.solution.functions)


class TestOpenStreams:
    def layout(self):
        """``late`` above garbage, with no trim before the stream."""
        session = late_layout(2, after=["other"], auto_trim_nodes=None)
        request = SolveRequest(relation="late", max_explored=6)
        return session, request

    def reference(self):
        session, request = self.layout()
        return session.solve(request)

    @pytest.mark.parametrize("started", [False, True])
    def test_a_trim_skips_the_manager_of_an_open_stream(self, started):
        session, request = self.layout()
        gen = session.solve_iter(request)
        if started:
            next(gen)
        session.auto_trim_nodes = 1
        session.solve(SolveRequest(relation="other", max_explored=3))
        report = drain(gen)
        reference = self.reference()
        assert report.ok and report.compatible
        assert report.pairs == reference.pairs
        assert answer(report) == answer(reference)
        hit = session.peek_cached(request)
        assert hit is not None and answer(hit) == answer(reference)

    def test_an_explicit_trim_waits_for_the_stream(self):
        session, request = self.layout()
        gen = session.solve_iter(request)
        next(gen)
        trims = session.trims
        session.trim()
        assert session.trims == trims
        report = drain(gen)
        assert answer(report) == answer(self.reference())
        session.trim()
        assert session.trims == trims + 1

    @pytest.mark.parametrize("started", [False, True])
    def test_a_closed_stream_releases_its_hold(self, started):
        session, request = self.layout()
        gen = session.solve_iter(request)
        if started:
            next(gen)
        gen.close()
        trims = session.trims
        session.trim()
        assert session.trims == trims + 1

    def test_a_dropped_stream_releases_its_hold(self):
        session, request = self.layout()
        session.solve_iter(request)
        trims = session.trims
        session.trim()
        assert session.trims == trims + 1


class TestBatchCancel:
    NAMES = ("vtx", "int2", "int3")

    @pytest.fixture
    def session(self):
        session = Session()
        for name in self.NAMES:
            session.add_benchmark(name)
        return session

    def requests(self, **fields):
        return [SolveRequest(relation=name, max_explored=200, **fields)
                for name in self.NAMES]

    def test_a_token_tripped_before_the_call_runs_nothing(self, session):
        token = CancelToken()
        token.cancel()
        reports = session.solve_many(self.requests(), executor="serial",
                                     cancel=token)
        assert [(report.ok, report.error) for report in reports] == \
            [(False, "RuntimeError: cancelled before start")] * 3
        assert session._cache == {}

    def test_a_token_tripped_mid_job_skips_the_rest(self, session):
        token = CancelToken()
        calls = []

        def tripping(mgr, functions):
            calls.append(1)
            if len(calls) == 5:
                token.cancel()
            return bdd_size_cost(mgr, functions)

        register_cost("trip-after-five", tripping)
        try:
            requests = self.requests(cost="trip-after-five")
            reports = session.solve_many(requests, executor="serial",
                                         cancel=token)
            assert [(report.ok, report.stopped or report.error)
                    for report in reports] == \
                [(True, "cancelled")] \
                + [(False, "RuntimeError: cancelled before start")] * 2
            assert reports[0].compatible
            assert session._cache == {}
            assert all(session.peek_cached(request) is None
                       for request in requests)
        finally:
            cost_registry.unregister("trip-after-five")

    def test_a_process_batch_stops_dispatch(self, session):
        token = CancelToken()
        token.cancel()
        reports = session.solve_many(self.requests(), executor="process",
                                     max_workers=1, cancel=token)
        assert len(reports) == 3
        for report in reports:
            assert report.ok or \
                report.error == "RuntimeError: cancelled before start"
            assert report.stopped != "cancelled"
        assert all(entry.stopped != "cancelled"
                   for entry in session._cache.values())
