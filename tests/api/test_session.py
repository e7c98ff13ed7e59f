"""Session: ingestion, cached solving, batch ordering and isolation."""

import dataclasses
import random

import pytest

from repro.api import Session, SolveRequest
from repro.api.request import build_relation
from repro.benchdata.brgen import random_relation
from repro.core import BooleanRelation
from repro.core.relio import relation_to_nodes, write_relation
from repro.equations import BooleanSystem

FIG1_ROWS = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]


@pytest.fixture
def session():
    s = Session()
    s.add_output_sets("fig1", FIG1_ROWS, 2, 2)
    return s


class TestIngestion:
    def test_output_sets(self, session):
        relation = session.relation("fig1")
        assert relation.output_set(2) == {0b00, 0b11}

    def test_pla_round_trip(self, session):
        text = write_relation(session.relation("fig1"))
        relation = session.add_pla("fig1-pla", text)
        assert [outs for _, outs in relation.rows()] \
            == [outs for _, outs in session.relation("fig1").rows()]

    def test_pla_file(self, session, tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(write_relation(session.relation("fig1")))
        relation = session.add_pla_file("from-file", str(path))
        assert "from-file" in session
        assert relation.pair_count() == 6

    def test_truth_tables(self):
        session = Session()
        relation = session.add_truth_tables("xor", [0b0110], 2)
        assert relation.is_function()
        assert relation.output_set(0b01) == {1}
        assert relation.output_set(0b11) == {0}

    def test_equation_system(self):
        session = Session()
        system = BooleanSystem.parse(["x*y = 0", "x + y = a"],
                                     independents=["a"],
                                     dependents=["x", "y"])
        session.add_system("sys", system)
        report = session.solve(SolveRequest(relation="sys"))
        assert report.ok and report.compatible

    def test_equation_strings(self):
        session = Session()
        session.add_system("sys", ["x = a"], independents=["a"],
                           dependents=["x"])
        assert session.relation("sys").is_function()

    def test_benchmark(self):
        session = Session()
        relation = session.add_benchmark("int1")
        assert len(relation.inputs) == 4

    def test_shared_manager_per_shape(self, session):
        session.add_output_sets("other", FIG1_ROWS, 2, 2)
        assert session.relation("other").mgr \
            is session.relation("fig1").mgr

    def test_out_of_range_specs_rejected(self, session):
        spec = {"kind": "output_sets", "rows": [[5], [9], [-1], [2]],
                "num_inputs": 2, "num_outputs": 2}
        with pytest.raises(ValueError, match="row 0: output vertex 5"):
            session.solve(SolveRequest(max_explored=5), relation=spec)
        with pytest.raises(ValueError, match="row 1: output vertex 9"):
            session.add_output_sets("bad", [{1}, {9}, {0}, {2}], 2, 2)
        with pytest.raises(ValueError, match="table 0: 99"):
            session.add_truth_tables("bad", [99], 2)
        assert "bad" not in session.relation_names()

    @pytest.mark.parametrize("header, message", [
        (".i 200000", "num_inputs must be an int in 0..18, got 200000"),
        (".i -1", "num_inputs must be an int in 0..18, got -1"),
        (".i 19", "num_inputs must be an int in 0..18, got 19"),
        (".i x", "malformed header '.i x'"),
    ])
    def test_bad_pla_headers_build_nothing(self, header, message):
        """A registration is checked as its spec is, before the
        session asks for the shape's manager."""
        session = Session()
        with pytest.raises(ValueError, match=message):
            session.add_pla("bad", header + "\n.o 2\n.e\n")
        assert session.engine_stats() == {}
        assert "bad" not in session

    def test_oversized_output_sets_build_nothing(self):
        session = Session()
        with pytest.raises(ValueError, match="num_inputs must be an int"):
            session.add_output_sets("bad", [], 200000, 2)
        assert session.engine_stats() == {}

    def test_registrations_build_what_their_specs_build(self, tmp_path):
        session = Session()
        text = write_relation(BooleanRelation.from_output_sets(
            FIG1_ROWS, 2, 2))
        path = tmp_path / "fig1.pla"
        path.write_text(text)
        specs = {
            "sets": {"kind": "output_sets", "rows": FIG1_ROWS,
                     "num_inputs": 2, "num_outputs": 2},
            "pla": {"kind": "pla", "text": text},
            "file": {"kind": "file", "path": str(path)},
        }
        session.add_output_sets("sets", FIG1_ROWS, 2, 2)
        session.add_pla("pla", text)
        session.add_pla_file("file", path)  # a path object, as open() takes
        for name, spec in specs.items():
            assert list(session.relation(name).rows()) \
                == list(build_relation(spec).rows())
        # Same-shape registrations share one manager.
        assert list(session.engine_stats()) == ["shape:2x2"]
        session.add_truth_tables("xor", [0b0110], 2)
        assert list(session.relation("xor").rows()) == list(build_relation(
            {"kind": "truth_tables", "tables": [0b0110],
             "num_inputs": 2}).rows())

    def test_equation_strings_take_the_spec_checks(self):
        session = Session()
        with pytest.raises(ValueError, match="independents must be a list"):
            session.add_system("sys", ["x = a"], dependents=["x"])
        with pytest.raises(ValueError, match="inconsistent"):
            session.add_system("sys", ["x = a", "x = ~a"],
                               independents=["a"], dependents=["x"])
        assert session.relation_names() == []

    def test_duplicate_name_rejected(self, session):
        with pytest.raises(ValueError, match="already registered"):
            session.add_output_sets("fig1", FIG1_ROWS, 2, 2)
        session.add_output_sets("fig1", FIG1_ROWS, 2, 2, overwrite=True)

    def test_unknown_name(self, session):
        with pytest.raises(KeyError, match="no relation named"):
            session.relation("nope")


class TestSolve:
    def test_solve_by_name(self, session):
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.ok and report.compatible
        relation = session.relation("fig1")
        assert relation.is_compatible(report.solution.functions)

    @pytest.mark.parametrize("knob", [{"memo_enabled": False},
                                      {"memo_capacity": 16}])
    def test_retired_memo_knobs_rejected(self, knob):
        with pytest.raises(TypeError):
            Session(**knob)

    def test_retired_max_workers_rejected(self):
        # A batch takes its pool size per call (solve_many's
        # max_workers); the session-wide default is gone.
        with pytest.raises(TypeError):
            Session(max_workers=2)
        assert not hasattr(Session(), "default_max_workers")

    def test_solve_explicit_relation(self, session):
        relation = BooleanRelation.from_output_sets(FIG1_ROWS, 2, 2)
        report = session.solve(SolveRequest(), relation=relation)
        assert report.ok and report.compatible

    def test_solve_requires_some_relation(self, session):
        with pytest.raises(ValueError, match="no relation"):
            session.solve(SolveRequest())

    def test_solve_raises_on_failure(self, session):
        with pytest.raises(KeyError):
            session.solve(SolveRequest(relation="missing"))

    def test_spec_solves_share_cache_entries(self, session, tmp_path):
        text = write_relation(session.relation("fig1"))
        spec = {"kind": "pla", "text": text}
        first = session.solve(SolveRequest(relation=spec))
        second = session.solve(SolveRequest(relation=spec))
        assert not first.cached and second.cached
        assert session.cache_hits == 1
        assert second.solution is not None  # self-contained live handle
        # File specs key on content, so on-disk edits invalidate.
        path = tmp_path / "r.pla"
        path.write_text(text)
        file_spec = {"kind": "file", "path": str(path)}
        assert session.solve(SolveRequest(relation=file_spec)).cached
        path.write_text(write_relation(
            BooleanRelation.from_output_sets([{0, 1}] * 4, 2, 1)))
        assert not session.solve(SolveRequest(relation=file_spec)).cached

    def test_dense_table_past_the_int_digit_limit(self, session):
        # 2**14 bits print to about 4,900 decimal digits, past the
        # digit limit Python 3.11 puts on int-to-str conversion; the
        # request's fingerprint writes the table in hex, never decimal.
        rng = random.Random(7)
        spec = {"kind": "truth_tables", "num_inputs": 14,
                "tables": [rng.getrandbits(1 << 14)] * 2}
        first = session.solve(SolveRequest(relation=spec))
        assert first.ok and first.compatible and not first.cached
        assert session.solve(SolveRequest(relation=spec)).cached

    def test_cache_hit_on_identical_request(self, session):
        first = session.solve(SolveRequest(relation="fig1"))
        assert not first.cached and session.cache_hits == 0
        second = session.solve(SolveRequest(relation="fig1"))
        assert second.cached and session.cache_hits == 1
        assert second.cost == first.cost
        # A different objective is a different cache entry.
        third = session.solve(SolveRequest(relation="fig1", cost="cubes"))
        assert not third.cached and session.cache_hits == 1
        session.clear_cache()
        assert session.cache_hits == 0


class TestSolveMany:
    def test_ordering_matches_requests(self, session):
        requests = [SolveRequest(relation="fig1", cost=c, label=c)
                    for c in ("size", "size2", "cubes", "literals")]
        reports = session.solve_many(requests, executor="serial")
        assert [r.label for r in reports] == ["size", "size2", "cubes",
                                              "literals"]
        assert all(r.ok and r.compatible for r in reports)

    def test_failure_isolation(self, session):
        requests = [
            SolveRequest(relation="fig1", label="good"),
            SolveRequest(relation="missing", label="bad-name"),
            SolveRequest(relation={"kind": "pla", "text": "garbage"},
                         label="bad-pla"),
            SolveRequest(relation="fig1", cost="cubes", label="good2"),
        ]
        reports = session.solve_many(requests, executor="serial")
        assert [r.ok for r in reports] == [True, False, False, True]
        assert "no relation named" in reports[1].error
        assert reports[2].error is not None
        assert [r.label for r in reports] \
            == ["good", "bad-name", "bad-pla", "good2"]

    def test_node_specs_are_checked_once_per_request(self, monkeypatch):
        """SolveRequest checks a node spec on construction; a serial
        solve_many builds the relation from the checked spec and solves
        under the live request, checking neither again."""
        import repro.api.request as request_module
        import repro.core.relio as relio
        calls = []
        check_nodes = relio.check_nodes

        def counting(data):
            calls.append(data)
            return check_nodes(data)

        monkeypatch.setattr(request_module, "check_nodes", counting)
        monkeypatch.setattr(relio, "check_nodes", counting)
        rows = [FIG1_ROWS, [{0}, {1, 2}, {3}, {0, 3}]]
        requests = [SolveRequest(relation=relation_to_nodes(
            BooleanRelation.from_output_sets(row, 2, 2)).spec(),
            label="r%d" % index) for index, row in enumerate(rows * 2)]
        assert len(calls) == len(requests)
        reports = Session().solve_many(requests, executor="serial")
        assert all(report.ok and report.compatible for report in reports)
        assert len(calls) == len(requests)

    def test_malformed_node_spec_fails_at_construction(self):
        spec = relation_to_nodes(
            BooleanRelation.from_output_sets(FIG1_ROWS, 2, 2)).spec()
        with pytest.raises(ValueError, match="root ref"):
            SolveRequest(relation=dict(spec, root=len(spec["nodes"]) + 2))

    def test_not_well_defined_is_captured(self):
        session = Session()
        session.add_output_sets("partial", [{1}, set(), {0}, {1}], 2, 1)
        reports = session.solve_many(
            [SolveRequest(relation="partial", label="nwd")],
            executor="serial")
        assert not reports[0].ok
        assert "well defined" in reports[0].error

    def test_duplicate_jobs_solved_once(self, session):
        requests = [SolveRequest(relation="fig1", label="a"),
                    SolveRequest(relation="fig1", label="b")]
        reports = session.solve_many(requests, executor="serial")
        assert reports[0].ok and reports[1].ok
        assert not reports[0].cached and reports[1].cached
        assert session.cache_hits == 1

    def test_cache_shared_across_calls(self, session):
        session.solve_many([SolveRequest(relation="fig1")],
                           executor="serial")
        reports = session.solve_many([SolveRequest(relation="fig1")],
                                     executor="serial")
        assert reports[0].cached

    def test_process_pool_two_workers(self, session):
        requests = [SolveRequest(relation="fig1", cost=c, label=c)
                    for c in ("size", "size2", "cubes")]
        requests.append(SolveRequest(relation="missing", label="bad"))
        reports = session.solve_many(requests, max_workers=2,
                                     executor="process")
        assert [r.label for r in reports] == ["size", "size2", "cubes",
                                              "bad"]
        assert [r.ok for r in reports] == [True, True, True, False]
        # Worker solutions come back as templates, re-instantiated live
        # in the caller's manager.
        relation = session.relation("fig1")
        for report in reports[:3]:
            assert report.sop
            assert report.solution.mgr is relation.mgr
            assert relation.is_compatible(report.solution.functions)

    def test_process_executor_hands_back_the_serial_answer(self,
                                                           session):
        # Process jobs solve a private copy of the relation; the answer
        # is handed back in the caller's manager, and the PLA export
        # renders on demand.
        requests = [SolveRequest(relation="fig1", cost=c, label=c)
                    for c in ("size", "size2")]
        reports = session.solve_many(requests, max_workers=2,
                                     executor="process")
        session.clear_cache()  # the serial reference solves afresh
        serial = session.solve_many(requests, executor="serial")
        assert [r.ok for r in reports] == [True, True]
        relation = session.relation("fig1")
        for report, expected in zip(reports, serial):
            assert report.solution.mgr is relation.mgr
            assert report.solution.functions == expected.solution.functions
            assert report.sop and report.solution_pla()

    def test_serial_executor_keeps_solutions(self, session):
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="t")],
            executor="serial")
        assert reports[0].ok
        # In-process execution keeps live Solution handles valid.
        relation = session.relation("fig1")
        assert relation.is_compatible(reports[0].solution.functions)

    def test_caller_mutation_cannot_corrupt_cache(self, session):
        first = session.solve(SolveRequest(relation="fig1"))
        first.solution = None
        first.bdd_sizes.append(999)
        second = session.solve(SolveRequest(relation="fig1"))
        assert second.cached
        assert second.solution is not None
        assert 999 not in second.bdd_sizes

    def test_solve_after_process_batch_still_has_solution(self, session):
        requests = [SolveRequest(relation="fig1", cost=c)
                    for c in ("size", "size2")]
        session.solve_many(requests, max_workers=2, executor="process")
        # The cached batch report has no live solution; Session.solve
        # must honour its live-solution contract by re-solving.
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.solution is not None
        relation = session.relation("fig1")
        assert relation.is_compatible(report.solution.functions)

    def test_bad_executor_rejected(self, session):
        with pytest.raises(ValueError, match="executor"):
            session.solve_many([], executor="carrier-pigeon")

    def test_empty_batch(self, session):
        assert session.solve_many([]) == []

    def test_cached_solution_never_crosses_managers(self, session):
        # Same content, different manager: the snapshot-keyed cache may
        # share *data*, but a live Solution must stay with its manager.
        other = BooleanRelation.from_output_sets(FIG1_ROWS, 2, 2)
        session.add_relation("fig1-other-mgr", other)
        assert other.mgr is not session.relation("fig1").mgr
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="a"),
             SolveRequest(relation="fig1-other-mgr", label="b")],
            executor="serial")
        assert all(r.ok for r in reports)
        for report, relation in zip(reports,
                                    [session.relation("fig1"), other]):
            if report.solution is not None:
                assert report.solution.mgr is relation.mgr
                assert relation.is_compatible(report.solution.functions)

    def test_interactive_solve_distinct_managers(self, session):
        other = BooleanRelation.from_output_sets(FIG1_ROWS, 2, 2)
        session.add_relation("fig1-other-mgr", other)
        first = session.solve(SolveRequest(relation="fig1"))
        second = session.solve(SolveRequest(relation="fig1-other-mgr"))
        # Identity-keyed cache: never a hit across managers.
        assert not second.cached
        assert other.is_compatible(second.solution.functions)
        assert session.relation("fig1").is_compatible(
            first.solution.functions)

    def test_self_contained_specs_without_session_names(self):
        session = Session()
        rows = [[1], [1], [0, 3], [2, 3]]
        spec = {"kind": "output_sets", "rows": rows,
                "num_inputs": 2, "num_outputs": 2}
        reports = session.solve_many(
            [SolveRequest(relation=spec, label="inline")],
            executor="serial")
        assert reports[0].ok and reports[0].compatible


class TestServiceCacheHooks:
    """peek_cached / store_report / SolveRequest.options_key — the
    service layer's window into the session report cache."""

    def test_peek_miss_then_hit(self, session):
        request = SolveRequest(relation="fig1")
        assert session.peek_cached(request) is None
        report = session.solve(request)
        peeked = session.peek_cached(request)
        assert peeked is not None and peeked.cached is True
        assert peeked.sop == report.sop and peeked.cost == report.cost

    def test_peek_does_not_run_the_engine(self, session):
        before = session.engine_stats()
        assert session.peek_cached(SolveRequest(relation="fig1")) is None
        assert session.engine_stats() == before

    def test_peek_serves_data_only_entries(self, session):
        """Unlike solve(), which re-solves when the cached entry lost
        its live solution handle, the service path serves the data-only
        report: wire clients never touch Solution objects."""
        request = SolveRequest(relation="fig1")
        report = session.solve(request)
        session.store_report(request, report)  # stores solution=None
        session.clear_cache()
        session.store_report(request, report)
        peeked = session.peek_cached(request)
        assert peeked is not None
        assert peeked.solution is None
        resolved = session.solve(request)
        assert resolved.cached is False  # solve() still re-solves

    def test_peek_relabels_to_the_caller(self, session):
        session.solve(SolveRequest(relation="fig1", label="first"))
        peeked = session.peek_cached(
            SolveRequest(relation="fig1", label="second"))
        assert peeked.label == "second"
        assert peeked.request["label"] == "second"

    def test_store_report_round_trip_from_wire(self, session):
        """A report that travelled through JSON (the disk tier) can be
        injected and served to identical future requests."""
        import json
        from repro.api import SolveReport
        request = SolveRequest(relation="fig1")
        report = session.solve(request)
        wire = SolveReport.from_dict(json.loads(report.to_json()))
        other = Session()
        other.add_output_sets("fig1", FIG1_ROWS, 2, 2)
        other.store_report(request, wire)
        served = other.peek_cached(request)
        assert served is not None
        assert served.sop == report.sop and served.cost == report.cost

    def test_store_report_refuses_bad_reports(self, session):
        from repro.api import SolveReport
        request = SolveRequest(relation="fig1")
        failed = SolveReport.from_error(ValueError("nope"))
        session.store_report(request, failed)
        assert session.peek_cached(request) is None
        cancelled = session.solve(request).copy(stopped="cancelled")
        session.clear_cache()
        session.store_report(request, cancelled)
        assert session.peek_cached(request) is None

    def test_options_key_is_json_safe_and_label_free(self):
        import json
        a = SolveRequest(relation="fig1", label="x").options_key()
        b = SolveRequest(relation="fig1", label="y").options_key()
        assert a == b
        json.dumps(list(a))
        c = SolveRequest(relation="fig1", cost="cubes").options_key()
        assert a != c


class TestCacheKeySchemaGuard:
    """Regression guard: requests that differ *only* in a field must not
    share a report-cache slot unless that difference cannot change the
    report.  Newly added SolveRequest fields break this test until a
    distinguishing value pair is registered below — forcing the
    cache-key decision to be made consciously."""

    #: field -> two values that must produce distinct cache keys.
    KEYED_FIELDS = {
        "cost": ("size", "cubes"),
        "minimizer": ("isop", "restrict"),
        "strategy": ("bfs", "dfs"),
        "max_explored": (10, 11),
        "fifo_capacity": (64, 32),
        "quick_on_subrelations": (None, False),
        "symmetry_pruning": (False, True),
        "symmetry_max_depth": (2, 3),
        "time_limit_seconds": (None, 60.0),
        "record_trace": (False, True),
        # None (auto) and True shard identically and share a slot; the
        # keyed pair is the effective on/off boundary.
        "decompose": (None, False),
        # Keyed by the *resolved* racer line-up (None and the explicit
        # default line-up share a slot); legal only under
        # strategy="portfolio", hence the BASE_OVERRIDES entry.
        "portfolio_racers": (None, "bfs,dfs"),
    }
    #: Extra base-request fields a KEYED_FIELDS pair needs to be legal.
    BASE_OVERRIDES = {
        "portfolio_racers": {"strategy": "portfolio"},
    }
    #: Fields that deliberately do not key the cache: the relation keys
    #: separately (identity/snapshot/spec), the label only decorates the
    #: report copy, and backend is accepted and ignored.
    EXEMPT_FIELDS = {"relation", "label", "backend"}

    def test_every_field_is_classified(self):
        fields = {f.name for f in dataclasses.fields(SolveRequest)}
        unclassified = fields - set(self.KEYED_FIELDS) - self.EXEMPT_FIELDS
        assert not unclassified, \
            "new SolveRequest field(s) %s: decide whether they join " \
            "SolveRequest.options_key and register them here" \
            % sorted(unclassified)

    def test_keyed_fields_produce_distinct_cache_keys(self):
        base = SolveRequest(relation="fig1")
        for field, (value_a, value_b) in self.KEYED_FIELDS.items():
            request = base.replace(**self.BASE_OVERRIDES.get(field, {}))
            key_a = request.replace(**{field: value_a}).options_key()
            key_b = request.replace(**{field: value_b}).options_key()
            assert key_a != key_b, \
                "requests differing only in %r share a cache key" % field

    def test_default_strategy_shares_a_slot_with_bfs(self):
        default = SolveRequest(relation="fig1")
        explicit = SolveRequest(relation="fig1", strategy="bfs")
        assert default.options_key() == explicit.options_key()


#: Cost, relations_explored and splits of fixed solves.
PINNED = {
    ("vtx", "size"): [92.0, 30, 30],
    ("int7", "literals"): [349.0, 30, 29],
    ("brgen7x7s1", 40): [289.0, 40, 40],
    ("brgen7x7s1", 80): [288.0, 80, 80],
}
COUNTERS = ("relations_explored", "splits")


def pinned_row(report):
    return [report.cost] + [report.stats[key] for key in COUNTERS]


class TestPinnedCounters:
    def test_table2_solves(self):
        session = Session()
        for name, cost in (("vtx", "size"), ("int7", "literals")):
            report = session.solve(SolveRequest(
                relation={"kind": "bench", "name": name}, cost=cost,
                max_explored=30))
            assert pinned_row(report) == PINNED[(name, cost)]

    def test_brgen_solves(self):
        session = Session()
        relation = random_relation(7, 7, seed=1)
        for budget in (40, 80):
            report = session.solve(SolveRequest(max_explored=budget),
                                   relation=relation)
            assert pinned_row(report) == PINNED[("brgen7x7s1", budget)]
