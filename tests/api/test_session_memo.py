"""Session-owned memoisation: ownership, tri-state, batches, and the
cache-key schema-evolution regression guard."""

import dataclasses

import pytest

from repro.api import MemoStore, Session, SolveRequest

ROWS = [[0b01], [0b01], [0b00, 0b11], [0b10, 0b11]]


def make_session(**kwargs):
    session = Session(**kwargs)
    session.add_output_sets("fig1", [set(row) for row in ROWS], 2, 2)
    return session


def spec_request(**kwargs):
    return SolveRequest(relation={"kind": "output_sets", "rows": ROWS,
                                  "num_inputs": 2, "num_outputs": 2},
                        **kwargs)


class TestSessionOwnership:
    def test_session_owns_a_store_and_surfaces_stats(self):
        session = make_session()
        assert isinstance(session.memo, MemoStore)
        assert session.engine_stats()["memo"] == session.memo_stats()
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.ok
        assert session.memo_stats()["entries"] > 0
        assert report.stats["memo_stores"] > 0

    def test_store_shared_across_solves(self):
        session = make_session()
        session.solve(SolveRequest(relation="fig1"))
        session.clear_cache()  # force a genuine re-solve
        warm = session.solve(SolveRequest(relation="fig1"))
        assert warm.cached is False
        assert warm.stats["memo_hits"] > 0
        assert warm.stats["memo_misses"] == 0

    def test_disable_enable_clear(self):
        session = make_session()
        session.disable_memo()
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.stats["memo_stores"] == 0
        assert session.memo_stats()["entries"] == 0
        session.enable_memo()
        session.clear_cache()
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.stats["memo_stores"] > 0
        session.clear_memo()
        assert session.memo_stats()["entries"] == 0

    def test_trim_trims_the_store(self):
        session = make_session(memo_capacity=4)
        for index in range(6):
            session.memo.put(("filler", index), index)
        session.trim()
        assert session.memo_stats()["entries"] <= 2

    def test_disable_memo_bypasses_memoised_cache_entries(self):
        """Toggling the session default must not serve reports solved
        under the other setting: the report cache keys on the effective
        memo decision, so a post-disable solve runs cold (memo_* = 0)
        instead of replaying the memoised report."""
        session = make_session()
        warm = session.solve(SolveRequest(relation="fig1"))
        assert warm.stats["memo_stores"] > 0
        session.disable_memo()
        cold = session.solve(SolveRequest(relation="fig1"))
        assert cold.cached is False
        assert cold.stats["memo_hits"] == 0
        assert cold.stats["memo_stores"] == 0
        assert cold.sop == warm.sop and cold.cost == warm.cost
        session.enable_memo()
        again = session.solve(SolveRequest(relation="fig1"))
        assert again.cached is True  # the memoised entry is still there
        # Cache-served copies report zero memo work of their own: the
        # stores happened on the original solve, not this request.
        assert again.stats["memo_stores"] == 0

    def test_memo_disabled_session_results_identical(self):
        enabled = make_session()
        disabled = make_session(memo_enabled=False)
        a = enabled.solve(SolveRequest(relation="fig1"))
        b = disabled.solve(SolveRequest(relation="fig1"))
        assert a.sop == b.sop and a.cost == b.cost
        assert b.stats["memo_hits"] == b.stats["memo_misses"] == 0


class TestRequestTriState:
    def test_request_false_opts_out(self):
        session = make_session()
        report = session.solve(SolveRequest(relation="fig1", memo=False))
        assert report.stats["memo_stores"] == 0
        assert session.memo_stats()["entries"] == 0

    def test_request_true_overrides_disabled_session(self):
        session = make_session(memo_enabled=False)
        report = session.solve(SolveRequest(relation="fig1", memo=True))
        assert report.stats["memo_stores"] > 0
        assert session.memo_stats()["entries"] > 0

    def test_memo_field_round_trips(self):
        request = SolveRequest(relation="fig1", memo=False)
        assert SolveRequest.from_dict(request.to_dict()) == request
        legacy = {"relation": "fig1"}  # pre-memo dict
        assert SolveRequest.from_dict(legacy).memo is None


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
        "memo": (None, False),
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
    #: report copy, mode folds into the effective strategy, the
    #: portfolio executor — like the block executor — is an execution
    #: detail that cannot change the winning cost, and backend is
    #: accepted and ignored.
    EXEMPT_FIELDS = {"relation", "label", "mode", "portfolio_executor",
                     "backend"}

    def test_every_field_is_classified(self):
        fields = {f.name for f in dataclasses.fields(SolveRequest)}
        unclassified = fields - set(self.KEYED_FIELDS) - self.EXEMPT_FIELDS
        assert not unclassified, \
            "new SolveRequest field(s) %s: decide whether they join " \
            "Session._options_key and register them here" \
            % sorted(unclassified)

    def test_keyed_fields_produce_distinct_cache_keys(self):
        session = make_session()
        base = SolveRequest(relation="fig1")
        for field, (value_a, value_b) in self.KEYED_FIELDS.items():
            request = base.replace(**self.BASE_OVERRIDES.get(field, {}))
            key_a = session._options_key(
                request.replace(**{field: value_a}))
            key_b = session._options_key(
                request.replace(**{field: value_b}))
            assert key_a != key_b, \
                "requests differing only in %r share a cache key" % field

    def test_identical_pla_different_memo_not_cross_served(self):
        """Two spec solves whose PLA snapshots render identically but
        whose requests differ only in the new ``memo`` field must be
        solved (and cached) separately."""
        session = make_session()
        first = session.solve(spec_request(memo=True))
        second = session.solve(spec_request(memo=False))
        assert first.ok and second.ok
        assert second.cached is False
        assert session.cache_hits == 0
        # Same options do cross-serve — the cache still works.
        again = session.solve(spec_request(memo=True))
        assert again.cached is True and session.cache_hits == 1

    def test_mode_alias_still_shares_a_slot_with_strategy(self):
        session = make_session()
        with pytest.warns(DeprecationWarning):
            via_mode = SolveRequest(relation="fig1", mode="dfs")
        via_strategy = SolveRequest(relation="fig1", strategy="dfs")
        assert session._options_key(via_mode) \
            == session._options_key(via_strategy)


class TestBatchMemo:
    def test_serial_batch_uses_live_store(self):
        session = make_session()
        session.solve(SolveRequest(relation="fig1"))
        session.clear_cache()
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="a")],
            executor="serial")
        assert reports[0].ok
        assert reports[0].stats["memo_hits"] > 0

    def test_process_batch_seeds_workers_and_merges_counters(self):
        session = make_session()
        session.solve(SolveRequest(relation="fig1"))  # warm the store
        session.clear_cache()
        hits_before = session.memo.hits
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="p")],
            executor="process")
        assert reports[0].ok
        assert reports[0].stats["memo_hits"] > 0, \
            "worker store was not pre-seeded from the parent"
        assert session.memo.hits > hits_before, \
            "worker memo counters were not merged back"

    def test_process_batch_memo_false_unseeded(self):
        session = make_session()
        session.solve(SolveRequest(relation="fig1"))
        session.clear_cache()
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="p", memo=False)],
            executor="process")
        assert reports[0].ok
        assert reports[0].stats["memo_hits"] == 0
        assert reports[0].stats["memo_stores"] == 0

    def test_process_batch_parity_with_memo(self):
        """Whatever executor path runs (process pool or its in-process
        fallback), memo on/off must agree on the result."""
        session = make_session()
        with_memo = session.solve_many(
            [SolveRequest(relation="fig1", label="m")])
        session.clear_cache()
        without = session.solve_many(
            [SolveRequest(relation="fig1", label="n", memo=False)])
        assert with_memo[0].ok and without[0].ok
        assert with_memo[0].sop == without[0].sop
        assert with_memo[0].cost == without[0].cost
