"""SolveRequest: serialisation round-trips and eager validation."""

import json

import pytest

from repro.api import (SolveRequest, build_relation, cost_registry,
                       minimizer_registry, normalize_relation_spec,
                       register_cost, register_minimizer)
from repro.api.request import truth_tables_to_output_sets
from repro.core import BooleanRelation, BrelOptions, bdd_size_squared_cost
from repro.core.minimize import minimize_restrict
from repro.core.relio import write_relation

FIG1_ROWS = [[1], [1], [0, 3], [2, 3]]


def fig1_spec():
    return {"kind": "output_sets", "rows": FIG1_ROWS,
            "num_inputs": 2, "num_outputs": 2}


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        request = SolveRequest(relation=fig1_spec(), cost="size2",
                               minimizer="restrict", strategy="dfs",
                               max_explored=77, fifo_capacity=None,
                               symmetry_pruning=True,
                               time_limit_seconds=1.5, label="rt")
        assert SolveRequest.from_dict(request.to_dict()) == request

    def test_json_round_trip_identity(self):
        request = SolveRequest(relation=fig1_spec(), label="json-rt")
        assert SolveRequest.from_json(request.to_json()) == request

    def test_to_dict_is_json_ready(self):
        request = SolveRequest(relation=fig1_spec())
        # json.dumps must not choke on tuples/sets leaking through.
        parsed = json.loads(json.dumps(request.to_dict()))
        assert parsed["relation"]["rows"] == FIG1_ROWS

    def test_container_types_normalised(self):
        as_lists = SolveRequest(relation={"kind": "output_sets",
                                          "rows": [[1], [1], [3, 0],
                                                   [3, 2]],
                                          "num_inputs": 2,
                                          "num_outputs": 2})
        as_tuples = SolveRequest(relation={"kind": "output_sets",
                                           "rows": ((1,), (1,), (0, 3),
                                                    (2, 3)),
                                           "num_inputs": 2,
                                           "num_outputs": 2})
        assert as_lists == as_tuples

    def test_string_relation_is_name_shorthand(self):
        request = SolveRequest(relation="some-name")
        assert request.relation == {"kind": "name", "name": "some-name"}
        assert SolveRequest.from_dict(request.to_dict()) == request


class TestStrategyField:
    def test_json_round_trip(self):
        request = SolveRequest(relation=fig1_spec(),
                               strategy="best-first", label="bf")
        text = request.to_json()
        again = SolveRequest.from_json(text)
        assert again == request
        assert json.loads(text)["strategy"] == "best-first"

    def test_default_strategy_is_none_meaning_bfs(self):
        request = SolveRequest(relation=fig1_spec())
        assert request.strategy is None
        assert request.exploration_strategy() == "bfs"
        assert request.to_options().exploration_strategy() == "bfs"

    def test_unknown_strategy_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean"):
            SolveRequest(strategy="best-frist")

    def test_pre_strategy_json_still_loads(self):
        # A schema-1 era request dict (no strategy/record_trace keys)
        # that never set the retired ``mode`` alias must keep
        # deserialising.
        request = SolveRequest(relation=fig1_spec())
        old = request.to_dict()
        del old["strategy"]
        del old["record_trace"]
        assert SolveRequest.from_dict(old) == request

    def test_from_options_carries_strategy(self):
        options = BrelOptions(strategy="beam", record_trace=True)
        request = SolveRequest.from_options(options)
        assert request.strategy == "beam"
        assert request.record_trace is True
        rebuilt = request.to_options()
        assert rebuilt.exploration_strategy() == "beam"
        assert rebuilt.record_trace is True


class TestValidation:
    def test_unknown_cost_rejected(self):
        with pytest.raises(ValueError, match="cost must be one of"):
            SolveRequest(cost="no-such-cost")

    def test_unknown_minimizer_rejected(self):
        with pytest.raises(ValueError, match="minimizer must be one of"):
            SolveRequest(minimizer="no-such-minimizer")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            SolveRequest(strategy="sideways")

    @pytest.mark.parametrize("field,value", [("memo", False),
                                             ("mode", "dfs")])
    def test_retired_fields_rejected(self, field, value):
        with pytest.raises(TypeError):
            SolveRequest(relation=fig1_spec(), **{field: value})
        with pytest.raises(ValueError,
                           match="unknown SolveRequest fields: %s" % field):
            SolveRequest.from_dict({"relation": fig1_spec(),
                                    field: value})

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            SolveRequest(max_explored=-1)
        with pytest.raises(ValueError):
            SolveRequest(fifo_capacity=-5)

    def test_unknown_relation_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown relation kind"):
            SolveRequest(relation={"kind": "telepathy"})

    def test_malformed_relation_spec_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            SolveRequest(relation={"kind": "pla"})
        with pytest.raises(ValueError, match="malformed"):
            SolveRequest(relation={"kind": "pla", "text": "x",
                                   "bogus": 1})

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SolveRequest"):
            SolveRequest.from_dict({"relation": "r", "costt": "size"})

    def test_out_of_range_output_vertex_rejected(self):
        spec = {"kind": "output_sets", "rows": [[5], [9], [-1], [2]],
                "num_inputs": 2, "num_outputs": 2}
        with pytest.raises(ValueError, match="row 0: output vertex 5"):
            SolveRequest.from_dict({"relation": spec})
        with pytest.raises(ValueError, match="expected 4 rows"):
            SolveRequest(relation=dict(spec, rows=[[0]]))

    def test_out_of_range_truth_table_rejected(self):
        spec = {"kind": "truth_tables", "tables": [6, 99],
                "num_inputs": 2}
        with pytest.raises(ValueError, match="table 1: 99"):
            SolveRequest.from_dict({"relation": spec})
        with pytest.raises(ValueError, match="table 0: -1"):
            truth_tables_to_output_sets([-1], 2)
        # The largest table in range is accepted.
        assert build_relation(dict(spec, tables=[15])).is_well_defined()


class TestOptionsBridge:
    def test_to_options_resolves_callables(self):
        request = SolveRequest(cost="size2", minimizer="restrict",
                               strategy="dfs", max_explored=5)
        options = request.to_options()
        assert options.cost_function is bdd_size_squared_cost
        assert options.minimizer is minimize_restrict
        assert options.strategy == "dfs" and options.max_explored == 5

    def test_from_options_round_trip(self):
        options = BrelOptions(cost_function=bdd_size_squared_cost,
                              minimizer=minimize_restrict, strategy="dfs",
                              max_explored=3, fifo_capacity=None)
        request = SolveRequest.from_options(options, label="x")
        rebuilt = request.to_options()
        assert rebuilt == options

    def test_from_options_requires_registered_callables(self):
        options = BrelOptions(cost_function=lambda mgr, fns: 0.0)
        with pytest.raises(ValueError, match="not registered"):
            SolveRequest.from_options(options)


class TestRegistries:
    def test_register_cost_decorator_and_unregister(self):
        @register_cost("test-constant-cost")
        def constant(mgr, functions):
            return 42.0

        try:
            request = SolveRequest(cost="test-constant-cost")
            assert request.to_options().cost_function is constant
        finally:
            cost_registry.unregister("test-constant-cost")
        with pytest.raises(ValueError, match="test-constant-cost"):
            SolveRequest(cost="test-constant-cost")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_cost("size", lambda mgr, fns: 0.0)

    def test_register_minimizer_visible_to_core(self):
        from repro.core.minimize import get_minimizer

        def custom(isf):
            return isf.on

        register_minimizer("test-on-set", custom)
        try:
            # One registry: core's lookup sees api registrations.
            assert get_minimizer("test-on-set") is custom
        finally:
            minimizer_registry.unregister("test-on-set")


class TestBuildRelation:
    def test_output_sets(self):
        relation = build_relation(fig1_spec())
        assert relation.output_set(2) == {0, 3}

    def test_pla_text(self):
        reference = BooleanRelation.from_output_sets(
            [set(r) for r in FIG1_ROWS], 2, 2)
        relation = build_relation({"kind": "pla",
                                   "text": write_relation(reference)})
        assert [outs for _, outs in relation.rows()] \
            == [outs for _, outs in reference.rows()]

    def test_truth_tables(self):
        # f0 = x0, f1 = x1 over 2 inputs: tables indexed by vertex bitmask.
        relation = build_relation({"kind": "truth_tables",
                                   "tables": [0b1010, 0b1100],
                                   "num_inputs": 2})
        assert relation.is_function()
        assert relation.output_set(0b01) == {0b01}
        assert relation.output_set(0b10) == {0b10}

    def test_bench(self):
        relation = build_relation({"kind": "bench", "name": "int1"})
        assert len(relation.inputs) == 4 and len(relation.outputs) == 3

    def test_equations(self):
        relation = build_relation({
            "kind": "equations",
            "equations": ["x*y = 0", "x + y = a"],
            "independents": ["a"],
            "dependents": ["x", "y"]})
        assert relation.is_well_defined()

    def test_name_needs_session(self):
        with pytest.raises(ValueError, match="session name"):
            build_relation("registered-somewhere")
