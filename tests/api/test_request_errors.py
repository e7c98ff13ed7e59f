"""One taxonomy of request faults, and one error for an unknown name."""

from __future__ import annotations

import json

import pytest

from repro.api import Session, SolveReport, SolveRequest
from repro.api.registry import get_cost, get_minimizer, get_strategy
from repro.api.request import (REQUEST_ERRORS, load_manifest,
                               merge_manifest_jobs, read_json)
from repro.benchdata import instance_by_name
from repro.benchdata.circuits import circuit_by_name
from repro.core import BrelOptions
from repro.core.explore import (UnknownNameError, check_executor, check_int,
                                get_strategy_factory, lookup_name,
                                value_repr)
from repro.core.minimize import get_minimizer as core_get_minimizer
from repro.core.portfolio import normalize_racers
from repro.resynth import ResynthReport, ResynthRequest
from repro.service import SolveService


#: Deeper than the JSON decoder recurses on any supported Python
#: (3.12 decodes 1,000 levels and 3.13 5,000).
DEEP = 100_000


class TestRequestErrors:
    def test_the_two_classes(self):
        assert REQUEST_ERRORS == (ValueError, OSError)

    def test_an_unknown_name_is_one(self):
        assert issubclass(UnknownNameError, REQUEST_ERRORS)
        assert issubclass(UnknownNameError, KeyError)


class TestUnknownNames:
    @pytest.mark.parametrize("lookup,name,text", [
        (instance_by_name, "nope", "unknown BR benchmark 'nope'"),
        (circuit_by_name, "s2", "unknown circuit 's2' — did you mean "
                                "'s27'?"),
        (core_get_minimizer, "isp", "unknown ISF minimizer 'isp' — did "
                                    "you mean 'isop'?"),
        (get_minimizer, "isp", "unknown minimizer 'isp' — did you mean "
                               "'isop'?"),
        (get_cost, "sise", "unknown cost function 'sise' — did you mean "
                           "'size'?"),
        (get_strategy, "dsf", "unknown strategy 'dsf'"),
        (get_strategy_factory, "best-frist",
         "unknown strategy 'best-frist' — did you mean 'best-first'?"),
        (Session().relation, "nope",
         "no relation named 'nope' in this session (registered: none)"),
    ])
    def test_every_lookup_raises_one_class(self, lookup, name, text):
        with pytest.raises(UnknownNameError) as excinfo:
            lookup(name)
        message = str(excinfo.value)
        assert message.startswith(text)
        assert "(registered: " in message
        assert not message.startswith(('"', "'"))

    def test_the_message_lists_the_registered_names(self):
        with pytest.raises(KeyError) as excinfo:
            lookup_name({"b": 1, "a": 2}, "c", "unknown thing %r")
        assert str(excinfo.value) == "unknown thing 'c' (registered: a, b)"
        with pytest.raises(ValueError, match=r"\(registered: none\)$"):
            lookup_name({}, "c", "unknown thing %r")

    def test_options_and_racers_raise_it_unchanged(self):
        for build in (lambda: BrelOptions(strategy="bsf"),
                      lambda: normalize_racers(["bfs", "bsf"])):
            with pytest.raises(UnknownNameError) as excinfo:
                build()
            assert str(excinfo.value).startswith(
                "unknown strategy 'bsf' — did you mean 'bfs'?")


class TestManifests:
    @pytest.mark.parametrize("data,text", [
        ({"defaults": 5, "jobs": [{}]},
         "manifest 'defaults' must be a JSON object, got 5"),
        ({"defaults": [1], "jobs": [{}]},
         "manifest 'defaults' must be a JSON object, got [1]"),
        ({"jobs": 5}, "manifest 'jobs' must be a JSON list, got 5"),
        ({"jobs": "ab"}, "manifest 'jobs' must be a JSON list, got 'ab'"),
        ({}, "manifest 'jobs' must be a JSON list, got None"),
        (5, "manifest must be a JSON list or object"),
    ])
    def test_shapes_name_their_field(self, data, text):
        with pytest.raises(ValueError) as excinfo:
            merge_manifest_jobs(data)
        assert str(excinfo.value) == text

    def test_a_non_str_file_path_is_left_to_the_request(self):
        jobs = merge_manifest_jobs(
            [{"relation": {"kind": "file", "path": 5}}], base="/corpus")
        assert jobs[0]["relation"]["path"] == 5

    def test_deep_nesting_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="nested too deeply"):
            read_json("[" * DEEP + "]" * DEEP)
        path = tmp_path / "deep.json"
        path.write_text("{\"jobs\": " + "[" * DEEP + "]" * DEEP + "}")
        with pytest.raises(ValueError, match="nested too deeply"):
            load_manifest(str(path))

    def test_shallow_json_reads_as_json_loads(self):
        text = json.dumps({"jobs": [[[1]]], "a": "[[["})
        assert read_json(text) == json.loads(text)


class TestNonStrKeys:
    @pytest.mark.parametrize("cls", [SolveRequest, ResynthRequest,
                                     SolveReport, ResynthReport])
    def test_from_dict_names_them(self, cls):
        with pytest.raises(ValueError) as excinfo:
            cls.from_dict({1: 2})
        assert str(excinfo.value) == "unknown %s fields: 1" % cls.__name__
        with pytest.raises(ValueError) as excinfo:
            cls.from_dict({2: 0, "zz": 1, 10: 3})
        assert str(excinfo.value).endswith("fields: 10, 2, zz")


def nested(depth, leaf=0, wrap=list):
    value = leaf
    for _ in range(depth):
        value = wrap([value])
    return value


#: One request value of every JSON type, nested six levels.
SHALLOW = [{"b": [1, -2.5, None], "a": {"y": "it's", "x": True}},
           [[[[["é", 10 ** 40, (3,), ()]]]]], "", {}, [], 0.1]


class TestDeepValues:
    """A refused value reads as ``repr`` reads it down to six levels,
    and a deeper one never recurses past the interpreter's limit."""

    @pytest.mark.parametrize("value", SHALLOW)
    def test_shallow_values_read_as_repr(self, value):
        assert value_repr(value) == repr(value)

    def test_deeper_values_are_cut(self):
        assert value_repr(nested(7)) == "[[[[[[[...]]]]]]]"
        assert value_repr(nested(7, wrap=lambda v: {"k": v[0]})) \
            == "{'k': {'k': {'k': {'k': {'k': {'k': {...}}}}}}}"
        assert value_repr(nested(100_000)) == value_repr(nested(7))

    @pytest.mark.parametrize("build", [
        lambda deep: check_int("max_explored", deep, 0, None, True),
        lambda deep: check_executor("executor", deep),
        lambda deep: SolveService().batch({"jobs": [], "workers": deep}),
        lambda deep: SolveRequest(max_explored=deep),
        lambda deep: SolveRequest(relation=deep),
        lambda deep: SolveRequest(relation={"kind": deep}),
        lambda deep: SolveRequest(cost=deep),
        lambda deep: SolveRequest(label=deep),
        lambda deep: SolveRequest(time_limit_seconds=deep),
        lambda deep: SolveRequest(relation={
            "kind": "output_sets", "rows": deep, "num_inputs": 1,
            "num_outputs": 1}),
        lambda deep: SolveRequest(relation={
            "kind": "output_sets", "rows": [[0], [0]], "num_inputs": deep,
            "num_outputs": 1}),
        lambda deep: SolveRequest(relation={
            "kind": "truth_tables", "tables": [deep], "num_inputs": 1}),
        lambda deep: SolveRequest(relation={
            "kind": "pla", "text": deep}),
        lambda deep: SolveRequest(relation={
            "kind": "nodes", "inputs": [0], "outputs": [1],
            "nodes": [[0, 0, 1]], "root": deep}),
        lambda deep: SolveRequest(relation={
            "kind": "nodes", "inputs": [0], "outputs": [1],
            "nodes": [[0, 0, deep]], "root": 2}),
        lambda deep: normalize_racers([{"strategy": deep}]),
        lambda deep: normalize_racers([{"strategy": "bfs", "name": deep}]),
        lambda deep: merge_manifest_jobs({"defaults": deep, "jobs": []}),
        lambda deep: merge_manifest_jobs({"jobs": {"k": deep}}),
        lambda deep: ResynthRequest(circuit={"kind": deep}),
        lambda deep: ResynthRequest(cut_policy=deep),
        lambda deep: ResynthRequest(verify=deep),
    ])
    def test_checks_refuse_a_deep_value(self, build):
        with pytest.raises(ValueError) as excinfo:
            build(nested(100_000))
        assert "[[[[[[...]]]]]]" in str(excinfo.value)
