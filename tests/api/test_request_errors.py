"""One taxonomy of request faults, and one error for an unknown name."""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.api.registry import get_cost, get_minimizer, get_strategy
from repro.api.request import (REQUEST_ERRORS, load_manifest,
                               merge_manifest_jobs, read_json)
from repro.benchdata import instance_by_name
from repro.benchdata.circuits import circuit_by_name
from repro.core import BrelOptions
from repro.core.explore import (UnknownNameError, get_strategy_factory,
                                lookup_name)
from repro.core.minimize import get_minimizer as core_get_minimizer
from repro.core.portfolio import normalize_racers


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
