"""Tests for ResynthRequest / ResynthReport (validation, wire format)."""

import dataclasses

import pytest

from repro.resynth import (MAX_VERIFY_VECTORS, RESYNTH_SCHEMA_VERSION,
                           ResynthReport, ResynthRequest, load_circuit,
                           normalize_circuit_spec)


class TestCircuitSpecs:
    def test_bare_name_is_a_bench_spec(self):
        assert normalize_circuit_spec("s27") == \
            {"kind": "bench", "name": "s27"}

    def test_tagged_specs_pass_through(self):
        assert normalize_circuit_spec({"kind": "blif", "text": ".model"}) \
            == {"kind": "blif", "text": ".model"}
        assert normalize_circuit_spec({"kind": "file", "path": "x.blif"}) \
            == {"kind": "file", "path": "x.blif"}

    @pytest.mark.parametrize("bad", [
        {"kind": "bench"}, {"kind": "blif"}, {"kind": "file"},
        {"kind": "magic"}, 42, ["s27"],
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize_circuit_spec(bad)

    def test_load_bench_circuit(self):
        net = load_circuit("s27")
        assert net.node_count() > 0

    def test_load_blif_text(self, tmp_path):
        from repro.benchdata import S27_BLIF
        assert load_circuit({"kind": "blif",
                             "text": S27_BLIF}).node_count() > 0
        path = tmp_path / "c.blif"
        path.write_text(S27_BLIF)
        assert load_circuit({"kind": "file",
                             "path": str(path)}).node_count() > 0


class TestRequestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"passes": 0},
        {"window": 0},
        {"window": 17},
        {"tfo_depth": -1},
        {"cut_policy": "magic"},
        {"max_nodes": 0},
        {"executor": "fork"},
        {"verify": "hope"},
        {"verify_exhaustive_limit": 17},
        {"verify_vectors": 0},
        {"cost": "no-such-cost"},
        {"minimizer": "no-such-minimizer"},
        {"strategy": "no-such-strategy"},
    ])
    def test_bad_values_rejected_eagerly(self, kwargs):
        with pytest.raises((ValueError, KeyError)):
            ResynthRequest(circuit="s27", **kwargs)

    @pytest.mark.parametrize("value", [0, -1, MAX_VERIFY_VECTORS + 1,
                                       10 ** 8, True, 256.0, "256", None])
    def test_verify_vectors_outside_the_bound(self, value):
        with pytest.raises(ValueError) as excinfo:
            ResynthRequest(circuit="s27", verify_vectors=value)
        message = str(excinfo.value)
        assert "verify_vectors" in message and repr(value) in message

    @pytest.mark.parametrize("field,value", [
        ("passes", "2"), ("passes", 2.5), ("passes", True),
        ("passes", None), ("window", None), ("window", 8.0),
        ("window", "8"), ("tfo_depth", "1"), ("tfo_depth", 1.5),
        ("tfo_depth", False), ("max_nodes", "x"), ("max_nodes", 2.5),
        ("max_nodes", True), ("verify_exhaustive_limit", None),
        ("verify_exhaustive_limit", 2.5), ("seed", [1]), ("seed", None),
        ("seed", 1.0), ("seed", "0"), ("seed", True),
    ])
    def test_int_fields_must_be_ints(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            ResynthRequest(circuit="s27", **{field: value})
        message = str(excinfo.value)
        assert field in message and repr(value) in message

    @pytest.mark.parametrize("kwargs", [
        {"passes": 1}, {"window": 1}, {"window": 16}, {"tfo_depth": 0},
        {"max_nodes": None}, {"max_nodes": 1},
        {"verify_exhaustive_limit": 0}, {"verify_exhaustive_limit": 16},
        {"seed": -3}, {"seed": 10 ** 30},
    ])
    def test_int_fields_in_range_accepted(self, kwargs):
        request = ResynthRequest(circuit="s27", **kwargs)
        for field, value in kwargs.items():
            assert getattr(request, field) == value

    @pytest.mark.parametrize("value", ["x", 0, -2, True, 2.5])
    def test_bad_workers_rejected(self, value):
        with pytest.raises(ValueError) as excinfo:
            ResynthRequest(circuit="s27", executor="process",
                           workers=value)
        message = str(excinfo.value)
        assert "workers" in message and repr(value) in message

    @pytest.mark.parametrize("value", [None, 1, 4])
    def test_good_workers_accepted(self, value):
        assert ResynthRequest(circuit="s27", workers=value).workers \
            == value

    def test_verify_vectors_bound_is_inclusive(self):
        assert MAX_VERIFY_VECTORS == 1 << 16
        for value in (1, MAX_VERIFY_VECTORS):
            assert ResynthRequest(circuit="s27",
                                  verify_vectors=value).verify_vectors \
                == value

    def test_circuit_normalised_at_construction(self):
        request = ResynthRequest(circuit="s27")
        assert request.circuit == {"kind": "bench", "name": "s27"}

    def test_solver_request_inherits_knobs(self):
        request = ResynthRequest(circuit="s27", cost="cubes",
                                 max_explored=7, memo=False)
        solve = request.solver_request({"kind": "pla",
                                        "text": ".i 1\n.o 1\n0 0\n"
                                                "1 1\n.e\n"},
                                       label="x")
        assert solve.cost == "cubes"
        assert solve.max_explored == 7
        assert solve.memo is False
        assert solve.label == "x"


class TestRequestWire:
    def test_json_round_trip(self):
        request = ResynthRequest(circuit="s27", passes=3, window=6,
                                 cut_policy="reconvergent",
                                 executor="process", label="rt")
        assert ResynthRequest.from_json(request.to_json()) == request

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ResynthRequest.from_dict({"circuit": "s27", "bogus": 1})


class TestOptionsKey:
    #: Fields deliberately excluded from the cache key: the circuit is
    #: fingerprinted separately, and these cannot change the result.
    NON_RESULT_FIELDS = {"circuit", "executor", "workers", "label"}

    def test_schema_guard_every_field_is_accounted_for(self):
        """Adding a result-affecting field must extend options_key()."""
        request = ResynthRequest(circuit="s27")
        key = request.options_key()
        for field in dataclasses.fields(ResynthRequest):
            if field.name in self.NON_RESULT_FIELDS:
                continue
            value = getattr(request, field.name)
            assert value in key, (
                "ResynthRequest.%s (=%r) is missing from options_key(); "
                "either add it there or list it in NON_RESULT_FIELDS"
                % (field.name, value))

    def test_non_result_fields_do_not_split_the_key(self):
        base = ResynthRequest(circuit="s27")
        assert base.options_key() == ResynthRequest(
            circuit="s27", executor="process", workers=3,
            label="other").options_key()

    def test_result_fields_split_the_key(self):
        base = ResynthRequest(circuit="s27")
        assert base.options_key() != ResynthRequest(
            circuit="s27", passes=3).options_key()
        assert base.options_key() != ResynthRequest(
            circuit="s27", seed=1).options_key()


class TestReportWire:
    def test_json_round_trip(self):
        report = ResynthReport(ok=True, circuit="s27",
                               literals_before=18, literals_after=18,
                               literal_savings=0,
                               passes=[{"pass": 0, "accepted": 0}],
                               equivalent=True)
        back = ResynthReport.from_json(report.to_json())
        assert back == report
        assert back.schema_version == RESYNTH_SCHEMA_VERSION

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ResynthReport.from_dict({"ok": True, "mystery": 1})

    def test_from_error_captures_the_exception(self):
        report = ResynthReport.from_error(ValueError("boom"),
                                          label="bad")
        assert not report.ok
        assert report.label == "bad"
        assert "ValueError" in report.error and "boom" in report.error

    def test_copy_shares_no_mutable_state(self):
        report = ResynthReport(ok=True, request={"passes": 2},
                               passes=[{"pass": 0}])
        clone = report.copy(cached=True)
        clone.passes[0]["pass"] = 99
        clone.request["passes"] = 99
        assert report.passes[0]["pass"] == 0
        assert report.request["passes"] == 2
        assert clone.cached and not report.cached

    def test_summary_mentions_the_verdict(self):
        ok = ResynthReport(ok=True, circuit="s27", literals_before=18,
                           literals_after=12, literal_savings=6,
                           equivalent=True)
        assert "equivalent" in ok.summary()
        bad = ResynthReport.from_error(RuntimeError("x"), label="s27")
        assert "FAILED" in bad.summary()
