"""Whose fault a failure is: the request's is a 400, the program's a 500.

A request's fault is one of :data:`repro.api.request.REQUEST_ERRORS`
(a ``ValueError`` or an ``OSError``); anything raised after a request
was accepted is the program's, so an engine fault is a 500 on every
route, and every failed request is counted once in
``request_counts["errors"]``.
"""

import json

import pytest

from repro.api.request import REQUEST_ERRORS
from repro.service import ServiceError, SolveService
from repro.service.http import respond

VTX = {"relation": {"kind": "bench", "name": "vtx"}, "max_explored": 5}
S27 = {"circuit": "s27", "passes": 1, "max_explored": 8}

#: Deeper than the JSON decoder recurses on any supported Python
#: (3.12 decodes 1,000 levels and 3.13 5,000).
DEEP = 100_000


def post(service, path, payload=None, body=None):
    """``(status, error text or None)`` of one POST, a stream drained."""
    if body is None:
        body = json.dumps(payload).encode()
    response = respond(service, "POST", path, body)
    if response.frames is not None:
        list(response.frames)
    if response.status == 200:
        return response.status, None
    return response.status, json.loads(response.body)["error"]


def plant(monkeypatch, target, exc):
    """Make ``target`` (``module.attribute``) raise ``exc``."""
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(target, broken)


class TestEngineFaultsAre500:
    @pytest.mark.parametrize("exc", [TypeError("planted in quick_solve"),
                                     KeyError("planted"),
                                     IndexError("planted")])
    @pytest.mark.parametrize("path", ["/solve", "/solve/stream"])
    def test_solve_routes(self, monkeypatch, path, exc):
        plant(monkeypatch, "repro.core.brel.quick_solve", exc)
        service = SolveService()
        status, error = post(service, path, VTX)
        assert status == 500
        assert error == "internal error: %s" % exc
        assert service.request_counts["errors"] == 1
        assert service.tier_hits == {"ram": 0, "disk": 0, "engine": 0}

    @pytest.mark.parametrize("exc", [TypeError("planted"),
                                     KeyError("planted")])
    def test_solve_report_fault(self, monkeypatch, exc):
        plant(monkeypatch, "repro.api.session._solve_report", exc)
        service = SolveService()
        assert post(service, "/solve", VTX)[0] == 500
        assert service.request_counts["errors"] == 1

    @pytest.mark.parametrize("exc", [TypeError("planted in mining"),
                                     KeyError("planted")])
    def test_resynth(self, monkeypatch, exc):
        plant(monkeypatch, "repro.resynth.pipeline._mine_candidates", exc)
        service = SolveService()
        status, error = post(service, "/resynth", S27)
        assert status == 500
        assert error == "internal error: %s" % exc
        assert service.request_counts["errors"] == 1
        assert service._resynth_cache == {}

    def test_the_stream_and_the_solve_agree(self, monkeypatch):
        plant(monkeypatch, "repro.core.brel.quick_solve",
              TypeError("planted"))
        service = SolveService()
        assert post(service, "/solve", VTX) \
            == post(service, "/solve/stream", VTX)
        assert service.request_counts["errors"] == 2


class TestRequestFaultsAre400:
    @pytest.mark.parametrize("path", ["/solve", "/solve/stream"])
    @pytest.mark.parametrize("relation,text", [
        ({"kind": "bench", "name": "nope"}, "unknown BR benchmark 'nope'"),
        ("nope", "no relation named 'nope' in this session"),
    ])
    def test_unknown_relation_names_read_unescaped(self, path, relation,
                                                   text):
        service = SolveService()
        status, error = post(service, path, {"relation": relation})
        assert status == 400
        assert text in error and '"' not in error
        assert service.request_counts["errors"] == 1

    def test_unknown_circuit_reads_unescaped(self):
        service = SolveService()
        status, error = post(service, "/resynth", {"circuit": "nope"})
        assert status == 400
        assert error.startswith("resynth failed: unknown circuit 'nope'")
        assert '"' not in error
        assert service.request_counts["errors"] == 1

    def test_unreadable_circuit_file(self, tmp_path):
        service = SolveService()
        status, error = post(service, "/resynth", {"circuit": {
            "kind": "file", "path": str(tmp_path / "missing.blif")}})
        assert status == 400 and error.startswith("resynth failed: ")
        assert service.request_counts["errors"] == 1

    def test_malformed_blif(self):
        service = SolveService()
        status, error = post(service, "/resynth", {"circuit": {
            "kind": "blif", "text": ".model m\n.names a\n1 1 1\n.end\n"}})
        assert status == 400 and "malformed .names row" in error
        assert service.request_counts["errors"] == 1

    @pytest.mark.parametrize("manifest,field", [
        ({"defaults": 5, "jobs": [{}]}, "defaults"),
        ({"jobs": 5}, "jobs"),
        ({"defaults": [], "jobs": [{}]}, "defaults"),
        ({"jobs": {"a": 1}}, "jobs"),
    ])
    def test_manifest_shapes_name_their_field(self, manifest, field):
        service = SolveService()
        status, error = post(service, "/batch", manifest)
        assert status == 400
        assert error.startswith("invalid batch manifest: manifest %r must"
                                % field)
        assert service.request_counts["errors"] == 1
        assert service.request_counts["batch"] == 0

    def test_bad_executor_is_counted(self):
        service = SolveService()
        status, error = post(service, "/batch",
                             {"jobs": [VTX], "executor": "thread"})
        assert status == 400 and "executor" in error
        assert service.request_counts["errors"] == 1

    @pytest.mark.parametrize("path", ["/solve", "/solve/stream",
                                      "/batch", "/resynth"])
    def test_deep_json_is_400(self, path):
        service = SolveService()
        status, error = post(service, path,
                             body=b"[" * DEEP + b"]" * DEEP)
        assert status == 400
        assert error == ("request body is not valid JSON: JSON nested "
                         "too deeply to decode")
        # Refused before it reached the service.
        assert service.request_counts["errors"] == 0


class TestBatchJobs:
    def test_unknown_name_job_is_a_failed_report(self):
        service = SolveService()
        result = service.batch({"jobs": [VTX, {"relation": "nope"}]})
        ok, failed = result["reports"]
        assert ok["ok"] and not failed["ok"]
        assert failed["error"].startswith(
            "UnknownNameError: no relation named 'nope'")
        assert service.request_counts["errors"] == 0

    def test_a_failing_lookup_is_captured_per_job(self, monkeypatch):
        # Whatever a job's tier walk raises, the batch still answers:
        # solve_many resolves the job again and reports it.
        service = SolveService()

        def broken(request):
            raise RuntimeError("planted in the tier walk")

        monkeypatch.setattr(service, "_lookup", broken)
        result = service.batch({"jobs": [VTX]})
        assert result["ok"] and result["tiers"] == ["engine"]


class TestServiceErrorIsARequestError:
    def test_service_error_is_a_request_error(self):
        assert isinstance(ServiceError("x"), REQUEST_ERRORS)

    @pytest.mark.parametrize("path", ["/solve", "/solve/stream",
                                      "/batch"])
    def test_a_service_error_passes_unchanged(self, monkeypatch, path):
        # Raised inside a route, it keeps its status and gains no
        # prefix; it is counted once.
        service = SolveService()
        plant(monkeypatch, "repro.api.request.SolveRequest.from_dict",
              ServiceError("planted", status=409))
        payload = {"jobs": [VTX]} if path == "/batch" else VTX
        assert post(service, path, payload) == (409, "planted")
        assert service.request_counts["errors"] == 1
