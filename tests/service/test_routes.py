"""Tests of the route table (``respond``): no socket, no event loop."""

import json

import pytest

from repro.service import DiskCache, SolveService
from repro.service.http import ROUTES, respond

VTX = {"relation": {"kind": "bench", "name": "vtx"}, "max_explored": 60}

#: Specs that parse as requests but build no relation.
BAD_CUBE_PLA = {"kind": "pla", "text": ".i 2\n.o 2\n.type fr\n0z 11\n.e\n"}
UNKNOWN_BENCH = {"kind": "bench", "name": "nope"}

#: A relation with no output for input vertex 1: not left-total.
NOT_LEFT_TOTAL = {"kind": "output_sets", "rows": [[1], []],
                  "num_inputs": 1, "num_outputs": 1}


def post(service, path, payload):
    return respond(service, "POST", path, json.dumps(payload).encode())


def events(response):
    """The SSE event names of a whole streamed response."""
    raw = response.body + b"".join(response.frames)
    return [line.split(": ", 1)[1] for line in raw.decode().splitlines()
            if line.startswith("event: ")]


class TestRoutes:
    def test_the_six_routes(self):
        assert sorted(ROUTES) == [
            ("GET", "/healthz"), ("GET", "/stats"), ("POST", "/batch"),
            ("POST", "/resynth"), ("POST", "/solve"),
            ("POST", "/solve/stream")]

    def test_healthz(self):
        response = respond(SolveService(), "GET", "/healthz", b"")
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/json"
        assert response.headers["Content-Length"] \
            == str(len(response.body))
        assert json.loads(response.body)["ok"] is True
        assert response.frames is None

    def test_solve_sets_tier_header(self, fig1_request):
        service = SolveService()
        first = post(service, "/solve", fig1_request)
        second = post(service, "/solve", fig1_request)
        assert first.status == second.status == 200
        assert first.headers["X-Cache-Tier"] == "engine"
        assert second.headers["X-Cache-Tier"] == "ram"
        assert json.loads(second.body)["cached"] is True

    def test_batch(self, fig1_request):
        response = post(SolveService(), "/batch", {"jobs": [fig1_request]})
        assert response.status == 200 and json.loads(response.body)["ok"]

    def test_stats(self, fig1_request):
        service = SolveService()
        post(service, "/solve", fig1_request)
        response = respond(service, "GET", "/stats", b"")
        assert response.status == 200
        assert json.loads(response.body)["tiers"]["engine"] == 1

    @pytest.mark.parametrize("method,path", [("GET", "/nope"),
                                             ("POST", "/solv"),
                                             ("GET", "/solve"),
                                             ("POST", "/healthz")])
    def test_404(self, method, path):
        response = respond(SolveService(), method, path, b"{}")
        assert response.status == 404
        assert json.loads(response.body) \
            == {"error": "no such route: %s" % path}

    @pytest.mark.parametrize("body", [b"{broken", b"", b"\xff"])
    def test_undecodable_body_is_400(self, body):
        response = respond(SolveService(), "POST", "/solve", body)
        assert response.status == 400
        assert "error" in json.loads(response.body)

    def test_out_of_range_output_vertex_is_400(self):
        response = post(SolveService(), "/solve", {"relation": {
            "kind": "output_sets", "rows": [[5], [9], [-1], [2]],
            "num_inputs": 2, "num_outputs": 2}})
        assert response.status == 400
        assert "row 0: output vertex 5" \
            in json.loads(response.body)["error"]

    def test_validation_error_is_400(self):
        response = post(SolveService(), "/solve", {"relation": "missing"})
        assert response.status == 400

    def test_other_failures_are_500(self, monkeypatch):
        service = SolveService()

        def broken():
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(service, "stats", broken)
        response = respond(service, "GET", "/stats", b"")
        assert response.status == 500
        assert json.loads(response.body) \
            == {"error": "internal error: disk on fire"}


class TestStream:
    def test_sse_stream(self):
        response = post(SolveService(), "/solve/stream", VTX)
        assert response.status == 200
        assert response.headers == {"Content-Type": "text/event-stream",
                                    "Cache-Control": "no-cache",
                                    "Connection": "close"}
        names = events(response)
        assert names[-1] == "report" and "improvement" in names

    def test_stream_validation_error_is_400(self):
        response = post(SolveService(), "/solve/stream",
                        {"relation": "missing"})
        assert response.status == 400
        assert response.frames is None

    def test_closing_after_the_first_frame_cancels(self, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        request = dict(VTX, strategy="best-first", max_explored=None,
                       fifo_capacity=None)
        response = post(service, "/solve/stream", request)
        assert response.body.startswith(b"event: ")
        response.frames.close()
        assert service.request_counts["stream_cancelled"] == 1
        # The cancelled partial entered neither tier.
        assert service.disk.stats()["report_stores"] == 0
        assert post(service, "/solve", request).headers["X-Cache-Tier"] \
            == "engine"


class TestBadSpecs:
    """A spec that builds no relation is the client's 400 on both
    solving routes, and is counted the same way on both."""

    @pytest.mark.parametrize("path,counter", [("/solve", "solve"),
                                              ("/solve/stream", "stream")])
    @pytest.mark.parametrize("payload", [
        {"relation": BAD_CUBE_PLA},
        {"relation": UNKNOWN_BENCH},
        {"relation": UNKNOWN_BENCH, "strategy": "bogus"},
    ])
    def test_400_and_counted(self, path, counter, payload):
        service = SolveService()
        response = post(service, path, payload)
        assert response.status == 400
        assert "error" in json.loads(response.body)
        assert service.request_counts[counter] == 1
        assert service.request_counts["errors"] == 1


class TestNotLeftTotal:
    """A relation that is not left-total is the client's 400 on both
    solving routes: the stream refuses it before its first frame."""

    @pytest.mark.parametrize("path,counter", [("/solve", "solve"),
                                              ("/solve/stream", "stream")])
    def test_400_naming_the_defect(self, path, counter):
        service = SolveService()
        response = post(service, path, {"relation": NOT_LEFT_TOTAL})
        assert response.status == 400
        assert response.frames is None
        assert response.headers["Content-Type"] == "application/json"
        error = json.loads(response.body)["error"]
        assert error.endswith(
            "relation is not well defined (not left-total)")
        assert service.request_counts[counter] == 1
        assert service.request_counts["errors"] == 1


def out_of_frame_relation():
    """``random_relation(6, 4, seed=1)`` or'ed with ``z ∧ y0 ∧ y1``,
    where ``z`` is neither an input nor an output."""
    from repro.benchdata.brgen import random_relation
    relation = random_relation(6, 4, seed=1)
    mgr = relation.mgr
    z = mgr.add_var("z")
    y0, y1 = (mgr.var(var) for var in relation.outputs[:2])
    return relation.with_node(mgr.or_(
        relation.node, mgr.and_(mgr.var(z), mgr.and_(y0, y1))))


class TestOutOfFrame:
    """A session relation whose function mentions a variable outside
    its frame is the client's 400 on both solving routes, naming the
    variable; the stream refuses it before its first frame."""

    @pytest.mark.parametrize("path", ["/solve", "/solve/stream"])
    def test_400_naming_the_stray_variable(self, path):
        service = SolveService()
        service.session.add_relation("stray", out_of_frame_relation())
        response = post(service, path, {"relation": "stray",
                                        "max_explored": 5})
        assert response.status == 400
        assert response.frames is None
        error = json.loads(response.body)["error"]
        assert error.endswith("outside its inputs and outputs: z")
        assert service.request_counts["errors"] == 1

    def test_solve_iter_refuses_eagerly(self):
        from repro import SolveRequest
        service = SolveService()
        service.session.add_relation("stray", out_of_frame_relation())
        with pytest.raises(ValueError, match="outputs: z$"):
            service.session.solve_iter(SolveRequest(relation="stray"))


def equations(text, independents=("a", "b"), dependents=("y",)):
    return {"relation": {"kind": "equations", "equations": [text],
                         "independents": list(independents),
                         "dependents": list(dependents)},
            "max_explored": 4}


class TestDeepEquations:
    """Nesting past the parser's bound is the client's 400; chains of
    any length are loops, and solve."""

    @pytest.mark.parametrize("text", [
        "y = " + "(" * 300 + "a" + ")" * 300,
        "y = " + "~" * 1200 + "a",
    ], ids=["parentheses", "prefix-complements"])
    def test_nesting_is_400_naming_the_limit(self, text):
        response = post(SolveService(), "/solve", equations(text))
        assert response.status == 400
        assert "nests deeper than 100" in json.loads(response.body)["error"]

    @pytest.mark.parametrize("text,sop", [
        ("y = " + " & ".join(["a", "b"] * 1500), "f0 = ab"),
        ("y = " + " | ".join(["a", "b"] * 1500), "f0 = a + b"),
        ("y = a" + "'" * 3000, "f0 = a"),
    ], ids=["and-chain", "or-chain", "postfix-complements"])
    def test_chains_solve(self, text, sop):
        response = post(SolveService(), "/solve", equations(text))
        assert response.status == 200
        report = json.loads(response.body)
        assert report["ok"] and report["compatible"]
        assert report["sop"] == sop
