"""Request bounds at the service boundary.

* The stdlib server caps request bodies at
  ``repro.service.app.MAX_BODY_BYTES`` and answers 413 past it; a
  ``Content-Length`` that is not a decimal integer is a 400 and a
  chunked body a 411.  In each case it parses no body, the service
  never sees the request and the connection closes; what a client
  still sends is drained first, so it reads the refusal.  Every body
  within the limit is read before routing, so a kept-alive connection
  never parses a leftover body as the next request.  A client that sent ``Expect: 100-continue`` gets
  the refusal instead of ``100 Continue``.
* ``num_inputs``/``num_outputs`` of tabular specs are checked — ints,
  not bools, within ``MAX_SPEC_INPUTS``/``MAX_SPEC_OUTPUTS`` — before
  anything shifts by them, so an oversized value is a clear 400 at every
  layer instead of an ``OverflowError`` or a stalled worker.  A ``pla``
  spec's ``.i``/``.o`` header is checked against the same bounds before
  the parser allocates a row per input vertex.
"""

import http.client
import json
import socket
import threading
import tracemalloc

import pytest

from repro import SolveRequest
from repro.api.request import normalize_relation_spec
from repro.core.relation import (MAX_SPEC_INPUTS, MAX_SPEC_OUTPUTS,
                                 BooleanRelation)
from repro.core.relio import parse_rows
from repro.service import ServiceError, SolveService, create_server
from repro.service import http as http_module
from repro.service.app import MAX_BODY_BYTES
from repro.service.http import respond

SOLVE_BODY = json.dumps({"relation": {"kind": "bench", "name": "int1"},
                         "max_explored": 2}).encode("utf-8")


class RecordingService:
    """Stands in for SolveService and records every solve it sees."""

    def __init__(self):
        self.seen = []

    def solve(self, data):
        self.seen.append(data)
        return {"ok": True}, "engine"

    def healthz(self):
        return {"ok": True}


@pytest.fixture
def serve():
    """Start a server over a service; yields the function that does it
    (returning the port) and shuts every server down afterwards."""
    servers = []

    def start(service):
        server = create_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server.server_address[1]

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def exchange(port, head, body=b"", closes=False):
    """Send one raw request; return (status, headers, JSON body).

    With ``closes``, also check that the server closed the connection
    after answering.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head + b"\r\n\r\n" + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        if closes:
            assert sock.recv(1) == b""
    return response.status, response.headers, payload


def post_head(length):
    return (b"POST /solve HTTP/1.1\r\nHost: test\r\nContent-Length: "
            + length)


class TestBodyLimit:
    def test_one_limit(self):
        assert http_module.MAX_BODY_BYTES is MAX_BODY_BYTES
        assert MAX_BODY_BYTES == 32 * 1024 * 1024

    @pytest.mark.parametrize("length", [
        str(MAX_BODY_BYTES + 1).encode("ascii"),
        # More digits than int() parses by default.
        b"9" * 5000,
    ])
    def test_content_length_past_the_limit_reads_nothing(self, serve,
                                                         length):
        service = RecordingService()
        port = serve(service)
        # The body is never sent: a server that tried to read it would
        # wait for it instead of answering.
        status, headers, payload = exchange(port, post_head(length),
                                            closes=True)
        assert status == 413
        assert "too large" in payload["error"]
        assert headers["Connection"] == "close"
        assert service.seen == []

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1e3", b"0x10",
                                        b"\xc2\xb2", b""])
    def test_malformed_content_length_is_400(self, serve, length):
        service = RecordingService()
        port = serve(service)
        status, headers, payload = exchange(port, post_head(length),
                                            SOLVE_BODY, closes=True)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert headers["Connection"] == "close"
        assert service.seen == []

    def test_leading_zeros_are_not_digits_past_the_limit(self, serve):
        service = RecordingService()
        port = serve(service)
        length = b"0" * 5000 + str(len(SOLVE_BODY)).encode("ascii")
        status, _, payload = exchange(port, post_head(length), SOLVE_BODY)
        assert status == 200 and payload == {"ok": True}

    def test_body_at_the_limit_still_parses(self, serve, monkeypatch):
        # A small limit keeps the test light; the server reads the
        # module's binding, so the bound under test is the real check.
        limit = 4096
        monkeypatch.setattr(http_module, "MAX_BODY_BYTES", limit)
        padded = SOLVE_BODY + b" " * (limit - len(SOLVE_BODY))
        service = RecordingService()
        port = serve(service)
        status, _, payload = exchange(
            port, post_head(str(limit).encode("ascii")), padded)
        assert status == 200 and payload == {"ok": True}
        assert len(service.seen) == 1
        status, _, _ = exchange(
            port, post_head(str(limit + 1).encode("ascii")), padded + b" ",
            closes=True)
        assert status == 413
        assert len(service.seen) == 1

    def test_real_service_solves_under_the_limit(self, serve):
        port = serve(SolveService())
        status, _, payload = exchange(
            port, post_head(str(len(SOLVE_BODY)).encode("ascii")),
            SOLVE_BODY)
        assert status == 200 and payload["ok"]


class TestKeepAlive:
    def test_unrouted_body_is_read_before_the_404(self, serve):
        port = serve(RecordingService())
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        try:
            connection.request("POST", "/solv", body=SOLVE_BODY)
            response = connection.getresponse()
            assert response.status == 404
            assert "no such route" in json.loads(response.read())["error"]
            # Same connection: the 404's body was consumed, so this is
            # parsed as a request, not as the leftover JSON.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"ok": True}
        finally:
            connection.close()

    def test_chunked_body_is_refused_and_the_connection_closed(self,
                                                               serve):
        service = RecordingService()
        port = serve(service)
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(SOLVE_BODY), SOLVE_BODY)
        status, _, payload = exchange(
            port, b"POST /solve HTTP/1.1\r\nHost: test\r\n"
                  b"Transfer-Encoding: chunked", chunked, closes=True)
        assert status == 411
        assert "Content-Length" in payload["error"]
        assert service.seen == []


class TestRefusedBodyStillAnswers:
    def test_client_sending_the_body_reads_the_413(self, serve,
                                                   monkeypatch):
        # A client without "Expect: 100-continue" sends the whole body
        # before it reads anything; the server drains what it refused,
        # so the client gets the 413 rather than a reset connection.
        monkeypatch.setattr(http_module, "MAX_BODY_BYTES", 4096)
        service = RecordingService()
        port = serve(service)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        try:
            connection.request("POST", "/solve", body=b" " * (4 << 20))
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert "too large" in payload["error"]
        assert response.headers["Connection"] == "close"
        assert service.seen == []


class TestExpectContinue:
    """``Expect: 100-continue`` is answered with the refusal, not with
    an invitation to send a body the server will not read."""

    HEAD = b"POST /solve HTTP/1.1\r\nHost: test\r\n"

    @pytest.mark.parametrize("framing", [
        b"Content-Length: %d" % (MAX_BODY_BYTES + 1),
        b"Content-Length: abc",
        b"Transfer-Encoding: chunked",
    ])
    def test_refusal_comes_before_100_continue(self, serve, framing):
        service = RecordingService()
        port = serve(service)
        status, _, payload = exchange(port, self.HEAD + framing,
                                      closes=True)
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(self.HEAD + b"Expect: 100-continue\r\n"
                         + framing + b"\r\n\r\n")
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        # The refusal is the first and only answer.
        assert head.startswith(b"HTTP/1.1 %d " % status), head
        assert b"100 Continue" not in raw
        assert b"Connection: close" in head
        assert json.loads(body) == payload
        assert service.seen == []

    def test_a_valid_length_is_invited_then_answered(self, serve):
        service = RecordingService()
        port = serve(service)
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(self.HEAD + b"Expect: 100-continue\r\n"
                         + b"Content-Length: %d\r\n\r\n" % len(SOLVE_BODY))
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, interim
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(SOLVE_BODY)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read()) == {"ok": True}
        assert len(service.seen) == 1


def output_sets(num_inputs, num_outputs, rows=((0,), (0,))):
    return {"kind": "output_sets", "rows": [list(row) for row in rows],
            "num_inputs": num_inputs, "num_outputs": num_outputs}


BAD_SHAPES = [
    ("num_outputs", output_sets(1, 10 ** 30)),
    ("num_inputs", output_sets(10 ** 30, 1)),
    ("num_outputs", output_sets(1, MAX_SPEC_OUTPUTS + 1)),
    ("num_inputs", output_sets(MAX_SPEC_INPUTS + 1, 1)),
    ("num_outputs", output_sets(1, True)),
    ("num_inputs", output_sets(1.0, 1)),
    ("num_outputs", output_sets(1, -1)),
    ("num_inputs", {"kind": "truth_tables", "tables": [1],
                    "num_inputs": 10 ** 30}),
    ("number of tables", {"kind": "truth_tables",
                          "tables": [0] * (MAX_SPEC_OUTPUTS + 1),
                          "num_inputs": 1}),
]


class TestShapeBounds:
    @pytest.mark.parametrize("field,spec", BAD_SHAPES)
    def test_spec_layer(self, field, spec):
        with pytest.raises(ValueError, match=field):
            normalize_relation_spec(spec)

    @pytest.mark.parametrize("field,spec", BAD_SHAPES)
    def test_request_layer(self, field, spec):
        with pytest.raises(ValueError, match=field):
            SolveRequest.from_dict({"relation": spec})

    @pytest.mark.parametrize("field,spec", BAD_SHAPES)
    def test_service_answers_400_before_any_tier(self, field, spec):
        service = SolveService()
        with pytest.raises(ServiceError, match=field) as raised:
            service.solve({"relation": spec})
        assert raised.value.status == 400
        assert service.tier_hits == {"ram": 0, "disk": 0, "engine": 0}

    @pytest.mark.parametrize("field,spec", BAD_SHAPES[:2])
    def test_route_answers_400(self, field, spec):
        body = json.dumps({"relation": spec}).encode("utf-8")
        response = respond(SolveService(), "POST", "/solve", body)
        assert response.status == 400
        assert field in json.loads(response.body)["error"]

    def test_value_in_the_message(self):
        with pytest.raises(ValueError, match=r"0\.\.%d, got %d"
                           % (MAX_SPEC_OUTPUTS, MAX_SPEC_OUTPUTS + 1)):
            normalize_relation_spec(output_sets(1, MAX_SPEC_OUTPUTS + 1))
        with pytest.raises(ValueError, match="an int of 100 bits"):
            normalize_relation_spec(output_sets(1, 1 << 99))

    def test_table_range_message_stays_short_on_wide_frames(self):
        # At the widest frame the bound has 2**18 bits: the message
        # names it by its exponent, and a wide table by its size.
        spec = {"kind": "truth_tables", "num_inputs": MAX_SPEC_INPUTS}
        with pytest.raises(ValueError, match=r"table 0: -1 is outside "
                                             r"0\.\.2\*\*262144-1$"):
            normalize_relation_spec(dict(spec, tables=[-1]))
        with pytest.raises(ValueError, match="table 0: an int of 262145 "
                                             "bits is outside"):
            normalize_relation_spec(dict(spec, tables=[1 << 262144]))

    def test_bounds_themselves_are_accepted(self):
        rows = [[0, (1 << MAX_SPEC_OUTPUTS) - 1], [1]]
        relation = BooleanRelation.from_output_sets(rows, 1,
                                                    MAX_SPEC_OUTPUTS)
        assert len(relation.outputs) == MAX_SPEC_OUTPUTS
        spec = normalize_relation_spec(
            {"kind": "truth_tables", "tables": [0b10],
             "num_inputs": MAX_SPEC_INPUTS})
        assert spec["num_inputs"] == MAX_SPEC_INPUTS


def pla_text(num_inputs, num_outputs):
    return ".i %d\n.o %d\n.e\n" % (num_inputs, num_outputs)


class TestPlaHeaderBounds:
    def test_wide_header_raises_before_allocating(self):
        text = pla_text(24, 1)
        assert len(text) < 32
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"num_inputs must be an "
                                                 r"int in 0\.\.%d, got 24"
                                                 % MAX_SPEC_INPUTS):
                parse_rows(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_outputs_bounded(self):
        with pytest.raises(ValueError, match="num_outputs"):
            parse_rows(pla_text(1, MAX_SPEC_OUTPUTS + 1))

    def test_route_answers_400(self):
        body = json.dumps({"relation": {"kind": "pla",
                                        "text": pla_text(24, 1)}})
        response = respond(SolveService(), "POST", "/solve",
                           body.encode("utf-8"))
        assert response.status == 400
        assert "num_inputs" in json.loads(response.body)["error"]

    def test_bound_itself_parses(self):
        num_inputs, num_outputs, rows = parse_rows(
            pla_text(MAX_SPEC_INPUTS, 1))
        assert (num_inputs, num_outputs) == (MAX_SPEC_INPUTS, 1)
        assert len(rows) == 1 << MAX_SPEC_INPUTS
