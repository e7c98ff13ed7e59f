"""Request bounds at the service boundary.

* Both transports cap request bodies at one shared limit
  (``repro.service.app.MAX_BODY_BYTES``) and answer 413 past it; the
  ASGI adapter stops reading as soon as a ``content-length`` header or
  the running total passes the limit, and the service never sees the
  request.
* ``num_inputs``/``num_outputs`` of tabular specs are checked — ints,
  not bools, within ``MAX_SPEC_INPUTS``/``MAX_SPEC_OUTPUTS`` — before
  anything shifts by them, so an oversized value is a clear 400 at every
  layer instead of an ``OverflowError`` or a stalled worker.
"""

import asyncio
import json

import pytest

from repro import SolveRequest
from repro.api.request import normalize_relation_spec
from repro.core.relation import (MAX_SPEC_INPUTS, MAX_SPEC_OUTPUTS,
                                 BooleanRelation)
from repro.service import ServiceError, SolveService
from repro.service import asgi as asgi_module
from repro.service import http as http_module
from repro.service.app import MAX_BODY_BYTES
from repro.service.asgi import create_app

SOLVE_BODY = json.dumps({"relation": {"kind": "bench", "name": "int1"},
                         "max_explored": 2}).encode("utf-8")


class RecordingService:
    """Stands in for SolveService and records every solve it sees."""

    def __init__(self):
        self.seen = []

    def solve(self, data):
        self.seen.append(data)
        return {"ok": True}, "engine"


def drive(app, chunks, headers=()):
    """POST /solve with ``chunks`` (an iterable of bytes, the last one
    closing the body); returns (status, payload, receive calls)."""

    async def run():
        scope = {"type": "http", "method": "POST", "path": "/solve",
                 "headers": list(headers)}
        feed = iter(chunks)
        calls = {"count": 0}

        async def receive():
            calls["count"] += 1
            chunk, more = next(feed)
            return {"type": "http.request", "body": chunk,
                    "more_body": more}

        sent = []

        async def send(message):
            sent.append(message)

        await app(scope, receive, send)
        return sent, calls["count"]

    sent, count = asyncio.run(run())
    body = b"".join(message.get("body", b"") for message in sent[1:])
    return sent[0]["status"], json.loads(body), count


def endless(chunk):
    """Chunks of ``chunk`` that never close the body."""
    while True:
        yield chunk, True


class TestBodyLimit:
    def test_one_limit_for_both_transports(self):
        assert asgi_module.MAX_BODY_BYTES is MAX_BODY_BYTES
        assert http_module.MAX_BODY_BYTES is MAX_BODY_BYTES
        assert MAX_BODY_BYTES == 32 * 1024 * 1024

    def test_chunks_past_the_limit_get_413(self):
        service = RecordingService()
        megabyte = b" " * (1 << 20)
        status, payload, reads = drive(create_app(service),
                                       endless(megabyte))
        assert status == 413
        assert "too large" in payload["error"]
        # Reading stopped at the first chunk past the limit.
        assert reads == MAX_BODY_BYTES // len(megabyte) + 1
        assert service.seen == []

    def test_content_length_past_the_limit_reads_nothing(self):
        service = RecordingService()
        status, _, reads = drive(
            create_app(service), endless(b"x"),
            headers=[(b"content-length",
                      str(MAX_BODY_BYTES + 1).encode("ascii"))])
        assert status == 413
        assert reads == 0
        assert service.seen == []

    def test_huge_content_length_digits_get_413(self):
        status, _, reads = drive(
            create_app(RecordingService()), endless(b"x"),
            headers=[(b"content-length", b"9" * 5000)])
        assert status == 413
        assert reads == 0

    def test_body_at_the_limit_still_parses(self, monkeypatch):
        # A small limit keeps the test light; the adapter reads the
        # shared binding, so the bound under test is the real check.
        limit = 4096
        monkeypatch.setattr(asgi_module, "MAX_BODY_BYTES", limit)
        padded = SOLVE_BODY + b" " * (limit - len(SOLVE_BODY))
        service = RecordingService()
        halves = [(padded[:1000], True), (padded[1000:], False)]
        status, payload, _ = drive(create_app(service), halves)
        assert status == 200 and payload == {"ok": True}
        assert len(service.seen) == 1
        status, _, _ = drive(create_app(service),
                             [(padded + b" ", False)])
        assert status == 413
        assert len(service.seen) == 1

    def test_real_service_solves_under_the_limit(self):
        status, payload, _ = drive(create_app(SolveService()),
                                   [(SOLVE_BODY, False)])
        assert status == 200 and payload["ok"]


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
    def test_asgi_answers_400(self, field, spec):
        body = json.dumps({"relation": spec}).encode("utf-8")
        status, payload, _ = drive(create_app(SolveService()),
                                   [(body, False)])
        assert status == 400
        assert field in payload["error"]

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
