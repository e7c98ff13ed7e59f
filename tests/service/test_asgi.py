"""Tests for the dependency-free ASGI adapter (stub receive/send)."""

import asyncio
import json

from repro.service import SolveService
from repro.service.asgi import create_app


def run_http(app, method, path, body=None, disconnect_after=None):
    """Drive one HTTP request through the ASGI app with stub channels.

    Returns (status, headers_dict, body_bytes).  ``disconnect_after``
    injects an ``http.disconnect`` after that many ``receive`` calls
    beyond the body (for the stream-watcher path).
    """
    async def drive():
        scope = {"type": "http", "method": method, "path": path,
                 "headers": []}
        messages = [{"type": "http.request",
                     "body": body if body is not None else b"",
                     "more_body": False}]
        receives = {"count": 0}
        disconnect_event = asyncio.Event()

        async def receive():
            receives["count"] += 1
            if messages:
                return messages.pop(0)
            if (disconnect_after is not None
                    and receives["count"] > disconnect_after):
                return {"type": "http.disconnect"}
            await disconnect_event.wait()
            return {"type": "http.disconnect"}

        sent = []

        async def send(message):
            sent.append(message)

        await app(scope, receive, send)
        disconnect_event.set()
        return sent

    sent = asyncio.run(drive())
    status = sent[0]["status"]
    headers = {name.decode(): value.decode()
               for name, value in sent[0].get("headers", [])}
    payload = b"".join(message.get("body", b"") for message in sent[1:])
    return status, headers, payload


class TestRoutes:
    def test_healthz(self):
        app = create_app(SolveService())
        status, headers, body = run_http(app, "GET", "/healthz")
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["ok"] is True

    def test_solve_sets_tier_header(self, fig1_request):
        app = create_app(SolveService())
        raw = json.dumps(fig1_request).encode()
        status1, headers1, body1 = run_http(app, "POST", "/solve", raw)
        status2, headers2, body2 = run_http(app, "POST", "/solve", raw)
        assert status1 == status2 == 200
        assert headers1["x-cache-tier"] == "engine"
        assert headers2["x-cache-tier"] == "ram"
        assert json.loads(body2)["cached"] is True

    def test_batch(self, fig1_request):
        app = create_app(SolveService())
        raw = json.dumps({"jobs": [fig1_request]}).encode()
        status, _, body = run_http(app, "POST", "/batch", raw)
        assert status == 200 and json.loads(body)["ok"]

    def test_stats(self, fig1_request):
        service = SolveService()
        app = create_app(service)
        run_http(app, "POST", "/solve",
                 json.dumps(fig1_request).encode())
        status, _, body = run_http(app, "GET", "/stats")
        assert status == 200
        assert json.loads(body)["tiers"]["engine"] == 1

    def test_404(self):
        app = create_app(SolveService())
        status, _, body = run_http(app, "GET", "/nope")
        assert status == 404 and "error" in json.loads(body)

    def test_bad_json_is_400(self):
        app = create_app(SolveService())
        status, _, body = run_http(app, "POST", "/solve", b"{broken")
        assert status == 400

    def test_empty_body_is_400(self):
        app = create_app(SolveService())
        status, _, body = run_http(app, "POST", "/solve", b"")
        assert status == 400

    def test_out_of_range_output_vertex_is_400(self):
        app = create_app(SolveService())
        raw = json.dumps({"relation": {
            "kind": "output_sets", "rows": [[5], [9], [-1], [2]],
            "num_inputs": 2, "num_outputs": 2}}).encode()
        status, _, body = run_http(app, "POST", "/solve", raw)
        assert status == 400
        assert "row 0: output vertex 5" in json.loads(body)["error"]

    def test_validation_error_is_400(self):
        app = create_app(SolveService())
        raw = json.dumps({"relation": "missing"}).encode()
        status, _, body = run_http(app, "POST", "/solve", raw)
        assert status == 400


class TestStream:
    def test_sse_stream(self):
        app = create_app(SolveService())
        raw = json.dumps({"relation": {"kind": "bench", "name": "vtx"},
                          "max_explored": 60}).encode()
        status, headers, body = run_http(app, "POST", "/solve/stream",
                                         raw)
        assert status == 200
        assert headers["content-type"] == "text/event-stream"
        events = [line.split(": ", 1)[1]
                  for line in body.decode().splitlines()
                  if line.startswith("event: ")]
        assert events[-1] == "report"
        assert "improvement" in events

    def test_stream_validation_error_is_400(self):
        app = create_app(SolveService())
        raw = json.dumps({"relation": "missing"}).encode()
        status, _, body = run_http(app, "POST", "/solve/stream", raw)
        assert status == 400


class TestLifespan:
    def test_startup_shutdown(self):
        app = create_app(SolveService())

        async def drive():
            messages = [{"type": "lifespan.startup"},
                        {"type": "lifespan.shutdown"}]
            sent = []

            async def receive():
                return messages.pop(0)

            async def send(message):
                sent.append(message)

            await app({"type": "lifespan"}, receive, send)
            return sent

        sent = asyncio.run(drive())
        assert [message["type"] for message in sent] \
            == ["lifespan.startup.complete",
                "lifespan.shutdown.complete"]
