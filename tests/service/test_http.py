"""End-to-end tests of the stdlib HTTP/SSE transport (real sockets)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import DiskCache, SolveService, create_server, encode_sse


@pytest.fixture
def served(cache_dir):
    """A live server on an ephemeral port; yields (base_url, service)."""
    service = SolveService(disk=DiskCache(cache_dir))
    server = create_server(service, "127.0.0.1", 0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % port, service
    finally:
        server.shutdown()
        server.server_close()


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return (response.status, dict(response.headers),
                json.loads(response.read()))


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def parse_sse(raw):
    """Decode an SSE byte stream into (event, payload) pairs."""
    frames = []
    for block in raw.decode("utf-8").split("\n\n"):
        if not block.strip():
            continue
        lines = dict(line.split(": ", 1) for line in block.splitlines())
        frames.append((lines["event"], json.loads(lines["data"])))
    return frames


class TestSolveEndpoint:
    def test_second_identical_request_is_a_ram_hit(self, served,
                                                   fig1_request):
        base, service = served
        status1, headers1, report1 = post(base + "/solve", fig1_request)
        status2, headers2, report2 = post(base + "/solve", fig1_request)
        assert status1 == status2 == 200
        assert headers1["X-Cache-Tier"] == "engine"
        assert headers2["X-Cache-Tier"] == "ram"
        assert report2["cached"] is True
        assert report2["sop"] == report1["sop"]
        assert report2["cost"] == report1["cost"]
        # The engine really was untouched the second time.
        assert service.tier_hits["engine"] == 1

    def test_validation_error_is_400(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/solve", {"relation": "no-such-relation"})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_malformed_json_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            base + "/solve", data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_empty_body_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(base + "/solve", data=b"")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, served, fig1_request):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/no-such", fig1_request)
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(base + "/also-missing")
        assert excinfo.value.code == 404


class TestStreamEndpoint:
    def test_sse_stream_end_to_end(self, served):
        base, _ = served
        body = json.dumps({"relation": {"kind": "bench", "name": "vtx"},
                           "max_explored": 60}).encode("utf-8")
        request = urllib.request.Request(base + "/solve/stream",
                                         data=body)
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] \
                == "text/event-stream"
            frames = parse_sse(response.read())
        kinds = [name for name, _ in frames]
        assert kinds[-1] == "report"
        assert "improvement" in kinds
        report = frames[-1][1]
        assert report["ok"] and report["compatible"]

    def test_stream_validation_error_is_clean_400(self, served):
        base, _ = served
        body = json.dumps({"relation": "nope"}).encode("utf-8")
        request = urllib.request.Request(base + "/solve/stream",
                                         data=body)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


class TestBatchEndpoint:
    def test_batch_round_trip(self, served, fig1_request):
        base, _ = served
        status, _, result = post(base + "/batch",
                                 {"jobs": [dict(fig1_request),
                                           dict(fig1_request)]})
        assert status == 200 and result["ok"]
        assert result["tiers"] == ["engine", "ram"]
        assert len(result["reports"]) == 2

    def test_batch_bad_executor_is_400(self, served, fig1_request):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/batch", {"jobs": [dict(fig1_request)],
                                   "executor": "quantum"})
        assert excinfo.value.code == 400


class TestThreadExecutorRejected:
    @pytest.mark.parametrize("route", ["/batch", "/resynth"])
    def test_thread_is_400_naming_the_executors(self, served,
                                                fig1_request, route):
        base, _ = served
        body = {"/batch": {"jobs": [dict(fig1_request)],
                           "executor": "thread"},
                "/resynth": {"circuit": "s27", "executor": "thread"},
                }[route]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + route, body)
        assert excinfo.value.code == 400
        message = json.loads(excinfo.value.read())["error"]
        assert "'thread'" in message and "'serial'" in message
        if route == "/batch":
            assert "'process'" in message
        else:
            # Resynthesis has one executor: its caller's process.
            assert "resynthesis solves in its caller's process" in message


class TestRetiredFieldsRejected:
    @pytest.mark.parametrize("route", ["/solve", "/batch", "/resynth"])
    def test_memo_is_400_naming_the_field(self, served, fig1_request,
                                          route):
        base, _ = served
        body = {"/solve": dict(fig1_request, memo=False),
                "/batch": {"jobs": [dict(fig1_request, memo=False)]},
                "/resynth": {"circuit": "s27", "memo": False},
                }[route]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + route, body)
        assert excinfo.value.code == 400
        message = json.loads(excinfo.value.read())["error"]
        assert "fields: memo" in message

    @pytest.mark.parametrize("route", ["/solve", "/solve/stream",
                                       "/batch"])
    def test_racer_executor_is_400_naming_the_field(self, served,
                                                    fig1_request, route):
        race = dict(fig1_request, strategy="portfolio",
                    portfolio_executor="serial")
        body = {"/solve": race, "/solve/stream": race,
                "/batch": {"jobs": [race]}}[route]
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + route, body)
        assert excinfo.value.code == 400
        message = json.loads(excinfo.value.read())["error"]
        assert "fields: portfolio_executor" in message


class TestOpsEndpoints:
    def test_healthz(self, served):
        base, _ = served
        status, health = get(base + "/healthz")
        assert status == 200 and health["ok"] is True

    def test_stats_reflect_traffic(self, served, fig1_request):
        base, _ = served
        post(base + "/solve", fig1_request)
        post(base + "/solve", fig1_request)
        status, stats = get(base + "/stats")
        assert status == 200
        assert stats["tiers"]["engine"] == 1
        assert stats["tiers"]["ram"] == 1
        assert stats["requests"]["solve"] == 2
        assert stats["disk"]["report_stores"] == 1
        assert len(stats["recent"]) == 2


class TestSseEncoder:
    def test_frame_shape(self):
        frame = encode_sse("improvement", {"cost": 3})
        assert frame == b'event: improvement\ndata: {"cost": 3}\n\n'
