#!/usr/bin/env python3
"""Solve-as-a-service: a complete client session against `repro serve`.

The demo boots the real HTTP server in-process on a free port (exactly
what ``repro serve --port 0 --cache-dir ...`` runs), then walks the
whole wire surface with nothing but :mod:`urllib`:

1. ``POST /solve`` twice — the second answer comes back with
   ``X-Cache-Tier: ram`` and an untouched engine;
2. a *fresh worker* over the same cache directory — the same request is
   a ``disk``-tier hit, the multi-worker / restart story;
3. ``POST /solve/stream`` — Server-Sent Events of the anytime search:
   every improving solution as it is found, then the final report;
4. ``POST /batch`` — a manifest of jobs with per-job cache tiers;
5. ``GET /stats`` — tier counters, the disk tier and recent requests.

Run:  python examples/service_client.py
"""

import json
import tempfile
import threading
import urllib.request

from repro.service import DiskCache, SolveService, create_server


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return dict(response.headers), json.loads(response.read())


def start_server(cache_dir):
    service = SolveService(disk=DiskCache(cache_dir))
    server = create_server(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, service, "http://127.0.0.1:%d" % server.server_address[1]


INT1 = {"relation": {"kind": "bench", "name": "int1"}, "max_explored": 25}


def tiered_solves(base, cache_dir, server, service):
    print("== tiered solving ==")
    for attempt in (1, 2):
        headers, report = post(base + "/solve", INT1)
        print("  solve #%d: tier=%-6s cost=%.0f  sop=%r"
              % (attempt, headers["X-Cache-Tier"], report["cost"],
                 report["sop"].replace("\n", " | ")))
    # A worker restart: boot a new service on the same directory, and
    # serve the same request without touching an engine.
    server.shutdown()
    server.server_close()
    new_server, new_service, new_base = start_server(cache_dir)
    headers, report = post(new_base + "/solve", INT1)
    print("  fresh worker: tier=%-6s engine solves=%d"
          % (headers["X-Cache-Tier"], new_service.tier_hits["engine"]))
    print()
    return new_server, new_base


def stream_a_solve(base):
    print("== anytime stream over SSE ==")
    body = json.dumps({"relation": {"kind": "bench", "name": "vtx"},
                       "max_explored": 60}).encode("utf-8")
    request = urllib.request.Request(base + "/solve/stream", data=body)
    with urllib.request.urlopen(request, timeout=120) as response:
        buffer = ""
        while True:
            chunk = response.read(1).decode("utf-8")
            if not chunk:
                break
            buffer += chunk
            while "\n\n" in buffer:
                frame, buffer = buffer.split("\n\n", 1)
                lines = dict(line.split(": ", 1)
                             for line in frame.splitlines())
                name, data = lines["event"], json.loads(lines["data"])
                if name == "improvement":
                    print("  improved: cost %4.0f after %6.3fs "
                          "(%d explored)"
                          % (data["cost"], data["elapsed_seconds"],
                             data["explored"]))
                elif name == "report":
                    print("  final: cost %.0f, stopped: %s"
                          % (data["cost"], data["stopped"]))
    print()


def batch_and_stats(base):
    print("== batch with per-job tiers ==")
    manifest = {
        "defaults": {"max_explored": 25},
        "jobs": [{"label": "int1",
                  "relation": {"kind": "bench", "name": "int1"}},
                 {"label": "int2",
                  "relation": {"kind": "bench", "name": "int2"}},
                 {"label": "int1-again",
                  "relation": {"kind": "bench", "name": "int1"}}],
    }
    _, result = post(base + "/batch", manifest)
    for report, tier in zip(result["reports"], result["tiers"]):
        print("  %-10s tier=%-6s cost=%.0f"
              % (report["label"], tier, report["cost"]))
    print()
    print("== /stats ==")
    with urllib.request.urlopen(base + "/stats", timeout=60) as response:
        stats = json.loads(response.read())
    print("  tiers: %s" % stats["tiers"])
    print("  disk:  %d reports, %d bytes, hit rate %.0f%%"
          % (stats["disk"]["reports"], stats["disk"]["report_bytes"],
             100 * stats["disk"]["report_hit_rate"]))
    for row in stats["recent"][-3:]:
        print("  recent: %-10s tier=%-6s %.3fs"
              % (row["label"], row["tier"], row["runtime_seconds"]))


def main():
    with tempfile.TemporaryDirectory() as cache_dir:
        server, service, base = start_server(cache_dir)
        print("server on %s (cache: %s)\n" % (base, cache_dir))
        server, base = tiered_solves(base, cache_dir, server, service)
        stream_a_solve(base)
        batch_and_stats(base)
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
