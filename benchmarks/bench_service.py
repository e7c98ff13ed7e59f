"""Service-layer benchmarks: tiered serving and cache prewarming.

Two workloads over :mod:`repro.service` (no HTTP in the loop — the
transport adds nothing to what is being measured):

* **tiered-serving** — a mixed request stream hits one worker three
  ways: cold (every request reaches the engine), hot (the identical
  stream replays out of the RAM tier), and cold-worker-warm-disk (a
  fresh worker over the same cache directory serves from the disk
  tier).  The acceptance claim is structural: the hot and disk passes
  leave the engine untouched, and both are far cheaper than solving.
* **prewarming** — a 20-request corpus is replayed into a cache
  directory (``repro prewarm``); a fresh worker over that directory
  then serves the whole corpus from the disk tier, with the engine
  untouched and the same answers — the multi-worker story: what one
  worker solved, every later worker serves.

Standalone quick mode for CI::

    python benchmarks/bench_service.py --quick

writes ``benchmarks/results/bench_service.json`` either way.
"""

import json
import os
import sys
import tempfile
import time

import pytest

from _util import RESULTS_DIR, format_table, publish

from repro.service import DiskCache, SolveService, prewarm

#: The serving stream: small Table-2 instances, mixed options.
SERVING_REQUESTS = [
    {"label": name, "relation": {"kind": "bench", "name": name},
     "max_explored": 25}
    for name in ("int1", "int2", "int3", "c17b", "she1")
] + [
    {"label": "int1-cubes", "relation": {"kind": "bench", "name": "int1"},
     "cost": "cubes", "max_explored": 25},
]

#: The prewarm corpus: 20 requests over the small suite, varied costs.
CORPUS_NAMES = ("int1", "int2", "int3", "int4", "she1", "she2",
                "c17b", "c17i", "b9", "vtx")
CORPUS_JOBS = [
    {"label": "%s-%s" % (name, cost),
     "relation": {"kind": "bench", "name": name},
     "cost": cost, "max_explored": 30}
    for name in CORPUS_NAMES
    for cost in ("size", "cubes")
]


def run_tiered_serving():
    """Cold/hot/disk passes over the serving stream; returns the row."""
    with tempfile.TemporaryDirectory() as tmp:
        worker = SolveService(disk=DiskCache(tmp))

        def sweep(service):
            start = time.perf_counter()
            tiers = {}
            costs = {}
            for request in SERVING_REQUESTS:
                report, tier = service.solve(dict(request))
                assert report["ok"]
                tiers[tier] = tiers.get(tier, 0) + 1
                costs[request["label"]] = report["cost"]
            return time.perf_counter() - start, tiers, costs

        cold_seconds, cold_tiers, cold_costs = sweep(worker)
        hot_seconds, hot_tiers, hot_costs = sweep(worker)
        fresh = SolveService(disk=DiskCache(tmp))
        disk_seconds, disk_tiers, disk_costs = sweep(fresh)
        assert cold_costs == hot_costs == disk_costs, \
            "cache tiers changed results"
        assert hot_tiers == {"ram": len(SERVING_REQUESTS)}
        assert disk_tiers == {"disk": len(SERVING_REQUESTS)}
        assert fresh.tier_hits["engine"] == 0
    return {
        "requests": len(SERVING_REQUESTS),
        "cold": {"seconds": cold_seconds, "tiers": cold_tiers},
        "hot": {"seconds": hot_seconds, "tiers": hot_tiers},
        "disk": {"seconds": disk_seconds, "tiers": disk_tiers},
        "hot_speedup": (cold_seconds / hot_seconds
                        if hot_seconds > 0 else float("inf")),
        "disk_speedup": (cold_seconds / disk_seconds
                         if disk_seconds > 0 else float("inf")),
    }


def run_prewarming():
    """Prewarm the corpus, then replay it on a fresh worker; the row."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "corpus.json")
        with open(corpus_path, "w") as handle:
            json.dump(CORPUS_JOBS, handle)
        cache_dir = os.path.join(tmp, "cache")
        start = time.perf_counter()
        summary = prewarm(corpus_path, cache_dir)
        prewarm_seconds = time.perf_counter() - start
        assert summary["ok"]
        costs = {report["label"]: report["cost"]
                 for report in SolveService().batch(CORPUS_JOBS)["reports"]}
        worker = SolveService(disk=DiskCache(cache_dir))
        start = time.perf_counter()
        tiers = {}
        for job in CORPUS_JOBS:
            report, tier = worker.solve(dict(job))
            assert report["ok"] and report["cost"] == costs[job["label"]]
            tiers[tier] = tiers.get(tier, 0) + 1
        replay_seconds = time.perf_counter() - start
    return {
        "corpus_jobs": len(CORPUS_JOBS),
        "prewarm_tiers": summary["tiers"],
        "prewarm_seconds": prewarm_seconds,
        "replay_tiers": tiers,
        "replay_seconds": replay_seconds,
        "replay_speedup": (prewarm_seconds / replay_seconds
                           if replay_seconds > 0 else float("inf")),
    }


def run_workloads():
    return {"tiered-serving": run_tiered_serving(),
            "prewarming": run_prewarming()}


def summarize(results):
    serving = results["tiered-serving"]
    warm = results["prewarming"]
    rows = [
        ["cold (engine)", "%.3f" % serving["cold"]["seconds"], "-",
         str(serving["cold"]["tiers"].get("engine", 0))],
        ["hot (RAM tier)", "%.3f" % serving["hot"]["seconds"],
         "%.1fx" % serving["hot_speedup"], "0"],
        ["fresh worker (disk tier)", "%.3f" % serving["disk"]["seconds"],
         "%.1fx" % serving["disk_speedup"], "0"],
    ]
    table = format_table(
        ["pass", "seconds", "speedup", "engine solves"], rows,
        title="Tiered serving, %d-request stream (identical results)"
              % serving["requests"])
    table += "\n\n" + format_table(
        ["pass", "seconds", "tiers"],
        [["prewarm (engine)", "%.3f" % warm["prewarm_seconds"],
          warm["prewarm_tiers"]],
         ["fresh worker replay", "%.3f" % warm["replay_seconds"],
          warm["replay_tiers"]]],
        title="Prewarming: %d-job corpus (replay %.1fx faster)"
              % (warm["corpus_jobs"], warm["replay_speedup"]))
    return table


def write_artefact(results):
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_service.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="service")
def test_service_workloads(benchmark):
    results = benchmark.pedantic(run_workloads, rounds=1, iterations=1)
    publish("bench_service.txt", summarize(results))
    write_artefact(results)
    assert results["tiered-serving"]["hot"]["tiers"] \
        == {"ram": results["tiered-serving"]["requests"]}
    assert results["prewarming"]["replay_tiers"] \
        == {"disk": results["prewarming"]["corpus_jobs"]}


def run_quick() -> int:
    results = run_workloads()
    print(summarize(results))
    print()
    write_artefact(results)
    failures = 0
    if results["tiered-serving"]["hot"]["tiers"].get("engine"):
        print("FAIL: hot pass reached the engine", file=sys.stderr)
        failures += 1
    warm = results["prewarming"]
    if warm["replay_tiers"] != {"disk": warm["corpus_jobs"]}:
        print("FAIL: the prewarmed corpus did not replay from the disk "
              "tier (%s)" % warm["replay_tiers"], file=sys.stderr)
        failures += 1
    print("quick mode %s" % ("ok" if not failures else "FAILED"))
    return failures


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        sys.exit(run_quick())
    print("usage: python benchmarks/bench_service.py --quick\n"
          "(or run under pytest with pytest-benchmark for full numbers)",
          file=sys.stderr)
    sys.exit(2)
