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
  directory (``repro prewarm``); a cold-but-seeded worker then solves
  *novel* requests (same relation family, different search options, so
  the report tiers cannot answer) against an unseeded twin.  Both
  workers own a disk tier (the unseeded one over an empty directory),
  so both pay the same persistence, and each side's time is the median
  of ``SWEEPS`` fresh-worker sweeps.  The seeded worker must do
  measurably less memo work (fewer misses) and must not be slower —
  the multi-worker story in two numbers.

Standalone quick mode for CI::

    python benchmarks/bench_service.py --quick

writes ``benchmarks/results/bench_service.json`` either way.
"""

import json
import os
import shutil
import statistics
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

#: Novel traffic for the seeding comparison: same relations, different
#: exploration options — report tiers miss, memo templates still apply.
NOVEL_REQUESTS = [
    {"label": "%s-novel" % name,
     "relation": {"kind": "bench", "name": name},
     "strategy": "best-first", "max_explored": 30}
    for name in CORPUS_NAMES
]

#: Fresh-worker sweeps per side of the seeding comparison.  One sweep
#: is ten solves, too few for a single sample to beat machine noise;
#: each side reports its median sweep.
SWEEPS = 3


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
        worker.flush()
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
    """Seeded vs unseeded cold workers on novel traffic; returns row.

    Every sweep boots a fresh worker over its own directory: a copy of
    the prewarmed one (seeded) or an empty one (unseeded), so neither
    side sees the other's reports or flushes.  The sides alternate
    which goes first.
    """
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "corpus.json")
        with open(corpus_path, "w") as handle:
            json.dump(CORPUS_JOBS, handle)
        cache_dir = os.path.join(tmp, "cache")
        summary = prewarm(corpus_path, cache_dir)
        assert summary["ok"]

        def sweep(side, index):
            pool = os.path.join(tmp, "%s-%d" % (side, index))
            if side == "seeded":
                shutil.copytree(cache_dir, pool)
            service = SolveService(disk=DiskCache(pool))
            assert (service.seeded_entries > 0) == (side == "seeded")
            start = time.perf_counter()
            hits = misses = 0
            costs = {}
            for request in NOVEL_REQUESTS:
                report, tier = service.solve(dict(request))
                assert report["ok"] and tier == "engine"
                hits += report["stats"]["memo_hits"]
                misses += report["stats"]["memo_misses"]
                costs[request["label"]] = report["cost"]
            return time.perf_counter() - start, (hits, misses, costs)

        runs = {"seeded": [], "unseeded": []}
        for index in range(SWEEPS):
            order = ["seeded", "unseeded"]
            if index % 2:
                order.reverse()
            for side in order:
                runs[side].append(sweep(side, index))
        sides = {}
        for side, sweeps in runs.items():
            hits, misses, costs = sweeps[0][1]
            assert all(work == (hits, misses, costs)
                       for _, work in sweeps), \
                "fresh workers did different work on the same requests"
            sides[side] = {
                "seconds": statistics.median(s for s, _ in sweeps),
                "sweep_seconds": [s for s, _ in sweeps],
                "memo_hits": hits, "memo_misses": misses, "costs": costs}
        seeded, unseeded = sides["seeded"], sides["unseeded"]
        assert seeded.pop("costs") == unseeded.pop("costs"), \
            "memo seeding changed results"
    return {
        "corpus_jobs": len(CORPUS_JOBS),
        "novel_requests": len(NOVEL_REQUESTS),
        "sweeps": SWEEPS,
        "seeded_memo_entries": summary["memo_entries"],
        "seeded": seeded,
        "unseeded": unseeded,
        "miss_reduction": (
            1.0 - (seeded["memo_misses"] / unseeded["memo_misses"])
            if unseeded["memo_misses"] else 0.0),
        "seeded_speedup": unseeded["seconds"] / seeded["seconds"],
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
    warm_rows = [
        ["unseeded", warm["unseeded"]["memo_misses"],
         warm["unseeded"]["memo_hits"],
         "%.3f" % warm["unseeded"]["seconds"]],
        ["prewarmed", warm["seeded"]["memo_misses"],
         warm["seeded"]["memo_hits"],
         "%.3f" % warm["seeded"]["seconds"]],
    ]
    table += "\n\n" + format_table(
        ["cold worker", "memo misses", "memo hits",
         "seconds (median of %d)" % warm["sweeps"]],
        warm_rows,
        title="Prewarming: %d-job corpus, %d novel requests "
              "(miss reduction %.0f%%, seeded speed-up %.2fx)"
              % (warm["corpus_jobs"], warm["novel_requests"],
                 100 * warm["miss_reduction"], warm["seeded_speedup"]))
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
    assert results["prewarming"]["seeded"]["memo_misses"] \
        < results["prewarming"]["unseeded"]["memo_misses"]
    assert results["prewarming"]["seeded"]["seconds"] \
        <= results["prewarming"]["unseeded"]["seconds"]


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
    if warm["seeded"]["memo_misses"] >= warm["unseeded"]["memo_misses"]:
        print("FAIL: prewarming did not reduce memo misses",
              file=sys.stderr)
        failures += 1
    if warm["seeded"]["seconds"] > warm["unseeded"]["seconds"]:
        print("FAIL: the seeded worker was slower than the unseeded one "
              "on novel traffic (%.3fs vs %.3fs)"
              % (warm["seeded"]["seconds"], warm["unseeded"]["seconds"]),
              file=sys.stderr)
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
