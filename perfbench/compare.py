"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py --workload all --out DIR``
writes.  Both sets must have run the same seeds at the same
``--seconds``; runs are paired by seed, so the inputs of a pair are the
same and only the program differs.  For every workload x end-to-end
metric the report gives each side's median and quartiles over its runs,
the median change over the pairs (new / base - 1), the spread of the
paired ratios (quartile distance over median) and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``unresolved`` -- the paired ratios spread wider than the bound, so
  the runs cannot tell, unless every pair is better (then ``better``);
* ``regressed`` -- the median change is worse than the bound;
* ``better`` -- the median change is better by more than the spread;
* ``ok`` otherwise.

Exits 1 when any pair regressed, when any new run is not correct, or
when the new runs failed more operations than the base runs of a
workload; exits 2 when the sets cannot be compared: different
environments (Python, numpy, resolved table kernel, nproc or
``REPRO_*`` variables), run lengths or seeds.  Exits 0 otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

Runs = Dict[str, Dict[int, Dict[str, Any]]]


def load_records(directory: str) -> List[Dict[str, Any]]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def untraced(records: List[Dict[str, Any]]) -> Runs:
    """Untraced results by workload and seed."""
    runs: Runs = {}
    for record in records:
        if record["trace"] == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = (
                record["result"])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(metric: Dict[str, Any], ratios: List[float]
            ) -> Tuple[str, float, float]:
    """Verdict, median change and spread of the paired ratios."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = statistics.median(ratios) - 1.0
    width = spread(ratios)
    worse = sign * change
    if width > metric["bound"]:
        if all(sign * (ratio - 1.0) < 0 for ratio in ratios):
            return "better", change, width
        return "unresolved", change, width
    if worse > metric["bound"]:
        return "regressed", change, width
    if -worse > width:
        return "better", change, width
    return "ok", change, width


def comparable(base: List[Dict[str, Any]], new: List[Dict[str, Any]],
               base_runs: Runs, new_runs: Runs) -> List[str]:
    """Why the two sets cannot be compared (empty when they can)."""
    problems = []
    envs = {json.dumps(record["env"], sort_keys=True)
            for record in base + new}
    if len(envs) > 1:
        problems.append("the runs come from different environments:")
        problems.extend("  " + env for env in sorted(envs))
    lengths = {record["seconds"] for record in base + new}
    if len(lengths) > 1:
        problems.append("the runs have different --seconds: %s"
                        % sorted(lengths))
    for workload in sorted(set(base_runs) | set(new_runs)):
        seeds = (sorted(base_runs.get(workload, {})),
                 sorted(new_runs.get(workload, {})))
        if seeds[0] != seeds[1]:
            problems.append("%s: base seeds %s, new seeds %s"
                            % (workload, seeds[0], seeds[1]))
    return problems


def correctness(base: List[Dict[str, Any]],
                new: List[Dict[str, Any]]) -> List[str]:
    """Incorrect new runs, and workloads whose failures grew."""
    problems = []
    failed: Dict[str, List[int]] = {}
    for side, records in enumerate((base, new)):
        for record in records:
            result = record["result"]
            totals = failed.setdefault(record["workload"], [0, 0])
            totals[side] += result["failed"]
            if side == 1 and not result["correct"]:
                problems.append("%s seed %d trace %d: not correct"
                                % (record["workload"], record["seed"],
                                   record["trace"]))
    for workload, (before, after) in sorted(failed.items()):
        if after > before:
            problems.append("%s: %d failed operations, base %d"
                            % (workload, after, before))
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    base, new = load_records(argv[0]), load_records(argv[1])
    base_runs, new_runs = untraced(base), untraced(new)
    problems = comparable(base, new, base_runs, new_runs)
    if problems or not base_runs:
        print("error: the two sets cannot be compared")
        for problem in problems or ["no untraced runs"]:
            print("  " + problem)
        return 2
    status = 0
    for problem in correctness(base, new):
        print("incorrect: " + problem)
        status = 1
    print("%-8s %-17s %-30s %-30s %8s %6s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "new median [q1, q3]", "change", "spread", "bound", "verdict"))
    for workload in sorted(base_runs):
        seeds = sorted(base_runs[workload])
        for metric in metrics:
            name = metric["name"]
            b = [base_runs[workload][seed]["metrics"][name]["value"]
                 for seed in seeds]
            n = [new_runs[workload][seed]["metrics"][name]["value"]
                 for seed in seeds]
            result, change, width = verdict(
                metric, [after / before if before else float("inf")
                         for before, after in zip(b, n)])
            if result == "regressed":
                status = 1
            cells = []
            for values in (b, n):
                q1, med, q3 = quartiles(values)
                cells.append("%.4g [%.4g, %.4g]" % (med, q1, q3))
            print("%-8s %-17s %-30s %-30s %+7.1f%% %5.1f%% %5.0f%%  %s" % (
                workload, name, cells[0], cells[1], 100 * change,
                100 * width, 100 * metric["bound"], result))
    print("%d seeds per workload, paired by seed" % len(seeds))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
