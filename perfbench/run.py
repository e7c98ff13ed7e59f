"""End-to-end benchmark of the BREL solver stack.

One run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics.  The run sends a fixed number of request units, set from
``--seconds`` and the workload's nominal unit time, so every run of a
seed does the same work whatever the program's speed; ``--trace 1``
runs the fixed request prefix twice, untraced then traced, and reports
the per-layer metrics.  Times are scaled to a reference machine speed
measured next to every timed call (see ``speed.py``).  The last line of
standard output is the result as one JSON object.

Every workload and seed in one go, saving one record per run:

    python3 perfbench/run.py --workload all --seeds 1,2,3 --trace both \\
        --out perfbench/results/base

Compare two such directories with ``perfbench/compare.py``.  Use seed
``HELD_OUT_SEED`` only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Seed reserved for confirming a claim; never used while tuning.
HELD_OUT_SEED = 9001
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Self-check: root spans must cover this share of operation wall time.
COVERAGE_FLOOR = 0.95
#: Per-process time limit for the ``all`` mode's child runs.
CHILD_TIMEOUT = 175

clock = time.perf_counter


class Op:
    """One timed call: ``latency`` is raw wall seconds; ``scaled`` is the
    same without the speed meter's handler time, at the reference
    machine speed."""

    __slots__ = ("job", "unit", "latency", "scaled", "answer", "error")

    def __init__(self, job: Any, unit: int, latency: float, handler: float,
                 scale: float, answer: Optional[Dict[str, Any]],
                 error: Optional[str]) -> None:
        self.job = job
        self.unit = unit
        self.latency = latency
        self.scaled = (latency - handler) * scale
        self.answer = answer
        self.error = error


def environment() -> Dict[str, Any]:
    """What a result must match to be comparable with another."""
    import platform
    from repro.table import npkernel
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    kernels: Dict[str, List[int]] = {}
    for width in range(1, npkernel.MAX_NUMPY_TABLE_WIDTH + 1):
        try:
            kernel = npkernel.resolve_kernel("auto", width)
        except ValueError:
            kernel = "none"
        kernels.setdefault(kernel, []).append(width)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "table_kernel_auto": {kernel: "%d-%d" % (widths[0], widths[-1])
                              for kernel, widths in kernels.items()},
        "nproc": os.cpu_count(),
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
    }


def run_pass(workload: Any, units: int, tracer: Any = None) -> List[Op]:
    """Send ``units`` units of requests, one at a time.

    The speed meter samples the reference work during every call and
    between calls; a call's time is scaled by the samples from the
    boundary before it to the boundary after it.
    """
    workload.start_pass()
    ops: List[Op] = []
    meter = speed.SpeedMeter()
    meter.start()
    try:
        for unit in range(units):
            jobs = workload.jobs(unit)
            workload.begin_unit(unit)
            first = meter.boundary()
            for job in jobs:
                if tracer is not None:
                    tracer.op = len(ops)
                spent = meter.spent
                begin = clock()
                try:
                    answer, error = workload.execute(job), None
                except Exception as exc:  # noqa: BLE001 -- counted
                    answer, error = None, "%s: %s" % (type(exc).__name__,
                                                      exc)
                latency = clock() - begin
                if tracer is not None:
                    tracer.op = None
                handler = meter.spent - spent
                after = meter.boundary()
                ops.append(Op(job, unit, latency, handler,
                              meter.scale(first), answer, error))
                first = after
    finally:
        meter.stop()
    return ops


def scaled_wall(ops: List[Op]) -> float:
    return sum(op.scaled for op in ops)


def check_ops(workload: Any, ops: List[Op]
              ) -> Tuple[List[str], float, List[str]]:
    """Oracle verdicts: failures, summed cost, traffic-mix errors."""
    failures: List[str] = []
    mix: List[str] = []
    cost = 0.0
    for index, op in enumerate(ops):
        if op.error is None:
            error, op_cost = workload.check(op.job, op.answer, index)
            problem = workload.mix_error(op.job, op.answer)
            if problem:
                mix.append("op %d: %s" % (index, problem))
        else:
            error, op_cost = op.error, None
        if error is not None:
            failures.append("op %d (%s): %s" % (index, op.job.kind, error))
        else:
            cost += op_cost
    return failures, cost, mix


def setup_seconds(workload: Any) -> float:
    samples = []
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               workload.name]
    pool = workload.setup_pool()
    if pool is not None:
        command.append(pool)
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


Outcome = Tuple[Dict[str, float], List[str], List[str], int, Dict[str, Any]]


def end_to_end(workload: Any, seconds: float) -> Outcome:
    """Metrics, failed operations, self-check problems, attempts, notes."""
    setup = setup_seconds(workload)
    ops = run_pass(workload, workload.units_for(seconds))
    failures, cost, mix = check_ops(workload, ops)
    latencies = [op.scaled for op in ops]
    raw = [op.latency for op in ops]
    units = ops[-1].unit + 1
    metrics = {
        "setup_s": setup,
        "throughput_ops_s": (len(ops) - len(failures)) / scaled_wall(ops),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "quality_cost": cost,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_kind: Dict[str, List[float]] = {}
    for op in ops:
        by_kind.setdefault(op.job.kind, []).append(1e3 * op.scaled)
    notes = {"operations": len(ops), "units": units,
             "raw_wall_s": sum(raw),
             "raw_latency_p50_ms": 1e3 * percentile(raw, 0.5),
             "raw_latency_p90_ms": 1e3 * percentile(raw, 0.9),
             "speed_vs_reference": statistics.median(
                 op.scaled / op.latency for op in ops if op.latency),
             "beyond_p90": len(ops) - 1 - int(0.9 * len(ops)),
             "error_rate": len(failures) / len(ops),
             "latency_ms_by_kind": {
                 kind: [min(values), statistics.median(values), max(values)]
                 for kind, values in by_kind.items()}}
    return metrics, failures, mix, len(ops), notes


def traced(workload: Any) -> Outcome:
    """The prefix untraced, then traced; per-layer metrics."""
    import tracing
    units = workload.prefix_units
    plain_ops = run_pass(workload, units)
    tracer = tracing.Tracer()
    missing = tracer.install()
    try:
        ops = run_pass(workload, units, tracer=tracer)
    finally:
        tracer.uninstall()
    counters = workload.counters()
    metrics = tracing.layer_metrics(tracer, counters)
    coverage, worst = tracing.root_coverage(
        tracer.spans, {index: op.latency for index, op in enumerate(ops)})
    plain_wall, wall = scaled_wall(plain_ops), scaled_wall(ops)
    metrics.update({
        "trace.untraced_ops_s": len(plain_ops) / plain_wall,
        "trace.traced_ops_s": len(ops) / wall,
        "trace.overhead_ratio": wall / plain_wall - 1.0,
        "trace.root_coverage": coverage,
        "trace.root_coverage_min": worst,
    })
    failures: List[str] = []
    problems: List[str] = []
    for pass_ops in (plain_ops, ops):
        pass_failures, _, mix = check_ops(workload, pass_ops)
        failures.extend(pass_failures)
        problems.extend(mix)
    if coverage < COVERAGE_FLOOR:
        problems.append("root spans cover %.3f of operation time, below "
                        "%.2f" % (coverage, COVERAGE_FLOOR))
    notes = {"operations_per_pass": len(ops), "spans": len(tracer.spans),
             "unpatched": missing}
    return metrics, failures, problems, len(plain_ops) + len(ops), notes


def declared_metrics(trace_on: bool) -> Dict[str, str]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    key = "per_layer" if trace_on else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in declared[key]}


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    units = declared_metrics(args.trace == "1")
    workdir = os.path.join(HERE, ".work", "%s-%d" % (args.workload,
                                                     os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        print("env %s" % json.dumps(environment(), sort_keys=True))
        if args.trace == "1":
            outcome = traced(workload)
        else:
            outcome = end_to_end(workload, args.seconds)
        metrics, failures, problems, attempted, notes = outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        print("error: metrics %s do not match BENCHMARK.json"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    print("notes %s" % json.dumps(notes, sort_keys=True))
    for problem in (failures + problems)[:20]:
        print("problem %s" % problem)
    for name in sorted(metrics):
        print("metric %-28s %-16r %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload x seed in fresh processes; one record per run."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        names = [entry["name"] for entry in json.load(handle)["workloads"]]
    seeds = [int(seed) for seed in args.seeds.split(",")]
    traces = ["0", "1"] if args.trace == "both" else [args.trace]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    status = 0
    for name in names:
        for trace_flag in traces:
            for seed in seeds:
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", trace_flag]
                done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print("%s seed %d trace %s: FAILED (exit %d)\n%s"
                          % (name, seed, trace_flag, done.returncode,
                             done.stderr[-2000:]))
                    status = 1
                    continue
                result = json.loads(lines[-1])
                env = next(json.loads(line[4:]) for line in lines
                           if line.startswith("env "))
                if not result["correct"]:
                    status = 1
                print("%s seed %d trace %s: correct=%s failed=%d/%d"
                      % (name, seed, trace_flag, result["correct"],
                         result["failed"], result["attempted"]))
                for metric, entry in result["metrics"].items():
                    print("  %-28s %-16.6g %s" % (metric, entry["value"],
                                                 entry["unit"]))
                if args.out:
                    record = {"workload": name, "seed": seed,
                              "trace": int(trace_flag),
                              "seconds": args.seconds, "env": env,
                              "result": result}
                    path = os.path.join(args.out, "%s-s%d-t%s.json"
                                        % (name, seed, trace_flag))
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(record, handle, indent=1, sort_keys=True)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve", "resynth", "service", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds for --workload all")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", default="0", choices=["0", "1", "both"])
    parser.add_argument("--out", help="record directory (--workload all)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace == "both":
        parser.error("--trace both needs --workload all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
