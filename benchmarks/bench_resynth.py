"""Resynthesis benchmarks: the paper's Table 3 workload at volume.

Runs the :mod:`repro.resynth` pipeline over the bundled benchdata
circuits — hundreds of windowed flexibility relations streamed through
``solve_many`` over one shared session — and reports per-circuit
literal/gate savings, rewrite acceptance and wall clock.

Hard gates (both modes):

* every rewritten netlist is functionally equivalent to the original
  at the combinational outputs (exhaustive or signature check);
* net literal savings >= 0 on every circuit (the acceptance gate only
  installs strictly-improving rewrites, so this is a pipeline
  invariant).

Standalone quick mode for CI::

    python benchmarks/bench_resynth.py --quick

writes ``benchmarks/results/bench_resynth.json`` either way.
"""

import json
import sys

import pytest

from _util import RESULTS_DIR, format_table, publish

from repro.api import Session
from repro.resynth import ResynthRequest, resynthesize

#: Small circuits for the CI smoke; the full run covers every spec.
QUICK_CIRCUITS = ("s27", "s208", "s298", "s386")


def circuit_names(quick):
    if quick:
        return list(QUICK_CIRCUITS)
    from repro.benchdata.circuits import CIRCUITS
    return [spec.name for spec in CIRCUITS]


def run_workload(quick=True):
    session = Session()
    rows = []
    for name in circuit_names(quick):
        request = ResynthRequest(
            circuit=name, passes=1 if quick else 2, window=8,
            max_explored=8, executor="serial", seed=0, label=name)
        report = resynthesize(request, session=session)
        if not report.ok:
            raise RuntimeError("resynth failed on %s: %s"
                               % (name, report.error))
        rows.append({
            "circuit": name,
            "literals_before": report.literals_before,
            "literals_after": report.literals_after,
            "literal_savings": report.literal_savings,
            "gate_savings": report.gate_savings,
            "relations_mined": report.relations_mined,
            "relations_solved": report.relations_solved,
            "rewrites_accepted": report.rewrites_accepted,
            "equivalent": report.equivalent,
            "verify_method": report.verify_method,
            "runtime_seconds": report.runtime_seconds,
        })
    totals = {
        "circuits": len(rows),
        "literal_savings": sum(r["literal_savings"] for r in rows),
        "relations_mined": sum(r["relations_mined"] for r in rows),
        "rewrites_accepted": sum(r["rewrites_accepted"] for r in rows),
        "runtime_seconds": sum(r["runtime_seconds"] for r in rows),
    }
    return {"quick": quick, "rows": rows, "totals": totals}


def check_gates(results):
    """The hard acceptance gates; returns a list of failure strings."""
    failures = []
    for row in results["rows"]:
        if row["equivalent"] is not True:
            failures.append("%s: rewritten netlist not equivalent"
                            % row["circuit"])
        if row["literal_savings"] < 0:
            failures.append("%s: negative literal savings (%d)"
                            % (row["circuit"], row["literal_savings"]))
    return failures


def summarize(results):
    headers = ["circuit", "lits", "after", "saved", "rels", "accepted",
               "equal", "secs"]
    table_rows = [
        [r["circuit"], r["literals_before"], r["literals_after"],
         r["literal_savings"], r["relations_mined"],
         r["rewrites_accepted"],
         "yes" if r["equivalent"] else "NO",
         "%.3f" % r["runtime_seconds"]]
        for r in results["rows"]]
    totals = results["totals"]
    table = format_table(
        headers, table_rows,
        title="Resynthesis over %d benchdata circuits "
              "(windowed cuts -> solve_many, shared session)"
              % totals["circuits"])
    table += ("\ntotal: %d literals saved, %d/%d rewrites, %.2fs"
              % (totals["literal_savings"], totals["rewrites_accepted"],
                 totals["relations_mined"], totals["runtime_seconds"]))
    return table


def write_artefact(results):
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_resynth.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="resynth")
def test_resynth_workload(benchmark):
    results = benchmark.pedantic(lambda: run_workload(quick=True),
                                 rounds=1, iterations=1)
    publish("bench_resynth.txt", summarize(results))
    write_artefact(results)
    assert not check_gates(results)


def run_quick() -> int:
    results = run_workload(quick=True)
    print(summarize(results))
    print()
    write_artefact(results)
    failures = check_gates(results)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    print("quick mode %s" % ("ok" if not failures else "FAILED"))
    return len(failures)


def run_full() -> int:
    results = run_workload(quick=False)
    print(summarize(results))
    print()
    write_artefact(results)
    failures = check_gates(results)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return len(failures)


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        sys.exit(run_quick())
    if "--full" in sys.argv[1:]:
        sys.exit(run_full())
    print("usage: python benchmarks/bench_resynth.py --quick|--full\n"
          "(or run under pytest with pytest-benchmark)",
          file=sys.stderr)
    sys.exit(2)
