"""Portfolio racing vs. the best single strategy.

Not a paper table: the paper picks one exploration order and lives with
it.  ``strategy="portfolio"`` races every configured strategy on the
same relation with a shared incumbent-bound channel and cancels the
losers once a racer proves its tree exhausted.  This bench measures the
two claims that make the race worth running:

* **Cost parity** — under the Table 2 exploration budget, the portfolio
  must match the best single racer's cost on every instance *without
  knowing in advance which racer that is*.  Checked across the Table 2
  suite, random ``brgen`` relations and block-structured relations
  (solved monolithically so the top-level race is the thing measured).
* **Wall-clock wins on racing families** — on instances where one
  strategy proves optimality far faster than the others, proven-
  optimality cancellation must let the race finish below the *median*
  single-racer wall clock.  These runs use a two-racer line-up
  (``bfs`` vs ``best-first``) in exhaustive configuration on instances
  where the prover is >4x faster than the plodder; the racers take
  turns in one process, and the race still beats the median because
  the cancellation cuts the plodder's tail off.

The gated instances are pinned empirically: proven-optimality
cancellation is only cost-safe where the racers' heuristic trees agree
on the exhaustive cost (``she1`` is the canonical counter-example — bfs
proves 36 first and cancels best-first before it reaches 33 — so it is
reported but not gated).

Outputs a plain-text table pair and a JSON artefact under
``benchmarks/results/``.  Besides the pytest-benchmark entry point, the
module runs standalone for CI smoke checks::

    python benchmarks/bench_portfolio.py --quick
"""

import json
import sys
import time

import pytest

from repro.api import Session, SolveRequest
from repro.benchdata.brgen import block_structured_relation, \
    random_relation

from _util import RESULTS_DIR, format_table, geometric_mean, publish

#: The concrete strategies raced by the default line-up (and solved
#: individually as the parity baseline).
LINEUP = ("bfs", "dfs", "best-first", "beam")

#: Cost-parity family: instance spec -> how to build it.  ``decompose``
#: is forced off for the block-structured entries so the *monolithic*
#: race is measured (with decomposition on, each block runs its own
#: race and there is no top-level summary to check).
COST_SUITE = (
    {"name": "int1", "kind": "bench"},
    {"name": "int2", "kind": "bench"},
    {"name": "int3", "kind": "bench"},
    {"name": "int4", "kind": "bench"},
    {"name": "int5", "kind": "bench"},
    {"name": "int7", "kind": "bench"},
    {"name": "int9", "kind": "bench"},
    {"name": "she2", "kind": "bench"},
    {"name": "gr", "kind": "bench"},
    {"name": "c17b", "kind": "bench"},
    {"name": "c17i", "kind": "bench"},
    {"name": "b9", "kind": "bench"},
    {"name": "vtx", "kind": "bench"},
    {"name": "rnd5x3s1", "kind": "brgen", "inputs": 5, "outputs": 3,
     "seed": 1},
    {"name": "rnd5x3s2", "kind": "brgen", "inputs": 5, "outputs": 3,
     "seed": 2},
    {"name": "blk4x3x2s5", "kind": "block", "shapes": [[4, 3], [4, 3]],
     "seed": 5},
    {"name": "blk3x2x3s2", "kind": "block",
     "shapes": [[3, 2], [3, 2], [3, 2]], "seed": 2},
)

#: Reported alongside the gated family but exempt from the parity gate:
#: racers disagree on the exhaustive cost, so cancellation can (and
#: does) lose to the best single strategy.  Keeping it visible in the
#: table documents the trade-off instead of hiding it.
COST_UNGATED = (
    {"name": "she1", "kind": "bench"},
)

#: Racing family: one racer proves optimality >4x faster than the
#: other and both agree on the exhaustive cost, so cancellation makes
#: the two-racer race beat the pair's median wall clock even on one
#: core.  All pinned empirically (see module docstring).
RACE_SUITE = (
    {"name": "int6", "kind": "bench"},
    {"name": "she3", "kind": "bench"},
    {"name": "rnd7x5f6s18", "kind": "brgen", "inputs": 7, "outputs": 5,
     "seed": 18, "flexibility": 0.6},
    {"name": "rnd7x4f6s6", "kind": "brgen", "inputs": 7, "outputs": 4,
     "seed": 6, "flexibility": 0.6},
)

#: Exhaustive configuration for the racing family: budget high enough
#: that both racers exhaust, unbounded frontier, and the quick solver
#: on every subrelation (keeps the racers' trees comparable).
RACE_OPTS = dict(max_explored=3000, fifo_capacity=None,
                 quick_on_subrelations=True, time_limit_seconds=60)
RACE_LINEUP = "bfs,best-first"

QUICK_COST = ("int1", "int3", "int5", "she2", "c17i", "rnd5x3s1",
              "blk3x2x3s2")
QUICK_RACE = ("int6", "she3", "rnd7x5f6s18")


def make_session(specs):
    """A session with every spec registered under its ``name``."""
    session = Session()
    for spec in specs:
        if spec["kind"] == "bench":
            session.add_benchmark(spec["name"])
        elif spec["kind"] == "brgen":
            session.add_relation(spec["name"], random_relation(
                spec["inputs"], spec["outputs"], seed=spec["seed"],
                flexibility=spec.get("flexibility", 0.5)))
        else:
            session.add_relation(spec["name"], block_structured_relation(
                [tuple(shape) for shape in spec["shapes"]],
                seed=spec["seed"]))
    return session


def run_cost_matrix(specs, ungated=()):
    """Default-budget parity: every single strategy, then the race.

    Each row: ``{instance, gated, singles: {strategy: {cost, seconds}},
    race: {cost, seconds, winner}}``.
    """
    specs = tuple(specs) + tuple(ungated)
    ungated_names = {spec["name"] for spec in ungated}
    session = make_session(specs)
    rows = []
    for spec in specs:
        base = {"relation": spec["name"]}
        if spec["kind"] == "block":
            base["decompose"] = False
        singles = {}
        for strategy in LINEUP:
            report = session.solve(SolveRequest(
                strategy=strategy, **base)).raise_for_error()
            singles[strategy] = {
                "cost": report.cost,
                "seconds": report.stats["runtime_seconds"]}
        report = session.solve(SolveRequest(
            strategy="portfolio", **base)).raise_for_error()
        rows.append({
            "instance": spec["name"],
            "gated": spec["name"] not in ungated_names,
            "singles": singles,
            "race": {"cost": report.cost,
                     "seconds": report.stats["runtime_seconds"],
                     "winner": report.portfolio["winner"]},
        })
    return rows


def run_race_matrix(specs):
    """Exhaustive two-racer races against their single-racer baselines.

    Each row: ``{instance, singles, race, median_seconds, speedup}``
    where ``speedup`` is median-over-race wall clock (>1 means the race
    beat the median racer).
    """
    session = make_session(specs)
    rows = []
    for spec in specs:
        singles = {}
        for strategy in ("bfs", "best-first"):
            report = session.solve(SolveRequest(
                relation=spec["name"], strategy=strategy,
                **RACE_OPTS)).raise_for_error()
            singles[strategy] = {
                "cost": report.cost, "stopped": report.stopped,
                "seconds": report.stats["runtime_seconds"]}
        report = session.solve(SolveRequest(
            relation=spec["name"], strategy="portfolio",
            portfolio_racers=RACE_LINEUP,
            **RACE_OPTS)).raise_for_error()
        times = sorted(s["seconds"] for s in singles.values())
        median = sum(times) / len(times)
        race_seconds = report.stats["runtime_seconds"]
        rows.append({
            "instance": spec["name"],
            "singles": singles,
            "race": {"cost": report.cost, "seconds": race_seconds,
                     "winner": report.portfolio["winner"],
                     "stopped": report.stopped},
            "median_seconds": median,
            "speedup": median / race_seconds if race_seconds else 0.0,
        })
    return rows


def summarize_cost(rows):
    table_rows = []
    for row in rows:
        best = min(s["cost"] for s in row["singles"].values())
        cells = [row["instance"] if row["gated"]
                 else row["instance"] + "*"]
        cells += ["%.0f" % row["singles"][s]["cost"] for s in LINEUP]
        cells += ["%.0f" % row["race"]["cost"], row["race"]["winner"],
                  "yes" if row["race"]["cost"] <= best else "NO"]
        table_rows.append(cells)
    headers = (["instance"] + list(LINEUP)
               + ["race", "winner", "parity"])
    return format_table(
        headers, table_rows,
        title="Portfolio cost parity, Table 2 budget "
              "(* = reported, not gated: racers disagree on the "
              "exhaustive cost)")


def summarize_races(rows):
    table_rows = []
    for row in rows:
        table_rows.append([
            row["instance"],
            "%.3f" % row["singles"]["bfs"]["seconds"],
            "%.3f" % row["singles"]["best-first"]["seconds"],
            "%.3f" % row["median_seconds"],
            "%.3f" % row["race"]["seconds"],
            "%.2fx" % row["speedup"],
            "%.0f" % row["race"]["cost"],
            row["race"]["winner"],
        ])
    table_rows.append([
        "geo-mean", "", "", "", "",
        "%.2fx" % geometric_mean([row["speedup"] for row in rows]),
        "", ""])
    headers = ["instance", "bfs s", "best-first s", "median s",
               "race s", "speedup", "race cost", "winner"]
    return format_table(
        headers, table_rows,
        title="Racing family, exhaustive two-racer line-up "
              "(speedup = median single / race wall clock)")


def check_rows(cost_rows, race_rows):
    """The hard gates; returns a list of failure strings."""
    failures = []
    for row in cost_rows:
        best = min(s["cost"] for s in row["singles"].values())
        if row["gated"] and row["race"]["cost"] > best:
            failures.append(
                "%s: race cost %.0f lost to best single %.0f"
                % (row["instance"], row["race"]["cost"], best))
        if row["race"]["winner"] is None:
            failures.append("%s: race reported no winner"
                            % row["instance"])
    for row in race_rows:
        best = min(s["cost"] for s in row["singles"].values())
        if row["race"]["cost"] > best:
            failures.append(
                "%s: race cost %.0f lost to best single %.0f"
                % (row["instance"], row["race"]["cost"], best))
        if row["race"]["seconds"] >= row["median_seconds"]:
            failures.append(
                "%s: race wall %.3fs did not beat the median racer "
                "%.3fs" % (row["instance"], row["race"]["seconds"],
                           row["median_seconds"]))
        for strategy, single in row["singles"].items():
            if single["stopped"] != "exhausted":
                failures.append(
                    "%s: %s stopped on %s, not exhaustion — racing "
                    "family budget too small"
                    % (row["instance"], strategy, single["stopped"]))
    return failures


def write_artefact(cost_rows, race_rows):
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_portfolio.json").write_text(
        json.dumps({"cost": cost_rows, "racing": race_rows},
                   indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="portfolio")
def test_portfolio_matrix(benchmark):
    cost_rows, race_rows = benchmark.pedantic(
        lambda: (run_cost_matrix(COST_SUITE, COST_UNGATED),
                 run_race_matrix(RACE_SUITE)),
        rounds=1, iterations=1)
    publish("bench_portfolio.txt",
            summarize_cost(cost_rows) + "\n\n"
            + summarize_races(race_rows))
    write_artefact(cost_rows, race_rows)
    failures = check_rows(cost_rows, race_rows)
    assert not failures, failures


# ----------------------------------------------------------------------
# Quick mode: dependency-free smoke run for CI
# ----------------------------------------------------------------------
def run_quick() -> int:
    """Gated subset of both families; verify and print the tables.

    Returns a process exit code: non-zero when the portfolio loses on
    cost to the best single racer on any gated instance, or fails to
    beat the median racer's wall clock on a racing-family instance.
    """
    start = time.perf_counter()
    cost_rows = run_cost_matrix(
        [spec for spec in COST_SUITE if spec["name"] in QUICK_COST])
    race_rows = run_race_matrix(
        [spec for spec in RACE_SUITE if spec["name"] in QUICK_RACE])
    elapsed = time.perf_counter() - start
    print(summarize_cost(cost_rows))
    print()
    print(summarize_races(race_rows))
    print()
    write_artefact(cost_rows, race_rows)
    failures = check_rows(cost_rows, race_rows)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if failures:
        return 1
    print("quick mode ok: %d cost + %d racing instances in %.2fs"
          % (len(cost_rows), len(race_rows), elapsed))
    return 0


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        sys.exit(run_quick())
    print("usage: python benchmarks/bench_portfolio.py --quick\n"
          "(or run under pytest with pytest-benchmark for full numbers)",
          file=sys.stderr)
    sys.exit(2)
