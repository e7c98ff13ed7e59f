"""Table kernel benchmark: bit-parallel ops vs the BDD engine on
narrow leaf workloads.

Not a paper table: the 2004 tool ran everything on CUDD.  This bench
measures what the standalone :class:`repro.table.TableManager` engine
buys on narrow functions — the leaf workload of a BREL solve: the
apply family, cofactors, quantifiers and implication checks, exactly
the operations the recursion performs below the split point (and the
ones the kernel turns into whole-table word operations;
shared-recursion passes like ISOP show up in the engine-solve sweep
instead).

Three sweeps land in ``benchmarks/results/bench_table_kernel.{txt,json}``:

* **kernel sweep** — the same scripted op mix run on matched random
  functions (identical minterm sets) in a :class:`BddManager` and a
  :class:`TableManager`, for 6/8/10-variable leaves.  Every result is
  fingerprint-checked across engines, so the timing compares two
  implementations of *the same* semantics.
* **kernel-vs-kernel sweep** — the int kernel vs the numpy word-array
  kernel on the full packed-table protocol (op mix *plus* the counting
  views: ``sat_count`` is where the hardware popcount pays) at widths
  10/14/16/18.  Width 18 is numpy-only — the int kernel's ceiling is
  16, which is the point of the numpy kernel.  Checksums and
  fingerprints are compared wherever both kernels run.
* **engine-solve sweep** — full ``BrelSolver`` runs on narrow seeded
  relations built on a ``BddManager`` vs the same relations built on
  a ``TableManager``, verifying cost parity (solver overhead shared by
  both engines dilutes the kernel win; the row shows what survives end
  to end).

Besides the pytest-benchmark entry point, the module runs standalone
for CI smoke checks::

    python benchmarks/bench_table_kernel.py --quick

which runs a reduced sweep and fails loudly unless the table kernel
is >=2x faster than the BDD engine on the 10-variable leaf workload
and the numpy kernel >=2x faster than the int kernel at width 16
(skipped without numpy) — the acceptance floors; observed ratios are
higher.  (The deep-recursion solve that used to gate in-recursion
routing now gates the solve-wide ISOP table, in
``bench_bdd_engine.py --quick``.)
"""

import json
import random
import sys
import time

import pytest

from repro.bdd import BddManager
from repro.benchdata.brgen import random_relation
from repro.core import (BrelOptions, BrelSolver, relation_from_nodes,
                        relation_to_nodes)
from repro.table import MAX_TABLE_WIDTH, TableManager, npkernel

from _util import RESULTS_DIR, format_table, publish

#: Leaf widths swept by the kernel comparison.
VAR_COUNTS = (6, 8, 10)

#: The width the acceptance gate runs on.
FLAGSHIP_VARS = 10

#: Matched random functions per width and workload rounds over them.
POOL_SIZE = 12
ROUNDS = 60
QUICK_ROUNDS = 25

#: Seeded relations for the engine-solve sweep (inputs, outputs, seed).
SOLVE_CASES = ((4, 4, 3), (5, 4, 7), (5, 5, 11))
MAX_EXPLORED = 120

#: Widths of the int-vs-numpy kernel sweep.  Width 18 is past the int
#: kernel's ceiling (:data:`MAX_TABLE_WIDTH`), so that row is
#: numpy-only by construction.
KERNEL_VS_VAR_COUNTS = (10, 14, 16, 18)
#: The width the numpy-over-int acceptance gate runs on, and its floor.
KERNEL_VS_GATE_VARS = 16
KERNEL_VS_FLOOR = 2.0
KERNEL_VS_ROUNDS = 120
KERNEL_VS_POOL = 10


def build_pools(num_vars, seed):
    """Matched (bdd, table) function pools over identical minterms."""
    rng = random.Random(seed)
    mgr = BddManager()
    tm = TableManager(max_width=num_vars)
    bdd_vars = mgr.add_vars(num_vars)
    table_vars = tm.add_vars(num_vars)
    bdd_pool, table_pool = [], []
    for _ in range(POOL_SIZE):
        minterms = [i for i in range(1 << num_vars)
                    if rng.random() < 0.5]
        bdd_pool.append(mgr.from_minterms(bdd_vars, minterms))
        table_pool.append(tm.from_minterms(table_vars, minterms))
    return (mgr, bdd_vars, bdd_pool), (tm, table_vars, table_pool)


def leaf_workload(engine, variables, pool, rounds, seed):
    """The scripted leaf op mix; returns the produced handles.

    Chained: each round combines earlier *products*, not just the
    seed pool, so every round manufactures genuinely new functions —
    neither engine can serve the sweep from its operation cache, which
    is exactly the regime of a descending BREL recursion (every split
    produces subproblems the caches have never seen).
    """
    rng = random.Random(seed)
    current = list(pool)
    products = []
    for _ in range(rounds):
        f, g, h = (rng.choice(current) for _ in range(3))
        var = rng.choice(variables)
        r1 = engine.and_(f, engine.xor_(g, h))
        r2 = engine.or_(engine.diff(h, f),
                        engine.cofactor(g, var, True))
        r3 = engine.ite(r1, r2, engine.exists(f, [var]))
        engine.implies(r1, engine.or_(r1, r2))
        current[rng.randrange(len(current))] = r3
        products.extend((r1, r2, r3))
    return products


def run_kernel_row(num_vars, rounds):
    """Time the same workload on both engines; verify op parity."""
    (mgr, bdd_vars, bdd_pool), (tm, table_vars, table_pool) = \
        build_pools(num_vars, seed=num_vars)
    start = time.perf_counter()
    bdd_products = leaf_workload(mgr, bdd_vars, bdd_pool, rounds,
                                 seed=100 + num_vars)
    bdd_dt = time.perf_counter() - start
    start = time.perf_counter()
    table_products = leaf_workload(tm, table_vars, table_pool, rounds,
                                   seed=100 + num_vars)
    table_dt = time.perf_counter() - start
    # Parity check outside the timed region: every produced function
    # must hash identically across engines.
    assert [mgr.fingerprint(p) for p in bdd_products] \
        == [tm.fingerprint(p) for p in table_products], \
        "engines disagree on the %d-var leaf workload" % num_vars
    return {"vars": num_vars, "rounds": rounds,
            "bdd_seconds": bdd_dt, "table_seconds": table_dt,
            "speedup": (bdd_dt / table_dt) if table_dt > 0
            else float("inf")}


def on_table_engine(relation):
    """``relation`` rebuilt on a fresh ``TableManager`` over its
    compacted frame (same variable order and names)."""
    frame = sorted(set(relation.inputs) | set(relation.outputs))
    tm = TableManager([relation.mgr.var_name(var) for var in frame],
                      max_width=len(frame))
    return relation_from_nodes(relation_to_nodes(relation), mgr=tm)


def run_solve_row(num_inputs, num_outputs, seed):
    """Full solves on each engine; verify cost parity."""
    timings = {}
    costs = {}
    for engine in ("bdd", "table"):
        relation = random_relation(num_inputs, num_outputs, seed=seed)
        if engine == "table":
            relation = on_table_engine(relation)
        options = BrelOptions(max_explored=MAX_EXPLORED)
        start = time.perf_counter()
        result = BrelSolver(options).solve(relation)
        timings[engine] = time.perf_counter() - start
        costs[engine] = result.solution.cost
    assert costs["bdd"] == costs["table"], \
        "the engines disagree on the final cost (%d+%d seed=%d)" \
        % (num_inputs, num_outputs, seed)
    return {"inputs": num_inputs, "outputs": num_outputs, "seed": seed,
            "cost": costs["bdd"],
            "bdd_seconds": timings["bdd"],
            "table_seconds": timings["table"],
            "speedup": (timings["bdd"] / timings["table"])
            if timings["table"] > 0 else float("inf")}


def build_expression_pool(tm, num_vars, seed):
    """Random functions built by literal chains (width-independent).

    Minterm enumeration (``build_pools``) is O(2**n) per function,
    too slow past 16 vars; folding random literals through random ops
    costs O(ops) and replays identically on every kernel, which is all
    the parity check needs.
    """
    rng = random.Random(seed)
    pool = []
    for _ in range(KERNEL_VS_POOL):
        f = tm.var(rng.randrange(num_vars))
        for _ in range(3 * num_vars):
            literal = tm.var(rng.randrange(num_vars))
            if rng.random() < 0.5:
                literal = tm.not_(literal)
            op = rng.choice((tm.and_, tm.or_, tm.xor_))
            f = op(f, literal)
        pool.append(f)
    return pool


def counting_workload(tm, variables, pool, rounds, seed):
    """The leaf op mix plus the counting views.

    Same chained structure as :func:`leaf_workload`, with each round's
    products also run through ``sat_count`` — the packed-table protocol
    includes the counting views (``pair_count`` and friends), and they
    are where the numpy kernel's hardware popcount separates from the
    int kernel's string-based count at large widths.  Returns the
    products plus the count checksum so cross-kernel parity covers both
    the functions and the counts.
    """
    rng = random.Random(seed)
    current = list(pool)
    products = []
    checksum = 0
    for _ in range(rounds):
        f, g, h = (rng.choice(current) for _ in range(3))
        var = rng.choice(variables)
        r1 = tm.and_(f, tm.xor_(g, h))
        r2 = tm.or_(tm.diff(h, f), tm.cofactor(g, var, True))
        r3 = tm.ite(r1, r2, tm.exists(f, [var]))
        tm.implies(r1, tm.or_(r1, r2))
        checksum += (tm.sat_count(r1, variables)
                     + tm.sat_count(r2, variables)
                     + tm.sat_count(r3, variables))
        current[rng.randrange(len(current))] = r3
        products.append(r3)
    return products, checksum


def run_kernel_vs_row(num_vars, rounds):
    """Time the counting workload on the int and numpy kernels.

    Either kernel may be absent from a row: int past its width
    ceiling, numpy when not installed.  Parity (count checksum +
    product fingerprints) is asserted whenever both ran.
    """
    kernels = []
    if num_vars <= MAX_TABLE_WIDTH:
        kernels.append("int")
    if npkernel.available():
        kernels.append("numpy")
    timings = {}
    views = {}
    for kernel in kernels:
        best = None
        for _ in range(2):
            tm = TableManager(max_width=num_vars, kernel=kernel)
            variables = tm.add_vars(num_vars)
            pool = build_expression_pool(tm, num_vars, seed=num_vars)
            start = time.perf_counter()
            products, checksum = counting_workload(
                tm, variables, pool, rounds, seed=100 + num_vars)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        timings[kernel] = best
        views[kernel] = (checksum,
                         [tm.fingerprint(p) for p in products[:20]])
    if len(kernels) == 2:
        assert views["int"] == views["numpy"], \
            "kernels disagree on the %d-var counting workload" % num_vars
    int_dt = timings.get("int")
    numpy_dt = timings.get("numpy")
    return {"vars": num_vars, "rounds": rounds,
            "int_seconds": int_dt, "numpy_seconds": numpy_dt,
            "speedup": (int_dt / numpy_dt)
            if int_dt and numpy_dt else None}


def run_sweeps(rounds):
    """All three sweeps; returns the artefact dict."""
    return {"kernel_rows": [run_kernel_row(v, rounds)
                            for v in VAR_COUNTS],
            "kernel_vs_rows": [run_kernel_vs_row(v, KERNEL_VS_ROUNDS)
                               for v in KERNEL_VS_VAR_COUNTS],
            "solve_rows": [run_solve_row(*case)
                           for case in SOLVE_CASES],
            "flagship_vars": FLAGSHIP_VARS,
            "kernel_vs_gate_vars": KERNEL_VS_GATE_VARS,
            "numpy_available": npkernel.available(),
            "pool_size": POOL_SIZE,
            "max_explored": MAX_EXPLORED}


def flagship_row(results):
    for row in results["kernel_rows"]:
        if row["vars"] == results["flagship_vars"]:
            return row
    raise KeyError("flagship width missing from results")


def kernel_vs_gate_row(results):
    """The width-16 int-vs-numpy row, or ``None`` without numpy."""
    if not results.get("numpy_available"):
        return None
    for row in results["kernel_vs_rows"]:
        if row["vars"] == results["kernel_vs_gate_vars"]:
            return row
    raise KeyError("kernel-vs gate width missing from results")


def summarize(results):
    kernel = format_table(
        ["vars", "bdd s", "table s", "speedup"],
        [[row["vars"], "%.4f" % row["bdd_seconds"],
          "%.4f" % row["table_seconds"], "%.1fx" % row["speedup"]]
         for row in results["kernel_rows"]],
        title="Leaf op workload: BDD engine vs bit-parallel table "
              "kernel (matched functions, fingerprint-verified)")
    kernel_vs = format_table(
        ["vars", "int s", "numpy s", "numpy speedup"],
        [[row["vars"],
          "%.4f" % row["int_seconds"]
          if row["int_seconds"] is not None else "(past ceiling)",
          "%.4f" % row["numpy_seconds"]
          if row["numpy_seconds"] is not None else "(not installed)",
          "%.2fx" % row["speedup"]
          if row["speedup"] is not None else "-"]
         for row in results["kernel_vs_rows"]],
        title="Kernel vs kernel: int bigints vs numpy word arrays on "
              "the counting workload (checksum-verified)")
    solves = format_table(
        ["relation", "bdd s", "table s", "speedup", "cost"],
        [["%d+%d/s%d" % (row["inputs"], row["outputs"], row["seed"]),
          "%.4f" % row["bdd_seconds"], "%.4f" % row["table_seconds"],
          "%.2fx" % row["speedup"], row["cost"]]
         for row in results["solve_rows"]],
        title="Full solves: relation built on the BDD engine vs on the "
              "table engine (equal final cost)")
    return "\n\n".join((kernel, kernel_vs, solves))


def _write_artefact(results):
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_table_kernel.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="table-kernel")
def test_table_kernel_sweeps(benchmark):
    results = benchmark.pedantic(run_sweeps, args=(ROUNDS,),
                                 rounds=1, iterations=1)
    publish("bench_table_kernel.txt", summarize(results))
    _write_artefact(results)
    assert flagship_row(results)["speedup"] >= 2.0
    gate = kernel_vs_gate_row(results)
    if gate is not None:
        assert gate["speedup"] >= KERNEL_VS_FLOOR


# ----------------------------------------------------------------------
# Quick mode: dependency-free smoke run for CI
# ----------------------------------------------------------------------
def run_quick() -> int:
    """Reduced sweep; verify parity and the 2x kernel floor."""
    start = time.perf_counter()
    results = run_sweeps(QUICK_ROUNDS)
    elapsed = time.perf_counter() - start
    print(summarize(results))
    print()
    _write_artefact(results)
    flagship = flagship_row(results)
    # The kernel advantage is structural (whole-table words vs
    # node-by-node traversal), far above timing noise, so quick mode
    # enforces the full 2x acceptance floor.
    failures = []
    if flagship["speedup"] < 2.0:
        failures.append(
            "table kernel speedup %.2fx on the %d-var leaf workload, "
            "below the 2x floor"
            % (flagship["speedup"], flagship["vars"]))
    gate = kernel_vs_gate_row(results)
    if gate is not None and gate["speedup"] < KERNEL_VS_FLOOR:
        failures.append(
            "numpy kernel %.2fx over the int kernel at width %d, "
            "below the %.1fx floor"
            % (gate["speedup"], gate["vars"], KERNEL_VS_FLOOR))
    if failures:
        for failure in failures:
            print("FAIL: " + failure, file=sys.stderr)
        return 1
    print("quick mode ok: %d widths + %d solves in %.2fs "
          "(flagship %d vars: %.1fx, numpy@16: %s)"
          % (len(VAR_COUNTS), len(SOLVE_CASES), elapsed,
             flagship["vars"], flagship["speedup"],
             "%.1fx" % gate["speedup"] if gate is not None else "n/a"))
    return 0


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        sys.exit(run_quick())
    print("usage: python benchmarks/bench_table_kernel.py --quick\n"
          "(or run under pytest with pytest-benchmark for full numbers)",
          file=sys.stderr)
    sys.exit(2)
