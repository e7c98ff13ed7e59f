"""Substrate micro-benchmarks: the BDD engine under solver-like load.

Not a paper table; sanity numbers for the CUDD stand-in so that regressions
in the engine are visible independently of solver behaviour.

Besides the pytest-benchmark entry points, the module runs standalone for
CI smoke checks::

    python benchmarks/bench_bdd_engine.py --quick

which executes every workload once (no pytest-benchmark needed), prints
wall-clock timings plus an engine-stats snapshot, and fails loudly if a
workload returns wrong results or the computed table exceeds its bound.
Quick mode also runs one deep-recursion solve (brgen 7x7, seed 1,
``max_explored=200``) and gates on its cost and on the share
of ISOP sub-interval expansions the solve-wide ISOP table serves — a
deterministic count, so a drop means the table stopped being shared
across the solve's minimisations.  Its narrow-interval row times
elimination plus ISOP on brgen ISFs of 6 to 16 inputs through the packed
truth-table kernel (:mod:`repro.bdd.packed`) against the node-level
expansion, checks that both give the same covers and nodes, and gates
on the packed speed-up at 8 inputs.  Its MISF-layer row times one cold
MISF evaluation (project every output, ``isop``-minimise, conflict set)
of brgen relations at 2x14, 6x3, 8x6, 10x6 and 13x3 on the packed MISF
layer (:mod:`repro.core.packedrel`) against the node-level
:class:`~repro.core.BooleanRelation` operations, checks that functions
and conflict nodes are identical, and gates on the packed speed-up at
8x6 (at least 2x) and at 2x14 (no slower).
"""

import json
import random
import sys
import time

import pytest

from repro.bdd import BddManager, isop, shortest_path_cube
from repro.bdd.isop import eliminate_nonessential, expand
from repro.bdd.packed import interval_isop, node_of
from repro.benchdata import build_suite
from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver
from repro.core.minimize import minimize_isop
from repro.core.packedrel import pack_relation

#: Deep-recursion solve: brgen (inputs, outputs, seed), exploration
#: budget, the cost it must reach, and the floor on the share of ISOP
#: sub-intervals the solve-wide table serves (measured: 4594 of 6321,
#: 0.7268).
DEEP_CASE = (7, 7, 1)
DEEP_MAX_EXPLORED = 200
DEEP_COST = 288.0
DEEP_ISOP_SHARE_FLOOR = 0.72

#: Narrow-interval row: brgen input counts, relations (of 2 outputs)
#: per count — more at small widths so each timing is well above the
#: clock's noise — and the gate on the packed kernel's speed-up over
#: the node-level expansion at ``NARROW_GATE_INPUTS`` inputs.
NARROW_RELATIONS = ((6, 40), (8, 20), (10, 6), (12, 2), (14, 1), (16, 1))
NARROW_GATE_INPUTS = 8
NARROW_SPEEDUP_FLOOR = 2.0

#: MISF-layer row: brgen (inputs, outputs, relations) per shape, and the
#: floor on the packed layer's speed-up over the node-level evaluation
#: at the gated shapes.
MISF_SHAPES = ((2, 14, 20), (6, 3, 20), (8, 6, 10), (10, 6, 4),
               (13, 3, 2))
MISF_SPEEDUP_FLOORS = {(8, 6): 2.0, (2, 14): 1.0}


def build_queens(n: int = 5):
    """The n-queens constraint function (a classic BDD stress test)."""
    mgr = BddManager(["q%d_%d" % (row, col)
                      for row in range(n) for col in range(n)])

    def var(row, col):
        return mgr.var(row * n + col)

    from repro.bdd import TRUE, FALSE
    constraint = TRUE
    # One queen per row.
    for row in range(n):
        row_or = FALSE
        for col in range(n):
            row_or = mgr.or_(row_or, var(row, col))
        constraint = mgr.and_(constraint, row_or)
    # Attacks.
    for row in range(n):
        for col in range(n):
            q = var(row, col)
            for row2 in range(n):
                if row2 == row:
                    continue
                for col2 in range(n):
                    same_col = col2 == col
                    same_diag = abs(row2 - row) == abs(col2 - col)
                    if same_col or same_diag:
                        constraint = mgr.and_(
                            constraint,
                            mgr.or_(mgr.not_(q),
                                    mgr.not_(var(row2, col2))))
    return mgr, constraint


@pytest.mark.benchmark(group="bdd")
def test_bdd_queens_construction(benchmark):
    mgr, constraint = benchmark.pedantic(build_queens, rounds=1,
                                         iterations=1)
    count = mgr.sat_count(constraint, list(range(mgr.num_vars)))
    assert count == 10  # 5-queens has 10 solutions


@pytest.mark.benchmark(group="bdd")
def test_bdd_relation_projection_throughput(benchmark):
    relations = build_suite(("int9", "int10", "gr"))

    def project_all():
        total = 0
        for relation in relations.values():
            for position in range(len(relation.outputs)):
                isf = relation.project(position)
                total += relation.mgr.size(isf.on)
        return total

    total = benchmark(project_all)
    assert total > 0


@pytest.mark.benchmark(group="bdd")
def test_bdd_isop_throughput(benchmark):
    relations = build_suite(("int9", "gr"))

    def isop_all():
        cubes = 0
        for relation in relations.values():
            for position in range(len(relation.outputs)):
                isf = relation.project(position)
                cover, _ = isop(relation.mgr, isf.on, isf.upper)
                cubes += len(cover)
        return cubes

    cubes = benchmark(isop_all)
    assert cubes > 0


@pytest.mark.benchmark(group="bdd")
def test_bdd_shortest_path_throughput(benchmark):
    mgr, constraint = build_queens(5)

    def run():
        return shortest_path_cube(mgr, constraint)

    cube = benchmark(run)
    assert cube is not None
    # A satisfying cube of the queens function binds at least n queens.
    assert sum(1 for value in cube.values() if value) >= 5


# ----------------------------------------------------------------------
# Engine microbenchmarks: ITE and quantification under solver-like sizes
# ----------------------------------------------------------------------
_POOL_VARS = 16
_POOL_SIZE = 12


def build_function_pool(num_vars: int = _POOL_VARS,
                        count: int = _POOL_SIZE, seed: int = 42):
    """Seeded random functions of solver-typical size in one manager."""
    mgr = BddManager(["v%d" % i for i in range(num_vars)])
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        f = mgr.var(rng.randrange(num_vars))
        for _ in range(2 * num_vars):
            g = mgr.var(rng.randrange(num_vars))
            if rng.random() < 0.5:
                g = mgr.not_(g)
            op = rng.randrange(3)
            if op == 0:
                f = mgr.and_(f, g)
            elif op == 1:
                f = mgr.or_(f, g)
            else:
                f = mgr.xor_(f, g)
        pool.append(f)
    return mgr, pool


def ite_workload(mgr, pool):
    """ITE under the solver's real call mix — the ternary hot path.

    Three phases, two passes each (solver search re-queries the same
    relations constantly, so warm computed-table throughput matters as
    much as cold expansion):

    * general triples over the pool;
    * constant-leg triples — the dominant shape inside
      restrict/constrain/characteristic-function construction;
    * variable-guard selections — the isop / gencof / mux-decomposition
      rebuild shape (paper §9).
    """
    num_vars = mgr.num_vars
    checksum = 0
    for _ in range(2):
        for f in pool:
            for g in pool:
                for h in pool:
                    checksum ^= mgr.ite(f, g, h)
        for f in pool:
            for g in pool:
                checksum ^= mgr.ite(f, g, 0)
                checksum ^= mgr.ite(f, 1, g)
                checksum ^= mgr.ite(f, 0, g)
                checksum ^= mgr.ite(f, g, 1)
        for f in pool:
            for g in pool:
                for var in range(0, num_vars, 3):
                    checksum ^= mgr.ite(mgr.var(var), f, g)
    return checksum


def quantification_workload(mgr, pool):
    """exists/forall sweeps over fresh conjunctions (MISF-projection shape).

    Cold + warm passes, like :func:`ite_workload`.
    """
    groups = ([0, 3, 5, 9, 12], [2, 4, 11, 14], [1, 6, 13, 15],
              [5, 7, 8, 10, 13])
    checksum = 0
    for _ in range(2):
        for f in pool:
            for g in pool:
                h = mgr.and_(f, g)
                for group in groups:
                    checksum ^= mgr.exists(h, group)
                    checksum ^= mgr.forall(h, group)
    return checksum


def _ite_sanity(mgr, pool):
    """Spot-check ITE results against its and/or decomposition."""
    rng = random.Random(7)
    for _ in range(16):
        f, g, h = (rng.choice(pool) for _ in range(3))
        expected = mgr.or_(mgr.and_(f, g), mgr.and_(mgr.not_(f), h))
        assert mgr.ite(f, g, h) == expected


def _quant_sanity(mgr, pool):
    """Spot-check the quantifier duality forall == ~exists~."""
    rng = random.Random(8)
    for _ in range(16):
        f = rng.choice(pool)
        group = rng.sample(range(_POOL_VARS), 3)
        assert mgr.forall(f, group) == \
            mgr.not_(mgr.exists(mgr.not_(f), group))


@pytest.mark.benchmark(group="bdd")
def test_bdd_ite_throughput(benchmark):
    mgr, pool = build_function_pool()
    checksum = benchmark(ite_workload, mgr, pool)
    assert checksum != 0
    _ite_sanity(mgr, pool)


@pytest.mark.benchmark(group="bdd")
def test_bdd_quantification_throughput(benchmark):
    mgr, pool = build_function_pool(seed=43)
    checksum = benchmark(quantification_workload, mgr, pool)
    assert checksum != 0
    _quant_sanity(mgr, pool)


def run_deep_recursion():
    """One deep-recursion solve; cost and ISOP-table counters."""
    num_inputs, num_outputs, seed = DEEP_CASE
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    before = relation.mgr.stats()
    start = time.perf_counter()
    result = BrelSolver(BrelOptions(
        max_explored=DEEP_MAX_EXPLORED)).solve(relation)
    seconds = time.perf_counter() - start
    after = relation.mgr.stats()
    hits = after["isop_hits"] - before["isop_hits"]
    misses = after["isop_misses"] - before["isop_misses"]
    return {"inputs": num_inputs, "outputs": num_outputs, "seed": seed,
            "max_explored": DEEP_MAX_EXPLORED,
            "cost": result.solution.cost, "expected_cost": DEEP_COST,
            "seconds": seconds, "isop_hits": hits, "isop_misses": misses,
            "isop_table_share": hits / (hits + misses)
            if hits + misses else 0.0,
            "isop_table_share_floor": DEEP_ISOP_SHARE_FLOOR}


def run_narrow_intervals():
    """Elimination plus ISOP of every brgen ISF, packed and node-level.

    Each path starts from a cleared computed table on the same manager
    (the packed path does not use it), and each ISF gets a call-scoped
    sub-interval table, as outside a solve.  Returns one row per input
    count with both timings and whether every cover and node matched.
    """
    rows = []
    for num_inputs, count in NARROW_RELATIONS:
        packed_s = expand_s = 0.0
        identical = True
        isfs = 0
        for seed in range(count):
            relation = random_relation(num_inputs, 2, seed=seed)
            mgr = relation.mgr
            bounds = [(isf.on, isf.upper) for isf in
                      (relation.project(p) for p in range(2))]
            isfs += len(bounds)
            mgr.clear_caches()
            start = time.perf_counter()
            packed = [interval_isop(mgr, lower, upper, None, True)
                      for lower, upper in bounds]
            packed_s += time.perf_counter() - start
            mgr.clear_caches()
            start = time.perf_counter()
            reference = []
            for lower, upper in bounds:
                lower, upper = eliminate_nonessential(mgr, lower, upper)
                (cubes, node), _, _ = expand(mgr, lower, upper, {},
                                             float("inf"))
                reference.append(([dict(cube) for cube in cubes], node))
            expand_s += time.perf_counter() - start
            identical = identical and all(
                [list(cube.items()) for cube in got[0]]
                == [list(cube.items()) for cube in ref[0]]
                and got[1] == ref[1]
                for got, ref in zip(packed, reference))
        rows.append({"inputs": num_inputs, "isfs": isfs,
                     "packed_s": packed_s, "expand_s": expand_s,
                     "speedup": expand_s / packed_s if packed_s else 0.0,
                     "identical": identical})
    return rows


def node_misf_evaluation(relation):
    """One MISF evaluation on nodes: the functions and conflict node."""
    functions = [minimize_isop(isf) for isf in relation.misf()]
    return functions, relation.conflict_inputs(functions)


def packed_misf_evaluation(relation):
    """The same evaluation on the relation's packed truth table, its
    functions and conflict set built as nodes at the end."""
    view = pack_relation(relation)
    tables = [view.minimize(position, minimize_isop)
              for position in range(len(relation.outputs))]
    return ([node_of(relation.mgr, table, view.frame) for table in tables],
            node_of(relation.mgr, view.conflict_inputs(tables), view.frame))


def run_misf_layer():
    """Cold MISF evaluations of brgen relations, packed and on nodes.

    Each timed evaluation runs on a freshly built relation (its own
    manager, empty computed and ISOP tables); identity is then checked
    on one manager, where equal functions are equal nodes.
    """
    rows = []
    for num_inputs, num_outputs, count in MISF_SHAPES:
        node_s = packed_s = 0.0
        identical = True
        for seed in range(count):
            relation = random_relation(num_inputs, num_outputs, seed=seed)
            start = time.perf_counter()
            expected = node_misf_evaluation(relation)
            node_s += time.perf_counter() - start
            fresh = random_relation(num_inputs, num_outputs, seed=seed)
            start = time.perf_counter()
            packed_misf_evaluation(fresh)
            packed_s += time.perf_counter() - start
            identical = identical \
                and packed_misf_evaluation(relation) == expected
        rows.append({"inputs": num_inputs, "outputs": num_outputs,
                     "relations": count, "node_s": node_s,
                     "packed_s": packed_s,
                     "speedup": node_s / packed_s if packed_s else 0.0,
                     "identical": identical})
    return rows


def misf_gate(rows):
    """``None`` when the MISF-layer row passes, else the failure."""
    for row in rows:
        shape = (row["inputs"], row["outputs"])
        if not row["identical"]:
            return ("packed and node-level MISF evaluations differ at "
                    "%dx%d" % shape)
        floor = MISF_SPEEDUP_FLOORS.get(shape)
        if floor is not None and row["speedup"] < floor:
            return ("the packed MISF evaluation is %.2fx the node-level "
                    "one at %dx%d, below the %.1fx floor"
                    % ((row["speedup"],) + shape + (floor,)))
    return None


def narrow_gate(rows):
    """``None`` when the narrow row passes, else the failure message."""
    for row in rows:
        if not row["identical"]:
            return ("packed and node-level ISOP differ at %d inputs"
                    % row["inputs"])
    gated = [row for row in rows if row["inputs"] == NARROW_GATE_INPUTS]
    if gated[0]["speedup"] < NARROW_SPEEDUP_FLOOR:
        return ("packed ISOP is %.2fx the node-level expansion at %d "
                "inputs, below the %.1fx floor"
                % (gated[0]["speedup"], NARROW_GATE_INPUTS,
                   NARROW_SPEEDUP_FLOOR))
    return None


@pytest.mark.benchmark(group="bdd")
def test_packed_narrow_intervals(benchmark):
    rows = benchmark.pedantic(run_narrow_intervals, rounds=1, iterations=1)
    assert narrow_gate(rows) is None


@pytest.mark.benchmark(group="bdd")
def test_packed_misf_layer(benchmark):
    rows = benchmark.pedantic(run_misf_layer, rounds=1, iterations=1)
    assert misf_gate(rows) is None


@pytest.mark.benchmark(group="bdd")
def test_bdd_deep_recursion_solve(benchmark):
    row = benchmark.pedantic(run_deep_recursion, rounds=1, iterations=1)
    assert row["cost"] == DEEP_COST
    assert row["isop_table_share"] >= DEEP_ISOP_SHARE_FLOOR


# ----------------------------------------------------------------------
# Quick mode: dependency-free smoke run for CI
# ----------------------------------------------------------------------
def run_quick() -> int:
    """Run each workload once; print timings and engine stats.

    Returns a process exit code: non-zero when a workload misbehaves or
    the computed table escapes its bound.
    """
    timings = {}

    start = time.perf_counter()
    mgr, constraint = build_queens(5)
    timings["queens_build"] = time.perf_counter() - start
    count = mgr.sat_count(constraint, list(range(mgr.num_vars)))
    assert count == 10, "5-queens must have 10 solutions, got %d" % count

    start = time.perf_counter()
    cube = shortest_path_cube(mgr, constraint)
    timings["shortest_path"] = time.perf_counter() - start
    assert cube is not None

    relations = build_suite(("int9", "gr"))
    start = time.perf_counter()
    cubes = 0
    for relation in relations.values():
        for position in range(len(relation.outputs)):
            isf = relation.project(position)
            cover, _ = isop(relation.mgr, isf.on, isf.upper)
            cubes += len(cover)
    timings["project_isop"] = time.perf_counter() - start
    assert cubes > 0

    mgr, pool = build_function_pool()
    start = time.perf_counter()
    ite_workload(mgr, pool)
    timings["ite"] = time.perf_counter() - start
    _ite_sanity(mgr, pool)

    qmgr, qpool = build_function_pool(seed=43)
    start = time.perf_counter()
    quantification_workload(qmgr, qpool)
    timings["quantification"] = time.perf_counter() - start
    _quant_sanity(qmgr, qpool)

    deep = run_deep_recursion()
    timings["deep_recursion"] = deep["seconds"]

    narrow = run_narrow_intervals()
    misf = run_misf_layer()

    print("bench_bdd_engine quick mode")
    for name, seconds in timings.items():
        print("  %-16s %8.3fs" % (name, seconds))
    print("  deep recursion %d+%d/s%d: cost=%.0f isop table served "
          "%d of %d sub-intervals (%.4f, floor %.2f)"
          % (deep["inputs"], deep["outputs"], deep["seed"], deep["cost"],
             deep["isop_hits"], deep["isop_hits"] + deep["isop_misses"],
             deep["isop_table_share"], deep["isop_table_share_floor"]))
    for row in narrow:
        print("  narrow %2d inputs (%2d ISFs): packed %.4fs, expand %.4fs, "
              "%.2fx, %s" % (row["inputs"], row["isfs"], row["packed_s"],
                             row["expand_s"], row["speedup"],
                             "identical" if row["identical"]
                             else "MISMATCH"))
    for row in misf:
        print("  misf %2dx%-2d (%2d relations): packed %.4fs, node %.4fs, "
              "%.2fx, %s" % (row["inputs"], row["outputs"],
                             row["relations"], row["packed_s"],
                             row["node_s"], row["speedup"],
                             "identical" if row["identical"]
                             else "MISMATCH"))
    # Persist the same numbers as JSON so benchmarks/snapshot.py can
    # fold the engine micro-benchmarks into the BENCH_N trajectory.
    from _util import RESULTS_DIR
    RESULTS_DIR.mkdir(exist_ok=True)
    artefact = {"timings": timings,
                "engine": {"ite": mgr.stats(),
                           "quant": qmgr.stats()},
                "deep_recursion": deep,
                "narrow_intervals": {
                    "rows": narrow, "gate_inputs": NARROW_GATE_INPUTS,
                    "speedup_floor": NARROW_SPEEDUP_FLOOR},
                "misf_layer": {
                    "rows": misf,
                    "speedup_floors": {"%dx%d" % shape: floor
                                       for shape, floor
                                       in MISF_SPEEDUP_FLOORS.items()}}}
    (RESULTS_DIR / "bench_bdd_engine.json").write_text(
        json.dumps(artefact, indent=2, sort_keys=True) + "\n")
    if deep["cost"] != deep["expected_cost"]:
        print("FAIL: deep-recursion solve cost %.0f, expected %.0f"
              % (deep["cost"], deep["expected_cost"]), file=sys.stderr)
        return 1
    if deep["isop_table_share"] < deep["isop_table_share_floor"]:
        print("FAIL: the ISOP table served %.4f of the deep-recursion "
              "solve's sub-intervals, below the %.2f floor"
              % (deep["isop_table_share"],
                 deep["isop_table_share_floor"]), file=sys.stderr)
        return 1
    for failure in (narrow_gate(narrow), misf_gate(misf)):
        if failure is not None:
            print("FAIL: %s" % failure, file=sys.stderr)
            return 1
    for label, engine in (("ite", mgr), ("quant", qmgr)):
        stats = engine.stats()
        print("  engine[%s]: nodes=%d cache_entries=%d (limit %s) "
              "hits=%d misses=%d flushes=%d"
              % (label, stats["nodes"], stats["cache_entries"],
                 stats["cache_limit"], stats["cache_hits"],
                 stats["cache_misses"], stats["cache_flushes"]))
        if stats["cache_limit"] is not None \
                and stats["cache_entries"] > stats["cache_limit"]:
            print("FAIL: computed table exceeded its bound", file=sys.stderr)
            return 1
    print("quick mode ok")
    return 0


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        sys.exit(run_quick())
    print("usage: python benchmarks/bench_bdd_engine.py --quick\n"
          "(or run under pytest with pytest-benchmark for full numbers)",
          file=sys.stderr)
    sys.exit(2)
