"""Solves leave no cyclic garbage behind.

The packed kernels recurse through closures that refer to themselves;
each one empties its own cell before it returns, so what it captured
(the ISOP table, a cube list, a memo) is freed by reference counting
when the call ends instead of waiting for the cyclic collector.  With
the collector off, narrow solves and a resynthesis round must leave
nothing for it to find.
"""

import gc

from repro.api import Session, SolveRequest
from repro.benchdata.brgen import random_rows
from repro.resynth import ResynthRequest, resynthesize


def garbage_after(run):
    """Objects the cyclic collector finds after a second ``run()``."""
    run()  # warm-up: imports and module-level tables
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_narrow_solves_leave_no_cycles():
    session = Session()
    seeds = iter(range(2))

    def solves():
        rows = [sorted(row) for row in random_rows(5, 3, next(seeds))]
        for cost in ("size", "cubes", "literals"):
            report = session.solve(SolveRequest(
                relation={"kind": "output_sets", "rows": rows,
                          "num_inputs": 5, "num_outputs": 3},
                cost=cost, max_explored=6))
            assert report.ok and report.compatible and not report.cached

    assert garbage_after(solves) == 0


def test_a_resynthesis_leaves_no_cycles():
    def resynthesis():
        report = resynthesize(ResynthRequest(
            circuit={"kind": "bench", "name": "s298"}, passes=1, window=8,
            max_explored=8))
        assert report.ok and report.equivalent

    assert garbage_after(resynthesis) == 0
