"""Shared fixtures and hypothesis strategies for the test suite.

The central testing idea (README, "Tests"): everything small is checked
against explicit truth-table semantics.  A Boolean function over ``n``
variables is encoded as an integer bitmask with bit ``i`` holding the value
of the function on the assignment encoded by ``i`` (bit ``j`` of ``i`` is
variable ``j``).
"""

from __future__ import annotations

from typing import Sequence

import pytest
from hypothesis import strategies as st

from repro.bdd import BddManager
from repro.bdd.manager import TRUE
from repro.core.relation import BooleanRelation


def tt_strategy(num_vars: int):
    """Hypothesis strategy for truth-table bitmasks over ``num_vars`` vars."""
    return st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1)


def nonzero_tt_strategy(num_vars: int):
    """Truth tables that are not constant FALSE."""
    return st.integers(min_value=1, max_value=(1 << (1 << num_vars)) - 1)


def bdd_from_tt(mgr: BddManager, variables: Sequence[int], table: int) -> int:
    """Build the BDD node of the truth-table bitmask ``table``."""
    minterms = [i for i in range(1 << len(variables)) if (table >> i) & 1]
    return mgr.from_minterms(variables, minterms)


def tt_from_bdd(mgr: BddManager, variables: Sequence[int], node: int) -> int:
    """Read a BDD node back into a truth-table bitmask."""
    table = 0
    for i in range(1 << len(variables)):
        assignment = {var: bool((i >> j) & 1)
                      for j, var in enumerate(variables)}
        if mgr.eval(node, assignment):
            table |= 1 << i
    return table


def wide_relation(num_inputs: int = 18,
                  extra_block: bool = False) -> BooleanRelation:
    """A relation whose outputs read every one of many inputs, with a
    small BDD.

    Three outputs, each a simple function with a don't-care region;
    under ``x9 x10`` they are instead only tied to each other
    (``y0 == y1 == y2``), a joint choice the per-output MISF cannot
    express, so the solver has to split.  ``extra_block`` adds two
    inputs and one output forming a second, independent output block.
    PLA text of such a relation would hold ``2^num_inputs`` rows.
    """
    names = ["x%d" % i for i in range(num_inputs)] + ["y0", "y1", "y2"]
    if extra_block:
        names += ["u0", "u1", "y3"]
    mgr = BddManager(names)
    x = [mgr.var(i) for i in range(num_inputs)]
    y = [mgr.var(num_inputs + j) for j in range(3)]
    wide_and = TRUE
    for literal in x[11:num_inputs - 2]:
        wide_and = mgr.and_(wide_and, literal)
    functions = [mgr.or_(mgr.and_(x[0], x[1]), x[-1]),
                 mgr.xor_(x[2], x[-2]), mgr.or_(x[5], wide_and)]
    dont_cares = [mgr.and_(x[3], x[4]), mgr.diff(x[7], x[6]), x[8]]
    per_output = [mgr.or_(mgr.xnor_(output, func), dont_care)
                  for output, func, dont_care
                  in zip(y, functions, dont_cares)]
    region = mgr.and_(x[9], x[10])
    free = mgr.and_(mgr.and_(per_output[0], per_output[1]), per_output[2])
    tied = mgr.and_(mgr.xnor_(y[0], y[1]), mgr.xnor_(y[1], y[2]))
    node = mgr.or_(mgr.diff(free, region), mgr.and_(region, tied))
    inputs = list(range(num_inputs))
    outputs = [num_inputs + j for j in range(3)]
    if extra_block:
        u0, u1, y3 = (mgr.var(num_inputs + 3 + k) for k in range(3))
        block = mgr.or_(mgr.xnor_(y3, mgr.and_(u0, u1)), mgr.diff(u0, u1))
        node = mgr.and_(node, block)
        inputs += [num_inputs + 3, num_inputs + 4]
        outputs.append(num_inputs + 5)
    return BooleanRelation(mgr, inputs, outputs, node)


@pytest.fixture
def mgr3() -> BddManager:
    """A fresh manager with three variables a, b, c."""
    return BddManager(["a", "b", "c"])


@pytest.fixture
def mgr4() -> BddManager:
    """A fresh manager with four variables."""
    return BddManager(["a", "b", "c", "d"])
