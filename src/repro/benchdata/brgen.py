"""Seeded generators for well-defined Boolean relations.

The paper's Table 2 benchmarks are the gyocro suite (int*, she*, b9, vtx,
gr, …), whose original files are not redistributable here; README's
"Benchmark substitutions" documents the substitution.  This generator
produces well-defined BRs with two controlled properties that drive
solver behaviour:

* ``flexibility`` — the fraction of input vertices with more than one
  permitted output vertex;
* ``non_cube_fraction`` — among the flexible vertices, how many get an
  output set that is *not* a cube, i.e. genuine BR flexibility that
  don't-cares cannot express (the paper's Fig. 1 distinction).  These are
  the vertices that can produce conflicts and splits in BREL.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from ..bdd.manager import FALSE, TRUE, BddManager
from ..core.relation import BooleanRelation


def _is_cube_set(outputs: Set[int], num_outputs: int) -> bool:
    """Is a set of output vertices exactly the set covered by one cube?"""
    if not outputs:
        return False
    fixed_mask = (1 << num_outputs) - 1
    fixed_value = next(iter(outputs))
    for value in outputs:
        fixed_mask &= ~(fixed_value ^ value)
    covered = 1 << bin(((1 << num_outputs) - 1) & ~fixed_mask).count("1")
    return len(outputs) == covered and all(
        (value & fixed_mask) == (fixed_value & fixed_mask)
        for value in outputs)


def random_output_set(rng: random.Random, num_outputs: int,
                      non_cube: bool) -> Set[int]:
    """A random non-empty output set, optionally guaranteed non-cube."""
    space = 1 << num_outputs
    for _ in range(64):
        size = rng.randint(2, max(2, min(space, 4)))
        outputs = set(rng.sample(range(space), min(size, space)))
        if non_cube and not _is_cube_set(outputs, num_outputs):
            return outputs
        if not non_cube and _is_cube_set(outputs, num_outputs):
            return outputs
    # Fallbacks: a guaranteed non-cube pair / a guaranteed cube.
    if non_cube and num_outputs >= 1 and space >= 3:
        return {0, space - 1} if num_outputs > 1 else {0, 1}
    return {rng.randrange(space)}


def random_rows(num_inputs: int, num_outputs: int, seed: int,
                flexibility: float = 0.5,
                non_cube_fraction: float = 0.5) -> List[Set[int]]:
    """The output-set rows of :func:`random_relation`: one non-empty
    set of permitted output vertices per input vertex."""
    rng = random.Random(seed)
    rows: List[Set[int]] = []
    for _ in range(1 << num_inputs):
        if rng.random() < flexibility:
            non_cube = rng.random() < non_cube_fraction
            rows.append(random_output_set(rng, num_outputs, non_cube))
        else:
            rows.append({rng.randrange(1 << num_outputs)})
    return rows


def random_relation(num_inputs: int, num_outputs: int, seed: int,
                    flexibility: float = 0.5,
                    non_cube_fraction: float = 0.5) -> BooleanRelation:
    """A seeded, well-defined random BR with controlled flexibility."""
    return BooleanRelation.from_output_sets(
        random_rows(num_inputs, num_outputs, seed, flexibility,
                    non_cube_fraction),
        num_inputs, num_outputs)


def block_structured_relation(
        block_shapes: Sequence[Tuple[int, int]], seed: int,
        flexibility: float = 0.5,
        non_cube_fraction: float = 0.5) -> BooleanRelation:
    """A relation that is the conjunction of independent random blocks.

    ``block_shapes`` lists ``(num_inputs, num_outputs)`` per block; the
    result lives over the concatenated input/output frames (inputs
    first, then outputs, block by block in order) and its
    characteristic function is ``∧_b R_b`` with every ``R_b`` a seeded
    :func:`random_relation` over its own disjoint variables.  By
    construction the output–input support graph decomposes into (at
    most — a sampled block can ignore some of its inputs) the given
    blocks and the relation is exactly separable, making this the
    ground-truth workload for :mod:`repro.core.partition` and the
    sharding benchmarks.  Each block derives its own sub-seed from
    ``seed``, so the family is fully reproducible.
    """
    if not block_shapes:
        raise ValueError("at least one block shape is required")
    total_inputs = sum(shape[0] for shape in block_shapes)
    total_outputs = sum(shape[1] for shape in block_shapes)
    mgr = BddManager(["x%d" % i for i in range(total_inputs)]
                     + ["y%d" % j for j in range(total_outputs)])
    input_vars = list(range(total_inputs))
    output_vars = list(range(total_inputs,
                             total_inputs + total_outputs))
    node = TRUE
    input_base = 0
    output_base = 0
    for index, (num_inputs, num_outputs) in enumerate(block_shapes):
        block = random_relation(num_inputs, num_outputs,
                                seed=seed * 7919 + index,
                                flexibility=flexibility,
                                non_cube_fraction=non_cube_fraction)
        block_inputs = input_vars[input_base:input_base + num_inputs]
        block_outputs = output_vars[output_base:
                                    output_base + num_outputs]
        block_node = FALSE
        for value, outputs in block.rows():
            in_cube = mgr.minterm(block_inputs, value)
            out_node = mgr.from_minterms(block_outputs, sorted(outputs))
            block_node = mgr.or_(block_node,
                                 mgr.and_(in_cube, out_node))
        node = mgr.and_(node, block_node)
        input_base += num_inputs
        output_base += num_outputs
    return BooleanRelation(mgr, input_vars, output_vars, node)
