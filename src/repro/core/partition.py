"""Output-block decomposition: shard a relation into sub-relations.

The paper's recursive paradigm splits a relation into per-output ISFs
for *minimisation*, but the BREL search itself still walks one
monolithic semi-lattice even when outputs fall into groups with
disjoint input supports that can never conflict with each other.
Following the decomposition lever of "Towards Parallel Boolean
Functional Synthesis" (Akshay et al.) — and driving the split from a
dependency graph as in "Analysis of Boolean Equation Systems through
Structure Graphs" — this module turns one
:class:`~repro.core.relation.BooleanRelation` into an equivalent set of
*independent* sub-relations that can be solved separately (serially or
in parallel) and recombined:

1. build the **output–input support graph**: output ``j`` is adjacent
   to input ``x`` when the projection of the relation onto
   ``(X, y_j)`` depends on ``x``;
2. its connected components are the candidate **output blocks**;
3. **verify separability**: candidate blocks are only structural — two
   outputs with disjoint input supports can still be coupled *through
   the relation* (e.g. ``R = (y_0 ⇔ y_1)`` has empty input supports but
   inseparable outputs).  A partition is used only when
   ``R == ∧_B (∃ Y∖Y_B . R)`` holds exactly; blocks that fail are
   merged (a peel loop keeps every block that *is* independent of the
   rest).
4. produce a :class:`Partition`: one sub-relation per block, each over
   the block's own support frame, plus the recombiner that stitches
   per-block solutions back into a full function vector.

Separability makes decomposition *transparent*: every solution of ``R``
restricts to a solution of each block, and any combination of per-block
solutions is a solution of ``R``, so solving blocks independently
explores exactly the same solution space with exponentially smaller
search trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bdd.manager import TRUE
from .relation import BooleanRelation
from .solution import Solution, SolverStats


@dataclass(frozen=True)
class Block:
    """One independent sub-relation of a partitioned relation.

    Attributes
    ----------
    index:
        Position of this block inside :attr:`Partition.blocks` (the
        fixed serial solve order).
    positions:
        Output *positions* of the parent relation this block owns, in
        ascending order.
    relation:
        The sub-relation: same manager as the parent, inputs restricted
        to the block's input support (parent order preserved), outputs
        ``parent.outputs[p] for p in positions``, characteristic
        function ``∃ Y∖Y_B . R``.
    """

    index: int
    positions: Tuple[int, ...]
    relation: BooleanRelation

    def describe(self) -> Dict[str, Any]:
        """Structural summary (JSON-ready) of this block."""
        return {
            "outputs": list(self.positions),
            "num_inputs": len(self.relation.inputs),
            "num_outputs": len(self.relation.outputs),
        }


@dataclass(frozen=True)
class Partition:
    """A verified decomposition of one relation into output blocks.

    ``blocks`` are ordered by their smallest output position — the
    *fixed serial order* referenced throughout the decomposition
    contract: solving the blocks in this order (serially, with the same
    options) is deterministic, and recombination goes by output
    position.

    A *trivial* partition (one block, ``separable=False``) means the
    relation could not be sharded; its single block is the original
    relation unchanged.
    """

    relation: BooleanRelation
    blocks: Tuple[Block, ...]
    separable: bool

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_trivial(self) -> bool:
        """True when decomposition found nothing to shard."""
        return len(self.blocks) <= 1

    def recombine_functions(
            self, block_functions: Sequence[Sequence[int]]
            ) -> Tuple[int, ...]:
        """Stitch per-block function vectors into the full vector.

        ``block_functions[i]`` is the solved vector of ``blocks[i]``
        (one BDD node per block output, in block output order, in the
        parent's manager).  Returns one node per parent output.
        """
        if len(block_functions) != len(self.blocks):
            raise ValueError("expected %d block function vectors, got %d"
                             % (len(self.blocks), len(block_functions)))
        functions: List[Optional[int]] = [None] * len(
            self.relation.outputs)
        for block, funcs in zip(self.blocks, block_functions):
            if len(funcs) != len(block.positions):
                raise ValueError(
                    "block %d solves %d outputs but %d functions were "
                    "supplied" % (block.index, len(block.positions),
                                  len(funcs)))
            for position, func in zip(block.positions, funcs):
                functions[position] = func
        return tuple(func for func in functions if func is not None)

    def recombine_solutions(self, block_solutions: Sequence[Solution],
                            cost_function) -> Solution:
        """Stitch per-block :class:`Solution`\\ s into a full solution.

        The recombined cost is recomputed with ``cost_function`` on the
        full vector; for per-output-additive costs (every built-in
        except the shared-size cost) this equals the sum of the block
        costs.
        """
        functions = self.recombine_functions(
            [solution.functions for solution in block_solutions])
        return Solution(self.relation.mgr, functions,
                        cost_function(self.relation.mgr, functions))

    def summary(self) -> Dict[str, Any]:
        """Structural summary (JSON-ready) of the whole partition."""
        return {
            "num_blocks": len(self.blocks),
            "separable": self.separable,
            "blocks": [block.describe() for block in self.blocks],
        }


def support_components(supports: Sequence[Sequence[int]]
                       ) -> List[List[int]]:
    """Connected components of the output–input support graph.

    ``supports[j]`` is the input support of output ``j``; two outputs
    are connected when their supports intersect.  Returns the
    components as sorted lists of output positions, ordered by their
    smallest member.  Outputs with empty support form singleton
    components (they constrain no input and, pending separability
    verification, no other output).
    """
    parent = list(range(len(supports)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    owner: Dict[int, int] = {}
    for position, support in enumerate(supports):
        for var in support:
            if var in owner:
                root_a, root_b = find(owner[var]), find(position)
                if root_a != root_b:
                    parent[max(root_a, root_b)] = min(root_a, root_b)
            else:
                owner[var] = position
    components: Dict[int, List[int]] = {}
    for position in range(len(supports)):
        components.setdefault(find(position), []).append(position)
    return [components[root] for root in sorted(components)]


def _trivial(relation: BooleanRelation) -> Partition:
    """The no-op partition: one block, the relation itself."""
    block = Block(0, tuple(range(len(relation.outputs))), relation)
    return Partition(relation, (block,), separable=False)


def _block_projection(relation: BooleanRelation,
                      positions: Sequence[int]) -> int:
    """``∃ Y∖Y_B . R`` — the relation projected onto one output block."""
    keep = set(positions)
    others = [var for position, var in enumerate(relation.outputs)
              if position not in keep]
    return relation.mgr.exists(relation.node, others)


def _sub_relation(relation: BooleanRelation, positions: Sequence[int],
                  node: int) -> BooleanRelation:
    """Build the block sub-relation over its own support frame.

    Inputs are restricted to the variables ``node`` actually mentions
    (parent order preserved), so each block solves over the smallest
    frame.
    """
    support = set(relation.mgr.support(node))
    inputs = [var for var in relation.inputs if var in support]
    outputs = [relation.outputs[position] for position in positions]
    return BooleanRelation(relation.mgr, inputs, outputs, node)


def partition_relation(relation: BooleanRelation,
                       supports: Optional[Sequence[Sequence[int]]] = None
                       ) -> Partition:
    """Decompose a relation into verified-independent output blocks.

    Builds the output–input support graph (from ``supports``, the
    per-output input supports, when the caller has them: the solver
    reads them off the packed root, and ``relation.node`` is read only
    once there are two or more components), takes its connected
    components as candidate blocks, and verifies separability exactly:
    the candidate partition is used only when the conjunction of the
    block projections reproduces ``R`` node for node.  When the global
    check fails (outputs coupled through the relation despite disjoint
    supports), a peel loop keeps every block that is individually
    independent of the rest and merges whatever remains.  Relations
    with fewer than two outputs, a single component, or inseparable
    couplings come back as the trivial partition.

    The result is deterministic: blocks are ordered by smallest output
    position, and every step is a canonical BDD operation.
    """
    mgr = relation.mgr
    num_outputs = len(relation.outputs)
    if num_outputs < 2:
        return _trivial(relation)
    if supports is None:
        supports = relation.output_supports()
    candidates = support_components(supports)
    if len(candidates) < 2:
        return _trivial(relation)

    projections = {tuple(block): _block_projection(relation, block)
                   for block in candidates}
    conjunction = TRUE
    for block in candidates:
        conjunction = mgr.and_(conjunction, projections[tuple(block)])
    if conjunction == relation.node:
        final = candidates
    else:
        # Some candidate blocks are coupled through the relation.  Peel
        # off every block B that is provably independent of the rest
        # (R' == P_B ∧ ∃Y_B.R'), then merge the inseparable remainder.
        final = []
        remaining = list(candidates)
        rest_node = relation.node
        peeled = True
        while peeled and len(remaining) >= 2:
            peeled = False
            for block in remaining:
                block_vars = [relation.outputs[p] for p in block]
                without = mgr.exists(rest_node, block_vars)
                joined = mgr.and_(projections[tuple(block)], without)
                if joined == rest_node:
                    final.append(block)
                    rest_node = without
                    remaining.remove(block)
                    peeled = True
                    break
        if not final:
            return _trivial(relation)
        merged = sorted(position for block in remaining
                        for position in block)
        if merged:
            projections[tuple(merged)] = rest_node
            final.append(merged)
        final.sort(key=lambda block: block[0])

    blocks = tuple(
        Block(index, tuple(block),
              _sub_relation(relation, block, projections[tuple(block)]))
        for index, block in enumerate(final))
    return Partition(relation, blocks, separable=True)


#: Severity order of per-block completion reasons; the aggregate
#: ``stopped`` of a sharded solve is the worst reason any block hit.
_STOP_PRIORITY = {"exhausted": 0, "budget": 1, "timeout": 2,
                  "cancelled": 3}


def worst_stopped(reasons: Sequence[str]) -> str:
    """Aggregate per-block ``stopped`` reasons for the whole solve.

    ``cancelled`` beats ``timeout`` beats ``budget`` beats
    ``exhausted``; an empty sequence is ``exhausted`` (nothing was cut
    short).  Unknown reasons rank worst-possible so a future reason is
    never silently demoted to ``exhausted``.
    """
    worst = "exhausted"
    rank = 0
    for reason in reasons:
        value = _STOP_PRIORITY.get(reason, len(_STOP_PRIORITY))
        if value > rank:
            worst, rank = reason, value
    return worst


def merge_block_stats(block_stats: Sequence[SolverStats]) -> SolverStats:
    """Sum per-block solver counters into whole-solve stats.

    The sharded solve merges its blocks' stats and the portfolio race
    its racers'.  Additive counters sum; ``bdd_nodes`` (a point-in-time
    gauge of the shared manager) takes the maximum; ``runtime_seconds``
    stays zero.  The solve's run recorder
    (:meth:`repro.core.brel.RunRecorder.finish`) then sets
    ``runtime_seconds`` and the ``bdd_*`` counters from the whole
    solve's wall clock and engine counters.
    """
    total = SolverStats()
    for stats in block_stats:
        total.relations_explored += stats.relations_explored
        total.misf_minimizations += stats.misf_minimizations
        total.splits += stats.splits
        total.cost_prunes += stats.cost_prunes
        total.symmetry_prunes += stats.symmetry_prunes
        total.quick_solutions += stats.quick_solutions
        total.compatible_found += stats.compatible_found
        total.frontier_overflow += stats.frontier_overflow
        total.frontier_prunes += stats.frontier_prunes
        total.bdd_nodes = max(total.bdd_nodes, stats.bdd_nodes)
        total.bdd_cache_hits += stats.bdd_cache_hits
        total.bdd_cache_misses += stats.bdd_cache_misses
    return total
