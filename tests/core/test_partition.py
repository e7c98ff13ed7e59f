"""Output-block decomposition: partitioning, routing, recombination."""

import pytest

from repro.benchdata.brgen import block_structured_relation, random_relation
from repro.benchdata.brsuite import instance_by_name
from repro.core import (BooleanRelation, BrelOptions, BrelSolver,
                        CancelToken, Solution, SolverStats,
                        merge_block_stats, partition_relation,
                        support_components, worst_stopped)


def fig1_relation():
    return BooleanRelation.from_output_sets(
        [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)


def coupled_outputs_relation():
    """Two outputs with *empty* input supports, coupled through the
    relation: every row allows exactly {00, 11}, i.e. y0 ⇔ y1."""
    return BooleanRelation.from_output_sets(
        [{0b00, 0b11}, {0b00, 0b11}], 1, 2)


def mixed_relation():
    """One input-driven output plus a coupled input-free pair.

    ``y0 = x0`` while ``(y1, y2)`` ranges freely over {00, 11}: the
    support graph proposes three singleton blocks, verification must
    peel y0 and merge the coupled pair.
    """
    return BooleanRelation.from_output_sets(
        [{0b000, 0b110}, {0b001, 0b111}], 1, 3)


class TestSupportComponents:
    def test_disjoint_supports_split(self):
        assert support_components([(0, 1), (2,), (3, 4)]) == \
            [[0], [1], [2]]

    def test_shared_input_merges(self):
        assert support_components([(0, 1), (1, 2), (3,)]) == [[0, 1], [2]]

    def test_chain_merges_transitively(self):
        assert support_components([(0,), (0, 1), (1, 2), (5,)]) == \
            [[0, 1, 2], [3]]

    def test_empty_supports_are_singletons(self):
        assert support_components([(), (), (0,)]) == [[0], [1], [2]]

    def test_no_outputs(self):
        assert support_components([]) == []


class TestPartitionRelation:
    def test_block_structured_relation_shards(self):
        relation = block_structured_relation([(3, 2), (2, 1), (3, 2)],
                                             seed=9)
        partition = partition_relation(relation)
        assert partition.separable
        assert not partition.is_trivial
        assert [block.positions for block in partition.blocks] == \
            [(0, 1), (2,), (3, 4)]
        # Every block lives on its own support frame inside the parent
        # manager, stays well defined, and covers disjoint inputs.
        seen_inputs = set()
        for block in partition.blocks:
            sub = block.relation
            assert sub.mgr is relation.mgr
            assert sub.is_well_defined()
            assert set(sub.inputs) <= set(relation.inputs)
            assert not (set(sub.inputs) & seen_inputs)
            seen_inputs |= set(sub.inputs)

    def test_conjunction_of_blocks_reproduces_relation(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=4)
        partition = partition_relation(relation)
        node = relation.mgr.and_(partition.blocks[0].relation.node,
                                 partition.blocks[1].relation.node)
        assert node == relation.node

    def test_single_output_is_trivial(self):
        relation = block_structured_relation([(3, 1)], seed=1)
        partition = partition_relation(relation)
        assert partition.is_trivial
        assert not partition.separable
        assert partition.blocks[0].relation is relation

    def test_shared_support_is_trivial(self):
        # fig1's outputs both depend on both inputs.
        partition = partition_relation(fig1_relation())
        assert partition.is_trivial

    def test_table2_instances_do_not_shard(self):
        for name in ("int1", "she1", "vtx", "c17i"):
            assert partition_relation(
                instance_by_name(name).build()).is_trivial, name

    def test_coupled_outputs_fail_verification(self):
        # Disjoint (empty) supports but y0 ⇔ y1: the support graph says
        # two blocks, the separability check must say no.
        partition = partition_relation(coupled_outputs_relation())
        assert partition.is_trivial
        assert not partition.separable

    def test_peel_keeps_separable_block_and_merges_coupled_pair(self):
        partition = partition_relation(mixed_relation())
        assert partition.separable
        assert [block.positions for block in partition.blocks] == \
            [(0,), (1, 2)]

    def test_summary_shape(self):
        partition = partition_relation(
            block_structured_relation([(2, 1), (2, 1)], seed=2))
        summary = partition.summary()
        assert summary["num_blocks"] == 2
        assert summary["separable"] is True
        assert summary["blocks"][0]["outputs"] == [0]
        assert set(summary["blocks"][0]) == \
            {"outputs", "num_inputs", "num_outputs"}


class TestRecombination:
    def test_recombine_functions_by_position(self):
        relation = block_structured_relation([(2, 1), (2, 2)], seed=6)
        partition = partition_relation(relation)
        functions = partition.recombine_functions([(10,), (20, 30)])
        assert functions == (10, 20, 30)

    def test_recombine_rejects_wrong_block_count(self):
        partition = partition_relation(
            block_structured_relation([(2, 1), (2, 1)], seed=6))
        with pytest.raises(ValueError):
            partition.recombine_functions([(1,)])

    def test_recombine_rejects_wrong_function_count(self):
        partition = partition_relation(
            block_structured_relation([(2, 1), (2, 1)], seed=6))
        with pytest.raises(ValueError):
            partition.recombine_functions([(1, 2), (3,)])

    def test_recombined_solution_is_compatible(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=8)
        partition = partition_relation(relation)
        from repro.core import bdd_size_cost, quick_solve
        blocks = [quick_solve(block.relation)
                  for block in partition.blocks]
        full = partition.recombine_solutions(blocks, bdd_size_cost)
        assert relation.is_compatible(full.functions)
        assert full.cost == sum(solution.cost for solution in blocks)


class TestHelpers:
    def test_worst_stopped_ranking(self):
        assert worst_stopped([]) == "exhausted"
        assert worst_stopped(["exhausted", "budget"]) == "budget"
        assert worst_stopped(["timeout", "budget"]) == "timeout"
        assert worst_stopped(["cancelled", "timeout"]) == "cancelled"
        # Unknown reasons are never demoted.
        assert worst_stopped(["exhausted", "weird"]) == "weird"

    def test_merge_block_stats_sums_counters(self):
        a = SolverStats(relations_explored=3, splits=1, bdd_nodes=100)
        b = SolverStats(relations_explored=5, splits=2, bdd_nodes=80)
        merged = merge_block_stats([a, b])
        assert merged.relations_explored == 8
        assert merged.splits == 3
        assert merged.bdd_nodes == 100  # gauge: max, not sum
        assert merged.runtime_seconds == 0.0  # caller owns the wall


class TestShardedSolver:
    def test_sharded_result_carries_partition_summary(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        result = BrelSolver(BrelOptions()).solve(relation)
        assert result.partition is not None
        assert result.partition["num_blocks"] == 2
        for entry in result.partition["blocks"]:
            assert entry["stopped"] == "exhausted"
            assert entry["stats"]["relations_explored"] >= 1
        assert relation.is_compatible(result.solution.functions)

    def test_forced_off_never_partitions(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        result = BrelSolver(
            BrelOptions(decompose=False)).solve(relation)
        assert result.partition is None

    def test_cost_parity_on_and_off(self):
        # The acceptance parity: forced on vs forced off reach the same
        # final cost on instances where both searches converge.
        for seed in (0, 1, 3, 5):
            relation = block_structured_relation(
                [(4, 2), (4, 2), (4, 2)], seed=seed)
            on = BrelSolver(BrelOptions(
                decompose=True, max_explored=500)).solve(relation)
            off = BrelSolver(BrelOptions(
                decompose=False, max_explored=500)).solve(relation)
            assert on.solution.cost == off.solution.cost, seed
            assert relation.is_compatible(on.solution.functions)
            assert relation.is_compatible(off.solution.functions)

    def test_cost_parity_on_non_decomposable_instances(self):
        # Table 2 instances and seeded brgen relations do not shard, so
        # forced on must be byte-identical to forced off modulo the
        # node ids the support analysis allocates first — hence the
        # SOP-level comparison.
        sources = [lambda n=n: instance_by_name(n).build()
                   for n in ("int1", "she1", "c17i")]
        sources += [lambda s=s: random_relation(5, 3, seed=s)
                    for s in (3, 11, 29)]
        for build in sources:
            on = BrelSolver(BrelOptions(decompose=True)).solve(build())
            off = BrelSolver(BrelOptions(decompose=False)).solve(build())
            assert on.partition is None
            assert on.solution.cost == off.solution.cost
            assert on.solution.describe() == off.solution.describe()

    def test_serial_fixed_order_is_byte_identical(self):
        relation = block_structured_relation([(4, 2), (4, 2)], seed=7)
        first = BrelSolver(BrelOptions(decompose=True)).solve(relation)
        second = BrelSolver(BrelOptions(decompose=True)).solve(relation)
        assert first.solution.functions == second.solution.functions
        assert first.solution.cost == second.solution.cost
        assert first.stats.relations_explored == \
            second.stats.relations_explored

    def test_sharded_event_stream_shape(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        events = []
        result = BrelSolver(BrelOptions()).solve(relation,
                                                 observer=events.append)
        kinds = [event.kind for event in events]
        assert kinds[0] == "partition"
        assert "blocks" in events[0].detail
        assert kinds[-1] == "done"
        assert kinds.count("done") == 1
        # The whole-relation quick incumbent precedes any block events.
        assert kinds[1] == "quick-solution" and kinds[2] == "new-best"
        # new-best costs strictly decrease (full-relation incumbents).
        bests = [event.cost for event in events
                 if event.kind == "new-best"]
        assert bests == sorted(bests, reverse=True)
        assert len(set(bests)) == len(bests)
        assert events[-1].cost == result.solution.cost

    def test_sharded_explored_counts_are_cumulative(self):
        relation = block_structured_relation([(4, 2), (4, 2)], seed=3)
        events = []
        result = BrelSolver(BrelOptions(max_explored=200)).solve(
            relation, observer=events.append)
        explored = [event.explored for event in events]
        assert explored == sorted(explored)
        assert result.stats.relations_explored == explored[-1]
        assert result.stats.relations_explored == sum(
            entry["stats"]["relations_explored"]
            for entry in result.partition["blocks"])

    def test_precancelled_sharded_solve_keeps_quick_incumbent(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        cancel = CancelToken()
        cancel.cancel()
        result = BrelSolver(BrelOptions()).solve(relation, cancel=cancel)
        assert result.stopped == "cancelled"
        assert relation.is_compatible(result.solution.functions)
        # No block search ran: both blocks report skipped.
        assert [entry["stopped"]
                for entry in result.partition["blocks"]] == \
            ["skipped", "skipped"]

    def test_zero_time_limit_times_out_with_compatible_solution(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        events = []
        result = BrelSolver(BrelOptions(
            time_limit_seconds=0.0)).solve(relation,
                                           observer=events.append)
        assert result.stopped == "timeout"
        assert relation.is_compatible(result.solution.functions)
        # One shared deadline, one timeout event — never one per block.
        assert [event.kind for event in events].count("timeout") == 1

    def test_supplied_partition_skips_reanalysis(self):
        from repro.core import partition_relation
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        partition = partition_relation(relation)
        handed = BrelSolver(BrelOptions()).solve(relation,
                                                 partition=partition)
        fresh = BrelSolver(BrelOptions()).solve(relation)
        assert handed.solution.functions == fresh.solution.functions
        assert handed.partition["num_blocks"] == \
            fresh.partition["num_blocks"]
        # Per-block stats carry wall-clock stamps; compare the
        # structural fields only.
        for mine, theirs in zip(handed.partition["blocks"],
                                fresh.partition["blocks"]):
            assert mine["outputs"] == theirs["outputs"]
            assert mine["cost"] == theirs["cost"]
            assert mine["stopped"] == theirs["stopped"]

    def test_supplied_partition_must_match_the_relation(self):
        from repro.core import partition_relation
        relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
        other = block_structured_relation([(3, 2), (3, 2)], seed=6)
        partition = partition_relation(other)
        with pytest.raises(ValueError, match="different relation"):
            BrelSolver(BrelOptions()).solve(relation,
                                            partition=partition)

    def test_tristate_validation(self):
        with pytest.raises(ValueError):
            BrelOptions(decompose=1)
        for value in (None, True, False):
            BrelOptions(decompose=value)


class TestBlockOptionsSchemaGuard:
    """`BrelSolver._block_options` copies the parent options and pins a
    few per-block values; a newly added BrelOptions field silently not
    propagating to block sub-solvers would make sharded solves ignore
    the new knob.  This guard forces the list to be updated
    consciously, like the session cache-key guard does for
    SolveRequest."""

    #: Every BrelOptions field and how _block_options must treat it:
    #: "inherit" = copied from the parent options, otherwise the pinned
    #: per-block value (time_limit is the remaining budget passed in).
    FIELDS = {
        "cost_function": "inherit",
        "minimizer": "inherit",
        "max_explored": "inherit",
        "fifo_capacity": "inherit",
        "quick_on_subrelations": "inherit",
        "symmetry_pruning": "inherit",
        "symmetry_max_depth": "inherit",
        "strategy": "inherit",
        "time_limit_seconds": "remaining-budget",
        "record_trace": False,
        "decompose": False,
        # Portfolio knobs propagate so each block races its own
        # portfolio under strategy="portfolio".
        "portfolio_racers": "inherit",
        "portfolio_executor": "inherit",
    }

    def test_every_field_is_classified(self):
        import dataclasses
        fields = {f.name for f in dataclasses.fields(BrelOptions)}
        unclassified = fields - set(self.FIELDS)
        assert not unclassified, \
            "new BrelOptions field(s) %s: decide how _block_options " \
            "propagates them and register them here" \
            % sorted(unclassified)
        assert not set(self.FIELDS) - fields

    def test_inherited_fields_actually_propagate(self):
        from repro.core import cube_count_cost, minimize_restrict
        parent = BrelOptions(cost_function=cube_count_cost,
                             minimizer=minimize_restrict,
                             strategy="beam", max_explored=7,
                             fifo_capacity=9,
                             quick_on_subrelations=True,
                             symmetry_pruning=True,
                             symmetry_max_depth=4,
                             record_trace=True,
                             time_limit_seconds=99.0)
        block = BrelSolver(parent)._block_options(12.5)
        for name, rule in self.FIELDS.items():
            value = getattr(block, name)
            if rule == "inherit":
                assert value == getattr(parent, name), name
            elif rule == "remaining-budget":
                assert value == 12.5
            else:
                assert value is rule, name