"""Solves on the table engine, and memo templates across engines.

A relation built on a :class:`~repro.table.TableManager` solves there;
nothing moves a relation between engines.  These tests pin that the
rebuilt relation keeps its semantics, that memo templates minted on one
engine replay on the other, and that sharded solves agree across
engines.
"""

from repro.benchdata.brgen import block_structured_relation, random_relation
from repro.core import BrelOptions, BrelSolver, MemoStore
from repro.table import TableManager

from ..conftest import table_relation


def solution_minterms(relation, solution):
    inputs = list(relation.inputs)
    return [list(solution.mgr.minterms(f, inputs))
            for f in solution.functions]


def answers(partition):
    """A partition summary without its timings and engine counters."""
    blocks = [dict(block, stats={
        key: value for key, value in block["stats"].items()
        if key != "runtime_seconds" and not key.startswith("bdd_")})
        for block in partition["blocks"]]
    return dict(partition, blocks=blocks)


class TestTableRelation:
    def test_rebuild_preserves_semantics(self):
        relation = random_relation(3, 3, seed=5)
        table = table_relation(relation)
        mgr, tm = relation.mgr, table.mgr
        assert isinstance(tm, TableManager)
        frame = sorted(set(relation.inputs) | set(relation.outputs))
        assert list(tm.minterms(table.node, range(len(frame)))) \
            == list(mgr.minterms(relation.node, frame))
        assert list(tm.minterms(table.project(0).on, table.inputs)) \
            == list(mgr.minterms(relation.project(0).on, relation.inputs))

    def test_solution_stays_on_the_table_manager(self):
        relation = random_relation(3, 3, seed=5)
        table = table_relation(relation)
        result = BrelSolver(BrelOptions()).solve(table)
        base = BrelSolver(BrelOptions()).solve(relation)
        assert result.solution.mgr is table.mgr
        assert result.solution.cost == base.solution.cost
        assert solution_minterms(table, result.solution) \
            == solution_minterms(relation, base.solution)


class TestCrossBackendMemo:
    def test_templates_minted_on_table_replay_on_bdd(self):
        """Memo signatures are engine-agnostic: a store populated by a
        table-engine solve must serve hits — and identical results —
        when the same relation is solved on the BDD engine."""
        relation = random_relation(4, 4, seed=3)
        table = table_relation(relation)
        store = MemoStore()
        table_result = BrelSolver(BrelOptions(), memo=store).solve(table)
        assert table_result.stats.memo_stores > 0
        entries = store.stats()["entries"]
        assert entries > 0
        bdd_result = BrelSolver(BrelOptions(), memo=store).solve(relation)
        assert bdd_result.stats.memo_hits > 0
        assert bdd_result.solution.cost == table_result.solution.cost
        assert solution_minterms(relation, bdd_result.solution) \
            == solution_minterms(table, table_result.solution)

    def test_templates_minted_on_bdd_replay_on_table(self):
        relation = random_relation(4, 4, seed=3)
        store = MemoStore()
        bdd_result = BrelSolver(BrelOptions(), memo=store).solve(relation)
        assert bdd_result.stats.memo_stores > 0
        table_result = BrelSolver(BrelOptions(), memo=store).solve(
            table_relation(relation))
        assert table_result.stats.memo_hits > 0
        assert table_result.solution.cost == bdd_result.solution.cost


class TestDecomposedBlocks:
    def test_sharded_parity_across_engines(self):
        """A sharded solve on the table engine matches the BDD one."""
        relation = block_structured_relation([(3, 2), (4, 2)], seed=3)
        table = table_relation(relation)
        base = BrelSolver(BrelOptions(max_explored=30)).solve(relation)
        other = BrelSolver(BrelOptions(max_explored=30)).solve(table)
        assert base.partition is not None
        assert other.solution.cost == base.solution.cost
        assert solution_minterms(table, other.solution) \
            == solution_minterms(relation, base.solution)
        assert answers(other.partition) == answers(base.partition)
