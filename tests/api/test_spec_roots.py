"""Narrow specs pack straight to the root table.

:func:`repro.api.request.root_of_spec` builds the relation a solve
starts from.  For every spec kind but equation systems and session
names, a frame of at most 16 variables is packed from the spec's rows or
node list with no BDD node built, and the report reads the tables.  The
node builders (:func:`~repro.api.request.relation_of_spec`) are the
reference:

* the root's table, frame and variable names equal ``pack_relation`` of
  the node-built relation, at every width 1-16, node lists with
  permuted ranks included, and its node (built on demand, in level
  order) is that relation's node;
* triples of a node list that the root does not reach get no table;
* a narrow solve of every kind leaves its manager with no node beyond
  its variables until ``report.solution.functions`` is read, and its
  report (pairs, compatibility, sizes, PLA) matches the node-level
  computations;
* the PLA export written from tables is ``write_relation``'s text;
* a table mined in the root layout
  (:func:`~repro.api.request.root_of_table`) gives the root the node
  list of its relation gives, at every width 1-18: packed up to 16
  variables, on nodes beyond;
* a pool batch builds each root as a serial batch does and ships a
  packed one as its ``(n, m, table)`` triple, with no node builder run,
  and a wide or ``equations`` root as its node list; either way the
  reports are the serial batch's.
"""

import concurrent.futures
import random
import tracemalloc

import pytest

from repro import SolveRequest
from repro.api import Session
from repro.api import request as request_module
from repro.api import session as session_module
from repro.api.report import SolveReport
from repro.api.request import (normalize_relation_spec, relation_of_spec,
                               root_of_nodes, root_of_spec, root_of_table)
from repro.bdd import BddManager
from repro.bdd.manager import FALSE, TRUE
from repro.bdd.packed import (MAX_FRAME_WIDTH, MAX_TABLE_WIDTH,
                              pack_positions, unpack)
from repro.benchdata import SUITE
from repro.benchdata.brgen import (block_structured_relation,
                                   random_relation)
from repro.core.brel import BrelResult
from repro.core.memo import solution_template
from repro.core.packedrel import (PackedRelation, narrow, pack_nodes,
                                  pack_relation)
from repro.core.relation import BooleanRelation, NotWellDefinedError
from repro.core.relio import (check_nodes, relation_from_nodes,
                              relation_to_nodes, table_rows,
                              write_relation, write_rows)
from repro.core.solution import Solution, SolverStats

#: (inputs, outputs): every width 1-16 once, plus lopsided frames.
SHAPES = ([(width // 2, width - width // 2)
           for width in range(1, MAX_TABLE_WIDTH + 1)]
          + [(12, 3), (3, 13), (14, 1)])


def shape_id(shape):
    return "%dx%d" % shape


def output_sets_spec(num_inputs, num_outputs, seed):
    relation = random_relation(num_inputs, num_outputs, seed)
    return {"kind": "output_sets",
            "rows": [sorted(outputs) for _, outputs in relation.rows()],
            "num_inputs": num_inputs, "num_outputs": num_outputs}


def truth_tables_spec(num_inputs, num_outputs, seed):
    rng = random.Random(seed)
    return {"kind": "truth_tables", "num_inputs": num_inputs,
            "tables": [rng.getrandbits(1 << num_inputs)
                       for _ in range(num_outputs)]}


def pla_spec(num_inputs, num_outputs, seed):
    """Rows with don't-care cubes on both planes, over a relation that
    mentions every vertex (the dialect has no row for 0 inputs)."""
    rng = random.Random(seed)
    lines = [".i %d" % num_inputs, ".o %d" % num_outputs, ".type fr"]
    for _ in range(3):
        lines.append("%s %s" % (
            "".join(rng.choice("01-") for _ in range(num_inputs)),
            "".join(rng.choice("01-") for _ in range(num_outputs))))
    lines.append("%s %s" % ("-" * num_inputs,
                            "".join(rng.choice("01")
                                    for _ in range(num_outputs))))
    return {"kind": "pla", "text": "\n".join(lines + [".e"]) + "\n"}


def permuted_nodes_spec(num_inputs, num_outputs, seed):
    """A node list whose input and output ranks interleave and come in
    no order: inputs are not the low ranks, nor sorted by position."""
    rng = random.Random(seed)
    width = num_inputs + num_outputs
    ranks = list(range(width))
    rng.shuffle(ranks)
    inputs, outputs = ranks[:num_inputs], ranks[num_inputs:]
    mgr = BddManager(["v%d" % rank for rank in range(width)])
    node = unpack(mgr, rng.getrandbits(1 << width), list(range(width)))
    return relation_to_nodes(
        BooleanRelation(mgr, inputs, outputs, node)).spec()


def permuted_rows_spec(num_inputs, num_outputs, seed):
    """A brgen relation as a node list over permuted ranks: the
    characteristic function of its rows, with the positions' variables
    interleaved and out of level order."""
    rng = random.Random(seed)
    width = num_inputs + num_outputs
    ranks = list(range(width))
    rng.shuffle(ranks)
    inputs, outputs = ranks[:num_inputs], ranks[num_inputs:]
    mgr = BddManager(["v%d" % rank for rank in range(width)])
    node = FALSE
    for vertex, values in random_relation(num_inputs, num_outputs,
                                          seed).rows():
        node = mgr.or_(node, mgr.and_(
            mgr.minterm(inputs, vertex),
            mgr.from_minterms(outputs, sorted(values))))
    return relation_to_nodes(
        BooleanRelation(mgr, inputs, outputs, node)).spec()


def nodes_spec(num_inputs, num_outputs, seed):
    return relation_to_nodes(
        random_relation(num_inputs, num_outputs, seed)).spec()


KINDS = {"output_sets": output_sets_spec,
         "truth_tables": truth_tables_spec, "pla": pla_spec,
         "nodes": nodes_spec, "permuted_nodes": permuted_nodes_spec}


def assert_root_matches(spec):
    spec = normalize_relation_spec(spec)
    root = root_of_spec(spec)
    relation = relation_of_spec(spec)
    reference = pack_relation(relation)
    assert isinstance(root, PackedRelation)
    assert pack_relation(root) is root
    assert (root.table, root.frame, root.inputs, root.outputs) == \
        (reference.table, reference.frame, reference.inputs,
         reference.outputs)
    assert [root.mgr.var_name(var) for var in range(root.mgr.num_vars)] \
        == [relation.mgr.var_name(var)
            for var in range(relation.mgr.num_vars)]
    # Nothing was built for the root; its node, built on demand in the
    # manager's level order, is the node builder's node.
    assert root.mgr.num_nodes == 2 + root.mgr.num_vars
    assert relation_to_nodes(root.unpacked()) == relation_to_nodes(relation)
    return root


class TestRootEqualsPackedNodes:
    @pytest.mark.parametrize("kind,shape", [
        (kind, shape) for kind in sorted(KINDS) for shape in SHAPES
        if kind != "pla" or shape[0]],
        ids=lambda value: shape_id(value) if isinstance(value, tuple)
        else value)
    def test_every_width(self, kind, shape):
        assert_root_matches(KINDS[kind](*shape, seed=sum(shape)))

    @pytest.mark.parametrize("instance", SUITE,
                             ids=lambda instance: instance.name)
    def test_bench(self, instance):
        assert_root_matches({"kind": "bench", "name": instance.name})

    def test_file(self, tmp_path):
        path = tmp_path / "relation.pla"
        path.write_text(write_relation(random_relation(5, 3, seed=2)),
                        encoding="ascii")
        assert_root_matches({"kind": "file", "path": str(path)})

    def test_unreached_triples_get_no_table(self):
        """A width-16 list carrying 3,000 triples its root never reaches
        packs to the node builder's table, holding tables only for the
        few it reaches (one full-width table is 8 KiB)."""
        mgr = BddManager(["v%d" % var for var in range(16)])
        inputs, outputs = list(range(8)), list(range(8, 16))
        node = mgr.xnor_(mgr.var(8), mgr.and_(mgr.var(0), mgr.var(1)))
        base = relation_to_nodes(BooleanRelation(mgr, inputs, outputs,
                                                 node))
        # Every pair of distinct refs below a rank, one rank at a time
        # from the bottom up, until 3,000 triples were added.
        nodes, total = list(base.nodes), len(base.nodes) + 3000
        pool, rank = [0, 1], 16
        while len(nodes) < total:
            rank -= 1
            fresh = [(rank, lo, hi) for lo in pool for hi in pool
                     if lo != hi and (rank, lo, hi) not in base.nodes]
            fresh = fresh[:total - len(nodes)]
            pool += range(len(nodes) + 2, len(nodes) + 2 + len(fresh))
            nodes += fresh
        data = check_nodes((base.inputs, base.outputs, nodes, base.root))
        assert pack_nodes(data).table == \
            pack_relation(relation_from_nodes(data)).table
        tracemalloc.start()
        try:
            pack_nodes(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_node_lists_in_solve_many(self):
        data = relation_to_nodes(random_relation(4, 3, seed=9))
        root = root_of_nodes(data)
        assert isinstance(root, PackedRelation)
        assert root.table == pack_relation(relation_of_spec(
            data.spec())).table

    @pytest.mark.parametrize("kind", ["output_sets", "nodes"])
    def test_wider_frames_stay_on_nodes(self, kind):
        spec = normalize_relation_spec(KINDS[kind](9, 8, seed=1))
        assert not narrow(9, 8)
        root = root_of_spec(spec)
        assert isinstance(root, BooleanRelation)
        assert relation_to_nodes(root) == \
            relation_to_nodes(relation_of_spec(spec))

    def test_equations_stay_on_nodes(self):
        spec = normalize_relation_spec({
            "kind": "equations", "equations": ["y = a & b | c"],
            "independents": ["a", "b", "c"], "dependents": ["y"]})
        assert isinstance(root_of_spec(spec), BooleanRelation)

    def test_unmentioned_vertex_is_not_well_defined(self):
        text = ".i 2\n.o 1\n.type fr\n00 1\n01 0\n11 -\n.e\n"
        root = root_of_spec(normalize_relation_spec({"kind": "pla",
                                                     "text": text}))
        assert not root.is_well_defined()
        with pytest.raises(NotWellDefinedError):
            Session().solve(SolveRequest(relation={"kind": "pla",
                                                   "text": text}))

    def test_bad_rows_are_rejected_as_the_node_builder_rejects_them(self):
        from repro.core.packedrel import pack_rows
        for rows in ([{0}], [{0}, {2}]):
            with pytest.raises(ValueError) as packed:
                pack_rows(rows, 1, 1)
            with pytest.raises(ValueError) as nodes:
                BooleanRelation.from_output_sets(rows, 1, 1)
            assert str(packed.value) == str(nodes.value)


class TestRootOfTable:
    """A mined table's root is the root of its relation's node list."""

    @pytest.mark.parametrize("width", range(1, MAX_FRAME_WIDTH + 1))
    def test_matches_the_node_list_path(self, width):
        rng = random.Random(300 + width)
        m = 1 if width < 3 else 2
        n = width - m
        names = ["x%d" % i for i in range(n)] + ["y%d" % j for j in range(m)]
        mgr = BddManager(names)
        covers = [[], [[]]]  # FALSE, TRUE
        for _ in range(4):  # sparse covers: wide tables, small BDDs
            covers.append([
                [(var, rng.random() < 0.5) for var in
                 rng.sample(range(width), rng.randint(1, min(width, 6)))]
                for _ in range(rng.randint(1, 8))])
        # Input i on position n-1-i, output j on n+j.
        position = {var: n - 1 - var if var < n else var
                    for var in range(width)}
        for cover in covers:
            node = FALSE
            for cube in cover:
                term = TRUE
                for var, polarity in cube:
                    literal = mgr.var(var)
                    term = mgr.and_(term, literal if polarity
                                    else mgr.not_(literal))
                node = mgr.or_(node, term)
            data = relation_to_nodes(BooleanRelation(
                mgr, range(n), range(n, width), node))
            (table,) = pack_positions(mgr, [node], position, width)
            root = root_of_table(n, m, table)
            assert (root.inputs, root.outputs) == \
                (tuple(range(n)), tuple(range(n, width)))
            assert [root.mgr.var_name(var) for var in range(width)] == names
            if narrow(n, m):
                assert isinstance(root, PackedRelation)
                assert root.table == table == root_of_nodes(data).table
                root = root.unpacked()
            assert isinstance(root, BooleanRelation)
            assert relation_to_nodes(root) == data


def narrow_specs(tmp_path):
    """One single-block spec of every narrow kind."""
    path = tmp_path / "relation.pla"
    path.write_text(write_relation(random_relation(5, 3, seed=4)),
                    encoding="ascii")
    return {"output_sets": output_sets_spec(6, 3, seed=1),
            "truth_tables": truth_tables_spec(5, 3, seed=2),
            "bench": {"kind": "bench", "name": "int6"},
            "pla": {"kind": "pla", "text": write_relation(
                random_relation(5, 2, seed=3))},
            "file": {"kind": "file", "path": str(path)},
            "nodes": nodes_spec(6, 3, seed=5),
            "permuted_nodes": permuted_rows_spec(5, 3, seed=12)}


class TestNarrowSolvesBuildNoNode:
    def test_until_functions_are_read(self, tmp_path):
        for kind, spec in narrow_specs(tmp_path).items():
            report = Session().solve(SolveRequest(relation=spec,
                                                  max_explored=6))
            assert report.ok and report.partition is None, kind
            mgr = report.solution.mgr
            base = 2 + mgr.num_vars
            assert report.stats["bdd_nodes"] == base, kind
            data = report.to_dict()
            assert data["pla"] and mgr.num_nodes == base, kind
            functions = report.solution.functions
            assert mgr.num_nodes > base, kind
            assert [mgr.size(f) for f in functions] == report.bdd_sizes

    def test_serial_batches(self, tmp_path):
        specs = list(narrow_specs(tmp_path).values())
        reports = Session().solve_many(
            [SolveRequest(relation=spec, max_explored=6) for spec in specs],
            executor="serial")
        for report in reports:
            assert report.ok
            mgr = report.solution.mgr
            assert mgr.num_nodes == 2 + mgr.num_vars

    def test_report_matches_the_node_level_answers(self, tmp_path):
        for kind, spec in narrow_specs(tmp_path).items():
            report = Session().solve(SolveRequest(relation=spec,
                                                  max_explored=6))
            relation = relation_of_spec(normalize_relation_spec(spec))
            assert report.pairs == relation.pair_count(), kind
            # The same variables in the node builder's manager.
            solution = report.solution
            functions = [unpack(relation.mgr, table, solution.frame)
                         for table in solution.tables]
            assert report.compatible, kind
            assert relation.is_compatible(functions), kind
            assert report.bdd_sizes == [relation.mgr.size(function)
                                        for function in functions], kind

    def test_a_decomposable_root_is_sharded(self):
        relation = block_structured_relation([(3, 2), (3, 2)], seed=3)
        spec = {"kind": "output_sets",
                "rows": [sorted(outputs) for _, outputs in relation.rows()],
                "num_inputs": 6, "num_outputs": 4}
        report = Session().solve(SolveRequest(relation=spec))
        reference = Session().solve(SolveRequest(relation=spec),
                                    relation=relation_of_spec(
                                        normalize_relation_spec(spec)))
        assert report.partition["num_blocks"] == 2
        assert report.compatible
        assert (report.sop, report.cost, report.pairs, report.pla) == \
            (reference.sop, reference.cost, reference.pairs, reference.pla)


#: A 17-variable spec (14 inputs, 3 outputs) that solves in
#: milliseconds: a vertex's outputs copy its low input bits, with a
#: second choice on half the vertices.
WIDE_SPEC = {"kind": "output_sets", "num_inputs": 14, "num_outputs": 3,
             "rows": [[vertex & 7] + ([vertex >> 3 & 7] if vertex & 64
                                      else [])
                      for vertex in range(1 << 14)]}

#: Named unlike a worker names the variables of a node list (``x0..``),
#: so a pool report must take its SOP text from the parent's relation.
EQUATIONS_SPEC = {"kind": "equations", "equations": ["y = a & b | c"],
                  "independents": ["a", "b", "c"], "dependents": ["y"]}


@pytest.fixture
def pool_jobs(monkeypatch):
    """The jobs ``solve_many`` hands a pool, each run here as a worker
    runs it: from the request dict and the shipped root alone."""
    jobs = []

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, run, job):
            jobs.append(job)
            future = concurrent.futures.Future()
            future.set_result(run(job))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    return jobs


def batch_answers(reports):
    return [(report.ok, report.sop, report.cost,
             report.solution_template()) for report in reports]


def assert_live(report):
    """A live solution rides along, in agreement with the template."""
    solution = report.solution
    assert solution is not None
    assert report.solution_template() == solution_template(
        solution.mgr, solution.functions, report._inputs)


class TestPoolBatchRoots:
    def test_narrow_specs_ship_their_tables(self, tmp_path, pool_jobs,
                                            monkeypatch):
        assert not hasattr(session_module, "relation_of_spec")
        specs = [spec for spec in narrow_specs(tmp_path).values()
                 if spec["kind"] != "nodes"]
        requests = [SolveRequest(relation=spec, max_explored=6)
                    for spec in specs]
        serial = Session().solve_many(requests, executor="serial")
        roots = [root_of_spec(normalize_relation_spec(spec))
                 for spec in specs]
        built = []

        def on_nodes(*args, **kwargs):
            built.append(args)
            raise AssertionError("built on nodes")

        monkeypatch.setattr(request_module, "relation_of_spec", on_nodes)
        monkeypatch.setattr(BooleanRelation, "from_output_sets", on_nodes)
        reports = Session().solve_many(requests, executor="process")
        assert built == []
        assert [job["nodes"] for job in pool_jobs] == [None] * len(specs)
        assert [job["table"] for job in pool_jobs] == \
            [(root.n, root.m, root.table) for root in roots]
        assert batch_answers(reports) == batch_answers(serial)
        for report in reports:
            assert report.ok and report.compatible
            assert_live(report)

    def test_wide_and_equation_specs_ship_node_lists(self, pool_jobs):
        specs = [WIDE_SPEC, EQUATIONS_SPEC]
        requests = [SolveRequest(relation=spec, max_explored=4)
                    for spec in specs]
        reports = Session().solve_many(requests, executor="process")
        assert [job["table"] for job in pool_jobs] == [None, None]
        assert [job["nodes"] for job in pool_jobs] == [
            relation_to_nodes(relation_of_spec(
                normalize_relation_spec(spec))) for spec in specs]
        serial = Session().solve_many(requests, executor="serial")
        assert batch_answers(reports) == batch_answers(serial)
        for report in reports:
            assert report.ok and report.compatible
            assert_live(report)

    def test_a_pool_gives_the_serial_reports(self, tmp_path):
        fig1 = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
        specs = list(narrow_specs(tmp_path).values()) + [WIDE_SPEC,
                                                         EQUATIONS_SPEC]
        requests = [SolveRequest(relation=spec, max_explored=4)
                    for spec in specs]
        requests += [SolveRequest(relation=name, max_explored=4)
                     for name in ("fig1", "system")]
        answers = []
        for executor in ("serial", "process"):
            session = Session()
            session.add_output_sets("fig1", fig1, 2, 2)
            session.add_system("system", EQUATIONS_SPEC["equations"],
                               independents=["a", "b", "c"],
                               dependents=["y"])
            reports = session.solve_many(requests, executor=executor,
                                         max_workers=2)
            answers.append(batch_answers(reports))
        assert answers[0] == answers[1]
        assert all(ok for ok, _, _, _ in answers[1])
        # The equation spec and the named system read in their own
        # variable names on the pool too.
        assert [sop for _, sop, _, _ in answers[1][-3::2]] \
            == ["f0 = ab + c"] * 2


class TestCompatibilityFromTheRootTable:
    def test_a_wrong_vector_is_incompatible_both_ways(self):
        spec = normalize_relation_spec(output_sets_spec(4, 2, seed=6))
        root = root_of_spec(spec)
        full = (1 << (1 << root.n)) - 1
        for tables in ([0, 0], [full, full], [0x5a5a, full ^ 0x0ff0]):
            solution = Solution(root.mgr, None, 0.0, tuple(tables),
                                root.frame)
            result = BrelResult(solution, SolverStats())
            packed = SolveReport.from_result(root, result)
            on_nodes = SolveReport.from_result(root.unpacked(), result)
            assert packed.compatible == on_nodes.compatible
            assert packed.pairs == on_nodes.pairs
            assert packed.compatible == (not root.conflict_inputs(tables))


class TestPlaFromTables:
    @pytest.mark.parametrize("shape", [(0, 1), (1, 2), (3, 1), (4, 3),
                                       (6, 2), (9, 4)], ids=shape_id)
    def test_rows_equal_write_relation(self, shape):
        num_inputs, num_outputs = shape
        rng = random.Random(sum(shape))
        width = num_inputs + num_outputs
        mgr = BddManager(["v%d" % var for var in range(width + 2)])
        # Inputs on gapped levels, listed out of level order.
        levels = sorted(rng.sample(range(width + 2), width))
        inputs = levels[:num_inputs]
        outputs = levels[num_inputs:]
        rng.shuffle(inputs)
        frame = tuple(sorted(inputs))
        tables = [rng.getrandbits(1 << num_inputs)
                  for _ in range(num_outputs)]
        functions = [unpack(mgr, table, frame) for table in tables]
        text = write_rows(num_inputs, num_outputs,
                          table_rows(tables, frame, inputs))
        assert text == write_relation(BooleanRelation.from_functions(
            mgr, inputs, outputs, functions))

    def test_reports_of_permuted_frames(self):
        unsorted = 0
        for seed in range(4):
            spec = permuted_rows_spec(4, 3, seed=seed)
            report = Session().solve(SolveRequest(relation=spec,
                                                  max_explored=4))
            unsorted += report._inputs != tuple(sorted(report._inputs))
            pla = report.solution_pla()
            solution = report.solution
            assert pla == write_relation(BooleanRelation.from_functions(
                solution.mgr, report._inputs, report._outputs,
                solution.functions))
        assert unsorted
