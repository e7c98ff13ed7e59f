"""The subproblem layer: per-node signatures, the solve-wide ISOP table,
node reuse on memo hits, and spec-built managers releasing their caches.

* Signatures built from per-node ``(support, nfp)`` pairs must split
  ISFs and relations into exactly the classes the renamed-fingerprint
  walk (``fingerprints(..., var_map)``, kept as the reference here)
  splits them into — on both engines, both table kernels, shifted and
  interleaved supports, and after ``collect()`` — and equal functions
  must get equal signatures on either engine.
* ISOP covers and nodes from a warm table equal a fresh manager's.
* Solves through ``Session`` keep their pinned cost and counters.
"""

import random

import pytest

import repro
from repro import SolveRequest
from repro.bdd import BddManager
from repro.bdd.manager import FALSE
from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver, MemoStore
from repro.core.isf import Isf
from repro.core.minimize import minimize_isop
from repro.core.relation import BooleanRelation
from repro.core.route import SubproblemRouter
from repro.table import TableManager, npkernel

KERNELS = ["int"] + (["numpy"] if npkernel.available() else [])
WIDTH = 9


def engines():
    """One fresh manager per engine/kernel, ``WIDTH`` variables each."""
    names = ["v%d" % i for i in range(WIDTH)]
    made = [BddManager(names)]
    made.extend(TableManager(names, max_width=WIDTH, kernel=kernel)
                for kernel in KERNELS)
    return made


def engine_ids():
    return ["bdd"] + ["table-%s" % kernel for kernel in KERNELS]


def embed(mgr, minterms, variables):
    """The function with ``minterms`` over ``variables`` (bit i = var i)."""
    return mgr.from_minterms(variables, minterms)


def random_isfs(mgr, seed, count=40):
    """Seeded ISFs over shifted and interleaved supports.

    Each base interval (random ON/DC tables over ``k`` variables) is
    embedded at several variable placements, so the set mixes ISFs
    equal up to an order-preserving renaming with genuinely different
    ones.
    """
    rng = random.Random(seed)
    placements = [(0, 1, 2), (3, 4, 5), (1, 4, 7), (2, 5, 8),
                  (0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 4, 6), (5, 6, 7, 8),
                  (1, 3, 5, 7)]
    isfs = []
    bases = []
    for _ in range(count // 4):
        k = rng.choice((3, 4))
        points = list(range(1 << k))
        on = {p for p in points if rng.random() < 0.4}
        dc = {p for p in points if p not in on and rng.random() < 0.3}
        bases.append((k, sorted(on), sorted(dc)))
    for k, on, dc in bases:
        for variables in [p for p in placements if len(p) == k]:
            isfs.append(Isf(mgr, embed(mgr, on, variables),
                            embed(mgr, dc, variables),
                            tuple(range(WIDTH))))
    return isfs


def renamed_isf_key(isf):
    """The renamed-fingerprint reference signature of an ISF."""
    mgr = isf.mgr
    support = tuple(sorted(set(mgr.support(isf.on))
                           | set(mgr.support(isf.dc))))
    ranks = {var: rank for rank, var in enumerate(support)}
    return (len(support),) + mgr.fingerprints((isf.on, isf.dc), ranks)


def renamed_relation_key(relation):
    mgr = relation.mgr
    support = mgr.support(relation.node)
    ranks = {var: rank for rank, var in enumerate(support)}
    roles = tuple(-1 if var in relation.inputs
                  else relation.outputs.index(var) for var in support)
    return (len(relation.outputs), roles,
            mgr.fingerprints((relation.node,), ranks)[0])


def assert_same_classes(objects, new_key, old_key):
    """``new_key`` and ``old_key`` partition ``objects`` identically."""
    new = [new_key(obj) for obj in objects]
    old = [old_key(obj) for obj in objects]
    for i in range(len(objects)):
        for j in range(len(objects)):
            assert (new[i] == new[j]) == (old[i] == old[j]), (i, j)


class TestSignatureEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("index", range(1 + len(KERNELS)),
                             ids=engine_ids())
    def test_isf_signatures_match_renamed_fingerprints(self, seed, index):
        mgr = engines()[index]
        isfs = random_isfs(mgr, seed)
        assert_same_classes(isfs, lambda isf: isf.signature().key,
                            renamed_isf_key)
        # The classes are non-trivial: shifted copies collide, and
        # different bases do not.
        keys = {isf.signature().key for isf in isfs}
        assert 1 < len(keys) < len(isfs)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_signatures_equal_across_engines(self, seed):
        made = engines()
        per_engine = [[(isf.signature().key, isf.signature().support)
                       for isf in random_isfs(mgr, seed)] for mgr in made]
        for other in per_engine[1:]:
            assert other == per_engine[0]
        for variables in ((0, 3, 8), (2, 3, 4, 5)):
            values = [mgr.node_signature(mgr.from_minterms(
                variables, [1, 2, 6, 7])) for mgr in made]
            assert all(value == values[0] for value in values)

    def test_signatures_survive_collect(self):
        mgr = BddManager(["v%d" % i for i in range(WIDTH)])
        isfs = random_isfs(mgr, 6)
        before = [(isf.signature().key, isf.signature().support)
                  for isf in isfs]
        for isf in isfs:
            mgr.pin(isf.on)
            mgr.pin(isf.dc)
        mapping = mgr.collect()
        after = [Isf(mgr, mapping[isf.on], mapping[isf.dc], isf.inputs)
                 for isf in isfs]
        assert [(isf.signature().key, isf.signature().support)
                for isf in after] == before
        # ...and equal to a cold recomputation.
        mgr.release_caches()
        cold = [Isf(mgr, isf.on, isf.dc, isf.inputs) for isf in after]
        assert [(isf.signature().key, isf.signature().support)
                for isf in cold] == before

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relation_signatures_match_renamed_fingerprints(self, seed):
        # The same random relations laid out on frames that are shifted
        # and interleaved within one manager.
        mgr = BddManager(["v%d" % i for i in range(12)])
        frames = [((0, 1, 2), (3, 4)), ((5, 6, 7), (8, 9)),
                  ((0, 2, 4), (6, 8)), ((1, 3, 5), (7, 11)),
                  ((0, 1, 2), (4, 3))]
        relations = []
        for offset in range(3):
            source = random_relation(3, 2, seed=seed * 10 + offset)
            rows = [source.output_set(value) for value in range(8)]
            for inputs, outputs in frames:
                node = FALSE
                for value, outs in enumerate(rows):
                    cube = mgr.minterm(inputs, value)
                    for out in outs:
                        node = mgr.or_(node, mgr.and_(
                            cube, mgr.minterm(outputs, out)))
                relations.append(BooleanRelation(mgr, inputs, outputs,
                                                 node))
        assert_same_classes(relations, lambda rel: rel.signature().key,
                            renamed_relation_key)
        keys = {rel.signature().key for rel in relations}
        assert 1 < len(keys) < len(relations)

    def test_supports_past_64_variables(self):
        # Two functions over one 68-variable support whose children
        # differ only in where their supports sit past rank 64: a mask
        # truncated to 64 bits would give them one signature.
        mgr = BddManager(["v%d" % i for i in range(70)])
        g = mgr.var(1)
        for var in range(2, 66):
            g = mgr.and_(g, mgr.var(var))
        a, b = mgr.and_(g, mgr.var(66)), mgr.and_(g, mgr.var(67))
        first = mgr.ite(mgr.var(0), a, b)
        second = mgr.ite(mgr.var(0), b, a)
        assert mgr.node_signature(first)[0] \
            == mgr.node_signature(second)[0]
        assert mgr.node_signature(first)[1] \
            != mgr.node_signature(second)[1]
        isfs = [Isf(mgr, node, FALSE, ()) for node in (first, second)]
        assert_same_classes(isfs, lambda isf: isf.signature().key,
                            renamed_isf_key)

    def test_new_keys_never_match_old_tags(self):
        mgr = BddManager(["a", "b"])
        isf = Isf(mgr, mgr.var(0), FALSE, (0, 1))
        assert isf.signature().key[0] == "isf2"
        relation = random_relation(2, 1, seed=1)
        assert relation.signature().key[0] == "rel2"


def interval_specs(seed, num_vars, count=12):
    """Seeded ``(lower, upper)`` minterm lists over ``num_vars`` vars."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        points = range(1 << num_vars)
        lower = [p for p in points if rng.random() < 0.3]
        upper = sorted(set(lower) | {p for p in points
                                     if rng.random() < 0.4})
        specs.append((lower, upper))
    return specs


def build_intervals(mgr, specs, num_vars):
    variables = list(range(num_vars))
    return [(mgr.from_minterms(variables, lower),
             mgr.from_minterms(variables, upper)) for lower, upper in specs]


def isop_results(mgr, pairs):
    """Covers plus the nodes' functions, comparable across managers."""
    variables = list(range(mgr.num_vars))
    out = []
    for lower, upper in pairs:
        cover, node = mgr.isop(lower, upper)
        out.append((cover, sorted(mgr.minterms(node, variables))))
    return out


class TestIsopTableParity:
    @pytest.mark.parametrize("index", range(1 + len(KERNELS)),
                             ids=engine_ids())
    @pytest.mark.parametrize("warmup", ["unrelated", "flush", "collect",
                                        "clear_caches"])
    def test_warm_table_matches_fresh_manager(self, index, warmup,
                                              monkeypatch):
        specs = interval_specs(11, WIDTH)
        fresh = engines()[index]
        expected = isop_results(fresh, build_intervals(fresh, specs, WIDTH))
        mgr = engines()[index]
        if warmup == "flush":
            if isinstance(mgr, BddManager):
                mgr.set_cache_limit(8)
            else:
                import repro.table.manager as table_manager
                monkeypatch.setattr(table_manager, "_OP_CACHE_LIMIT", 8)
        mgr.enter_solve()
        try:
            isop_results(mgr, build_intervals(
                mgr, interval_specs(12, WIDTH), WIDTH))  # unrelated
            assert mgr.stats()["isop_entries"] > 0
            if warmup == "collect":
                mgr.collect()
                assert mgr.stats()["isop_entries"] == 0
            elif warmup == "clear_caches":
                mgr.clear_caches()
                assert mgr.stats()["isop_entries"] == 0
            pairs = build_intervals(mgr, specs, WIDTH)
            assert isop_results(mgr, pairs) == expected
            # A second pass is served from the table, identically.
            hits = mgr.stats()["isop_hits"]
            assert isop_results(mgr, pairs) == expected
            assert mgr.stats()["isop_hits"] > hits
            if warmup == "flush":
                assert mgr.stats()["isop_entries"] <= 8
        finally:
            mgr.exit_solve()
        assert mgr.stats()["isop_entries"] == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_widening_flushes_the_raw_table(self, kernel):
        specs = interval_specs(3, 5)
        mgr = TableManager(["v%d" % i for i in range(5)], max_width=6,
                           kernel=kernel)
        mgr.enter_solve()
        try:
            pairs = build_intervals(mgr, specs, 5)
            isop_results(mgr, pairs)
            assert mgr.stats()["isop_entries"] > 0
            mgr.add_var("v5")
            assert mgr.stats()["isop_entries"] == 0
            warm = isop_results(mgr, pairs)
        finally:
            mgr.exit_solve()
        fresh = TableManager(["v%d" % i for i in range(6)], max_width=6,
                             kernel=kernel)
        assert warm == isop_results(fresh, build_intervals(fresh, specs, 5))

    def test_table_is_empty_after_a_solve(self):
        relation = random_relation(5, 4, seed=3)
        mgr = relation.mgr
        before = mgr.stats()
        events = BrelSolver(BrelOptions(max_explored=30)).iter_events(
            relation)
        next(events)
        assert mgr.stats()["isop_entries"] > 0
        for _ in events:
            pass
        after = mgr.stats()
        assert after["isop_entries"] == 0
        assert after["isop_hits"] > before["isop_hits"]

    def test_sharded_blocks_share_the_solve_table(self):
        from repro.benchdata.brgen import block_structured_relation
        relation = block_structured_relation([(3, 2), (3, 2)], seed=3)
        mgr = relation.mgr
        entries = []
        kinds = []
        for event in BrelSolver(BrelOptions(max_explored=20)).iter_events(
                relation):
            kinds.append(event.kind)
            entries.append(mgr.stats()["isop_entries"])
        assert kinds[0] == "partition"
        # Once filled, the table stays open across every block until the
        # outer stream ends.
        first = next(i for i, size in enumerate(entries) if size)
        assert all(size > 0 for size in entries[first:])
        assert mgr.stats()["isop_entries"] == 0


class TestRouterReuse:
    def test_memo_hit_reuses_the_built_node(self):
        relation = random_relation(4, 3, seed=2)
        store = MemoStore()
        router = SubproblemRouter(store)
        isf = relation.project(0)
        first = router.minimize(isf, minimize_isop, "isop")
        assert store.counters() == (0, 1, 1)
        twin = Isf(isf.mgr, isf.on, isf.dc, isf.inputs)
        second = router.minimize(twin, minimize_isop, "isop")
        assert second is first
        # The store saw the same get it would have without the router.
        assert store.counters() == (1, 1, 1)
        # A router-less hit rebuilds the same node.
        assert second[0] == minimize_isop(isf)

    def test_memoised_solve_matches_plain_solve(self):
        relation = random_relation(6, 4, seed=12)
        plain = BrelSolver(BrelOptions(max_explored=50)).solve(relation)
        store = MemoStore()
        memo = BrelSolver(BrelOptions(max_explored=50),
                          memo=store).solve(relation)
        replay = BrelSolver(BrelOptions(max_explored=50),
                            memo=store).solve(relation)
        for result in (memo, replay):
            assert result.solution.functions == plain.solution.functions
            assert [imp.cost for imp in result.improvements] \
                == [imp.cost for imp in plain.improvements]
        assert replay.stats.memo_hits > 0


#: Cost, relations_explored, splits, memo_hits, memo_misses, memo_stores
#: of fixed solves, as the fingerprint-keyed subproblem layer reported
#: them (the new keys must split subproblems identically).
PINNED = {
    ("vtx", "size"): [92.0, 30, 30, 129, 171, 171],
    ("int7", "literals"): [349.0, 30, 29, 80, 160, 160],
    ("brgen7x7s1", 40): [289.0, 40, 40, 439, 201, 201],
    ("brgen7x7s1", 80): [288.0, 80, 80, 572, 148, 148],
}
COUNTERS = ("relations_explored", "splits", "memo_hits", "memo_misses",
            "memo_stores")


def pinned_row(report):
    return [report.cost] + [report.stats[key] for key in COUNTERS]


class TestPinnedCounters:
    def test_table2_solves(self):
        session = repro.Session()
        for name, cost in (("vtx", "size"), ("int7", "literals")):
            report = session.solve(SolveRequest(
                relation={"kind": "bench", "name": name}, cost=cost,
                max_explored=30))
            assert pinned_row(report) == PINNED[(name, cost)]

    def test_brgen_solves(self):
        session = repro.Session()
        relation = random_relation(7, 7, seed=1)
        for budget in (40, 80):
            report = session.solve(SolveRequest(max_explored=budget),
                                   relation=relation)
            assert pinned_row(report) == PINNED[("brgen7x7s1", budget)]


class TestSpecManagersReleaseCaches:
    ROWS = [{0b01}, {0b01, 0b10}, {0b00, 0b11}, {0b10, 0b11},
            {0b00}, {0b01, 0b11}, {0b10}, {0b00, 0b01, 0b11}]

    def spec(self):
        return {"kind": "output_sets", "rows": [sorted(r) for r in self.ROWS],
                "num_inputs": 3, "num_outputs": 2}

    def test_spec_built_solve_drops_derived_tables(self):
        session = repro.Session()
        report = session.solve(SolveRequest(relation=self.spec(),
                                            max_explored=20))
        stats = report.solution.mgr.stats()
        assert stats["cache_entries"] == 0
        assert stats["isop_entries"] == 0
        registered = repro.Session()
        registered.add_output_sets("r", self.ROWS, 3, 2)
        reference = registered.solve(SolveRequest(relation="r",
                                                  max_explored=20))
        assert report.to_dict()["pla"] == reference.to_dict()["pla"]
        assert report.sop == reference.sop
        assert report.cost == reference.cost
        # The registry relation's manager keeps its computed table.
        assert registered.relation("r").mgr.stats()["cache_entries"] > 0

    def test_solve_many_and_solve_iter_release_spec_managers(self):
        session = repro.Session()
        reports = session.solve_many(
            [SolveRequest(relation=self.spec(), max_explored=10,
                          label="a")], executor="serial")
        assert reports[0].solution.mgr.stats()["cache_entries"] == 0
        gen = session.solve_iter(SolveRequest(relation=self.spec(),
                                              max_explored=11))
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            report = stop.value
        assert report.solution.mgr.stats()["cache_entries"] == 0

    def test_caller_owned_relation_keeps_its_tables(self):
        session = repro.Session()
        relation = random_relation(4, 3, seed=4)
        session.solve(SolveRequest(max_explored=10), relation=relation)
        assert relation.mgr.stats()["cache_entries"] > 0
