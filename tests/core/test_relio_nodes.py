"""The node-list transport: round trips, exact keys, and validation."""

import json
import random

import pytest

from repro.api import SolveRequest
from repro.api.request import build_relation
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.benchdata.brgen import random_relation
from repro.core import (BooleanRelation, RelationNodes, check_nodes,
                        parse_relation, relation_from_nodes,
                        relation_to_nodes, write_relation)

from ..conftest import wide_relation


def frame_of(relation):
    return sorted(set(relation.inputs) | set(relation.outputs))


def minterms(relation):
    return sorted(relation.mgr.minterms(relation.node, frame_of(relation)))


def interleaved(num_inputs, num_outputs, seed, padding=0):
    """A random relation whose manager mixes outputs among the inputs
    (and holds ``padding`` unused variables between them)."""
    base = random_relation(num_inputs, num_outputs, seed=seed)
    rng = random.Random(seed)
    width = num_inputs + num_outputs
    mgr = BddManager(["v%d" % i for i in range(width + padding)])
    slots = sorted(rng.sample(range(width + padding), width))
    order = list(range(width))
    rng.shuffle(order)
    position = {old: slots[new] for new, old in enumerate(order)}
    source = base.mgr
    # Copy the BDD into mgr under the var -> slot renaming (the slots
    # are not order-preserving, so rebuild through minterms).
    node = mgr.from_minterms(
        [position[var] for var in range(width)],
        list(source.minterms(base.node, list(range(width)))))
    return BooleanRelation(mgr, [position[v] for v in base.inputs],
                           [position[v] for v in base.outputs], node)


def through_json(data):
    return json.loads(json.dumps(data.spec()))


def relations():
    yield random_relation(3, 2, seed=1)
    yield random_relation(4, 1, seed=2)              # a single output
    yield BooleanRelation.from_output_sets([{0, 1}] * 4, 2, 1)
    mgr = BddManager(["x0", "y0"])
    yield BooleanRelation(mgr, [0], [1], TRUE)       # constants
    yield BooleanRelation(mgr, [0], [1], FALSE)
    lone = BddManager(["y0"])
    yield BooleanRelation(lone, [], [0], lone.var(0))  # no inputs
    for seed in range(12):
        yield random_relation(1 + seed % 4, 1 + seed % 3, seed=100 + seed)
        yield interleaved(1 + seed % 4, 1 + seed % 3, seed=200 + seed,
                          padding=seed % 3)


class TestRoundTrip:
    @pytest.mark.parametrize("index", range(30))
    def test_json_round_trip_keeps_the_relation(self, index):
        relation = list(relations())[index]
        data = relation_to_nodes(relation)
        rebuilt = relation_from_nodes(through_json(data))
        assert minterms(rebuilt) == minterms(relation)
        # Canonical: the rebuilt relation walks back to the same tuple,
        # so it has the same BDD over its frame positions.
        assert relation_to_nodes(rebuilt) == data

    def test_wide_relation_round_trips_linearly(self):
        relation = wide_relation()
        data = relation_to_nodes(relation)
        assert len(relation.inputs) == 18
        assert len(data.nodes) == relation.mgr.size(relation.node)
        rebuilt = relation_from_nodes(through_json(data))
        assert relation_to_nodes(rebuilt) == data
        frame = frame_of(relation)
        assert rebuilt.mgr.sat_count(rebuilt.node, range(len(frame))) \
            == relation.mgr.sat_count(relation.node, frame)

    def test_fresh_manager_names_by_position(self):
        relation = interleaved(3, 2, seed=7)
        rebuilt = relation_from_nodes(relation_to_nodes(relation))
        assert [rebuilt.mgr.var_name(v) for v in rebuilt.inputs] \
            == ["x0", "x1", "x2"]
        assert [rebuilt.mgr.var_name(v) for v in rebuilt.outputs] \
            == ["y0", "y1"]

    def test_compaction_keeps_the_source_order(self):
        relation = interleaved(3, 2, seed=8, padding=2)
        data = relation_to_nodes(relation)
        frame = frame_of(relation)
        assert data.inputs == tuple(frame.index(v)
                                    for v in relation.inputs)
        assert data.outputs == tuple(frame.index(v)
                                     for v in relation.outputs)

    def test_equal_content_gives_equal_tuples(self):
        # Built in different managers, in different node orders.
        rows = [{1}, {0, 1}, {0}, {1}]
        first = BooleanRelation.from_output_sets(rows, 2, 1)
        second = parse_relation(write_relation(first))
        assert relation_to_nodes(first) == relation_to_nodes(second)
        other = BooleanRelation.from_output_sets([{1}, {1}, {0}, {1}], 2, 1)
        assert relation_to_nodes(other) != relation_to_nodes(first)

    def test_given_manager_holds_rank_r_as_variable_r(self):
        relation = random_relation(3, 2, seed=4)
        mgr = BddManager(["a%d" % i for i in range(6)])
        rebuilt = relation_from_nodes(relation_to_nodes(relation), mgr=mgr)
        assert rebuilt.mgr is mgr and rebuilt.inputs == (0, 1, 2)
        with pytest.raises(ValueError, match="lacks variables"):
            relation_from_nodes(relation_to_nodes(relation),
                                mgr=BddManager(["a"]))

    def test_out_of_frame_dependence_is_refused(self):
        mgr = BddManager(["x0", "y0", "z"])
        relation = BooleanRelation(mgr, [0], [1],
                                   mgr.and_(mgr.var(1), mgr.var(2)))
        with pytest.raises(ValueError, match="outside"):
            relation_to_nodes(relation)


class TestPlaRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_parse_of_write_reproduces_the_relation(self, seed):
        relation = random_relation(1 + seed % 4, 1 + seed % 3, seed=seed)
        parsed = parse_relation(write_relation(relation))
        assert relation_to_nodes(parsed) == relation_to_nodes(relation)

    @pytest.mark.parametrize("seed", range(5))
    def test_interleaved_relation_keeps_its_rows(self, seed):
        relation = interleaved(3, 2, seed=300 + seed, padding=1)
        parsed = parse_relation(write_relation(relation))
        assert list(parsed.rows()) == list(relation.rows())


VALID = {"inputs": [0, 2], "outputs": [1],
         "nodes": [[2, 0, 1], [1, 2, 0], [0, 3, 2]], "root": 4}

MALFORMED = [
    ("missing or not an earlier", {"nodes": [[2, 0, 3]], "root": 2}),
    ("missing or not an earlier", {"nodes": [[2, 0, 1], [1, 4, 0]],
                                   "root": 3}),
    ("missing or not an earlier", {"nodes": [[2, -1, 1]], "root": 2}),
    ("redundant", {"nodes": [[2, 1, 1]], "root": 2}),
    ("below their parent", {"nodes": [[1, 0, 1], [2, 2, 0]], "root": 3}),
    ("below their parent", {"nodes": [[1, 0, 1], [1, 2, 0]], "root": 3}),
    ("duplicates", {"nodes": [[2, 0, 1], [2, 0, 1]], "root": 3}),
    ("overlap", {"inputs": [0, 1], "outputs": [1]}),
    ("out of range", {"inputs": [0, 3], "outputs": [1]}),
    ("out of range", {"inputs": [-1, 0], "outputs": [1]}),
    ("outside the frame", {"nodes": [[3, 0, 1]], "root": 2}),
    ("does not exist", {"root": 5}),
    ("does not exist", {"root": -1}),
    ("non-int", {"nodes": [[2, 0, True]], "root": 2}),
    ("triple", {"nodes": [[2, 0]], "root": 2}),
    ("list of ints", {"inputs": "ab"}),
    ("lacks", {"root": None, "nodes": None, "inputs": None,
               "outputs": None, "drop": True}),
]


class TestValidation:
    def test_the_valid_example_builds(self):
        relation = relation_from_nodes(VALID)
        assert relation.inputs == (0, 2) and relation.outputs == (1,)

    @pytest.mark.parametrize("message, change", MALFORMED)
    def test_malformed_data_raises_a_named_value_error(self, message,
                                                       change):
        data = dict(VALID)
        if change.get("drop"):
            data = {"inputs": [0]}
        else:
            data.update(change)
        with pytest.raises(ValueError, match=message):
            check_nodes(data)
        with pytest.raises(ValueError, match=message):
            relation_from_nodes(data)
        spec = dict(data, kind="nodes")
        if set(spec) == {"kind", "inputs", "outputs", "nodes", "root"}:
            with pytest.raises(ValueError, match=message):
                SolveRequest(relation=spec)

    def test_seeded_mutations_never_hang_or_crash(self):
        rng = random.Random(5)
        base = relation_to_nodes(random_relation(3, 2, seed=6)).spec()
        for _ in range(300):
            data = json.loads(json.dumps(base))
            row = rng.choice(data["nodes"])
            row[rng.randrange(3)] += rng.choice((-3, -1, 1, 3))
            try:
                relation = relation_from_nodes(data)
            except ValueError:
                continue
            # Whatever survives validation is a relation over the frame.
            assert relation_to_nodes(relation).inputs == tuple(
                data["inputs"])


class TestSpecKind:
    def test_spec_normalises_to_tuples_and_round_trips_json(self):
        data = relation_to_nodes(random_relation(3, 2, seed=3))
        request = SolveRequest(relation=through_json(data))
        assert request.relation["nodes"] == data.nodes
        assert isinstance(request.relation["nodes"][0], tuple)
        assert SolveRequest.from_json(request.to_json()) == request
        assert request.to_dict()["relation"]["nodes"][0] \
            == list(data.nodes[0])

    def test_spec_builds_the_relation(self):
        relation = random_relation(3, 2, seed=3)
        built = build_relation(relation_to_nodes(relation).spec())
        assert minterms(built) == minterms(relation)

    def test_relation_nodes_is_its_own_key(self):
        data = relation_to_nodes(random_relation(3, 2, seed=3))
        assert isinstance(data, RelationNodes)
        assert {data: 1}[check_nodes(through_json(data))] == 1
