"""A trim never remaps a manager that another holder pins.

Two sessions may register relations of one caller-built
:class:`BddManager`.  A session remaps only its own registrations
through a collection, so it trims a manager only while every pin in
it is one of its own; otherwise the other session would hold stale
node ids.
"""

from __future__ import annotations

from repro.api import Session, SolveRequest
from repro.bdd.manager import BddManager
from repro.benchdata.brgen import random_rows
from repro.core.relation import BooleanRelation


def shared_relation():
    """``r`` built in a caller's manager above a dropped relation, so a
    collection moves its nodes."""
    mgr = BddManager(["x%d" % i for i in range(5)]
                     + ["y%d" % j for j in range(3)])
    dropped = BooleanRelation.from_output_sets(random_rows(5, 3, 1), 5, 3,
                                               mgr=mgr)
    relation = BooleanRelation.from_output_sets(random_rows(5, 3, 2), 5, 3,
                                                mgr=mgr)
    del dropped
    return relation


def fresh_cost(relation):
    session = Session()
    session.add_relation("r", relation)
    return session.solve(SolveRequest(relation="r", max_explored=3)).cost


class TestSharedManagerTrim:
    def test_a_trim_leaves_another_sessions_pin_alone(self):
        relation = shared_relation()
        a, b = Session(), Session()
        a.add_relation("r", relation)
        b.add_relation("r", relation)
        nodes = relation.mgr.num_nodes
        a.trim()
        assert a.trims == 0 and relation.mgr.num_nodes == nodes
        report = b.solve(SolveRequest(relation="r", max_explored=3))
        assert report.ok and report.compatible
        assert report.cost == fresh_cost(shared_relation()) == 40

    def test_automatic_trims_leave_it_alone_too(self):
        relation = shared_relation()
        a, b = Session(auto_trim_nodes=1), Session()
        a.add_relation("r", relation)
        b.add_relation("r", relation)
        assert a.solve(SolveRequest(relation="r", max_explored=3)).ok
        assert a.trims == 0
        assert b.solve(SolveRequest(relation="r", max_explored=3)).cost \
            == 40

    def test_a_pin_the_caller_took_also_holds_the_manager(self):
        relation = shared_relation()
        relation.mgr.pin(relation.node)
        session = Session()
        session.add_relation("r", relation)
        session.trim()
        assert session.trims == 0

    def test_the_manager_trims_once_the_other_session_lets_go(self):
        relation = shared_relation()
        a, b = Session(), Session()
        a.add_relation("r", relation)
        b.add_relation("r", relation)
        b.remove_relation("r")
        a.trim()
        assert a.trims == 1
        assert relation.mgr.num_nodes < shared_relation().mgr.num_nodes
        assert a.solve(SolveRequest(relation="r", max_explored=3)).cost \
            == 40

    def test_one_relation_under_two_names_still_trims(self):
        relation = shared_relation()
        session = Session()
        session.add_relation("r", relation)
        session.add_relation("r2", relation)
        session.trim()
        assert session.trims == 1
        assert session.relation("r").node == session.relation("r2").node
