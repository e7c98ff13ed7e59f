"""Route events of a solve.

``route`` events report the whole-relation decisions of
``backend="auto"``/``"table"`` (:func:`repro.core.route.route_decision`);
a default BDD solve emits none.
"""

from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver


class TestRouteEvents:
    def test_whole_relation_route_event_has_backend_detail(self):
        relation = random_relation(3, 3, seed=2)
        solver = BrelSolver(BrelOptions(backend="auto"))
        details = [event.detail for event in solver.iter_events(relation)
                   if event.kind == "route"]
        assert any(d.startswith("backend=") for d in details if d)

    def test_no_route_events_when_off(self):
        relation = random_relation(3, 3, seed=2)
        solver = BrelSolver(BrelOptions())
        assert all(event.kind != "route"
                   for event in solver.iter_events(relation))
