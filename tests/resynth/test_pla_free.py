"""No PLA text on the transport path.

``parse_relation`` and ``write_relation`` are replaced with raising stubs
everywhere they are bound; resynthesis and pooled batches must still
work, because relations travel as tables or node lists and solutions as
templates.  PLA stays an import/export format only.
"""

import sys

import pytest

from repro.api import Session, SolveRequest
from repro.core import relio
from repro.resynth import ResynthRequest, resynthesize

from ..conftest import wide_relation


@pytest.fixture
def no_pla(monkeypatch):
    originals = {name: getattr(relio, name)
                 for name in ("parse_relation", "write_relation")}

    def stub(*args, **kwargs):
        raise AssertionError("PLA text on the transport path")

    for module in list(sys.modules.values()):
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, stub)
    assert relio.parse_relation is stub


@pytest.mark.parametrize("circuit", ("s298", "s386"))
def test_resynthesis_never_touches_pla(no_pla, circuit):
    report = resynthesize(ResynthRequest(
        circuit=circuit, passes=2, max_explored=8))
    assert report.ok, report.error
    assert report.equivalent is True
    assert report.rewrites_accepted > 0
    assert report.passes[0]["unrealized"] == 0


def test_pooled_batches_never_touch_pla(no_pla):
    session = Session()
    session.add_relation("wide", wide_relation())
    session.add_output_sets("fig1", [{1}, {1}, {0, 3}, {2, 3}], 2, 2)
    requests = [SolveRequest(relation=name, cost=cost, label=name + cost)
                for name in ("wide", "fig1") for cost in ("size", "cubes")]
    requests.append(requests[0])  # a duplicate, fanned out
    reports = session.solve_many(requests, executor="process",
                                 max_workers=2)
    assert all(report.ok for report in reports), \
        [report.error for report in reports]
    for request, report in zip(requests, reports):
        relation = session.relation(request.relation["name"])
        assert relation.is_compatible(report.solution.functions)
    # Served again from the cache, still without PLA.
    again = session.solve_many(requests[:1], executor="process")
    assert again[0].cached and again[0].cost == reports[0].cost
