"""Routing knobs through the service layer: the table-kernel knob of
whole-relation routing rides the wire."""

from repro.service import SolveService


class TestRoutingStats:
    def test_table_kernel_knob_accepted_on_the_wire(self, fig1_request):
        service = SolveService()
        report, _ = service.solve(dict(fig1_request, table_kernel="int"))
        assert report["ok"]
        assert report["request"]["table_kernel"] == "int"
