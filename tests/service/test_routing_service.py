"""The retired routing knobs on the wire: ``table_width`` and
``table_kernel`` are unknown fields, so a request carrying them is a
client error."""

import pytest

from repro.service import ServiceError, SolveService


class TestRetiredRoutingFields:
    @pytest.mark.parametrize("field,value", [("table_kernel", "int"),
                                             ("table_width", 8)])
    def test_table_knobs_are_unknown_fields(self, fig1_request, field,
                                            value):
        service = SolveService()
        with pytest.raises(ServiceError) as info:
            service.solve(dict(fig1_request, **{field: value}))
        assert info.value.status == 400
        assert "unknown SolveRequest fields: %s" % field \
            in str(info.value)
