"""Retired knobs on the wire: ``table_width``, ``table_kernel``,
``memo`` and ``mode`` are unknown fields, so a request carrying them is
a client error on every route that takes one."""

import pytest

from repro.service import ServiceError, SolveService

RETIRED_SOLVE_FIELDS = [("table_kernel", "int"), ("table_width", 8),
                        ("memo", False), ("mode", "dfs")]


class TestRetiredRoutingFields:
    @pytest.mark.parametrize("field,value", RETIRED_SOLVE_FIELDS)
    def test_table_knobs_are_unknown_fields(self, fig1_request, field,
                                            value):
        service = SolveService()
        with pytest.raises(ServiceError) as info:
            service.solve(dict(fig1_request, **{field: value}))
        assert info.value.status == 400
        assert "unknown SolveRequest fields: %s" % field \
            in str(info.value)

    @pytest.mark.parametrize("field,value", RETIRED_SOLVE_FIELDS)
    def test_batch_jobs_carrying_them_are_rejected(self, fig1_request,
                                                   field, value):
        service = SolveService()
        with pytest.raises(ServiceError) as info:
            service.batch({"jobs": [dict(fig1_request,
                                         **{field: value})]})
        assert info.value.status == 400
        assert "unknown SolveRequest fields: %s" % field \
            in str(info.value)

    def test_resynth_memo_is_an_unknown_field(self):
        service = SolveService()
        with pytest.raises(ServiceError) as info:
            service.resynth({"circuit": "s27", "memo": True})
        assert info.value.status == 400
        assert "unknown ResynthRequest fields: memo" in str(info.value)
