"""A request is normalised once, when it is built.

``SolveRequest`` normalises its relation spec on construction, and every
path that keys the request afterwards (the session's RAM cache, the
service's disk fingerprint, the engine build) uses that spec as it
stands.  Only an explicit ``relation=`` spec is normalised by the
session, and a malformed one is still rejected there.
"""

import pytest

from repro.api import Session, SolveRequest
from repro.api import request as request_module
from repro.api import session as session_module
from repro.service import DiskCache, SolveService

OUTPUT_SETS = {"kind": "output_sets", "rows": [[1], [1], [0, 3], [2, 3]],
               "num_inputs": 2, "num_outputs": 2}


@pytest.fixture
def normalised(monkeypatch):
    """Every ``normalize_relation_spec`` call, wherever it is bound."""
    calls = []
    normalize = request_module.normalize_relation_spec

    def counting(spec):
        calls.append(spec)
        return normalize(spec)

    monkeypatch.setattr(request_module, "normalize_relation_spec", counting)
    monkeypatch.setattr(session_module, "normalize_relation_spec", counting)
    return calls


class TestKeyedAsBuilt:
    def test_session_paths_do_not_normalise_again(self, normalised):
        request = SolveRequest(relation=OUTPUT_SETS)
        assert len(normalised) == 1
        session = Session()
        assert session.peek_cached(request) is None
        assert not session.solve(request).cached
        assert session.solve(request).cached
        assert session.peek_cached(request).cached
        assert len(normalised) == 1

    def test_service_normalises_only_to_build_the_request(self, normalised,
                                                          tmp_path):
        data = {"relation": OUTPUT_SETS, "label": "x"}
        cache_dir = str(tmp_path / "cache")
        first = SolveService(disk=DiskCache(cache_dir))
        cold = SolveService(disk=DiskCache(cache_dir))
        for service, expected in ((first, "engine"), (first, "ram"),
                                  (cold, "disk"), (cold, "ram")):
            del normalised[:]
            report, tier = service.solve(dict(data))
            assert (tier, report["ok"]) == (expected, True)
            # The one call builds the request from the wire dict.
            assert len(normalised) == 1, expected

    def test_explicit_relation_spec_is_normalised(self, normalised):
        session = Session()
        report = session.solve(SolveRequest(), relation=OUTPUT_SETS)
        assert report.ok and len(normalised) == 1
        assert session.peek_cached(SolveRequest(), relation=OUTPUT_SETS)
        assert len(normalised) == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "output_sets", "rows": [[1]]},
        dict(OUTPUT_SETS, rows=[[9], [1], [0], [0]]),
        {"kind": "nowhere"},
    ])
    def test_malformed_explicit_spec_raises(self, spec):
        session = Session()
        with pytest.raises(ValueError):
            session.solve(SolveRequest(), relation=spec)
        with pytest.raises(ValueError):
            session.peek_cached(SolveRequest(), relation=spec)
