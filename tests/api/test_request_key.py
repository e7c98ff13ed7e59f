"""A request is normalised once, when it is built.

``SolveRequest`` normalises its relation spec on construction, and every
path that keys the request afterwards (the session's RAM cache, the
service's disk fingerprint, the engine build) uses that spec as it
stands.  Only an explicit ``relation=`` spec is normalised by the
session, and a malformed one is still rejected there.
"""

import os

import pytest

from repro.api import Session, SolveRequest
from repro.api import request as request_module
from repro.api import session as session_module
from repro.benchdata import instance_by_name
from repro.core.relio import relation_to_nodes
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


PLA = ".i 2\n.o 2\n.type fr\n00 01\n01 01\n10 00\n10 11\n11 10\n11 11\n.e\n"
#: Another relation of the same shape, for editing a file spec's file.
EDITED = ".i 2\n.o 2\n.type fr\n00 10\n01 01\n10 00\n10 11\n11 10\n11 11\n.e\n"


def nodes_of_int1():
    relation = instance_by_name("int1").build()
    return relation_to_nodes(relation).spec()


#: Digests that ``SolveService.request_fingerprint`` gave for these
#: requests before the fingerprint moved onto the request: disk files
#: written then are still found.
PINNED = [
    ({"relation": OUTPUT_SETS},
     "86d53e1662868dd1368d622df2aab1a8073c410261a7edc6a1be1410321f12a3"),
    ({"relation": {"kind": "pla", "text": PLA}, "max_explored": 25},
     "62af2c1b02c9603a1cb2caca82bc23f411766c31be1c28c72a10b125b5071fe9"),
    ({"relation": {"kind": "file", "path": None}},
     "400576bd6db6fd715606dbb4a09f1c31881d87c97a269e7ceb57f55d1af29c85"),
    ({"relation": {"kind": "bench", "name": "int1"}, "max_explored": 25},
     "af4fa2ad66fc91fee8d7574a73c005521fe6761895bc99b9d2e7e2ed2f149142"),
    ({"relation": None},
     "1b68a1f2bdb0655da12e17bc05ea1b7833e28633e8b821df73ca50d9d7aa8118"),
    ({"relation": {"kind": "equations", "equations": ["y = a & b | c"],
                   "independents": ["a", "b", "c"], "dependents": ["y"]}},
     "556e98b094415119eebb2c50c634e312a8d6790ef77e73c290735e6779f1c03b"),
    ({"relation": "fig1", "cost": "cubes"},
     "745f41d67349e932d0b4a6921cd1d476da77f34d899a65aa68ac52351453dcfd"),
    ({"relation": {"kind": "bench", "name": "int2"}, "max_explored": 30,
      "strategy": "portfolio", "portfolio_racers": "bfs,dfs"},
     "bbc1c4894f5ee2158b527b98cdd7c5c4120ac654b090d1fae4c4d55fccc144f7"),
    ({"relation": {"kind": "bench", "name": "int1"},
      "time_limit_seconds": 3.0},
     "e84cd83f8c17de008ad15acc20a87b73ba4021810e272cbf5955cc19c417436e"),
]


@pytest.fixture
def payloads(monkeypatch):
    """Every fingerprint the request module hashes."""
    calls = []
    payload = request_module.fingerprint_payload

    def counting(data):
        calls.append(data)
        return payload(data)

    monkeypatch.setattr(request_module, "fingerprint_payload", counting)
    return calls


class TestOneIdentity:
    """``SolveRequest.fingerprint()`` is the request's one identity: it
    keys the RAM tier, names the disk file and dedups ``/batch``."""

    @pytest.mark.parametrize("data,digest", PINNED)
    def test_digests_are_unchanged(self, data, digest, tmp_path):
        data = dict(data)
        if data["relation"] is None:
            data["relation"] = nodes_of_int1()
        elif data["relation"] == {"kind": "file", "path": None}:
            path = tmp_path / "r.pla"
            path.write_text(PLA)
            data["relation"] = {"kind": "file", "path": str(path)}
        request = SolveRequest.from_dict(data)
        assert request.fingerprint() == digest
        assert SolveService().request_fingerprint(request) == digest

    def test_ram_key_disk_name_and_batch_dedup(self, tmp_path,
                                               monkeypatch):
        path = tmp_path / "r.pla"
        path.write_text(PLA)
        cache_dir = str(tmp_path / "cache")
        data = {"relation": {"kind": "pla", "text": PLA},
                "time_limit_seconds": 30}
        key = SolveRequest.from_dict(data).fingerprint()
        service = SolveService(disk=DiskCache(cache_dir))
        reads = []
        get_report = DiskCache.get_report

        def counting_get(self, name):
            reads.append(name)
            return get_report(self, name)

        monkeypatch.setattr(DiskCache, "get_report", counting_get)
        # The file spec and the 30.0 limit key as the first job does,
        # so the three jobs walk the tiers once.
        result = service.batch({"jobs": [
            data,
            {"relation": {"kind": "file", "path": str(path)},
             "time_limit_seconds": 30.0},
            dict(data, label="again")]})
        assert result["ok"] and result["tiers"] == ["engine", "ram", "ram"]
        assert reads == [key]
        assert list(service.session._cache) == [key]
        assert os.listdir(os.path.join(cache_dir, "reports")) \
            == [key + ".json"]
        assert service.solve(dict(data))[1] == "ram"

    def test_computed_once_per_request_object(self, payloads, tmp_path):
        cache_dir = str(tmp_path / "cache")
        service = SolveService(disk=DiskCache(cache_dir))
        # RAM miss, disk miss, the engine's key and the write-back.
        assert service.solve({"relation": OUTPUT_SETS})[1] == "engine"
        assert len(payloads) == 1
        cold = SolveService(disk=DiskCache(cache_dir))
        del payloads[:]
        # RAM miss, disk hit, the promotion into RAM.
        assert cold.solve({"relation": OUTPUT_SETS})[1] == "disk"
        assert len(payloads) == 1

    def test_a_file_spec_is_read_on_every_use(self, payloads, tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(PLA)
        request = SolveRequest(relation={"kind": "file", "path": str(path)})
        before = request.fingerprint()
        path.write_text(EDITED)
        assert request.fingerprint() != before
        assert len(payloads) == 2

    def test_an_edited_file_misses_on_both_tiers(self, tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(PLA)
        cache_dir = str(tmp_path / "cache")
        data = {"relation": {"kind": "file", "path": str(path)}}
        service = SolveService(disk=DiskCache(cache_dir))
        first, tier = service.solve(dict(data))
        assert tier == "engine"
        assert service.solve(dict(data))[1] == "ram"
        path.write_text(EDITED)
        edited, tier = service.solve(dict(data))
        assert tier == "engine" and edited["sop"] != first["sop"]
        cold = SolveService(disk=DiskCache(cache_dir))
        assert cold.solve(dict(data))[0]["sop"] == edited["sop"]
        path.write_text(PLA)
        report, tier = cold.solve(dict(data))
        assert (tier, report["sop"]) == ("disk", first["sop"])

    def test_the_clamp_has_a_fingerprint_of_its_own(self):
        request = SolveRequest(relation=OUTPUT_SETS)
        unclamped = request.fingerprint()
        clamped = SolveService(max_time_limit=5)._admit(request)
        assert clamped.time_limit_seconds == 5
        assert clamped.fingerprint() != unclamped
        assert clamped.fingerprint() == SolveRequest(
            relation=OUTPUT_SETS, time_limit_seconds=5.0).fingerprint()
        assert request.fingerprint() == unclamped

    def test_int_and_float_time_limits_share_a_slot(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        data = {"relation": OUTPUT_SETS}
        service = SolveService(disk=DiskCache(cache_dir))
        assert service.solve(dict(data, time_limit_seconds=3))[1] \
            == "engine"
        assert service.solve(dict(data, time_limit_seconds=3.0))[1] \
            == "ram"
        cold = SolveService(disk=DiskCache(cache_dir))
        assert cold.solve(dict(data, time_limit_seconds=3.0))[1] == "disk"
        assert cold.solve(dict(data, time_limit_seconds=3))[1] == "ram"

    def test_no_relation_has_no_fingerprint(self):
        with pytest.raises(ValueError, match="no relation source"):
            SolveRequest().fingerprint()
