"""Tests for the command-line interface."""

import json
import warnings

import pytest

from repro.cli import main
from repro.core import BooleanRelation, save_relation


@pytest.fixture
def relation_file(tmp_path):
    relation = BooleanRelation.from_output_sets(
        [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
    path = tmp_path / "fig1.rel"
    save_relation(relation, str(path))
    return str(path)


@pytest.fixture
def block_relation_file(tmp_path):
    from repro.benchdata.brgen import block_structured_relation
    relation = block_structured_relation([(3, 2), (3, 2)], seed=5)
    path = tmp_path / "blocky.rel"
    save_relation(relation, str(path))
    return str(path)


@pytest.fixture
def blif_file(tmp_path):
    from repro.benchdata import S27_BLIF
    path = tmp_path / "s27.blif"
    path.write_text(S27_BLIF)
    return str(path)


class TestSolveCommand:
    def test_solve_default(self, relation_file, capsys):
        assert main(["solve", relation_file]) == 0
        out = capsys.readouterr().out
        assert "compatible=True" in out
        assert "cost=" in out

    def test_solve_costs(self, relation_file, capsys):
        for cost in ("size", "size2", "cubes", "literals"):
            assert main(["solve", relation_file, "--cost", cost]) == 0

    def test_solve_dfs_mode(self, relation_file, capsys):
        assert main(["solve", relation_file, "--strategy", "dfs",
                     "--max-explored", "100"]) == 0

    def test_solve_with_symmetries_and_limit(self, relation_file):
        assert main(["solve", relation_file, "--symmetries",
                     "--time-limit", "5"]) == 0

    def test_solve_json(self, relation_file, capsys):
        assert main(["solve", relation_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["compatible"] is True
        assert report["num_inputs"] == 2 and report["num_outputs"] == 2
        assert report["request"]["relation"]["kind"] == "file"

    def test_solve_minimizer_choice(self, relation_file):
        assert main(["solve", relation_file,
                     "--minimizer", "restrict"]) == 0

    def test_solve_every_strategy(self, relation_file):
        from repro.api import strategy_names
        for strategy in strategy_names():
            assert main(["solve", relation_file,
                         "--strategy", strategy]) == 0

    def test_solve_strategy_best_first_end_to_end(self, relation_file,
                                                  capsys):
        assert main(["solve", relation_file, "--strategy", "best-first",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["compatible"]
        assert report["request"]["strategy"] == "best-first"
        assert report["improvements"]
        assert report["stopped"] in ("exhausted", "budget")

    def test_solve_unknown_strategy_rejected(self, relation_file,
                                             capsys):
        with pytest.raises(SystemExit):
            main(["solve", relation_file, "--strategy", "dijkstra"])
        assert "--strategy" in capsys.readouterr().err

    def test_solve_portfolio_prints_the_race_table(self, relation_file,
                                                   capsys):
        assert main(["solve", relation_file, "--strategy", "portfolio",
                     "--racers", "bfs,dfs"]) == 0
        out = capsys.readouterr().out
        assert "# portfolio: won by" in out
        assert "*winner*" in out
        assert out.count("cost=") >= 2  # one row per racer

    def test_solve_portfolio_json_carries_the_summary(
            self, relation_file, capsys):
        assert main(["solve", relation_file, "--strategy", "portfolio",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["compatible"]
        names = [row["name"] for row in report["portfolio"]["racers"]]
        assert names == ["bfs", "dfs", "best-first", "beam"]
        assert report["portfolio"]["winner"] in names

    def test_solve_bad_racer_lineup_reported(self, relation_file,
                                             capsys):
        assert main(["solve", relation_file, "--strategy", "portfolio",
                     "--racers", "bfs,dijkstra"]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_solve_racers_imply_the_portfolio_strategy(
            self, relation_file, capsys):
        assert main(["solve", relation_file, "--racers", "bfs,dfs",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["request"]["strategy"] == "portfolio"
        assert report["portfolio"]["winner"] is not None

    def test_solve_explicit_strategy_still_conflicts_with_racers(
            self, relation_file, capsys):
        assert main(["solve", relation_file, "--strategy", "bfs",
                     "--racers", "bfs,dfs"]) == 2
        assert "strategy='portfolio'" in capsys.readouterr().err

    def test_solve_fifo_capacity_and_no_quick(self, relation_file,
                                              capsys):
        assert main(["solve", relation_file, "--fifo-capacity", "2",
                     "--no-quick", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["request"]["fifo_capacity"] == 2
        assert report["request"]["quick_on_subrelations"] is False

    def test_solve_progress_streams_events(self, relation_file, capsys):
        assert main(["solve", relation_file, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "quick-solution" in err
        assert "new-best" in err
        assert "done" in err

    def test_solve_trace_in_json_report(self, relation_file, capsys):
        assert main(["solve", relation_file, "--trace", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"] is not None
        assert report["trace"][0]["kind"] == "quick-solution"

    def test_solve_without_trace_has_no_trace(self, relation_file,
                                              capsys):
        assert main(["solve", relation_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"] is None

    def test_solve_default_flags_emit_no_deprecation_warning(
            self, relation_file, capsys):
        # A default invocation builds its request without touching any
        # deprecated path.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["solve", relation_file]) == 0
        report_out = capsys.readouterr().out
        assert "compatible=True" in report_out

    def test_solve_reports_partition_blocks(self, block_relation_file,
                                            capsys):
        assert main(["solve", block_relation_file]) == 0
        out = capsys.readouterr().out
        assert "partition: 2 independent blocks" in out
        assert "block [y0,y1]" in out and "block [y2,y3]" in out

    def test_solve_no_decompose_suppresses_partition(
            self, block_relation_file, capsys):
        assert main(["solve", block_relation_file,
                     "--no-decompose", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partition"] is None
        assert report["request"]["decompose"] is False

    def test_solve_decompose_json_breakdown(self, block_relation_file,
                                            capsys):
        assert main(["solve", block_relation_file, "--decompose",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partition"]["num_blocks"] == 2
        assert [block["outputs"]
                for block in report["partition"]["blocks"]] == \
            [[0, 1], [2, 3]]
        assert all(block["stopped"] == "exhausted"
                   for block in report["partition"]["blocks"])


class TestBatchCommand:
    def _write_manifest(self, tmp_path, relation_file, jobs=None):
        manifest = {
            "defaults": {"cost": "size", "max_explored": 10},
            "jobs": jobs if jobs is not None else [
                {"label": "rel-size",
                 "relation": {"kind": "file", "path": relation_file}},
                {"label": "rel-cubes", "cost": "cubes",
                 "relation": {"kind": "file", "path": relation_file}},
            ],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_batch_reports_per_job(self, relation_file, tmp_path, capsys):
        path = self._write_manifest(tmp_path, relation_file)
        assert main(["batch", path, "--workers", "2", "--quiet"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in reports] == ["rel-size", "rel-cubes"]
        assert all(r["ok"] and r["compatible"] for r in reports)

    def test_batch_manifest_strategy_field(self, relation_file, tmp_path,
                                           capsys):
        path = self._write_manifest(tmp_path, relation_file, jobs=[
            {"label": "job-%s" % strategy, "strategy": strategy,
             "relation": {"kind": "file", "path": relation_file}}
            for strategy in ("bfs", "dfs", "best-first", "beam")])
        assert main(["batch", path, "--executor", "serial",
                     "--quiet"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["ok"] and r["compatible"] for r in reports)
        assert [r["request"]["strategy"] for r in reports] == \
            ["bfs", "dfs", "best-first", "beam"]

    def test_batch_failure_sets_exit_code(self, relation_file, tmp_path,
                                          capsys):
        path = self._write_manifest(tmp_path, relation_file, jobs=[
            {"label": "ok",
             "relation": {"kind": "file", "path": relation_file}},
            {"label": "broken",
             "relation": {"kind": "file", "path": "does-not-exist.pla"}},
        ])
        assert main(["batch", path, "--executor", "serial",
                     "--quiet"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["ok"] for r in reports] == [True, False]
        assert reports[1]["error"]

    def test_batch_relative_paths_and_output_file(self, tmp_path, capsys):
        relation = BooleanRelation.from_output_sets(
            [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
        save_relation(relation, str(tmp_path / "fig1.rel"))
        manifest = [{"label": "rel",
                     "relation": {"kind": "file", "path": "fig1.rel"}}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "reports.json"
        assert main(["batch", str(path), "--executor", "serial",
                     "--quiet", "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert reports[0]["ok"]

    def test_batch_bad_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"no-jobs": []}))
        assert main(["batch", str(path)]) == 2

    def test_batch_non_mapping_relation_spec(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"label": "x", "relation": 42}]))
        assert main(["batch", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestVersionFlag:
    def test_version(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestNetworkCommands:
    def test_decompose(self, blif_file, capsys):
        assert main(["decompose", blif_file, "--objective", "delay",
                     "--max-explored", "10"]) == 0
        out = capsys.readouterr().out
        assert "baseline:" in out and "decomposed:" in out

    def test_map(self, blif_file, capsys):
        assert main(["map", blif_file]) == 0
        out = capsys.readouterr().out
        assert "area" in out and "delay" in out

    def test_map_with_script(self, blif_file, capsys):
        assert main(["map", blif_file, "--script",
                     "--objective", "delay"]) == 0


class TestInfoCommand:
    def test_bench_info(self, capsys):
        assert main(["bench-info"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "int1" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestPrewarmCommand:
    @pytest.fixture
    def corpus_file(self, tmp_path, relation_file):
        import os
        manifest = [{"label": "fig1",
                     "relation": {"kind": "file",
                                  "path": os.path.basename(relation_file)}},
                    {"label": "vtx",
                     "relation": {"kind": "bench", "name": "vtx"},
                     "max_explored": 40}]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_prewarm_fills_cache_dir(self, corpus_file, tmp_path,
                                     capsys):
        cache = str(tmp_path / "cache")
        assert main(["prewarm", corpus_file, cache]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] and summary["jobs"] == 2
        assert summary["tiers"] == {"engine": 2}
        # Idempotent: the rerun is pure cache hits.
        assert main(["prewarm", corpus_file, cache]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tiers"] == {"disk": 2}

    def test_prewarm_bad_workers(self, corpus_file, tmp_path, capsys):
        assert main(["prewarm", corpus_file, str(tmp_path / "cache"),
                     "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_prewarm_bad_corpus(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"no\": \"jobs\"}")
        assert main(["prewarm", str(bad),
                     str(tmp_path / "cache")]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_end_to_end(self, tmp_path, relation_file):
        """Boot the real server on a free port, solve twice over HTTP,
        assert the second answer is cache-served, then shut down."""
        import threading
        import urllib.request

        from repro.service import DiskCache, SolveService, create_server

        service = SolveService(disk=DiskCache(str(tmp_path / "cache")))
        server = create_server(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            body = json.dumps(
                {"relation": {"kind": "file",
                              "path": relation_file}}).encode()
            tiers = []
            for _ in range(2):
                request = urllib.request.Request(
                    "http://127.0.0.1:%d/solve" % port, data=body)
                with urllib.request.urlopen(request,
                                            timeout=30) as response:
                    tiers.append(response.headers["X-Cache-Tier"])
                    assert json.loads(response.read())["ok"]
            assert tiers == ["engine", "ram"]
        finally:
            server.shutdown()
            server.server_close()


class TestBackendFlags:
    @pytest.mark.parametrize("flags", [["--backend", "bdd"],
                                       ["--table-width", "8"],
                                       ["--table-kernel", "int"],
                                       ["--memo"], ["--no-memo"],
                                       ["--mode", "dfs"]])
    def test_routing_flags_rejected_by_parser(self, relation_file, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", relation_file] + flags)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [["--backend", "bdd"],
                                       ["--table-width", "8"],
                                       ["--memo"], ["--no-memo"]])
    def test_resynth_routing_flags_rejected_by_parser(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["resynth", "c17"] + flags)
        assert excinfo.value.code == 2

    def test_serve_flush_every_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--flush-every", "8"])
        assert excinfo.value.code == 2

    def test_serve_admission_flags_reach_the_service(self, tmp_path):
        from repro.cli import _service_from_args, build_parser
        args = build_parser().parse_args(
            ["serve", "--cache-dir", str(tmp_path / "c"),
             "--max-time-limit", "45", "--cache-max-bytes", "4096",
             "--cache-max-age", "600"])
        service = _service_from_args(args)
        assert service.max_time_limit == 45.0
        assert service.disk.max_report_bytes == 4096
        assert service.disk.max_report_age_seconds == 600.0


class TestResynthCommand:
    def test_bundled_circuit_by_name(self, capsys):
        assert main(["resynth", "s27", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "equivalent" in out

    def test_blif_file_input_and_output(self, blif_file, tmp_path,
                                        capsys):
        out_path = tmp_path / "rewritten.blif"
        assert main(["resynth", blif_file, "--quick",
                     "--output", str(out_path)]) == 0
        from repro.network.blif import parse_blif
        rewritten = parse_blif(out_path.read_text())
        assert rewritten.node_count() > 0

    def test_json_report(self, capsys):
        assert main(["resynth", "s27", "--quick", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["equivalent"] is True
        assert report["literal_savings"] >= 0
        assert report["request"]["passes"] == 1  # --quick clamps

    def test_unknown_circuit_fails_with_exit_one(self, capsys):
        assert main(["resynth", "no-such-circuit", "--quick"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_bad_option_is_a_usage_error(self, capsys):
        assert main(["resynth", "s27", "--passes", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_verify_vectors_bound_is_a_usage_error(self, capsys):
        assert main(["resynth", "s27", "--verify-vectors", "65537"]) == 2
        assert "verify_vectors" in capsys.readouterr().err

    def test_the_request_echo_is_serial(self, capsys):
        assert main(["resynth", "s27", "--quick", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["request"]["executor"] == "serial"
        assert "workers" not in report["request"]

    @pytest.mark.parametrize("argv", [["--executor", "serial"],
                                      ["--executor", "process"],
                                      ["--workers", "2"]],
                             ids=["executor-serial", "executor-process",
                                  "workers"])
    def test_pool_flags_are_gone(self, capsys, argv):
        # Resynthesis solves in this process: the flags exit 2.
        with pytest.raises(SystemExit) as info:
            main(["resynth", "s27", "--quick"] + argv)
        assert info.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestRequestFaultsExitTwo:
    """A request's fault exits 2 with one ``error:`` line on every verb;
    only the program's own faults keep a traceback."""

    @pytest.mark.parametrize("verb", ["map", "decompose", "solve",
                                      "batch"])
    def test_missing_file(self, tmp_path, capsys, verb):
        missing = str(tmp_path / "missing")
        assert main([verb, missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err

    @pytest.mark.parametrize("verb", ["map", "decompose"])
    def test_malformed_blif(self, tmp_path, capsys, verb):
        path = tmp_path / "bad.blif"
        path.write_text(".model m\n.names a\n1 1 1\n.end\n")
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: malformed .names row")

    @pytest.mark.parametrize("argv", [["batch"],
                                      ["prewarm", "cache-dir"]])
    def test_deeply_nested_manifest(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        # Deeper than the JSON decoder recurses on any supported Python.
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = [argv[0], str(path)] + [str(tmp_path / arg)
                                       for arg in argv[1:]]
        assert main(argv) == 2
        assert capsys.readouterr().err \
            == "error: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize("manifest,field", [
        ({"defaults": 5, "jobs": [{}]}, "defaults"),
        ({"jobs": 5}, "jobs")])
    def test_manifest_shape_names_its_field(self, tmp_path, capsys,
                                            manifest, field):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["batch", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: manifest %r must" % field)

    def test_non_str_file_path_is_a_request_fault(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"relation": {"kind": "file",
                                                  "path": 5}}]))
        assert main(["batch", str(path)]) == 2
        assert "path must be a str" in capsys.readouterr().err

    def test_unknown_bench_name_reads_unescaped(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"relation": {"kind": "bench",
                                                  "name": "nope"}}]))
        assert main(["batch", str(path), "--executor", "serial",
                     "--quiet"]) == 1
        report, = json.loads(capsys.readouterr().out)
        assert report["error"].startswith(
            "UnknownNameError: unknown BR benchmark 'nope'")

    def test_an_engine_fault_keeps_its_traceback(self, relation_file,
                                                 monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("planted")

        monkeypatch.setattr("repro.core.brel.quick_solve", broken)
        with pytest.raises(TypeError, match="planted"):
            main(["solve", relation_file])
