"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``solve``      solve a Boolean-relation file (PLA dialect, see
               :mod:`repro.core.relio`) and print the solution; with
               ``--json`` emit the structured :class:`SolveReport`.
``batch``      run a JSON manifest of solve jobs through
               :meth:`Session.solve_many` (process-parallel) and emit
               machine-readable per-job reports.
``decompose``  run the mux-latch decomposition flow on a BLIF netlist and
               report baseline-vs-decomposed area/delay.
``map``        technology-map a BLIF netlist and print the gate report.
``resynth``    run don't-care resynthesis on a BLIF netlist (or bundled
               circuit): mine windowed flexibility relations, solve
               them in this process, keep the strictly-improving
               rewrites.
``bench-info`` list the bundled benchmark instances.
``serve``      run the solve service (HTTP + SSE, tiered cache) from
               :mod:`repro.service`.
``prewarm``    replay a request corpus into a service cache directory
               so cold workers boot warm.

Batch manifests are either a JSON list of :class:`SolveRequest` dicts or
an object ``{"defaults": {...}, "jobs": [{...}, ...]}`` where each job is
merged over the defaults.  Relation ``file`` paths are resolved relative
to the manifest's directory::

    {"defaults": {"cost": "size", "max_explored": 20},
     "jobs": [
       {"label": "a", "relation": {"kind": "file", "path": "a.pla"}},
       {"label": "b", "relation": {"kind": "bench", "name": "int1"},
        "cost": "cubes"}]}
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .api.events import format_event
from .api.registry import (COSTS, cost_names, minimizer_names,
                           strategy_names)
from .api.request import REQUEST_ERRORS, SolveRequest, load_manifest
from .api.session import Session
from .core.explore import EXECUTORS

__all__ = ["COSTS", "build_parser", "main"]


def _request_from_args(args: argparse.Namespace,
                       relation_spec: Dict[str, Any]) -> SolveRequest:
    # Typing a racer line-up IS asking for a race: imply the
    # meta-strategy rather than demanding --strategy portfolio be
    # spelled out too.  An explicitly typed conflicting strategy still
    # fails eager validation.
    strategy = args.strategy
    if strategy is None and getattr(args, "racers", None) is not None:
        strategy = "portfolio"
    return SolveRequest(
        relation=relation_spec,
        cost=args.cost,
        minimizer=args.minimizer,
        strategy=strategy,
        max_explored=args.max_explored,
        fifo_capacity=args.fifo_capacity,
        quick_on_subrelations=False if args.no_quick else None,
        symmetry_pruning=args.symmetries,
        time_limit_seconds=args.time_limit,
        record_trace=args.trace,
        decompose=args.decompose,
        # The racer line-up exists only on the solve verb; getattr
        # keeps the shared builder usable from parsers without it.
        portfolio_racers=getattr(args, "racers", None))


def _progress_printer(stream):
    """An event observer that renders the solve stream one line each.

    Rendering goes through :func:`repro.api.format_event`, the same
    serializer the service's SSE transport uses, so the CLI stream and
    the wire stream can never drift apart.
    """
    def observer(event):
        print(format_event(event), file=stream)
    return observer


def _cmd_solve(args: argparse.Namespace) -> int:
    observer = _progress_printer(sys.stderr) if args.progress else None
    request = _request_from_args(args,
                                 {"kind": "file", "path": args.relation})
    report = Session().solve(request, observer=observer)
    if args.json:
        print(report.to_json(indent=2))
        return 0 if report.compatible else 1
    print("# inputs=%d outputs=%d pairs=%d"
          % (report.num_inputs, report.num_outputs, report.pairs))
    print("# strategy=%s cost=%.0f explored=%d splits=%d runtime=%.3fs"
          % (request.exploration_strategy(), report.cost,
             report.stats["relations_explored"],
             report.stats["splits"], report.stats["runtime_seconds"]))
    if report.partition:
        print("# partition: %d independent blocks" %
              report.partition["num_blocks"])
        for block in report.partition["blocks"]:
            print("#   block [%s]: %d inputs, cost=%.0f, "
                  "explored=%d (%s)"
                  % (",".join("y%d" % p for p in block["outputs"]),
                     block["num_inputs"], block["cost"],
                     int((block["stats"] or {}).get(
                         "relations_explored", 0)),
                     block["stopped"]))
    if report.portfolio:
        print("# portfolio: won by %s" % report.portfolio["winner"])
        for racer in report.portfolio["racers"]:
            print("#   %-12s cost=%s explored=%d contributed=%d "
                  "%.3fs (%s)%s"
                  % (racer["name"],
                     "%.0f" % racer["cost"]
                     if racer["cost"] is not None else "-",
                     racer["explored"],
                     racer["improvements_contributed"],
                     racer["runtime_seconds"],
                     racer["error"] or racer["stopped"],
                     " *winner*" if racer["winner"] else ""))
    if len(report.improvements) > 1:
        print("# improvements: %s" % " -> ".join(
            "%.0f" % imp["cost"] for imp in report.improvements))
    print(report.sop)
    print("# compatible=%s" % report.compatible)
    return 0 if report.compatible else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    reports = Session().solve_many(load_manifest(args.manifest),
                                   max_workers=args.workers,
                                   executor=args.executor)
    payload = [report.to_dict() for report in reports]
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            # Don't lose a finished batch to a bad path: report the
            # write failure but still emit the results on stdout.
            print("error: %s" % exc, file=sys.stderr)
            print(text)
            return 2
    else:
        print(text)
    if not args.quiet:
        for report in reports:
            print(report.summary(), file=sys.stderr)
    return 0 if all(report.ok for report in reports) else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decompose.flow import run_baseline, run_decomposed
    from .network.blif import parse_blif

    with open(args.blif, "r", encoding="ascii") as handle:
        network = parse_blif(handle.read())
    baseline = run_baseline(network, args.objective)
    decomposed, stats = run_decomposed(
        network, args.objective, max_explored=args.max_explored)
    print("circuit %s: %d PI, %d PO, %d FF"
          % (network.name, len(network.inputs), len(network.outputs),
             len(network.latches)))
    print("baseline:   area %8.1f  delay %6.2f  (%.2fs)"
          % (baseline.area, baseline.delay, baseline.cpu_seconds))
    print("decomposed: area %8.1f  delay %6.2f  (%.2fs, %d/%d latches)"
          % (decomposed.area, decomposed.delay, decomposed.cpu_seconds,
             stats.latches_decomposed, stats.latches_total))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .network.algebraic import algebraic_script
    from .network.blif import parse_blif
    from .network.delay import gate_report
    from .network.mapping import map_network

    with open(args.blif, "r", encoding="ascii") as handle:
        network = parse_blif(handle.read())
    if args.script:
        network = algebraic_script(network)
    result = map_network(network, mode=args.objective)
    print(gate_report(result))
    return 0


def _service_from_args(args: argparse.Namespace):
    from .service import DiskCache, SolveService

    disk = None
    if args.cache_dir:
        disk = DiskCache(
            args.cache_dir,
            max_report_bytes=getattr(args, "cache_max_bytes", None),
            max_report_age_seconds=getattr(args, "cache_max_age", None))
    return SolveService(
        disk=disk, max_time_limit=getattr(args, "max_time_limit", None))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import create_server

    service = _service_from_args(args)
    server = create_server(service, args.host, args.port,
                           quiet=args.quiet)
    host, port = server.server_address[:2]
    print("repro service on http://%s:%d (cache: %s)"
          % (host, port, args.cache_dir or "RAM only"), file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def _cmd_prewarm(args: argparse.Namespace) -> int:
    from .service import prewarm

    summary = prewarm(args.corpus, args.cache_dir,
                      executor=args.executor, workers=args.workers)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["ok"] else 1


def _cmd_resynth(args: argparse.Namespace) -> int:
    import os

    from .resynth import ResynthRequest, resynthesize

    if os.path.exists(args.circuit):
        circuit: Any = {"kind": "file", "path": args.circuit}
    else:
        circuit = {"kind": "bench", "name": args.circuit}
    passes = args.passes
    max_nodes = args.max_nodes
    window = args.window
    if args.quick:
        passes = min(passes, 1)
        window = min(window, 6)
        if max_nodes is None:
            max_nodes = 64
    request = ResynthRequest(
        circuit=circuit,
        passes=passes,
        window=window,
        tfo_depth=args.tfo_depth,
        cut_policy=args.cut_policy,
        max_nodes=max_nodes,
        cost=args.cost,
        minimizer=args.minimizer,
        strategy=args.strategy,
        max_explored=args.max_explored,
        decompose=args.decompose,
        verify=args.verify,
        verify_vectors=args.verify_vectors,
        seed=args.seed,
        label=args.circuit)
    report = resynthesize(request)
    if args.output and report.ok and report.blif is not None:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(report.blif)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.summary())
        for record in report.passes:
            print("  pass %d: %d candidates, %d relations "
                  "(%d unique), %d accepted, %d cost-rejected, "
                  "%d literals, %.3fs"
                  % (record["pass"], record["candidates"],
                     record["relations_mined"],
                     record["unique_relations"], record["accepted"],
                     record["rejected_cost"], record["literals_end"],
                     record["runtime_seconds"]))
    if not report.ok:
        return 1
    if report.equivalent is False:
        print("error: rewritten network is NOT equivalent",
              file=sys.stderr)
        return 1
    if (report.literal_savings or 0) < 0:
        print("error: negative literal savings", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_info(args: argparse.Namespace) -> int:
    from .benchdata.brsuite import SUITE
    from .benchdata.circuits import CIRCUITS

    print("Boolean-relation suite (Table 2 scale):")
    for instance in SUITE:
        print("  %-6s %d inputs, %d outputs" % (
            instance.name, instance.num_inputs, instance.num_outputs))
    print("Circuit suite (Table 3 scale):")
    for spec in CIRCUITS:
        print("  %-6s %2d PI, %2d PO, %2d FF" % (
            spec.name, spec.num_inputs, spec.num_outputs,
            spec.num_latches))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BREL: a recursive Boolean-relation solver "
                    "(DAC'04 / IEEE TC'09 reproduction)")
    parser.add_argument("--version", action="version",
                        version="repro %s" % __version__)
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a relation file")
    solve.add_argument("relation", help="PLA-dialect relation file")
    solve.add_argument("--cost", choices=cost_names(), default="size")
    solve.add_argument("--minimizer", choices=minimizer_names(),
                       default="isop")
    solve.add_argument("--strategy", choices=strategy_names(),
                       default=None,
                       help="exploration strategy (default: bfs)")
    solve.add_argument("--max-explored", type=int, default=10)
    solve.add_argument("--fifo-capacity", type=int, default=64,
                       help="frontier bound for bfs (FIFO) and beam "
                            "(width) strategies")
    solve.add_argument("--racers", default=None,
                       metavar="NAME[,NAME...]",
                       help="racer line-up (implies --strategy "
                            "portfolio; default line-up: "
                            "bfs,dfs,best-first,beam); each name is an "
                            "exploration strategy")
    solve.add_argument("--no-quick", action="store_true",
                       help="skip QuickSolver on explored subrelations "
                            "(quick_on_subrelations=False)")
    solve.add_argument("--symmetries", action="store_true")
    solve.add_argument("--time-limit", type=float, default=None)
    solve.add_argument("--progress", action="store_true",
                       help="stream solve events to stderr as they "
                            "happen")
    solve.add_argument("--trace", action="store_true",
                       help="record the full event trace in the report "
                            "(visible with --json)")
    solve.add_argument("--decompose", dest="decompose",
                       action="store_true", default=None,
                       help="shard the relation into independent "
                            "output blocks when possible (the "
                            "default; per-block breakdown appears in "
                            "the report)")
    solve.add_argument("--no-decompose", dest="decompose",
                       action="store_false",
                       help="always solve the monolithic relation")
    solve.add_argument("--json", action="store_true",
                       help="emit the structured SolveReport as JSON")
    solve.set_defaults(func=_cmd_solve)

    batch = commands.add_parser(
        "batch", help="run a JSON manifest of solve jobs")
    batch.add_argument("manifest", help="JSON manifest file (see module "
                                        "docstring for the format)")
    batch.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: one per job; "
                            "never more than the CPU count)")
    batch.add_argument("--executor", choices=EXECUTORS,
                       default="process")
    batch.add_argument("--output", default=None,
                       help="write the JSON report array here instead "
                            "of stdout")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress the per-job summary on stderr")
    batch.set_defaults(func=_cmd_batch)

    decompose = commands.add_parser(
        "decompose", help="mux-latch decomposition flow on a BLIF netlist")
    decompose.add_argument("blif")
    decompose.add_argument("--objective", choices=["area", "delay"],
                           default="delay")
    decompose.add_argument("--max-explored", type=int, default=50)
    decompose.set_defaults(func=_cmd_decompose)

    map_cmd = commands.add_parser("map", help="technology-map a netlist")
    map_cmd.add_argument("blif")
    map_cmd.add_argument("--objective", choices=["area", "delay"],
                         default="area")
    map_cmd.add_argument("--script", action="store_true",
                         help="run the algebraic script first")
    map_cmd.set_defaults(func=_cmd_map)

    resynth = commands.add_parser(
        "resynth", help="don't-care resynthesis of a netlist through "
                        "the solver pipeline")
    resynth.add_argument("circuit",
                         help="BLIF file path, or the name of a bundled "
                              "benchdata circuit (see bench-info)")
    resynth.add_argument("--passes", type=int, default=2,
                         help="optimisation passes (stops early when a "
                              "pass accepts nothing; default 2)")
    resynth.add_argument("--window", type=int, default=8,
                         help="max window boundary inputs per cut "
                              "(default 8, cap 16)")
    resynth.add_argument("--tfo-depth", type=int, default=1,
                         help="transitive-fanout depth per window "
                              "(default 1)")
    resynth.add_argument("--cut-policy",
                         choices=["nodes", "reconvergent"],
                         default="nodes")
    resynth.add_argument("--max-nodes", type=int, default=None,
                         help="cap candidate cuts per pass")
    resynth.add_argument("--cost", choices=cost_names(),
                         default="literals")
    resynth.add_argument("--minimizer", choices=minimizer_names(),
                         default="isop")
    resynth.add_argument("--strategy", choices=strategy_names(),
                         default=None)
    resynth.add_argument("--max-explored", type=int, default=10)
    resynth.add_argument("--decompose", dest="decompose",
                         action="store_true", default=None)
    resynth.add_argument("--no-decompose", dest="decompose",
                         action="store_false")
    resynth.add_argument("--verify",
                         choices=["auto", "exhaustive", "signature",
                                  "none"],
                         default="auto",
                         help="final whole-network equivalence check "
                              "(per-rewrite window checks always run)")
    resynth.add_argument("--verify-vectors", type=int, default=256)
    resynth.add_argument("--seed", type=int, default=0)
    resynth.add_argument("--quick", action="store_true",
                         help="CI smoke preset: 1 pass, window <= 6, "
                              "at most 64 cuts")
    resynth.add_argument("--output", default=None,
                         help="write the rewritten BLIF here")
    resynth.add_argument("--json", action="store_true",
                         help="emit the structured ResynthReport as "
                              "JSON")
    resynth.set_defaults(func=_cmd_resynth)

    info = commands.add_parser("bench-info",
                               help="list bundled benchmark instances")
    info.set_defaults(func=_cmd_bench_info)

    serve_cmd = commands.add_parser(
        "serve", help="run the HTTP/SSE solve service")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="TCP port (0 picks a free one)")
    serve_cmd.add_argument("--cache-dir", default=None,
                           help="disk-tier directory shared across "
                                "workers and restarts (default: RAM "
                                "cache only)")
    serve_cmd.add_argument("--max-time-limit", type=float, default=None,
                           help="server-side cap on per-request "
                                "time_limit_seconds; requests asking "
                                "for more (or for no limit) are "
                                "clamped to this budget")
    serve_cmd.add_argument("--cache-max-bytes", type=int, default=None,
                           help="bound the disk-tier reports "
                                "directory to this many bytes "
                                "(least-recently-used reports are "
                                "evicted on write)")
    serve_cmd.add_argument("--cache-max-age", type=float, default=None,
                           help="evict disk-tier reports older than "
                                "this many seconds on write")
    serve_cmd.add_argument("--verbose", dest="quiet",
                           action="store_false", default=True,
                           help="log each request to stderr")
    serve_cmd.set_defaults(func=_cmd_serve)

    prewarm_cmd = commands.add_parser(
        "prewarm", help="replay a request corpus into a cache dir")
    prewarm_cmd.add_argument("corpus",
                             help="JSON manifest of requests (same "
                                  "format as 'batch')")
    prewarm_cmd.add_argument("cache_dir",
                             help="disk-tier directory to fill")
    prewarm_cmd.add_argument("--executor", choices=EXECUTORS,
                             default="serial")
    prewarm_cmd.add_argument("--workers", type=int, default=None)
    prewarm_cmd.set_defaults(func=_cmd_prewarm)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one verb.  A request's fault (a bad value, an unreadable or
    malformed file, an unknown name: :data:`REQUEST_ERRORS`) prints
    ``error: ...`` and exits 2; the program's keep their traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except REQUEST_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
