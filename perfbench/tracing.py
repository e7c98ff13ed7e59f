"""Span tracing from outside the program, and the per-layer metrics.

:class:`Tracer` wraps the public functions of each layer (listed in
:data:`PATCHES`) in timing shims.  Module functions are patched at the
binding the caller resolves (``repro.api.session.parse_relation``, not
only ``repro.core.relio.parse_relation``); methods are patched on their
class.  Each call records a span: name, start, end, parent span and the
operation it ran under.  Spans stay in memory until the run ends.

Per-node engine operations (``ite``, ``cofactor``) are deliberately not
wrapped -- they run hundreds of thousands of times per solve.  Their
counts come from what the program already reports (solver stats,
service and disk-cache stats, resynthesis reports), which
:func:`layer_metrics` folds in next to the span times.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> layer.  Layer names follow ``layers.json``.
SPAN_LAYER = {
    "relio.parse": "wire", "relio.write": "wire",
    "service.fingerprint": "wire",
    "session.solve": "session", "session.solve_many": "session",
    "service.solve": "session",
    "disk.get_report": "persistence", "disk.put_report": "persistence",
    "disk.merge_memo": "persistence", "disk.load_memo": "persistence",
    "brel.solve": "solver", "quick": "solver",
    "isf.signature": "subproblem", "route.minimize": "subproblem",
    "route.relation_to_table": "subproblem",
    "bdd.isop": "engine", "table.isop": "engine",
    "resynth.resynthesize": "resynth", "resynth.window": "resynth",
    "resynth.cutflex": "resynth", "resynth.verify": "resynth",
    "blif.write": "resynth",
}


def _text_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any],
                result: Any) -> Any:
    return len(args[0]) if args and isinstance(args[0], str) else 0


def _result_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any],
                  result: Any) -> Any:
    return len(result) if isinstance(result, str) else 0


def _solver_stats(args: Tuple[Any, ...], kwargs: Dict[str, Any],
                  result: Any) -> Any:
    return result.stats.as_dict()


#: (module, owner attribute or None, attribute, span name, detail).
#: ``owner`` names a class inside ``module`` whose method is wrapped;
#: ``None`` wraps the module-level binding itself.  ``detail`` extracts
#: a value from the call to keep on the span.
PATCHES: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.core.relio", None, "parse_relation", "relio.parse", _text_bytes),
    ("repro.api.session", None, "parse_relation", "relio.parse",
     _text_bytes),
    ("repro.resynth.pipeline", None, "parse_relation", "relio.parse",
     _text_bytes),
    ("repro.core.relio", None, "write_relation", "relio.write",
     _result_bytes),
    ("repro.api.session", None, "write_relation", "relio.write",
     _result_bytes),
    ("repro.api.report", None, "write_relation", "relio.write",
     _result_bytes),
    ("repro.resynth.pipeline", None, "write_relation", "relio.write",
     _result_bytes),
    ("repro.service.app", "SolveService", "request_fingerprint",
     "service.fingerprint", None),
    ("repro.service.app", "SolveService", "resynth_fingerprint",
     "service.fingerprint", None),
    ("repro.service.app", "SolveService", "solve", "service.solve", None),
    ("repro.api.session", "Session", "solve", "session.solve", None),
    ("repro.api.session", "Session", "solve_many", "session.solve_many",
     None),
    ("repro.service.diskcache", "DiskCache", "get_report",
     "disk.get_report", None),
    ("repro.service.diskcache", "DiskCache", "put_report",
     "disk.put_report", None),
    ("repro.service.diskcache", "DiskCache", "merge_memo_entries",
     "disk.merge_memo", None),
    ("repro.service.diskcache", "DiskCache", "load_memo_entries",
     "disk.load_memo", None),
    ("repro.core.brel", "BrelSolver", "solve", "brel.solve", _solver_stats),
    ("repro.core.brel", None, "quick_solve", "quick", None),
    ("repro.core.isf", "Isf", "signature", "isf.signature", None),
    ("repro.core.route", "SubproblemRouter", "minimize", "route.minimize",
     None),
    ("repro.core.route", None, "relation_to_table",
     "route.relation_to_table", None),
    ("repro.bdd.manager", "BddManager", "isop", "bdd.isop", None),
    ("repro.table.manager", "TableManager", "isop", "table.isop", None),
    ("repro.resynth", None, "resynthesize", "resynth.resynthesize", None),
    ("repro.resynth.pipeline", None, "resynthesize",
     "resynth.resynthesize", None),
    ("repro.resynth.pipeline", None, "extract_window", "resynth.window",
     None),
    ("repro.resynth.pipeline", None, "cut_flexibility_relation",
     "resynth.cutflex", None),
    ("repro.resynth.pipeline", None, "realize_functions", "resynth.cutflex",
     None),
    ("repro.resynth.pipeline", None, "exhaustive_signature",
     "resynth.verify", None),
    ("repro.resynth.pipeline", None, "combinational_signature",
     "resynth.verify", None),
    ("repro.resynth.pipeline", None, "write_blif", "blif.write", None),
]

# Span fields, stored as lists to keep recording cheap.
NAME, START, END, PARENT, OP, DETAIL = range(6)


class Tracer:
    """Records spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Operation id stamped on new spans (``None`` = set-up).
        self.op: Optional[int] = None

    def _wrap(self, name: str, func: Callable,
              detail: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, clock(), 0.0, stack[-1] if stack else None,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if detail is not None:
                span[DETAIL] = detail(args, kwargs, result)
            return result

        return traced

    def install(self) -> List[str]:
        """Wrap every binding of :data:`PATCHES`; returns those absent.

        A binding the program no longer has is skipped and reported, so
        the trace keeps working when a layer stops using a function.
        """
        missing = []
        for module_name, owner, attribute, name, detail in PATCHES:
            target = importlib.import_module(module_name)
            if owner is not None:
                target = getattr(target, owner)
            original = vars(target).get(attribute)
            if original is None:
                missing.append("%s.%s%s" % (module_name,
                                            owner + "." if owner else "",
                                            attribute))
                continue
            self._undo.append((target, attribute, original))
            setattr(target, attribute, self._wrap(name, original, detail))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            target, attribute, original = self._undo.pop()
            setattr(target, attribute, original)


def _has_ancestor(spans: List[list], span: list, name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def span_summary(spans: List[list]) -> Dict[str, Any]:
    """Calls, time, and self time by span name and by layer.

    A name's time counts only its outermost spans, so recursion (a
    sharded solve running block solves) is not counted twice.  Self
    time is a span's duration minus the time its direct children cover.
    """
    calls: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    layer_self: Dict[str, float] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        if not _has_ancestor(spans, span, name):
            seconds[name] = seconds.get(name, 0.0) + duration
        layer = SPAN_LAYER[name]
        layer_self[layer] = layer_self.get(layer, 0.0) \
            + duration - child_time[index]
    return {"calls": calls, "seconds": seconds, "layer_self": layer_self}


def root_coverage(spans: List[list], op_walls: Dict[int, float]
                  ) -> Tuple[float, float]:
    """(aggregate, worst) share of op wall time covered by root spans."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span[PARENT] is None and span[OP] is not None:
            covered[span[OP]] = covered.get(span[OP], 0.0) \
                + span[END] - span[START]
    total_wall = sum(op_walls.values())
    total = sum(covered.get(op, 0.0) for op in op_walls)
    worst = min(covered.get(op, 0.0) / wall
                for op, wall in op_walls.items())
    return total / total_wall, worst


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, Any]
                  ) -> Dict[str, float]:
    """Every per-layer metric of ``layers.json`` from one traced pass.

    ``counters`` carries what the program reported during the pass:
    ``session_cache_hits``, ``service_tiers``, ``disk`` (a
    ``DiskCache.stats()`` snapshot or ``None``) and ``resynth`` (a list
    of resynthesis report dicts).
    """
    spans = tracer.spans
    summary = span_summary(spans)
    calls, seconds = summary["calls"], summary["seconds"]

    stats: Dict[str, float] = {}
    bdd_nodes = 0
    parsed_bytes = written_bytes = 0
    boot_load = 0.0
    for span in spans:
        name = span[NAME]
        # A call that raised has no detail.
        if name == "brel.solve" and not _has_ancestor(spans, span, name):
            solve_stats = span[DETAIL] or {}
            for key, value in solve_stats.items():
                stats[key] = stats.get(key, 0) + value
            bdd_nodes = max(bdd_nodes, solve_stats.get("bdd_nodes", 0))
        elif name == "relio.parse":
            parsed_bytes += span[DETAIL] or 0
        elif name == "relio.write":
            written_bytes += span[DETAIL] or 0
        elif name == "disk.load_memo" and not _has_ancestor(
                spans, span, "disk.merge_memo"):
            boot_load += span[END] - span[START]

    tiers = counters.get("service_tiers") or {}
    served = sum(tiers.values())
    disk = counters.get("disk") or {}
    resynth = counters.get("resynth") or []
    rs_hits = sum(report["memo_hits"] for report in resynth)
    rs_misses = sum(report["memo_misses"] for report in resynth)

    def stat(key: str) -> float:
        return stats.get(key, 0)

    values = {
        "relio.parse_calls": calls.get("relio.parse", 0),
        "relio.parse_s": seconds.get("relio.parse", 0.0),
        "relio.write_calls": calls.get("relio.write", 0),
        "relio.write_s": seconds.get("relio.write", 0.0),
        "relio.pla_bytes": parsed_bytes + written_bytes,
        "service.fingerprint_s": seconds.get("service.fingerprint", 0.0),
        "session.solve_calls": calls.get("session.solve", 0),
        "session.solve_s": seconds.get("session.solve", 0.0),
        "session.solve_many_s": seconds.get("session.solve_many", 0.0),
        "session.cache_hits": counters.get("session_cache_hits", 0),
        "service.tier.ram": tiers.get("ram", 0),
        "service.tier.disk": tiers.get("disk", 0),
        "service.tier.engine": tiers.get("engine", 0),
        "service.ram_hit_ratio": _ratio(tiers.get("ram", 0), served),
        "disk.get_report_calls": calls.get("disk.get_report", 0),
        "disk.get_report_s": seconds.get("disk.get_report", 0.0),
        "disk.put_report_calls": calls.get("disk.put_report", 0),
        "disk.put_report_s": seconds.get("disk.put_report", 0.0),
        "disk.merge_memo_calls": calls.get("disk.merge_memo", 0),
        "disk.merge_memo_s": seconds.get("disk.merge_memo", 0.0),
        "disk.load_memo_s": boot_load,
        "disk.memo_entries": disk.get("memo_entries", 0),
        "disk.report_bytes": disk.get("report_bytes", 0),
        "brel.solve_calls": calls.get("brel.solve", 0),
        "brel.solve_s": seconds.get("brel.solve", 0.0),
        "brel.relations_explored": stat("relations_explored"),
        "brel.splits": stat("splits"),
        "brel.misf_minimizations": stat("misf_minimizations"),
        "brel.quick_solutions": stat("quick_solutions"),
        "brel.cost_prunes": stat("cost_prunes"),
        "quick.calls": calls.get("quick", 0),
        "quick.s": seconds.get("quick", 0.0),
        "isf.signature_calls": calls.get("isf.signature", 0),
        "isf.signature_s": seconds.get("isf.signature", 0.0),
        "memo.hits": stat("memo_hits"),
        "memo.misses": stat("memo_misses"),
        "memo.hit_ratio": _ratio(stat("memo_hits"),
                                 stat("memo_hits") + stat("memo_misses")),
        "route.subproblems_routed": stat("subproblems_routed"),
        "route.conversions": stat("route_conversions"),
        "route.hits": stat("route_hits"),
        "route.minimize_calls": calls.get("route.minimize", 0),
        "route.minimize_s": seconds.get("route.minimize", 0.0),
        "route.relation_to_table_s":
            seconds.get("route.relation_to_table", 0.0),
        "bdd.isop_calls": calls.get("bdd.isop", 0),
        "bdd.isop_s": seconds.get("bdd.isop", 0.0),
        "bdd.cache_hits": stat("bdd_cache_hits"),
        "bdd.cache_misses": stat("bdd_cache_misses"),
        "bdd.cache_hit_ratio": _ratio(
            stat("bdd_cache_hits"),
            stat("bdd_cache_hits") + stat("bdd_cache_misses")),
        "bdd.nodes": bdd_nodes,
        "table.isop_calls": calls.get("table.isop", 0),
        "table.isop_s": seconds.get("table.isop", 0.0),
        "resynth.relations_mined": sum(r["relations_mined"]
                                       for r in resynth),
        "resynth.relations_solved": sum(r["relations_solved"]
                                        for r in resynth),
        "resynth.rewrites_accepted": sum(r["rewrites_accepted"]
                                         for r in resynth),
        "resynth.memo_hit_rate": _ratio(rs_hits, rs_hits + rs_misses),
        "resynth.window_s": seconds.get("resynth.window", 0.0),
        "resynth.cutflex_s": seconds.get("resynth.cutflex", 0.0),
        "resynth.verify_s": seconds.get("resynth.verify", 0.0),
        "blif.write_s": seconds.get("blif.write", 0.0),
    }
    for layer in sorted(set(SPAN_LAYER.values())):
        values["self.%s_s" % layer] = summary["layer_self"].get(layer, 0.0)
    return values
