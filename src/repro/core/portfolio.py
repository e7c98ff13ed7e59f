"""Portfolio racing: competing strategies with shared incumbent bounds.

Which exploration order wins the paper's branch-and-bound (bfs vs dfs
vs best-first vs beam) varies wildly per relation.  Instead of guessing,
``strategy="portfolio"`` races N configured *racers* — each a full
strategy loop with its own :class:`~repro.core.BrelOptions` deltas — on
the same relation and keeps whichever finishes best:

* every racer prunes against the **shared incumbent**: a
  :class:`BoundChannel` carries strictly-improving costs across racers,
  so the moment any racer improves, every other racer's bound tightens
  (frontier nodes whose bound cannot beat the shared incumbent are
  dropped with a ``shared-bound`` prune);
* the instant one racer *proves optimality* — it exhausted its frontier
  without ever truncating it — all losers are cancelled through their
  :class:`~repro.core.explore.CancelToken`;
* the merged event stream stays anytime: one opening ``portfolio``
  event, the root quick solution, a ``new-best`` for every *globally*
  improving incumbent (re-stamped with the cumulative explored count
  across racers), one ``racer-done`` per racer, and a closing ``done``
  — so ``iter_solve`` and SSE streaming work unchanged.

Executors (``portfolio_executor``):

``"serial"``
    round-robin interleave of the racer generators on the caller's
    thread and manager — deterministic, and nothing is copied;
``"thread"`` (default)
    one thread per racer.  ``BddManager`` is not thread-safe, so each
    racer rebuilds the relation's node list
    (:func:`~repro.core.relio.relation_to_nodes`) in a private manager
    — the same ordered BDD, at any input width — and improvements
    travel back as memo templates, re-instantiated in the caller's
    manager;
``"process"``
    one OS process per racer; the bound channel is a shared-memory
    value and results come back over a queue.  Requires the cost
    function and minimiser to be registered by name.  A racer process
    that dies surfaces as a failed-racer note on the portfolio summary,
    never as an escaping pool error.

The racer failure contract is uniform: a racer that errors (or whose
process dies) is recorded on the summary and the race continues with
the rest; only a race with *no* surviving racer raises.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Mapping,
                    Optional, Sequence, Tuple)

from .explore import CancelToken, Improvement, SolveEvent, \
    get_strategy_factory
from .memo import MemoStore, instantiate_solution, solution_template
from .partition import merge_block_stats
from .quick import quick_solve
from .relation import BooleanRelation
from .relio import RelationNodes, relation_from_nodes, relation_to_nodes
from .solution import Solution, SolverStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .brel import BrelOptions, BrelResult, BrelSolver

#: The default racer line-up: one of each shipped frontier discipline.
DEFAULT_RACERS: Tuple[str, ...] = ("bfs", "dfs", "best-first", "beam")

#: Valid ``portfolio_executor`` values (``None`` means the default).
RACE_EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process")

#: Executor used when ``portfolio_executor`` is ``None``.
DEFAULT_RACE_EXECUTOR = "thread"

#: Most-recent memo entries shipped to each thread/process racer's
#: private store (mirrors the session batch export bound).
MEMO_EXPORT_LIMIT = 2048

#: Option fields a racer spec may override relative to the base options.
RACER_DELTA_FIELDS: Tuple[str, ...] = (
    "max_explored", "fifo_capacity", "quick_on_subrelations",
    "symmetry_pruning", "symmetry_max_depth")


# ----------------------------------------------------------------------
# The cross-racer bound channel
# ----------------------------------------------------------------------
class BoundChannel:
    """Strictly-improving incumbent costs shared across racers.

    Racers (or the driver on their behalf) :meth:`publish` every local
    improvement; only strictly better costs are accepted.  The solver
    loop reads :attr:`cost` once per dequeued subrelation and prunes
    candidates and frontier nodes that cannot beat it — the cross-racer
    twin of the Fig. 6 line-6 bound.  Thread-safe; reads are lock-free
    (a float attribute swap is atomic under the GIL).
    """

    __slots__ = ("_lock", "_cost")

    def __init__(self, cost: float = float("inf")) -> None:
        self._lock = threading.Lock()
        self._cost = cost

    @property
    def cost(self) -> float:
        """The best cost any racer has published so far."""
        return self._cost

    def publish(self, cost: float) -> bool:
        """Offer an incumbent cost; ``True`` if it strictly improved."""
        with self._lock:
            if cost < self._cost:
                self._cost = cost
                return True
            return False

    def __repr__(self) -> str:
        return "BoundChannel(cost=%r)" % self._cost


class _SharedValueBound:
    """Process-side :class:`BoundChannel` adapter over an mp ``Value``."""

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    @property
    def cost(self) -> float:
        return self._value.value

    def publish(self, cost: float) -> bool:
        with self._value.get_lock():
            if cost < self._value.value:
                self._value.value = cost
                return True
            return False


class _SharedValueCancel:
    """Duck-typed :class:`CancelToken` over a shared mp flag ``Value``."""

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    def cancel(self) -> None:
        self._value.value = 1

    @property
    def cancelled(self) -> bool:
        return self._value.value != 0

    def __bool__(self) -> bool:
        return self.cancelled


# ----------------------------------------------------------------------
# Racer specs and option plumbing
# ----------------------------------------------------------------------
def normalize_racers(racers: Any) -> Tuple[Dict[str, Any], ...]:
    """Canonicalise a ``portfolio_racers`` value into racer spec dicts.

    Accepts ``None`` (the default line-up of :data:`DEFAULT_RACERS`), a
    comma-separated string (the CLI form), or a sequence whose entries
    are strategy names or mappings ``{"strategy": ..., "name": ...,
    <option deltas>}`` with deltas drawn from
    :data:`RACER_DELTA_FIELDS`.  Names default to the strategy and are
    deduplicated with ``#2``-style suffixes, so two racers may share a
    strategy with different knobs.  Raises ``ValueError`` on unknown
    strategies, nested portfolios, or unknown delta fields.
    """
    if racers is None:
        entries: List[Any] = list(DEFAULT_RACERS)
    elif isinstance(racers, str):
        entries = [part.strip() for part in racers.split(",")
                   if part.strip()]
    elif isinstance(racers, Mapping):
        raise ValueError("portfolio_racers must be a list of racer "
                         "specs (or a comma-separated string), not a "
                         "single mapping — wrap it in a list")
    else:
        entries = list(racers)
    if not entries:
        raise ValueError("a portfolio needs at least one racer "
                         "(portfolio_racers=None races the default "
                         "line-up: %s)" % ", ".join(DEFAULT_RACERS))
    specs: List[Dict[str, Any]] = []
    names: set = set()
    for entry in entries:
        if isinstance(entry, str):
            raw: Dict[str, Any] = {"strategy": entry.strip()}
        elif isinstance(entry, Mapping):
            raw = dict(entry)
        else:
            raise ValueError(
                "racer spec must be a strategy name or a mapping, "
                "got %r" % type(entry).__name__)
        strategy = raw.pop("strategy", None)
        if not strategy:
            raise ValueError("racer spec %r has no 'strategy'" % (entry,))
        if strategy == "portfolio":
            raise ValueError("a portfolio cannot race itself: racer "
                             "strategies must name a concrete frontier "
                             "(bfs, dfs, best-first, beam, ...)")
        try:
            get_strategy_factory(strategy)
        except KeyError as exc:
            raise ValueError(str(exc).strip('"')) from None
        name = raw.pop("name", None) or strategy
        unknown = set(raw) - set(RACER_DELTA_FIELDS)
        if unknown:
            raise ValueError(
                "unknown racer option(s) %s for racer %r (a racer "
                "spec may override: %s)"
                % (", ".join(sorted(map(repr, unknown))), name,
                   ", ".join(RACER_DELTA_FIELDS)))
        base_name, suffix = name, 2
        while name in names:
            name = "%s#%d" % (base_name, suffix)
            suffix += 1
        names.add(name)
        spec: Dict[str, Any] = {"name": name, "strategy": strategy}
        for field in RACER_DELTA_FIELDS:
            if field in raw:
                spec[field] = raw[field]
        specs.append(spec)
    return tuple(specs)


def build_racer_options(base: "BrelOptions", spec: Mapping[str, Any]
                        ) -> "BrelOptions":
    """One racer's :class:`BrelOptions`: the base knobs plus its deltas.

    Racers never re-decompose (the portfolio already runs below the
    sharding layer), never record their own trace (the driver's merged
    trace is the record), and leave the memo tri-state at ``None`` —
    the driver wires each racer's store explicitly.
    """
    from .brel import BrelOptions
    return BrelOptions(
        cost_function=base.cost_function,
        minimizer=base.minimizer,
        strategy=spec["strategy"],
        max_explored=spec.get("max_explored", base.max_explored),
        fifo_capacity=spec.get("fifo_capacity", base.fifo_capacity),
        quick_on_subrelations=spec.get("quick_on_subrelations",
                                       base.quick_on_subrelations),
        symmetry_pruning=spec.get("symmetry_pruning",
                                  base.symmetry_pruning),
        symmetry_max_depth=spec.get("symmetry_max_depth",
                                    base.symmetry_max_depth),
        time_limit_seconds=base.time_limit_seconds,
        record_trace=False,
        memo=None,
        decompose=False)


def validate_portfolio_options(options: "BrelOptions"
                               ) -> Tuple[Dict[str, Any], ...]:
    """Eager construction-time validation of the portfolio knobs.

    Called from ``BrelOptions.__post_init__`` so a bad racer line-up
    (unknown strategy, ``beam`` with ``fifo_capacity=0``, a nested
    portfolio, a bogus executor) fails where batch manifests are
    loaded, not mid-race.  Returns the normalised racer specs.
    """
    specs = normalize_racers(options.portfolio_racers)
    executor = options.portfolio_executor
    if executor is not None and executor not in RACE_EXECUTORS:
        raise ValueError(
            "portfolio_executor must be one of %r or None (None = %r)"
            % (RACE_EXECUTORS, DEFAULT_RACE_EXECUTOR))
    for spec in specs:
        # Construct each racer's options so every strategy-specific
        # combination check runs now (e.g. the beam width rule).
        build_racer_options(options, spec)
    return specs


def racers_cache_key(racers: Any) -> str:
    """Canonical JSON of the *effective* racer line-up, for cache keys.

    ``None`` and an explicitly spelled-out default line-up normalise to
    the same string, so they share a cache slot (the same tri-state
    resolution discipline the session applies to ``memo``/``decompose``).
    """
    import json
    return json.dumps(normalize_racers(racers), sort_keys=True)


# ----------------------------------------------------------------------
# Racer bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _RacerOutcome:
    """Driver-side record of one racer's leg of the race."""

    name: str
    strategy: str
    cost: Optional[float] = None
    explored: int = 0
    contributed: int = 0
    runtime_seconds: float = 0.0
    stopped: Optional[str] = None
    stats: Optional[SolverStats] = None
    frontier_overflow: int = 0
    error: Optional[str] = None
    winner: bool = False

    @property
    def proved_optimal(self) -> bool:
        """Exhausted without ever truncating the frontier: a sound
        branch-and-bound completion, so nothing can beat the shared
        incumbent — cancelling the other racers loses no solutions."""
        return (self.error is None and self.stopped == "exhausted"
                and self.frontier_overflow == 0)

    def summary_row(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "strategy": self.strategy,
            "cost": self.cost,
            "explored": self.explored,
            "improvements_contributed": self.contributed,
            "runtime_seconds": self.runtime_seconds,
            "stopped": self.stopped,
            "proved_optimal": self.proved_optimal,
            "error": self.error,
            "winner": self.winner,
        }


# ----------------------------------------------------------------------
# The race driver
# ----------------------------------------------------------------------
def race_portfolio(solver: "BrelSolver", relation: BooleanRelation,
                   cancel: Optional[CancelToken]
                   ) -> Generator[SolveEvent, None, "BrelResult"]:
    """Race the configured racers on ``relation``; the merged stream.

    The generator behind ``strategy="portfolio"`` solves (see module
    docstring for the stream shape).  The returned
    :class:`~repro.core.BrelResult` carries the per-racer attribution
    on ``result.portfolio``.
    """
    from .brel import BrelResult
    options = solver.options
    specs = list(normalize_racers(options.portfolio_racers))
    requested = options.portfolio_executor or DEFAULT_RACE_EXECUTOR
    executor = requested
    note: Optional[str] = None
    cost_name = minimizer_name = None
    if executor == "process":
        try:
            import multiprocessing
            daemonic = multiprocessing.current_process().daemon
        except ImportError:  # pragma: no cover - stdlib always has it
            daemonic = True
        if daemonic:
            note = ("thread fallback: daemonic processes cannot "
                    "spawn racer processes")
            executor = "thread"
        else:
            from ..api.registry import cost_registry, minimizer_registry
            cost_name = cost_registry.name_of(options.cost_function)
            minimizer_name = minimizer_registry.name_of(options.minimizer)
            if cost_name is None or minimizer_name is None:
                note = ("thread fallback: process racers need the cost "
                        "function and minimizer registered by name")
                executor = "thread"

    start = time.perf_counter()
    deadline = (start + options.time_limit_seconds
                if options.time_limit_seconds is not None else None)
    memo = solver.memo
    memo_before = memo.counters() if memo is not None else None
    engine_before = relation.mgr.stats()
    trace: Optional[List[SolveEvent]] = \
        [] if options.record_trace else None
    improvements: List[Improvement] = []
    outcomes = [_RacerOutcome(spec["name"], spec["strategy"])
                for spec in specs]

    # Root incumbent before any racer starts: guarantees a compatible
    # solution exists however early the race is cancelled, and seeds
    # the bound channel so every racer prunes from the first dequeue.
    best = quick_solve(relation, options.minimizer,
                       options.cost_function, memo=memo)
    best_racer: Optional[int] = None
    channel = BoundChannel(best.cost)

    def event(kind: str, **kw: object) -> SolveEvent:
        ev = SolveEvent(kind,
                        explored=sum(o.explored for o in outcomes),
                        best_cost=best.cost,
                        elapsed_seconds=time.perf_counter() - start,
                        **kw)  # type: ignore[arg-type]
        if trace is not None:
            trace.append(ev)
        return ev

    yield event("portfolio", detail="%d racers: %s; executor=%s%s" % (
        len(specs), " | ".join(o.name for o in outcomes), executor,
        " (%s)" % note if note else ""))
    yield event("quick-solution", cost=best.cost, depth=0)
    improvements.append(Improvement(best, best.cost,
                                    time.perf_counter() - start, 0))
    yield event("new-best", cost=best.cost, solution=best, depth=0)

    stop_reason: List[Optional[str]] = [None]

    if executor == "serial":
        driver = _drive_serial(solver, relation, specs, outcomes,
                               channel, cancel, deadline, stop_reason)
    elif executor == "thread":
        driver = _drive_threads(solver, relation, specs, outcomes,
                                channel, cancel, deadline, stop_reason)
    else:
        driver = _drive_processes(solver, relation, specs, outcomes,
                                  channel, cancel, deadline, stop_reason,
                                  cost_name, minimizer_name)

    # The driver sub-generators yield ("event-kind", payload) tuples;
    # globally improving incumbents arrive as live parent-manager
    # solutions and are re-stamped here with the cumulative counters.
    while True:
        try:
            kind, payload = next(driver)
        except StopIteration:
            break
        if kind == "new-best":
            solution, racer_index, depth = payload
            if solution.cost < best.cost:
                best = solution
                best_racer = racer_index
                improvements.append(Improvement(
                    best, best.cost, time.perf_counter() - start,
                    sum(o.explored for o in outcomes)))
                yield event("new-best", cost=best.cost, solution=best,
                            depth=depth,
                            detail=outcomes[racer_index].name)
        elif kind == "racer-done":
            outcome = payload
            yield event("racer-done", cost=outcome.cost,
                        detail="%s: %s%s" % (
                            outcome.name,
                            outcome.stopped if outcome.error is None
                            else "error (%s)" % outcome.error,
                            " (proved optimal)"
                            if outcome.proved_optimal else ""))
        elif kind == "stopped":
            yield event(payload)

    failures = [o for o in outcomes if o.error is not None]
    if len(failures) == len(outcomes):
        raise RuntimeError(
            "every portfolio racer failed: %s"
            % "; ".join("%s: %s" % (o.name, o.error) for o in failures))

    # Winner attribution: the racer whose published improvement stands
    # as the final incumbent; when no racer beat the root quick
    # solution, the first racer that proved optimality (it certified
    # the incumbent), else the best-cost finisher.
    winner = best_racer
    if winner is None:
        winner = next((i for i, o in enumerate(outcomes)
                       if o.proved_optimal), None)
    if winner is None:
        finishers = [(o.cost, i) for i, o in enumerate(outcomes)
                     if o.cost is not None]
        winner = min(finishers)[1] if finishers else None
    if winner is not None:
        outcomes[winner].winner = True

    stopped = stop_reason[0]
    if stopped is None:
        stopped = (outcomes[winner].stopped or "exhausted"
                   if winner is not None else "exhausted")

    stats = merge_block_stats([o.stats for o in outcomes
                               if o.stats is not None])
    stats.quick_solutions += 1  # the root incumbent above
    stats.runtime_seconds = time.perf_counter() - start
    engine_after = relation.mgr.stats()
    stats.bdd_nodes = engine_after["nodes"]
    stats.bdd_cache_hits = (engine_after["cache_hits"]
                            - engine_before["cache_hits"])
    stats.bdd_cache_misses = (engine_after["cache_misses"]
                              - engine_before["cache_misses"])
    if memo_before is not None:
        hits, misses, stores = memo.counters()
        stats.memo_hits = hits - memo_before[0]
        stats.memo_misses = misses - memo_before[1]
        stats.memo_stores = stores - memo_before[2]

    summary = {
        "executor": executor,
        "requested_executor": requested,
        "note": note,
        "winner": outcomes[winner].name if winner is not None else None,
        "racers": [o.summary_row() for o in outcomes],
    }
    yield event("done", cost=best.cost)
    return BrelResult(best, stats, improvements=improvements,
                      events=trace, stopped=stopped,
                      portfolio=summary)


# ----------------------------------------------------------------------
# Serial executor: deterministic round-robin interleave
# ----------------------------------------------------------------------
def _drive_serial(solver: "BrelSolver", relation: BooleanRelation,
                  specs: List[Dict[str, Any]],
                  outcomes: List[_RacerOutcome],
                  channel: BoundChannel,
                  cancel: Optional[CancelToken],
                  deadline: Optional[float],
                  stop_reason: List[Optional[str]]):
    """Pump the racer generators one event at a time, round-robin.

    Racers share the caller's manager and the solver's memo store
    (single-threaded, so no isolation is needed), which makes this the
    deterministic reference executor.
    """
    from .brel import BrelSolver
    options = solver.options
    tokens = [CancelToken() for _ in specs]
    racers = []
    for spec, token in zip(specs, tokens):
        sub = BrelSolver(build_racer_options(options, spec),
                         memo=solver.memo, bound=channel)
        racers.append(sub.iter_events(relation, cancel=token))
    active = list(range(len(specs)))
    racer_start = time.perf_counter()

    def stop_all(reason: str) -> None:
        if stop_reason[0] is None:
            stop_reason[0] = reason
            for token in tokens:
                token.cancel()

    while active:
        if cancel is not None and cancel.cancelled:
            stop_all("cancelled")
            yield ("stopped", "cancelled")
            cancel = None  # emit the stop event once
        if deadline is not None and time.perf_counter() > deadline:
            stop_all("timeout")
            yield ("stopped", "timeout")
            deadline = None
        for index in list(active):
            try:
                ev = next(racers[index])
            except StopIteration as stop:
                result = stop.value
                outcome = outcomes[index]
                outcome.cost = result.solution.cost
                outcome.explored = result.stats.relations_explored
                outcome.runtime_seconds = \
                    time.perf_counter() - racer_start
                outcome.stopped = result.stopped
                outcome.stats = result.stats
                outcome.frontier_overflow = \
                    result.stats.frontier_overflow
                active.remove(index)
                yield ("racer-done", outcome)
                if stop_reason[0] is None and outcome.proved_optimal:
                    for other in active:
                        tokens[other].cancel()
                continue
            except Exception as exc:  # noqa: BLE001 — racer isolation
                outcome = outcomes[index]
                outcome.error = "%s: %s" % (type(exc).__name__, exc)
                outcome.runtime_seconds = \
                    time.perf_counter() - racer_start
                active.remove(index)
                yield ("racer-done", outcome)
                continue
            outcomes[index].explored = ev.explored
            if ev.kind == "new-best" and ev.solution is not None:
                if channel.publish(ev.solution.cost):
                    outcomes[index].contributed += 1
                    yield ("new-best", (ev.solution, index, ev.depth))


# ----------------------------------------------------------------------
# Thread executor: one racer per thread, private managers
# ----------------------------------------------------------------------
def _improvement(relation: BooleanRelation, solution: Solution
                 ) -> Tuple[Any, float]:
    """A racer's improvement as data: its template and its cost."""
    return (solution_template(solution.mgr, solution.functions,
                              relation.inputs), solution.cost)


def _adopt(relation: BooleanRelation, improvement: Tuple[Any, float]
           ) -> Solution:
    """Re-instantiate a racer's improvement in the caller's manager.

    The racer solved the same ordered BDD, so the cost it measured
    carries over unchanged.
    """
    template, cost = improvement
    return Solution(relation.mgr,
                    instantiate_solution(relation.mgr, template,
                                         relation.inputs), cost)


def _thread_racer(index: int, spec: Dict[str, Any],
                  base_options: "BrelOptions", nodes: RelationNodes,
                  memo_entries: Optional[List[Tuple[Any, Any]]],
                  memo_capacity: Optional[int],
                  channel: BoundChannel, token: CancelToken,
                  msgq: "queue_mod.SimpleQueue") -> None:
    """One racer's thread body: private manager, shared bound channel.

    Improvements that win the publish race are rendered to memo
    templates *in this thread's manager* and shipped to the driver,
    which re-instantiates them in the caller's manager.
    """
    from .brel import BrelSolver
    try:
        racer_relation = relation_from_nodes(nodes)
        store = (MemoStore(capacity=memo_capacity, entries=memo_entries)
                 if memo_entries is not None else None)
        sub = BrelSolver(build_racer_options(base_options, spec),
                         memo=store, bound=channel)

        def observe(ev: SolveEvent) -> None:
            if ev.kind == "new-best" and ev.solution is not None:
                if channel.publish(ev.solution.cost):
                    msgq.put(("improve", index,
                              _improvement(racer_relation, ev.solution),
                              ev.depth))

        result = sub.solve(racer_relation, cancel=token,
                           observer=observe)
        msgq.put(("done", index, {
            "cost": result.solution.cost,
            "stopped": result.stopped,
            "stats": result.stats,
            "memo_counters": (store.counters()
                              if store is not None else None),
        }))
    except Exception as exc:  # noqa: BLE001 — racer isolation
        msgq.put(("error", index, "%s: %s" % (type(exc).__name__, exc)))


def _drive_threads(solver: "BrelSolver", relation: BooleanRelation,
                   specs: List[Dict[str, Any]],
                   outcomes: List[_RacerOutcome],
                   channel: BoundChannel,
                   cancel: Optional[CancelToken],
                   deadline: Optional[float],
                   stop_reason: List[Optional[str]]):
    """Drive one thread per racer; merge their message stream."""
    nodes = relation_to_nodes(relation)
    memo = solver.memo
    memo_entries = (memo.export_entries(limit=MEMO_EXPORT_LIMIT)
                    if memo is not None else None)
    memo_capacity = memo.capacity if memo is not None else None
    tokens = [CancelToken() for _ in specs]
    msgq: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()
    threads = []
    racer_start = time.perf_counter()
    for index, spec in enumerate(specs):
        thread = threading.Thread(
            target=_thread_racer,
            args=(index, spec, solver.options, nodes, memo_entries,
                  memo_capacity, channel, tokens[index], msgq),
            name="portfolio-racer-%s" % spec["name"], daemon=True)
        threads.append(thread)

    def stop_all(reason: str) -> None:
        if stop_reason[0] is None:
            stop_reason[0] = reason
        for token in tokens:
            token.cancel()

    try:
        for thread in threads:
            thread.start()
        pending = set(range(len(specs)))
        while pending:
            if cancel is not None and cancel.cancelled:
                stop_all("cancelled")
                yield ("stopped", "cancelled")
                cancel = None
            if deadline is not None \
                    and time.perf_counter() > deadline:
                stop_all("timeout")
                yield ("stopped", "timeout")
                deadline = None
            try:
                message = msgq.get(timeout=0.05)
            except queue_mod.Empty:
                continue
            kind = message[0]
            index = message[1]
            outcome = outcomes[index]
            if kind == "improve":
                _, _, improvement, depth = message
                outcome.contributed += 1
                yield ("new-best", (_adopt(relation, improvement), index,
                                    depth))
            elif kind == "done":
                data = message[2]
                stats: SolverStats = data["stats"]
                outcome.cost = data["cost"]
                outcome.explored = stats.relations_explored
                outcome.runtime_seconds = \
                    time.perf_counter() - racer_start
                outcome.stopped = data["stopped"]
                outcome.stats = stats
                outcome.frontier_overflow = stats.frontier_overflow
                if memo is not None \
                        and data["memo_counters"] is not None:
                    hits, misses, stores = data["memo_counters"]
                    memo.absorb_counters(hits=hits, misses=misses,
                                         stores=stores)
                pending.discard(index)
                yield ("racer-done", outcome)
                if stop_reason[0] is None and outcome.proved_optimal:
                    for other in pending:
                        tokens[other].cancel()
            else:  # error
                outcome.error = message[2]
                outcome.runtime_seconds = \
                    time.perf_counter() - racer_start
                pending.discard(index)
                yield ("racer-done", outcome)
    finally:
        # Abandoned mid-race (consumer closed the stream, or an
        # unexpected driver error): stop every racer thread before
        # unwinding so none keeps burning CPU on a dead race.
        for token in tokens:
            token.cancel()
        for thread in threads:
            if thread.is_alive():
                thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Process executor: one racer per OS process
# ----------------------------------------------------------------------
def _process_racer_main(index: int, payload: Dict[str, Any],
                        bound_value: Any, cancel_value: Any,
                        msgq: Any) -> None:
    """Racer process entry point (must be importable, hence top-level).

    Rebuilds the racer options from registry names, solves against the
    shared-memory bound, and ships improvements/results back over the
    queue as data (templates + stat dicts) — BDD handles never cross
    the process boundary.
    """
    try:
        from .brel import BrelOptions, BrelSolver
        from ..api.registry import cost_registry, minimizer_registry
        racer_relation = relation_from_nodes(payload["nodes"])
        options = BrelOptions(
            cost_function=cost_registry.get(payload["cost"]),
            minimizer=minimizer_registry.get(payload["minimizer"]),
            strategy=payload["strategy"],
            max_explored=payload["max_explored"],
            fifo_capacity=payload["fifo_capacity"],
            quick_on_subrelations=payload["quick_on_subrelations"],
            symmetry_pruning=payload["symmetry_pruning"],
            symmetry_max_depth=payload["symmetry_max_depth"],
            time_limit_seconds=payload["time_limit_seconds"],
            record_trace=False, memo=None, decompose=False)
        memo_entries = payload.get("memo")
        store = (MemoStore(capacity=payload.get("memo_capacity"),
                           entries=memo_entries)
                 if memo_entries is not None else None)
        channel = _SharedValueBound(bound_value)
        token = _SharedValueCancel(cancel_value)
        contributed = [0]
        sub = BrelSolver(options, memo=store, bound=channel)

        def observe(ev: SolveEvent) -> None:
            if ev.kind == "new-best" and ev.solution is not None:
                if channel.publish(ev.solution.cost):
                    contributed[0] += 1
                    msgq.put(("improve", index,
                              _improvement(racer_relation, ev.solution),
                              ev.depth))

        result = sub.solve(racer_relation, cancel=token,
                           observer=observe)
        msgq.put(("done", index, {
            "cost": result.solution.cost,
            "stopped": result.stopped,
            "stats": result.stats.as_dict(),
            "contributed": contributed[0],
            "memo_counters": (store.counters()
                              if store is not None else None),
        }))
    except Exception as exc:  # noqa: BLE001 — racer isolation
        try:
            msgq.put(("error", index,
                      "%s: %s" % (type(exc).__name__, exc)))
        except Exception:  # pragma: no cover - queue already broken
            pass


def _drive_processes(solver: "BrelSolver", relation: BooleanRelation,
                     specs: List[Dict[str, Any]],
                     outcomes: List[_RacerOutcome],
                     channel: BoundChannel,
                     cancel: Optional[CancelToken],
                     deadline: Optional[float],
                     stop_reason: List[Optional[str]],
                     cost_name: str, minimizer_name: str):
    """Drive one OS process per racer over a shared-memory bound.

    A racer process that dies without reporting (killed, segfaulted,
    ``os._exit``) is recorded as a failed racer after a short grace
    period, never raised.  When the process layer itself is unavailable
    (restricted sandboxes without semaphores) the whole race falls back
    to the thread executor.
    """
    import multiprocessing
    options = solver.options
    try:
        ctx = multiprocessing.get_context()
        bound_value = ctx.Value("d", channel.cost)
        cancel_value = ctx.Value("i", 0)
        msgq = ctx.Queue()
    except OSError:
        # No working semaphore layer: race on threads instead.
        yield from _drive_threads(solver, relation, specs, outcomes,
                                  channel, cancel, deadline, stop_reason)
        return
    memo = solver.memo
    memo_entries = (memo.export_entries(limit=MEMO_EXPORT_LIMIT)
                    if memo is not None else None)
    base_payload = {
        "nodes": relation_to_nodes(relation),
        "cost": cost_name,
        "minimizer": minimizer_name,
        "quick_on_subrelations": options.quick_on_subrelations,
        "time_limit_seconds": options.time_limit_seconds,
        "memo": memo_entries,
        "memo_capacity": memo.capacity if memo is not None else None,
    }
    processes: List[Any] = []
    racer_start = time.perf_counter()
    try:
        for index, spec in enumerate(specs):
            racer_options = build_racer_options(options, spec)
            payload = dict(base_payload)
            payload.update({
                "strategy": racer_options.exploration_strategy(),
                "max_explored": racer_options.max_explored,
                "fifo_capacity": racer_options.fifo_capacity,
                "quick_on_subrelations":
                    racer_options.quick_on_subrelations,
                "symmetry_pruning": racer_options.symmetry_pruning,
                "symmetry_max_depth": racer_options.symmetry_max_depth,
            })
            process = ctx.Process(
                target=_process_racer_main,
                args=(index, payload, bound_value, cancel_value, msgq),
                name="portfolio-racer-%s" % spec["name"], daemon=True)
            processes.append(process)
        for process in processes:
            process.start()
    except OSError:
        for process in processes:
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        yield from _drive_threads(solver, relation, specs, outcomes,
                                  channel, cancel, deadline, stop_reason)
        return

    def stop_all(reason: Optional[str]) -> None:
        if reason is not None and stop_reason[0] is None:
            stop_reason[0] = reason
        cancel_value.value = 1

    try:
        pending = set(range(len(specs)))
        dead_strikes = [0] * len(specs)
        while pending:
            if cancel is not None and cancel.cancelled:
                stop_all("cancelled")
                yield ("stopped", "cancelled")
                cancel = None
            if deadline is not None \
                    and time.perf_counter() > deadline:
                stop_all("timeout")
                yield ("stopped", "timeout")
                deadline = None
            try:
                message = msgq.get(timeout=0.05)
            except queue_mod.Empty:
                # A dead process that never reported gets a few grace
                # polls (its queue feeder may still be flushing), then
                # surfaces as a failed racer.
                for index in list(pending):
                    process = processes[index]
                    if process.is_alive():
                        dead_strikes[index] = 0
                        continue
                    dead_strikes[index] += 1
                    if dead_strikes[index] >= 4:
                        outcome = outcomes[index]
                        outcome.error = (
                            "racer process died without reporting "
                            "(exitcode %s)" % process.exitcode)
                        outcome.runtime_seconds = \
                            time.perf_counter() - racer_start
                        pending.discard(index)
                        yield ("racer-done", outcome)
                continue
            kind = message[0]
            index = message[1]
            if index not in pending and kind != "improve":
                continue  # late message from a racer already written off
            outcome = outcomes[index]
            if kind == "improve":
                _, _, improvement, depth = message
                outcome.contributed += 1
                # Mirror the shared value into the in-process channel
                # so the summary and any serial co-racers stay in sync.
                solution = _adopt(relation, improvement)
                channel.publish(solution.cost)
                yield ("new-best", (solution, index, depth))
            elif kind == "done":
                data = message[2]
                stats = SolverStats(**data["stats"])
                outcome.cost = data["cost"]
                outcome.explored = stats.relations_explored
                outcome.contributed = data["contributed"]
                outcome.runtime_seconds = \
                    time.perf_counter() - racer_start
                outcome.stopped = data["stopped"]
                outcome.stats = stats
                outcome.frontier_overflow = stats.frontier_overflow
                if memo is not None \
                        and data["memo_counters"] is not None:
                    hits, misses, stores = data["memo_counters"]
                    memo.absorb_counters(hits=hits, misses=misses,
                                         stores=stores)
                pending.discard(index)
                yield ("racer-done", outcome)
                if stop_reason[0] is None and outcome.proved_optimal:
                    stop_all(None)
            else:  # error
                outcome.error = message[2]
                outcome.runtime_seconds = \
                    time.perf_counter() - racer_start
                pending.discard(index)
                yield ("racer-done", outcome)
    finally:
        cancel_value.value = 1
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():  # pragma: no cover - hung racer
                process.terminate()
        msgq.close()
