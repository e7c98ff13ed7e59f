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

Executors (``portfolio_executor``, one of
:data:`~repro.core.explore.EXECUTORS`):

``"serial"`` (default)
    round-robin interleave of the racer generators on the caller's
    thread and manager — deterministic, and nothing is copied;
``"process"``
    one OS process per racer; the bound channel is a shared-memory
    value and results come back over a queue as memo templates,
    re-instantiated in the caller's manager.  Requires the cost
    function and minimiser to be registered by name.  A racer process
    that dies surfaces as a failed-racer note on the portfolio summary,
    never as an escaping pool error.

Both run behind the same transport interface (``poll``/``cancel``/
``close``) and one race loop, :func:`_drive`.  A process race that
cannot run on processes — a daemonic caller, an unregistered cost or
minimiser, no working process layer — races serially and says why in
the summary's ``note``.

The racer failure contract is uniform: a racer that errors (or whose
process dies) is recorded on the summary and the race continues with
the rest; only a race with *no* surviving racer raises.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, Generator, Iterator, List,
                    Mapping, Optional, Set, Tuple)

from .explore import CancelToken, Improvement, SolveEvent, \
    check_executor, get_strategy_factory
from .memo import MemoStore, instantiate_solution, solution_template
from .partition import merge_block_stats
from .quick import quick_solve
from .relation import BooleanRelation
from .relio import relation_from_nodes, relation_to_nodes
from .solution import Solution, SolverStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .brel import BrelOptions, BrelResult, BrelSolver

#: The default racer line-up: one of each shipped frontier discipline.
DEFAULT_RACERS: Tuple[str, ...] = ("bfs", "dfs", "best-first", "beam")

#: Executor used when ``portfolio_executor`` is ``None``: deterministic,
#: and it reproduces single-strategy costs exactly.
DEFAULT_RACE_EXECUTOR = "serial"

#: Most-recent memo entries shipped to each racer process's private
#: store (mirrors the session batch export bound).
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
    strategies, nested portfolios, unknown delta fields, or a line-up,
    strategy or name of the wrong type.
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
    elif isinstance(racers, (list, tuple)):
        entries = list(racers)
    else:
        raise ValueError("portfolio_racers must be None, a "
                         "comma-separated string, or a list of racer "
                         "specs, got %r" % (racers,))
    if not entries:
        raise ValueError("a portfolio needs at least one racer "
                         "(portfolio_racers=None races the default "
                         "line-up: %s)" % ", ".join(DEFAULT_RACERS))
    specs: List[Dict[str, Any]] = []
    names: set = set()
    for position, entry in enumerate(entries, 1):
        if isinstance(entry, str):
            raw: Dict[str, Any] = {"strategy": entry.strip()}
        elif isinstance(entry, Mapping):
            raw = dict(entry)
        else:
            raise ValueError(
                "racer spec must be a strategy name or a mapping, "
                "got %r" % type(entry).__name__)
        strategy = raw.pop("strategy", None)
        if not isinstance(strategy, str) or not strategy:
            raise ValueError("racer %d: 'strategy' must be a non-empty "
                             "str, got %r" % (position, strategy))
        if strategy == "portfolio":
            raise ValueError("a portfolio cannot race itself: racer "
                             "strategies must name a concrete frontier "
                             "(bfs, dfs, best-first, beam, ...)")
        try:
            get_strategy_factory(strategy)
        except KeyError as exc:
            raise ValueError(str(exc).strip('"')) from None
        name = raw.pop("name", None)
        if name is not None and not isinstance(name, str):
            raise ValueError("racer %d (%s): 'name' must be a str, got "
                             "%r" % (position, strategy, name))
        name = name or strategy
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
    if options.portfolio_executor is not None:
        check_executor("portfolio_executor", options.portfolio_executor)
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

    # Open the transport before the opening event, so the event names
    # the executor that actually runs the race.
    transport, executor, note = _open_transport(
        solver, relation, specs, channel, outcomes, requested)
    stop_reason: List[Optional[str]] = [None]
    try:
        yield event("portfolio", detail="%d racers: %s; executor=%s%s" % (
            len(specs), " | ".join(o.name for o in outcomes), executor,
            " (%s)" % note if note else ""))
        yield event("quick-solution", cost=best.cost, depth=0)
        improvements.append(Improvement(best, best.cost,
                                        time.perf_counter() - start, 0))
        yield event("new-best", cost=best.cost, solution=best, depth=0)

        # Globally improving incumbents arrive as live caller-manager
        # solutions and are re-stamped here with the cumulative counters.
        for kind, payload in _drive(transport, outcomes, memo, cancel,
                                    deadline, stop_reason):
            if kind == "new-best":
                solution, racer_index, depth = payload
                if solution.cost < best.cost:
                    best = solution
                    best_racer = racer_index
                    improvements.append(Improvement(
                        best, best.cost, time.perf_counter() - start,
                        sum(o.explored for o in outcomes)))
                    yield event("new-best", cost=best.cost,
                                solution=best, depth=depth,
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
            else:  # stopped
                yield event(payload)
    finally:
        # However the stream ends — finished, cancelled, or abandoned
        # by its consumer — no racer outlives the race.
        transport.close()

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


def _open_transport(solver: "BrelSolver", relation: BooleanRelation,
                    specs: List[Dict[str, Any]], channel: BoundChannel,
                    outcomes: List[_RacerOutcome], requested: str
                    ) -> Tuple[Any, str, Optional[str]]:
    """Start the racers: ``(transport, executor that runs, note)``.

    A process race that cannot run on processes races serially, and
    the note says why.
    """
    if requested == "process":
        import multiprocessing
        from ..api.registry import cost_registry, minimizer_registry
        cost_name = cost_registry.name_of(solver.options.cost_function)
        minimizer_name = minimizer_registry.name_of(
            solver.options.minimizer)
        if multiprocessing.current_process().daemon:
            reason = "daemonic processes cannot spawn racer processes"
        elif cost_name is None or minimizer_name is None:
            reason = ("process racers need the cost function and "
                      "minimizer registered by name")
        else:
            try:
                return (_ProcessRacers(solver, relation, specs,
                                       channel.cost, cost_name,
                                       minimizer_name),
                        "process", None)
            except OSError as exc:
                reason = "no working process layer (%s: %s)" % (
                    type(exc).__name__, exc)
        note: Optional[str] = "serial fallback: %s" % reason
    else:
        note = None
    return (_SerialRacers(solver, relation, specs, channel, outcomes),
            "serial", note)


def _drive(transport: Any, outcomes: List[_RacerOutcome],
           memo: Optional[MemoStore], cancel: Optional[CancelToken],
           deadline: Optional[float], stop_reason: List[Optional[str]]
           ) -> Iterator[Tuple[str, Any]]:
    """The race loop over either transport.

    Polls the transport until every racer has reported, checking the
    caller's token and the deadline between polls, and yields
    ``("new-best", (solution, racer, depth))``, ``("racer-done",
    outcome)`` and ``("stopped", reason)``.  A racer that proves
    optimality cancels the rest.  The caller closes the transport.
    """
    pending: Set[int] = set(range(len(outcomes)))
    racer_start = time.perf_counter()

    def stop_all(reason: str) -> None:
        if stop_reason[0] is None:
            stop_reason[0] = reason
        transport.cancel(pending)

    while pending:
        if cancel is not None and cancel.cancelled:
            stop_all("cancelled")
            yield ("stopped", "cancelled")
            cancel = None  # emit the stop event once
        if deadline is not None and time.perf_counter() > deadline:
            stop_all("timeout")
            yield ("stopped", "timeout")
            deadline = None
        for kind, index, data in transport.poll(pending):
            outcome = outcomes[index]
            if kind == "improve":
                outcome.contributed += 1
                solution, depth = data
                yield ("new-best", (solution, index, depth))
                continue
            outcome.runtime_seconds = time.perf_counter() - racer_start
            pending.discard(index)
            if kind == "error":
                outcome.error = data
            else:  # done
                stats: SolverStats = data["stats"]
                outcome.cost = data["cost"]
                outcome.explored = stats.relations_explored
                outcome.stopped = data["stopped"]
                outcome.stats = stats
                outcome.frontier_overflow = stats.frontier_overflow
                if memo is not None \
                        and data["memo_counters"] is not None:
                    hits, misses, stores = data["memo_counters"]
                    memo.absorb_counters(hits=hits, misses=misses,
                                         stores=stores)
            yield ("racer-done", outcome)
            if stop_reason[0] is None and outcome.proved_optimal:
                transport.cancel(pending)


# ----------------------------------------------------------------------
# Racer transports: poll(pending) yields ("improve", index, (solution,
# depth)), ("done", index, data) and ("error", index, message);
# cancel(indices) stops those racers; close() stops every racer.
# ----------------------------------------------------------------------
class _SerialRacers:
    """Racer generators pumped round-robin, one event per racer per
    poll, on the caller's thread and manager.

    Racers share the caller's manager and the solver's memo store
    (single-threaded, so no isolation is needed), which makes this the
    deterministic reference executor.  Each racer's ``explored`` on its
    outcome stays live, so event stamps count the work in flight.
    """

    def __init__(self, solver: "BrelSolver", relation: BooleanRelation,
                 specs: List[Dict[str, Any]], channel: BoundChannel,
                 outcomes: List[_RacerOutcome]) -> None:
        from .brel import BrelSolver
        self._tokens = [CancelToken() for _ in specs]
        self._racers = [
            BrelSolver(build_racer_options(solver.options, spec),
                       memo=solver.memo, bound=channel)
            .iter_events(relation, cancel=token)
            for spec, token in zip(specs, self._tokens)]
        self._channel = channel
        self._outcomes = outcomes

    def poll(self, pending: Set[int]) -> Iterator[Tuple[str, int, Any]]:
        for index in sorted(pending):
            try:
                ev = next(self._racers[index])
            except StopIteration as stop:
                result = stop.value
                yield ("done", index, {
                    "cost": result.solution.cost,
                    "stopped": result.stopped,
                    "stats": result.stats,
                    "memo_counters": None,  # the live store counted
                })
                continue
            except Exception as exc:  # noqa: BLE001 — racer isolation
                yield ("error", index,
                       "%s: %s" % (type(exc).__name__, exc))
                continue
            self._outcomes[index].explored = ev.explored
            if ev.kind == "new-best" and ev.solution is not None \
                    and self._channel.publish(ev.solution.cost):
                yield ("improve", index, (ev.solution, ev.depth))

    def cancel(self, indices: Set[int]) -> None:
        for index in indices:
            self._tokens[index].cancel()

    def close(self) -> None:
        for racer in self._racers:
            racer.close()


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
            time_limit_seconds=payload["time_limit_seconds"],
            record_trace=False, memo=None, decompose=False,
            **{field: payload[field] for field in RACER_DELTA_FIELDS})
        memo_entries = payload["memo"]
        store = (MemoStore(capacity=payload["memo_capacity"],
                           entries=memo_entries)
                 if memo_entries is not None else None)
        channel = _SharedValueBound(bound_value)
        sub = BrelSolver(options, memo=store, bound=channel)

        def observe(ev: SolveEvent) -> None:
            if ev.kind == "new-best" and ev.solution is not None:
                if channel.publish(ev.solution.cost):
                    template = solution_template(
                        racer_relation.mgr, ev.solution.functions,
                        racer_relation.inputs)
                    msgq.put(("improve", index,
                              (template, ev.solution.cost, ev.depth)))

        result = sub.solve(racer_relation,
                           cancel=_SharedValueCancel(cancel_value),
                           observer=observe)
        msgq.put(("done", index, {
            "cost": result.solution.cost,
            "stopped": result.stopped,
            "stats": result.stats.as_dict(),
            "memo_counters": (store.counters()
                              if store is not None else None),
        }))
    except Exception as exc:  # noqa: BLE001 — racer isolation
        try:
            msgq.put(("error", index,
                      "%s: %s" % (type(exc).__name__, exc)))
        except Exception:  # pragma: no cover - queue already broken
            pass


class _ProcessRacers:
    """One OS process per racer over a shared-memory bound.

    Improvements come back as memo templates and are re-instantiated
    in the caller's manager (the racer solved the same ordered BDD, so
    the cost it measured carries over).  A racer process that dies
    without reporting (killed, segfaulted, ``os._exit``) is reported
    as an error after a short grace period, never raised.  Raises
    ``OSError`` when the process layer is unavailable (restricted
    sandboxes without semaphores or fork).
    """

    def __init__(self, solver: "BrelSolver", relation: BooleanRelation,
                 specs: List[Dict[str, Any]], bound: float,
                 cost_name: str, minimizer_name: str) -> None:
        import multiprocessing
        options = solver.options
        memo = solver.memo
        ctx = multiprocessing.get_context()
        bound_value = ctx.Value("d", bound)
        self._cancel = [ctx.RawValue("i", 0) for _ in specs]
        self._queue = ctx.Queue()
        self._relation = relation
        base_payload = {
            "nodes": relation_to_nodes(relation),
            "cost": cost_name,
            "minimizer": minimizer_name,
            "time_limit_seconds": options.time_limit_seconds,
            "memo": (memo.export_entries(limit=MEMO_EXPORT_LIMIT)
                     if memo is not None else None),
            "memo_capacity": memo.capacity if memo is not None else None,
        }
        self._processes: List[Any] = []
        for index, spec in enumerate(specs):
            racer_options = build_racer_options(options, spec)
            payload = dict(base_payload, strategy=spec["strategy"],
                           **{field: getattr(racer_options, field)
                              for field in RACER_DELTA_FIELDS})
            self._processes.append(ctx.Process(
                target=_process_racer_main,
                args=(index, payload, bound_value, self._cancel[index],
                      self._queue),
                name="portfolio-racer-%s" % spec["name"], daemon=True))
        self._strikes = [0] * len(specs)
        try:
            for process in self._processes:
                process.start()
        except OSError:
            for process in self._processes:
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
            raise

    def poll(self, pending: Set[int]) -> Iterator[Tuple[str, int, Any]]:
        try:
            kind, index, data = self._queue.get(timeout=0.05)
        except queue_mod.Empty:
            # A dead process that never reported gets a few grace polls
            # (its queue feeder may still be flushing), then surfaces
            # as a failed racer.
            for index in sorted(pending):
                process = self._processes[index]
                if process.is_alive():
                    self._strikes[index] = 0
                    continue
                self._strikes[index] += 1
                if self._strikes[index] >= 4:
                    yield ("error", index,
                           "racer process died without reporting "
                           "(exitcode %s)" % process.exitcode)
            return
        if kind == "improve":
            template, cost, depth = data
            mgr = self._relation.mgr
            solution = Solution(mgr, instantiate_solution(
                mgr, template, self._relation.inputs), cost)
            yield ("improve", index, (solution, depth))
        elif index in pending:  # else: a racer already written off
            if kind == "done":
                data["stats"] = SolverStats(**data["stats"])
            yield (kind, index, data)

    def cancel(self, indices: Set[int]) -> None:
        for index in indices:
            self._cancel[index].value = 1

    def close(self) -> None:
        for flag in self._cancel:
            flag.value = 1
        # Drain while the racers wind down: a racer cannot exit while
        # its queue feeder still holds messages nobody reads.
        deadline = time.monotonic() + 5.0
        for process in self._processes:
            while process.is_alive() and time.monotonic() < deadline:
                try:
                    self._queue.get(timeout=0.05)
                except queue_mod.Empty:
                    pass
            if process.is_alive():  # pragma: no cover - hung racer
                process.terminate()
            process.join(timeout=1.0)
        self._queue.close()
