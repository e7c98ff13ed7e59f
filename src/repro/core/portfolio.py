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

The race is one generator, :func:`race_portfolio`: the racers run on
the caller's thread and manager, and it pumps their generators
round-robin, one event per racer per round, so a race is deterministic
and nothing is copied.  Its clock, stop test, trace, improvements and
closing counters are the solver's own
:class:`~repro.core.brel.RunRecorder`, as in the monolithic loop and
the sharded solve.

A racer that errors is recorded on the summary and the race continues
with the rest; only a race with *no* surviving racer raises.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Mapping,
                    Optional, Tuple, Union)

from .explore import CancelToken, SolveEvent, get_strategy_factory
from .packedrel import PackedRelation
from .partition import merge_block_stats
from .quick import quick_solve
from .relation import BooleanRelation
from .solution import SolverStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .brel import BrelOptions, BrelResult, BrelSolver

#: The default racer line-up: one of each shipped frontier discipline.
DEFAULT_RACERS: Tuple[str, ...] = ("bfs", "dfs", "best-first", "beam")

#: Option fields a racer spec may override relative to the base options.
RACER_DELTA_FIELDS: Tuple[str, ...] = (
    "max_explored", "fifo_capacity", "quick_on_subrelations",
    "symmetry_pruning", "symmetry_max_depth")


# ----------------------------------------------------------------------
# The cross-racer bound channel
# ----------------------------------------------------------------------
class BoundChannel:
    """Strictly-improving incumbent costs shared across racers.

    The race offers every racer's local improvement to :meth:`publish`
    on its behalf; only strictly better costs are accepted.  The solver
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
        get_strategy_factory(strategy)
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
    sharding layer) and never record their own trace (the race's
    merged trace is the record).
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
        decompose=False)


def validate_portfolio_options(options: "BrelOptions"
                               ) -> Tuple[Dict[str, Any], ...]:
    """Eager construction-time validation of the portfolio knobs.

    Called from ``BrelOptions.__post_init__`` so a bad racer line-up
    (unknown strategy, ``beam`` with ``fifo_capacity=0``, a nested
    portfolio) fails where batch manifests are loaded, not mid-race.
    Returns the normalised racer specs.
    """
    specs = normalize_racers(options.portfolio_racers)
    for spec in specs:
        # Construct each racer's options so every strategy-specific
        # combination check runs now (e.g. the beam width rule).
        build_racer_options(options, spec)
    return specs


def racers_cache_key(racers: Any) -> str:
    """Canonical JSON of the *effective* racer line-up, for cache keys.

    ``None`` and an explicitly spelled-out default line-up normalise to
    the same string, so they share a cache slot (the same tri-state
    resolution discipline the session applies to ``decompose``).
    """
    import json
    return json.dumps(normalize_racers(racers), sort_keys=True)


# ----------------------------------------------------------------------
# Racer bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _RacerOutcome:
    """The race's record of one racer's leg."""

    name: str
    strategy: str
    cost: Optional[float] = None
    explored: int = 0
    contributed: int = 0
    runtime_seconds: float = 0.0
    stopped: Optional[str] = None
    stats: Optional[SolverStats] = None
    error: Optional[str] = None
    winner: bool = False

    @property
    def proved_optimal(self) -> bool:
        """Exhausted without ever truncating the frontier: a sound
        branch-and-bound completion, so nothing can beat the shared
        incumbent — cancelling the other racers loses no solutions.
        (A racer that errored has no ``stopped`` reason.)"""
        return (self.stopped == "exhausted"
                and self.stats.frontier_overflow == 0)

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
# The race
# ----------------------------------------------------------------------
def race_portfolio(solver: "BrelSolver",
                   root: Union[BooleanRelation, PackedRelation],
                   cancel: Optional[CancelToken]
                   ) -> Generator[SolveEvent, None, "BrelResult"]:
    """Race the configured racers on ``root``; the merged stream.

    The generator behind ``strategy="portfolio"`` solves (see module
    docstring for the stream shape).  ``root`` is the well-defined
    relation as the solver packed it (or left it on nodes); the root
    quick solution and every racer's loop run on that one form, in the
    caller's manager.

    After the opening events the racers' generators are pumped
    round-robin: each round checks the caller's token and the deadline
    (each stop is streamed once and cancels every racer; the first is
    the race's ``stopped``), then advances every pending racer by one
    event, in line-up order.  Each racer's improvement is offered to
    the :class:`BoundChannel`, and one it takes is the race's next
    ``new-best``.  Each outcome's ``explored`` stays live, so event
    stamps count the work in flight.  A racer that proves optimality
    cancels the rest, and however the stream ends — finished,
    cancelled, or abandoned by its consumer — every racer is closed
    with it.  The returned
    :class:`~repro.core.BrelResult` carries the per-racer attribution
    on ``result.portfolio``.
    """
    from .brel import BrelSolver, RunRecorder
    options = solver.options
    specs = normalize_racers(options.portfolio_racers)
    run = RunRecorder(options, root.mgr, cancel)
    outcomes = [_RacerOutcome(spec["name"], spec["strategy"])
                for spec in specs]

    # Root incumbent before any racer starts: guarantees a compatible
    # solution exists however early the race is cancelled, and seeds
    # the bound channel so every racer prunes from the first dequeue.
    root_best = quick_solve(root, options.minimizer, options.cost_function)
    run.best = root_best
    yield run.event("portfolio", detail="%d racers: %s" % (
        len(specs), " | ".join(o.name for o in outcomes)))
    yield from run.open(root_best)

    channel = BoundChannel(root_best.cost)
    tokens = [CancelToken() for _ in specs]
    racers = [BrelSolver(build_racer_options(options, spec),
                         bound=channel)._iter_events_monolithic(root, token)
              for spec, token in zip(specs, tokens)]
    pending = list(range(len(racers)))
    racer_start = time.perf_counter()
    best_racer: Optional[int] = None
    stopped: Optional[str] = None
    try:
        while pending:
            halt = run.halted()
            while halt is not None:
                stopped = stopped or halt
                for index in pending:
                    tokens[index].cancel()
                yield run.event(halt)
                halt = run.halted()
            for index in list(pending):
                outcome = outcomes[index]
                try:
                    ev = next(racers[index])
                except StopIteration as stop:
                    result = stop.value
                    outcome.cost = result.solution.cost
                    outcome.stopped = result.stopped
                    outcome.stats = result.stats
                    explored = result.stats.relations_explored
                except Exception as exc:  # noqa: BLE001 — racer isolation
                    outcome.error = "%s: %s" % (type(exc).__name__, exc)
                    explored = outcome.explored
                else:
                    run.explored += ev.explored - outcome.explored
                    outcome.explored = ev.explored
                    # A published cost strictly beats every earlier
                    # one, the root's included: a global improvement.
                    if (ev.kind == "new-best" and ev.solution is not None
                            and channel.publish(ev.solution.cost)):
                        outcome.contributed += 1
                        best_racer = index
                        yield run.improve(ev.solution, ev.depth,
                                          detail=outcome.name)
                    continue
                run.explored += explored - outcome.explored
                outcome.explored = explored
                outcome.runtime_seconds = time.perf_counter() - racer_start
                pending.remove(index)
                yield run.event("racer-done", cost=outcome.cost,
                                detail="%s: %s%s" % (
                                    outcome.name,
                                    outcome.stopped if outcome.error is None
                                    else "error (%s)" % outcome.error,
                                    " (proved optimal)"
                                    if outcome.proved_optimal else ""))
                if stopped is None and outcome.proved_optimal:
                    for other in pending:
                        tokens[other].cancel()
    finally:
        for racer in racers:
            racer.close()

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

    if stopped is None:
        stopped = (outcomes[winner].stopped or "exhausted"
                   if winner is not None else "exhausted")
    stats = merge_block_stats([o.stats for o in outcomes
                               if o.stats is not None])
    stats.quick_solutions += 1  # the root incumbent above
    summary = {
        "winner": outcomes[winner].name if winner is not None else None,
        "racers": [o.summary_row() for o in outcomes],
    }
    return (yield from run.finish(stats, stopped, portfolio=summary))
