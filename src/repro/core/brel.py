"""BREL: the recursive Boolean-relation solver (paper Fig. 6).

The solver reduces the binate covering problem of solving a BR to a
sequence of unate MISF minimisations:

1. project the relation to its covering MISF and minimise each output
   independently;
2. if the composed function is compatible, record it;
3. otherwise pick a conflict vertex and an output (Section 7.4) and
   *split* the relation into two strictly smaller well-defined relations
   (Definition 5.4, Theorem 5.2) that partition the solution space
   (Property 5.4);
4. explore the subrelation tree under branch-and-bound pruning: a
   candidate whose relaxed-MISF cost already exceeds the best known
   solution cannot improve any descendant (Fig. 6, line 6).

Exploration order is delegated to a pluggable
:class:`~repro.core.explore.ExplorationStrategy` — the frontier
discipline is the *only* difference between the paper's two modes:

* ``strategy="dfs"`` — the literal recursion order of Fig. 6 (no
  per-subrelation QuickSolver unless explicitly enabled).  With an
  exact ISF minimiser and no exploration bound this is the paper's
  *exact mode* (Section 7.6; see :func:`solve_exactly`).
* ``strategy="bfs"`` — the heuristic of Section 7.2: subrelations go
  through a *bounded FIFO*; QuickSolver runs on every dequeued relation
  so a compatible solution always exists no matter how aggressively the
  bound truncates the tree; breadth-first order diversifies the
  exploration and enables the hill-climbing behaviour Section 9 credits
  for beating gyocro.
* ``strategy="best-first"`` / ``strategy="beam"`` — branch-and-bound
  frontiers prioritised by the relaxed-MISF cost bound (unbounded /
  width-bounded); see :mod:`repro.core.explore`.

The solver is *anytime*: it emits typed :class:`SolveEvent`\\ s to
registered observers, honours a cooperative
:class:`~repro.core.explore.CancelToken` plus the wall-clock deadline,
and :meth:`BrelSolver.iter_solve` yields every strictly improving
:class:`~repro.core.explore.Improvement` as it is found.  The loop is
driven three ways — alone, once per independent output block (the
sharded solve) and as a portfolio race of strategies
(:mod:`repro.core.portfolio`) — and each stream keeps its books in one
:class:`RunRecorder`: the clock, the stop test, the trace, the
incumbent and its improvements, and the closing counters.

A solve starts by refusing a relation whose characteristic function
mentions a variable outside its inputs and outputs (a ``ValueError``
naming the stray variables, raised before the first event): every
step of the search assigns inputs and outputs alone.

As in the paper, every explored subrelation is projected, minimised and
split from scratch; nothing is looked up across subproblems or solves.
A relation whose frame fits the packed MISF layer
(:mod:`repro.core.packedrel`) is packed once, at the root of its solve
(a narrow spec's root arrives packed and is taken as it is), and runs
on its truth table down to every leaf: the frontier holds packed
subrelations, and nodes are built only for the incumbents a caller
reads.  Wider relations run the same loop on nodes.
A solve runs in its caller's process and thread: the blocks of a
sharded solve run one after another, and portfolio racers take turns
(:mod:`repro.core.portfolio`).  Parallelism lives one level up, in
:meth:`repro.api.Session.solve_many`, which runs many solves at once.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import (Any, Dict, Generator, Iterable, Iterator, List,
                    Optional, Union)

from ..bdd.manager import BddManager
from .cost import CostFunction, bdd_size_cost
from .explore import (CancelToken, Improvement, Observer, SearchNode,
                      SolveEvent, get_strategy_factory, make_strategy)
from .minimize import IsfMinimizer, minimize_isop
from .partition import (Partition, merge_block_stats, partition_relation,
                        worst_stopped)
from .packedrel import PackedRelation, pack_relation
from .quick import quick_solve
from .relation import BooleanRelation
from .solution import Solution, SolverStats
from .split import select_split_from_conflicts
from .symmetry import SymmetryCache


@dataclass
class BrelOptions:
    """Tuning knobs of the solver (paper Sections 6.3 and 7).

    Attributes
    ----------
    cost_function:
        The user-defined objective (Section 7.3).
    minimizer:
        ISF minimisation back-end (Section 7.5 / Table 1).
    strategy:
        Name of the exploration strategy
        (:data:`repro.core.explore.STRATEGIES`): ``"bfs"``, ``"dfs"``,
        ``"best-first"``, ``"beam"``, or any name registered through
        :func:`repro.api.register_strategy`.  ``None`` means ``"bfs"``.
    max_explored:
        Maximum number of subrelations dequeued/visited; ``None`` means
        unbounded.  Table 2 uses 10, Table 3 uses 200.
    fifo_capacity:
        Bound on the frontier for capacity-bounded strategies:
        the BFS FIFO (Section 7.2) and the beam width.  ``None`` =
        unbounded FIFO (the beam falls back to width 64).
    quick_on_subrelations:
        Run QuickSolver on every explored subrelation (Section 7.2
        guarantees at least one solution per subrelation; also the
        source of solution diversity).  Strategy-generic tri-state:
        ``None`` (default) follows the strategy's own default — on for
        the frontier-truncating disciplines (bfs, best-first, beam),
        off for the literal Fig. 6 ``dfs`` recursion, exactly the
        pre-strategy behaviour; an explicit ``True``/``False`` applies
        to any strategy.
    symmetry_pruning / symmetry_max_depth:
        Enable the Section 7.7 symmetric-relation cache, limited to the
        first ``symmetry_max_depth`` levels of the tree.
    time_limit_seconds:
        Wall-clock budget; the search stops (keeping the best solution
        so far) once exceeded.  This is the paper's "stop after a
        runtime time-out" completion criterion (§6.3, §7.6).  ``None``
        = no limit.  For caller-triggered early stops pass a
        :class:`~repro.core.explore.CancelToken` to the solve call.
    record_trace:
        Keep every emitted :class:`SolveEvent` on the result
        (``BrelResult.events``) for post-mortem inspection; off by
        default because traces grow with the tree.
    decompose:
        Output-block decomposition tri-state
        (:mod:`repro.core.partition`).  ``None`` (the default, *auto*)
        and ``True`` both shard the relation into verified-independent
        output blocks when the partition finds at least two — each
        block then runs the full strategy loop on its own, with the
        same options (budgets such as ``max_explored`` apply *per
        block*); ``False`` always solves the
        monolithic semi-lattice.  Sharding is transparent: the
        recombined solution is compatible and, for per-output-additive
        cost functions, reaches the same final cost as the monolithic
        search once both converge; solving the blocks serially in the
        fixed partition order is deterministic.  Relations that do not
        decompose (a single support component, or outputs coupled
        through the relation) route to the monolithic loop unchanged,
        whatever the tri-state.
    portfolio_racers:
        Racer line-up for ``strategy="portfolio"``
        (:mod:`repro.core.portfolio`): ``None`` races one of each
        shipped frontier (bfs, dfs, best-first, beam), or pass a
        comma-separated string / list of strategy names / list of
        mappings ``{"strategy": ..., "name": ..., <option deltas>}``.
        Rejected eagerly for any other strategy.
    """

    cost_function: CostFunction = bdd_size_cost
    minimizer: IsfMinimizer = minimize_isop
    strategy: Optional[str] = None
    max_explored: Optional[int] = 10
    fifo_capacity: Optional[int] = 64
    quick_on_subrelations: Optional[bool] = None
    symmetry_pruning: bool = False
    symmetry_max_depth: int = 2
    time_limit_seconds: Optional[float] = None
    record_trace: bool = False
    decompose: Optional[bool] = None
    portfolio_racers: Any = None

    def exploration_strategy(self) -> str:
        """The effective strategy name (``None`` means ``"bfs"``)."""
        return self.strategy if self.strategy is not None else "bfs"

    def __post_init__(self) -> None:
        if not (self.decompose is None
                or isinstance(self.decompose, bool)):
            # Strict identity matters downstream (`options.decompose is
            # not False`), so 0/1 must not sneak past an equality check.
            raise ValueError("decompose must be True, False or None "
                             "(None = auto: shard when the partition "
                             "finds at least two blocks)")
        get_strategy_factory(self.exploration_strategy())
        if (self.time_limit_seconds is not None
                and self.time_limit_seconds < 0):
            raise ValueError("time_limit_seconds must be non-negative")
        if self.max_explored is not None and self.max_explored < 0:
            raise ValueError("max_explored must be non-negative or None "
                             "(negative values would disable exploration)")
        if self.fifo_capacity is not None and self.fifo_capacity < 0:
            raise ValueError("fifo_capacity must be non-negative or None "
                             "(negative values would disable exploration)")
        if self.symmetry_max_depth < 0:
            raise ValueError("symmetry_max_depth must be non-negative "
                             "(0 disables the symmetry cache entirely)")
        # Option combinations a shipped strategy cannot honour must
        # fail here, where batch manifests are loaded, not mid-solve.
        # Checked directly rather than by constructing the strategy:
        # options are built several times per solve (request validation,
        # to_options, the solve itself) and registered custom factories
        # are owed exactly one invocation per search.
        if self.exploration_strategy() == "beam" \
                and self.fifo_capacity == 0:
            raise ValueError("beam width must be >= 1: fifo_capacity=0 "
                             "leaves the beam frontier no room (use "
                             "None for the default width of 64)")
        if self.exploration_strategy() == "portfolio":
            # Validate the racer line-up (and each racer's effective
            # options) here, where batch manifests are loaded.  Lazy
            # import: repro.core.portfolio imports this module.
            from .portfolio import validate_portfolio_options
            validate_portfolio_options(self)
        elif self.portfolio_racers is not None:
            raise ValueError(
                "portfolio_racers applies only to strategy='portfolio' "
                "(got strategy=%r)" % self.exploration_strategy())


@dataclass
class BrelResult:
    """Best solution found plus run statistics.

    ``improvements`` records every strictly improving incumbent in
    order (the anytime trajectory); ``events`` carries the full search
    trace when ``record_trace`` was set; ``stopped`` says why the
    search ended (``"exhausted"``, ``"budget"``, ``"timeout"``,
    ``"cancelled"``).  ``partition`` is ``None`` for monolithic solves;
    a sharded solve records the JSON-ready decomposition summary —
    block output positions and frames plus per-block cost, stats and
    completion reason (``"skipped"`` for blocks an early stop never
    reached, whose initial QuickSolver incumbent stands).
    ``portfolio`` is ``None`` unless ``strategy="portfolio"`` raced the
    solve, in which case it records the JSON-ready race summary —
    the winner and per-racer attribution (cost, explored,
    improvements contributed, wall time, completion reason).
    """

    solution: Solution
    stats: SolverStats
    improvements: List[Improvement] = field(default_factory=list)
    events: Optional[List[SolveEvent]] = None
    stopped: str = "exhausted"
    partition: Optional[Dict[str, Any]] = None
    portfolio: Optional[Dict[str, Any]] = None


class RunRecorder:
    """The bookkeeping of one solve's event stream.

    The monolithic loop, the sharded solve and the portfolio race each
    run their stream through one recorder.  It owns the solve's clock
    (``start`` and ``deadline``), the stop test (:meth:`halted`), the
    optional trace, the improvement list and the incumbent (``best``),
    and it stamps every event with the elapsed time, the explored count
    its caller keeps in ``explored`` and the incumbent's cost.
    :meth:`finish` closes the stream: it measures ``runtime_seconds``
    and the ``bdd_*`` counters against the manager's stats at the start,
    emits ``done`` and returns the :class:`BrelResult`.
    """

    __slots__ = ("start", "deadline", "budget", "cancel", "trace",
                 "improvements", "best", "explored", "_mgr",
                 "_engine_before")

    def __init__(self, options: BrelOptions, mgr: BddManager,
                 cancel: Optional[CancelToken],
                 budget: Optional[int] = None) -> None:
        self.start = time.perf_counter()
        self.deadline = (self.start + options.time_limit_seconds
                         if options.time_limit_seconds is not None
                         else None)
        self.budget = budget
        self.cancel = cancel
        self.trace: Optional[List[SolveEvent]] = \
            [] if options.record_trace else None
        self.improvements: List[Improvement] = []
        self.best: Optional[Solution] = None
        self.explored = 0
        self._mgr = mgr
        self._engine_before = mgr.stats()

    def halted(self) -> Optional[str]:
        """Why the stream must stop now — ``"cancelled"``,
        ``"timeout"`` or ``"budget"`` (``explored`` reached the budget),
        checked in that order — or ``None``.

        A tripped token or deadline is reported once and then dropped:
        a race asks again while its racers wind down, and hears of the
        other one only if it trips too.
        """
        if self.cancel is not None and self.cancel.cancelled:
            self.cancel = None
            return "cancelled"
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            return "timeout"
        if self.budget is not None and self.explored >= self.budget:
            return "budget"
        return None

    def event(self, kind: str, **kw: Any) -> SolveEvent:
        """A stamped event, kept on the trace when there is one."""
        ev = SolveEvent(kind, explored=self.explored,
                        best_cost=self.best.cost if self.best is not None
                        else None,
                        elapsed_seconds=time.perf_counter() - self.start,
                        **kw)
        if self.trace is not None:
            self.trace.append(ev)
        return ev

    def improve(self, solution: Solution, depth: int,
                detail: Optional[str] = None) -> SolveEvent:
        """Make ``solution`` the incumbent; its ``new-best`` event."""
        self.best = solution
        self.improvements.append(Improvement(
            solution, solution.cost, time.perf_counter() - self.start,
            self.explored))
        return self.event("new-best", cost=solution.cost,
                          solution=solution, depth=depth, detail=detail)

    def open(self, best: Solution) -> Iterator[SolveEvent]:
        """The root incumbent's ``quick-solution``/``new-best`` pair."""
        self.best = best
        yield self.event("quick-solution", cost=best.cost, depth=0)
        yield self.improve(best, 0)

    def finish(self, stats: SolverStats, stopped: str, **summary: Any
               ) -> Generator[SolveEvent, None, BrelResult]:
        """Close the stream: the wall time and engine counters on
        ``stats``, the ``done`` event, then the result (``summary``
        carries the ``partition`` or ``portfolio`` summary)."""
        stats.runtime_seconds = time.perf_counter() - self.start
        before, after = self._engine_before, self._mgr.stats()
        stats.bdd_nodes = after["nodes"]
        stats.bdd_cache_hits = after["cache_hits"] - before["cache_hits"]
        stats.bdd_cache_misses = (after["cache_misses"]
                                  - before["cache_misses"])
        yield self.event("done", cost=self.best.cost)
        return BrelResult(self.best, stats, improvements=self.improvements,
                          events=self.trace, stopped=stopped, **summary)


class BrelSolver:
    """The strategy-driven BR solver.  See module docstring.

    Observers registered through :meth:`add_observer` (or passed to the
    solve calls) receive every :class:`SolveEvent` of a run, in order.
    """

    def __init__(self, options: Optional[BrelOptions] = None,
                 observers: Iterable[Observer] = (),
                 bound: Optional[Any] = None) -> None:
        self.options = options or BrelOptions()
        self._observers: List[Observer] = list(observers)
        # Cross-racer bound channel (repro.core.portfolio): anything
        # with a ``.cost`` property of externally published incumbent
        # costs.  The monolithic loop prunes against it in addition to
        # its own incumbent; ``None`` (every non-portfolio solve)
        # leaves the loop byte-identical to the channel-free solver.
        self.bound_channel = bound

    # -- observers ------------------------------------------------------
    def add_observer(self, observer: Observer) -> Observer:
        """Register an event observer; returns it for symmetry."""
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer: Observer) -> None:
        """Drop a registered observer (no-op when absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _notify(self, extra: Optional[Observer]) -> List[Observer]:
        observers = list(self._observers)
        if extra is not None:
            observers.append(extra)
        return observers

    # ------------------------------------------------------------------
    def solve(self, relation: Union[BooleanRelation, PackedRelation],
              cancel: Optional[CancelToken] = None,
              observer: Optional[Observer] = None) -> BrelResult:
        """Solve a well-defined relation; raises if it is not left-total.

        Drives :meth:`iter_events` to completion, dispatching events to
        the registered observers (plus the per-call ``observer``).
        """
        observers = self._notify(observer)
        events = self.iter_events(relation, cancel=cancel)
        while True:
            try:
                event = next(events)
            except StopIteration as stop:
                return stop.value
            for fn in observers:
                fn(event)

    def iter_solve(self, relation: Union[BooleanRelation, PackedRelation],
                   cancel: Optional[CancelToken] = None,
                   observer: Optional[Observer] = None
                   ) -> Generator[Improvement, None, BrelResult]:
        """Anytime API: yield each strictly improving solution.

        A generator over :class:`~repro.core.explore.Improvement`\\ s —
        the first is QuickSolver's initial incumbent, every later one
        strictly beats its predecessor.  The generator's *return value*
        (``StopIteration.value``, or ``result = yield from ...``) is
        the final :class:`BrelResult`.  Cancelling mid-iteration (via
        ``cancel``) ends the stream with the best-so-far result intact.
        """
        observers = self._notify(observer)
        events = self.iter_events(relation, cancel=cancel)
        while True:
            try:
                event = next(events)
            except StopIteration as stop:
                return stop.value
            for fn in observers:
                fn(event)
            if event.kind == "new-best" and event.solution is not None:
                yield Improvement(event.solution, event.cost,
                                  event.elapsed_seconds, event.explored)

    # ------------------------------------------------------------------
    def iter_events(self, relation: Union[BooleanRelation, PackedRelation],
                    cancel: Optional[CancelToken] = None
                    ) -> Generator[SolveEvent, None, BrelResult]:
        """The solver loop as a typed event stream.

        Yields every :class:`SolveEvent` of the search; the generator's
        return value is the final :class:`BrelResult`.  This is the
        single implementation behind :meth:`solve` and
        :meth:`iter_solve`.

        Unless ``options.decompose`` is ``False``, the relation is
        first offered to :func:`repro.core.partition.partition_relation`;
        a verified partition with at least two independent output
        blocks routes to the sharded loop (each block solved by its own
        strategy loop, results recombined), anything else to the
        monolithic loop below.

        The solve holds its manager's solve scope
        (:meth:`~repro.bdd.BddManager.enter_solve`) until the stream
        ends, so every ISOP call of the solve — sharded blocks and
        portfolio racers included — shares one sub-interval
        table, dropped when the outermost solve returns.
        """
        mgr = relation.mgr
        mgr.enter_solve()
        try:
            return (yield from self._iter_events_scoped(relation, cancel))
        finally:
            mgr.exit_solve()

    def _iter_events_scoped(self,
                            relation: Union[BooleanRelation,
                                            PackedRelation],
                            cancel: Optional[CancelToken]
                            ) -> Generator[SolveEvent, None, BrelResult]:
        """:meth:`iter_events` inside the manager's solve scope.

        A relation :func:`~repro.core.packedrel.pack_relation` takes is
        packed here, once (a root packed from its spec is taken as it
        is): the partition reads its output supports off the table, and
        the search runs on it.  The root is checked here, before the
        first event: in frame, then left-total.
        """
        root = pack_relation(relation) or relation
        root.require_in_frame()
        root.require_well_defined()
        options = self.options
        if options.decompose is not False and len(root.outputs) >= 2:
            partition = partition_relation(root, root.output_supports())
            if not partition.is_trivial:
                return (yield from self._iter_events_sharded(partition,
                                                             cancel))
        return (yield from self._iter_events_search(root, cancel))

    def _iter_events_search(
            self, root: Union[BooleanRelation, PackedRelation],
            cancel: Optional[CancelToken]
            ) -> Generator[SolveEvent, None, BrelResult]:
        """The search on a well-defined root its caller packed (or left
        on nodes): a portfolio race or the monolithic loop."""
        if self.options.exploration_strategy() == "portfolio":
            # The portfolio meta-strategy replaces the monolithic loop
            # with a race of concrete-strategy sub-solvers (lazy import:
            # repro.core.portfolio imports this module).  Decomposition
            # wins above — each block then races its own portfolio.
            from .portfolio import race_portfolio
            return (yield from race_portfolio(self, root, cancel))
        return (yield from self._iter_events_monolithic(root, cancel))

    # ------------------------------------------------------------------
    def _block_options(self, time_limit: Optional[float]) -> BrelOptions:
        """Per-block options: same knobs, no further decomposition, and
        ``record_trace`` off — block events are re-stamped into the
        sharded solve's own trace.
        """
        return dataclasses.replace(self.options,
                                   time_limit_seconds=time_limit,
                                   record_trace=False, decompose=False)

    def _iter_events_sharded(self, partition: Partition,
                             cancel: Optional[CancelToken]
                             ) -> Generator[SolveEvent, None, BrelResult]:
        """Solve a partitioned relation block by block and recombine.

        Blocks run in the fixed partition order, each through a
        sub-solver of its own.  The stream mirrors a monolithic
        solve — an opening ``partition`` event, a whole-relation
        ``quick-solution``/``new-best`` pair (the recombined per-block
        QuickSolver incumbents), then every block event re-stamped with
        cumulative ``explored`` and the *full-relation* incumbent as
        ``best_cost``; block-local ``new-best`` improvements surface as
        recombined full-relation ``new-best`` events (with live
        solutions) whenever they strictly improve the total.
        """
        options = self.options
        run = RunRecorder(options, partition.relation.mgr, cancel)
        yield run.event("partition", detail="%d blocks: %s" % (
            partition.num_blocks,
            " | ".join(",".join("y%d" % p for p in block.positions)
                       for block in partition.blocks)))

        # Initial incumbent: one QuickSolver pass per block, recombined.
        # Guarantees a compatible full solution exists before any block
        # search runs, so an early stop can never lose solvability —
        # the sharded twin of the §7.2 root quick solution.  Each block
        # search repeats this quick pass as its own root incumbent, so
        # these upfront passes are deliberately *not* counted in
        # stats.quick_solutions — the block counters already report the
        # same logical solutions.  Each block is packed once, here, and
        # both its quick pass and its search run on that form.
        roots = [pack_relation(block.relation) or block.relation
                 for block in partition.blocks]
        block_best: List[Solution] = [
            quick_solve(root, options.minimizer, options.cost_function)
            for root in roots]
        yield from run.open(partition.recombine_solutions(
            block_best, options.cost_function))

        block_results: List[Optional[BrelResult]] = \
            [None] * partition.num_blocks
        stopped = "exhausted"
        for index, root in enumerate(roots):
            halt = run.halted()
            if halt is not None:
                stopped = halt
                yield run.event(halt)
                break
            remaining = (None if run.deadline is None else
                         max(run.deadline - time.perf_counter(), 0.0))
            events = BrelSolver(self._block_options(remaining)) \
                ._iter_events_search(root, cancel)
            base_explored = run.explored
            while True:
                try:
                    ev = next(events)
                except StopIteration as stop:
                    block_results[index] = stop.value
                    break
                run.explored = base_explored + ev.explored
                if ev.kind == "done":
                    continue  # one aggregate done closes the stream
                if ev.kind == "new-best":
                    if ev.solution is None:
                        continue
                    block_best[index] = ev.solution
                    candidate = partition.recombine_solutions(
                        block_best, options.cost_function)
                    if candidate.cost < run.best.cost:
                        yield run.improve(candidate, ev.depth)
                    continue
                yield run.event(ev.kind, cost=ev.cost, depth=ev.depth,
                                detail=ev.detail)
            result = block_results[index]
            block_best[index] = result.solution
            stopped = worst_stopped((stopped, result.stopped))
            if result.stopped in ("cancelled", "timeout"):
                # The block already streamed its stop event, and the
                # shared token/deadline would stop every later block
                # too — break rather than re-emitting per block.
                break

        # For per-output-additive costs every block improvement improved
        # the total, so the incumbent already is the final
        # recombination; a non-additive cost keeps whichever full vector
        # priced lowest.
        summary = partition.summary()
        for entry, result, solution in zip(summary["blocks"],
                                           block_results, block_best):
            entry["cost"] = solution.cost
            entry["stats"] = (result.stats.as_dict()
                              if result is not None else None)
            entry["stopped"] = (result.stopped if result is not None
                                else "skipped")
            if result is not None and result.portfolio is not None:
                # Blocks race their own portfolios under
                # strategy="portfolio"; keep the per-block attribution.
                entry["portfolio"] = result.portfolio
        stats = merge_block_stats(
            [result.stats for result in block_results
             if result is not None])
        return (yield from run.finish(stats, stopped, partition=summary))

    # ------------------------------------------------------------------
    def _iter_events_monolithic(
            self, relation: Union[BooleanRelation, PackedRelation],
            cancel: Optional[CancelToken]
            ) -> Generator[SolveEvent, None, BrelResult]:
        """The single-semilattice strategy loop (paper Fig. 6 / §7.2).

        ``relation`` is the packed root or, for a relation the packed
        layer turns down, the relation itself; its subrelations take
        the same form, and every step below is a call both answer.
        The recorder counts the dequeued subrelations
        (``run.explored``) and stops the loop on the caller's token,
        the deadline or the ``max_explored`` budget.
        """
        options = self.options
        run = RunRecorder(options, relation.mgr, cancel,
                          budget=options.max_explored)
        stats = SolverStats()

        # Initial solution: QuickSolver guarantees one compatible function
        # exists before any pruning can truncate the search (§7.2).
        best = quick_solve(relation, options.minimizer,
                           options.cost_function)
        stats.quick_solutions += 1

        def improved_events(solution: Solution, depth: int):
            """The event pair of a new incumbent: ``new-best``, then a
            ``bound`` prune when it makes queued nodes hopeless."""
            yield run.improve(solution, depth)
            pruned = strategy.prune(solution.cost)
            if pruned:
                stats.frontier_prunes += pruned
                yield run.event("prune", detail="bound", depth=depth)

        symmetry = (SymmetryCache(relation, options.symmetry_max_depth)
                    if options.symmetry_pruning else None)
        strategy = make_strategy(options.exploration_strategy(), options)
        quick_on_subrelations = (options.quick_on_subrelations
                                 if options.quick_on_subrelations
                                 is not None
                                 else strategy.quick_by_default)

        yield from run.open(best)

        seq = 0
        strategy.seed(SearchNode(relation, 0, float("-inf"), seq))
        stopped = None
        bound_channel = self.bound_channel
        external_bound = float("inf")
        while not strategy.done():
            stopped = run.halted()
            if stopped is not None:
                yield run.event(stopped)
                break
            if bound_channel is not None:
                # Cross-racer bound (repro.core.portfolio): when another
                # racer published a better incumbent, drop queued nodes
                # that can no longer beat it.  Sound globally — such
                # nodes cannot improve the *shared* best even though
                # this racer's own incumbent may still be worse.
                shared_cost = bound_channel.cost
                if shared_cost < external_bound:
                    external_bound = shared_cost
                    pruned = strategy.prune(shared_cost)
                    if pruned:
                        stats.frontier_prunes += pruned
                        yield run.event("prune", detail="shared-bound")
                    if strategy.done():
                        break
            node = strategy.pop()
            current, depth = node.relation, node.depth
            run.explored += 1

            if current.is_function():
                leaf = current.solution(current.function_vector(),
                                        options.cost_function)
                if leaf.cost < best.cost:
                    best = leaf
                    stats.compatible_found += 1
                    yield from improved_events(best, depth)
                continue

            # §7.2: every dequeued subrelation gets a quick compatible
            # solution so that truncating the frontier can never lose
            # solvability, and the exploration diversity turns
            # QuickSolver into a hill climber.
            if quick_on_subrelations and depth > 0:
                quick = quick_solve(current, options.minimizer,
                                    options.cost_function)
                stats.quick_solutions += 1
                yield run.event("quick-solution", cost=quick.cost,
                                depth=depth)
                if quick.cost < best.cost:
                    best = quick
                    stats.compatible_found += 1
                    yield from improved_events(best, depth)

            # Minimise the covering MISF (§5.3): the candidate and, unless
            # it is pruned, its conflict set (nodes or input tables, as
            # the relation holds its functions).
            functions = [current.minimize(position, options.minimizer)
                         for position in range(len(current.outputs))]
            stats.misf_minimizations += 1
            candidate = current.solution(functions, options.cost_function)
            if candidate.cost >= min(best.cost, external_bound):
                stats.cost_prunes += 1
                yield run.event("prune",
                                detail="cost" if candidate.cost >= best.cost
                                else "shared-bound",
                                cost=candidate.cost, depth=depth)
                continue
            conflicts = current.conflict_inputs(functions)
            if not conflicts:
                best = candidate
                stats.compatible_found += 1
                yield from improved_events(best, depth)
                continue
            choice = select_split_from_conflicts(current, conflicts)
            stats.splits += 1
            left, right = current.split(choice.vertex_dict(),
                                        choice.position)
            yield run.event("branch", cost=candidate.cost, depth=depth)
            children: List[SearchNode] = []
            for child in (left, right):
                if symmetry is not None and symmetry.should_prune(
                        child, depth + 1):
                    stats.symmetry_prunes += 1
                    yield run.event("prune", detail="symmetry",
                                    depth=depth + 1)
                    continue
                seq += 1
                children.append(SearchNode(child, depth + 1,
                                           candidate.cost, seq))
            dropped = strategy.push_children(children)
            if dropped:
                stats.frontier_overflow += dropped
                yield run.event("prune", detail="frontier-overflow",
                                depth=depth + 1)

        stats.relations_explored = run.explored
        return (yield from run.finish(stats, stopped or "exhausted"))


def solve_relation(relation: BooleanRelation,
                   options: Optional[BrelOptions] = None) -> BrelResult:
    """Convenience wrapper: solve with default (or given) options."""
    return BrelSolver(options).solve(relation)


def solve_exactly(relation: BooleanRelation,
                  cost_function: CostFunction = bdd_size_cost,
                  minimizer: IsfMinimizer = minimize_isop) -> BrelResult:
    """Run BREL in exhaustive DFS mode (paper's exact mode, §7.6).

    Exactness holds modulo the ISF minimiser, exactly as in the paper;
    for a ground-truth optimum on tiny relations use
    :func:`repro.core.exact.exact_solve`.  ``quick_on_subrelations`` is
    pinned off (also the dfs strategy default): the exhaustive
    recursion needs no per-subrelation incumbents.
    """
    options = BrelOptions(cost_function=cost_function, minimizer=minimizer,
                          strategy="dfs", max_explored=None,
                          fifo_capacity=None,
                          quick_on_subrelations=False)
    return BrelSolver(options).solve(relation)
