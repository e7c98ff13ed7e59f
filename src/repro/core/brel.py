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
:class:`~repro.core.explore.Improvement` as it is found.

As in the paper, every explored subrelation is projected, minimised and
split from scratch; nothing is looked up across subproblems or solves.
A relation whose frame fits the packed MISF layer
(:mod:`repro.core.packedrel`) is packed once, at the root of its solve,
and runs on its truth table down to every leaf: the frontier holds
packed subrelations, and nodes are built only for the incumbents a
caller reads.  Wider relations run the same loop on nodes.
A solve runs in its caller's process and thread: the blocks of a
sharded solve run one after another, and portfolio racers take turns
(:mod:`repro.core.portfolio`).  Parallelism lives one level up, in
:meth:`repro.api.Session.solve_many`, which runs many solves at once.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Union

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
        try:
            get_strategy_factory(self.exploration_strategy())
        except KeyError as exc:
            # Surface as ValueError: a bad name is an invalid option
            # value.
            raise ValueError(str(exc).strip('"')) from None
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
    def solve(self, relation: BooleanRelation,
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

    def iter_solve(self, relation: BooleanRelation,
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
    def iter_events(self, relation: BooleanRelation,
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

    def _iter_events_scoped(self, relation: BooleanRelation,
                            cancel: Optional[CancelToken]
                            ) -> Generator[SolveEvent, None, BrelResult]:
        """:meth:`iter_events` inside the manager's solve scope.

        A relation :func:`~repro.core.packedrel.pack_relation` takes is
        packed here, once: the partition reads its output supports off
        the table, and the search runs on it.
        """
        root = pack_relation(relation) or relation
        root.require_well_defined()
        options = self.options
        if options.decompose is not False and len(relation.outputs) >= 2:
            partition = partition_relation(relation,
                                           root.output_supports())
            if not partition.is_trivial:
                result = yield from self._iter_events_sharded(
                    partition, cancel)
                return result
        result = yield from self._iter_events_search(root, cancel)
        return result

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
            result = yield from race_portfolio(self, root, cancel)
            return result
        result = yield from self._iter_events_monolithic(root, cancel)
        return result

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
        relation = partition.relation
        options = self.options
        start = time.perf_counter()
        deadline = (start + options.time_limit_seconds
                    if options.time_limit_seconds is not None else None)
        engine_before = relation.mgr.stats()
        trace: Optional[List[SolveEvent]] = \
            [] if options.record_trace else None
        improvements: List[Improvement] = []
        explored_total = 0
        best: Optional[Solution] = None

        def event(kind: str, **kw: object) -> SolveEvent:
            ev = SolveEvent(kind, explored=explored_total,
                            best_cost=best.cost if best is not None
                            else None,
                            elapsed_seconds=time.perf_counter() - start,
                            **kw)  # type: ignore[arg-type]
            if trace is not None:
                trace.append(ev)
            return ev

        yield event("partition", detail="%d blocks: %s" % (
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
        best = partition.recombine_solutions(block_best,
                                             options.cost_function)
        yield event("quick-solution", cost=best.cost, depth=0)
        improvements.append(Improvement(best, best.cost,
                                        time.perf_counter() - start, 0))
        yield event("new-best", cost=best.cost, solution=best, depth=0)

        block_results: List[Optional[BrelResult]] = \
            [None] * partition.num_blocks
        stopped = "exhausted"
        for index, root in enumerate(roots):
            if cancel is not None and cancel.cancelled:
                stopped = "cancelled"
                yield event("cancelled")
                break
            remaining = None
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    stopped = "timeout"
                    yield event("timeout")
                    break
                remaining = max(remaining, 0.0)
            sub = BrelSolver(self._block_options(remaining))
            events = sub._iter_events_search(root, cancel)
            base_explored = explored_total
            while True:
                try:
                    ev = next(events)
                except StopIteration as stop:
                    block_results[index] = stop.value
                    break
                explored_total = base_explored + ev.explored
                if ev.kind == "done":
                    continue  # one aggregate done closes the stream
                if ev.kind == "new-best":
                    if ev.solution is None:
                        continue
                    block_best[index] = ev.solution
                    candidate = partition.recombine_solutions(
                        block_best, options.cost_function)
                    if candidate.cost < best.cost:
                        best = candidate
                        improvements.append(Improvement(
                            best, best.cost,
                            time.perf_counter() - start,
                            explored_total))
                        yield event("new-best", cost=best.cost,
                                    solution=best, depth=ev.depth)
                    continue
                yield event(ev.kind, cost=ev.cost, depth=ev.depth,
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
        # the total, so `best` already holds the final recombination; a
        # non-additive cost keeps whichever full vector priced lowest.
        stats = merge_block_stats(
            [result.stats for result in block_results
             if result is not None])
        stats.runtime_seconds = time.perf_counter() - start
        engine_after = relation.mgr.stats()
        stats.bdd_nodes = engine_after["nodes"]
        stats.bdd_cache_hits = (engine_after["cache_hits"]
                                - engine_before["cache_hits"])
        stats.bdd_cache_misses = (engine_after["cache_misses"]
                                  - engine_before["cache_misses"])
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
        yield event("done", cost=best.cost)
        return BrelResult(best, stats, improvements=improvements,
                          events=trace, stopped=stopped,
                          partition=summary)

    # ------------------------------------------------------------------
    def _iter_events_monolithic(
            self, relation: Union[BooleanRelation, PackedRelation],
            cancel: Optional[CancelToken]
            ) -> Generator[SolveEvent, None, BrelResult]:
        """The single-semilattice strategy loop (paper Fig. 6 / §7.2).

        ``relation`` is the packed root or, for a relation the packed
        layer turns down, the relation itself; its subrelations take
        the same form, and every step below is a call both answer.
        """
        options = self.options
        start = time.perf_counter()
        deadline = (start + options.time_limit_seconds
                    if options.time_limit_seconds is not None else None)
        stats = SolverStats()
        engine_before = relation.mgr.stats()
        trace: Optional[List[SolveEvent]] = \
            [] if options.record_trace else None
        improvements: List[Improvement] = []

        # Initial solution: QuickSolver guarantees one compatible function
        # exists before any pruning can truncate the search (§7.2).
        best = quick_solve(relation, options.minimizer,
                           options.cost_function)
        stats.quick_solutions += 1

        def event(kind: str, **kw: object) -> SolveEvent:
            ev = SolveEvent(kind, explored=stats.relations_explored,
                            best_cost=best.cost,
                            elapsed_seconds=time.perf_counter() - start,
                            **kw)  # type: ignore[arg-type]
            if trace is not None:
                trace.append(ev)
            return ev

        def improved_events(solution: Solution, depth: int):
            """The event pair of a new incumbent: ``new-best``, then a
            ``bound`` prune when it makes queued nodes hopeless."""
            improvements.append(Improvement(
                solution, solution.cost, time.perf_counter() - start,
                stats.relations_explored))
            yield event("new-best", cost=solution.cost,
                        solution=solution, depth=depth)
            pruned = strategy.prune(solution.cost)
            if pruned:
                stats.frontier_prunes += pruned
                yield event("prune", detail="bound", depth=depth)

        symmetry = (SymmetryCache(relation, options.symmetry_max_depth)
                    if options.symmetry_pruning else None)
        strategy = make_strategy(options.exploration_strategy(), options)
        quick_on_subrelations = (options.quick_on_subrelations
                                 if options.quick_on_subrelations
                                 is not None
                                 else strategy.quick_by_default)

        yield event("quick-solution", cost=best.cost, depth=0)
        improvements.append(Improvement(best, best.cost,
                                        time.perf_counter() - start, 0))
        yield event("new-best", cost=best.cost, solution=best, depth=0)

        seq = 0
        strategy.seed(SearchNode(relation, 0, float("-inf"), seq))
        stopped = "exhausted"
        bound_channel = self.bound_channel
        external_bound = float("inf")
        while not strategy.done():
            if cancel is not None and cancel.cancelled:
                stopped = "cancelled"
                yield event("cancelled")
                break
            if deadline is not None and time.perf_counter() > deadline:
                stopped = "timeout"
                yield event("timeout")
                break
            if (options.max_explored is not None
                    and stats.relations_explored >= options.max_explored):
                stopped = "budget"
                yield event("budget")
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
                        yield event("prune", detail="shared-bound")
                    if strategy.done():
                        break
            node = strategy.pop()
            current, depth = node.relation, node.depth
            stats.relations_explored += 1

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
                yield event("quick-solution", cost=quick.cost, depth=depth)
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
                yield event("prune",
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
            yield event("branch", cost=candidate.cost, depth=depth)
            children: List[SearchNode] = []
            for child in (left, right):
                if symmetry is not None and symmetry.should_prune(
                        child, depth + 1):
                    stats.symmetry_prunes += 1
                    yield event("prune", detail="symmetry",
                                depth=depth + 1)
                    continue
                seq += 1
                children.append(SearchNode(child, depth + 1,
                                           candidate.cost, seq))
            dropped = strategy.push_children(children)
            if dropped:
                stats.frontier_overflow += dropped
                yield event("prune", detail="frontier-overflow",
                            depth=depth + 1)

        stats.runtime_seconds = time.perf_counter() - start
        engine_after = relation.mgr.stats()
        stats.bdd_nodes = engine_after["nodes"]
        stats.bdd_cache_hits = (engine_after["cache_hits"]
                                - engine_before["cache_hits"])
        stats.bdd_cache_misses = (engine_after["cache_misses"]
                                  - engine_before["cache_misses"])
        yield event("done", cost=best.cost)
        return BrelResult(best, stats, improvements=improvements,
                          events=trace, stopped=stopped)


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
