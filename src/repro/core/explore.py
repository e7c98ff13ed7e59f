"""Pluggable exploration strategies, search events, and cancellation.

The paper's recursive paradigm is an *anytime* branch-and-bound: the
Fig. 6 recursion and the Section 7.2 bounded-FIFO heuristic are two
frontier disciplines over the same subrelation tree.  This module makes
the frontier a first-class object so new disciplines plug in without
touching the solver loop:

* :class:`ExplorationStrategy` — the frontier protocol
  (``push``/``pop``/``prune``/``done``);
* four shipped strategies — ``bfs`` (Section 7.2's bounded FIFO),
  ``dfs`` (the literal Fig. 6 recursion order), ``best-first``
  (priority by the relaxed-MISF cost bound), and ``beam`` (best-first
  with a bounded frontier that evicts the worst node);
* :data:`STRATEGIES` — the name table behind
  :class:`~repro.core.BrelOptions` ``strategy=`` and the
  ``repro.api`` strategy registry;
* :class:`SolveEvent` / :class:`Improvement` — the typed stream a
  running solve emits to observers and anytime iterators;
* :class:`CancelToken` — cooperative cancellation for in-flight
  searches (the programmatic twin of §7.6's time-out completion
  criterion);
* :data:`EXECUTORS` — where the solves of a batch (``solve_many``,
  resynthesis, the service's batches and prewarming) may run.
"""

from __future__ import annotations

import difflib
import heapq
import reprlib
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Mapping, Optional, Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .relation import BooleanRelation
    from .solution import Solution

#: Event kinds a solve can emit, in the order they typically appear.
#: ``partition`` opens a sharded solve (the relation decomposed into
#: ``detail``-described output blocks; see
#: :mod:`repro.core.partition`); ``portfolio`` opens a racing solve
#: (``detail`` names the racers; see :mod:`repro.core.portfolio`) and
#: ``racer-done`` closes each racer's leg of the race; ``timeout`` /
#: ``cancelled`` / ``budget`` flag an early stop (matching
#: ``BrelResult.stopped``); ``done`` always closes the stream.
EVENT_KINDS = ("partition", "portfolio", "quick-solution", "new-best",
               "branch", "prune", "racer-done", "timeout", "cancelled",
               "budget", "done")

#: ``SolveEvent.detail`` values used by ``prune`` events.
#: ``shared-bound`` marks frontier nodes dropped because *another*
#: portfolio racer published a tighter incumbent cost.
PRUNE_DETAILS = ("cost", "symmetry", "frontier-overflow", "bound",
                 "shared-bound")


#: Where the solves of a batch run: ``"serial"`` one after another in
#: the caller's process and thread, ``"process"`` side by side on OS
#: worker processes (true parallelism; the engine is pure Python, so
#: threads only take turns on the GIL).  A single solve always runs in
#: its caller's process.  Every executor option validates against this
#: tuple.
EXECUTORS: Tuple[str, ...] = ("serial", "process")


def suggest(name: str, choices: Sequence[str]) -> str:
    """A ``did you mean`` suffix for unknown-name errors (may be empty)."""
    close = difflib.get_close_matches(str(name), list(choices), n=1,
                                      cutoff=0.5)
    return " — did you mean %r?" % close[0] if close else ""


class _ValueRepr(reprlib.Repr):
    """``repr`` cut at nesting depth ``maxlevel`` (6), never in length;
    dicts keep their order, where ``reprlib`` sorts them."""

    def __init__(self) -> None:
        super().__init__()
        for name in list(vars(self)):
            if name.startswith("max") and name != "maxlevel":
                setattr(self, name, sys.maxsize)

    def repr_dict(self, x: Dict[Any, Any], level: int) -> str:
        if not x or level <= 0:
            return "{...}" if x else "{}"
        return "{%s}" % ", ".join("%s: %s" % (self.repr1(key, level - 1),
                                              self.repr1(value, level - 1))
                                  for key, value in x.items())


#: The ``%r`` of a value a check refuses: as ``repr`` down to six
#: levels, and ``[...]`` below, however deep the value nests.
value_repr = _ValueRepr().repr


class UnknownNameError(KeyError, ValueError):
    """A name no table holds: a ``KeyError`` to lookups, a ``ValueError``
    to :data:`repro.api.request.REQUEST_ERRORS` (like numpy's
    ``AxisError``); its ``str()`` is its message, not the message's repr.
    """

    __str__ = ValueError.__str__


def lookup_name(table: Mapping[str, Any], name: str, what: str) -> Any:
    """``table[name]``, or :class:`UnknownNameError` reading ``what %
    name``, a did-you-mean hint and the registered names."""
    try:
        return table[name]
    except KeyError:
        raise UnknownNameError("%s%s (registered: %s)"
                               % (what % (name,), suggest(name, table),
                                  ", ".join(sorted(table)) or "none")
                               ) from None


def check_executor(field: str, value: Any) -> str:
    """``value`` if it is one of :data:`EXECUTORS`, else ``ValueError``
    naming the field, the value and the valid values."""
    if value not in EXECUTORS:
        raise ValueError("%s must be one of %s, got %s"
                         % (field, ", ".join(map(repr, EXECUTORS)),
                            value_repr(value)))
    return value


def check_int(name: str, value: Any, least: Optional[int],
              greatest: Optional[int], optional: bool) -> None:
    """``ValueError`` naming the field and the value unless ``value`` is
    an int (not a bool) in ``least..greatest`` (``None`` leaves that
    side open), or ``None`` where ``optional``."""
    if optional and value is None:
        return
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least)
            or (greatest is not None and value > greatest)):
        if least is None:
            wanted = "an int"
        elif greatest is None:
            wanted = "an int >= %d" % least
        else:
            wanted = "an int in %d..%d" % (least, greatest)
        raise ValueError("%s must be %s%s, got %s"
                         % (name, "None or " if optional else "", wanted,
                            value_repr(value)))


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class CancelToken:
    """Cooperative cancellation flag, shareable across threads.

    The solver polls the token once per dequeued subrelation, so a
    cancelled search stops at the next node boundary and still returns
    the best solution found so far — the same contract as the paper's
    runtime time-out (§6.3, §7.6), but caller-triggered.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __bool__(self) -> bool:
        return self.cancelled

    def __repr__(self) -> str:
        return "CancelToken(cancelled=%r)" % self.cancelled


# ----------------------------------------------------------------------
# Events and improvements
# ----------------------------------------------------------------------
@dataclass
class SolveEvent:
    """One typed occurrence in a running solve.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`: ``quick-solution`` (QuickSolver ran
        on the root or a dequeued subrelation), ``new-best`` (the
        incumbent improved; ``solution`` carries the live handle),
        ``branch`` (a subrelation split in two), ``prune`` (a node or
        child was discarded; ``detail`` says why), ``timeout`` /
        ``cancelled`` / ``budget`` (the search stopped early), ``done``
        (the search ended).
    depth:
        Tree depth of the subrelation the event concerns (root = 0).
    explored:
        Subrelations dequeued so far when the event fired.
    cost:
        Cost attached to the event (candidate, quick, or new best).
    best_cost:
        Incumbent cost when the event fired.
    elapsed_seconds:
        Wall-clock time since the solve started.
    detail:
        Free-form qualifier (e.g. a :data:`PRUNE_DETAILS` reason).
    solution:
        Live :class:`~repro.core.Solution` for ``new-best`` events;
        never serialised.
    """

    kind: str
    depth: int = 0
    explored: int = 0
    cost: Optional[float] = None
    best_cost: Optional[float] = None
    elapsed_seconds: float = 0.0
    detail: Optional[str] = None
    solution: Optional["Solution"] = field(default=None, repr=False,
                                           compare=False)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (the live solution handle is dropped)."""
        return {
            "kind": self.kind,
            "depth": self.depth,
            "explored": self.explored,
            "cost": self.cost,
            "best_cost": self.best_cost,
            "elapsed_seconds": self.elapsed_seconds,
            "detail": self.detail,
        }


#: Observer callable: receives every SolveEvent of a run, in order.
Observer = Callable[[SolveEvent], None]


@dataclass
class Improvement:
    """One strictly improving solution yielded by the anytime API."""

    solution: "Solution"
    cost: float
    elapsed_seconds: float
    explored: int

    def as_dict(self) -> Dict[str, Any]:
        """Data-only view for reports (drops the live solution)."""
        return {
            "cost": self.cost,
            "elapsed_seconds": self.elapsed_seconds,
            "explored": self.explored,
        }


# ----------------------------------------------------------------------
# Search nodes and the strategy protocol
# ----------------------------------------------------------------------
@dataclass
class SearchNode:
    """One frontier entry: a subrelation plus its search bookkeeping.

    ``relation`` is a :class:`~repro.core.relation.BooleanRelation`, or
    a :class:`~repro.core.packedrel.PackedRelation` when the solve's
    frame fits the packed MISF layer.  ``bound`` is the parent's
    relaxed-MISF candidate cost — a lower
    bound on every solution inside this subtree when the ISF minimiser
    is exact (Fig. 6, line 6), and the priority key of the
    ``best-first`` and ``beam`` strategies.  ``seq`` is a monotone
    insertion counter that makes heap ordering deterministic.
    """

    relation: "BooleanRelation"
    depth: int
    bound: float
    seq: int = 0

    def priority(self) -> Tuple[float, int]:
        return (self.bound, self.seq)


class ExplorationStrategy:
    """The frontier discipline of the solver loop.

    A strategy owns the set of pending subrelations and decides which
    one the solver expands next.  The loop interacts through four
    operations:

    ``push(node)``
        offer one node; return ``False`` to reject it (counted as
        frontier overflow);
    ``pop()``
        remove and return the next node to expand;
    ``prune(best_cost)``
        discard queued nodes whose ``bound`` already meets or exceeds
        the new incumbent cost; return how many were dropped;
    ``done()``
        ``True`` when the frontier is exhausted.

    ``push_children(nodes)`` offers an ordered sibling list (the solver
    always pushes the Fig. 6 split pair left-to-right) and returns how
    many were rejected; strategies with order-sensitive placement (DFS)
    override it.
    """

    #: Registry name, set on instances built through :func:`make_strategy`.
    name: str = "?"

    #: Whether ``quick_on_subrelations=None`` (the "strategy default"
    #: tri-state) runs QuickSolver on every dequeued subrelation.  True
    #: for frontier-truncating disciplines (§7.2 pairs the bounded FIFO
    #: with per-subrelation quick solutions); the literal Fig. 6
    #: recursion opts out.  An explicit True/False on the options always
    #: wins.
    quick_by_default: bool = True

    def push(self, node: SearchNode) -> bool:
        raise NotImplementedError

    def pop(self) -> SearchNode:
        raise NotImplementedError

    def prune(self, best_cost: float) -> int:
        return 0

    def done(self) -> bool:
        return len(self) == 0

    def push_children(self, nodes: Sequence[SearchNode]) -> int:
        """Offer an ordered sibling list; return the number rejected."""
        return sum(1 for node in nodes if not self.push(node))

    def seed(self, node: SearchNode) -> None:
        """Admit the root unconditionally (capacity bounds descendants)."""
        self.push(node)

    def __len__(self) -> int:
        raise NotImplementedError


class FifoStrategy(ExplorationStrategy):
    """Breadth-first exploration through a bounded FIFO (Section 7.2).

    ``capacity`` bounds the frontier; a push against a full queue is
    rejected (the solver counts it as ``frontier_overflow``), exactly
    the truncation discipline the paper pairs with per-subrelation
    QuickSolver runs so solvability is never lost.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self._queue: Deque[SearchNode] = deque()

    def push(self, node: SearchNode) -> bool:
        if self.capacity is not None and len(self._queue) >= self.capacity:
            return False
        self._queue.append(node)
        return True

    def pop(self) -> SearchNode:
        return self._queue.popleft()

    def seed(self, node: SearchNode) -> None:
        # The pre-strategy BFS enqueued the root before the capacity
        # check existed; ``fifo_capacity=0`` still explores the root.
        self._queue.append(node)

    def __len__(self) -> int:
        return len(self._queue)


class LifoStrategy(ExplorationStrategy):
    """Depth-first exploration: the literal Fig. 6 recursion order.

    ``push_children`` inserts siblings so the *first* child pops first,
    reproducing the left-to-right recursive descent of the paper's
    pseudo-code node for node.  The recursion of Fig. 6 has no
    per-subrelation QuickSolver step, so the strategy defaults the
    ``quick_on_subrelations`` tri-state to off.
    """

    quick_by_default = False

    def __init__(self) -> None:
        self._stack: List[SearchNode] = []

    def push(self, node: SearchNode) -> bool:
        self._stack.append(node)
        return True

    def pop(self) -> SearchNode:
        return self._stack.pop()

    def push_children(self, nodes: Sequence[SearchNode]) -> int:
        for node in reversed(nodes):
            self._stack.append(node)
        return 0

    def __len__(self) -> int:
        return len(self._stack)


class BestFirstStrategy(ExplorationStrategy):
    """Expand the subrelation with the lowest relaxed-MISF cost bound.

    A classic best-first branch-and-bound frontier: the node whose
    parent candidate was cheapest is the most promising subtree.  On a
    ``new-best`` the strategy drops every queued node whose bound can
    no longer beat the incumbent.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[Tuple[float, int], SearchNode]] = []

    def push(self, node: SearchNode) -> bool:
        heapq.heappush(self._heap, (node.priority(), node))
        return True

    def pop(self) -> SearchNode:
        return heapq.heappop(self._heap)[1]

    def prune(self, best_cost: float) -> int:
        kept = [entry for entry in self._heap
                if entry[1].bound < best_cost]
        dropped = len(self._heap) - len(kept)
        if dropped:
            self._heap = kept
            heapq.heapify(self._heap)
        return dropped

    def __len__(self) -> int:
        return len(self._heap)


class BeamStrategy(BestFirstStrategy):
    """Best-first over a bounded frontier: keep only the ``width`` most
    promising nodes, evicting the worst bound when full.

    Unlike the FIFO's reject-newest overflow, the beam keeps whichever
    ``width`` nodes look best, so a late cheap subtree can displace an
    early expensive one.  Evictions and rejections both count as
    frontier overflow.  Pop order and incumbent-driven pruning are
    inherited from :class:`BestFirstStrategy`.
    """

    def __init__(self, width: int = 64) -> None:
        super().__init__()
        if width < 1:
            raise ValueError("beam width must be >= 1")
        self.width = width

    def push(self, node: SearchNode) -> bool:
        if len(self._heap) < self.width:
            heapq.heappush(self._heap, (node.priority(), node))
            return True
        worst = max(self._heap, key=lambda entry: entry[0])
        if node.priority() >= worst[0]:
            return False
        self._heap.remove(worst)
        heapq.heapify(self._heap)
        heapq.heappush(self._heap, (node.priority(), node))
        return False  # something was dropped either way


# ----------------------------------------------------------------------
# The strategy table
# ----------------------------------------------------------------------
#: A strategy factory receives the live BrelOptions and returns a fresh
#: frontier for one solve.
StrategyFactory = Callable[[Any], ExplorationStrategy]


def _make_bfs(options: Any) -> ExplorationStrategy:
    """Bounded-FIFO breadth-first search (paper Section 7.2)."""
    return FifoStrategy(capacity=options.fifo_capacity)


def _make_dfs(options: Any) -> ExplorationStrategy:
    """Depth-first search in the literal Fig. 6 recursion order."""
    return LifoStrategy()


def _make_best_first(options: Any) -> ExplorationStrategy:
    """Priority search by the relaxed-MISF cost bound."""
    return BestFirstStrategy()


def _make_beam(options: Any) -> ExplorationStrategy:
    """Bounded best-first keeping the ``fifo_capacity`` best nodes.

    Only ``fifo_capacity=None`` falls back to the default width;
    ``fifo_capacity=0`` (a legal FIFO edge case) is rejected by
    :class:`BeamStrategy`, which needs room for at least one node.
    """
    return BeamStrategy(width=options.fifo_capacity
                        if options.fifo_capacity is not None else 64)


def _make_portfolio(options: Any) -> ExplorationStrategy:
    """The portfolio meta-strategy has no frontier of its own.

    ``strategy="portfolio"`` races the *other* registered strategies
    (:mod:`repro.core.portfolio`); the solver dispatches it before any
    frontier is built, so reaching this factory means a caller asked
    for a portfolio frontier directly — an impossible request.
    """
    raise ValueError(
        "'portfolio' is a meta-strategy that races the registered "
        "frontiers (see repro.core.portfolio); it has no frontier of "
        "its own — solve with BrelOptions(strategy='portfolio') "
        "instead of building the strategy directly")


#: Name table of the shipped strategies.  ``repro.api``'s strategy
#: registry backs onto this same dict, so registrations made through
#: either side are visible to both.  ``portfolio`` is the racing
#: meta-strategy: it resolves (so option validation and did-you-mean
#: suggestions know it) but dispatches before frontier construction.
STRATEGIES: Dict[str, StrategyFactory] = {
    "bfs": _make_bfs,
    "dfs": _make_dfs,
    "best-first": _make_best_first,
    "beam": _make_beam,
    "portfolio": _make_portfolio,
}


def strategy_names() -> List[str]:
    """Sorted names of the registered exploration strategies."""
    return sorted(STRATEGIES)


def get_strategy_factory(name: str) -> StrategyFactory:
    """Resolve a strategy name; unknown names get a did-you-mean error."""
    return lookup_name(STRATEGIES, name, "unknown strategy %r")


def make_strategy(name: str, options: Any) -> ExplorationStrategy:
    """Build a fresh frontier for one solve from a registered name."""
    strategy = get_strategy_factory(name)(options)
    strategy.name = name
    return strategy
