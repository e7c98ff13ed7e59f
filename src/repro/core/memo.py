"""Cross-layer memoisation of solved subproblems.

BREL's recursive paradigm repeatedly projects, splits and re-solves
sub-relations, and on structured instances many of those subproblems are
*isomorphic up to variable renaming* — symmetric outputs, shifted
supports, and above all repeated traffic: the same spec solved again and
again through one :class:`~repro.api.Session`.  This module supplies the
shared vocabulary every layer uses to recognise and reuse them:

* :class:`Signature` — the canonical identity of a subproblem, built on
  the manager's per-node signatures
  (:meth:`repro.bdd.BddManager.node_signature`: each node's support and
  its fingerprint with that support renumbered to ``0..k-1``,
  order-preserving, so BDD structure is preserved), cached per node
  for the manager's lifetime.  :meth:`repro.core.Isf.signature` and
  :meth:`repro.core.BooleanRelation.signature` produce them; their
  keys carry the tags ``"isf2"``/``"rel2"``.  ISFs with at most 16
  support variables are keyed from their packed tables instead
  (:meth:`repro.core.isf.PackedIsf.key`, tag ``"isf3"``, the same
  classes); entries written under earlier keys never match and age
  out of a store.
* **Solution templates** — manager-independent renderings of solved
  functions as ISOP covers over support *ranks*
  (:func:`solution_template`), re-instantiated into any manager by
  mapping rank ``i`` back to the ``i``-th support variable of the
  querying subproblem (:func:`instantiate_solution`).  Because reduced
  ordered BDDs are canonical, re-instantiating a template rebuilds
  *exactly* the function the original solve produced (renamed by the
  order-preserving support map), so memoisation is transparent: results
  with the store on are byte-identical to results with it off.
* :class:`MemoStore` — the bounded, LRU-evicting store itself, shared
  by :func:`repro.core.quick_solve`, :func:`repro.core.solve_misf`, the
  :class:`~repro.core.BrelSolver` loop, and (through
  :class:`~repro.api.Session`) every solve and batch job of a session.

Transparency rests on the built-in ISF minimisers being *structural*:
they compute by Shannon recursion over the BDDs, so they commute with
any order-preserving renaming of the support.  Custom (user-registered)
minimisers carry no such guarantee, so the memo hooks bypass the store
for them (:func:`minimizer_memo_key` returns ``None``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Any, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from ..bdd.backend import FunctionBackend
from ..bdd.manager import FALSE, TRUE

#: Default entry bound of a :class:`MemoStore`.
DEFAULT_MEMO_CAPACITY = 4096

#: A cube over support ranks: ``((rank, polarity), ...)`` sorted by rank.
RankCube = Tuple[Tuple[int, bool], ...]
#: An ISOP cover over support ranks (one solved function).
CoverTemplate = Tuple[RankCube, ...]
#: One cover per output: a solved multiple-output function.
SolutionTemplate = Tuple[CoverTemplate, ...]
#: A cube/cover at concrete variable level (pre-renumbering, variables
#: by increasing level), the form minimisers hand over so template
#: extraction reuses the ISOP cover they computed anyway instead of
#: re-deriving one.
VarCube = Tuple[Tuple[int, bool], ...]
VarCover = Tuple[VarCube, ...]


class Signature(NamedTuple):
    """Canonical identity of a subproblem plus its concrete support.

    ``key`` is the hashable, renaming-invariant identity used as (part
    of) a :class:`MemoStore` key; ``support`` is the sorted tuple of
    actual variable levels, i.e. the rank -> level map templates are
    instantiated through.  Two subproblems with equal ``key`` are
    identical up to the order-preserving renaming that matches their
    supports rank by rank.
    """

    key: Tuple[Any, ...]
    support: Tuple[int, ...]

    def rank_map(self) -> Dict[int, int]:
        """The inverse of ``support``: variable level -> rank."""
        return {var: rank for rank, var in enumerate(self.support)}


# ----------------------------------------------------------------------
# Solution templates
# ----------------------------------------------------------------------
def cover_template(mgr: FunctionBackend, node: int,
                   rank_of_var: Dict[int, int]) -> CoverTemplate:
    """Render one function as an ISOP cover over support ranks.

    Raises ``KeyError`` when the function mentions a variable outside
    ``rank_of_var`` — callers treat that as "unmemoisable" and skip the
    store (it cannot happen for functions produced by projecting the
    signed subproblem itself).
    """
    return rank_cover(mgr.isop(node, node)[0], rank_of_var)


def rank_cover(cover: Sequence[Mapping[int, bool]],
               rank_of_var: Mapping[int, int]) -> CoverTemplate:
    """Renumber an ISOP cover (cubes as ``{var: polarity}``) into a
    rank template, each cube's literals sorted by rank.

    Raises ``KeyError`` for out-of-support variables (see
    :func:`cover_template`).
    """
    return tuple(tuple(sorted((rank_of_var[var], polarity)
                              for var, polarity in cube.items()))
                 for cube in cover)


def template_from_var_cover(cover: VarCover,
                            rank_of_var: Dict[int, int]) -> CoverTemplate:
    """Renumber a variable-level cover into a rank template.

    Cubes list their variables by increasing level and ``rank_of_var``
    is order-preserving, so the rank cubes come out sorted as they are.
    Raises ``KeyError`` for out-of-support variables (see
    :func:`cover_template`).
    """
    return tuple([tuple([(rank_of_var[var], polarity)
                         for var, polarity in cube]) for cube in cover])


def var_cover_from_template(cover: CoverTemplate,
                            support: Sequence[int]) -> VarCover:
    """The inverse renumbering: rank template back to variable level."""
    return tuple(tuple((support[rank], polarity)
                       for rank, polarity in cube)
                 for cube in cover)


def solution_template(mgr: FunctionBackend, functions: Sequence[int],
                      support: Sequence[int]) -> SolutionTemplate:
    """Render a solved function vector as per-output rank covers."""
    rank_of_var = {var: rank for rank, var in enumerate(support)}
    return tuple(cover_template(mgr, func, rank_of_var)
                 for func in functions)


def instantiate_cover(mgr: FunctionBackend, cover: CoverTemplate,
                      support: Sequence[int]) -> int:
    """Rebuild one rank cover as a BDD node over ``support`` variables.

    By ROBDD canonicity the disjunction of the cover's cubes lands on
    exactly the node the original function would have (renamed through
    the rank -> ``support[rank]`` map), regardless of build order.
    """
    return instantiate_var_cover(mgr,
                                 var_cover_from_template(cover, support))


def instantiate_var_cover(mgr: FunctionBackend, cover: VarCover) -> int:
    """Disjoin a variable-level cover into ``mgr``.

    Cubes are stored sorted by level, so conjoining right-to-left keeps
    every ``and_`` on the manager's literal-above O(1) fast path (no
    ``cube()`` dict round-trip).
    """
    var, nvar = mgr.var, mgr.nvar
    and_, or_ = mgr.and_, mgr.or_
    node = FALSE
    for cube in cover:
        conj = TRUE
        for level, polarity in reversed(cube):
            literal = var(level) if polarity else nvar(level)
            conj = and_(literal, conj)
        node = or_(node, conj)
    return node


def instantiate_solution(mgr: FunctionBackend, covers: SolutionTemplate,
                         support: Sequence[int]) -> Tuple[int, ...]:
    """Rebuild a per-output template into ``mgr``; one node per output."""
    return tuple(instantiate_cover(mgr, cover, support)
                 for cover in covers)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class MemoStore:
    """A bounded, LRU-evicting table of solved subproblem templates.

    Keys are hashable tuples namespaced by the caller (``"quick"``,
    ``"eval"``, ``"isf"`` + signature key + minimiser name); values are
    manager-independent templates, so one store safely serves solves
    running in *different* managers — and, exported with
    :meth:`export_entries` and re-seeded via the constructor, different
    *processes* (:meth:`repro.api.Session.solve_many` pre-seeds worker
    stores this way).

    ``capacity=None`` removes the bound.  Counters (``hits`` /
    ``misses`` / ``stores`` / ``evictions``) are cumulative;
    :meth:`counters` snapshots the first three so callers can compute
    per-run deltas.

    The store also logs which keys were *learned* (:meth:`put`) since
    the last :meth:`take_learned`, in learning order; seeded entries
    never enter the log.  The log is kept a subset of the live entries
    (evictions, :meth:`trim` and :meth:`clear` drop from it too), so a
    store nobody takes from never holds more than its capacity.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_MEMO_CAPACITY,
                 entries: Optional[Iterable[Tuple[Any, Any]]] = None
                 ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("memo capacity must be a positive int or "
                             "None (unbounded)")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        #: Keys put since the last take, oldest first (values unused).
        self._learned: Dict[Any, None] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        if entries is not None:
            self.seed(entries)

    # -- core ----------------------------------------------------------
    def get(self, key: Any) -> Optional[Any]:
        """Counted lookup; a hit refreshes the entry's recency."""
        entries = self._entries
        value = entries.get(key)
        if value is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU past capacity.

        Either way the key becomes the newest entry of the learned log.
        """
        entries = self._entries
        learned = self._learned
        learned.pop(key, None)
        learned[key] = None
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return
        entries[key] = value
        self.stores += 1
        if self.capacity is not None and len(entries) > self.capacity:
            self._evict_oldest()
            self.evictions += 1

    def _evict_oldest(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self._learned.pop(key, None)

    def put_if_mappable(self, key: Any, build) -> None:
        """Store ``build()``, treating a ``KeyError`` as "unmemoisable".

        The template builders raise ``KeyError`` when a solved function
        mentions a variable outside the signature's support — possible
        only for exotic minimisers, and the single place that policy
        lives is here: such results are silently not stored.
        """
        try:
            self.put(key, build())
        except KeyError:
            pass

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are cumulative)."""
        self._entries.clear()
        self._learned.clear()

    def trim(self, target: Optional[int] = None) -> int:
        """Evict least-recently-used entries down to ``target``.

        Default target is half the capacity (half the current size when
        unbounded).  Returns the number of entries evicted.  Templates
        are manager-independent, so engine garbage collection never
        invalidates them — trimming exists purely to hand memory back.
        """
        if target is None:
            target = ((self.capacity if self.capacity is not None
                       else len(self._entries)) // 2)
        evicted = 0
        entries = self._entries
        while len(entries) > target:
            self._evict_oldest()
            evicted += 1
        self.evictions += evicted
        return evicted

    # -- stats ---------------------------------------------------------
    def counters(self) -> Tuple[int, int, int]:
        """``(hits, misses, stores)`` snapshot for per-run deltas."""
        return (self.hits, self.misses, self.stores)

    def absorb_counters(self, hits: int = 0, misses: int = 0,
                        stores: int = 0) -> None:
        """Merge counter deltas observed elsewhere (worker processes)."""
        self.hits += hits
        self.misses += misses
        self.stores += stores

    def stats(self) -> Dict[str, Any]:
        """Snapshot of size and counters (shape mirrors engine stats)."""
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    # -- transport -----------------------------------------------------
    def export_entries(self, limit: Optional[int] = None
                       ) -> List[Tuple[Any, Any]]:
        """The entries as a picklable list, least-recent first.

        ``limit`` keeps only the *most* recent entries — the transport
        payload :meth:`~repro.api.Session.solve_many` ships to worker
        processes is bounded by it.
        """
        items = list(self._entries.items())
        if limit is not None and len(items) > limit:
            items = items[-limit:]
        return items

    def take_learned(self, limit: Optional[int] = None
                     ) -> List[Tuple[Any, Any]]:
        """The entries learned since the last take, oldest first.

        Empties the learned log.  ``limit`` keeps only the *most*
        recently learned entries (the rest are dropped from the log
        all the same).  This is what a worker persists: what it
        learned itself, never what it was seeded with.
        """
        keys = list(self._learned)
        self._learned.clear()
        if limit is not None:
            keys = keys[max(0, len(keys) - limit):]
        entries = self._entries
        return [(key, entries[key]) for key in keys]

    def seed(self, entries: Iterable[Tuple[Any, Any]]) -> None:
        """Bulk-load exported entries (not counted as stores).

        Seeded entries are not *learned*: they stay out of the log
        :meth:`take_learned` drains.  Entries past capacity are evicted
        LRU-first and *are* counted as evictions — the counter is the
        diagnostic for a store too small for its traffic, seeded or
        not.
        """
        store = self._entries
        for key, value in entries:
            store[key] = value
            store.move_to_end(key)
        if self.capacity is not None:
            while len(store) > self.capacity:
                self._evict_oldest()
                self.evictions += 1


# ----------------------------------------------------------------------
# JSON wire format (the disk tier's transport)
# ----------------------------------------------------------------------
def _tuplify(value: Any) -> Any:
    """Recursively turn JSON arrays back into the tuples keys need."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def entries_to_jsonable(entries: Iterable[Tuple[Any, Any]]
                        ) -> List[List[Any]]:
    """Render exported store entries as JSON-encodable ``[key, value]`` rows.

    Keys and values are nested tuples of ints, bools, strings and
    ``None`` (signature keys, rank-cover templates).  The :mod:`json`
    encoder writes tuples as arrays, so they are passed through
    as they are rather than copied into lists;
    :func:`entries_from_jsonable` inverts the mapping exactly, so a
    store round-tripped through JSON — the disk cache tier, a
    prewarming corpus, a network hop — behaves identically to the
    original (same keys, same instantiated functions).
    """
    return [[key, value] for key, value in entries]


def entries_from_jsonable(data: Iterable[Any]) -> List[Tuple[Any, Any]]:
    """Parse wire rows back into seedable ``(key, value)`` entry pairs.

    Tolerant by design: the disk tier may hold entries written by an
    older (or newer) code version, or rows a concurrent writer
    truncated.  Malformed rows — not a two-element pair — are skipped
    rather than raised on, and well-formed rows whose *content* this
    version does not recognise are harmless: their keys simply never
    match a lookup, and LRU eviction ages them out.
    """
    entries: List[Tuple[Any, Any]] = []
    for row in data:
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            continue
        key, value = row
        entries.append((_tuplify(key), _tuplify(value)))
    return entries
