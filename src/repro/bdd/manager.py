"""Hash-consed Binary Decision Diagram manager.

This module is the reproduction's stand-in for CUDD [5]: a reduced ordered
BDD package with a unique table, a computed-table cache, and the operation
set that the BREL solver needs (ITE-based Boolean connectives, cofactors,
quantifiers, composition, permutation, SAT counting and structural metrics).

Design notes
------------
* Nodes are identified by non-negative integers.  ``0`` and ``1`` are the
  constant nodes FALSE and TRUE.  Because nodes are hash-consed (the unique
  table guarantees one index per ``(var, low, high)`` triple), *semantic
  equality of functions is integer equality of node indices*.
* Variables are identified by their integer *level*; the variable order is
  the creation order and is never changed at runtime (no sifting).  Callers
  that care about the order — for example, the split-selection heuristic of
  the paper's Section 7.4 picks "the first output in the BDD variable
  order" — can rely on ``var index == level``.
* There are no complement edges.  This costs a small constant factor but
  keeps every algorithm directly comparable to its textbook statement.
* Every traversal is **iterative**: operations run an explicit work stack
  (:meth:`_apply` and friends), so BDD depth is bounded by available heap,
  not by the interpreter recursion limit.  The manager never touches
  ``sys.setrecursionlimit``.  The work stack is a flat mixed list — visit
  frames push their operands and a ``False`` tag, combine frames push
  their cache key, top level and a ``True`` tag — which avoids a tuple
  allocation per frame on the hot path.
* The computed table is **bounded**: when it reaches ``cache_limit``
  entries it is flushed wholesale (the CUDD-style lossy-cache policy —
  results are always recomputable from the unique table).  Hit, miss,
  eviction and flush counters are exposed through :meth:`stats`.
* ISOP reuse lives here too: every node caches its size for the
  manager's lifetime, and :meth:`isop` keeps its sub-interval table for
  the whole enclosing solve (:meth:`enter_solve`).
* Memory is reclaimable: roots survive :meth:`collect` (a mark-and-sweep
  pass that compacts the node arrays) only when reachable from a
  :meth:`pin`\\ ned node, a variable, or an explicit extra root.  ``collect``
  returns the old-id -> new-id mapping so holders of surviving roots can
  remap their handles.

Only the manager lives here; the ergonomic operator-overloaded wrapper is
:class:`repro.bdd.function.Bdd`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Node index of the constant FALSE function.
FALSE = 0
#: Node index of the constant TRUE function.
TRUE = 1

#: Sentinel level for the two terminal nodes; greater than any variable level.
TERMINAL_LEVEL = 1 << 30

# Operation tags for computed-table keys.  Plain ints keep tuple keys small.
_OP_AND = 0
_OP_XOR = 1
_OP_NOT = 2
_OP_ITE = 3
_OP_EXISTS = 4
_OP_FORALL = 5
_OP_COMPOSE = 6
_OP_PERMUTE = 7
_OP_OR = 8
_OP_COFACTOR = 9
_OP_ANDNOT = 10

#: Default computed-table size bound (entries) before a wholesale flush.
DEFAULT_CACHE_LIMIT = 1 << 18

#: Operations whose top variable has at most this many levels below it may
#: use the bounded recursive twins: recursion depth is capped by the level
#: span, so ~3 interpreter frames per level stays far inside the *default*
#: interpreter limit.  Deeper operands take the explicit-stack engine.
MAX_RECURSIVE_LEVELS = 120

# Terminal-rule actions for the generic apply.  The values FALSE/TRUE
# double as "return this constant"; _OTHER returns the non-constant
# operand, _NEG_OTHER its complement.
_OTHER = 2
_NEG_OTHER = 3

#: Per-op terminal-rule table for the generic binary :meth:`BddManager._apply`:
#: ``op -> (commutative, rule when operands are equal,
#: rule when the left operand is FALSE / TRUE,
#: rule when the right operand is FALSE / TRUE)``.
#: Commutative ops canonicalise their cache key by swapping to ``f < g``.
_TERMINAL_RULES = {
    _OP_AND: (True, _OTHER, FALSE, _OTHER, FALSE, _OTHER),
    _OP_OR: (True, _OTHER, _OTHER, TRUE, _OTHER, TRUE),
    _OP_XOR: (True, FALSE, _OTHER, _NEG_OTHER, _OTHER, _NEG_OTHER),
    # f & ~g: the workhorse of diff/implies — fusing the complement into
    # the apply avoids materialising ~g.
    _OP_ANDNOT: (False, FALSE, FALSE, _NEG_OTHER, _OTHER, FALSE),
}

#: Public operation names accepted by :meth:`BddManager.apply`.
_APPLY_NAMES = {"and": _OP_AND, "or": _OP_OR, "xor": _OP_XOR,
                "andnot": _OP_ANDNOT}


def union_support(a: Tuple[int, ...], b: Tuple[int, ...]
                  ) -> Tuple[int, ...]:
    """Sorted union of two sorted supports."""
    if a == b or not b:
        return a
    if not a:
        return b
    return tuple(sorted(set(a).union(b)))


class IsopTable(dict):
    """An ISOP sub-interval table that also counts the packed-table bits
    of its entries (``bits``, see :mod:`repro.bdd.packed`); :meth:`clear`
    resets both."""

    __slots__ = ("bits",)

    def __init__(self) -> None:
        super().__init__()
        self.bits = 0

    def clear(self) -> None:
        super().clear()
        self.bits = 0


class BddManager:
    """A reduced ordered BDD manager with hash-consing.

    Parameters
    ----------
    var_names:
        Optional initial variable names; further variables can be added with
        :meth:`add_var`.
    cache_limit:
        Entry bound of the computed table (``None`` disables the bound).
        See :meth:`stats` for the counters this feeds.

    Examples
    --------
    >>> mgr = BddManager(["a", "b"])
    >>> a, b = mgr.var(0), mgr.var(1)
    >>> f = mgr.and_(a, mgr.not_(b))
    >>> mgr.eval(f, {0: True, 1: False})
    True
    """

    def __init__(self, var_names: Optional[Iterable[str]] = None,
                 cache_limit: Optional[int] = DEFAULT_CACHE_LIMIT) -> None:
        # Parallel arrays for node fields; index == node id.
        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Bounded computed table, flushed wholesale at the limit.  The dict
        # object is stable for the manager's lifetime (cleared in place) so
        # hot loops can bind it locally.
        if cache_limit is not None and cache_limit < 1:
            raise ValueError("cache_limit must be a positive int or None")
        self.cache_limit = cache_limit
        self._cache_limit = (cache_limit if cache_limit is not None
                             else float("inf"))
        self._cache: Dict[Tuple, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._cache_flushes = 0
        # Garbage collection state: pinned roots survive collect().
        self._pins: Dict[int, int] = {}
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._peak_nodes = 2
        # Per-node size memo (node id -> internal node count); values
        # are id-independent, keys are remapped by collect().
        self._size_memo: Dict[int, int] = {}
        # Solve-wide ISOP sub-interval table (see repro.bdd.packed for
        # its keys); exists only while a solve is open (see
        # enter_solve), bounded like the computed table.
        self._isop_table: Optional[IsopTable] = None
        self._solve_depth = 0
        self._isop_hits = 0
        self._isop_misses = 0
        self._var_nodes: List[int] = []
        self._names: List[str] = []
        # Levels >= this may recurse (bounded depth); levels below it have
        # too many levels under them and take the explicit-stack engine.
        self._iter_floor = 0
        if var_names is not None:
            for name in var_names:
                self.add_var(name)

    # ------------------------------------------------------------------
    # Variable handling
    # ------------------------------------------------------------------
    def add_var(self, name: Optional[str] = None) -> int:
        """Create a fresh variable at the bottom of the order.

        Returns the variable index (== its level in the fixed order).
        """
        index = len(self._var_nodes)
        if name is None:
            name = "v%d" % index
        node = self._mk(index, FALSE, TRUE)
        self._var_nodes.append(node)
        self._names.append(name)
        floor = len(self._var_nodes) - MAX_RECURSIVE_LEVELS
        self._iter_floor = floor if floor > 0 else 0
        return index

    def add_vars(self, count: int, prefix: str = "v") -> List[int]:
        """Create ``count`` fresh variables named ``prefix0 .. prefixN``."""
        return [self.add_var("%s%d" % (prefix, len(self._var_nodes)))
                for _ in range(count)]

    @property
    def num_vars(self) -> int:
        """Number of variables declared in this manager."""
        return len(self._var_nodes)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes currently stored (terminals included)."""
        return len(self._level)

    def var(self, index: int) -> int:
        """Return the node for the positive literal of variable ``index``."""
        return self._var_nodes[index]

    def nvar(self, index: int) -> int:
        """Return the node for the negative literal of variable ``index``."""
        return self.not_(self._var_nodes[index])

    def var_name(self, index: int) -> str:
        """Return the declared name of variable ``index``."""
        return self._names[index]

    def var_index_of_node(self, node: int) -> int:
        """Return the variable labelling ``node`` (undefined for terminals)."""
        return self._level[node]

    def level(self, node: int) -> int:
        """Return the level of ``node`` (``TERMINAL_LEVEL`` for constants)."""
        return self._level[node]

    def low(self, node: int) -> int:
        """Return the 0-cofactor child of ``node``."""
        return self._low[node]

    def high(self, node: int) -> int:
        """Return the 1-cofactor child of ``node``."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        """True for the constant nodes FALSE and TRUE."""
        return node <= TRUE

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node ``(var, low, high)`` (reduction applied)."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    # ------------------------------------------------------------------
    # Computed-table management
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop the computed table and the ISOP table (unique table is
        preserved)."""
        self._cache.clear()
        if self._isop_table is not None:
            self._isop_table.clear()

    def release_caches(self) -> None:
        """Drop every derived table: :meth:`clear_caches` plus the
        per-node sizes.

        For a manager whose solve is over but whose nodes stay
        referenced (a cached report's live solution): everything
        dropped here is recomputable on demand.
        """
        self.clear_caches()
        self._size_memo = {}

    def enter_solve(self) -> None:
        """Open (or join) a solve: ISOP keeps one sub-interval table
        until the matching outermost :meth:`exit_solve`.

        Nested solves on this manager (sharded blocks, portfolio racers)
        join the table of the solve that encloses them.
        """
        self._solve_depth += 1
        if self._isop_table is None:
            self._isop_table = IsopTable()

    def exit_solve(self) -> None:
        """Close one :meth:`enter_solve`; the outermost drops the table."""
        self._solve_depth -= 1
        if not self._solve_depth:
            self._isop_table = None

    def _isop_scope(self) -> Tuple[IsopTable, float]:
        """The ISOP table an ``isop`` call runs against — the open
        solve's, or a fresh one for this call — and its entry limit."""
        table = self._isop_table
        return (IsopTable() if table is None else table,
                self._cache_limit)

    def set_cache_limit(self, cache_limit: Optional[int]) -> None:
        """Re-bound the computed table (``None`` removes the bound).

        Takes effect immediately: a table already over the new bound is
        flushed on its next insert.
        """
        if cache_limit is not None and cache_limit < 1:
            raise ValueError("cache_limit must be a positive int or None")
        self.cache_limit = cache_limit
        self._cache_limit = (cache_limit if cache_limit is not None
                             else float("inf"))

    def _flush_cache(self) -> None:
        """The computed table hit its bound: evict everything.

        Lossy by design (the CUDD policy): every entry is recomputable, so
        a wholesale flush trades repeat work for a hard memory bound.
        """
        self._cache_evictions += len(self._cache)
        self._cache_flushes += 1
        self._cache.clear()

    def _cache_get(self, key: Tuple) -> Optional[int]:
        """Counted computed-table lookup (cold-path helper)."""
        hit = self._cache.get(key)
        if hit is None:
            self._cache_misses += 1
        else:
            self._cache_hits += 1
        return hit

    def _cache_put(self, key: Tuple, value: int) -> None:
        """Counted computed-table insert with bound enforcement."""
        cache = self._cache
        cache[key] = value
        if len(cache) >= self._cache_limit:
            self._flush_cache()

    def stats(self) -> Dict[str, Optional[int]]:
        """Snapshot of engine counters (nodes, computed table, GC).

        Keys: ``nodes`` / ``peak_nodes`` / ``num_vars`` / ``unique_entries``
        (node store), ``cache_entries`` / ``cache_limit`` / ``cache_hits`` /
        ``cache_misses`` / ``cache_evictions`` / ``cache_flushes``
        (computed table), ``isop_entries`` / ``isop_hits`` /
        ``isop_misses`` (the solve-wide ISOP table: its size, 0 outside
        a solve, and the sub-intervals it served / expanded,
        cumulative), ``pinned_nodes`` / ``gc_runs`` /
        ``gc_reclaimed_nodes`` (garbage collection).
        """
        nodes = len(self._level)
        if nodes > self._peak_nodes:
            self._peak_nodes = nodes
        return {
            "nodes": nodes,
            "peak_nodes": self._peak_nodes,
            "num_vars": len(self._var_nodes),
            "unique_entries": len(self._unique),
            "cache_entries": len(self._cache),
            "cache_limit": self.cache_limit,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "cache_evictions": self._cache_evictions,
            "cache_flushes": self._cache_flushes,
            "isop_entries": len(self._isop_table or ()),
            "isop_hits": self._isop_hits,
            "isop_misses": self._isop_misses,
            "pinned_nodes": len(self._pins),
            "gc_runs": self._gc_runs,
            "gc_reclaimed_nodes": self._gc_reclaimed,
        }

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def pin(self, node: int) -> int:
        """Protect ``node`` (and its cone) across :meth:`collect`.

        Pins are counted: each :meth:`pin` needs a matching :meth:`unpin`.
        Returns ``node`` for call chaining.
        """
        if not 0 <= node < len(self._level):
            raise ValueError("cannot pin unknown node %d" % node)
        self._pins[node] = self._pins.get(node, 0) + 1
        return node

    def unpin(self, node: int) -> None:
        """Release one :meth:`pin` of ``node``."""
        count = self._pins.get(node)
        if count is None:
            raise ValueError("node %d is not pinned" % node)
        if count <= 1:
            del self._pins[node]
        else:
            self._pins[node] = count - 1

    def pin_count(self, node: int) -> int:
        """Number of outstanding pins on ``node``."""
        return self._pins.get(node, 0)

    def collect(self, extra_roots: Iterable[int] = ()) -> Dict[int, int]:
        """Mark-and-sweep: keep only nodes reachable from live roots.

        Live roots are the pinned nodes, the declared variables, and any
        ``extra_roots``.  Surviving nodes are compacted to the low end of
        the node arrays (creation order, hence topological order, is
        preserved) and the unique table is rebuilt.  The computed table
        and the ISOP table are dropped wholesale — their keys mention
        dead ids.

        Returns the ``old id -> new id`` mapping for every surviving node;
        callers holding surviving roots **must** remap through it.  Ids of
        collected nodes are reused by later allocations, so stale handles
        are invalid after this call.
        """
        level, low, high = self._level, self._low, self._high
        count = len(level)
        if count > self._peak_nodes:
            self._peak_nodes = count
        marked = bytearray(count)
        marked[FALSE] = marked[TRUE] = 1
        stack = list(self._pins)
        stack.extend(extra_roots)
        stack.extend(self._var_nodes)
        while stack:
            node = stack.pop()
            if marked[node]:
                continue
            marked[node] = 1
            stack.append(low[node])
            stack.append(high[node])

        mapping: Dict[int, int] = {}
        new_level: List[int] = []
        new_low: List[int] = []
        new_high: List[int] = []
        for old_id in range(count):
            if not marked[old_id]:
                continue
            mapping[old_id] = len(new_level)
            new_level.append(level[old_id])
            if old_id <= TRUE:
                # Terminal self-loops keep their ids (0 and 1 are always
                # the first two marked nodes).
                new_low.append(old_id)
                new_high.append(old_id)
            else:
                # Children precede parents in creation order, so they are
                # already remapped when the parent is reached.
                new_low.append(mapping[low[old_id]])
                new_high.append(mapping[high[old_id]])
        self._level, self._low, self._high = new_level, new_low, new_high
        unique: Dict[Tuple[int, int, int], int] = {}
        for node in range(2, len(new_level)):
            unique[(new_level[node], new_low[node], new_high[node])] = node
        self._unique = unique
        self.clear_caches()
        self._var_nodes = [mapping[node] for node in self._var_nodes]
        self._pins = {mapping[node]: pins
                      for node, pins in self._pins.items()}
        # Sizes do not depend on node ids, so surviving entries stay
        # valid under their remapped ids.
        self._size_memo = {mapping[node]: size
                           for node, size in self._size_memo.items()
                           if node in mapping}
        self._gc_runs += 1
        self._gc_reclaimed += count - len(new_level)
        return mapping

    # ------------------------------------------------------------------
    # Core Boolean connectives (explicit-stack apply)
    # ------------------------------------------------------------------
    def apply(self, op: str, f: int, g: int) -> int:
        """Generic binary connective: ``op`` is ``"and"``, ``"or"``, ``"xor"``."""
        try:
            tag = _APPLY_NAMES[op]
        except KeyError:
            raise ValueError("unknown apply op %r (expected one of %s)"
                             % (op, ", ".join(sorted(_APPLY_NAMES)))) from None
        return self._apply(tag, f, g)

    def _apply(self, op: int, f: int, g: int) -> int:
        """Iterative Shannon expansion of a commutative binary connective.

        Terminal cases resolve through the per-op rule triple in
        :data:`_TERMINAL_RULES`; everything else caches under
        ``(op, f, g)`` with ``f < g`` canonicalised.

        The walk is continuation-style: it descends straight into low
        cofactors, parking one ``[hi-pair, key, top]`` record per
        expansion on ``pending``, and bubbles results up in place —
        terminal pairs never touch the stack at all.
        """
        rules = _TERMINAL_RULES[op]
        # Fast head: resolve terminal or cached calls before binding the
        # dozen locals the full walk wants — most calls end here.
        if f == g:
            rule = rules[1]
            return f if rule == _OTHER else rule
        if f <= TRUE or g <= TRUE:
            if f <= TRUE:
                rule = rules[3] if f == TRUE else rules[2]
                other = g
            else:
                rule = rules[5] if g == TRUE else rules[4]
                other = f
            if rule == _OTHER:
                return other
            if rule == _NEG_OTHER:
                return self.not_(other)
            return rule
        if rules[0] and f > g:
            f, g = g, f
        cached = self._cache.get((op, f, g))
        if cached is not None:
            self._cache_hits += 1
            return cached
        la, lb = self._level[f], self._level[g]
        if (la if la < lb else lb) >= self._iter_floor:
            # Few enough levels below the top variable that plain
            # recursion cannot overflow: CPython makes that ~30% faster.
            return self._apply_rec(op, rules, f, g)
        (commutative, rule_same, a_false, a_true,
         b_false, b_true) = rules
        level, low, high = self._level, self._low, self._high
        unique = self._unique
        cache = self._cache
        unique_get = unique.get
        cache_get = cache.get
        limit = self._cache_limit
        hits = misses = 0
        # One flat 4-slot record per in-flight expansion:
        # [a1, b1, key, top] while the low half runs; the a1 slot is
        # overwritten with the low result (and b1 with -1) while the high
        # half runs.
        pending: list = []
        extend = pending.extend
        a, b = f, g
        while True:
            # -- descend: resolve (a, b) or park it and take the low half
            while True:
                if a == b:
                    result = a if rule_same == _OTHER else rule_same
                    break
                if a <= TRUE or b <= TRUE:
                    if a <= TRUE:
                        rule = a_true if a == TRUE else a_false
                        other = b
                    else:
                        rule = b_true if b == TRUE else b_false
                        other = a
                    if rule == _OTHER:
                        result = other
                    elif rule == _NEG_OTHER:
                        # Probe the NOT cache inline; the full call is
                        # only worth its setup cost on a genuine miss.
                        result = cache_get((_OP_NOT, other))
                        if result is None:
                            result = self.not_(other)
                        else:
                            hits += 1
                    else:
                        result = rule
                    break
                if commutative and a > b:
                    a, b = b, a
                key = (op, a, b)
                result = cache_get(key)
                if result is not None:
                    hits += 1
                    break
                misses += 1
                la, lb = level[a], level[b]
                if la <= lb:
                    top, a0, a1 = la, low[a], high[a]
                else:
                    top, a0, a1 = lb, a, a
                if lb <= la:
                    b0, b1 = low[b], high[b]
                else:
                    b0, b1 = b, b
                # Resolve a terminal high half inline (very common — e.g.
                # the FALSE absorber of AND) and park it pre-combined:
                # that half then never takes a descend trip at all.
                if a1 == b1:
                    hi_r = a1 if rule_same == _OTHER else rule_same
                elif a1 <= TRUE:
                    rule = a_true if a1 == TRUE else a_false
                    if rule == _OTHER:
                        hi_r = b1
                    elif rule == _NEG_OTHER:
                        hi_r = cache_get((_OP_NOT, b1))
                        if hi_r is None:
                            hi_r = self.not_(b1)
                        else:
                            hits += 1
                    else:
                        hi_r = rule
                elif b1 <= TRUE:
                    rule = b_true if b1 == TRUE else b_false
                    if rule == _OTHER:
                        hi_r = a1
                    elif rule == _NEG_OTHER:
                        hi_r = cache_get((_OP_NOT, a1))
                        if hi_r is None:
                            hi_r = self.not_(a1)
                        else:
                            hits += 1
                    else:
                        hi_r = rule
                else:
                    hi_r = -1
                if hi_r < 0:
                    extend((a1, b1, key, top))
                else:
                    extend((hi_r, -2, key, top))
                a, b = a0, b0
            # -- bubble: feed the result to the innermost pending record
            while True:
                if not pending:
                    self._cache_hits += hits
                    self._cache_misses += misses
                    return result
                b = pending[-3]
                if b == -2:
                    # High half was pre-resolved at expansion: combine now.
                    lo = result
                    result = pending[-4]
                    key = pending[-2]
                    top = pending[-1]
                    del pending[-4:]
                elif b != -1:
                    # Low half done: stash it, launch the high half.
                    a = pending[-4]
                    pending[-4] = result
                    pending[-3] = -1
                    break
                else:
                    lo = pending[-4]
                    key = pending[-2]
                    top = pending[-1]
                    del pending[-4:]
                if lo == result:
                    node = lo
                else:
                    ukey = (top, lo, result)
                    node = unique_get(ukey)
                    if node is None:
                        node = len(level)
                        level.append(top)
                        low.append(lo)
                        high.append(result)
                        unique[ukey] = node
                cache[key] = node
                if len(cache) >= limit:
                    self._flush_cache()
                result = node

    def _apply_rec(self, op: int, rules: Tuple, f: int, g: int) -> int:
        """Bounded-depth recursive twin of :meth:`_apply`.

        Only reached when the top variable has at most
        :data:`MAX_RECURSIVE_LEVELS` levels below it (checked by the
        caller), so the recursion cannot approach the interpreter limit.
        Same terminal-rule table, same cache keys, same counters.
        """
        if f == g:
            rule = rules[1]
            return f if rule == _OTHER else rule
        if f <= TRUE or g <= TRUE:
            if f <= TRUE:
                rule = rules[3] if f == TRUE else rules[2]
                other = g
            else:
                rule = rules[5] if g == TRUE else rules[4]
                other = f
            if rule == _OTHER:
                return other
            if rule == _NEG_OTHER:
                return self._not_rec(other)
            return rule
        if rules[0] and f > g:
            f, g = g, f
        key = (op, f, g)
        cache = self._cache
        node = cache.get(key)
        if node is not None:
            self._cache_hits += 1
            return node
        self._cache_misses += 1
        level = self._level
        la, lb = level[f], level[g]
        if la <= lb:
            top, a0, a1 = la, self._low[f], self._high[f]
        else:
            top, a0, a1 = lb, f, f
        if lb <= la:
            b0, b1 = self._low[g], self._high[g]
        else:
            b0, b1 = g, g
        lo = self._apply_rec(op, rules, a0, b0)
        hi = self._apply_rec(op, rules, a1, b1)
        node = lo if lo == hi else self._mk(top, lo, hi)
        cache[key] = node
        if len(cache) >= self._cache_limit:
            self._flush_cache()
        return node

    def _not_rec(self, f: int) -> int:
        """Bounded-depth recursive twin of :meth:`not_`."""
        if f <= TRUE:
            return TRUE - f
        key = (_OP_NOT, f)
        cache = self._cache
        node = cache.get(key)
        if node is not None:
            self._cache_hits += 1
            return node
        self._cache_misses += 1
        node = self._mk(self._level[f], self._not_rec(self._low[f]),
                        self._not_rec(self._high[f]))
        cache[key] = node
        if len(cache) >= self._cache_limit:
            self._flush_cache()
        return node

    def _ite_rec(self, f: int, g: int, h: int) -> int:
        """Bounded-depth recursive twin of the :meth:`ite` walk."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self._not_rec(f)
        key = (_OP_ITE, f, g, h)
        cache = self._cache
        node = cache.get(key)
        if node is not None:
            self._cache_hits += 1
            return node
        self._cache_misses += 1
        level = self._level
        la, lb, lc = level[f], level[g], level[h]
        top = la if la < lb else lb
        if lc < top:
            top = lc
        if la == top:
            f0, f1 = self._low[f], self._high[f]
        else:
            f0 = f1 = f
        if lb == top:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        if lc == top:
            h0, h1 = self._low[h], self._high[h]
        else:
            h0 = h1 = h
        lo = self._ite_rec(f0, g0, h0)
        hi = self._ite_rec(f1, g1, h1)
        node = lo if lo == hi else self._mk(top, lo, hi)
        cache[key] = node
        if len(cache) >= self._cache_limit:
            self._flush_cache()
        return node

    def _cofactor_rec(self, f: int, var: int, value: bool) -> int:
        """Bounded-depth recursive twin of the :meth:`cofactor` walk."""
        lvl = self._level[f]
        if lvl > var:
            return f
        key = (_OP_COFACTOR, f, var, value)
        cache = self._cache
        node = cache.get(key)
        if node is not None:
            self._cache_hits += 1
            return node
        self._cache_misses += 1
        if lvl == var:
            node = self._high[f] if value else self._low[f]
        else:
            node = self._mk(lvl,
                            self._cofactor_rec(self._low[f], var, value),
                            self._cofactor_rec(self._high[f], var, value))
        cache[key] = node
        if len(cache) >= self._cache_limit:
            self._flush_cache()
        return node

    def _quant_rec(self, f: int, var_key: Tuple[int, ...], var_set,
                   max_var: int, cache_op: int, combine) -> int:
        """Bounded-depth recursive twin of the quantifier walk."""
        if f <= TRUE or self._level[f] > max_var:
            return f
        key = (cache_op, f, var_key)
        cache = self._cache
        node = cache.get(key)
        if node is not None:
            self._cache_hits += 1
            return node
        self._cache_misses += 1
        lvl = self._level[f]
        lo = self._quant_rec(self._low[f], var_key, var_set, max_var,
                             cache_op, combine)
        hi = self._quant_rec(self._high[f], var_key, var_set, max_var,
                             cache_op, combine)
        if lvl in var_set:
            node = combine(lo, hi)
        elif lo == hi:
            node = lo
        else:
            node = self._mk(lvl, lo, hi)
        cache[key] = node
        if len(cache) >= self._cache_limit:
            self._flush_cache()
        return node

    def not_(self, f: int) -> int:
        """Complement of ``f``."""
        if f <= TRUE:
            return TRUE - f
        cached = self._cache.get((_OP_NOT, f))
        if cached is not None:
            self._cache_hits += 1
            return cached
        if self._level[f] >= self._iter_floor:
            return self._not_rec(f)
        level, low, high = self._level, self._low, self._high
        unique = self._unique
        cache = self._cache
        unique_get = unique.get
        cache_get = cache.get
        limit = self._cache_limit
        hits = misses = 0
        # Continuation-style walk; one [hi, phase, key, lvl] record per
        # in-flight node, the hi slot re-used for the low result.
        pending: list = []
        extend = pending.extend
        node = f
        while True:
            while True:
                if node <= TRUE:
                    result = TRUE - node
                    break
                key = (_OP_NOT, node)
                result = cache_get(key)
                if result is not None:
                    hits += 1
                    break
                misses += 1
                extend((high[node], 0, key, level[node]))
                node = low[node]
            while True:
                if not pending:
                    self._cache_hits += hits
                    self._cache_misses += misses
                    return result
                if pending[-3] != -1:
                    node = pending[-4]
                    pending[-4] = result
                    pending[-3] = -1
                    break
                lo = pending[-4]
                key = pending[-2]
                lvl = pending[-1]
                del pending[-4:]
                if lo == result:
                    made = lo
                else:
                    ukey = (lvl, lo, result)
                    made = unique_get(ukey)
                    if made is None:
                        made = len(level)
                        level.append(lvl)
                        low.append(lo)
                        high.append(result)
                        unique[ukey] = made
                cache[key] = made
                if len(cache) >= limit:
                    self._flush_cache()
                result = made

    # The four wrappers below duplicate their op's terminal rules and the
    # cache probe so that the overwhelmingly common resolved-in-O(1) calls
    # pay a single Python call; only cold walks enter _apply.

    def and_(self, f: int, g: int) -> int:
        """Conjunction of ``f`` and ``g``."""
        if f == g or g == TRUE:
            return f
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE:
            return g
        if f > g:
            f, g = g, f
        cached = self._cache.get((_OP_AND, f, g))
        if cached is not None:
            self._cache_hits += 1
            return cached
        # Literal-above fast path: conjoining a literal onto a function
        # below it (the cube/minterm construction pattern) is one _mk.
        lo, hi = self._low[f], self._high[f]
        if lo <= TRUE and hi <= TRUE and lo != hi \
                and self._level[f] < self._level[g]:
            if hi == TRUE:
                return self._mk(self._level[f], FALSE, g)
            return self._mk(self._level[f], g, FALSE)
        return self._apply(_OP_AND, f, g)

    def or_(self, f: int, g: int) -> int:
        """Disjunction of ``f`` and ``g``."""
        if f == g or g == FALSE:
            return f
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE:
            return g
        if f > g:
            f, g = g, f
        cached = self._cache.get((_OP_OR, f, g))
        if cached is not None:
            self._cache_hits += 1
            return cached
        # Literal-above fast path, dual of the one in and_().
        lo, hi = self._low[f], self._high[f]
        if lo <= TRUE and hi <= TRUE and lo != hi \
                and self._level[f] < self._level[g]:
            if hi == TRUE:
                return self._mk(self._level[f], g, TRUE)
            return self._mk(self._level[f], TRUE, g)
        return self._apply(_OP_OR, f, g)

    def xor_(self, f: int, g: int) -> int:
        """Exclusive-or of ``f`` and ``g``."""
        if f == g:
            return FALSE
        if f == FALSE:
            return g
        if g == FALSE:
            return f
        if f == TRUE:
            return self.not_(g)
        if g == TRUE:
            return self.not_(f)
        if f > g:
            f, g = g, f
        cached = self._cache.get((_OP_XOR, f, g))
        if cached is not None:
            self._cache_hits += 1
            return cached
        return self._apply(_OP_XOR, f, g)

    def xnor_(self, f: int, g: int) -> int:
        """Equivalence (XNOR) of ``f`` and ``g``."""
        return self.not_(self.xor_(f, g))

    def implies(self, f: int, g: int) -> bool:
        """Decide the inclusion ``f <= g`` (i.e. ``f & ~g == 0``)."""
        return self.diff(f, g) == FALSE

    def diff(self, f: int, g: int) -> int:
        """Set difference ``f & ~g`` (a fused apply; ``~g`` is never built)."""
        if f == g or f == FALSE or g == TRUE:
            return FALSE
        if g == FALSE:
            return f
        if f == TRUE:
            return self.not_(g)
        cached = self._cache.get((_OP_ANDNOT, f, g))
        if cached is not None:
            self._cache_hits += 1
            return cached
        return self._apply(_OP_ANDNOT, f, g)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f & g) | (~f & h)``."""
        level, low, high = self._level, self._low, self._high
        # Entry reductions.  Constant (or guard-equal) legs become binary
        # applies: smaller keys, results shared with direct and/or/diff
        # calls through the same computed table.
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE or f == g:
            return self._apply(_OP_OR, f, h)                # f | h
        if g == FALSE:
            return self._apply(_OP_ANDNOT, h, f)            # ~f & h
        if h == FALSE or f == h:
            return self._apply(_OP_AND, f, g)               # f & g
        if h == TRUE:
            return self.not_(self._apply(_OP_ANDNOT, f, g))  # ~f | g
        # The dominant in-repo shape (isop / gencof / safemin rebuilds):
        # a plain variable guard above both legs needs no traversal.
        top = level[f]
        if (low[f] == FALSE and high[f] == TRUE
                and level[g] > top and level[h] > top):
            return self._mk(top, h, g)
        cached = self._cache.get((_OP_ITE, f, g, h))
        if cached is not None:
            self._cache_hits += 1
            return cached
        lg, lh = level[g], level[h]
        if lg < top:
            top = lg
        if lh < top:
            top = lh
        if top >= self._iter_floor:
            return self._ite_rec(f, g, h)
        unique = self._unique
        cache = self._cache
        unique_get = unique.get
        cache_get = cache.get
        limit = self._cache_limit
        hits = misses = 0
        # Continuation-style walk; one [a1, b1, c1, key, top] record per
        # in-flight expansion, the a1/c1 slots re-used for the low result
        # and the in-flight marker.
        pending: list = []
        extend = pending.extend
        a, b, c = f, g, h
        while True:
            while True:
                if a == TRUE:
                    result = b
                    break
                if a == FALSE:
                    result = c
                    break
                if b == c:
                    result = b
                    break
                if b == TRUE and c == FALSE:
                    result = a
                    break
                if b == FALSE and c == TRUE:
                    result = cache_get((_OP_NOT, a))
                    if result is None:
                        result = self.not_(a)
                    else:
                        hits += 1
                    break
                key = (_OP_ITE, a, b, c)
                result = cache_get(key)
                if result is not None:
                    hits += 1
                    break
                misses += 1
                la, lb, lc = level[a], level[b], level[c]
                top = la if la < lb else lb
                if lc < top:
                    top = lc
                if la == top:
                    a0, a1 = low[a], high[a]
                else:
                    a0 = a1 = a
                if lb == top:
                    b0, b1 = low[b], high[b]
                else:
                    b0 = b1 = b
                if lc == top:
                    c0, c1 = low[c], high[c]
                else:
                    c0 = c1 = c
                extend((a1, b1, c1, key, top))
                a, b, c = a0, b0, c0
            while True:
                if not pending:
                    self._cache_hits += hits
                    self._cache_misses += misses
                    return result
                c = pending[-3]
                if c != -1:
                    # Low half done: stash it, launch the high half.
                    a = pending[-5]
                    b = pending[-4]
                    pending[-5] = result
                    pending[-3] = -1
                    break
                lo = pending[-5]
                key = pending[-2]
                top = pending[-1]
                del pending[-5:]
                if lo == result:
                    node = lo
                else:
                    ukey = (top, lo, result)
                    node = unique_get(ukey)
                    if node is None:
                        node = len(level)
                        level.append(top)
                        low.append(lo)
                        high.append(result)
                        unique[ukey] = node
                cache[key] = node
                if len(cache) >= limit:
                    self._flush_cache()
                result = node

    # ------------------------------------------------------------------
    # Cofactors and quantification
    # ------------------------------------------------------------------
    def cofactor(self, f: int, var: int, value: bool) -> int:
        """Restrict variable ``var`` of ``f`` to ``value`` (Definition 6.2)."""
        level, low, high = self._level, self._low, self._high
        if level[f] > var:
            return f
        cached = self._cache.get((_OP_COFACTOR, f, var, value))
        if cached is not None:
            self._cache_hits += 1
            return cached
        if level[f] >= self._iter_floor:
            return self._cofactor_rec(f, var, value)
        unique = self._unique
        cache = self._cache
        unique_get = unique.get
        cache_get = cache.get
        limit = self._cache_limit
        hits = misses = 0
        # Continuation-style walk; one [hi, phase, key, lvl] record per
        # in-flight node, the hi slot re-used for the low result.
        pending: list = []
        extend = pending.extend
        node = f
        while True:
            while True:
                lvl = level[node]
                if lvl > var:
                    result = node
                    break
                key = (_OP_COFACTOR, node, var, value)
                result = cache_get(key)
                if result is not None:
                    hits += 1
                    break
                misses += 1
                if lvl == var:
                    result = high[node] if value else low[node]
                    cache[key] = result
                    if len(cache) >= limit:
                        self._flush_cache()
                    break
                extend((high[node], 0, key, lvl))
                node = low[node]
            while True:
                if not pending:
                    self._cache_hits += hits
                    self._cache_misses += misses
                    return result
                if pending[-3] != -1:
                    node = pending[-4]
                    pending[-4] = result
                    pending[-3] = -1
                    break
                lo = pending[-4]
                key = pending[-2]
                lvl = pending[-1]
                del pending[-4:]
                if lo == result:
                    made = lo
                else:
                    ukey = (lvl, lo, result)
                    made = unique_get(ukey)
                    if made is None:
                        made = len(level)
                        level.append(lvl)
                        low.append(lo)
                        high.append(result)
                        unique[ukey] = made
                cache[key] = made
                if len(cache) >= limit:
                    self._flush_cache()
                result = made

    def restrict_cube(self, f: int, assignment: Dict[int, bool]) -> int:
        """Restrict several variables at once; ``assignment`` maps var->value."""
        result = f
        for var, value in sorted(assignment.items()):
            result = self.cofactor(result, var, value)
        return result

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential abstraction of ``variables`` from ``f``."""
        var_key = self._quant_key(variables)
        if not var_key:
            return f
        return self._quant_iter(f, var_key, _OP_EXISTS, _OP_OR)

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal abstraction of ``variables`` from ``f``.

        Runs the same walk as :meth:`exists` with an AND combine instead
        of complementing twice around an existential abstraction.
        """
        var_key = self._quant_key(variables)
        if not var_key:
            return f
        return self._quant_iter(f, var_key, _OP_FORALL, _OP_AND)

    @staticmethod
    def _quant_key(variables: Iterable[int]) -> Tuple[int, ...]:
        return tuple(sorted(set(variables)))

    def _quant_iter(self, f: int, var_key: Tuple[int, ...],
                    cache_op: int, combine_op: int) -> int:
        """Explicit-stack quantifier abstraction.

        Quantified levels combine children with ``combine_op`` (OR for
        exists, AND for forall); other levels rebuild the node.
        Subresults cache under ``(cache_op, node, vars)``.
        """
        max_var = var_key[-1]
        if f <= TRUE or self._level[f] > max_var:
            return f
        cached = self._cache.get((cache_op, f, var_key))
        if cached is not None:
            self._cache_hits += 1
            return cached
        var_set = frozenset(var_key)
        if self._level[f] >= self._iter_floor:
            return self._quant_rec(
                f, var_key, var_set, max_var, cache_op,
                self.or_ if combine_op == _OP_OR else self.and_)
        level, low, high = self._level, self._low, self._high
        unique = self._unique
        cache = self._cache
        unique_get = unique.get
        cache_get = cache.get
        limit = self._cache_limit
        # The wrapper (cheap fast head) beats _apply's full setup for the
        # mostly-warm combine calls at quantified levels.
        combine = self.or_ if combine_op == _OP_OR else self.and_
        hits = misses = 0
        # Continuation-style walk; one [hi, phase, key, lvl] record per
        # in-flight node, the hi slot re-used for the low result.
        pending: list = []
        extend = pending.extend
        node = f
        while True:
            while True:
                if node <= TRUE or level[node] > max_var:
                    result = node
                    break
                key = (cache_op, node, var_key)
                result = cache_get(key)
                if result is not None:
                    hits += 1
                    break
                misses += 1
                extend((high[node], 0, key, level[node]))
                node = low[node]
            while True:
                if not pending:
                    self._cache_hits += hits
                    self._cache_misses += misses
                    return result
                if pending[-3] != -1:
                    node = pending[-4]
                    pending[-4] = result
                    pending[-3] = -1
                    break
                lo = pending[-4]
                key = pending[-2]
                lvl = pending[-1]
                del pending[-4:]
                if lvl in var_set:
                    made = combine(lo, result)
                elif lo == result:
                    made = lo
                else:
                    ukey = (lvl, lo, result)
                    made = unique_get(ukey)
                    if made is None:
                        made = len(level)
                        level.append(lvl)
                        low.append(lo)
                        high.append(result)
                        unique[ukey] = made
                cache[key] = made
                if len(cache) >= limit:
                    self._flush_cache()
                result = made

    # ------------------------------------------------------------------
    # Composition and permutation
    # ------------------------------------------------------------------
    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` inside ``f``."""
        if self._level[f] > var:
            return f
        return self.ite(g, self.cofactor(f, var, True),
                        self.cofactor(f, var, False))

    def _rebuild(self, f: int, guard_of_level) -> int:
        """Bottom-up reconstruction of ``f`` with substituted guards.

        ``guard_of_level(level)`` returns the node steering each rebuilt
        branch; shared sub-DAGs are rebuilt once through a per-call memo.
        Backbone of :meth:`vector_compose` and :meth:`permute`.
        """
        memo: Dict[int, int] = {}
        low, high = self._low, self._high
        tasks: list = [f, False]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        while tasks:
            if pop():
                node = pop()
                hi = results.pop()
                lo = results.pop()
                result = self.ite(guard_of_level(self._level[node]), hi, lo)
                memo[node] = result
                results.append(result)
                continue
            node = pop()
            if node <= TRUE:
                results.append(node)
                continue
            hit = memo.get(node)
            if hit is not None:
                results.append(hit)
                continue
            push(node)
            push(True)
            push(high[node])
            push(False)
            push(low[node])
            push(False)
        return results[0]

    def vector_compose(self, f: int, substitution: Dict[int, int]) -> int:
        """Substitute several variables simultaneously.

        ``substitution`` maps variable index to replacement node.  The
        substitution is simultaneous: replacement functions are *not*
        re-substituted.  This is implemented by a single bottom-up rebuild.
        """
        if not substitution:
            return f
        sub_key = tuple(sorted(substitution.items()))
        key = (_OP_COMPOSE, f, sub_key)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        var_nodes = self._var_nodes

        def guard(level: int) -> int:
            node = substitution.get(level)
            return var_nodes[level] if node is None else node

        result = self._rebuild(f, guard)
        self._cache_put(key, result)
        return result

    def permute(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables of ``f`` according to ``mapping`` (var -> var).

        The mapping must be injective on the support of ``f``; variables not
        mentioned are left in place.
        """
        if not mapping:
            return f
        map_key = tuple(sorted(mapping.items()))
        key = (_OP_PERMUTE, f, map_key)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        var_nodes = self._var_nodes

        def guard(level: int) -> int:
            return var_nodes[mapping.get(level, level)]

        result = self._rebuild(f, guard)
        self._cache_put(key, result)
        return result

    def swap_vars(self, f: int, var_a: int, var_b: int) -> int:
        """Exchange two variables of ``f`` (used by symmetry detection)."""
        return self.permute(f, {var_a: var_b, var_b: var_a})

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def support(self, f: int) -> Tuple[int, ...]:
        """Return the sorted tuple of variables ``f`` depends on."""
        seen = set()
        variables = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            variables.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return tuple(sorted(variables))

    def size(self, f: int) -> int:
        """Number of internal (non-terminal) DAG nodes of ``f``.

        This is the paper's BDD-size cost metric (Section 7.3); the constant
        functions have size 0.  Memoised per node (the solver prices the
        same candidates repeatedly).
        """
        size = self._size_memo.get(f)
        if size is None:
            size = self._size_memo[f] = self.shared_size((f,))
        return size

    def shared_size(self, functions: Sequence[int]) -> int:
        """DAG node count of a set of functions with sharing."""
        seen = set()
        stack = list(functions)
        count = 0
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            count += 1
            stack.append(self._low[node])
            stack.append(self._high[node])
        return count

    def sat_count(self, f: int, variables: Sequence[int]) -> int:
        """Number of satisfying assignments of ``f`` over ``variables``.

        ``variables`` must be a superset of ``support(f)``.
        """
        total = len(set(variables))
        # With count(TRUE) = 2^total, halving once per internal node on a
        # path leaves 2^(total - k) assignments for a path with k literals,
        # which sums to the exact model count; skipped levels need no
        # special handling.
        memo: Dict[int, int] = {FALSE: 0, TRUE: 1 << total}
        low, high = self._low, self._high
        stack = [f]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            lo, hi = low[node], high[node]
            ready = True
            if lo not in memo:
                stack.append(lo)
                ready = False
            if hi not in memo:
                stack.append(hi)
                ready = False
            if ready:
                stack.pop()
                memo[node] = (memo[lo] + memo[hi]) >> 1
        return memo[f]

    def eval(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a (complete-on-support) variable assignment."""
        node = f
        while node > TRUE:
            if assignment[self._level[node]]:
                node = self._high[node]
            else:
                node = self._low[node]
        return node == TRUE

    # ------------------------------------------------------------------
    # Cube construction helpers
    # ------------------------------------------------------------------
    def cube(self, assignment: Dict[int, bool]) -> int:
        """Build the conjunction of literals described by ``assignment``."""
        result = TRUE
        for var in sorted(assignment, reverse=True):
            literal = (self._var_nodes[var] if assignment[var]
                       else self.nvar(var))
            result = self.and_(literal, result)
        return result

    def minterm(self, variables: Sequence[int], value: int) -> int:
        """Build the minterm of ``variables`` encoded by integer ``value``.

        Bit ``i`` of ``value`` gives the polarity of ``variables[i]``
        (bit 0 == first variable in the sequence).
        """
        assignment = {var: bool((value >> i) & 1)
                      for i, var in enumerate(variables)}
        return self.cube(assignment)

    def from_minterms(self, variables: Sequence[int],
                      values: Iterable[int]) -> int:
        """Disjunction of :meth:`minterm` over ``values``."""
        result = FALSE
        for value in values:
            result = self.or_(result, self.minterm(variables, value))
        return result

    def minterms(self, f: int, variables: Sequence[int]) -> Iterator[int]:
        """Yield the integer encodings of all minterms of ``f``.

        ``variables`` must cover the support of ``f``; bit ``i`` of each
        yielded value is the polarity of ``variables[i]``.
        """
        n = len(variables)
        if n == 0:
            if f == TRUE:
                yield 0
            return
        position = {var: i for i, var in enumerate(variables)}
        var_levels = sorted(position)
        depth = len(var_levels)
        level, low, high = self._level, self._low, self._high
        stack = [(f, 0, 0)]
        while stack:
            node, index, acc = stack.pop()
            if node == FALSE:
                continue
            if index == depth:
                yield acc
                continue
            var = var_levels[index]
            if node > TRUE and level[node] == var:
                lo, hi = low[node], high[node]
            else:
                lo = hi = node
            # Low branch first (matches the recursive enumeration order).
            stack.append((hi, index + 1, acc | (1 << position[var])))
            stack.append((lo, index + 1, acc))

    # ------------------------------------------------------------------
    # Two-level synthesis
    # ------------------------------------------------------------------

    def isop(self, lower: int,
             upper: int) -> Tuple[List[Dict[int, bool]], int]:
        """Irredundant SOP cover of a function in ``[lower, upper]``.

        Part of the :class:`~repro.bdd.backend.FunctionBackend`
        protocol; runs the Minato-Morreale expansion through
        :func:`repro.bdd.packed.interval_isop` — packed truth tables over
        the joint support of at most 16 variables, node by node
        (:mod:`repro.bdd.isop`) beyond — against this manager's ISOP
        table, which lives for the whole enclosing solve
        (:meth:`enter_solve`): a sub-interval any earlier call of the
        solve expanded costs a lookup.  Outside a solve the table lives
        for this call only.
        """
        from .packed import interval_isop
        return interval_isop(self, lower, upper)
