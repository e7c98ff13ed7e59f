"""Packed truth-table function engine (the narrow-subproblem kernel).

A function over ``n`` variables is its full truth table packed into
``2**n`` bits: bit ``i`` is the function value under the assignment
where variable ``v`` takes ``(i >> v) & 1``.  Every Boolean connective
is then one bitwise operation over the whole table at once — 4096
function values per AND for ``n = 12`` — and cofactors/quantifiers are
shift-and-mask folds.  No node store, no hash-consing of subgraphs, no
garbage collector.

Two interchangeable *kernels* hold the raw tables:

* the **int** kernel packs each table into one arbitrary-precision
  Python integer (capped at :data:`MAX_TABLE_WIDTH` variables — bigint
  shifts pay per-limb costs that grow with the table);
* the **numpy** kernel (:mod:`repro.table.npkernel`, optional) packs it
  into a little-endian ``uint64`` word array, where the same ops
  vectorise and the ceiling lifts to
  :data:`~repro.table.npkernel.MAX_NUMPY_TABLE_WIDTH` variables.

The ``kernel`` knob selects one (``"int"``/``"numpy"``/``"auto"``;
``None`` honours the ``REPRO_TABLE_KERNEL`` environment variable, then
defaults to auto).  Handle-level semantics are kernel-independent:
handles, structural views, fingerprints, ISOP covers and minterm
orders are byte-identical across kernels.

:class:`TableManager` implements the full
:class:`repro.bdd.FunctionBackend` protocol, with the contracts core
code relies on:

* **Interned handles.** Tables are interned, so handles are dense ints
  with handle equality == semantic equality, and ``FALSE == 0`` /
  ``TRUE == 1`` exactly as in :class:`repro.bdd.BddManager`.
* **Reduced-BDD view.** ``level``/``low``/``high`` present the table as
  its (virtual) reduced BDD — top variable and cofactors — so
  structural walks (shortest-path cubes, minterm enumeration) make
  byte-identical decisions on either backend.
* **One ISOP.** :meth:`TableManager.isop` enters the packed-interval
  kernel of :mod:`repro.bdd.packed` that the BDD engine uses too: the
  manager's tables already are packed ints over its frame and go in
  with their index order reversed (the numpy kernel's through
  ``to_int``/``from_int``).  Only frames wider than 16 variables
  (numpy kernel) take the shared node-level expansion of
  :mod:`repro.bdd.isop`.
* **Hash/cost parity.** ``fingerprint*`` and ``node_signature``
  reproduce the canonical BDD values bit-for-bit (same mixers, same
  terminal seeds) and ``size`` counts reduced-BDD nodes, so memo
  signatures and the paper's BDD-size cost agree across backends.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from ..bdd.manager import (FALSE, TRUE, TERMINAL_LEVEL, _FP_FALSE,
                           _FP_TRUE, _TERMINAL_SIGNATURES, IsopTable,
                           _fp_mix, node_signature_of)
from ..bdd.packed import MAX_TABLE_WIDTH, interval_isop
from .npkernel import (KERNEL_CHOICES, MAX_NUMPY_TABLE_WIDTH,
                       NumpyKernel, resolve_kernel)

__all__ = ["KERNEL_CHOICES", "MAX_NUMPY_TABLE_WIDTH", "MAX_TABLE_WIDTH",
           "TableManager"]

#: Flush threshold of the per-operation result cache, and the entry
#: limit of the ISOP table.
_OP_CACHE_LIMIT = 1 << 16

# Operation tags for the result cache.
_OP_AND, _OP_OR, _OP_XOR, _OP_ANDNOT = 0, 1, 2, 3
_APPLY_NAMES = {"and": _OP_AND, "or": _OP_OR, "xor": _OP_XOR,
                "andnot": _OP_ANDNOT}


class _IntKernel:
    """Raw-table primitives over arbitrary-precision Python ints.

    The reference kernel: zero dependencies, exact historical
    semantics.  ``NumpyKernel`` implements the same interface over
    ``uint64`` word arrays; :class:`TableManager` is written purely in
    terms of this interface plus interning keys (:meth:`key`).
    """

    name = "int"

    def __init__(self) -> None:
        self.size = 1
        self.full = 1
        # _zero_masks[v] marks the table positions where variable v is 0.
        self._zero_masks: List[int] = []

    # -- lifecycle ----------------------------------------------------

    def grow(self) -> None:
        size = self.size
        self._zero_masks = [a | (a << size) for a in self._zero_masks]
        # Zero-mask of the new variable: the (now) lower half of the
        # doubled table is exactly where it is 0.
        self._zero_masks.append((1 << size) - 1)
        self.size = size << 1
        self.full = (1 << self.size) - 1

    def widen(self, table: int) -> int:
        return table | (table << (self.size >> 1))

    # -- raw bitwise ops ----------------------------------------------

    def band(self, a: int, b: int) -> int:
        return a & b

    def bor(self, a: int, b: int) -> int:
        return a | b

    def bxor(self, a: int, b: int) -> int:
        return a ^ b

    def bandnot(self, a: int, b: int) -> int:
        return a & (self.full ^ b)

    def bnot(self, a: int) -> int:
        return self.full ^ a

    def ite_raw(self, a: int, b: int, c: int) -> int:
        return (a & b) | ((self.full ^ a) & c)

    # -- predicates ---------------------------------------------------

    def is_zero(self, a: int) -> bool:
        return a == 0

    def is_full(self, a: int) -> bool:
        return a == self.full

    def equal(self, a: int, b: int) -> bool:
        return a == b

    def is_subset(self, a: int, b: int) -> bool:
        return a & (self.full ^ b) == 0

    def key(self, table: int) -> int:
        return table

    # -- per-variable structure ---------------------------------------

    def literal(self, var: int, positive: bool) -> int:
        zero = self._zero_masks[var]
        return (self.full ^ zero) if positive else zero

    def cofactor(self, table: int, var: int, value: bool) -> int:
        shift = 1 << var
        zero = self._zero_masks[var]
        if value:
            half = (table >> shift) & zero
        else:
            half = table & zero
        return half | (half << shift)

    def exists1(self, table: int, var: int) -> int:
        shift = 1 << var
        zero = self._zero_masks[var]
        half = (table & zero) | ((table >> shift) & zero)
        return half | (half << shift)

    def forall1(self, table: int, var: int) -> int:
        shift = 1 << var
        zero = self._zero_masks[var]
        half = (table & zero) & ((table >> shift) & zero)
        return half | (half << shift)

    def depends(self, table: int, var: int) -> bool:
        shift = 1 << var
        zero = self._zero_masks[var]
        return (table & zero) != ((table >> shift) & zero)

    # -- scalar views -------------------------------------------------

    def popcount(self, table: int) -> int:
        return bin(table).count("1")

    def get_bit(self, table: int, position: int) -> int:
        return (table >> position) & 1

    def from_int(self, value: int) -> int:
        return value

    def to_int(self, table: int) -> int:
        return table


class TableManager:
    """A truth-table function engine over a bounded variable frame.

    Parameters
    ----------
    var_names:
        Optional initial variable names, as in ``BddManager``.
    max_width:
        Maximum number of variables this manager will accept (default
        12); :meth:`add_var` raises beyond it.  The hard cap is :data:`MAX_TABLE_WIDTH` unless ``kernel``
        explicitly allows numpy (``"numpy"``/``"auto"``), which lifts
        it to :data:`~repro.table.npkernel.MAX_NUMPY_TABLE_WIDTH` —
        the cap never depends on the environment, so a given
        construction fails identically on every machine.
    kernel:
        Raw-table kernel: ``"int"``, ``"numpy"``, ``"auto"`` (numpy
        when importable and ``max_width`` is past the crossover), or
        ``None`` to honour ``REPRO_TABLE_KERNEL`` and default to auto.
        Only an explicit ``"numpy"`` raises when numpy is missing.

    Examples
    --------
    >>> mgr = TableManager(["a", "b"])
    >>> a, b = mgr.var(0), mgr.var(1)
    >>> f = mgr.and_(a, mgr.not_(b))
    >>> mgr.eval(f, {0: True, 1: False})
    True
    """

    def __init__(self, var_names: Optional[Iterable[str]] = None,
                 max_width: int = 12,
                 kernel: Optional[str] = None):
        if kernel not in KERNEL_CHOICES:
            raise ValueError("kernel must be one of %r, got %r"
                             % (KERNEL_CHOICES, kernel))
        cap = (MAX_NUMPY_TABLE_WIDTH if kernel in ("numpy", "auto")
               else MAX_TABLE_WIDTH)
        if not 1 <= max_width <= cap:
            raise ValueError("max_width must be in 1..%d, got %r"
                             % (cap, max_width))
        self.max_width = max_width
        #: Resolved kernel name, ``"int"`` or ``"numpy"``.
        self.kernel = resolve_kernel(kernel, max_width)
        self._k = (NumpyKernel() if self.kernel == "numpy"
                   else _IntKernel())
        self._names: List[str] = []
        # Interning: handle -> raw table, kernel key -> handle.  FALSE
        # and TRUE are interned first so their handles are 0 and 1.
        k = self._k
        self._tables = [k.from_int(0), k.from_int(1)]
        self._index = {k.key(self._tables[0]): 0,
                       k.key(self._tables[1]): 1}
        self._peak = 2
        # Handle-keyed memos (cheap small-int keys instead of re-hashing
        # multi-kilobit tables).
        self._op_cache: Dict[Tuple, int] = {}
        self._fp_memo: Dict[int, int] = {FALSE: _FP_FALSE, TRUE: _FP_TRUE}
        self._support_memo: Dict[int, Tuple[int, ...]] = {}
        self._size_memo: Dict[int, int] = {}
        self._sig_memo: Dict[int, Tuple[Tuple[int, ...], int]] = \
            dict(_TERMINAL_SIGNATURES)
        self._supports: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_flushes = 0
        # Solve-wide ISOP table (see enter_solve).
        self._isop_table: Optional[IsopTable] = None
        self._solve_depth = 0
        self._isop_hits = 0
        self._isop_misses = 0
        if var_names is not None:
            for name in var_names:
                self.add_var(name)

    # ------------------------------------------------------------------
    # Variable frame
    # ------------------------------------------------------------------
    def add_var(self, name: Optional[str] = None) -> int:
        """Create a fresh variable; raises past the configured width."""
        index = len(self._names)
        if index >= self.max_width:
            raise ValueError(
                "TableManager is limited to %d variables; widen max_width "
                "(<= %d) or use the BDD backend"
                % (self.max_width,
                   MAX_NUMPY_TABLE_WIDTH if self.kernel == "numpy"
                   else MAX_TABLE_WIDTH))
        if name is None:
            name = "v%d" % index
        self._names.append(name)
        # Widen every interned table: the new variable is irrelevant to
        # existing functions, so their tables duplicate into the new
        # upper half.  Widening commutes with all bitwise kernels, so
        # handle-keyed caches (ops, fingerprints, supports, sizes,
        # signatures) stay valid.  The ISOP table is keyed by tables
        # over the old frame, so it is flushed.
        k = self._k
        k.grow()
        self._tables = [k.widen(t) for t in self._tables]
        self._index = {k.key(t): h for h, t in enumerate(self._tables)}
        if self._isop_table is not None:
            self._isop_table.clear()
        return index

    def add_vars(self, count: int, prefix: str = "v") -> List[int]:
        """Create ``count`` fresh variables named ``prefix0 .. prefixN``."""
        return [self.add_var("%s%d" % (prefix, len(self._names)))
                for _ in range(count)]

    @property
    def num_vars(self) -> int:
        """Number of variables declared in this manager."""
        return len(self._names)

    @property
    def num_nodes(self) -> int:
        """Number of interned tables (the backend's "node" count)."""
        return len(self._tables)

    def var(self, index: int) -> int:
        """Handle of the positive literal of variable ``index``."""
        return self._intern(self._k.literal(index, True))

    def nvar(self, index: int) -> int:
        """Handle of the negative literal of variable ``index``."""
        return self._intern(self._k.literal(index, False))

    def var_name(self, index: int) -> str:
        """Declared name of variable ``index``."""
        return self._names[index]

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern(self, table) -> int:
        key = self._k.key(table)
        handle = self._index.get(key)
        if handle is None:
            handle = len(self._tables)
            self._tables.append(table)
            self._index[key] = handle
            if handle >= self._peak:
                self._peak = handle + 1
        return handle

    def table(self, f: int) -> int:
        """The packed truth table behind handle ``f``, as an int."""
        return self._k.to_int(self._tables[f])

    def from_table(self, table: int) -> int:
        """The handle of a packed truth table given as an int (the
        inverse of :meth:`table`)."""
        return self._intern(self._k.from_int(table))

    def _cache_get(self, key: Tuple) -> Optional[int]:
        hit = self._op_cache.get(key)
        if hit is not None:
            self._cache_hits += 1
        else:
            self._cache_misses += 1
        return hit

    def _cache_put(self, key: Tuple, value: int) -> None:
        if len(self._op_cache) >= _OP_CACHE_LIMIT:
            self._op_cache.clear()
            self._cache_flushes += 1
        self._op_cache[key] = value

    # ------------------------------------------------------------------
    # Reduced-BDD structural view
    # ------------------------------------------------------------------
    def level(self, f: int) -> int:
        """Top (minimum) support variable; ``TERMINAL_LEVEL`` for constants."""
        support = self.support(f)
        return support[0] if support else TERMINAL_LEVEL

    def low(self, f: int) -> int:
        """0-cofactor at the top variable (reduced-BDD low child)."""
        return self.cofactor(f, self.level(f), False)

    def high(self, f: int) -> int:
        """1-cofactor at the top variable (reduced-BDD high child)."""
        return self.cofactor(f, self.level(f), True)

    def is_terminal(self, f: int) -> bool:
        """True for the constant handles FALSE and TRUE."""
        return f <= TRUE

    # ------------------------------------------------------------------
    # Connectives
    # ------------------------------------------------------------------
    def apply(self, op: str, f: int, g: int) -> int:
        """Binary connective by name: ``and``/``or``/``xor``/``andnot``."""
        tag = _APPLY_NAMES.get(op)
        if tag is None:
            raise ValueError("unknown operation %r" % (op,))
        key = (tag, f, g)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        k = self._k
        a, b = self._tables[f], self._tables[g]
        if tag == _OP_AND:
            table = k.band(a, b)
        elif tag == _OP_OR:
            table = k.bor(a, b)
        elif tag == _OP_XOR:
            table = k.bxor(a, b)
        else:
            table = k.bandnot(a, b)
        result = self._intern(table)
        self._cache_put(key, result)
        return result

    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        return self.apply("and", f, g)

    def or_(self, f: int, g: int) -> int:
        """Disjunction."""
        return self.apply("or", f, g)

    def xor_(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.apply("xor", f, g)

    def xnor_(self, f: int, g: int) -> int:
        """Equivalence."""
        return self.not_(self.apply("xor", f, g))

    def diff(self, f: int, g: int) -> int:
        """Difference ``f AND NOT g``."""
        return self.apply("andnot", f, g)

    def not_(self, f: int) -> int:
        """Negation."""
        return self._intern(self._k.bnot(self._tables[f]))

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else ``(f AND g) OR (NOT f AND h)``."""
        key = ("ite", f, g, h)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        table = self._k.ite_raw(self._tables[f], self._tables[g],
                                self._tables[h])
        result = self._intern(table)
        self._cache_put(key, result)
        return result

    def implies(self, f: int, g: int) -> bool:
        """True when ``f <= g`` pointwise."""
        return self._k.is_subset(self._tables[f], self._tables[g])

    # ------------------------------------------------------------------
    # Cofactors and quantifiers
    # ------------------------------------------------------------------
    def cofactor(self, f: int, var: int, value: bool) -> int:
        """Shannon cofactor of ``f`` with ``var`` fixed to ``value``."""
        key = ("cof", f, var, value)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        result = self._intern(
            self._k.cofactor(self._tables[f], var, value))
        self._cache_put(key, result)
        return result

    def restrict_cube(self, f: int, assignment: Dict[int, bool]) -> int:
        """Cofactor ``f`` by every literal of a cube."""
        k = self._k
        table = self._tables[f]
        for var in sorted(assignment):
            table = k.cofactor(table, var, assignment[var])
        return self._intern(table)

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existentially quantify ``variables`` out of ``f``."""
        var_key = tuple(sorted(set(variables)))
        key = ("exists", f, var_key)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        k = self._k
        table = self._tables[f]
        for var in var_key:
            table = k.exists1(table, var)
        result = self._intern(table)
        self._cache_put(key, result)
        return result

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universally quantify ``variables`` out of ``f``."""
        var_key = tuple(sorted(set(variables)))
        key = ("forall", f, var_key)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        k = self._k
        table = self._tables[f]
        for var in var_key:
            table = k.forall1(table, var)
        result = self._intern(table)
        self._cache_put(key, result)
        return result

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        return self.ite(g, self.cofactor(f, var, True),
                        self.cofactor(f, var, False))

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def support(self, f: int) -> Tuple[int, ...]:
        """Sorted tuple of variables ``f`` depends on."""
        hit = self._support_memo.get(f)
        if hit is not None:
            return hit
        k = self._k
        table = self._tables[f]
        result = tuple(var for var in range(len(self._names))
                       if k.depends(table, var))
        self._support_memo[f] = result
        return result

    def size(self, f: int) -> int:
        """Reduced-BDD internal node count of ``f`` (constants are 0).

        Canonicity makes this exact without building any BDD: the nodes
        of the reduced BDD of ``f`` are one-to-one with the distinct
        non-constant subfunctions reachable by top-variable cofactoring,
        which the table enumerates directly.  Memoised per handle (the
        solver prices the same candidates repeatedly).
        """
        size = self._size_memo.get(f)
        if size is None:
            size = self._size_memo[f] = self.shared_size((f,))
        return size

    def shared_size(self, functions: Sequence[int]) -> int:
        """Reduced-BDD node count of a set of functions with sharing."""
        k = self._k
        seen = set()
        stack = [self._tables[f] for f in functions]
        while stack:
            table = stack.pop()
            if k.is_zero(table) or k.is_full(table):
                continue
            key = k.key(table)
            if key in seen:
                continue
            seen.add(key)
            for var in range(len(self._names)):
                if k.depends(table, var):
                    stack.append(k.cofactor(table, var, False))
                    stack.append(k.cofactor(table, var, True))
                    break
        return len(seen)

    def sat_count(self, f: int, variables: Sequence[int]) -> int:
        """Number of satisfying assignments of ``f`` over ``variables``.

        ``variables`` must be a superset of ``support(f)``.
        """
        total = len(set(variables))
        count = self._k.popcount(self._tables[f])
        n = len(self._names)
        if total >= n:
            return count << (total - n)
        return count >> (n - total)

    def eval(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a (complete-on-support) assignment."""
        position = 0
        for var in self.support(f):
            if assignment[var]:
                position |= 1 << var
        return self._k.get_bit(self._tables[f], position) == 1

    # ------------------------------------------------------------------
    # Cube construction helpers
    # ------------------------------------------------------------------
    def cube(self, assignment: Dict[int, bool]) -> int:
        """Conjunction of the literals described by ``assignment``."""
        k = self._k
        table = k.full
        for var, value in assignment.items():
            table = k.band(table, k.literal(var, value))
        return self._intern(table)

    def minterm(self, variables: Sequence[int], value: int) -> int:
        """Minterm of ``variables`` encoded by integer ``value``.

        Bit ``i`` of ``value`` gives the polarity of ``variables[i]``.
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

        Same walk as the BDD implementation, over the virtual
        reduced-BDD view, so the enumeration order is identical.
        """
        n = len(variables)
        if n == 0:
            if f == TRUE:
                yield 0
            return
        position = {var: i for i, var in enumerate(variables)}
        var_levels = sorted(position)
        depth = len(var_levels)
        stack = [(f, 0, 0)]
        while stack:
            node, index, acc = stack.pop()
            if node == FALSE:
                continue
            if index == depth:
                yield acc
                continue
            var = var_levels[index]
            if node > TRUE and self.level(node) == var:
                lo, hi = self.low(node), self.high(node)
            else:
                lo = hi = node
            # Low branch first (matches the recursive enumeration order).
            stack.append((hi, index + 1, acc | (1 << position[var])))
            stack.append((lo, index + 1, acc))

    # ------------------------------------------------------------------
    # Structural fingerprints
    # ------------------------------------------------------------------
    def _fp_walk(self, f: int, memo: Dict[int, int],
                 var_map: Optional[Dict[int, int]]) -> int:
        """Fingerprint of handle ``f`` over the virtual reduced BDD.

        Recurses on top-variable cofactors with the same mixer and
        terminal seeds as ``BddManager._fp_walk``, so equal functions
        hash equally across backends.  ``memo`` is handle-keyed and must
        contain the terminal seeds.
        """
        hit = memo.get(f)
        if hit is not None:
            return hit
        map_get = var_map.get if var_map is not None else None
        stack = [f]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            lo, hi = self.low(node), self.high(node)
            lo_fp = memo.get(lo)
            hi_fp = memo.get(hi)
            if lo_fp is None:
                stack.append(lo)
            if hi_fp is None:
                stack.append(hi)
            if lo_fp is not None and hi_fp is not None:
                stack.pop()
                lvl = self.level(node)
                if map_get is not None:
                    lvl = map_get(lvl, lvl)
                memo[node] = _fp_mix(lvl, lo_fp, hi_fp)
        return memo[f]

    def fingerprint(self, f: int) -> int:
        """64-bit canonical content hash; equals the BDD fingerprint."""
        return self._fp_walk(f, self._fp_memo, None)

    def fingerprints(self, functions: Sequence[int],
                     var_map: Optional[Dict[int, int]] = None
                     ) -> Tuple[int, ...]:
        """Fingerprints of several functions under one level renaming."""
        if var_map is None:
            return tuple(self.fingerprint(f) for f in functions)
        memo: Dict[int, int] = {FALSE: _FP_FALSE, TRUE: _FP_TRUE}
        return tuple(self._fp_walk(f, memo, var_map)
                     for f in functions)

    def support_fingerprint(self, f: int) -> int:
        """Fingerprint of ``f`` with its support renumbered to ``0..k-1``."""
        ranks = {var: rank for rank, var in enumerate(self.support(f))}
        return self.fingerprints((f,), ranks)[0]

    def node_signature(self, f: int) -> Tuple[Tuple[int, ...], int]:
        """``(support, nfp)`` of handle ``f``; equals the BDD value.

        Composed bottom-up over the virtual reduced BDD with the same
        helper as ``BddManager.node_signature`` and memoised per handle
        (handles never move, and widening keeps supports).
        """
        memo = self._sig_memo
        hit = memo.get(f)
        if hit is not None:
            return hit
        intern = self._supports
        stack = [f]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            lo, hi = self.low(node), self.high(node)
            lo_sig = memo.get(lo)
            hi_sig = memo.get(hi)
            if lo_sig is None:
                stack.append(lo)
            if hi_sig is None:
                stack.append(hi)
            if lo_sig is not None and hi_sig is not None:
                stack.pop()
                memo[node] = node_signature_of(self.level(node), lo_sig,
                                               hi_sig, intern)
        return memo[f]

    # ------------------------------------------------------------------
    # Two-level synthesis
    # ------------------------------------------------------------------
    def isop(self, lower: int,
             upper: int) -> Tuple[List[Dict[int, bool]], int]:
        """Irredundant SOP cover of a function in ``[lower, upper]``.

        Runs the packed-interval kernel
        (:func:`repro.bdd.packed.interval_isop`) on this manager's own
        tables — the covers and functions ``BddManager.isop`` gives —
        against the ISOP table, which lives for the whole enclosing
        solve (:meth:`enter_solve`), or for this call outside a solve.
        """
        return interval_isop(self, lower, upper)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def pin(self, node: int) -> int:
        """No-op (tables are never reclaimed); returns the handle."""
        return node

    def unpin(self, node: int) -> None:
        """No-op companion of :meth:`pin`."""

    def collect(self, extra_roots: Iterable[int] = ()) -> Dict[int, int]:
        """Handles never move (empty mapping); like the BDD engine's
        collection, this drops the ISOP table."""
        if self._isop_table is not None:
            self._isop_table.clear()
        return {}

    def clear_caches(self) -> None:
        """Drop the operation cache and the ISOP table (interned tables
        are kept)."""
        self._op_cache.clear()
        self._cache_flushes += 1
        if self._isop_table is not None:
            self._isop_table.clear()

    def release_caches(self) -> None:
        """Drop every derived table (see ``BddManager.release_caches``)."""
        self.clear_caches()
        self._fp_memo = {FALSE: _FP_FALSE, TRUE: _FP_TRUE}
        self._support_memo = {}
        self._size_memo = {}
        self._sig_memo = dict(_TERMINAL_SIGNATURES)
        self._supports = {}

    def enter_solve(self) -> None:
        """Open (or join) a solve-wide ISOP table (as the BDD engine)."""
        self._solve_depth += 1
        if self._isop_table is None:
            self._isop_table = IsopTable()

    def exit_solve(self) -> None:
        """Close one :meth:`enter_solve`; the outermost drops the table."""
        self._solve_depth -= 1
        if not self._solve_depth:
            self._isop_table = None

    def _isop_scope(self) -> Tuple[IsopTable, int]:
        """The ISOP table an ``isop`` call runs against (the open
        solve's, or a fresh one) and its entry limit."""
        table = self._isop_table
        return (IsopTable() if table is None else table,
                _OP_CACHE_LIMIT)

    def stats(self) -> Dict[str, Optional[int]]:
        """Engine counters, same key set as ``BddManager.stats``."""
        return {
            "nodes": len(self._tables),
            "peak_nodes": self._peak,
            "num_vars": len(self._names),
            "unique_entries": len(self._index),
            "cache_entries": len(self._op_cache),
            "cache_limit": _OP_CACHE_LIMIT,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "cache_evictions": 0,
            "cache_flushes": self._cache_flushes,
            "isop_entries": len(self._isop_table or ()),
            "isop_hits": self._isop_hits,
            "isop_misses": self._isop_misses,
            "pinned_nodes": 0,
            "gc_runs": 0,
            "gc_reclaimed_nodes": 0,
        }
