"""The packed MISF layer: a narrow relation as one truth-table int.

Every step BREL takes works on the relation's characteristic function:
the ISF projection (paper Definitions 5.1-5.2), QuickSolver's
restriction (Fig. 4), the conflict set ``∃Y(F ∧ ¬R)`` and the split
into ``R ∧ (x → y_i)`` and ``R ∧ (x → ¬y_i)`` (Section 7.4).  When the
relation's frame — inputs plus outputs — has at most
:data:`~repro.bdd.packed.MAX_TABLE_WIDTH` variables, the whole
characteristic function fits in one Python int of at most 64 Kbit, and
each step is a few shifts and masks:

* **Layout.**  The inputs take the kernel layout of
  :mod:`repro.bdd.packed` (sorted by level, the first on the highest
  input position ``n-1``); output ``j`` sits on position ``n + j``
  above them, so every output slice of the table is an input table.
* **Projection.**  Output ``j``'s bounds halve away the outputs above
  it and fold the outputs below it onto their 0-halves; the ISF is
  ``on = A1 & ~A0``, ``dc = A1 & A0`` — disjoint by construction.
* **Restriction.**  Constraining output ``j`` to an input table ``f``
  is one AND with ``f`` copied into every output slice
  (``f * (FULL[n+m] // FULL[n])``).
* **Conflicts.**  One AND of the function vector's characteristic
  table with ``¬R``, then the outputs halved away; the split vertex is
  read off that input table by the rule of
  :func:`~repro.bdd.traversal.shortest_path_cube`.
* **Split.**  The vertex's bit in every slice, cleared in output
  ``j``'s 1-half (or 0-half).
* **Costs.**  The built-in costs run on the input tables and give the
  node-level numbers: the relation answers the engine calls they make,
  ``size`` (each output's reduced-BDD nodes in frame level order,
  memoised per solve), ``shared_size`` (their union) and ``isop`` (the
  packed kernel's).  A custom cost gets nodes.

Minimisation takes each ISF compressed to its own support
(:class:`~repro.core.isf.PackedIsf`) straight into the packed ISOP
kernel.  :class:`PackedRelation` answers the calls the solver loop
makes on a :class:`~repro.core.relation.BooleanRelation`, with input
tables for nodes, so a solve packs its root once and the frontier holds
packed subrelations.  Nodes are built for the incumbents a caller reads
(:attr:`~repro.core.solution.Solution.functions`) and, under symmetry
pruning, for relations near the root.

:func:`pack_relation` is the one selection test.  Wider relations, and
relations whose characteristic function mentions a variable outside
their frame, keep the node-level path of
:class:`~repro.core.relation.BooleanRelation`, which also stays the
reference the packed layer is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd.manager import FALSE, TRUE
from ..bdd.packed import (_FULLS, MAX_TABLE_WIDTH, _shannon, frame_masks,
                          pack, pack_positions, packed_isop, spread,
                          squeeze, table_size)
from .cost import (CostFunction, bdd_size_cost, bdd_size_squared_cost,
                   cube_count_cost, literal_count_cost,
                   shared_bdd_size_cost)
from .isf import PackedIsf
from .minimize import IsfMinimizer, minimize_packed, minimizer_memo_key
from .relation import BooleanRelation, NotWellDefinedError
from .solution import Solution

__all__ = ["PackedRelation", "pack_relation"]

#: (n, m) -> the multiplier that copies an n-position table into every
#: slice of an (n+m)-position one.
_REPLICATORS: Dict[Tuple[int, int], int] = {}

_INFINITY = float("inf")


def _replicator(n: int, m: int) -> int:
    rep = _REPLICATORS.get((n, m))
    if rep is None:
        rep = _REPLICATORS[n, m] = _FULLS[n + m] // _FULLS[n]
    return rep


def pack_relation(relation: BooleanRelation) -> Optional["PackedRelation"]:
    """The packed form of ``relation``, or ``None`` to keep it on nodes.

    The one selection test: the relation's frame has at most
    :data:`~repro.bdd.packed.MAX_TABLE_WIDTH` variables and its
    characteristic function mentions no variable outside it.
    """
    inputs, outputs = relation.inputs, relation.outputs
    n, m = len(inputs), len(outputs)
    width = n + m
    if width > MAX_TABLE_WIDTH:
        return None
    mgr = relation.mgr
    frame = tuple(sorted(inputs))
    position = {var: n - 1 - index for index, var in enumerate(frame)}
    for j, var in enumerate(outputs):
        position[var] = n + j
    try:
        (table,) = pack_positions(mgr, (relation.node,), position, width)
    except KeyError:
        return None
    return PackedRelation(mgr, inputs, outputs, frame, table, relation.node)


class PackedRelation:
    """A relation's characteristic function as a packed truth table.

    Built once per solve by :func:`pack_relation`; :meth:`split` and
    :meth:`restrict_output` return relations over the same frame that
    share its per-solve size memo.  It answers the calls the solver
    loop and QuickSolver make on a
    :class:`~repro.core.relation.BooleanRelation` — functions and
    conflict sets are input tables here, nodes there.

    Attributes
    ----------
    mgr, inputs, outputs:
        As on :class:`~repro.core.relation.BooleanRelation`.
    frame:
        The inputs sorted by level; ``frame[i]`` is on input position
        ``n-1-i``.
    table:
        The characteristic function over the ``n + m`` positions.
    """

    __slots__ = ("mgr", "inputs", "outputs", "frame", "n", "m", "table",
                 "_node", "_isfs", "_sizes")

    def __init__(self, mgr, inputs: Tuple[int, ...],
                 outputs: Tuple[int, ...], frame: Tuple[int, ...],
                 table: int, node: Optional[int] = None,
                 sizes: Optional[Dict[int, int]] = None) -> None:
        self.mgr = mgr
        self.inputs = inputs
        self.outputs = outputs
        self.frame = frame
        self.n = len(frame)
        self.m = len(outputs)
        self.table = table
        self._node = node
        self._isfs: Dict[int, Tuple[int, int]] = {}
        #: Input table -> reduced-BDD size, shared with every relation
        #: derived from this one.
        self._sizes: Dict[int, int] = {} if sizes is None else sizes

    def _child(self, table: int) -> "PackedRelation":
        return PackedRelation(self.mgr, self.inputs, self.outputs,
                              self.frame, table, None, self._sizes)

    @property
    def node(self) -> int:
        """The characteristic function's node, built on first use (only
        symmetry pruning reads it)."""
        if self._node is None:
            mgr, width, table = self.mgr, self.n + self.m, self.table
            self._node = (FALSE if not table
                          else TRUE if table == _FULLS[width]
                          else _shannon(
                              lambda var, low, high:
                              mgr.ite(mgr.var(var), high, low),
                              table, width, self.outputs[::-1] + self.frame,
                              {}))
        return self._node

    # ------------------------------------------------------------------
    # Well-definedness / functionality
    # ------------------------------------------------------------------
    def _exists_outputs(self, table: int) -> int:
        """``∃Y``: the input table of vertices with some output."""
        n = self.n
        for p in range(n + self.m - 1, n - 1, -1):
            table = (table & _FULLS[p]) | (table >> (1 << p))
        return table

    def is_well_defined(self) -> bool:
        """Left-totality: the OR over the output slices is full."""
        return self._exists_outputs(self.table) == _FULLS[self.n]

    def require_well_defined(self) -> None:
        """Raise :class:`NotWellDefinedError` unless left-total."""
        if not self.is_well_defined():
            raise NotWellDefinedError(
                "relation is not well defined (not left-total)")

    def is_function(self) -> bool:
        """Well defined, and no output has a don't care anywhere."""
        return self.is_well_defined() and not any(
            self.project(position)[1] for position in range(self.m))

    def function_vector(self) -> List[int]:
        """The output functions of a functional relation, as input
        tables; raises ``ValueError`` on a relation that is not a
        function."""
        if not self.is_function():
            raise ValueError("function_vector() requires a functional "
                             "relation")
        return [self.project(position)[0] for position in range(self.m)]

    def output_supports(self) -> List[Tuple[int, ...]]:
        """Per-output input supports of a well-defined relation, as
        :meth:`~repro.core.relation.BooleanRelation.output_supports`
        gives them."""
        return [self.isf(*self.project(position)).support
                for position in range(self.m)]

    # ------------------------------------------------------------------
    # The MISF (paper Section 5.2), QuickSolver's restriction and Split
    # ------------------------------------------------------------------
    def project(self, position: int) -> Tuple[int, int]:
        """Input tables ``(on, dc)`` of output ``position``'s ISF
        (computed once)."""
        isf = self._isfs.get(position)
        if isf is not None:
            return isf
        n, table = self.n, self.table
        for p in range(n + self.m - 1, n + position, -1):
            table = (table & _FULLS[p]) | (table >> (1 << p))
        top = n + position
        allows0 = table & _FULLS[top]
        allows1 = table >> (1 << top)
        for p in range(top - 1, n - 1, -1):
            mask, shift = _FULLS[p], 1 << p
            allows0 = (allows0 & mask) | (allows0 >> shift)
            allows1 = (allows1 & mask) | (allows1 >> shift)
        isf = self._isfs[position] = (allows1 & ~allows0, allows1 & allows0)
        return isf

    def restrict_output(self, position: int, function: int
                        ) -> "PackedRelation":
        """Constrain output ``position`` to follow the input table
        ``function`` (Fig. 4's propagation step)."""
        n = self.n
        zeros = frame_masks(n + self.m)[0]
        return self._child(self.table & ((function
                                          * _replicator(n, self.m))
                                         ^ zeros[n + position]))

    def conflict_inputs(self, functions: Sequence[int]) -> int:
        """``∃Y(F ∧ ¬R)`` as an input table, for the function vector
        given as input tables."""
        n, m = self.n, self.m
        zeros = frame_masks(n + m)[0]
        rep = _replicator(n, m)
        chosen = _FULLS[n + m]
        for position, function in enumerate(functions):
            chosen &= (function * rep) ^ zeros[n + position]
        return self._exists_outputs(chosen & ~self.table)

    def conflict_cube(self, conflicts: int) -> Optional[Dict[int, bool]]:
        """The largest cube of an input table, by the rule of
        :func:`~repro.bdd.traversal.shortest_path_cube` on its node:
        fewest literals, the 0-branch on ties; ``None`` when empty."""
        if not conflicts:
            return None
        lengths: Dict[Tuple[int, int], float] = {}

        def length(width: int, table: int) -> float:
            if not table:
                return _INFINITY
            if table == _FULLS[width]:
                return 0
            hit = lengths.get((width, table))
            if hit is None:
                low = table & _FULLS[width - 1]
                high = table >> (1 << (width - 1))
                hit = length(width - 1, low)
                if low != high:
                    hit = 1 + min(hit, length(width - 1, high))
                lengths[width, table] = hit
            return hit

        cube: Dict[int, bool] = {}
        frame, n = self.frame, self.n
        width, table = n, conflicts
        while table != _FULLS[width]:
            width -= 1
            low, high = table & _FULLS[width], table >> (1 << width)
            if low == high:
                table = low  # a position the set skips: a don't care
            else:
                branch = length(width, high) < length(width, low)
                cube[frame[n - 1 - width]] = branch
                table = high if branch else low
        return cube

    def _index(self, vertex: Mapping[int, bool]) -> int:
        """The table index of a full input vertex."""
        top = self.n - 1
        return sum(1 << (top - index)
                   for index, var in enumerate(self.frame) if vertex[var])

    def can_split(self, vertex: Mapping[int, bool], position: int) -> bool:
        """Theorem 5.2 precondition: output ``position``'s ISF has a
        don't care at the full input ``vertex``."""
        return bool(self.project(position)[1] >> self._index(vertex) & 1)

    def split(self, vertex: Mapping[int, bool], position: int
              ) -> Tuple["PackedRelation", "PackedRelation"]:
        """Split at input ``vertex`` on output ``position``
        (Definition 5.4), as
        :meth:`~repro.core.relation.BooleanRelation.split`: ``R_y0``
        drops the tuples with the output at 1 on the vertex, ``R_y1``
        those with it at 0."""
        n, table = self.n, self.table
        point = _replicator(n, self.m) << self._index(vertex)
        zeros, ones = frame_masks(n + self.m)
        return (self._child(table & ~(point & ones[n + position])),
                self._child(table & ~(point & zeros[n + position])))

    # ------------------------------------------------------------------
    # Minimisation and pricing
    # ------------------------------------------------------------------
    def _keep(self, on: int, dc: int) -> int:
        """The mask of the input positions ``(on, dc)`` depends on."""
        zeros = frame_masks(self.n)[0]
        keep = 0
        for p in range(self.n):
            shift = 1 << p
            if ((on ^ (on >> shift)) | (dc ^ (dc >> shift))) & zeros[p]:
                keep |= 1 << p
        return keep

    def isf(self, on: int, dc: int, keep: Optional[int] = None
            ) -> PackedIsf:
        """The ISF ``(on, dc)`` compressed to its own support (the
        positions of ``keep``, computed when not given)."""
        if keep is None:
            keep = self._keep(on, dc)
        frame, n = self.frame, self.n
        support = tuple(frame[n - 1 - p] for p in range(n - 1, -1, -1)
                        if keep >> p & 1)
        k = len(support)
        both = squeeze(on | (dc << (1 << n)), n + 1, keep | (1 << n))
        return PackedIsf(self.mgr, both & _FULLS[k], both >> (1 << k),
                         support, self.inputs)

    def minimize(self, position: int, minimizer: IsfMinimizer) -> int:
        """Output ``position``'s ISF minimised, as an input table.

        A built-in minimiser runs on the packed ISF
        (:func:`~repro.core.minimize.minimize_packed`); a custom one
        gets it as nodes and its result is packed back.
        """
        on, dc = self.project(position)
        keep = self._keep(on, dc)
        isf = self.isf(on, dc, keep)
        name = minimizer_memo_key(minimizer)
        if name is None:
            return pack(self.mgr, (minimizer(isf.unpack()),),
                        self.frame)[0]
        return spread(minimize_packed(isf, minimizer, name), self.n, keep)

    def solution(self, functions: Sequence[int],
                 cost_function: CostFunction) -> Solution:
        """The function vector given as input tables, priced: a
        built-in cost on the tables (through :meth:`size`,
        :meth:`shared_size` and :meth:`isop`), any other on nodes built
        here."""
        tables = tuple(functions)
        solution = Solution(self.mgr, None, 0.0, tables, self.frame)
        if any(cost is cost_function for cost in _TABLE_COSTS):
            solution.cost = cost_function(self, tables)
        else:
            solution.cost = cost_function(self.mgr, solution.functions)
        return solution

    # The engine calls the built-in costs make, on input tables.
    def size(self, table: int) -> int:
        """The reduced-BDD node count of an input table in frame level
        order, as ``mgr.size`` counts its node (memoised per solve)."""
        size = self._sizes.get(table)
        if size is None:
            size = self._sizes[table] = table_size((table,), self.n)
        return size

    def shared_size(self, tables: Sequence[int]) -> int:
        return table_size(tables, self.n)

    def isop(self, lower: int, upper: int) -> Tuple[Tuple, int]:
        return packed_isop(self.mgr, lower, upper, self.n)


#: The built-in costs, which price a vector through ``size``,
#: ``shared_size`` and ``isop`` alone, so a packed relation runs them
#: on its tables and gets the node-level numbers.
_TABLE_COSTS = (bdd_size_cost, bdd_size_squared_cost, shared_bdd_size_cost,
                cube_count_cost, literal_count_cost)
