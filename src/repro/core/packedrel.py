"""The packed MISF layer: one explored relation as one truth-table int.

For every relation it explores, BREL projects each output to an ISF
(paper Definitions 5.1-5.2), restricts the outputs one by one in
QuickSolver (Fig. 4) and computes the conflict set ``∃Y(F ∧ ¬R)`` that
picks the split (Section 7.4).  When the relation's frame — inputs plus
outputs — has at most :data:`~repro.bdd.packed.MAX_TABLE_WIDTH`
variables, the whole characteristic function fits in one Python int of
at most 64 Kbit, and each of these steps is a few shifts and masks:

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
  table with ``¬R``, then the outputs halved away.

Minimisation takes each ISF compressed to its own support
(:class:`~repro.core.isf.PackedIsf`) straight into the packed ISOP
kernel.  The relation itself stays a node, so
:meth:`~repro.core.relation.BooleanRelation.split` does not change;
nodes are built only for the chosen covers, the conflict set and
functional leaves, one Shannon build each.

:func:`pack_relation` is the one selection test.  Wider relations, and
relations whose characteristic function mentions a variable outside
their frame, keep the node-level path of
:class:`~repro.core.relation.BooleanRelation`, which also stays the
reference the packed layer is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd.manager import FALSE, BddManager
from ..bdd.packed import (_FULLS, MAX_TABLE_WIDTH, frame_masks, node_of,
                          pack_positions, reverse_index, spread, squeeze,
                          tables_of)
from .isf import PackedIsf
from .minimize import IsfMinimizer, minimize_packed
from .relation import BooleanRelation, NotWellDefinedError

__all__ = ["PackedRelation", "pack_relation"]

#: (n, m) -> the multiplier that copies an n-position table into every
#: slice of an (n+m)-position one.
_REPLICATORS: Dict[Tuple[int, int], int] = {}


def _replicator(n: int, m: int) -> int:
    rep = _REPLICATORS.get((n, m))
    if rep is None:
        rep = _REPLICATORS[n, m] = _FULLS[n + m] // _FULLS[n]
    return rep


def pack_relation(relation: BooleanRelation) -> Optional["PackedRelation"]:
    """The packed view of ``relation``, or ``None`` to keep it on nodes.

    The one selection test: the frame has at most
    :data:`~repro.bdd.packed.MAX_TABLE_WIDTH` variables and the
    characteristic function mentions no variable outside it.  On the
    table engine the engine's frame must also hold the inputs before
    the outputs, exactly — its table then reads with the input index
    bits reversed.
    """
    inputs, outputs = relation.inputs, relation.outputs
    n, m = len(inputs), len(outputs)
    width = n + m
    if width > MAX_TABLE_WIDTH:
        return None
    mgr = relation.mgr
    frame = tuple(sorted(inputs))
    if isinstance(mgr, BddManager):
        position = {var: n - 1 - index for index, var in enumerate(frame)}
        for j, var in enumerate(outputs):
            position[var] = n + j
        try:
            (table,) = pack_positions(mgr, (relation.node,), position,
                                      width)
        except KeyError:
            return None
    elif (frame == tuple(range(n)) and outputs == tuple(range(n, width))
          and mgr.num_vars == width):
        table = reverse_index(n, mgr.table(relation.node), width)
    else:
        return None
    return PackedRelation(relation, frame, table)


class PackedRelation:
    """One relation's MISF work on its packed truth table.

    Built once per explored relation by :func:`pack_relation` and
    discarded with it.  :meth:`require_well_defined`,
    :meth:`is_function` and :meth:`function_vector` keep the
    :class:`~repro.core.relation.BooleanRelation` signatures, so either
    can stand in for the other where the solver loop calls them.

    Attributes
    ----------
    relation:
        The relation viewed.
    frame:
        Its inputs sorted by level; ``frame[i]`` is on input position
        ``n-1-i``.
    table:
        The characteristic function over the ``n + m`` positions.
    """

    __slots__ = ("relation", "mgr", "frame", "n", "m", "table",
                 "_position", "_isfs")

    def __init__(self, relation: BooleanRelation, frame: Tuple[int, ...],
                 table: int) -> None:
        self.relation = relation
        self.mgr = relation.mgr
        self.frame = frame
        self.n = len(frame)
        self.m = len(relation.outputs)
        self.table = table
        self._position = {var: self.n - 1 - index
                          for index, var in enumerate(frame)}
        self._isfs: Dict[int, Tuple[int, int]] = {}

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
        """The output functions of a functional relation, as nodes;
        raises ``ValueError`` on a relation that is not a function."""
        if not self.is_function():
            raise ValueError("function_vector() requires a functional "
                             "relation")
        return [self.node(self.project(position)[0])
                for position in range(self.m)]

    # ------------------------------------------------------------------
    # The MISF (paper Section 5.2) and QuickSolver's restriction
    # ------------------------------------------------------------------
    def project(self, position: int, table: Optional[int] = None
                ) -> Tuple[int, int]:
        """Input tables ``(on, dc)`` of output ``position``'s ISF in
        ``table`` (default: the relation's own, computed once)."""
        own = table is None or table == self.table
        if own:
            hit = self._isfs.get(position)
            if hit is not None:
                return hit
            table = self.table
        n = self.n
        for p in range(n + self.m - 1, n + position, -1):
            table = (table & _FULLS[p]) | (table >> (1 << p))
        top = n + position
        allows0 = table & _FULLS[top]
        allows1 = table >> (1 << top)
        for p in range(top - 1, n - 1, -1):
            mask, shift = _FULLS[p], 1 << p
            allows0 = (allows0 & mask) | (allows0 >> shift)
            allows1 = (allows1 & mask) | (allows1 >> shift)
        isf = (allows1 & ~allows0, allows1 & allows0)
        if own:
            self._isfs[position] = isf
        return isf

    def restrict(self, table: int, position: int, function: int) -> int:
        """``table`` with output ``position`` constrained to follow the
        input table ``function`` (Fig. 4's propagation step)."""
        n = self.n
        zeros = frame_masks(n + self.m)[0]
        return table & ((function * _replicator(n, self.m))
                        ^ zeros[n + position])

    def conflict_table(self, functions: Sequence[int]) -> int:
        """``∃Y(F ∧ ¬R)`` as an input table, for the function vector
        given as input tables."""
        n, m = self.n, self.m
        zeros = frame_masks(n + m)[0]
        rep = _replicator(n, m)
        chosen = _FULLS[n + m]
        for position, function in enumerate(functions):
            chosen &= (function * rep) ^ zeros[n + position]
        return self._exists_outputs(chosen & ~self.table)

    def split_position(self, vertex: Mapping[int, bool]) -> Optional[int]:
        """The first output whose ISF has a don't care at the full
        input ``vertex`` (Theorem 5.2), or ``None``."""
        index = 0
        for var, position in self._position.items():
            if vertex[var]:
                index |= 1 << position
        for output in range(self.m):
            if self.project(output)[1] >> index & 1:
                return output
        return None

    def node(self, table: int) -> int:
        """The node of an input table (one Shannon build)."""
        if not table:
            return FALSE
        return node_of(self.mgr, table, self.frame)

    # ------------------------------------------------------------------
    # Minimisation
    # ------------------------------------------------------------------
    def isf(self, on: int, dc: int) -> PackedIsf:
        """The ISF ``(on, dc)`` compressed to its own support."""
        n = self.n
        zeros = frame_masks(n)[0]
        keep = 0
        for p in range(n):
            shift = 1 << p
            if ((on ^ (on >> shift)) | (dc ^ (dc >> shift))) & zeros[p]:
                keep |= 1 << p
        frame = self.frame
        support = tuple(frame[n - 1 - p] for p in range(n - 1, -1, -1)
                        if keep >> p & 1)
        k = len(support)
        both = squeeze(on | (dc << (1 << n)), n + 1, keep | (1 << n))
        return PackedIsf(self.mgr, both & _FULLS[k], both >> (1 << k),
                         support, self.relation.inputs)

    def expand(self, table: int, support: Sequence[int]) -> int:
        """A table over ``support`` (a subset of the inputs) restated
        over the whole input frame."""
        keep = 0
        for var in support:
            keep |= 1 << self._position[var]
        return spread(table, self.n, keep)

    def minimize(self, position: int, minimizer: IsfMinimizer,
                 minimizer_name: Optional[str],
                 table: Optional[int] = None) -> Tuple[int, int]:
        """Minimise output ``position``'s ISF in ``table`` (default:
        the relation's own).

        Returns ``(node, input table)``.  A custom minimiser
        (``minimizer_name`` ``None``) gets the ISF as nodes and its
        result is packed back over the input frame.
        """
        isf = self.isf(*self.project(position, table))
        if minimizer_name is None:
            node = minimizer(isf.unpack())
            (packed,) = tables_of(self.mgr, (node,), self.frame)
            return node, packed
        node, packed = minimize_packed(isf, minimizer, minimizer_name)
        return node, self.expand(packed, isf.support)
