"""Incompletely specified functions (ISFs) and vectors thereof (MISFs).

Paper Definitions 4.4 and 4.5: an ISF is a function ``B^n -> {0, 1, *}``
characterised by its ON / OFF / DC sets, equivalently by the interval of
Boolean functions ``[ON, ON + DC]``.  An MISF is a vector of ISFs sharing
the input space.  :class:`Isf` holds the sets as BDD nodes;
:class:`PackedIsf` holds them as packed truth tables over the ISF's own
support, the form the packed MISF layer (:mod:`repro.core.packedrel`)
projects relations into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..bdd.manager import FALSE, BddManager
from ..bdd.packed import unpack


@dataclass(frozen=True)
class Isf:
    """An ISF as the interval ``[on, on | dc]`` of BDD nodes.

    Attributes
    ----------
    mgr:
        Owning BDD manager.
    on, dc:
        ON-set and DC-set characteristic functions (disjoint by
        construction).  The OFF set is the complement of their union.
    inputs:
        The input variables the ISF ranges over (used by minimisers that
        need the full input space, e.g. for support reduction).
    """

    mgr: BddManager
    on: int
    dc: int
    inputs: Tuple[int, ...]
    #: Lazily cached ``on | dc`` (instances are immutable, so the union
    #: is computed at most once per ISF instead of per ``upper`` access).
    _upper: Optional[int] = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self) -> None:
        if self.mgr.and_(self.on, self.dc) != FALSE:
            raise ValueError("ISF ON and DC sets must be disjoint")

    @property
    def upper(self) -> int:
        """The maximum implementation ``on | dc`` (computed once).

        ``admits`` / ``off`` sit on the solver's hottest minimisation
        paths, and each used to re-issue the ``or_`` per access; the
        one-shot computation caches the node on the instance so repeat
        accesses never touch the manager at all.
        """
        upper = self._upper
        if upper is None:
            upper = self.mgr.or_(self.on, self.dc)
            object.__setattr__(self, "_upper", upper)
        return upper

    @property
    def off(self) -> int:
        """The OFF-set characteristic function."""
        return self.mgr.not_(self.upper)

    @property
    def is_completely_specified(self) -> bool:
        """True when the DC set is empty (a plain Boolean function)."""
        return self.dc == FALSE

    def admits(self, function: int) -> bool:
        """Is ``function`` an implementation (``on <= function <= upper``)?"""
        return (self.mgr.implies(self.on, function)
                and self.mgr.implies(function, self.upper))

    def value_at(self, assignment) -> str:
        """Return ``'0'``, ``'1'`` or ``'-'`` at a full input assignment."""
        if self.mgr.eval(self.on, assignment):
            return "1"
        if self.mgr.eval(self.dc, assignment):
            return "-"
        return "0"

    @staticmethod
    def from_interval(mgr: BddManager, lower: int, upper: int,
                      inputs: Sequence[int]) -> "Isf":
        """Construct from the interval ``[lower, upper]``."""
        if not mgr.implies(lower, upper):
            raise ValueError("ISF interval requires lower <= upper")
        return Isf(mgr, lower, mgr.diff(upper, lower), tuple(inputs))


class Misf:
    """A multiple-output ISF: a vector of ISFs over a shared input space."""

    def __init__(self, components: Sequence[Isf]) -> None:
        if not components:
            raise ValueError("an MISF needs at least one component")
        managers = {isf.mgr for isf in components}
        if len(managers) != 1:
            raise ValueError("MISF components must share one manager")
        self.components: List[Isf] = list(components)
        self.mgr: BddManager = components[0].mgr

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, index: int) -> Isf:
        return self.components[index]

    def admits(self, functions: Sequence[int]) -> bool:
        """Pointwise interval membership of a function vector."""
        if len(functions) != len(self.components):
            raise ValueError("function vector arity mismatch")
        return all(isf.admits(func)
                   for isf, func in zip(self.components, functions))


class PackedIsf:
    """An ISF as packed truth tables over its own support.

    ``on`` and ``dc`` are disjoint tables in the kernel layout of
    :mod:`repro.bdd.packed` over ``support`` — the sorted variables
    either set depends on, at most
    :data:`~repro.bdd.packed.MAX_TABLE_WIDTH` of them — so they are
    exactly what the packed ISOP kernel takes.  ``inputs`` is the
    input frame the ISF ranges over, as :attr:`Isf.inputs`.
    """

    __slots__ = ("mgr", "on", "dc", "support", "inputs")

    def __init__(self, mgr: BddManager, on: int, dc: int,
                 support: Tuple[int, ...], inputs: Tuple[int, ...]) -> None:
        self.mgr = mgr
        self.on = on
        self.dc = dc
        self.support = support
        self.inputs = inputs

    def unpack(self) -> Isf:
        """The same ISF as nodes, for minimisers that work on them."""
        mgr, support = self.mgr, self.support
        return Isf(mgr, unpack(mgr, self.on, support),
                   unpack(mgr, self.dc, support), self.inputs)
