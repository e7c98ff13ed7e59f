"""Incompletely specified functions (ISFs) and vectors thereof (MISFs).

Paper Definitions 4.4 and 4.5: an ISF is a function ``B^n -> {0, 1, *}``
characterised by its ON / OFF / DC sets, equivalently by the interval of
Boolean functions ``[ON, ON + DC]``.  An MISF is a vector of ISFs sharing
the input space.  :class:`Isf` holds the sets as function-engine nodes;
:class:`PackedIsf` holds them as packed truth tables over the ISF's own
support, the form the packed MISF layer (:mod:`repro.core.packedrel`)
projects relations into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..bdd.backend import FunctionBackend
from ..bdd.manager import FALSE, _fold64, support_mask, union_support
from ..bdd.packed import node_of, tables_of
from .memo import Signature


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

    mgr: FunctionBackend
    on: int
    dc: int
    inputs: Tuple[int, ...]
    #: Lazily cached ``on | dc`` (instances are immutable, so the union
    #: is computed at most once per ISF instead of per ``upper`` access).
    _upper: Optional[int] = field(default=None, init=False, repr=False,
                                  compare=False)
    #: Lazily cached :meth:`signature`.
    _sig: Optional[Signature] = field(default=None, init=False,
                                      repr=False, compare=False)

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

    def signature(self) -> Signature:
        """Canonical subproblem identity of this ISF.

        The combined support ``J`` of ``on`` and ``dc`` is renumbered to
        ``0..k-1`` (order-preserving), so ISFs identical up to such a
        renaming — the same interval shifted to a different support —
        share a signature and hence a
        :class:`~repro.core.memo.MemoStore` slot.  The key is built
        from the manager's per-node signatures: ``|J|``, then for each
        of ``on`` and ``dc`` the rank mask of its own support inside
        ``J`` and its renaming-invariant fingerprint — a lookup per
        node once the manager has seen it.  ``inputs`` is deliberately
        *not* part of the identity: no minimiser's result depends on
        variables outside the interval's support.
        """
        sig = self._sig
        if sig is None:
            mgr = self.mgr
            on_support, on_fp = mgr.node_signature(self.on)
            dc_support, dc_fp = mgr.node_signature(self.dc)
            support = union_support(on_support, dc_support)
            sig = Signature(("isf2", len(support),
                             support_mask(on_support, support), on_fp,
                             support_mask(dc_support, support), dc_fp),
                            support)
            object.__setattr__(self, "_sig", sig)
        return sig

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

    def with_interval(self, lower: int, upper: int) -> "Isf":
        """Build an ISF from interval endpoints instead of (on, dc) sets."""
        return Isf(self.mgr, lower, self.mgr.diff(upper, lower), self.inputs)

    @staticmethod
    def from_interval(mgr: FunctionBackend, lower: int, upper: int,
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
        self.mgr: FunctionBackend = components[0].mgr

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

    def __init__(self, mgr: FunctionBackend, on: int, dc: int,
                 support: Tuple[int, ...], inputs: Tuple[int, ...]) -> None:
        self.mgr = mgr
        self.on = on
        self.dc = dc
        self.support = support
        self.inputs = inputs

    @staticmethod
    def from_isf(isf: Isf, support: Tuple[int, ...]) -> "PackedIsf":
        """Pack ``isf`` over its joint ``support``."""
        on, dc = tables_of(isf.mgr, (isf.on, isf.dc), support)
        return PackedIsf(isf.mgr, on, dc, support, isf.inputs)

    def key(self) -> Tuple:
        """Canonical memo identity: equal exactly when the intervals
        are equal up to an order-preserving renaming of their supports
        (the classes of :meth:`Isf.signature`), with each table folded
        to 64 bits so the key stays small and JSON-safe.  The fold
        starts from a non-zero seed, so a table shifted up by whole
        64-bit chunks -- ``a & g`` against ``~a & g`` for a lowest
        support variable ``a`` -- folds differently."""
        return ("isf3", len(self.support),
                _fold64(self.on), _fold64(self.dc))

    def unpack(self) -> Isf:
        """The same ISF as nodes, for minimisers that work on them."""
        mgr, support = self.mgr, self.support
        return Isf(mgr, node_of(mgr, self.on, support),
                   node_of(mgr, self.dc, support), self.inputs)
