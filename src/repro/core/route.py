"""The per-solve subproblem layer.

:class:`SubproblemRouter` sits between one solve and its memo store:
every memoised ISF minimisation of the solve goes through it, and a
memo hit reuses the node the solve already built for it.  The solve
runs on the manager its relation lives on; nothing here moves a
relation between engines.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .memo import MemoStore, SolutionTemplate, instantiate_cover
from .minimize import IsfMinimizer, Minimized, minimize_with_cover

__all__ = ["SubproblemRouter"]


class SubproblemRouter:
    """One solve's subproblem layer over one manager and memo store.

    Every memoised ISF minimisation of the solve goes through
    :meth:`minimize` — packed ISFs from the packed MISF layer
    (:mod:`repro.core.packedrel`) and node-level ISFs of wider
    relations alike — and the relation-level ``"quick"``/``"eval"``
    hits through :meth:`instantiate`.  The memo store itself is used
    exactly as without the router (same ``get``/``put`` calls, so the
    counters and LRU order do not change); what the router adds is the
    map ``(memo key, support) -> what the solve built for it``.  A memo
    hit whose key and support the solve already built is served from
    that map — node, cover and packed table — instead of rebuilding
    the cover: by ROBDD canonicity the rebuild would land on the same
    node, and the manager never collects mid-solve.
    """

    def __init__(self, memo: MemoStore) -> None:
        self.memo = memo
        self._instantiated: Dict[Tuple, Any] = {}
        #: ``(rank cover, support) -> node`` of the covers relation-level
        #: hits rebuilt: sibling relations' templates share most covers.
        self._covers: Dict[Tuple, int] = {}

    def minimize(self, isf, minimizer: IsfMinimizer,
                 minimizer_name: str) -> Minimized:
        """Memoised minimisation ``(node, variable-level cover, table)``
        of an :class:`~repro.core.isf.Isf` or a packed
        :class:`~repro.core.isf.PackedIsf`
        (:func:`~repro.core.minimize.minimize_with_cover`)."""
        return minimize_with_cover(isf, minimizer, self.memo,
                                   minimizer_name, self._instantiated)

    def instantiate(self, mgr, key: Tuple, covers: SolutionTemplate,
                    support: Tuple[int, ...]) -> Tuple[int, ...]:
        """The functions of a relation-level memo hit, built once per
        ``(key, support)`` in this solve."""
        inst_key = (key, support)
        functions = self._instantiated.get(inst_key)
        if functions is None:
            functions = tuple(self._cover_node(mgr, cover, support)
                              for cover in covers)
            self._instantiated[inst_key] = functions
        return functions

    def _cover_node(self, mgr, cover, support: Tuple[int, ...]) -> int:
        cover_key = (cover, support)
        node = self._covers.get(cover_key)
        if node is None:
            node = self._covers[cover_key] = instantiate_cover(mgr, cover,
                                                               support)
        return node

    def remember(self, key: Tuple, support: Tuple[int, ...],
                 functions: Tuple[int, ...]) -> None:
        """Record what a relation-level memo miss built."""
        self._instantiated[(key, support)] = functions
