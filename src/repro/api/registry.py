"""Named registries for pluggable solver components.

The declarative :class:`~repro.api.request.SolveRequest` names its cost
function and ISF minimiser by *string key* so a solve can be described as
pure data (JSON), replayed, batched, and shipped to worker processes.
This module owns the three registries behind those keys:

* the **cost registry**, promoted from the old ``repro.cli.COSTS`` table
  (paper Section 7.3 objectives plus the shared-DAG variant);
* the **minimiser registry**, wrapping the same dict as
  :data:`repro.core.minimize.MINIMIZERS` (paper Section 7.5 / Table 1) so
  registrations made here are visible to :func:`repro.core.get_minimizer`
  and vice versa;
* the **strategy registry**, wrapping
  :data:`repro.core.explore.STRATEGIES` (the exploration disciplines of
  the solver loop: ``bfs``, ``dfs``, ``best-first``, ``beam``), kept in
  sync with :func:`repro.core.make_strategy` the same way.

Users plug in custom objectives without touching ``repro.core``::

    from repro.api import register_cost

    @register_cost("support-balance")
    def support_balance(mgr, functions):
        supports = [len(mgr.support(f)) for f in functions]
        return float(sum(supports) + 4 * (max(supports) - min(supports)))

    request = SolveRequest(relation=..., cost="support-balance")
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, TypeVar

from ..core.cost import (CostFunction, bdd_size_cost, bdd_size_squared_cost,
                         cube_count_cost, literal_count_cost,
                         shared_bdd_size_cost)
from ..core.explore import STRATEGIES, StrategyFactory, lookup_name
from ..core.minimize import MINIMIZERS, IsfMinimizer

T = TypeVar("T")


class Registry:
    """A named table of interchangeable components.

    A thin mapping wrapper whose value is the error ergonomics (unknown
    names list the alternatives) and the decorator-or-direct ``register``
    API.  A registry may *back onto* an existing dict — mutations are then
    visible to every holder of that dict, which is how the minimiser
    registry stays in sync with :mod:`repro.core.minimize`.
    """

    def __init__(self, kind: str,
                 backing: Optional[Dict[str, T]] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = backing if backing is not None else {}

    # -- lookup --------------------------------------------------------
    def get(self, name: str) -> T:
        """Resolve ``name``; unknown names raise a did-you-mean error
        listing the valid choices."""
        return lookup_name(self._entries, name,
                           "unknown " + self.kind + " %r")

    def name_of(self, obj: T) -> Optional[str]:
        """Reverse lookup: the registered name of ``obj``, or ``None``."""
        for name, entry in self._entries.items():
            if entry is obj:
                return name
        return None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, T]]:
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    # -- registration --------------------------------------------------
    def register(self, name: str, obj: Optional[T] = None, *,
                 overwrite: bool = False):
        """Register ``obj`` under ``name``; usable as a decorator.

        ``registry.register("k", f)`` registers directly and returns ``f``;
        ``@registry.register("k")`` registers the decorated callable.
        Re-registering an existing name requires ``overwrite=True``.
        """
        def add(entry: T) -> T:
            if not overwrite and name in self._entries:
                raise ValueError("%s %r is already registered "
                                 "(pass overwrite=True to replace)"
                                 % (self.kind, name))
            self._entries[name] = entry
            return entry

        return add if obj is None else add(obj)

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests tearing down plugins)."""
        self._entries.pop(name, None)


#: CLI/registry names for the paper Section 7.3 cost functions.  This is
#: the promotion of the old ``repro.cli.COSTS`` table; ``cli`` re-exports
#: it for backwards compatibility.
COSTS: Dict[str, CostFunction] = {
    "size": bdd_size_cost,
    "size2": bdd_size_squared_cost,
    "cubes": cube_count_cost,
    "literals": literal_count_cost,
    "shared": shared_bdd_size_cost,
}

#: The registry of cost objectives, keyed by request-level name.
cost_registry: Registry = Registry("cost function", COSTS)

#: The registry of ISF minimisers.  Backs onto the *same* dict as
#: :data:`repro.core.minimize.MINIMIZERS` so the two stay consistent.
minimizer_registry: Registry = Registry("minimizer", MINIMIZERS)

#: The registry of exploration strategies.  Backs onto the *same* dict
#: as :data:`repro.core.explore.STRATEGIES` so strategies registered
#: here are resolvable by :class:`repro.core.BrelOptions` and the CLI.
strategy_registry: Registry = Registry("strategy", STRATEGIES)


def register_cost(name: str, func: Optional[CostFunction] = None, *,
                  overwrite: bool = False):
    """Register a custom cost objective (decorator or direct call)."""
    return cost_registry.register(name, func, overwrite=overwrite)


def register_minimizer(name: str, func: Optional[IsfMinimizer] = None, *,
                       overwrite: bool = False):
    """Register a custom ISF minimiser (decorator or direct call)."""
    return minimizer_registry.register(name, func, overwrite=overwrite)


def register_strategy(name: str, factory: Optional[StrategyFactory] = None,
                      *, overwrite: bool = False):
    """Register an exploration-strategy factory (decorator or direct).

    The factory receives the live :class:`repro.core.BrelOptions` of a
    solve and must return a fresh
    :class:`~repro.core.explore.ExplorationStrategy`::

        from repro.api import register_strategy
        from repro.core import FifoStrategy

        @register_strategy("narrow-bfs")
        def narrow_bfs(options):
            return FifoStrategy(capacity=4)

        SolveRequest(relation="fig1", strategy="narrow-bfs")
    """
    return strategy_registry.register(name, factory, overwrite=overwrite)


def get_cost(name: str) -> CostFunction:
    """Resolve a cost-function name."""
    return cost_registry.get(name)


def get_minimizer(name: str) -> IsfMinimizer:
    """Resolve a minimiser name."""
    return minimizer_registry.get(name)


def cost_names() -> List[str]:
    """Sorted names of the registered cost functions."""
    return cost_registry.names()


def minimizer_names() -> List[str]:
    """Sorted names of the registered minimisers."""
    return minimizer_registry.names()


def get_strategy(name: str) -> StrategyFactory:
    """Resolve an exploration-strategy name to its factory."""
    return strategy_registry.get(name)


def strategy_names() -> List[str]:
    """Sorted names of the registered exploration strategies."""
    return strategy_registry.names()
