"""The function-engine backend protocol.

:mod:`repro.core` never manipulates BDD nodes directly: every algorithm
— ISF projection, QuickSolver, the minimisers (ISOP, generalized
cofactors, squeeze), the BREL search loop and output-block
partitioning — goes through the operation surface defined here.
:class:`FunctionBackend` names that surface explicitly so a second
engine can implement it and slot in underneath the whole stack.

Two implementations ship:

* :class:`repro.bdd.BddManager` — hash-consed ROBDDs, the general
  engine (any number of variables, shared DAGs, GC);
* :class:`repro.table.TableManager` — packed truth tables over a small
  fixed-width variable frame (word-wise bitwise kernels, no node
  machinery), the narrow-subproblem fast path.

The contract every backend must honour
--------------------------------------
* **Handles.** Functions are opaque ``int`` handles; ``FALSE == 0`` and
  ``TRUE == 1`` are the terminal constants, and handle equality is
  semantic equality (``f == g`` iff the functions are equal).  Core
  code relies on both (``conflicts == FALSE``, set/dict keys).
* **Structure.** ``level(f)`` is the top (minimum) support variable of
  a non-terminal handle, and ``low(f)``/``high(f)`` are its cofactors
  at that variable — the *reduced-BDD view* of the function, whatever
  the representation.  Structural walks (shortest-path cube extraction,
  cube iteration) only use this view, so they behave identically on
  every backend.
* **Solve scope.** ``enter_solve``/``exit_solve`` bracket a solve;
  ``isop`` keeps its sub-interval table from the outermost
  ``enter_solve`` to the matching ``exit_solve``.  ``clear_caches``
  drops the computed and ISOP tables, ``release_caches`` every derived
  table.
* **Cost parity.** ``size(f)`` counts the internal nodes of the
  *reduced BDD* of ``f`` (constants are 0) regardless of
  representation, so the paper's BDD-size cost prices a candidate the
  same on every backend.
* **Stats.** ``stats()`` must include at least the ``"nodes"``,
  ``"cache_hits"`` and ``"cache_misses"`` counters the solver samples.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

try:  # Protocol is 3.8+; keep the import defensive for exotic builds.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - pre-3.8 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

__all__ = ["FunctionBackend", "BACKEND_METHODS", "conforms"]

#: Every method a conforming backend must provide.  The conformance
#: helper (and the test suite) checks presence against this list, so a
#: protocol extension must be registered here to be enforced.
BACKEND_METHODS = (
    # variable frame
    "add_var", "add_vars", "var", "nvar", "var_name",
    # reduced-BDD structural view
    "level", "low", "high", "is_terminal",
    # connectives and quantifiers
    "apply", "and_", "or_", "xor_", "xnor_", "diff", "not_", "ite",
    "implies", "cofactor", "restrict_cube", "exists", "forall",
    "compose",
    # structural queries
    "support", "size", "shared_size", "sat_count", "eval",
    # cube / minterm construction
    "cube", "minterm", "from_minterms", "minterms",
    # two-level synthesis
    "isop",
    # lifecycle
    "pin", "unpin", "collect", "stats", "enter_solve", "exit_solve",
    "clear_caches", "release_caches",
)


@runtime_checkable
class FunctionBackend(Protocol):
    """Structural protocol of a function engine (see module docstring).

    ``BddManager`` and ``TableManager`` both conform; annotate core
    code against this type, not a concrete manager.
    """

    # -- variable frame ------------------------------------------------
    def add_var(self, name: Optional[str] = None) -> int: ...
    def add_vars(self, count: int, prefix: str = "v") -> List[int]: ...
    @property
    def num_vars(self) -> int: ...
    def var(self, index: int) -> int: ...
    def nvar(self, index: int) -> int: ...
    def var_name(self, index: int) -> str: ...

    # -- reduced-BDD structural view ------------------------------------
    def level(self, f: int) -> int: ...
    def low(self, f: int) -> int: ...
    def high(self, f: int) -> int: ...
    def is_terminal(self, f: int) -> bool: ...

    # -- connectives and quantifiers ------------------------------------
    def apply(self, op: str, f: int, g: int) -> int: ...
    def and_(self, f: int, g: int) -> int: ...
    def or_(self, f: int, g: int) -> int: ...
    def xor_(self, f: int, g: int) -> int: ...
    def xnor_(self, f: int, g: int) -> int: ...
    def diff(self, f: int, g: int) -> int: ...
    def not_(self, f: int) -> int: ...
    def ite(self, f: int, g: int, h: int) -> int: ...
    def implies(self, f: int, g: int) -> bool: ...
    def cofactor(self, f: int, var: int, value: bool) -> int: ...
    def restrict_cube(self, f: int,
                      assignment: Dict[int, bool]) -> int: ...
    def exists(self, f: int, variables: Iterable[int]) -> int: ...
    def forall(self, f: int, variables: Iterable[int]) -> int: ...
    def compose(self, f: int, var: int, g: int) -> int: ...

    # -- structural queries ---------------------------------------------
    def support(self, f: int) -> Tuple[int, ...]: ...
    def size(self, f: int) -> int: ...
    def shared_size(self, functions: Sequence[int]) -> int: ...
    def sat_count(self, f: int, variables: Sequence[int]) -> int: ...
    def eval(self, f: int, assignment: Dict[int, bool]) -> bool: ...

    # -- cube / minterm construction ------------------------------------
    def cube(self, assignment: Dict[int, bool]) -> int: ...
    def minterm(self, variables: Sequence[int], value: int) -> int: ...
    def from_minterms(self, variables: Sequence[int],
                      values: Iterable[int]) -> int: ...
    def minterms(self, f: int,
                 variables: Sequence[int]) -> Iterator[int]: ...

    # -- two-level synthesis --------------------------------------------
    def isop(self, lower: int,
             upper: int) -> Tuple[List[Dict[int, bool]], int]: ...

    # -- lifecycle ------------------------------------------------------
    def pin(self, node: int) -> int: ...
    def unpin(self, node: int) -> None: ...
    def collect(self, extra_roots: Iterable[int] = ()
                ) -> Dict[int, int]: ...
    def stats(self) -> Dict[str, Any]: ...
    def enter_solve(self) -> None: ...
    def exit_solve(self) -> None: ...
    def clear_caches(self) -> None: ...
    def release_caches(self) -> None: ...


def conforms(backend: Any) -> List[str]:
    """The :data:`BACKEND_METHODS` entries ``backend`` is missing.

    An empty list means the object exposes the full protocol surface
    (presence only; semantics are covered by the differential suite).
    """
    return [name for name in BACKEND_METHODS
            if not callable(getattr(backend, name, None))
            and name != "num_vars"]
