"""ISF minimisation back-ends (paper Section 7.5, Table 1).

The solver minimises each projected ISF with a pluggable back-end.  The
paper compares three BDD-based techniques and selects ISOP preceded by
non-essential-variable elimination:

* ``isop`` — greedy elimination of non-essential variables (Brown [9],
  pp. 107-112) followed by Minato-Morreale irredundant SOP [24];
* ``isop-noelim`` — the same without the elimination pre-pass (the
  ablation implicit in Table 1's description);
* ``constrain`` / ``restrict`` — generalized-cofactor minimisation
  [13, 14];
* ``licompact`` — safe interval minimisation, our stand-in for [19].

Every back-end returns a *completely specified* implementation of the ISF,
i.e. a BDD node ``f`` with ``on <= f <= on + dc``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..bdd.gencof import constrain, restrict
from ..bdd.isop import eliminate_nonessential
from ..bdd.manager import FALSE, TRUE
from ..bdd.packed import interval_isop, pack, packed_cover
from ..bdd.safemin import squeeze
from .explore import lookup_name
from .isf import Isf, PackedIsf

#: Minimiser signature: ISF in, implementation node out.
IsfMinimizer = Callable[[Isf], int]


def eliminate_nonessential_variables(isf: Isf) -> Isf:
    """Greedily drop variables whose removal keeps the interval non-empty.

    A variable ``z`` is non-essential when ``[∃z.Min, ∀z.Max]`` is a valid
    interval (Brown [9]); eliminating it yields an ISF none of whose
    implementations depend on ``z``.  Variables are tried top-to-bottom in
    the BDD order, matching the paper's description.  This is the
    node-level reference for the packed elimination that
    :func:`_isop_pipeline` runs.
    """
    lower, upper = eliminate_nonessential(isf.mgr, isf.on, isf.upper)
    return Isf.from_interval(isf.mgr, lower, upper, isf.inputs)


def _isop_pipeline(isf: Isf, eliminate: bool):
    """The single implementation behind both ``isop`` minimisers.

    Returns the ``(cover, node)`` pair; :func:`minimize_isop` keeps only
    the node.  Elimination and ISOP both run in the engines' shared
    entry point (:func:`repro.bdd.packed.interval_isop`): packed truth
    tables for intervals of at most 16 variables, with no node built
    until the cover's, and the node-level path (the same as
    :func:`eliminate_nonessential_variables` then ``isop``) for wider
    ones.
    """
    return interval_isop(isf.mgr, isf.on, isf.upper, None, eliminate)


def minimize_isop(isf: Isf, eliminate: bool = True) -> int:
    """The paper's chosen pipeline: variable elimination then ISOP."""
    return _isop_pipeline(isf, eliminate)[1]


def minimize_isop_no_elimination(isf: Isf) -> int:
    """ISOP without the elimination pre-pass (Table 1 ablation)."""
    return minimize_isop(isf, eliminate=False)


def minimize_constrain(isf: Isf) -> int:
    """Generalized-cofactor (constrain) minimisation [13, 14]."""
    care = isf.mgr.not_(isf.dc)
    if care == FALSE:
        return TRUE
    return constrain(isf.mgr, isf.on, care)


def minimize_restrict(isf: Isf) -> int:
    """Generalized-cofactor (restrict) minimisation [13, 14]."""
    care = isf.mgr.not_(isf.dc)
    if care == FALSE:
        return TRUE
    return restrict(isf.mgr, isf.on, care)


def minimize_licompact(isf: Isf) -> int:
    """Safe interval minimisation (LICompact stand-in, see README,
    "Benchmark substitutions")."""
    return squeeze(isf.mgr, isf.on, isf.upper)


def minimize_exact_cubes(isf: Isf) -> int:
    """Exact minimum-cube implementation by exhaustive search.

    Only usable for tiny supports (the test oracle and the paper's "exact
    mode" requirement that the ISF minimiser itself be exact).  Complexity
    is exponential in the DC count.
    """
    mgr = isf.mgr
    isf = eliminate_nonessential_variables(isf)
    support = sorted(set(mgr.support(isf.on)) | set(mgr.support(isf.upper)))
    dc_minterms = list(mgr.minterms(isf.dc, support))
    if len(dc_minterms) > 12:
        raise ValueError("exact ISF minimisation limited to <= 12 DC points")
    best_node = None
    best_key = None
    for mask in range(1 << len(dc_minterms)):
        node = isf.on
        for bit, value in enumerate(dc_minterms):
            if (mask >> bit) & 1:
                node = mgr.or_(node, mgr.minterm(support, value))
        cover, cover_node = mgr.isop(node, node)
        key = (len(cover), sum(len(c) for c in cover))
        if best_key is None or key < best_key:
            best_key, best_node = key, cover_node
    return best_node


#: Registry used by the Table 1 benchmark and the solver options.
MINIMIZERS: Dict[str, IsfMinimizer] = {
    "isop": minimize_isop,
    "isop-noelim": minimize_isop_no_elimination,
    "constrain": minimize_constrain,
    "restrict": minimize_restrict,
    "licompact": minimize_licompact,
    "exact": minimize_exact_cubes,
}


def get_minimizer(name: str) -> IsfMinimizer:
    """Look up a minimiser by registry name."""
    return lookup_name(MINIMIZERS, name, "unknown ISF minimizer %r")


#: The built-in minimisers.  All of them are *structural*: they compute
#: by Shannon recursion on the interval BDDs, so they give the same
#: implementation whether they run on nodes or on the ISF's packed
#: truth tables.  Custom registered minimisers carry no such guarantee
#: and always get the ISF as nodes.
_STRUCTURAL_MINIMIZER_NAMES = ("isop", "isop-noelim", "constrain",
                               "restrict", "licompact", "exact")


def minimizer_memo_key(minimizer: IsfMinimizer) -> Optional[str]:
    """The built-in name of a minimiser, or ``None`` for a custom one.

    A named minimiser runs on packed ISFs
    (:func:`minimize_packed`); ``None`` sends the ISF to the callable
    as nodes.  The identity check tolerates re-registration under
    extra names because the name is resolved from the callable, not
    the request string.  (The function name predates the retirement
    of the subproblem memo.)
    """
    for name in _STRUCTURAL_MINIMIZER_NAMES:
        if MINIMIZERS.get(name) is minimizer:
            return name
    return None


def minimize_packed(isf: PackedIsf, minimizer: IsfMinimizer,
                    minimizer_name: str) -> int:
    """Run a structural minimiser on a packed ISF.

    Returns the implementation's packed table over ``isf.support``.
    The ``isop`` minimisers run the packed kernel on the ISF's tables
    directly (the same intervals :func:`_isop_pipeline` packs, so the
    same functions) and build no node; the others get the ISF unpacked
    to nodes, and their result is packed back.
    """
    if minimizer_name == "isop" or minimizer_name == "isop-noelim":
        return packed_cover(isf.mgr, isf.on, isf.on | isf.dc,
                            len(isf.support), minimizer_name == "isop")
    (table,) = pack(isf.mgr, (minimizer(isf.unpack()),), isf.support)
    return table


def solve_misf(misf, minimizer: IsfMinimizer = minimize_isop) -> List[int]:
    """Minimise every component of an MISF independently (paper §5.3)."""
    return [minimizer(component) for component in misf]
