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

from typing import Callable, Dict, List, Optional, Tuple

from ..bdd.gencof import constrain, restrict
from ..bdd.isop import eliminate_nonessential
from ..bdd.manager import FALSE, TRUE
from ..bdd.packed import (MAX_TABLE_WIDTH, cover_table, interval_isop,
                          node_of, packed_isop, tables_of)
from ..bdd.safemin import squeeze
from .isf import Isf, PackedIsf
from .memo import (MemoStore, VarCover, instantiate_var_cover,
                   template_from_var_cover, var_cover_from_template)

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


def _isop_pipeline(isf: Isf, eliminate: bool,
                   support: Optional[Tuple[int, ...]] = None):
    """The single implementation behind both ``isop`` minimisers.

    Returns the full ``(cover, node)`` pair so the memo layer can store
    the cover this pipeline computes anyway; :func:`minimize_isop`
    keeps only the node.  Being the one copy is load-bearing: the memo
    transparency invariant requires the memo-on miss path and the plain
    path to run literally the same computation.

    Elimination and ISOP both run in the engines' shared entry point
    (:func:`repro.bdd.packed.interval_isop`): packed truth tables for
    intervals of at most 16 variables, with no node built until the
    cover's, and the node-level path (the same as
    :func:`eliminate_nonessential_variables` then ``isop``) for wider
    ones.  ``support`` is the ISF's signature support when the caller
    holds it.
    """
    return interval_isop(isf.mgr, isf.on, isf.upper, support, eliminate)


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
    """Safe interval minimisation (LICompact stand-in, see DESIGN.md §4)."""
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
    try:
        return MINIMIZERS[name]
    except KeyError:
        raise ValueError("unknown ISF minimizer %r (available: %s)"
                         % (name, ", ".join(sorted(MINIMIZERS)))) from None


#: Minimisers the memo store may serve across subproblem renamings.
#: All of them are *structural* — they compute by Shannon recursion on
#: the interval BDDs, so they commute with any order-preserving renaming
#: of the support, which is exactly what makes a normalised-signature
#: memo hit transparent.  Custom registered minimisers carry no such
#: guarantee and therefore bypass the store.
_STRUCTURAL_MINIMIZER_NAMES = ("isop", "isop-noelim", "constrain",
                               "restrict", "licompact", "exact")


def minimizer_memo_key(minimizer: IsfMinimizer) -> Optional[str]:
    """The memo-key name of a minimiser, or ``None`` to bypass the memo.

    Only the built-in structural minimisers are memo-safe (see
    :data:`_STRUCTURAL_MINIMIZER_NAMES`); the identity check tolerates
    re-registration under extra names because keys are resolved from
    the callable, not the request string.
    """
    for name in _STRUCTURAL_MINIMIZER_NAMES:
        if MINIMIZERS.get(name) is minimizer:
            return name
    return None


def _run_with_cover(isf: Isf, minimizer: IsfMinimizer,
                    minimizer_name: str, support: Tuple[int, ...]
                    ) -> Tuple[int, VarCover]:
    """Run a structural minimiser, also returning an ISOP cover.

    The cover (at variable level) disjoins exactly to the returned node
    — callers turn it into rank templates for the memo store without a
    second cover extraction.  The ``isop`` minimisers share
    :func:`_isop_pipeline`, which computes a cover anyway
    (:func:`minimize_isop` normally discards it); the
    generalized-cofactor/interval minimisers pay one ``isop`` over the
    exact result, but only on memo misses.  ``support`` is the ISF's
    signature support.  This is the node-level path, for ISFs wider
    than :data:`~repro.bdd.packed.MAX_TABLE_WIDTH`; narrower ones run
    :func:`minimize_packed`.
    """
    if minimizer_name == "isop":
        cover, node = _isop_pipeline(isf, True, support)
    elif minimizer_name == "isop-noelim":
        cover, node = _isop_pipeline(isf, False, support)
    else:
        node = minimizer(isf)
        cover, _ = isf.mgr.isop(node, node)
    # ISOP cubes list their variables by increasing level already.
    return node, tuple(tuple(cube.items()) for cube in cover)


def minimize_packed(isf: PackedIsf, minimizer: IsfMinimizer,
                    minimizer_name: str, with_cover: bool = True
                    ) -> Tuple[int, Optional[VarCover], int]:
    """Run a structural minimiser on a packed ISF.

    Returns ``(node, cover, table)``: the implementation's node, its
    variable-level ISOP cover (``None`` when ``with_cover`` is off and
    the minimiser does not compute one anyway) and its packed table
    over ``isf.support``.  The ``isop`` minimisers run the packed
    kernel on the ISF's tables directly (the same intervals
    :func:`_isop_pipeline` packs, so the same covers and nodes); the
    others get the ISF unpacked to nodes, and their result is packed
    back.
    """
    if minimizer_name == "isop" or minimizer_name == "isop-noelim":
        cover, node, table = packed_isop(isf.mgr, isf.on, isf.on | isf.dc,
                                         isf.support,
                                         minimizer_name == "isop")
        return node, cover, table
    node = minimizer(isf.unpack())
    (table,) = tables_of(isf.mgr, (node,), isf.support)
    cover = None
    if with_cover:
        cover = packed_isop(isf.mgr, table, table, isf.support)[0]
    return node, cover, table


#: A minimisation result: ``(node, variable-level cover, packed table
#: over the ISF's support or None for ISFs too wide to pack)``.
Minimized = Tuple[int, VarCover, Optional[int]]


def minimize_with_cover(isf, minimizer: IsfMinimizer,
                        memo: Optional[MemoStore],
                        minimizer_name: str,
                        reuse: Optional[Dict[Tuple, Minimized]] = None
                        ) -> Minimized:
    """Memoised minimisation returning ``(node, cover, table)``.

    ``isf`` is an :class:`Isf` or a :class:`PackedIsf`; an ``Isf``
    whose support fits :data:`~repro.bdd.packed.MAX_TABLE_WIDTH` is
    packed first, so both forms share one memo key (:meth:`PackedIsf.key`)
    and the packed kernel.  The variable-level cover lets callers
    assemble whole-solution templates (one cover per output,
    renumbered to the *relation's* support) without re-extracting
    anything; the table (``None`` past the width) is the node's packed
    table over the ISF's support.  ``memo=None`` skips memoisation.
    ``reuse`` is a solve's ``(memo key, support) -> result`` map
    (:class:`~repro.core.route.SubproblemRouter` holds it): every
    memoised result lands in it, and a memo hit it already holds skips
    the cover rebuild.  The store sees the same ``get``/``put`` calls
    either way.
    """
    if isinstance(isf, Isf):
        sig = isf.signature()
        support = sig.support
        if len(support) <= MAX_TABLE_WIDTH:
            isf = PackedIsf.from_isf(isf, support)
            identity = isf.key()
        else:
            identity = sig.key
    else:
        support = isf.support
        identity = isf.key()
    packed = isinstance(isf, PackedIsf)
    key = ("isf", identity, minimizer_name)
    reuse_key = (key, support)
    template = memo.get(key) if memo is not None else None
    if template is not None:
        served = reuse.get(reuse_key) if reuse is not None else None
        if served is not None:
            return served
        cover = var_cover_from_template(template, support)
        if packed:
            table = cover_table(len(support), template)
            served = (node_of(isf.mgr, table, support), cover, table)
        else:
            served = (instantiate_var_cover(isf.mgr, cover), cover, None)
    else:
        if packed:
            served = minimize_packed(isf, minimizer, minimizer_name)
        else:
            served = _run_with_cover(isf, minimizer, minimizer_name,
                                     support) + (None,)
        if memo is not None:
            rank = {var: index for index, var in enumerate(support)}
            cover = served[1]
            memo.put_if_mappable(
                key, lambda: template_from_var_cover(cover, rank))
    if reuse is not None:
        reuse[reuse_key] = served
    return served


def minimize_memoised(isf: Isf, minimizer: IsfMinimizer,
                      memo: Optional[MemoStore],
                      minimizer_name: Optional[str] = None) -> int:
    """Minimise one ISF through the shared memo store.

    A hit re-instantiates the stored rank cover over the ISF's own
    support — byte-identical to a fresh run of the (structural)
    minimiser; a miss runs the minimiser and stores its result.
    ``minimizer_name`` lets hot loops pre-resolve
    :func:`minimizer_memo_key`; unnamed (custom) minimisers bypass the
    store entirely.
    """
    if memo is None:
        return minimizer(isf)
    if minimizer_name is None:
        minimizer_name = minimizer_memo_key(minimizer)
        if minimizer_name is None:
            return minimizer(isf)
    return minimize_with_cover(isf, minimizer, memo, minimizer_name)[0]


def solve_misf(misf, minimizer: IsfMinimizer = minimize_isop, *,
               memo: Optional[MemoStore] = None) -> List[int]:
    """Minimise every component of an MISF independently (paper §5.3).

    ``memo`` threads each component minimisation through a shared
    :class:`~repro.core.memo.MemoStore` so identical (up to renaming)
    ISFs across subrelations, solves and sessions are minimised once.
    """
    if memo is None:
        return [minimizer(component) for component in misf]
    name = minimizer_memo_key(minimizer)
    if name is None:
        return [minimizer(component) for component in misf]
    return [minimize_with_cover(component, minimizer, memo, name)[0]
            for component in misf]
