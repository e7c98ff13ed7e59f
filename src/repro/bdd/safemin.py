"""Safe BDD minimisation within a function interval.

Stand-in for *LICompact* (Hong, Beerel, Burch, McMillan, "Safe BDD
minimization using don't cares", DAC'97 — reference [19] of the paper).

The published LICompact algorithm identifies compaction opportunities via
"linear inequalities" over node reachability.  Re-deriving it exactly is out
of scope; what Table 1 of the paper exercises is its *contract*:

* the result stays inside the care interval ``[lower, upper]``;
* minimisation is *safe* — the result is never larger than the input
  representative.

``squeeze`` below provides that contract through two local rules applied
top-down, both classical safe-minimisation moves:

1. **variable elimination** — if the interval ``[low_0 | low_1,
   upp_0 & upp_1]`` is non-empty, the top variable is non-essential and is
   dropped entirely;
2. **sibling substitution** — if one branch's result also fits the other
   branch's interval, reuse it for both, which merges the children.

Both rules only ever merge nodes, hence the safety guarantee.  The
substitution is documented in README ("Benchmark substitutions").  The
walk runs an explicit frame stack, so intervals of any BDD depth are
handled under the default interpreter recursion limit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .manager import FALSE, TRUE, BddManager

# Phases of the explicit-stack walk.
_EXPAND = 0     # inspect an interval, decide which rule applies
_COMBINE = 1    # both branch results done, try sibling substitution
_STORE = 2      # rule-1 passthrough: cache the merged interval's result


def squeeze(mgr: BddManager, lower: int, upper: int) -> int:
    """Return ``f`` with ``lower <= f <= upper`` and a small BDD.

    Raises ``ValueError`` if the interval is empty (``lower`` not contained
    in ``upper``).
    """
    if not mgr.implies(lower, upper):
        raise ValueError("squeeze requires lower <= upper")
    cache: Dict[Tuple[int, int], int] = {}
    results: List[int] = []
    tasks: List[tuple] = [(_EXPAND, lower, upper)]
    while tasks:
        frame = tasks.pop()
        phase = frame[0]
        if phase == _EXPAND:
            low, upp = frame[1], frame[2]
            if low == upp:
                results.append(low)
                continue
            if low == FALSE and upp == TRUE:
                # Unconstrained interval: pick the smaller constant, FALSE.
                results.append(FALSE)
                continue
            if upp == FALSE:
                results.append(FALSE)
                continue
            if low == TRUE:
                results.append(TRUE)
                continue
            key = (low, upp)
            hit = cache.get(key)
            if hit is not None:
                results.append(hit)
                continue
            var = min(mgr.level(low), mgr.level(upp))
            low0 = mgr.cofactor(low, var, False)
            low1 = mgr.cofactor(low, var, True)
            upp0 = mgr.cofactor(upp, var, False)
            upp1 = mgr.cofactor(upp, var, True)

            merged_low = mgr.or_(low0, low1)
            merged_upp = mgr.and_(upp0, upp1)
            if mgr.implies(merged_low, merged_upp):
                # Rule 1: the variable is non-essential over this interval.
                tasks.append((_STORE, key))
                tasks.append((_EXPAND, merged_low, merged_upp))
            else:
                tasks.append((_COMBINE, key, var,
                              (low0, low1, upp0, upp1)))
                tasks.append((_EXPAND, low1, upp1))
                tasks.append((_EXPAND, low0, upp0))
        elif phase == _COMBINE:
            key, var = frame[1], frame[2]
            low0, low1, upp0, upp1 = frame[3]
            r1 = results.pop()
            r0 = results.pop()
            # Rule 2: sibling substitution in both directions.
            if r0 != r1:
                if mgr.implies(low1, r0) and mgr.implies(r0, upp1):
                    r1 = r0
                elif mgr.implies(low0, r1) and mgr.implies(r1, upp0):
                    r0 = r1
            result = mgr.ite(mgr.var(var), r1, r0)
            cache[key] = result
            results.append(result)
        else:  # _STORE: the merged interval's result is also this one's.
            cache[frame[1]] = results[-1]

    result = results[0]
    # Enforce the safety guarantee: both interval endpoints are themselves
    # valid implementations, so the returned function is never larger than
    # the smaller of the two.
    candidates = [(mgr.size(result), result),
                  (mgr.size(lower), lower),
                  (mgr.size(upper), upper)]
    candidates.sort(key=lambda pair: pair[0])
    return candidates[0][1]


def minimize_with_squeeze(mgr: BddManager, on: int, dc: int) -> int:
    """Pick an implementation of the ISF ``[on, on+dc]`` via :func:`squeeze`."""
    return squeeze(mgr, on, mgr.or_(on, dc))
