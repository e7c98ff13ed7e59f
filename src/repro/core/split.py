"""Split-point selection (paper Section 7.4).

When the minimised MISF conflicts with the relation, BREL picks:

* the input vertex ``x``: existentially abstract the outputs from the
  incompatibility characteristic function, take the *shortest path* in the
  resulting BDD (the largest cube of adjacent conflicting vertices) and
  bind its don't-care variables to 1;
* the output ``y_i``: the first output in the BDD variable order whose
  projection still allows both values at ``x`` (the Theorem 5.2
  precondition for a well-defined strict split).

Both steps are calls on the relation, so a
:class:`~repro.core.relation.BooleanRelation` answers them on nodes and
a :class:`~repro.core.packedrel.PackedRelation` on its truth table, by
the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .relation import BooleanRelation


@dataclass(frozen=True)
class SplitChoice:
    """A selected split point: full input vertex plus output position."""

    vertex: Tuple[Tuple[int, bool], ...]
    position: int

    def vertex_dict(self) -> Dict[int, bool]:
        return dict(self.vertex)


def select_split(relation: BooleanRelation,
                 functions: Sequence[int]) -> Optional[SplitChoice]:
    """Choose the split point for an incompatible candidate function.

    Returns None when the candidate is actually compatible (no conflicts).
    Raises ``ValueError`` if no output admits both values at the chosen
    vertex — impossible for conflicts arising from a well-defined
    relation, so it indicates caller misuse.
    """
    conflicts = relation.conflict_inputs(functions)
    if not conflicts:
        return None
    return select_split_from_conflicts(relation, conflicts)


def select_split_from_conflicts(relation: BooleanRelation,
                                conflicts: int) -> SplitChoice:
    """Split selection given the conflict input set ``C = ∃Y.Incomp``.

    ``relation`` is a :class:`~repro.core.relation.BooleanRelation`
    with ``C`` as a node, or a
    :class:`~repro.core.packedrel.PackedRelation` with ``C`` as an
    input table; the vertex comes from ``C``'s shortest path
    (``conflict_cube``) and the output from ``can_split``.  Raises
    ``ValueError`` when no output has a don't care at the vertex.
    """
    cube = relation.conflict_cube(conflicts)
    if cube is None:
        raise ValueError("conflict set is empty")
    # "The input vertex x is obtained from the incompatible input cube by
    #  assigning the value 1 to the variables with a don't care value."
    vertex = {var: cube.get(var, True) for var in relation.inputs}
    position = next((position
                     for position in range(len(relation.outputs))
                     if relation.can_split(vertex, position)), None)
    if position is None:
        raise ValueError(
            "no output admits both values at the conflict vertex; "
            "was the relation well defined?")
    return SplitChoice(tuple(sorted(vertex.items())), position)
