"""The Table 2 Boolean-relation benchmark suite (synthetic reconstruction).

Instance names follow the gyocro suite the paper evaluates (int1…int10,
she* / b9 / vtx / gr style examples); PI/PO counts are chosen at the same
scale as the published table (4-8 inputs, 3-5 outputs).  Each instance is
generated deterministically from its name, so every benchmark run sees the
same relations.  See README, "Benchmark substitutions", for the
substitution rationale.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.relation import BooleanRelation
from .brgen import random_relation


@dataclass(frozen=True)
class BrInstance:
    """One named benchmark relation specification."""

    name: str
    num_inputs: int
    num_outputs: int
    flexibility: float
    non_cube_fraction: float

    def build(self) -> BooleanRelation:
        seed = zlib.crc32(self.name.encode("ascii"))
        return random_relation(self.num_inputs, self.num_outputs, seed,
                               self.flexibility, self.non_cube_fraction)


#: The Table 2 instance list (name, PI, PO, flexibility, non-cube share).
SUITE: List[BrInstance] = [
    BrInstance("int1", 4, 3, 0.6, 0.5),
    BrInstance("int2", 4, 4, 0.6, 0.5),
    BrInstance("int3", 5, 3, 0.5, 0.5),
    BrInstance("int4", 5, 4, 0.5, 0.5),
    BrInstance("int5", 6, 3, 0.5, 0.4),
    BrInstance("int6", 6, 4, 0.5, 0.4),
    BrInstance("int7", 7, 3, 0.4, 0.4),
    BrInstance("int8", 7, 4, 0.4, 0.4),
    BrInstance("int9", 8, 3, 0.4, 0.3),
    BrInstance("int10", 8, 4, 0.4, 0.3),
    BrInstance("she1", 5, 3, 0.7, 0.6),
    BrInstance("she2", 6, 4, 0.7, 0.6),
    BrInstance("she3", 7, 3, 0.6, 0.6),
    BrInstance("b9", 6, 4, 0.5, 0.7),
    BrInstance("vtx", 6, 4, 0.6, 0.7),
    BrInstance("gr", 8, 5, 0.5, 0.5),
    BrInstance("c17b", 5, 2, 0.5, 0.5),
    BrInstance("c17i", 5, 3, 0.5, 0.5),
]


def instance_by_name(name: str) -> BrInstance:
    for instance in SUITE:
        if instance.name == name:
            return instance
    raise KeyError("unknown BR benchmark %r" % name)


def build_suite(names: Tuple[str, ...] = ()) -> Dict[str, BooleanRelation]:
    """Build all (or the named subset of) suite relations."""
    selected = SUITE if not names else [instance_by_name(n) for n in names]
    return {instance.name: instance.build() for instance in selected}


def export_suite(directory: str) -> List[str]:
    """Write every suite relation as a ``.pla`` file (relio dialect).

    Returns the list of file paths written.  Useful for driving the
    ``python -m repro solve`` CLI or external tools.
    """
    import os

    from ..core.relio import save_relation

    os.makedirs(directory, exist_ok=True)
    paths = []
    for instance in SUITE:
        relation = instance.build()
        path = os.path.join(directory, "%s.pla" % instance.name)
        save_relation(relation, path,
                      comment="%s: %d inputs, %d outputs (seeded synthetic "
                              "reconstruction)" % (instance.name,
                                                   instance.num_inputs,
                                                   instance.num_outputs))
        paths.append(path)
    return paths
