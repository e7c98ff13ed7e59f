"""Answer checks that never consult the program's own verdicts.

* :func:`check_sop` evaluates a solve report's SOP rendering on every
  input vertex and checks each output vector against the allowed set
  the benchmark generated.
* :func:`check_blif` simulates a rewritten BLIF netlist against the
  original on seeded vectors, with a BLIF evaluator owned by this file,
  comparing every primary output and every latch's next-state function.

Both work bit-parallel: a signal is a Python int whose bit ``k`` is its
value under vector ``k``.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Optional, Set, Tuple

_LITERAL = re.compile(r"([A-Za-z_]+)(\d+)(')?")


def _vertex_masks(num_inputs: int) -> Tuple[int, List[int]]:
    """All-ones mask and each input's truth table over all vertices."""
    full = (1 << (1 << num_inputs)) - 1
    masks = []
    for var in range(num_inputs):
        mask = 0
        for vertex in range(1 << num_inputs):
            if (vertex >> var) & 1:
                mask |= 1 << vertex
        masks.append(mask)
    return full, masks


def sop_tables(sop: str, num_inputs: int) -> List[int]:
    """Truth table of each ``fN = ...`` line of a report's SOP text.

    Input ``i`` is the variable named ``x<i>``.  Raises ``ValueError``
    on anything it cannot read, which the caller counts as a failure.
    """
    full, masks = _vertex_masks(num_inputs)
    tables = []
    for line in sop.strip().splitlines():
        _, _, expression = line.partition(" = ")
        expression = expression.strip()
        table = 0
        if expression != "0":
            for term in expression.split(" + "):
                term = term.strip()
                cube = full
                if term != "1":
                    consumed = 0
                    for match in _LITERAL.finditer(term):
                        if match.start() != consumed:
                            raise ValueError("bad term %r" % term)
                        consumed = match.end()
                        if match.group(1) != "x":
                            raise ValueError("unknown variable in %r" % term)
                        var = int(match.group(2))
                        if var >= num_inputs:
                            raise ValueError("input %d out of range" % var)
                        literal = masks[var]
                        cube &= (full ^ literal) if match.group(3) else literal
                    if consumed != len(term):
                        raise ValueError("bad term %r" % term)
                table |= cube
        tables.append(table)
    return tables


def check_sop(sop: Optional[str], num_inputs: int, num_outputs: int,
              rows: List[Set[int]]) -> Optional[str]:
    """``None`` when the SOP realises a function inside the relation."""
    if not sop:
        return "report has no SOP"
    try:
        tables = sop_tables(sop, num_inputs)
    except ValueError as exc:
        return "unreadable SOP: %s" % exc
    if len(tables) != num_outputs:
        return "SOP has %d outputs, expected %d" % (len(tables), num_outputs)
    for vertex, allowed in enumerate(rows):
        value = 0
        for position, table in enumerate(tables):
            if (table >> vertex) & 1:
                value |= 1 << position
        if value not in allowed:
            return "vertex %d maps to %d, outside %s" % (
                vertex, value, sorted(allowed))
    return None


class Netlist:
    """A parsed BLIF model: SOP tables plus latches."""

    def __init__(self, text: str) -> None:
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        #: latch output (state) -> latch input (next-state signal)
        self.latches: Dict[str, str] = {}
        #: signal -> (fanins, on-set rows, rows-are-off-set)
        self.tables: Dict[str, Tuple[List[str], List[str], bool]] = {}
        current: Optional[Tuple[List[str], str, List[str]]] = None
        for line in self._lines(text):
            if line.startswith("."):
                if current is not None:
                    self._add_table(*current)
                    current = None
                words = line.split()
                if words[0] == ".inputs":
                    self.inputs.extend(words[1:])
                elif words[0] == ".outputs":
                    self.outputs.extend(words[1:])
                elif words[0] == ".latch":
                    self.latches[words[2]] = words[1]
                elif words[0] == ".names":
                    current = (words[1:-1], words[-1], [])
                elif words[0] == ".end":
                    break
            elif current is not None:
                current[2].append(line)
            else:
                raise ValueError("table row outside .names: %r" % line)
        if current is not None:
            self._add_table(*current)

    @staticmethod
    def _lines(text: str) -> List[str]:
        lines, pending = [], ""
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].rstrip()
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            line = (pending + line).strip()
            pending = ""
            if line:
                lines.append(line)
        return lines

    def _add_table(self, fanins: List[str], name: str,
                   rows: List[str]) -> None:
        planes, values = [], set()
        for row in rows:
            parts = row.split()
            plane, value = ("", parts[0]) if not fanins else parts
            if len(plane) != len(fanins):
                raise ValueError("arity mismatch in table of %r" % name)
            planes.append(plane)
            values.add(value)
        if len(values) > 1:
            raise ValueError("table of %r mixes on- and off-set" % name)
        self.tables[name] = (fanins, planes, values == {"0"})

    def literal_count(self) -> int:
        """Literals over all SOP tables (``-`` entries are not literals)."""
        return sum(len(plane) - plane.count("-")
                   for _, planes, _ in self.tables.values()
                   for plane in planes)

    def leaves(self) -> List[str]:
        return list(self.inputs) + sorted(self.latches)

    def evaluate(self, leaf_values: Dict[str, int], full: int
                 ) -> Dict[str, int]:
        """Every observed signal's value: outputs, then next states."""
        values = dict(leaf_values)
        visiting: Set[str] = set()

        def value_of(signal: str) -> int:
            stack = [signal]
            while stack:
                top = stack[-1]
                if top in values:
                    stack.pop()
                    continue
                if top not in self.tables:
                    raise ValueError("undriven signal %r" % top)
                fanins, planes, off_set = self.tables[top]
                missing = [f for f in fanins if f not in values]
                if missing:
                    if visiting.intersection(missing):
                        raise ValueError("combinational cycle at %r" % top)
                    visiting.add(top)
                    stack.extend(missing)
                    continue
                visiting.discard(top)
                stack.pop()
                table = 0
                for plane in planes:
                    cube = full
                    for fanin, char in zip(fanins, plane):
                        if char == "1":
                            cube &= values[fanin]
                        elif char == "0":
                            cube &= full ^ values[fanin]
                    table |= cube
                values[top] = (full ^ table) if off_set else table
            return values[signal]

        observed = {"po:" + name: value_of(name) for name in self.outputs}
        for state, next_state in self.latches.items():
            observed["ns:" + state] = value_of(next_state)
        return observed


def check_blif(original: Netlist, rewritten_text: Optional[str],
               seed: str, vectors: int = 256
               ) -> Tuple[Optional[str], Optional[int]]:
    """``(error, literals)``: error is ``None`` when the rewrite matches
    the original on every vector; literals counts the rewrite's SOPs."""
    if not rewritten_text:
        return "report has no BLIF", None
    try:
        rewritten = Netlist(rewritten_text)
    except (ValueError, IndexError) as exc:
        return "unreadable BLIF: %s" % exc, None
    leaves = original.leaves()
    if rewritten.leaves() != leaves or rewritten.outputs != original.outputs:
        return "interface changed", None
    rng = random.Random(seed)
    full = (1 << vectors) - 1
    leaf_values = {leaf: rng.getrandbits(vectors) for leaf in leaves}
    try:
        got = rewritten.evaluate(leaf_values, full)
    except ValueError as exc:
        return "rewritten netlist: %s" % exc, None
    want = original.evaluate(leaf_values, full)
    for signal, value in want.items():
        if got[signal] != value:
            return "%s differs" % signal, None
    return None, rewritten.literal_count()
