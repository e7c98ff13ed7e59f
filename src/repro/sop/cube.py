"""Cubes in positional notation.

A cube over ``n`` Boolean variables is stored as a tuple of per-variable
values from :data:`ZERO` (negative literal), :data:`ONE` (positive literal)
and :data:`DASH` (variable absent / don't care).  This is the classical
espresso "positional cube" encoding restricted to the binary case, the
representation used by the two-level machinery and the gyocro/Herb
baselines.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

#: Negative literal.
ZERO = 0
#: Positive literal.
ONE = 1
#: Don't care (variable not in the cube).
DASH = 2

_CHAR = {ZERO: "0", ONE: "1", DASH: "-"}
_VALUE = {"0": ZERO, "1": ONE, "-": DASH, "2": DASH, "x": DASH, "X": DASH}


class Cube:
    """An immutable cube (product term) over a fixed variable count."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]) -> None:
        for value in values:
            if value not in (ZERO, ONE, DASH):
                raise ValueError("cube entries must be 0, 1 or DASH")
        self.values: Tuple[int, ...] = tuple(values)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_str(text: str) -> "Cube":
        """Parse ``"1-0"``-style notation (``-``/``2``/``x`` = don't care)."""
        try:
            return Cube([_VALUE[ch] for ch in text.strip()])
        except KeyError as exc:
            raise ValueError("bad cube character: %s" % exc) from exc

    @staticmethod
    def universe(width: int) -> "Cube":
        """The cube with every variable a don't care (the whole space)."""
        return Cube([DASH] * width)

    @staticmethod
    def from_assignment(width: int, assignment: Dict[int, bool]) -> "Cube":
        """Build a cube from a var-index -> polarity mapping."""
        values = [DASH] * width
        for var, polarity in assignment.items():
            values[var] = ONE if polarity else ZERO
        return Cube(values)

    @staticmethod
    def minterm(width: int, value: int) -> "Cube":
        """The minterm whose bit ``i`` of ``value`` is variable ``i``."""
        return Cube([(value >> i) & 1 for i in range(width)])

    # -- dunder ------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of variable positions."""
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cube) and self.values == other.values

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> int:
        return self.values[index]

    def __repr__(self) -> str:
        return "Cube(%s)" % str(self)

    def __str__(self) -> str:
        return "".join(_CHAR[value] for value in self.values)

    # -- literal queries -----------------------------------------------
    def literal_count(self) -> int:
        """Number of positions that are not don't care."""
        return len(self.values) - self.values.count(DASH)

    def literals(self) -> Dict[int, bool]:
        """The cube as a var-index -> polarity mapping."""
        return {index: value == ONE
                for index, value in enumerate(self.values) if value != DASH}

    def is_minterm(self) -> bool:
        """True when every variable is bound."""
        return all(value != DASH for value in self.values)

    def is_universe(self) -> bool:
        """True when no variable is bound (the tautology cube)."""
        return all(value == DASH for value in self.values)

    # -- cube algebra -----------------------------------------------------
    def contains(self, other: "Cube") -> bool:
        """Single-cube containment: does ``self`` cover ``other``?"""
        for mine, theirs in zip(self.values, other.values):
            if mine != DASH and mine != theirs:
                return False
        return True

    def covers_point(self, point: int) -> bool:
        """Does the cube cover the minterm encoded by integer ``point``?"""
        for index, value in enumerate(self.values):
            if value != DASH and value != ((point >> index) & 1):
                return False
        return True

    def intersects(self, other: "Cube") -> bool:
        """True when the two cubes share at least one minterm."""
        for mine, theirs in zip(self.values, other.values):
            if mine != DASH and theirs != DASH and mine != theirs:
                return False
        return True

    def intersection(self, other: "Cube") -> Optional["Cube"]:
        """The meet of two cubes, or None when they are disjoint."""
        result = []
        for mine, theirs in zip(self.values, other.values):
            if mine == DASH:
                result.append(theirs)
            elif theirs == DASH or theirs == mine:
                result.append(mine)
            else:
                return None
        return Cube(result)

    def supercube(self, other: "Cube") -> "Cube":
        """The smallest cube containing both operands."""
        result = []
        for mine, theirs in zip(self.values, other.values):
            result.append(mine if mine == theirs else DASH)
        return Cube(result)

    def distance(self, other: "Cube") -> int:
        """Number of positions where the cubes conflict (0 = intersecting)."""
        return sum(1 for mine, theirs in zip(self.values, other.values)
                   if mine != DASH and theirs != DASH and mine != theirs)

    def cofactor(self, other: "Cube") -> Optional["Cube"]:
        """The espresso cofactor of ``self`` with respect to ``other``.

        Returns None when the cubes do not intersect.  Positions bound by
        ``other`` become don't cares in the result.
        """
        if not self.intersects(other):
            return None
        result = []
        for mine, theirs in zip(self.values, other.values):
            result.append(DASH if theirs != DASH else mine)
        return Cube(result)

    def raise_var(self, index: int) -> "Cube":
        """Return the cube with variable ``index`` freed to don't care."""
        values = list(self.values)
        values[index] = DASH
        return Cube(values)

    def set_var(self, index: int, value: int) -> "Cube":
        """Return the cube with variable ``index`` bound to ``value``."""
        values = list(self.values)
        values[index] = value
        return Cube(values)

    # -- enumeration ------------------------------------------------------
    def size(self) -> int:
        """Number of minterms covered."""
        return 1 << sum(1 for value in self.values if value == DASH)

    def minterms(self) -> Iterator[int]:
        """Yield the integer encodings of all covered minterms."""
        free = [index for index, value in enumerate(self.values)
                if value == DASH]
        base = 0
        for index, value in enumerate(self.values):
            if value == ONE:
                base |= 1 << index
        for mask in range(1 << len(free)):
            point = base
            for bit, index in enumerate(free):
                if (mask >> bit) & 1:
                    point |= 1 << index
            yield point
