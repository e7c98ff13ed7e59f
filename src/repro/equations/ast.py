"""Boolean expression AST used by the equation solver (paper Section 8).

Every walk over a tree — evaluation to a BDD, the variable set, the
text form — runs on an explicit stack (:func:`fold`), so a long chain
such as ``a & b & ... & z`` or ``a''''...`` evaluates whatever its
depth.  Nesting is bounded where the text is parsed
(:data:`repro.equations.parser.MAX_NESTING`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Tuple

from ..bdd.manager import FALSE, TRUE, BddManager


def fold(root: "Expr", visit: Callable[["Expr", List[Any]], Any]) -> Any:
    """``visit(expr, child_results)`` over the tree under ``root``,
    children first, left to right; returns the root's result.  An
    explicit stack, not recursion."""
    results: List[Any] = []
    stack: List[Tuple[Expr, bool]] = [(root, False)]
    while stack:
        expr, ready = stack.pop()
        children = expr.children()
        if ready or not children:
            count = len(children)
            operands = results[len(results) - count:]
            del results[len(results) - count:]
            results.append(visit(expr, operands))
        else:
            stack.append((expr, True))
            stack.extend((child, False) for child in reversed(children))
    return results[0]


class Expr:
    """Base class of Boolean expressions."""

    def children(self) -> Tuple["Expr", ...]:
        """The direct subexpressions, left to right."""
        return ()

    def node(self, mgr: BddManager, env: Dict[str, int],
             operands: List[int]) -> int:
        """This operator's BDD node over its operands' nodes."""
        raise NotImplementedError

    def text(self, operands: List[str]) -> str:
        """This operator's text over its operands' texts."""
        raise NotImplementedError

    def to_bdd(self, mgr: BddManager, env: Dict[str, int]) -> int:
        """Evaluate to a BDD node; ``env`` maps variable name -> node."""
        return fold(self, lambda expr, operands:
                    expr.node(mgr, env, operands))

    def variables(self) -> FrozenSet[str]:
        """The set of variable names appearing in the expression."""
        names = set()
        stack: List[Expr] = [self]
        while stack:
            expr = stack.pop()
            if isinstance(expr, Var):
                names.add(expr.name)
            stack.extend(expr.children())
        return frozenset(names)

    def __repr__(self) -> str:
        return fold(self, lambda expr, operands: expr.text(operands))

    # Operator sugar so expressions compose programmatically too.
    def __and__(self, other: "Expr") -> "Expr":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, other)

    def __xor__(self, other: "Expr") -> "Expr":
        return Xor(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)


class Const(Expr):
    """The constants 0 and 1."""

    def __init__(self, value: bool) -> None:
        self.value = bool(value)

    def node(self, mgr: BddManager, env: Dict[str, int],
             operands: List[int]) -> int:
        return TRUE if self.value else FALSE

    def text(self, operands: List[str]) -> str:
        return "1" if self.value else "0"


class Var(Expr):
    """A named variable."""

    def __init__(self, name: str) -> None:
        self.name = name

    def node(self, mgr: BddManager, env: Dict[str, int],
             operands: List[int]) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise ValueError("unbound variable %r" % self.name) from None

    def text(self, operands: List[str]) -> str:
        return self.name


class Not(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def node(self, mgr: BddManager, env: Dict[str, int],
             operands: List[int]) -> int:
        return mgr.not_(operands[0])

    def text(self, operands: List[str]) -> str:
        return "%s'" % operands[0]


class _Binary(Expr):
    symbol = "?"

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def text(self, operands: List[str]) -> str:
        return "(%s %s %s)" % (operands[0], self.symbol, operands[1])


class And(_Binary):
    symbol = "*"

    def node(self, mgr: BddManager, env: Dict[str, int],
             operands: List[int]) -> int:
        return mgr.and_(operands[0], operands[1])


class Or(_Binary):
    symbol = "+"

    def node(self, mgr: BddManager, env: Dict[str, int],
             operands: List[int]) -> int:
        return mgr.or_(operands[0], operands[1])


class Xor(_Binary):
    symbol = "^"

    def node(self, mgr: BddManager, env: Dict[str, int],
             operands: List[int]) -> int:
        return mgr.xor_(operands[0], operands[1])
