"""A small parser for EDA-style Boolean expressions.

Grammar (from loosest to tightest binding)::

    expr   := xor ( '+' | '|' xor )*
    xor    := term ( '^' term )*
    term   := factor ( ( '*' | '&' )? factor )*      # juxtaposition = AND
    factor := ( '~' | '!' ) factor | atom ( "'" )*
    atom   := '0' | '1' | identifier | '(' expr ')'

Identifiers are alphanumeric-plus-underscore runs, so ``ab`` is a single
variable named ``ab``; write ``a*b``, ``a&b`` or ``a b`` for conjunction.
Both prefix (``~a``) and postfix (``a'``) complement are accepted.

The parser recurses once per parenthesis and prefix complement, so it
refuses text that nests deeper than :data:`MAX_NESTING` of them with a
:class:`ParseError`; operator chains and postfix complements are loops
and may be any length.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .ast import And, Const, Expr, Not, Or, Var, Xor

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|[01]|[()+|&*^~!'])")

#: Most parentheses and prefix complements one expression may nest:
#: each level costs the parser up to five frames, which keeps the
#: deepest parse well inside the interpreter's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Raised on malformed expression text."""


def tokenize(text: str) -> List[str]:
    """Split expression text into tokens; raises on unknown characters."""
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise ParseError("unexpected character %r at position %d"
                             % (remainder[0], position))
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.position = 0
        self.depth = 0

    def nest(self) -> None:
        """Enter one more parenthesis or prefix complement."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nests deeper than %d "
                             "parentheses and prefix complements"
                             % MAX_NESTING)

    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        found = self.take()
        if found != token:
            raise ParseError("expected %r, found %r" % (token, found))

    # -- grammar ------------------------------------------------------
    def parse_expr(self) -> Expr:
        node = self.parse_xor()
        while self.peek() in ("+", "|"):
            self.take()
            node = Or(node, self.parse_xor())
        return node

    def parse_xor(self) -> Expr:
        node = self.parse_term()
        while self.peek() == "^":
            self.take()
            node = Xor(node, self.parse_term())
        return node

    _FACTOR_START = re.compile(r"[A-Za-z_01(~!]")

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            token = self.peek()
            if token in ("*", "&"):
                self.take()
                node = And(node, self.parse_factor())
            elif token is not None and self._FACTOR_START.match(token):
                node = And(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        token = self.peek()
        if token in ("~", "!"):
            self.take()
            self.nest()
            operand = self.parse_factor()
            self.depth -= 1
            return Not(operand)
        node = self.parse_atom()
        while self.peek() == "'":
            self.take()
            node = Not(node)
        return node

    def parse_atom(self) -> Expr:
        token = self.take()
        if token == "(":
            self.nest()
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        if token == "0":
            return Const(False)
        if token == "1":
            return Const(True)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token):
            return Var(token)
        raise ParseError("unexpected token %r" % token)


def parse_expression(text: str) -> Expr:
    """Parse expression text into an :class:`Expr` tree."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError("trailing input starting at %r" % parser.peek())
    return node


def parse_equation(text: str) -> Tuple[Expr, Expr, str]:
    """Parse ``"P = Q"`` / ``"P == Q"`` / ``"P <= Q"`` into (P, Q, op).

    The returned ``op`` is ``"=="`` for equivalence or ``"<="`` for the
    inclusion relation of paper Definition 8.1.
    """
    if "<=" in text:
        left, right = text.split("<=", 1)
        return parse_expression(left), parse_expression(right), "<="
    if "==" in text:
        left, right = text.split("==", 1)
        return parse_expression(left), parse_expression(right), "=="
    if "=" in text:
        left, right = text.split("=", 1)
        return parse_expression(left), parse_expression(right), "=="
    raise ParseError("equation needs '=', '==' or '<='")
