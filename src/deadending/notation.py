"""Game notation: parsing, elaboration to interned games, and rendering.

Grammar (whitespace insignificant)::

    expr    := term ( "+" term )*
    term    := "~" term | atom
    atom    := braces | int | frac | "*" | "lambda(" nat ")" | "(" expr ")"
    braces  := "{" opts "|" opts "}"
    opts    := "." | nothing | expr ("," expr)*
    int     := "-"? digits
    frac    := "-"? digits "/" digits      (denominator a power of two)

"~" is conjugation and "." an empty option set (a bare empty side is also
accepted).  Rendering produces the same notation, preferring the literal
names of integers, non-integer numbers, ladders, and star over brace form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .games import (
    ZERO,
    GameId,
    NumberLiteral,
    _all,
    _walk,
    add,
    as_lambda,
    as_number,
    conjugate,
    dyadic_game,
    intern,
    lambda_game,
    left_options,
    right_options,
    star,
)


class ParseError(ValueError):
    """Syntax error with 1-based line and column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class IntLit:
    n: int


@dataclass(frozen=True)
class FracLit:
    numerator: int
    exponent: int


@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class Lambda:
    k: int


@dataclass(frozen=True)
class Conj:
    inner: "GameExpr"


@dataclass(frozen=True)
class Sum:
    terms: tuple["GameExpr", ...]


@dataclass(frozen=True)
class Braces:
    left: tuple["GameExpr", ...]
    right: tuple["GameExpr", ...]


GameExpr = Union[IntLit, FracLit, Star, Lambda, Conj, Sum, Braces]


@dataclass(frozen=True)
class _Token:
    kind: str  # one of the symbol chars, "nat", "lambda", "end"
    text: str
    line: int
    column: int


_SYMBOLS = set("{}|+~,().*/-")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("nat", text[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and text[i].isalpha():
                i += 1
            word = text[start:i]
            if word != "lambda":
                raise ParseError(f"unexpected word {word!r}", line, column)
            tokens.append(_Token("lambda", word, line, column))
            column += i - start
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        self.pos += 1
        return token

    # The rules below are steps of the engine's walk (`games._walk`): a rule
    # yields the generator of each rule it applies and is sent its result.
    # `term` also reads atoms and braces: two steps a level of nesting.

    def parse(self) -> GameExpr:
        expr = _walk(lambda rule: rule, self.expr())
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.column)
        return expr

    def expr(self):
        terms = [(yield self.term())]
        while self.peek().kind == "+":
            self.take("+")
            terms.append((yield self.term()))
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self):
        token = self.peek()
        if token.kind == "~":
            self.take("~")
            return Conj((yield self.term()))
        if token.kind == "{":  # braces
            self.take("{")
            sides = []
            for closer in "|}":
                found = []
                if self.peek().kind == ".":
                    self.take(".")
                elif self.peek().kind != closer:
                    found.append((yield self.expr()))
                    while self.peek().kind == ",":
                        self.take(",")
                        found.append((yield self.expr()))
                sides.append(tuple(found))
                self.take(closer)
            return Braces(*sides)
        if token.kind == "*":
            self.take("*")
            return Star()
        if token.kind == "lambda":
            self.take("lambda")
            self.take("(")
            nat = self.take("nat")
            self.take(")")
            k = int(nat.text)
            if k < 1:
                raise ParseError("lambda index must be >= 1", nat.line, nat.column)
            return Lambda(k)
        if token.kind == "(":
            self.take("(")
            inner = yield self.expr()
            self.take(")")
            return inner
        if token.kind in ("-", "nat"):
            return self.number()
        raise ParseError(
            f"expected a game, found {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )

    def number(self) -> GameExpr:
        negative = False
        if self.peek().kind == "-":
            self.take("-")
            negative = True
        head = self.take("nat")
        numerator = -int(head.text) if negative else int(head.text)
        if self.peek().kind == "/":
            self.take("/")
            denom_token = self.take("nat")
            denominator = int(denom_token.text)
            if denominator <= 0 or denominator & (denominator - 1):
                raise ParseError(
                    f"denominator {denominator} is not a power of two",
                    denom_token.line,
                    denom_token.column,
                )
            literal = NumberLiteral.from_value(Fraction(numerator, denominator))
            if literal.is_integer:
                return IntLit(literal.numerator)
            return FracLit(literal.numerator, literal.exponent)
        return IntLit(numerator)


def parse(text: str) -> GameExpr:
    """Parse notation into an expression tree, or raise ParseError."""
    return _Parser(text).parse()


def elaborate(expr: GameExpr) -> GameId:
    """Fold an expression tree through the game constructors."""
    return _walk(_elaborate, expr)


def _elaborate(expr: GameExpr):
    if isinstance(expr, IntLit):
        return dyadic_game(NumberLiteral(expr.n, 0))
    if isinstance(expr, FracLit):
        return dyadic_game(NumberLiteral(expr.numerator, expr.exponent))
    if isinstance(expr, Star):
        return star()
    if isinstance(expr, Lambda):
        return lambda_game(expr.k)
    if isinstance(expr, Conj):
        return conjugate((yield expr.inner))
    if isinstance(expr, Sum):
        total = ZERO
        for term in expr.terms:  # each term added as soon as it is built
            total = add(total, (yield term))
        return total
    if isinstance(expr, Braces):
        return intern((yield from _all(expr.left)), (yield from _all(expr.right)))
    raise TypeError(f"not a game expression: {expr!r}")


def parse_game(text: str) -> GameId:
    return elaborate(parse(text))


ELLIPSIS_MARK = "…"


def render(g: GameId, depth: int = 6) -> str:
    """Canonical notation for a game, eliding brace bodies past the depth cap.

    Named positions (numbers, ladders, star) print as their literal names at
    any depth; round-tripping through parse is exact whenever nothing was
    elided.  Like the recognizers it reads, rendering builds no game.
    """
    return _walk(_render, (g, depth), {})


def _render(key: tuple[GameId, int]):
    # the memo lives for one call: shared subgames render once, none is kept
    g, depth = key
    literal = as_number(g)
    if literal is not None:
        return str(literal)
    k = as_lambda(g)
    if k is not None:
        return f"lambda({k})"
    if left_options(g) == (ZERO,) == right_options(g):
        return "*"
    if depth <= 0:
        return ELLIPSIS_MARK
    left = ", ".join((yield from _all((x, depth - 1) for x in left_options(g)))) or "."
    right = ", ".join((yield from _all((x, depth - 1) for x in right_options(g)))) or "."
    return "{" + left + " | " + right + "}"
