"""Game notation: a parser that builds interned games, and a renderer.

Grammar (whitespace insignificant)::

    expr    := term ( "+" term )*
    term    := "~" term | atom
    atom    := braces | int | frac | "*" | "lambda(" nat ")" | "(" expr ")"
    braces  := "{" opts "|" opts "}"
    opts    := "." | nothing | expr ("," expr)*
    int     := "-"? digits
    frac    := "-"? digits "/" digits      (denominator a power of two)
    nat     := digits
    digits  := [0-9]+                      (ASCII digits only)

"~" is conjugation and "." an empty option set (a bare empty side is also
accepted).  Parsing and building are one walk: each grammar rule returns the
game it denotes, built post-order and left to right, each "+" applied as
soon as its term is built.  So a malformed input may intern the games of its
well-formed prefix before `ParseError` is raised (`{1/2 + 1/2 |` builds
`1/2 + 1/2` first); the store is append-only, and the error is the same.
Rendering produces the same notation, preferring the literal names of
integers, non-integer numbers, ladders, and star over brace form.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .games import (
    ZERO,
    BudgetExceededError,
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


# Python converts at most 4,300 decimal digits by default; a longer numeral is
# refused on its length, before `int()` would refuse it without a position
_NUMERAL_DIGITS = 4300


class NumeralTooLong(BudgetExceededError):
    """A numeral of more digits than the parser converts, with its position:
    refused as a budget is, so the CLI exits 3."""

    def __init__(self, digits: int, line: int, column: int):
        super().__init__(f"numeral at line {line}, column {column}", digits, _NUMERAL_DIGITS)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return (
            f"numeral of {self.needed} digits at line {self.line}, column {self.column} "
            f"exceeds the limit of {self.allowed} digits"
        )


class _Token(NamedTuple):
    kind: str  # one of the symbol chars, "nat", "lambda", "end"
    text: str
    line: int
    column: int


# One alternative per token class, the commonest first; what no other
# alternative names is an unexpected character.  `re`'s own cache compiles
# the pattern on first use, so importing the module compiles nothing.
_TOKEN_PATTERN = (
    r"(?P<symbol>[{}|+~,().*/-])|(?P<space>[^\S\n])|(?P<nat>[0-9]+)"
    r"|(?P<word>[A-Za-z]+)|(?P<newline>\n)|(?P<other>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # line_start: the offset where the line starts
    for match in re.finditer(_TOKEN_PATTERN, text):
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        lexeme, column = match[0], match.start() - line_start + 1
        if kind == "other" or kind == "word" and lexeme != "lambda":
            what = "word" if kind == "word" else "character"
            raise ParseError(f"unexpected {what} {lexeme!r}", line, column)
        tokens.append(_Token("nat" if kind == "nat" else lexeme, lexeme, line, column))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
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

    def natural(self) -> tuple[int, _Token]:
        """The next numeral's value and token, refused on its length first."""
        token = self.take("nat")
        if len(token.text) > _NUMERAL_DIGITS:
            raise NumeralTooLong(len(token.text), token.line, token.column)
        return int(token.text), token

    # The rules below are steps of the engine's walk (`games._walk`): a rule
    # yields the generator of each rule it applies, is sent the game that
    # rule built, and returns the game it denotes.  `term` also reads atoms
    # and braces: two steps a level of nesting.

    def parse(self) -> GameId:
        game = _walk(lambda rule: rule, self.expr())
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.column)
        return game

    def expr(self):
        total = yield self.term()
        while self.peek().kind == "+":
            self.take("+")
            total = add(total, (yield self.term()))
        return total

    def term(self):
        token = self.peek()
        if token.kind == "~":
            self.take("~")
            return conjugate((yield self.term()))
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
                sides.append(found)
                self.take(closer)
            return intern(*sides)
        if token.kind == "*":
            self.take("*")
            return star()
        if token.kind == "lambda":
            self.take("lambda")
            self.take("(")
            k, nat = self.natural()
            self.take(")")
            if k < 1:
                raise ParseError("lambda index must be >= 1", nat.line, nat.column)
            return lambda_game(k)
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

    def number(self) -> GameId:
        negative = False
        if self.peek().kind == "-":
            self.take("-")
            negative = True
        numerator, _ = self.natural()
        if negative:
            numerator = -numerator
        if self.peek().kind == "/":
            self.take("/")
            denominator, denom_token = self.natural()
            if denominator <= 0 or denominator & (denominator - 1):
                raise ParseError(
                    f"denominator {denominator} is not a power of two",
                    denom_token.line,
                    denom_token.column,
                )
            exponent = denominator.bit_length() - 1
            return dyadic_game(NumberLiteral.reduced(numerator, exponent))
        return dyadic_game(numerator)


def parse_game(text: str) -> GameId:
    """The interned game that notation denotes, or raise ParseError."""
    return _Parser(text).parse()


ELLIPSIS_MARK = "…"


def render(g: GameId, depth: int = 6) -> str:
    """Canonical notation for a game, eliding brace bodies past the depth cap.

    Named positions (numbers, ladders, star) print as their literal names at
    any depth; round-tripping through parse_game is exact whenever nothing
    was elided.  Like the recognizers it reads, rendering builds no game.
    """
    return render_all((g,), depth)[0]


def render_all(games: Iterable[GameId], depth: int = 6) -> list[str]:
    """`render` of each game, with one memo for the whole list, so a subgame
    the games share renders once; the memo lives for one call, none is kept."""
    memo: dict[tuple[GameId, int], str] = {}
    return [memo.get((g, depth)) or _walk(_render, (g, depth), memo) for g in games]


def _render(key: tuple[GameId, int]):
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
