"""Notation grammar, the games it builds, and render round-trips."""

import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deadending import (
    ZERO,
    NumberLiteral,
    add,
    as_integer,
    as_lambda,
    as_number,
    birthday,
    conjugate,
    dyadic_game,
    integer_game,
    followers,
    intern,
    lambda_game,
    left_options,
    number_literals,
    right_options,
    star,
)
from deadending import notation
from deadending.claims import Bounds
from deadending.notation import ParseError, _Parser, parse_game, render, render_all
from deadending.universes import BudgetExceededError, gen_dead_ending

from depth import shallow
from strategies import build, shapes


def test_parse_zero_forms():
    assert parse_game("{.|.}") == ZERO
    assert parse_game("{|}") == ZERO
    assert parse_game("0") == ZERO


def test_parse_ladder():
    assert parse_game("{0|-1}") == lambda_game(1)
    assert parse_game("lambda(1)") == lambda_game(1)
    assert parse_game("lambda(3)") == lambda_game(3)


def test_parse_sum_with_conjugate():
    half = dyadic_game(NumberLiteral(1, 1))
    assert conjugate(half) == dyadic_game(NumberLiteral(-1, 1))
    assert parse_game("1/2 + ~1/2") == add(half, conjugate(half))
    assert parse_game("~1/2") == conjugate(half)


def test_parse_fraction_reduction():
    assert parse_game("2/4") == dyadic_game(Fraction(1, 2))
    assert parse_game("4/2") == integer_game(2)
    assert parse_game("5/1") == integer_game(5)


def test_parse_rejects_bad_denominator():
    with pytest.raises(ParseError) as err:
        parse_game("3/6")
    assert "power of two" in str(err.value)


def test_parse_rejects_lambda_zero():
    with pytest.raises(ParseError):
        parse_game("lambda(0)")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_game("{0|\n  ?}")
    assert err.value.line == 2 and err.value.column == 3


def test_parse_errors():
    for text in ("", "{0|1", "1 +", "lambda(", "{0,|1}", "**", "foo"):
        with pytest.raises(ParseError):
            parse_game(text)


# The character-loop lexer that the one-pattern lexer replaced, kept as the
# reference.  On ASCII text the two must give the same tokens, or the same
# ParseError message, line and column.


def char_loop_tokenize(text):
    symbols = set("{}|+~,().*/-")
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
            tokens.append(notation._Token("nat", text[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and text[i].isalpha():
                i += 1
            word = text[start:i]
            if word != "lambda":
                raise ParseError(f"unexpected word {word!r}", line, column)
            tokens.append(notation._Token("lambda", word, line, column))
            column += i - start
            continue
        if ch in symbols:
            tokens.append(notation._Token(ch, ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(notation._Token("end", "", line, column))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return (str(err), err.line, err.column)


# ASCII text, with whole words and numerals mixed in so that `lambda`, long
# numerals and words next to symbols turn up often
ascii_texts = st.lists(
    st.one_of(
        st.characters(max_codepoint=127),
        st.sampled_from(["lambda", "lambda(", "12", "007", "1/4", "\n", " \t", "\r\n"]),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(ascii_texts)
def test_tokenizer_matches_the_character_loop_on_ascii(text):
    expected = tokens_or_error(char_loop_tokenize, text)
    assert tokens_or_error(notation._tokenize, text) == expected


@pytest.mark.parametrize(
    "text, column",
    [("²", 1), ("1/²", 3), ("lambda(²)", 8), ("٣", 1), ("1 + ١٢", 5), ("{0|\n ²}", 2)],
)
def test_only_ascii_digits_form_numerals(text, column):
    with pytest.raises(ParseError) as err:
        parse_game(text)
    assert type(err.value) is ParseError
    assert "unexpected character" in str(err.value)
    assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)


LONG = "7" * 4301  # one digit past what the parser converts


@pytest.mark.parametrize(
    "text, column",
    [(LONG, 1), ("-" + LONG, 2), ("1/" + LONG, 3), (LONG + "/2", 1), ("lambda(" + LONG + ")", 8),
     ("{0 |\n " + LONG + "}", 2)],
    ids=["integer", "negative", "denominator", "numerator", "lambda", "second-line"],
)
def test_an_over_long_numeral_is_refused_on_its_length(text, column, monkeypatch):
    def checked_int(digits):
        assert len(digits) <= 4300, "an over-long numeral reached int()"
        return int(digits)

    monkeypatch.setattr(notation, "int", checked_int, raising=False)
    with pytest.raises(notation.NumeralTooLong) as err:
        _Parser(text).parse()
    line = text.count("\n") + 1
    assert (err.value.line, err.value.column, err.value.needed) == (line, column, 4301)
    assert str(err.value) == (
        f"numeral of 4301 digits at line {line}, column {column} exceeds the limit of 4300 digits"
    )


def test_a_numeral_at_the_length_limit_is_converted():
    # 4,300 digits convert, and the integer's chain is refused by the member budget
    with pytest.raises(BudgetExceededError) as err:
        parse_game("7" * 4300)
    assert type(err.value) is BudgetExceededError
    assert err.value.descriptor == "ints:0.." + "7" * 4300
    assert parse_game("1/" + str(1 << 1000)) == dyadic_game(NumberLiteral(1, 1000))


# any text, with non-ASCII digits and letters and notation fragments mixed in
any_texts = st.lists(
    st.one_of(
        st.text(max_size=3),
        st.sampled_from(["²", "٣", "١٢", "é", "lambda(", "1/", "{0|", "} + ~", "\n"]),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(any_texts)
def test_parse_returns_a_game_or_raises_parse_error(text):
    # a numeral of four or more digits builds a game of its size, and a long
    # enough one is refused by the member budget instead (exit 3, tested apart)
    assume(not re.search("[0-9]{4}", text))
    try:
        game = parse_game(text)
    except ParseError as err:
        assert type(err) is ParseError
    else:
        assert isinstance(game, int)


def test_parse_nested():
    game = parse_game("{1, {0|*} | ~lambda(2)}")
    assert right_options(game) == (conjugate(lambda_game(2)),)
    assert set(left_options(game)) == {integer_game(1), intern((ZERO,), (star(),))}
    assert parse_game("(1 + 1) + *") == add(integer_game(2), star())


def test_render_named_literals():
    assert render(ZERO) == "0"
    assert render(integer_game(-4)) == "-4"
    assert render(dyadic_game(NumberLiteral(5, 3))) == "5/8"
    assert render(dyadic_game(NumberLiteral(-3, 1))) == "-3/2"
    assert render(lambda_game(2)) == "lambda(2)"
    assert render(intern((ZERO,), (integer_game(-1),))) == "lambda(1)"
    assert render(star()) == "*"


def test_render_braces():
    g = intern((integer_game(1),), (integer_game(-1),))
    assert render(g) == "{1 | -1}"
    left_end = intern((), (integer_game(1),))
    assert render(left_end) == "{. | 1}"


def test_render_elides_past_depth():
    deep = ZERO
    for _ in range(8):
        deep = intern((deep,), (deep, star()))
    text = render(deep, depth=3)
    assert "…" in text
    assert render(deep, depth=20).count("…") == 0


def test_round_trip_named_literals():
    games = [integer_game(n) for n in range(-6, 7)]
    games += [dyadic_game(l) for l in number_literals(4, 3)]
    games += [lambda_game(k) for k in range(1, 7)]
    games += [star()]
    for g in games:
        assert parse_game(render(g)) == g


@settings(max_examples=300, deadline=None)
@given(shapes)
def test_round_trip_random_games(shape):
    g = build(shape)
    assert parse_game(render(g, depth=birthday(g) + 1)) == g


# The render that expands the game DAG as a tree, kept as the reference for
# the one that renders each shared subgame once per call.


def tree_render(g, depth=6):
    literal = as_number(g)
    if literal is not None:
        return str(literal)
    k = as_lambda(g)
    if k is not None:
        return f"lambda({k})"
    if left_options(g) == (ZERO,) == right_options(g):
        return "*"
    if depth <= 0:
        return "…"
    left = ", ".join(tree_render(x, depth - 1) for x in left_options(g)) or "."
    right = ", ".join(tree_render(x, depth - 1) for x in right_options(g)) or "."
    return "{" + left + " | " + right + "}"


def assert_render_matches_tree(g):
    for depth in range(9):
        assert render(g, depth) == tree_render(g, depth), (g, depth)
    assert render(g) == tree_render(g), g


def test_render_matches_tree_render_on_b2_k2_ladders_and_sums():
    members = gen_dead_ending(2, 2).members
    assert len(members) == 107
    for g in members + Bounds().ladder_pack.members:
        assert_render_matches_tree(g)
    # every third member against itself and each later member: sums share
    # subgames widely, and the full 5,778 pairs would take seconds more
    for i in range(0, len(members), 3):
        for h in members[i:]:
            assert_render_matches_tree(add(members[i], h))


@settings(max_examples=200, deadline=None)
@given(shapes, shapes)
def test_render_matches_tree_render_on_random_games(sa, sb):
    g, h = build(sa), build(sb)
    for x in (g, conjugate(g), add(g, h)):
        assert_render_matches_tree(x)


def test_render_all_matches_render_on_b2_k2_ladders_and_sums():
    members = gen_dead_ending(2, 2).members
    games = members + Bounds().ladder_pack.members
    games += tuple(add(members[i], h) for i in range(0, len(members), 5) for h in members[i:])
    for depth in (6, 2):
        assert render_all(games, depth) == [render(g, depth) for g in games]


@settings(max_examples=100, deadline=None)
@given(st.lists(shapes, max_size=4))
def test_render_all_matches_render_on_random_games(drawn):
    games = [build(shape) for shape in drawn]
    games += [conjugate(g) for g in games] + [add(g, h) for g, h in zip(games, games[1:])]
    assert render_all(games) == [render(g) for g in games]


def test_each_render_call_starts_from_an_empty_memo(monkeypatch):
    memos = []  # (the memo a top-level call walks with, its size on entry)
    walk = notation._walk

    def spy(step, key, memo=None):
        memos.append((memo, len(memo)))
        return walk(step, key, memo)

    monkeypatch.setattr(notation, "_walk", spy)
    g = intern((ZERO, star()), (intern((star(),), (integer_game(1),)),))
    g = add(g, conjugate(g))
    first, second = render(g), render(g, depth=4)
    assert [size for _, size in memos] == [0, 0]
    (memo1, _), (memo2, _) = memos
    assert memo1 is not memo2
    # one entry per subgame and depth, so a shared subgame is rendered once
    assert 0 < len(memo1) <= len(followers(g)) * 7
    assert first == tree_render(g) and second == tree_render(g, 4)


# The recursive-descent parser that the walk (games._walk) replaced, kept as
# the reference: it recurses once per level, so it runs on shallow inputs
# only.  Like the walk, it builds each game post-order and left to right,
# adding each term of a sum as soon as it is built.


class RecursiveParser(_Parser):
    def parse(self):
        game = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.column)
        return game

    def expr(self):
        total = self.term()
        while self.peek().kind == "+":
            self.take("+")
            total = add(total, self.term())
        return total

    def term(self):
        if self.peek().kind == "~":
            self.take("~")
            return conjugate(self.term())
        return self.atom()

    def atom(self):
        token = self.peek()
        if token.kind == "{":
            return self.braces()
        if token.kind == "*":
            self.take("*")
            return star()
        if token.kind == "lambda":
            self.take("lambda")
            self.take("(")
            nat = self.take("nat")
            self.take(")")
            k = int(nat.text)
            if k < 1:
                raise ParseError("lambda index must be >= 1", nat.line, nat.column)
            return lambda_game(k)
        if token.kind == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        if token.kind in ("-", "nat"):
            return self.number()
        raise ParseError(
            f"expected a game, found {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )

    def braces(self):
        self.take("{")
        left = self.opts("|")
        self.take("|")
        right = self.opts("}")
        self.take("}")
        return intern(left, right)

    def opts(self, closer):
        token = self.peek()
        if token.kind == ".":
            self.take(".")
            return ()
        if token.kind == closer:
            return ()
        found = [self.expr()]
        while self.peek().kind == ",":
            self.take(",")
            found.append(self.expr())
        return tuple(found)


def recursive_parse_game(text):
    return RecursiveParser(text).parse()


def parsed_or_error(parser, text):
    try:
        return parser(text)
    except ParseError as err:
        return str(err)


def assert_walk_parses_as_recursive(text):
    expected = parsed_or_error(recursive_parse_game, text)
    assert parsed_or_error(parse_game, text) == expected, text


MALFORMED = [
    "", "{0|1", "1 +", "lambda(", "{0,|1}", "**", "foo", "3/6", "lambda(0)",
    "{0|\n  ?}", "{.,1|}", "{1|.,}", "(1", "1)", "~", "{|}}", "-", "1/", "{1 2|}",
]
WELL_FORMED = [
    "{.|.}", "{|}", "0", "-3/4 + 5/8", "~{1|*} + 1/2 + lambda(2)", "(1 + 1) + *",
    "{1, {0|*} | ~lambda(2)}", "{. | 1, 2, ~3}", "~~(~1 + {*|*})", "5/1",
]


def test_walk_parses_as_recursive_on_corpus_and_universes():
    members = gen_dead_ending(2, 2).members
    assert len(members) == 107
    games = members + Bounds().ladder_pack.members
    texts = MALFORMED + WELL_FORMED + [render(g, depth=birthday(g) + 1) for g in games]
    texts += [f"{render(g)} + ~{render(h)}" for g, h in zip(games, games[1:])]
    for text in texts:
        assert_walk_parses_as_recursive(text)


@settings(max_examples=200, deadline=None)
@given(shapes, shapes)
def test_walk_parses_as_recursive_on_random_games(sa, sb):
    g, h = build(sa), build(sb)
    text = render(g, depth=birthday(g) + 1)
    assert_walk_parses_as_recursive(text)
    assert_walk_parses_as_recursive(f"~({text}) + {render(h, depth=birthday(h) + 1)}")


# Parses the texts of a JSON list on stdin with the walk or the recursive
# reference, in a fresh process, and prints the store that leaves.
STORE_AFTER_PARSING = """
import json, sys
from deadending import games
from deadending.notation import parse_game
from test_notation import recursive_parse_game
parse = {"walk": parse_game, "recursive": recursive_parse_game}[sys.argv[1]]
for text in json.load(sys.stdin):
    parse(text)
print(json.dumps(games._nodes))
"""


def store_after_parsing(parser, texts):
    here = pathlib.Path(__file__).parent
    package_root = pathlib.Path(notation.__file__).parents[1]
    path = filter(None, [str(package_root), str(here), os.environ.get("PYTHONPATH")])
    child = subprocess.run(
        [sys.executable, "-c", STORE_AFTER_PARSING, parser],
        input=json.dumps(texts), capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    return json.loads(child.stdout)


def test_walk_interns_in_the_order_of_the_recursive_reference():
    members = gen_dead_ending(2, 2).members
    texts = WELL_FORMED + [render(g, depth=birthday(g) + 1) for g in members]
    store = store_after_parsing("walk", texts)
    assert len(store) > len(members)
    assert store == store_after_parsing("recursive", texts)


DEEP = 10**4


def test_deep_notation_within_a_shallow_stack():
    braces = "{" * (DEEP + 1) + "|}" * (DEEP + 1)  # { | } is 0, {n-1 | } is n
    assert shallow(parse_game, braces) == integer_game(DEEP)
    alternating, g = "{|}", ZERO
    for i in range(DEEP):
        if i % 2:
            alternating, g = "{" + alternating + "|}", intern((g,), ())
        else:
            alternating, g = "{|" + alternating + "}", intern((), (g,))
    assert shallow(parse_game, alternating) == g
    assert shallow(render, g).count("…") == 1
    assert shallow(parse_game, "~" * DEEP + "1") == integer_game(1)
    assert shallow(parse_game, "(" * DEEP + "1" + ")" * DEEP) == integer_game(1)
    assert shallow(as_integer, shallow(parse_game, f"-{DEEP} + ~lambda(1)")) is None
    with pytest.raises(ParseError):
        shallow(parse_game, "{" * DEEP + "|" + "}" * (DEEP - 1))
