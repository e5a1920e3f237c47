"""Structural layer: interning, constructors, predicates, lengths."""

import functools
import itertools
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadending import (
    ZERO,
    NumberLiteral,
    Outcome,
    add,
    as_integer,
    as_lambda,
    as_number,
    birthday,
    conjugate,
    dyadic_game,
    followers,
    integer_game,
    intern,
    is_dead_end,
    is_dead_ending,
    is_dead_left_end,
    is_dead_right_end,
    is_dicot,
    is_left_end,
    is_right_end,
    lambda_game,
    left_length,
    left_options,
    number_literals,
    number_sum_outcome,
    outcome_misere,
    outcome_misere_sum,
    outcome_normal,
    right_length,
    right_options,
    star,
)
from deadending import games, notation
from deadending.claims import Bounds
from deadending.games import ladder_game, options, sort_games
from deadending.notation import render
from deadending.universes import gen_dead_ending, generate, witness_contexts


def lit(value) -> NumberLiteral:
    return NumberLiteral.from_value(Fraction(value))


from depth import shallow
from strategies import build, shapes


# -- interning ----------------------------------------------------------------


def test_zero_is_id_zero():
    assert intern((), ()) == 0 == ZERO


def test_intern_idempotent():
    a = intern((ZERO,), ())
    b = intern((ZERO,), ())
    assert a == b


def test_intern_matches_constructor():
    assert intern((ZERO,), ()) == integer_game(1)
    assert intern((integer_game(1),), ()) == integer_game(2)


def test_intern_dedupes_and_sorts_options():
    one = integer_game(1)
    assert intern((one, ZERO, one), ()) == intern((ZERO, one), ())


def test_intern_rejects_unknown_ids():
    with pytest.raises(ValueError):
        intern((10**9,), ())


@settings(max_examples=200)
@given(shapes)
def test_interning_soundness(shape):
    assert build(shape) == build(shape)


# -- constructors -------------------------------------------------------------


def test_integer_games():
    assert integer_game(0) == ZERO
    assert left_options(integer_game(2)) == (integer_game(1),)
    assert right_options(integer_game(2)) == ()
    assert integer_game(-1) == intern((), (ZERO,))


def test_dyadic_games():
    half = dyadic_game(lit("1/2"))
    assert left_options(half) == (ZERO,)
    assert right_options(half) == (integer_game(1),)
    three_quarters = dyadic_game(lit("3/4"))
    assert left_options(three_quarters) == (half,)
    assert right_options(three_quarters) == (integer_game(1),)
    assert dyadic_game(NumberLiteral(5, 0)) == integer_game(5)


def test_number_literal_invariants():
    with pytest.raises(ValueError):
        NumberLiteral(2, 1)  # even numerator with positive exponent
    with pytest.raises(ValueError):
        NumberLiteral(1, -1)
    with pytest.raises(ValueError):
        NumberLiteral.from_value(Fraction(1, 3))
    assert NumberLiteral.from_value(Fraction(2, 4)) == NumberLiteral(1, 1)
    assert str(NumberLiteral(-3, 2)) == "-3/4"


def test_number_literal_record_semantics():
    a = NumberLiteral(3, 2)
    assert a == NumberLiteral(3, 2) and hash(a) == hash(NumberLiteral(3, 2))
    assert a == (3, 2) and hash(a) == hash((3, 2))  # a tuple of its fields
    assert a != NumberLiteral(3, 3)
    unsorted = [NumberLiteral(1, 1), NumberLiteral(-1, 0), NumberLiteral(1, 0)]
    assert sorted(unsorted) == [NumberLiteral(-1, 0), NumberLiteral(1, 0), NumberLiteral(1, 1)]
    assert repr(a) == "NumberLiteral(numerator=3, exponent=2)"
    with pytest.raises(ValueError):
        NumberLiteral(4, 2)
    with pytest.raises(ValueError):
        a._replace(numerator=4)
    assert a._replace(numerator=5) == NumberLiteral(5, 2)
    with pytest.raises(AttributeError):
        a.numerator = 5
    with pytest.raises(AttributeError):
        a.note = "x"
    assert a.value == Fraction(3, 4)
    assert NumberLiteral.from_value(Fraction(3, 4)) == a
    assert NumberLiteral.from_value(-6) == NumberLiteral(-6, 0)


def test_dyadic_shift_arithmetic_matches_fractions():
    # the integer arithmetic against the Fraction arithmetic it replaced
    for numerator in range(-70, 71):
        for exponent in range(8):
            expected = NumberLiteral.from_value(Fraction(numerator, 1 << exponent))
            assert NumberLiteral.reduced(numerator, exponent) == expected
    literals = number_literals(6, 3, include_zero=True)
    assert literals == sorted(literals, key=lambda lit: (lit.value, lit.exponent))
    inside = [x for x in number_literals(3, 2) if abs(x.value) <= Fraction(3, 2)]
    assert number_literals(3, Fraction(3, 2)) == inside


def _sorted_literals(max_exponent, max_magnitude, include_zero=False):
    """The literals listed exponent by exponent, then sorted by (value, exponent)."""
    found = []
    for exponent in range(max_exponent + 1):
        top = (max_magnitude.numerator << exponent) // max_magnitude.denominator
        for numerator in range(-top, top + 1):
            if exponent > 0 and numerator % 2 == 0:
                continue
            if numerator == 0 and not include_zero:
                continue
            found.append(NumberLiteral(numerator, exponent))
    found.sort(key=lambda lit: (lit.scaled(max_exponent), lit.exponent))
    return found


def test_number_literals_match_the_sorted_listing():
    magnitudes = [0, 1, 2, 3, 6, Fraction(3, 2), Fraction(1, 4), Fraction(5, 3)]
    for exponent, magnitude in itertools.product(range(9), magnitudes):
        for include_zero in (False, True):
            expected = _sorted_literals(exponent, magnitude, include_zero)
            assert number_literals(exponent, magnitude, include_zero) == expected


def test_conjugate_examples():
    assert conjugate(ZERO) == ZERO
    assert conjugate(integer_game(2)) == integer_game(-2)
    switch = intern((integer_game(1),), (integer_game(-1),))
    assert conjugate(switch) == switch


@settings(max_examples=150)
@given(shapes)
def test_conjugate_involution(shape):
    g = build(shape)
    assert conjugate(conjugate(g)) == g


def test_sum_examples():
    assert add(integer_game(1), integer_game(1)) == integer_game(2)
    half = dyadic_game(lit("1/2"))
    doubled = add(half, half)
    assert left_options(doubled) == (half,)
    assert right_options(doubled) == (add(integer_game(1), half),)
    one_and_half = add(integer_game(1), half)
    assert set(left_options(one_and_half)) == {half, integer_game(1)}
    assert right_options(one_and_half) == (integer_game(2),)
    g = dyadic_game(lit("3/4"))
    assert add(g, ZERO) == g


@settings(max_examples=40, deadline=None)
@given(shapes, shapes, shapes)
def test_sum_laws_at_id_level(sa, sb, sc):
    a, b, c = build(sa), build(sb), build(sc)
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, ZERO) == a


def test_lambda_games():
    assert lambda_game(1) == intern((ZERO,), (integer_game(-1),))
    assert lambda_game(2) == intern((ZERO,), (lambda_game(1),))
    assert all(is_dead_ending(lambda_game(k)) for k in range(1, 7))
    with pytest.raises(ValueError):
        lambda_game(0)


def test_star():
    s = star()
    assert left_options(s) == (ZERO,) == right_options(s)
    assert is_dicot(s)
    assert is_dead_ending(s)
    assert conjugate(s) == s


# -- structure ----------------------------------------------------------------


def test_followers():
    assert followers(ZERO) == {ZERO}
    assert followers(integer_game(2)) == {integer_game(2), integer_game(1), ZERO}
    assert len(followers(dyadic_game(lit("3/4")))) == 4


def test_followers_of_a_long_chain_keep_one_set():
    chain = [ZERO]  # the integers 0..2000, each built on the one before
    for _ in range(2000):
        chain.append(intern((chain[-1],), ()))
    g = chain[-1]
    assert g == integer_game(2000)
    tracemalloc.start()
    try:
        found = followers(g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 2001 and found == set(chain)
    # a visited set and the result: a memo of every follower's own set would
    # hold 2,003,001 entries, tens of megabytes, and keep them
    assert peak < 2_000_000 and kept < 1_000_000


def test_birthday():
    assert birthday(ZERO) == 0
    assert birthday(integer_game(3)) == 3
    assert birthday(dyadic_game(lit("3/4"))) == 3
    assert birthday(dyadic_game(lit("13/8"))) == 5


def test_end_predicates():
    assert is_left_end(ZERO) and is_right_end(ZERO)
    assert not is_left_end(integer_game(1)) and is_right_end(integer_game(1))
    lam = lambda_game(1)
    assert not is_left_end(lam) and not is_right_end(lam)


def test_dead_end_predicates():
    assert is_dead_left_end(integer_game(-2))
    live = intern((), (integer_game(1),))
    assert is_left_end(live) and not is_dead_left_end(live)
    assert is_dead_left_end(ZERO) and is_dead_right_end(ZERO)
    assert is_dead_end(integer_game(3))


def test_dead_ending_examples():
    for n in range(-3, 4):
        assert is_dead_ending(integer_game(n))
    for value in ("1/2", "-3/4", "7/8"):
        assert is_dead_ending(dyadic_game(lit(value)))
    live = intern((), (integer_game(1),))
    assert not is_dead_ending(live)
    assert not is_dead_ending(intern((live,), ()))
    assert is_dead_ending(star())


def test_dicot_examples():
    assert is_dicot(ZERO)
    assert not is_dicot(integer_game(1))
    assert is_dicot(intern((star(),), (star(), ZERO)))


@settings(max_examples=150)
@given(shapes)
def test_dead_ending_closed_under_followers(shape):
    g = build(shape)
    if is_dead_ending(g):
        assert all(is_dead_ending(f) for f in followers(g))


@settings(max_examples=60, deadline=None)
@given(shapes, shapes)
def test_dead_ending_closed_under_sum(sa, sb):
    a, b = build(sa), build(sb)
    if is_dead_ending(a) and is_dead_ending(b):
        assert is_dead_ending(add(a, b))


# The hand-mirrored recursions that the side-indexed ones replaced, kept as
# the reference.


def mirrored_dead_left_end(g):
    return is_left_end(g) and all(mirrored_dead_left_end(r) for r in right_options(g))


def mirrored_dead_right_end(g):
    return is_right_end(g) and all(mirrored_dead_right_end(l) for l in left_options(g))


def mirrored_dead_ending(g):
    if is_left_end(g) and not mirrored_dead_left_end(g):
        return False
    if is_right_end(g) and not mirrored_dead_right_end(g):
        return False
    return all(mirrored_dead_ending(o) for o in options(g))


def mirrored_left_length(g):
    if g == ZERO:
        return 0
    best = None
    for option in left_options(g):
        sub = mirrored_left_length(option)
        if sub is not None and (best is None or sub + 1 < best):
            best = sub + 1
    return best


def mirrored_right_length(g):
    if g == ZERO:
        return 0
    best = None
    for option in right_options(g):
        sub = mirrored_right_length(option)
        if sub is not None and (best is None or sub + 1 < best):
            best = sub + 1
    return best


def mirrored_as_integer(g):
    left, right = left_options(g), right_options(g)
    if g == ZERO:
        return 0
    if not right and len(left) == 1:
        sub = mirrored_as_integer(left[0])
        if sub is not None and sub >= 0:
            return sub + 1
    elif not left and len(right) == 1:
        sub = mirrored_as_integer(right[0])
        if sub is not None and sub <= 0:
            return sub - 1
    return None


def assert_side_indexed_match_mirrored(g):
    assert is_dead_left_end(g) == mirrored_dead_left_end(g), g
    assert is_dead_right_end(g) == mirrored_dead_right_end(g), g
    assert is_dead_ending(g) == mirrored_dead_ending(g), g
    assert left_length(g) == mirrored_left_length(g), g
    assert right_length(g) == mirrored_right_length(g), g
    assert as_integer(g) == mirrored_as_integer(g), g


def test_side_indexed_notions_match_mirrored_on_dead_ending_b2_k2():
    members = gen_dead_ending(2, 2).members
    assert len(members) == 107
    extra = [integer_game(n) for n in range(-6, 7)]
    extra += [dyadic_game(l) for l in number_literals(3, 2)]
    extra += [intern((), (integer_game(1),)), intern((integer_game(-1),), ())]
    for g in members + tuple(extra):
        assert_side_indexed_match_mirrored(g)


@settings(max_examples=200)
@given(shapes)
def test_side_indexed_notions_match_mirrored_on_random_games(shape):
    g = build(shape)
    assert_side_indexed_match_mirrored(g)
    assert_side_indexed_match_mirrored(conjugate(g))


def test_side_indexed_recursions_reach_800_levels():
    up, down = integer_game(800), conjugate(integer_game(800))
    assert is_dead_right_end(up) and not is_dead_left_end(up)
    assert is_dead_left_end(down) and not is_dead_right_end(down)
    assert (left_length(up), right_length(up)) == (800, None)
    assert (left_length(down), right_length(down)) == (None, 800)
    assert is_dead_ending(up) and is_dead_ending(down)


# -- lengths ------------------------------------------------------------------


def test_length_examples():
    assert left_length(ZERO) == 0 and right_length(ZERO) == 0
    assert left_length(dyadic_game(lit("1/2"))) == 1
    assert right_length(dyadic_game(lit("-3/4"))) == 2
    assert left_length(integer_game(-1)) is None
    assert right_length(integer_game(-1)) == 1
    for n in range(0, 5):
        assert left_length(integer_game(n)) == n
    assert right_length(integer_game(2)) is None


def test_length_shortest_path_not_longest():
    g = intern((ZERO, integer_game(1)), ())
    assert left_length(g) == 1


@settings(max_examples=60, deadline=None)
@given(shapes, shapes)
def test_length_additive_over_sums(sa, sb):
    a, b = build(sa), build(sb)
    la, lb = left_length(a), left_length(b)
    if la is not None and lb is not None:
        assert left_length(add(a, b)) == la + lb
    ra, rb = right_length(a), right_length(b)
    if ra is not None and rb is not None:
        assert right_length(add(a, b)) == ra + rb


def test_literal_lengths_match_tree_lengths():
    for literal in number_literals(3, 2):
        game = dyadic_game(literal)
        assert literal.left_length() == left_length(game)
        assert literal.right_length() == right_length(game)


def test_positive_dyadic_length_recursion():
    for literal in number_literals(4, 2):
        if literal.numerator <= 0 or literal.is_integer:
            continue
        left = literal.left_option()
        assert left is not None
        assert literal.left_length() == 1 + left.left_length()
        right = literal.right_option()
        assert right is not None
        assert right.left_length() <= literal.left_length()


def _walked_length(literal, step):
    """Moves along step() from literal to zero, or None if step() runs out first."""
    count = 0
    while not literal.is_zero:
        literal = step(literal)
        if literal is None:
            return None
        count += 1
    return count


def test_literal_length_closed_form_matches_recursion():
    literals = number_literals(8, 6, include_zero=True)
    assert len(literals) == 3073
    for literal in literals:
        assert literal.left_length() == _walked_length(
            literal, NumberLiteral.left_option
        ), literal
        assert literal.right_length() == _walked_length(
            literal, NumberLiteral.right_option
        ), literal


def test_literal_lengths_of_deep_integers():
    assert NumberLiteral(5000, 0).left_length() == 5000
    assert NumberLiteral(5000, 0).right_length() is None
    assert NumberLiteral(-5000, 0).right_length() == 5000
    assert NumberLiteral(-4095, 12).right_length() == 12


def test_right_option_is_the_next_dyadic_up():
    for literal in number_literals(8, 6, include_zero=True):
        m, j = literal.numerator, literal.exponent
        if literal.is_integer:
            expected = NumberLiteral(m + 1, 0) if m < 0 else None
        else:
            expected = NumberLiteral.from_value(Fraction(m + 1, 1 << j))
        assert literal.right_option() == expected, literal


def test_signed_length_is_left_or_minus_right_length():
    for literal in number_literals(8, 6, include_zero=True):
        if literal.numerator >= 0:
            expected = _walked_length(literal, NumberLiteral.left_option)
        else:
            expected = -_walked_length(literal, NumberLiteral.right_option)
        assert literal.signed_length() == expected, literal
    for literal in number_literals(3, 2, include_zero=True):
        game = dyadic_game(literal)
        tree = left_length(game) if literal.numerator >= 0 else -right_length(game)
        assert literal.signed_length() == tree, literal


def test_dyadic_option_structure():
    # one of the mixed second options coincides with the direct option
    for literal in number_literals(4, 2):
        if literal.is_integer:
            continue
        g = dyadic_game(literal)
        (gl,) = left_options(g)
        (gr,) = right_options(g)
        rl = left_options(gr)
        lr = right_options(gl)
        assert (rl and rl[0] == gl) or (lr and lr[0] == gr)


# -- recognizers --------------------------------------------------------------


def test_recognizers():
    assert as_integer(intern((integer_game(1),), ())) == 2
    assert as_integer(lambda_game(1)) is None
    assert as_number(dyadic_game(lit("5/8"))) == NumberLiteral(5, 3)
    assert as_number(intern((ZERO,), (integer_game(2),))) is None
    assert as_number(star()) is None
    assert as_lambda(lambda_game(4)) == 4
    assert as_lambda(star()) is None


def test_integer_recognizer_builds_no_game(monkeypatch):
    # a two-sided node, or a one-sided node over one, is never an integer; the
    # integer test reads the node table and builds no dyadic game to compare
    gap = intern((integer_game(7),), (integer_game(19),))
    monkeypatch.setattr(games, "dyadic_game", lambda a: pytest.fail(f"built {a}"))
    assert as_integer(gap) is None
    assert as_integer(intern((gap,), ())) is None
    assert as_integer(intern((), (gap,))) is None
    assert as_integer(intern((integer_game(-3),), ())) is None
    assert as_integer(intern((), (integer_game(-3),))) == -4


@settings(max_examples=100)
@given(st.integers(-40, 40))
def test_integer_recognizer_round_trip(n):
    assert as_integer(integer_game(n)) == n


def test_number_recognizer_round_trip():
    for literal in number_literals(5, 3):
        assert as_number(dyadic_game(literal)) == literal


# The simplest-number search that the mean-of-options rule replaced, kept as
# the reference: the dyadic of least birthday strictly between the options,
# accepted only when its canonical game is g itself.


def simplest_between(low, high):
    assert low < high
    if low < 0 < high:
        return Fraction(0)
    if low >= 0:
        candidate = Fraction(int(low) + 1)
        if candidate < high:
            return candidate
    else:
        candidate = Fraction(int(high) - 1)
        if candidate > low:
            return candidate
    exponent = 1
    while True:
        scale = 1 << exponent
        numerator = int(low * scale) + 1
        if Fraction(numerator, scale) <= low:
            numerator += 1
        if Fraction(numerator, scale) < high:
            return Fraction(numerator, scale)
        exponent += 1


@functools.cache
def simplest_route_as_number(g):
    left, right = left_options(g), right_options(g)
    if g == ZERO:
        return NumberLiteral(0, 0)
    if len(left) + len(right) == 1:
        step = 1 if left else -1
        sub = simplest_route_as_number((left or right)[0])
        if sub is not None and sub.is_integer and sub.numerator * step >= 0:
            return NumberLiteral(sub.numerator + step, 0)
    elif len(left) == 1 and len(right) == 1:
        low = simplest_route_as_number(left[0])
        high = simplest_route_as_number(right[0])
        if low is not None and high is not None and low.value < high.value:
            candidate = lit(simplest_between(low.value, high.value))
            if dyadic_game(candidate) == g:
                return candidate
    return None


def assert_recognizers_match_simplest_route(g):
    expected = simplest_route_as_number(g)
    assert as_number(g) == expected, g
    integer = expected.numerator if expected is not None and expected.is_integer else None
    assert as_integer(g) == integer, g


def literal_nodes():
    """Literal games, every {a | b} over them, and {x | } and { | x} over both."""
    literals = [dyadic_game(l) for l in number_literals(4, 3, include_zero=True)]
    pairs = [intern((a,), (b,)) for a in literals for b in literals]
    singles = [intern((x,), ()) for x in literals + pairs]
    singles += [intern((), (x,)) for x in literals + pairs]
    return literals, pairs, singles


def test_mean_rule_matches_simplest_route_on_literal_nodes():
    literals, pairs, singles = literal_nodes()
    assert (len(literals), len(pairs), len(singles)) == (97, 97**2, 2 * (97 + 97**2))
    for g in literals + pairs + singles:
        assert_recognizers_match_simplest_route(g)


def test_mean_rule_matches_simplest_route_on_dead_ending_b2_k2():
    members = gen_dead_ending(2, 2).members
    assert len(members) == 107
    for g in members:
        assert_recognizers_match_simplest_route(g)


@settings(max_examples=200)
@given(shapes)
def test_mean_rule_matches_simplest_route_on_random_games(shape):
    g = build(shape)
    assert_recognizers_match_simplest_route(g)
    assert_recognizers_match_simplest_route(conjugate(g))


def test_recognizers_and_render_build_no_game(monkeypatch):
    literals, pairs, _ = literal_nodes()
    ladders = [lambda_game(k) for k in range(1, 6)]
    # a two-sided node, or a one-sided node over one, is never an integer
    gap = intern((integer_game(7),), (integer_game(19),))
    integer_probes = [
        gap,
        intern((gap,), ()),
        intern((), (gap,)),
        intern((integer_game(-3),), ()),
        intern((), (integer_game(-3),)),  # -4
    ]
    games_to_read = (
        list(gen_dead_ending(2, 2).members)
        + witness_contexts(8, 6)
        + literals
        + pairs
        + ladders
        + integer_probes
        + [star(), intern((star(),), (ZERO,))]
    )
    size = games.store_size()

    def refuse(*args):
        pytest.fail(f"built a game from {args}")

    names = ("intern", "dyadic_game", "integer_game", "lambda_game", "ladder_game")
    for name in names:
        for module in (games, notation):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # recognize from scratch, not from what earlier tests memoized; the memo
    # is a cache of a pure function, so emptying it changes no answer
    games._as_number.memo.clear()
    for g in games_to_read:
        as_number(g)
        as_integer(g)
        as_lambda(g)
        render(g)
    assert games.store_size() == size
    assert [as_lambda(g) for g in ladders] == [1, 2, 3, 4, 5]
    assert [as_integer(g) for g in integer_probes] == [None, None, None, None, -4]
    assert render(games_to_read[-1]) == "{* | 0}"


def test_ladder_recognizer_reads_5000_rungs():
    g = lambda_game(5000)
    assert as_lambda(g) == 5000
    assert as_number(g) is None
    assert as_lambda(intern((ZERO,), (g, ZERO))) is None


# -- the walk -----------------------------------------------------------------
# The recursive helpers that games._walk replaced, kept as the reference: each
# recurses once per level, so they run on shallow games only.


@functools.cache
def recursive_add(g, h):
    if g > h:
        g, h = h, g
    if g == ZERO:
        return h
    gl, gr = left_options(g), right_options(g)
    hl, hr = left_options(h), right_options(h)
    left = {recursive_add(x, h) for x in gl} | {recursive_add(g, x) for x in hl}
    right = {recursive_add(x, h) for x in gr} | {recursive_add(g, x) for x in hr}
    return intern(left, right)


@functools.cache
def recursive_conjugate(g):
    return intern(
        tuple(recursive_conjugate(r) for r in right_options(g)),
        tuple(recursive_conjugate(l) for l in left_options(g)),
    )


@functools.cache
def recursive_followers(g):
    acc = {g}
    for o in options(g):
        acc |= recursive_followers(o)
    return frozenset(acc)


@functools.cache
def recursive_birthday(g):
    opts = options(g)
    return 1 + max(recursive_birthday(o) for o in opts) if opts else 0


@functools.cache
def recursive_max_branching(g):
    left, right = left_options(g), right_options(g)
    return max([len(left), len(right)] + [recursive_max_branching(o) for o in left + right])


@functools.cache
def recursive_struct_key(g):
    return (
        tuple(sorted(recursive_struct_key(x) for x in left_options(g))),
        tuple(sorted(recursive_struct_key(x) for x in right_options(g))),
    )


def shape_sorted(games_):
    """The order sort_games must give: birthday, then the recursive shape key."""
    return sorted(games_, key=lambda g: (recursive_birthday(g), recursive_struct_key(g)))


@functools.cache
def recursive_is_dicot(g):
    return is_left_end(g) == is_right_end(g) and all(
        recursive_is_dicot(o) for o in options(g)
    )


@functools.cache
def recursive_as_number(g):
    left, right = left_options(g), right_options(g)
    if g == ZERO:
        return NumberLiteral(0, 0)
    if len(left) + len(right) == 1:
        step = 1 if left else -1
        sub = recursive_as_number((left or right)[0])
        if sub is not None and sub.is_integer and sub.numerator * step >= 0:
            return NumberLiteral(sub.numerator + step, 0)
    elif len(left) == 1 and len(right) == 1:
        low = recursive_as_number(left[0])
        high = recursive_as_number(right[0])
        if low is not None and high is not None:
            mean = NumberLiteral.from_value((low.value + high.value) / 2)
            if (mean.left_option(), mean.right_option()) == (low, high):
                return mean
    return None


def assert_walks_match_recursive(g):
    assert conjugate(g) == recursive_conjugate(g), g
    assert followers(g) == recursive_followers(g), g
    assert birthday(g) == recursive_birthday(g), g
    assert sort_games(followers(g)) == shape_sorted(followers(g)), g
    assert is_dicot(g) == recursive_is_dicot(g), g
    assert as_number(g) == recursive_as_number(g), g
    assert_side_indexed_match_mirrored(g)


def test_chain_reads_that_stop_at_a_level_already_read_match_the_recursion():
    # a chain read stops at a level whose value is memoized, so reading the
    # levels in any order must give the recursion's answers
    bases = [
        ZERO,
        star(),
        dyadic_game(lit("1/2")),
        integer_game(2),
        integer_game(-3),
        intern((integer_game(7),), (integer_game(19),)),
    ]
    chains = []
    for base in bases:
        for side in (0, 1):
            g, chain = base, []
            for _ in range(6):
                g = intern((g,), ()) if side == 0 else intern((), (g,))
                chain.append(g)
            chains += chain
    rng = random.Random(7)
    for _ in range(20):
        games._as_number.memo.clear()  # a cache of a pure function
        rng.shuffle(chains)
        for g in chains:
            assert as_number(g) == recursive_as_number(g), g


class CountingNodes(list):
    """A copy of the node table that counts the nodes read from it."""

    reads = 0

    def __getitem__(self, g):
        self.reads += 1
        return super().__getitem__(g)


def test_integers_read_upwards_read_each_level_once(monkeypatch):
    labels = sorted(range(-2000, 2001), key=abs)
    chain = [integer_game(n) for n in labels]
    nodes = CountingNodes(games._nodes)
    monkeypatch.setattr(games, "_nodes", nodes)
    games._as_number.memo.clear()  # a cache of a pure function
    assert [as_integer(g) for g in chain] == labels
    assert nodes.reads <= 5 * len(labels)  # each read walked the chain: 2 M
    assert len(nodes) == len(games._index)  # nothing was interned into the copy


def ladder_pack():
    return Bounds().ladder_pack.members


def test_walks_match_recursive_on_dead_ending_b2_k2_and_ladders():
    members = gen_dead_ending(2, 2).members
    assert len(members) == 107
    for g in members + ladder_pack():
        assert_walks_match_recursive(g)


def test_sum_walk_matches_recursive_on_dead_ending_b2_k2_and_ladders():
    members = gen_dead_ending(2, 2).members
    ladders = ladder_pack()
    pairs = [(g, h) for g in members[:40] for h in members]
    pairs += [(g, h) for g in ladders[::5] for h in ladders[::3] + members[:20]]
    for g, h in pairs:
        assert add(g, h) == recursive_add(g, h), (g, h)


@settings(max_examples=200, deadline=None)
@given(shapes, shapes)
def test_walks_match_recursive_on_random_games(sa, sb):
    g, h = build(sa), build(sb)
    assert add(g, h) == recursive_add(g, h)
    for x in (g, conjugate(g), add(g, h)):
        assert_walks_match_recursive(x)


# -- the order ----------------------------------------------------------------
# sort_games places games by integer labels; the recursive shape key it
# replaced is the reference (shape_sorted), which assert_walks_match_recursive
# also checks on each game's followers.


@pytest.mark.parametrize(
    "members",
    [
        lambda: gen_dead_ending(2, 2).members,
        ladder_pack,
        lambda: generate("numbers:j2:v1:t3").members,
    ],
    ids=["dead-ending:b2:k2", "ladders", "numbers:j2:v1:t3"],
)
def test_sort_games_matches_shape_key(members):
    members = list(members())
    shuffled = members[:]
    random.Random(0).shuffle(shuffled)
    assert sort_games(shuffled) == shape_sorted(members)


def test_sort_games_matches_shape_key_on_mixed_birthdays():
    members = gen_dead_ending(2, 2).members
    mixed = list(members[::3] + ladder_pack()[::4])
    mixed += [integer_game(n) for n in range(-6, 7)]
    mixed += [dyadic_game(l) for l in number_literals(3, 2)]
    mixed += [add(g, h) for g in members[:12] for h in members[40:46]]
    mixed += [star(), intern((star(),), (ZERO,))]
    assert len({birthday(g) for g in mixed}) >= 6
    assert sort_games(mixed) == shape_sorted(mixed)
    twice = mixed + mixed[::5]  # duplicates stay, side by side
    assert sort_games(twice) == shape_sorted(twice)
    assert sort_games([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(shapes, max_size=8))
def test_sort_games_matches_shape_key_on_random_sets(shape_list):
    built = [build(shape) for shape in shape_list]
    built += [conjugate(g) for g in built[::2]]
    built += [add(g, h) for g, h in zip(built, built[1:3])]
    assert sort_games(built) == shape_sorted(built)


def test_sort_games_on_same_birthday_ladders_matches_shape_key():
    for rungs in range(1, 40):
        pair = [ladder_game(rungs + 1, 1), ladder_game(rungs, 2)]
        assert sort_games(pair) == shape_sorted(pair) == pair[::-1], rungs


def layered_sorted(games_):
    """The order of sort_games, day by day with dense ranks and no gaps: each
    new birthday re-sorts every game placed so far, so it is quadratic in
    depth; it recurses nowhere."""
    closure, todo = set(games_), list(games_)
    while todo:
        for o in options(todo.pop()):
            if o not in closure:
                closure.add(o)
                todo.append(o)
    days = {}
    for g in closure:
        days.setdefault(birthday(g), []).append(g)
    rank, placed = {}, []
    for day in sorted(days):
        placed += days[day]
        placed.sort(
            key=lambda g: (
                tuple(sorted(rank[x] for x in left_options(g))),
                tuple(sorted(rank[x] for x in right_options(g))),
            )
        )
        rank = {g: i for i, g in enumerate(placed)}
    return sorted(games_, key=lambda g: (birthday(g), rank[g]))


def test_layered_reference_matches_shape_key():
    members = list(gen_dead_ending(2, 2).members + ladder_pack())
    assert layered_sorted(members) == shape_sorted(members)


def test_sort_games_relabels_a_chain_into_one_gap():
    # each negative integer lands just above the one before it, below 1: the
    # gap there runs out again and again, and everything is relabelled; the
    # probes {-k | } and {-k, 1-k | } tell apart neighbours in that gap
    span = 400
    integers = [integer_game(s * k) for k in range(1, span + 1) for s in (-1, 1)]
    expected = [ZERO] + integers
    assert shallow(sort_games, expected[::-1]) == expected
    probes = [intern((integer_game(-k),), ()) for k in range(2, span)]
    probes += [intern((integer_game(-k), integer_game(1 - k)), ()) for k in range(2, span)]
    probes += [intern((), (integer_game(-k), integer_game(k))) for k in range(2, span, 7)]
    # and games over pairs of them far apart in depth, which compare labels
    # given before a relabelling with labels given after it
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.sample(integers + probes, 2)
        probes += [intern((a,), ()), intern((a, b), ()), intern((a,), (b,))]
    mixed = integers[::-1] + probes
    assert shallow(sort_games, mixed) == layered_sorted(mixed)


# -- integers -------------------------------------------------------------------


def looped_integer(n):
    """The integer n built from zero up, one level at a time."""
    g = ZERO
    for _ in range(abs(n)):
        g = intern((g,), ()) if n > 0 else intern((), (g,))
    return g


def test_integer_game_matches_the_loop_from_zero_in_any_call_order():
    for n in (37, 5, -12, 40, -3, 0, 41, -13, 1, -1):
        assert integer_game(n) == looped_integer(n), n


def test_integer_game_reads_the_chain_it_built(monkeypatch):
    expected = {n: looped_integer(n) for n in (-2000, -1999, 0, 1999, 2000)}
    for n in (2000, -2000):
        integer_game(n)

    def refuse(*args):
        pytest.fail(f"interned {args}")

    monkeypatch.setattr(games, "intern", refuse)
    found = {n: integer_game(n) for n in range(-2000, 2001)}
    assert len(set(found.values())) == 4001
    assert {n: found[n] for n in expected} == expected


def test_concurrent_calls_extend_the_integer_chain_once():
    # a level appended twice, or skipped, breaks the chain's links
    chain = games._INTEGERS[0]
    top = len(chain) - 1
    barrier = threading.Barrier(8)

    def worker(slot):
        barrier.wait()
        integer_game(top + 200 + slot)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(chain) == top + 208
    for k in range(1, len(chain)):
        assert (left_options(chain[k]), right_options(chain[k])) == ((chain[k - 1],), ())


# -- depth ----------------------------------------------------------------------
# Games as deep as their value, walked with the recursion limit just above the
# caller's depth (tests/depth.py): any helper that recursed once per level
# would raise RecursionError here.

DEEP = 10**4


def test_deep_integers_answer_within_a_shallow_stack():
    for n in (DEEP, -DEEP):
        g = shallow(integer_game, n)
        literal = NumberLiteral(n, 0)
        assert shallow(dyadic_game, literal) == g
        assert shallow(as_integer, g) == n and shallow(render, g) == str(n)
        assert shallow(conjugate, g) == shallow(integer_game, -n)
        assert shallow(birthday, g) == DEEP
        mirror = shallow(conjugate, g)
        negative, positive = (mirror, g) if n > 0 else (g, mirror)
        assert shallow(sort_games, [positive, ZERO, negative]) == [ZERO, negative, positive]
        assert (shallow(left_length, g), shallow(right_length, g)) == (
            literal.left_length(),
            literal.right_length(),
        )
        assert shallow(is_dead_end, g) and shallow(is_dead_ending, g)
        assert not shallow(is_dicot, g)
        assert shallow(outcome_misere, g) == number_sum_outcome([literal])
        assert shallow(outcome_normal, g) == (Outcome.L if n > 0 else Outcome.R)
        assert shallow(add, g, star()) == shallow(add, star(), g)
        step = integer_game(3 if n > 0 else -3)  # same-sign sums stay canonical
        assert shallow(as_integer, shallow(add, g, step)) == n + as_integer(step)


def test_deep_same_birthday_ladders_sort_within_a_shallow_stack():
    # nested shape keys of these two compare level by level: RecursionError
    low, high = ladder_game(DEEP, 2), ladder_game(DEEP + 1, 1)
    assert birthday(low) == birthday(high)
    assert shallow(sort_games, [high, low]) == shallow(sort_games, [low, high]) == [low, high]


def test_deep_ladder_answers_within_a_shallow_stack():
    g = shallow(lambda_game, DEEP)
    assert shallow(as_lambda, g) == DEEP and shallow(render, g) == f"lambda({DEEP})"
    assert shallow(as_number, g) is None
    assert (shallow(left_length, g), shallow(right_length, g)) == (1, DEEP + 1)
    assert shallow(birthday, g) == DEEP + 1
    assert shallow(is_dead_ending, g)
    assert shallow(outcome_misere, g) == Outcome.R  # as every lambda(k), k >= 2
    assert shallow(outcome_normal, g) == Outcome.L
    assert shallow(conjugate, shallow(conjugate, g)) == g
    x = lambda_game(3)  # a pair with g has 4 * DEEP states, not DEEP**2
    assert shallow(outcome_misere_sum, g, x) == shallow(outcome_misere, shallow(add, g, x))


def test_deep_dicot_chain_within_a_shallow_stack():
    g = ZERO
    for _ in range(DEEP):
        g = intern((g,), (g,))  # {g | g}
    assert shallow(is_dicot, g) and shallow(is_dead_ending, g)
    assert shallow(birthday, g) == DEEP
    # from zero, {g | g} alternates N and P under misere play
    assert shallow(outcome_misere, g) == Outcome.N
    assert shallow(outcome_normal, g) == Outcome.P


# -- concurrency --------------------------------------------------------------


def test_concurrent_interning_consistent():
    literals = number_literals(4, 2)
    results = [None] * 8
    barrier = threading.Barrier(8)

    def worker(slot):
        barrier.wait()
        results[slot] = [dyadic_game(l) for l in literals]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
