"""Structural layer: interning, constructors, predicates, lengths."""

import functools
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    right_length,
    right_options,
    star,
)
from deadending import games, notation
from deadending.games import options
from deadending.notation import render
from deadending.universes import gen_dead_ending, witness_contexts


def lit(value) -> NumberLiteral:
    return NumberLiteral.from_value(Fraction(value))


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
    # built with intern in a loop: conjugate and add still recurse
    up = down = ZERO
    for _ in range(800):
        up = intern((up,), ())  # {up | }
        down = intern((), (down,))  # { | down}
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
    # integer test rejects it without as_number's dyadic_game lookup
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
    games_to_read = (
        list(gen_dead_ending(2, 2).members)
        + witness_contexts(8, 6)
        + literals
        + pairs
        + ladders
        + [star(), intern((star(),), (ZERO,))]
    )
    size = games.store_size()

    def refuse(*args):
        pytest.fail(f"built a game from {args}")

    for name in ("intern", "dyadic_game", "integer_game", "lambda_game"):
        for module in (games, notation):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # recognize from scratch, not from what earlier tests memoized
    monkeypatch.setattr(games, "_as_number_memo", {})
    for g in games_to_read:
        as_number(g)
        as_integer(g)
        as_lambda(g)
        render(g)
    assert games.store_size() == size
    assert [as_lambda(g) for g in ladders] == [1, 2, 3, 4, 5]
    assert render(games_to_read[-1]) == "{* | 0}"


def test_ladder_recognizer_reads_5000_rungs():
    # built with intern in a loop; as_number on it would still recurse
    g = intern((), (ZERO,))  # -1
    for _ in range(5000):
        g = intern((ZERO,), (g,))
    assert as_lambda(g) == 5000
    assert as_lambda(intern((ZERO,), (g, ZERO))) is None


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
