"""Outcome solvers and the closed-form outcome rules."""

import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadending import (
    ZERO,
    NumberLiteral,
    Outcome,
    add,
    add_all,
    conjugate,
    conjugate_outcome,
    dead_end_sum_outcome,
    dyadic_game,
    integer_game,
    intern,
    is_dead_left_end,
    is_dead_right_end,
    is_left_end,
    lambda_game,
    left_options,
    normal_geq,
    number_literals,
    number_sum_outcome,
    outcome_geq,
    outcome_misere,
    outcome_misere_sum,
    outcome_normal,
    right_options,
    star,
)
from deadending import games, outcomes
from deadending.claims import Bounds
from deadending.universes import gen_dead_ending, gen_dead_ends, witness_contexts

from strategies import build, shapes


def lit(value):
    return NumberLiteral.from_value(Fraction(value))


def test_misere_examples():
    assert outcome_misere(ZERO) == Outcome.N
    assert outcome_misere(integer_game(1)) == Outcome.R
    assert outcome_misere(integer_game(-3)) == Outcome.L
    assert outcome_misere(intern((), (integer_game(1),))) == Outcome.N
    assert outcome_misere(star()) == Outcome.P
    assert outcome_misere(dyadic_game(lit("1/2"))) == Outcome.R


def test_misere_mixed_number_sums():
    half = dyadic_game(lit("1/2"))
    assert outcome_misere(add(half, conjugate(half))) == Outcome.N
    assert outcome_misere(add(dyadic_game(lit("3/4")), conjugate(half))) == Outcome.R


def test_normal_examples():
    assert outcome_normal(ZERO) == Outcome.P
    assert outcome_normal(integer_game(1)) == Outcome.L
    assert outcome_normal(star()) == Outcome.N


def test_normal_geq():
    assert normal_geq(integer_game(1), ZERO)
    assert not normal_geq(dyadic_game(lit("1/2")), dyadic_game(lit("3/4")))
    g = dyadic_game(lit("3/4"))
    assert normal_geq(g, g)


def test_outcome_order_table():
    L, R, N, P = Outcome.L, Outcome.R, Outcome.N, Outcome.P
    expected = {
        (L, L): True, (L, N): True, (L, P): True, (L, R): True,
        (N, L): False, (N, N): True, (N, P): False, (N, R): True,
        (P, L): False, (P, N): False, (P, P): True, (P, R): True,
        (R, L): False, (R, N): False, (R, P): False, (R, R): True,
    }
    for pair, value in expected.items():
        assert outcome_geq(*pair) == value, pair


@settings(max_examples=300)
@given(shapes, shapes)
def test_pair_search_matches_built_sum(sa, sb):
    g, h = build(sa), build(sb)
    for a, b in ((g, h), (h, g), (g, g), (g, ZERO), (ZERO, h)):
        assert outcome_misere_sum(a, b) == outcome_misere(add(a, b)), (a, b)


def test_pair_search_matches_built_sum_on_scan_contexts():
    members = gen_dead_ending(2, 2).members
    contexts = members + tuple(witness_contexts(4, 3))
    for i, g in enumerate(members):
        for x in contexts[i:]:
            assert outcome_misere_sum(g, x) == outcome_misere(add(g, x)), (g, x)


# The pair search keyed by a (smaller id, larger id, left to move) tuple, the
# route the packed int key replaced, kept as the reference.


def tuple_pair_wins(no_move_wins, key):
    g, h, left_to_move = key
    mover_options = left_options if left_to_move else right_options
    g_opts, h_opts = mover_options(g), mover_options(h)
    mover = not left_to_move
    for o in g_opts:
        if not (yield (o, h, mover) if o < h else (h, o, mover)):
            return True
    for o in h_opts:
        if not (yield (g, o, mover) if g < o else (o, g, mover)):
            return True
    return no_move_wins and not g_opts and not h_opts


class TupleKeyedSearch:
    """The reference search under one terminal rule, with a memo of its own."""

    def __init__(self, no_move_wins):
        self.step = partial(tuple_pair_wins, no_move_wins)
        self.memo = {}

    def outcome(self, g, h):
        if g > h:
            g, h = h, g
        wins = [
            self.memo[key] if key in self.memo else games._walk(self.step, key, self.memo)
            for key in ((g, h, True), (g, h, False))
        ]
        return outcomes._outcome_from_wins(*wins)


def assert_packed_search_matches_tuple_keyed(pairs):
    for rule, no_move_wins in ((outcomes._MISERE, True), (outcomes._NORMAL, False)):
        reference = TupleKeyedSearch(no_move_wins)
        for g, h in pairs:
            assert outcomes._outcome(g, h, rule) == reference.outcome(g, h), (g, h)
        # every position the reference searched sits under its packed key
        for (g, h, left_to_move), wins in reference.memo.items():
            assert g <= h
            packed = (g << games.ID_BITS | h) << 1 | left_to_move
            assert rule.memo[packed] is wins, (g, h, left_to_move)


def test_packed_pair_search_matches_tuple_keyed_on_b2_k2_pairs():
    members = gen_dead_ending(2, 2).members
    assert_packed_search_matches_tuple_keyed(itertools.combinations_with_replacement(members, 2))


@settings(max_examples=200)
@given(shapes, shapes)
def test_packed_pair_search_matches_tuple_keyed_on_random_pairs(sa, sb):
    g, h = build(sa), build(sb)
    assert_packed_search_matches_tuple_keyed([(g, h), (h, g), (g, g), (ZERO, g)])


def built_normal_geq(g, h):
    return outcome_normal(add(g, conjugate(h))) in (Outcome.L, Outcome.P)


@settings(max_examples=300)
@given(shapes, shapes)
def test_normal_geq_matches_built_sum(sa, sb):
    g, h = build(sa), build(sb)
    for a, b in ((g, h), (h, g), (g, g), (g, ZERO), (ZERO, h)):
        assert normal_geq(a, b) == built_normal_geq(a, b), (a, b)


def test_normal_geq_matches_built_sum_on_claim_pool():
    pool = [dyadic_game(l) for l in number_literals(3, 2)]
    pool += gen_dead_ending(2, 2).members[:40]
    for g in pool:
        for h in pool:
            assert normal_geq(g, h) == built_normal_geq(g, h), (g, h)


# The single-game search that the pair search (ZERO, g) replaced, kept as
# the reference.


def single_wins_moving_first(g, left_to_move, memo, no_move_wins):
    key = (g, left_to_move)
    cached = memo.get(key)
    if cached is not None:
        return cached
    opts = left_options(g) if left_to_move else right_options(g)
    if not opts:
        result = no_move_wins
    else:
        result = any(
            not single_wins_moving_first(o, not left_to_move, memo, no_move_wins)
            for o in opts
        )
    memo[key] = result
    return result


WINS_TO_OUTCOME = {
    (True, True): Outcome.N,
    (True, False): Outcome.L,
    (False, True): Outcome.R,
    (False, False): Outcome.P,
}


def single_outcome(g, memo, no_move_wins):
    return WINS_TO_OUTCOME[
        single_wins_moving_first(g, True, memo, no_move_wins),
        single_wins_moving_first(g, False, memo, no_move_wins),
    ]


def assert_solvers_match_single_search(games):
    misere_memo, normal_memo = {}, {}
    for g in games:
        assert outcome_misere(g) == single_outcome(g, misere_memo, True), g
        assert outcome_normal(g) == single_outcome(g, normal_memo, False), g


def test_solvers_match_single_search_on_dead_ending_b2_k2():
    members = gen_dead_ending(2, 2).members
    sums = [add(g, h) for g in members[:30] for h in members[:30]]
    ladders = Bounds().ladder_pack.members
    assert_solvers_match_single_search(members + tuple(sums) + ladders)


@settings(max_examples=200)
@given(shapes)
def test_solvers_match_single_search_on_random_games(shape):
    g = build(shape)
    assert_solvers_match_single_search([g, conjugate(g)])


def test_solvers_reach_800_levels():
    # {g | g} from zero alternates P and N under normal play, N and P under
    # misere play
    g = ZERO
    for _ in range(800):
        g = intern((g,), (g,))
    assert outcome_misere(g) == Outcome.N
    assert outcome_normal(g) == Outcome.P
    odd = intern((g,), (g,))
    assert outcome_misere(odd) == Outcome.P
    assert outcome_normal(odd) == Outcome.N


@settings(max_examples=150)
@given(shapes)
def test_conjugation_symmetry(shape):
    g = build(shape)
    assert outcome_misere(conjugate(g)) == conjugate_outcome(outcome_misere(g))
    assert outcome_normal(conjugate(g)) == conjugate_outcome(outcome_normal(g))


@settings(max_examples=150)
@given(shapes)
def test_left_ends_favour_left(shape):
    g = build(shape)
    if is_left_end(g):
        assert outcome_misere(g) in (Outcome.L, Outcome.N)


def test_nonzero_dead_ends_are_one_sided():
    for g in gen_dead_ends(3, 2):
        if g == ZERO:
            continue
        if is_dead_left_end(g):
            assert outcome_misere(g) == Outcome.L
        if is_dead_right_end(g):
            assert outcome_misere(g) == Outcome.R


def test_dead_end_sum_outcome_examples():
    assert dead_end_sum_outcome(integer_game(1), integer_game(-2)) == Outcome.L
    assert dead_end_sum_outcome(integer_game(2), integer_game(-2)) == Outcome.N
    assert dead_end_sum_outcome(integer_game(2), integer_game(-1)) == Outcome.R


def test_dead_end_sum_outcome_preconditions():
    with pytest.raises(ValueError):
        dead_end_sum_outcome(integer_game(-1), integer_game(-1))
    with pytest.raises(ValueError):
        dead_end_sum_outcome(integer_game(1), star())


def test_dead_end_sum_outcome_matches_solver_exhaustively():
    ends = gen_dead_ends(3, 2)
    rights = [g for g in ends if is_dead_right_end(g)]
    lefts = [g for g in ends if is_dead_left_end(g)]
    for g in rights:
        for h in lefts:
            assert outcome_misere(add(g, h)) == dead_end_sum_outcome(g, h)


def test_number_sum_outcome_examples():
    assert number_sum_outcome([lit("1/2"), lit("-1/2")]) == Outcome.N
    assert number_sum_outcome([lit("3/4"), lit("-1/2")]) == Outcome.R
    assert number_sum_outcome([]) == Outcome.N
    assert number_sum_outcome([lit("1/2"), lit("1/2")]) == Outcome.R
    with pytest.raises(ValueError):
        number_sum_outcome([NumberLiteral(0, 0)])


def test_number_sum_outcome_matches_solver():
    literals = number_literals(2, 1)
    for size in range(0, 4):
        for combo in itertools.combinations_with_replacement(literals, size):
            built = add_all(dyadic_game(l) for l in combo)
            assert outcome_misere(built) == number_sum_outcome(combo), combo


def test_ladder_facts_used_by_integer_separation():
    for n in range(1, 5):
        assert outcome_misere(add(integer_game(n), lambda_game(n))) == Outcome.L
        for m in range(0, n):
            assert outcome_misere(add(integer_game(m), lambda_game(n))) in (
                Outcome.P,
                Outcome.R,
            )
