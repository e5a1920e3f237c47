"""Exact engine for partizan games under misere play, specialized to
dead-ending positions: constructors for canonical numbers, outcome solvers
and closed forms, bounded universe generation with equivalence and order
tests, monoid quotients, and a claim-verification harness."""

from .games import (
    ZERO,
    GameId,
    NumberLiteral,
    add,
    add_all,
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
from .outcomes import (
    Outcome,
    conjugate_outcome,
    dead_end_sum_outcome,
    normal_geq,
    number_sum_outcome,
    outcome_geq,
    outcome_misere,
    outcome_misere_sum,
    outcome_normal,
)
