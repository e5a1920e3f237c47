"""Outcome solvers and closed-form outcome rules.

The misere solver treats a player with no move as the winner; the normal
solver treats them as the loser.  Both are one exact memoized search over
the unordered component pair of a sum g + h, so that it never interns the
sum: the memo key is one packed int, (g << ID_BITS | h) << 1 | left to move,
with g the smaller id (`games` states the id field), and a move replaces one
component with one of its options.  A single game g is the pair (ZERO, g).
The search is a step of the engine's walk (`games._walk`), so it runs on an
explicit stack at any depth, and it stops at the first losing reply.  It
takes the terminal rule as a parameter and keeps one memo per rule, shared
by single games and pairs: `outcome_misere` and `outcome_misere_sum` use the
misere rule, `outcome_normal` and `normal_geq` the normal one.  Scans of a
game against a whole test set read the test set's outcome rows
(`universes.ContextTable`) instead, and so do the number-sum claims: zero's
row over a table of the sums gives each sum's outcome, and a left end's row
its outcome beside each sum.  The pair search is the rows' independent
re-check.  The closed forms compute outcomes of dead-end sums and number
sums arithmetically and never fall back to the solver; agreement between the
two routes is checked by the verification harness.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Iterable

from .games import (
    ID_BITS,
    ID_MASK,
    ZERO,
    GameId,
    NumberLiteral,
    _driven,
    conjugate,
    is_dead_left_end,
    is_dead_right_end,
    left_length,
    left_options,
    right_length,
    right_options,
)


class Outcome(Enum):
    """Who wins under optimal play: Left, Right, the next or the previous player."""

    L = "L"
    R = "R"
    N = "N"
    P = "P"


_CONJUGATE = {
    Outcome.L: Outcome.R,
    Outcome.R: Outcome.L,
    Outcome.N: Outcome.N,
    Outcome.P: Outcome.P,
}


def outcome_geq(a: Outcome, b: Outcome) -> bool:
    """Partial order on outcomes: L on top, R at the bottom, N and P incomparable."""
    return a is b or a is Outcome.L or b is Outcome.R


def conjugate_outcome(o: Outcome) -> Outcome:
    return _CONJUGATE[o]


def _pair_wins(no_move_wins: bool, key: int):
    """Step: does the player to move win g + h?  Key (g << ID_BITS | h) << 1 |
    left to move, with g <= h."""
    left_to_move = key & 1
    g, h = key >> ID_BITS + 1, key >> 1 & ID_MASK
    mover_options = left_options if left_to_move else right_options
    g_opts, h_opts = mover_options(g), mover_options(h)
    mover = left_to_move ^ 1
    for o in g_opts:  # every option id is below its game's, so o < h
        if not (yield (o << ID_BITS | h) << 1 | mover):
            return True
    for o in h_opts:
        pair = g << ID_BITS | o if g < o else o << ID_BITS | g
        if not (yield pair << 1 | mover):
            return True
    return no_move_wins and not g_opts and not h_opts


# the search under each terminal rule, each with its own memo
_MISERE = _driven(partial(_pair_wins, True))
_NORMAL = _driven(partial(_pair_wins, False))


def _outcome_from_wins(left_wins: bool, right_wins: bool) -> Outcome:
    if left_wins:
        return Outcome.N if right_wins else Outcome.L
    return Outcome.R if right_wins else Outcome.P


def _outcome(g: GameId, h: GameId, rule) -> Outcome:
    if g > h:
        g, h = h, g
    key = (g << ID_BITS | h) << 1
    return _outcome_from_wins(rule(key | 1), rule(key))


def outcome_misere(g: GameId) -> Outcome:
    """Misere outcome class: the first player unable to move wins."""
    return _outcome(ZERO, g, _MISERE)


def outcome_misere_sum(g: GameId, h: GameId) -> Outcome:
    """Misere outcome class of g + h, searched without building the sum."""
    return _outcome(g, h, _MISERE)


def outcome_normal(g: GameId) -> Outcome:
    """Normal outcome class: the first player unable to move loses."""
    return _outcome(ZERO, g, _NORMAL)


def normal_geq(g: GameId, h: GameId) -> bool:
    """Normal-play comparison: g >= h iff Left wins g + conjugate(h) second.

    Searched over the pair (g, conjugate(h)), so the sum is never built.
    """
    h = conjugate(h)
    return not _NORMAL((g << ID_BITS | h if g <= h else h << ID_BITS | g) << 1)


def dead_end_sum_outcome(g: GameId, h: GameId) -> Outcome:
    """Misere outcome of (dead right end) + (dead left end) from the lengths.

    The players can only move in their own component, so the winner is whoever
    runs out of moves first.
    """
    if not is_dead_right_end(g):
        raise ValueError("first summand must be a dead right end")
    if not is_dead_left_end(h):
        raise ValueError("second summand must be a dead left end")
    lg = left_length(g)
    rh = right_length(h)
    assert lg is not None and rh is not None
    if lg == rh:
        return Outcome.N
    return Outcome.L if lg < rh else Outcome.R


def number_sum_outcome(terms: Iterable[NumberLiteral]) -> Outcome:
    """Misere outcome of a sum of nonzero canonical numbers, computed arithmetically.

    With k = (total left-length of the positive terms) - (total right-length of
    the negative terms): Left wins when k < 0, the first player when k = 0,
    Right when k > 0.
    """
    k = 0
    for term in terms:
        if term.is_zero:
            raise ValueError("terms must be nonzero literals")
        k += term.signed_length()
    if k < 0:
        return Outcome.L
    return Outcome.N if k == 0 else Outcome.R
