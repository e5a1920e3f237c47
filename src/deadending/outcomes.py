"""Outcome solvers and closed-form outcome rules.

The misere solver treats a player with no move as the winner; the normal
solver treats them as the loser.  Both are exact memoized searches over
interned positions.  The outcome of a single two-component sum g + h is
searched over the unordered component pair instead, so that it never interns
the sum: the memo key is (smaller id, larger id, side to move), a move
replaces one component with one of its options, and once a component reaches
zero the search continues in the single-game memo.  The pair search takes the
terminal rule as a parameter: `outcome_misere_sum` uses the misere rule and
`normal_geq` the normal one.  Scans of a game against a whole test set read
the test set's outcome rows (`universes.ContextTable`) instead; the pair
search is their independent re-check.  The closed forms compute outcomes of
dead-end sums and number sums arithmetically and never fall back to the
solver; agreement between the two routes is checked by the verification
harness.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .games import (
    ZERO,
    GameId,
    NumberLiteral,
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

_misere_win_memo: dict[tuple[GameId, bool], bool] = {}
_normal_win_memo: dict[tuple[GameId, bool], bool] = {}
_misere_pair_memo: dict[tuple[GameId, GameId, bool], bool] = {}
_normal_pair_memo: dict[tuple[GameId, GameId, bool], bool] = {}


def outcome_geq(a: Outcome, b: Outcome) -> bool:
    """Partial order on outcomes: L on top, R at the bottom, N and P incomparable."""
    return a is b or a is Outcome.L or b is Outcome.R


def conjugate_outcome(o: Outcome) -> Outcome:
    return _CONJUGATE[o]


def _wins_moving_first(g: GameId, left_to_move: bool, memo, no_move_wins: bool) -> bool:
    key = (g, left_to_move)
    cached = memo.get(key)
    if cached is not None:
        return cached
    opts = left_options(g) if left_to_move else right_options(g)
    if not opts:
        result = no_move_wins
    else:
        result = any(
            not _wins_moving_first(o, not left_to_move, memo, no_move_wins)
            for o in opts
        )
    memo[key] = result
    return result


def _pair_wins(
    g: GameId, h: GameId, left_to_move: bool, pair_memo, memo, no_move_wins: bool
) -> bool:
    """Does the player to move win g + h?  memo is the single-game memo."""
    if g > h:
        g, h = h, g
    if g == ZERO:
        return _wins_moving_first(h, left_to_move, memo, no_move_wins)
    key = (g, h, left_to_move)
    cached = pair_memo.get(key)
    if cached is not None:
        return cached
    if left_to_move:
        g_opts, h_opts = left_options(g), left_options(h)
    else:
        g_opts, h_opts = right_options(g), right_options(h)
    mover = not left_to_move
    result = no_move_wins and not g_opts and not h_opts
    for o in g_opts:
        if not _pair_wins(o, h, mover, pair_memo, memo, no_move_wins):
            result = True
            break
    else:
        for o in h_opts:
            if not _pair_wins(g, o, mover, pair_memo, memo, no_move_wins):
                result = True
                break
    pair_memo[key] = result
    return result


def _outcome_from_wins(left_wins: bool, right_wins: bool) -> Outcome:
    if left_wins:
        return Outcome.N if right_wins else Outcome.L
    return Outcome.R if right_wins else Outcome.P


def _outcome(g: GameId, memo, no_move_wins: bool) -> Outcome:
    return _outcome_from_wins(
        _wins_moving_first(g, True, memo, no_move_wins),
        _wins_moving_first(g, False, memo, no_move_wins),
    )


def outcome_misere(g: GameId) -> Outcome:
    """Misere outcome class: the first player unable to move wins."""
    return _outcome(g, _misere_win_memo, True)


def outcome_misere_sum(g: GameId, h: GameId) -> Outcome:
    """Misere outcome class of g + h, searched without building the sum."""
    return _outcome_from_wins(
        _pair_wins(g, h, True, _misere_pair_memo, _misere_win_memo, True),
        _pair_wins(g, h, False, _misere_pair_memo, _misere_win_memo, True),
    )


def outcome_normal(g: GameId) -> Outcome:
    """Normal outcome class: the first player unable to move loses."""
    return _outcome(g, _normal_win_memo, False)


def normal_geq(g: GameId, h: GameId) -> bool:
    """Normal-play comparison: g >= h iff Left wins g + conjugate(h) second.

    Searched over the pair (g, conjugate(h)), so the sum is never built.
    """
    return not _pair_wins(
        g, conjugate(h), False, _normal_pair_memo, _normal_win_memo, False
    )


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
        if term.numerator > 0:
            length: Optional[int] = term.left_length()
        else:
            length = term.right_length()
            assert length is not None
            length = -length
        assert length is not None
        k += length
    if k < 0:
        return Outcome.L
    return Outcome.N if k == 0 else Outcome.R
