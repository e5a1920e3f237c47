"""Interned partizan game positions and structural predicates.

A position is a pair of option sets, one for Left and one for Right, and is
identified by a dense integer id.  Positions are hash-consed: two games built
from identical (recursively interned) option sets always share an id, so
structural equality of trees is id equality.  The intern store and every memo
table are append-only.  Only `intern` takes a lock, so concurrent callers
never see two ids for one tree; the memo tables are plain dicts whose racing
writers store the same value.  All functions here are pure in their arguments
and deterministic.

A node holds its Left options at index 0 and its Right options at index 1.
Dead ends and lengths each have one implementation taking that side index,
with one memo keyed (game, side): the Right notion is the Left notion of the
conjugate, reached without interning the mirror tree.  Recursive helpers use
plain loops, one interpreter frame per level of the game tree.

The recognizers (`as_number`, `as_integer`, `as_lambda`) read the node table
only: they call no constructor and never intern, so naming a position never
grows the store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

GameId = int

_lock = threading.RLock()

# id -> (left option ids, right option ids), both sorted and duplicate-free
_nodes: list[tuple[tuple[GameId, ...], tuple[GameId, ...]]] = []
_index: dict[tuple[tuple[GameId, ...], tuple[GameId, ...]], GameId] = {}

_conjugate_memo: dict[GameId, GameId] = {}
_sum_memo: dict[tuple[GameId, GameId], GameId] = {}
_birthday_memo: dict[GameId, int] = {}
_followers_memo: dict[GameId, frozenset[GameId]] = {}
_dead_end_memo: dict[tuple[GameId, int], bool] = {}
_dead_ending_memo: dict[GameId, bool] = {}
_dicot_memo: dict[GameId, bool] = {}
_length_memo: dict[tuple[GameId, int], Optional[int]] = {}
_branching_memo: dict[GameId, int] = {}
_struct_key_memo: dict[GameId, tuple] = {}
_integer_memo: dict[int, GameId] = {}
_dyadic_memo: dict[tuple[int, int], GameId] = {}
_lambda_memo: dict[int, GameId] = {}
_as_number_memo: dict[GameId, Optional["NumberLiteral"]] = {}


def intern(left: Iterable[GameId], right: Iterable[GameId]) -> GameId:
    """Return the id for the game with the given option sets, creating it if new."""
    node = (tuple(sorted(set(left))), tuple(sorted(set(right))))
    gid = _index.get(node)
    if gid is not None:
        return gid
    with _lock:
        gid = _index.get(node)
        if gid is None:
            size = len(_nodes)
            for opt in node[0] + node[1]:
                if not 0 <= opt < size:
                    raise ValueError(f"option {opt} is not an interned game id")
            gid = size
            _nodes.append(node)
            _index[node] = gid
    return gid


def left_options(g: GameId) -> tuple[GameId, ...]:
    return _nodes[g][0]


def right_options(g: GameId) -> tuple[GameId, ...]:
    return _nodes[g][1]


def options(g: GameId) -> tuple[GameId, ...]:
    node = _nodes[g]
    return node[0] + node[1]


def store_size() -> int:
    return len(_nodes)


ZERO: GameId = intern((), ())


# ---------------------------------------------------------------------------
# numbers as literals


@dataclass(frozen=True, order=True)
class NumberLiteral:
    """A dyadic rational numerator / 2**exponent in lowest terms.

    Integers carry exponent 0; for a positive exponent the numerator must be
    odd.  These literals name canonical-form number games without building
    them, and support the arithmetic that mirrors the game structure.
    """

    numerator: int
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if self.exponent > 0 and self.numerator % 2 == 0:
            raise ValueError("non-integer literal must have an odd numerator")

    @classmethod
    def from_value(cls, value: Union[int, Fraction]) -> "NumberLiteral":
        frac = Fraction(value)
        denominator = frac.denominator
        exponent = denominator.bit_length() - 1
        if 1 << exponent != denominator:
            raise ValueError(f"{frac} is not a dyadic rational")
        return cls(frac.numerator, exponent)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    @property
    def is_integer(self) -> bool:
        return self.exponent == 0

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def conjugated(self) -> "NumberLiteral":
        return NumberLiteral(-self.numerator, self.exponent)

    def left_option(self) -> Optional["NumberLiteral"]:
        """The Left option of the canonical game this literal names."""
        if self.exponent == 0:
            return NumberLiteral(self.numerator - 1, 0) if self.numerator > 0 else None
        return NumberLiteral.from_value(
            Fraction(self.numerator - 1, 1 << self.exponent)
        )

    def right_option(self) -> Optional["NumberLiteral"]:
        option = self.conjugated().left_option()
        return None if option is None else option.conjugated()

    def left_length(self) -> Optional[int]:
        """Minimum count of consecutive Left moves to zero, or None if unreachable."""
        return None if self.numerator < 0 else self.signed_length()

    def right_length(self) -> Optional[int]:
        return self.conjugated().left_length()

    def signed_length(self) -> int:
        """The left length of a literal >= 0, minus the right length of one < 0.

        Each move clears the lowest set bit of the numerator until the literal
        is an integer, which then counts down one move at a time: m / 2**j
        takes (|m| >> j) + popcount(|m| mod 2**j) moves.
        """
        magnitude = abs(self.numerator)
        mask = (1 << self.exponent) - 1
        length = (magnitude >> self.exponent) + (magnitude & mask).bit_count()
        return -length if self.numerator < 0 else length

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"


def number_literals(
    max_exponent: int, max_magnitude: Union[int, Fraction], include_zero: bool = False
) -> list[NumberLiteral]:
    """All literals with exponent <= max_exponent and |value| <= max_magnitude.

    Deterministically ordered by (value, exponent).
    """
    found = []
    for exponent in range(max_exponent + 1):
        scale = 1 << exponent
        top = int(Fraction(max_magnitude) * scale)
        for numerator in range(-top, top + 1):
            if exponent > 0 and numerator % 2 == 0:
                continue
            if numerator == 0 and not include_zero:
                continue
            found.append(NumberLiteral(numerator, exponent))
    found.sort(key=lambda lit: (lit.value, lit.exponent))
    return found


# ---------------------------------------------------------------------------
# constructors


def integer_game(n: int) -> GameId:
    """Canonical-form integer: n > 0 is {n-1 | }, n < 0 its mirror, 0 is { | }."""
    gid = _integer_memo.get(n)
    if gid is not None:
        return gid
    if n == 0:
        gid = ZERO
    elif n > 0:
        gid = intern((integer_game(n - 1),), ())
    else:
        gid = intern((), (integer_game(n + 1),))
    _integer_memo[n] = gid
    return gid


def dyadic_game(a: Union[NumberLiteral, int, Fraction]) -> GameId:
    """Canonical-form number game for a dyadic rational.

    Non-integers m / 2**e are built as { (m-1)/2**e | (m+1)/2**e } with the
    options reduced to lowest terms; integers delegate to integer_game.
    """
    if not isinstance(a, NumberLiteral):
        a = NumberLiteral.from_value(a)
    if a.is_integer:
        return integer_game(a.numerator)
    key = (a.numerator, a.exponent)
    gid = _dyadic_memo.get(key)
    if gid is None:
        left = a.left_option()
        right = a.right_option()
        assert left is not None and right is not None
        gid = intern((dyadic_game(left),), (dyadic_game(right),))
        _dyadic_memo[key] = gid
    return gid


def conjugate(g: GameId) -> GameId:
    """Swap Left and Right options recursively (an involution)."""
    gid = _conjugate_memo.get(g)
    if gid is None:
        left, right = _nodes[g]
        gid = intern(
            tuple(conjugate(r) for r in right), tuple(conjugate(l) for l in left)
        )
        _conjugate_memo[g] = gid
        _conjugate_memo[gid] = g
    return gid


def add(g: GameId, h: GameId) -> GameId:
    """Disjunctive sum: a move in the sum is a move in exactly one component."""
    if g > h:
        g, h = h, g
    if g == ZERO:
        return h
    key = (g, h)
    gid = _sum_memo.get(key)
    if gid is None:
        gl, gr = _nodes[g]
        hl, hr = _nodes[h]
        left = {add(x, h) for x in gl} | {add(g, x) for x in hl}
        right = {add(x, h) for x in gr} | {add(g, x) for x in hr}
        gid = intern(left, right)
        _sum_memo[key] = gid
    return gid


def add_all(games: Iterable[GameId]) -> GameId:
    total = ZERO
    for g in games:
        total = add(total, g)
    return total


def lambda_game(k: int) -> GameId:
    """The ladder {0 | {0 | ... {0 | -1}}} with k rungs; requires k >= 1."""
    if k < 1:
        raise ValueError("lambda_game requires k >= 1")
    gid = _lambda_memo.get(k)
    if gid is None:
        if k == 1:
            gid = intern((ZERO,), (integer_game(-1),))
        else:
            gid = intern((ZERO,), (lambda_game(k - 1),))
        _lambda_memo[k] = gid
    return gid


def star() -> GameId:
    return intern((ZERO,), (ZERO,))


# ---------------------------------------------------------------------------
# structure


def followers(g: GameId) -> frozenset[GameId]:
    """Every position reachable by any sequence of moves, including g itself."""
    cached = _followers_memo.get(g)
    if cached is None:
        acc = {g}
        for o in options(g):
            acc |= followers(o)
        cached = frozenset(acc)
        _followers_memo[g] = cached
    return cached


def birthday(g: GameId) -> int:
    """Height of the game tree."""
    cached = _birthday_memo.get(g)
    if cached is None:
        opts = options(g)
        cached = 1 + max(birthday(o) for o in opts) if opts else 0
        _birthday_memo[g] = cached
    return cached


def max_branching(g: GameId) -> int:
    """Largest per-side option count over all followers."""
    cached = _branching_memo.get(g)
    if cached is None:
        left, right = _nodes[g]
        cached = max(
            [len(left), len(right)] + [max_branching(o) for o in left + right]
        )
        _branching_memo[g] = cached
    return cached


def struct_key(g: GameId) -> tuple:
    """A history-independent total order key for games.

    Built purely from the tree shape, so sorting by (birthday, struct_key) gives
    the same order no matter what else was interned first.  Shared subgames
    share key objects, which keeps comparisons cheap.
    """
    cached = _struct_key_memo.get(g)
    if cached is None:
        left, right = _nodes[g]
        cached = (
            tuple(sorted(struct_key(x) for x in left)),
            tuple(sorted(struct_key(x) for x in right)),
        )
        _struct_key_memo[g] = cached
    return cached


def sort_games(games: Iterable[GameId]) -> list[GameId]:
    """Deterministic order: ascending birthday, then structural key."""
    return sorted(games, key=lambda g: (birthday(g), struct_key(g)))


# ---------------------------------------------------------------------------
# predicates


def is_left_end(g: GameId) -> bool:
    return not _nodes[g][0]


def is_right_end(g: GameId) -> bool:
    return not _nodes[g][1]


def _dead_end(g: GameId, side: int) -> bool:
    """An end for side (0 Left, 1 Right) whose every follower is one too."""
    key = (g, side)
    cached = _dead_end_memo.get(key)
    if cached is None:
        node = _nodes[g]
        cached = not node[side]
        for o in node[1 - side]:
            if not cached:
                break
            cached = _dead_end(o, side)
        _dead_end_memo[key] = cached
    return cached


def is_dead_left_end(g: GameId) -> bool:
    """Left end whose every follower is also a left end."""
    return _dead_end(g, 0)


def is_dead_right_end(g: GameId) -> bool:
    return _dead_end(g, 1)


def is_dead_end(g: GameId) -> bool:
    return is_dead_left_end(g) or is_dead_right_end(g)


def is_dead_ending(g: GameId) -> bool:
    """True when every end follower of g is a dead end."""
    cached = _dead_ending_memo.get(g)
    if cached is None:
        node = _nodes[g]
        # an end for either side must be a dead end for that side
        cached = all(node[side] or _dead_end(g, side) for side in (0, 1))
        for o in node[0] + node[1]:
            if not cached:
                break
            cached = is_dead_ending(o)
        _dead_ending_memo[g] = cached
    return cached


def is_dicot(g: GameId) -> bool:
    """At every follower either both players can move or neither can."""
    cached = _dicot_memo.get(g)
    if cached is None:
        cached = is_left_end(g) == is_right_end(g) and all(
            is_dicot(o) for o in options(g)
        )
        _dicot_memo[g] = cached
    return cached


# ---------------------------------------------------------------------------
# lengths


def _length(g: GameId, side: int) -> Optional[int]:
    """Fewest consecutive moves by side (0 Left, 1 Right) from g to zero."""
    key = (g, side)
    if key in _length_memo:
        return _length_memo[key]
    best: Optional[int] = 0 if g == ZERO else None
    for option in _nodes[g][side]:
        sub = _length(option, side)
        if sub is not None and (best is None or sub + 1 < best):
            best = sub + 1
    _length_memo[key] = best
    return best


def left_length(g: GameId) -> Optional[int]:
    """Fewest consecutive Left moves from g to the zero game, None if unreachable."""
    return _length(g, 0)


def right_length(g: GameId) -> Optional[int]:
    return _length(g, 1)


# ---------------------------------------------------------------------------
# recognizers (structural, independent of construction history)


def as_integer(g: GameId) -> Optional[int]:
    """The integer n when g is structurally the canonical-form integer game."""
    literal = as_number(g)
    return literal.numerator if literal is not None and literal.is_integer else None


def as_number(g: GameId) -> Optional[NumberLiteral]:
    """The literal a when g is structurally the canonical-form number game for a.

    A non-integer m / 2**j is { (m-1)/2**j | (m+1)/2**j }, so its value is the
    mean of its two options' values, and g names that mean exactly when the
    mean's own options are g's.  An integer mean lacks an option on one side,
    so it never matches a node with one option on each.
    """
    if g in _as_number_memo:
        return _as_number_memo[g]
    result: Optional[NumberLiteral] = None
    left, right = _nodes[g]
    if g == ZERO:
        result = NumberLiteral(0, 0)
    elif len(left) + len(right) == 1:
        step = 1 if left else -1  # n > 0 is {n-1 | }, n < 0 its mirror
        sub = as_number((left or right)[0])
        if sub is not None and sub.is_integer and sub.numerator * step >= 0:
            result = NumberLiteral(sub.numerator + step, 0)
    elif len(left) == 1 and len(right) == 1:
        low = as_number(left[0])
        high = as_number(right[0])
        if low is not None and high is not None:
            mean = NumberLiteral.from_value((low.value + high.value) / 2)
            if (mean.left_option(), mean.right_option()) == (low, high):
                result = mean
    _as_number_memo[g] = result
    return result


def as_lambda(g: GameId) -> Optional[int]:
    """The index k when g is structurally the k-rung ladder game."""
    k = 0
    while True:
        left, right = _nodes[g]
        if left != (ZERO,) or len(right) != 1:
            return None
        k += 1
        g = right[0]
        if _nodes[g] == ((), (ZERO,)):  # the rung's drop, -1
            return k
