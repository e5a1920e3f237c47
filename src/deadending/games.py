"""Interned partizan game positions and structural predicates.

A position is a pair of option sets, one for Left and one for Right, and is
identified by a dense integer id.  Positions are hash-consed: two games built
from identical (recursively interned) option sets always share an id, so
structural equality of trees is id equality.  The intern store and every memo
table are append-only.  `intern` takes a lock to add a node, so concurrent
callers never see two ids for one tree, and `integer_game` takes it to extend
its chains; the memo tables are plain dicts whose racing writers store the
same value.  All functions here are pure in their arguments and deterministic.

A node holds its Left options at index 0 and its Right options at index 1.
Dead ends and lengths each have one implementation taking that side index,
with one memo per side: the Right notion is the Left notion of the
conjugate, reached without interning the mirror tree.

Every recursion over a game tree runs on one driver, `_walk`: a step is a
generator that yields the key of each sub-result it needs and is sent that
value back, and the driver keeps waiting steps on an explicit stack and does
the memo lookup and store.  So depth (n for the integer n or lambda(n)) costs
time and memory, not interpreter frames.  A step resumes where the recursive
call would have returned, so interning order and ids are the recursion's.
A memo over pairs of games (`add`'s, and the pair search's in `outcomes`)
keys the pair g <= h by one packed int, g << ID_BITS | h, not by a tuple.

The recognizers (`as_number`, `as_integer`, `as_lambda`) read the node table
only: they call no constructor and never intern, so naming a position never
grows the store.

Test sets, literal lists and integer chains are counted before they are built;
`within_budget`, the one owner of the member budget, refuses a count past it.
"""

from __future__ import annotations

import functools
import threading
from bisect import bisect
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Union

if TYPE_CHECKING:
    from fractions import Fraction

GameId = int

DEFAULT_MEMBER_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would blow past its member budget."""

    def __init__(self, descriptor: str, needed: int, allowed: int, hint: str = ""):
        # a count past 2**64 is written by its size: past 4,300 digits, str()
        # of an int raises
        count = needed if needed < 1 << 64 else f"at least 2**{needed.bit_length() - 1}"
        super().__init__(
            f"test set {descriptor} needs {count} members, which exceeds the "
            f"budget of {allowed}"
        )
        self.descriptor, self.needed, self.allowed = descriptor, needed, allowed
        self.hint = hint  # advice for a caller that can change the descriptor


def within_budget(descriptor: str, needed: int, hint: str = "") -> None:
    """Refuse an enumeration of more members than the budget, before it starts."""
    if needed > DEFAULT_MEMBER_BUDGET:
        raise BudgetExceededError(descriptor, needed, DEFAULT_MEMBER_BUDGET, hint)


_lock = threading.RLock()

# id -> (left option ids, right option ids), both sorted and duplicate-free
_nodes: list[tuple[tuple[GameId, ...], tuple[GameId, ...]]] = []
_index: dict[tuple[tuple[GameId, ...], tuple[GameId, ...]], GameId] = {}


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
# the walk

_MISS = object()


def _walk(step, key, memo=None):
    """The value of the recursion `step` at a key missing from `memo`.

    `step(key)` is a generator: it yields the key of each sub-result it needs,
    is sent that sub-result back, and returns its own value, which is stored
    in `memo`.  A sub-result missing from `memo` is computed by a step of its
    own, while the steps waiting on it sit on a list, not on the interpreter's
    stack.  Without a memo, for keys whose own hash would recurse, nothing is
    looked up or kept.
    """
    get = memo.get if memo is not None else lambda key, default: default
    waiting = []  # key, generator, key, generator, ...: no tuple per level
    gen, value = step(key), None
    while True:
        try:
            sub = gen.send(value)
        except StopIteration as done:
            value = done.value
            if memo is not None:
                memo[key] = value
            if not waiting:
                return value
            gen, key = waiting.pop(), waiting.pop()
            continue
        value = get(sub, _MISS)
        if value is _MISS:
            waiting += key, gen
            key, gen, value = sub, step(sub), None


def _driven(step):
    """The function of one key that walks `step` with a memo of its own (its
    `memo` attribute); it keeps the step's name, docstring and annotations."""
    memo = {}

    @functools.wraps(step)
    def run(key):
        return memo[key] if key in memo else _walk(step, key, memo)

    run.memo = memo
    return run


def _all(keys):
    """In a step, `yield from _all(keys)` is the list of the keys' sub-results."""
    found = []
    for key in keys:
        found.append((yield key))
    return found


def _every(keys):
    """In a step, whether every key's sub-result is true; stops at the first false."""
    for key in keys:
        if not (yield key):
            return False
    return True


# ---------------------------------------------------------------------------
# numbers as literals


class NumberLiteral(NamedTuple("NumberLiteral", [("numerator", int), ("exponent", int)])):
    """A dyadic rational numerator / 2**exponent in lowest terms.

    Integers carry exponent 0; for a positive exponent the numerator must be
    odd.  These literals name canonical-form number games without building
    them, and support the arithmetic that mirrors the game structure, on
    integers alone.  As tuples they compare, hash and sort by (numerator,
    exponent).
    """

    __slots__ = ()

    def __new__(cls, numerator: int, exponent: int) -> "NumberLiteral":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if exponent > 0 and numerator % 2 == 0:
            raise ValueError("non-integer literal must have an odd numerator")
        return super().__new__(cls, numerator, exponent)

    @classmethod
    def _make(cls, fields) -> "NumberLiteral":  # so that `_replace` validates too
        return cls(*fields)

    @classmethod
    def reduced(cls, numerator: int, exponent: int) -> "NumberLiteral":
        """numerator / 2**exponent in lowest terms."""
        twos = (numerator & -numerator).bit_length() - 1 if numerator else exponent
        shift = min(twos, exponent)
        return cls(numerator >> shift, exponent - shift)

    def scaled(self, exponent: int) -> int:
        """The numerator of this value over 2**exponent, for exponent >= self.exponent:
        literals scaled to one exponent compare as their values do."""
        return self.numerator << exponent - self.exponent

    @classmethod
    def from_value(cls, value: Union[int, Fraction]) -> "NumberLiteral":
        """The literal of an int, or of a rational with `numerator` and
        `denominator` in lowest terms, such as a `Fraction`."""
        denominator = value.denominator
        exponent = denominator.bit_length() - 1
        if 1 << exponent != denominator:
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(value.numerator, exponent)

    @property
    def value(self) -> Fraction:
        from fractions import Fraction  # not on any engine path: it costs import time

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
        return NumberLiteral.reduced(self.numerator - 1, self.exponent)

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


def literal_count(max_exponent: int, max_magnitude: Union[int, Fraction]) -> int:
    """How many nonzero literals `number_literals` lists, without listing them:
    one per nonzero multiple of 2**-max_exponent within the magnitude."""
    return 2 * ((max_magnitude.numerator << max_exponent) // max_magnitude.denominator)


def number_literals(
    max_exponent: int, max_magnitude: Union[int, Fraction], include_zero: bool = False
) -> list[NumberLiteral]:
    """All literals with exponent <= max_exponent and |value| <= max_magnitude,
    refused on their count before any is listed.

    Ordered by value: each multiple k / 2**max_exponent within the magnitude
    names one literal, k / 2**max_exponent in lowest terms.
    """
    count = literal_count(max_exponent, max_magnitude) + include_zero
    within_budget(f"literals:j{max_exponent}:v{max_magnitude}", count)
    top = (max_magnitude.numerator << max_exponent) // max_magnitude.denominator
    return [
        NumberLiteral.reduced(k, max_exponent)
        for k in range(-top, top + 1)
        if k or include_zero
    ]


# ---------------------------------------------------------------------------
# constructors


_INTEGERS = ([ZERO], [ZERO])  # the integers built, by magnitude: n >= 0, n <= 0


def integer_game(n: int) -> GameId:
    """Canonical-form integer: n > 0 is {n-1 | }, n < 0 its mirror, 0 is { | }."""
    chain = _INTEGERS[n < 0]
    if abs(n) >= len(chain):
        within_budget(f"ints:{min(n, 0)}..{max(n, 0)}", abs(n) + 1)
        with _lock:  # extend from the top: the order in which a loop from zero interns
            while len(chain) <= abs(n):
                g = chain[-1]
                chain.append(intern((g,), ()) if n > 0 else intern((), (g,)))
    return chain[abs(n)]


def dyadic_game(a: Union[NumberLiteral, int, Fraction]) -> GameId:
    """Canonical-form number game for a dyadic rational.

    Non-integers m / 2**e are built as { (m-1)/2**e | (m+1)/2**e } with the
    options reduced to lowest terms; integers delegate to integer_game.
    """
    if not isinstance(a, NumberLiteral):
        a = NumberLiteral.from_value(a)
    return _number_game(a)


@_driven
def _number_game(a: NumberLiteral) -> GameId:
    if a.is_integer:
        return integer_game(a.numerator)
    return intern(((yield a.left_option()),), ((yield a.right_option()),))


@_driven
def conjugate(g: GameId) -> GameId:
    """Swap Left and Right options recursively (an involution)."""
    left, right = _nodes[g]
    gid = intern((yield from _all(right)), (yield from _all(left)))
    conjugate.memo[gid] = g  # and the walk stores g -> gid
    return gid


# The memos of pairs key the pair g <= h by one int, g << ID_BITS | h, which
# is smaller than a tuple and never tracked by the cyclic GC.  An id takes
# ID_BITS bits: 2**32 nodes would need hundreds of GB, so this is a bound of
# the store, not a runtime check.
ID_BITS = 32
ID_MASK = (1 << ID_BITS) - 1


def add(g: GameId, h: GameId) -> GameId:
    """Disjunctive sum: a move in the sum is a move in exactly one component."""
    if g > h:
        g, h = h, g
    return h if g == ZERO else _sum(g << ID_BITS | h)


@_driven
def _sum(key: int) -> GameId:
    g, h = key >> ID_BITS, key & ID_MASK  # ZERO < g <= h
    sides = []
    for g_opts, h_opts in zip(_nodes[g], _nodes[h]):
        found = set()
        for x in g_opts:  # every option id is below its game's, so x < h
            found.add(h if x == ZERO else (yield x << ID_BITS | h))
        for x in h_opts:
            pair = g << ID_BITS | x if g < x else x << ID_BITS | g
            found.add(g if x == ZERO else (yield pair))
        sides.append(found)
    return intern(*sides)


def add_all(games: Iterable[GameId]) -> GameId:
    total = ZERO
    for g in games:
        total = add(total, g)
    return total


def ladder_game(rungs: int, drop: int) -> GameId:
    """{0 | {0 | ... {0 | -drop}}} with the given number of rungs."""
    if rungs < 1 or drop < 1:
        raise ValueError("rungs and drop must be >= 1")
    within_budget(f"ladder:r{rungs}:d{drop}", rungs)
    g = integer_game(-drop)
    for _ in range(rungs):
        g = intern((ZERO,), (g,))
    return g


def lambda_game(k: int) -> GameId:
    """The ladder {0 | {0 | ... {0 | -1}}} with k rungs; requires k >= 1."""
    return ladder_game(k, 1)


def star() -> GameId:
    return intern((ZERO,), (ZERO,))


# ---------------------------------------------------------------------------
# structure


def _closure(games: Iterable[GameId]) -> set[GameId]:
    """The games and every position reachable from them, on an explicit stack."""
    seen = set(games)
    todo = list(seen)
    while todo:
        for o in options(todo.pop()):
            if o not in seen:
                seen.add(o)
                todo.append(o)
    return seen


def followers(g: GameId) -> frozenset[GameId]:
    """Every position reachable by any sequence of moves, including g itself."""
    # no memo: one set per follower holds n(n+1)/2 entries on an n-chain
    return frozenset(_closure((g,)))


@_driven
def birthday(g: GameId) -> int:
    """Height of the game tree."""
    heights = yield from _all(options(g))
    return 1 + max(heights) if heights else 0


def sort_games(games: Iterable[GameId]) -> list[GameId]:
    """Deterministic order: ascending birthday, then tree shape, which compares
    sorted Left options, then sorted Right options, lexicographically in the
    shape order, so it never depends on what was interned first.

    The follower closure is placed, options first, by bisection on keys of the
    options' integer labels; a new label lies between its neighbours', and a
    gap that runs out relabels everything with wider gaps.  Nothing is kept.
    """
    games = list(games)
    depth = {g: birthday(g) for g in _closure(games)}
    label, order, keys, gap = {}, [], [], 1 << 32  # order and keys: placed so far

    # a key is the sorted Left labels, 0, then the sorted Right labels: labels
    # are >= 1, so a side that is a prefix of another sorts first
    def key(g):
        left, right = _nodes[g]
        k = sorted(map(label.__getitem__, left))
        k.append(0)
        k += sorted(map(label.__getitem__, right))
        return k

    for g in sorted(depth, key=depth.__getitem__):
        k = key(g)
        i = bisect(keys, k)
        low = label[order[i - 1]] if i else 0
        high = label[order[i]] if i < len(order) else low + 2 * gap
        order.insert(i, g)
        keys.insert(i, k)
        if high - low > 1:
            label[g] = (low + high) // 2
        else:  # widening the gaps each time keeps a chain into one gap near-linear
            gap <<= 32
            label = dict(zip(order, range(gap, (len(order) + 1) * gap, gap)))
            keys = [key(x) for x in order]
    return sorted(games, key=lambda g: (depth[g], label[g]))


# ---------------------------------------------------------------------------
# predicates


def is_left_end(g: GameId) -> bool:
    return not _nodes[g][0]


def is_right_end(g: GameId) -> bool:
    return not _nodes[g][1]


def _dead_end(side: int, g: GameId):
    """Step: g and all its followers are ends for side (0 Left, 1 Right)."""
    node = _nodes[g]
    return not node[side] and (yield from _every(node[1 - side]))


_DEAD_ENDS = tuple(_driven(functools.partial(_dead_end, side)) for side in (0, 1))


def is_dead_left_end(g: GameId) -> bool:
    """Left end whose every follower is also a left end."""
    return _DEAD_ENDS[0](g)


def is_dead_right_end(g: GameId) -> bool:
    return _DEAD_ENDS[1](g)


def is_dead_end(g: GameId) -> bool:
    return is_dead_left_end(g) or is_dead_right_end(g)


@_driven
def is_dead_ending(g: GameId) -> bool:
    """True when every end follower of g is a dead end."""
    node = _nodes[g]
    # an end for either side must be a dead end for that side
    ends_dead = all(node[side] or _DEAD_ENDS[side](g) for side in (0, 1))
    return ends_dead and (yield from _every(node[0] + node[1]))


@_driven
def is_dicot(g: GameId) -> bool:
    """At every follower either both players can move or neither can."""
    left, right = _nodes[g]
    return bool(left) == bool(right) and (yield from _every(left + right))


# ---------------------------------------------------------------------------
# lengths


def _length(side: int, g: GameId):
    """Step: fewest consecutive moves by side (0 Left, 1 Right) from g to zero."""
    best = 0 if g == ZERO else None
    for option in _nodes[g][side]:
        sub = yield option
        if sub is not None and (best is None or sub + 1 < best):
            best = sub + 1
    return best


_LENGTHS = tuple(_driven(functools.partial(_length, side)) for side in (0, 1))


def left_length(g: GameId) -> Optional[int]:
    """Fewest consecutive Left moves from g to the zero game, None if unreachable."""
    return _LENGTHS[0](g)


def right_length(g: GameId) -> Optional[int]:
    return _LENGTHS[1](g)


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
    left, right = _nodes[g]
    # a number has at most one option a side; other nodes take no memo entry
    return _as_number(g) if len(left) < 2 and len(right) < 2 else None


@_driven
def _as_number(g: GameId) -> Optional[NumberLiteral]:
    left, right = _nodes[g]
    if g == ZERO:
        return NumberLiteral(0, 0)
    if len(left) + len(right) == 1:
        # n > 0 is {n-1 | } and n < 0 its mirror: read a chain of such steps
        # down to its base in a loop, so that its levels take no memo entries;
        # a level already read is a base, so integers read upwards cost one step
        step, rungs, node, memo = (1 if left else -1), 0, _nodes[g], _as_number.memo
        while len(node[0]) + len(node[1]) == 1 and bool(node[0]) == (step > 0):
            rungs, base = rungs + 1, (node[0] or node[1])[0]
            if base in memo:
                break
            node = _nodes[base]
        sub = yield base
        if sub is not None and sub.is_integer and sub.numerator * step >= 0:
            return NumberLiteral(sub.numerator + step * rungs, 0)
    elif len(left) == 1 and len(right) == 1:
        low = yield left[0]
        high = yield right[0]
        if low is not None and high is not None:
            top = max(low.exponent, high.exponent)
            mean = NumberLiteral.reduced(low.scaled(top) + high.scaled(top), top + 1)
            if (mean.left_option(), mean.right_option()) == (low, high):
                return mean
    return None


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
