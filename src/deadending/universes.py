"""Bounded test universes and universe-relative equivalence, order, and
monoid-quotient computations.

A TestSet is a finite, reproducibly generated slice of a universe used as a
pool of distinguishing contexts.  Scans and closed forms both answer with a
Verdict: a Relation, its basis, and its witnesses.  A bounded scan can refute
equivalence or inequality outright, with a witness, but can confirm it only
up to the declared bounds, so a verdict without witnesses holds up to the
test set's descriptor, its basis.  A closed form's verdict is exact, and its
basis is the universe it holds in.

Every scan reads outcome rows from the test set's ContextTable, built on
first use.  A game's row holds, for each context X of the table, whether
Left and whether Right wins g + X moving first; it is computed from the rows
of g's options by a pass over the contexts in id order (an option's id is
below its game's), so no sum is built or searched.  A pass solves up to
eight games at once, one bit of each context byte per game, so callers that
need many rows (the monoid quotient, the number-collapse claim) request them
together.  A scan is then a bit predicate on two rows, and the first set
byte names the first witnessing member; a caller that reads most of a row
decodes it whole (`ContextTable.outcomes`).  Two games are indistinguishable
over the test set exactly when their rows agree on the members, so the
monoid quotient partitions sums by that signature.

Bounded sums are built by one builder, `bounded_sums`: each multiset's sum
is one `add` onto the sum of its prefix, listed one size earlier.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property, lru_cache
from math import comb, inf
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .games import (  # the budget names are re-exported
    DEFAULT_MEMBER_BUDGET,
    ZERO,
    BudgetExceededError,
    GameId,
    NumberLiteral,
    add,
    as_number,
    conjugate,
    dyadic_game,
    integer_game,
    intern,
    is_dead_end,
    is_dead_ending,
    is_dead_left_end,
    is_dead_right_end,
    ladder_game,
    left_length,
    left_options,
    literal_count,
    number_literals,
    options,
    right_length,
    right_options,
    sort_games,
    within_budget,
)
from .outcomes import Outcome, _outcome_from_wins, outcome_misere

T = TypeVar("T")


class TestSet:
    """A descriptor string plus the deterministic member list it denotes.

    Equal test sets are equal field by field; each keeps its own table.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, descriptor: str, members: tuple[GameId, ...]):
        self.__dict__.update(descriptor=descriptor, members=members)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not TestSet:
            return NotImplemented
        return (self.descriptor, self.members) == (other.descriptor, other.members)

    def __hash__(self) -> int:
        return hash((self.descriptor, self.members))

    def __repr__(self) -> str:
        return f"TestSet(descriptor={self.descriptor!r}, members={self.members!r})"

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[GameId]:
        return iter(self.members)

    @cached_property
    def table(self) -> "ContextTable":
        """Outcome rows against the members, built on first use."""
        return ContextTable(self.members)


# (Left wins g + X moving first, Right wins g + X moving first) for every
# context X of a table, one byte per context, context i in byte i
Row = tuple[int, int]

# a context's outcome by its code 2 * (Left wins moving first) + (Right does)
_BY_WINS = tuple(_outcome_from_wins(bool(code & 2), bool(code & 1)) for code in range(4))


class ContextTable:
    """Misere outcome rows of games against a fixed set of contexts.

    `contexts` holds the members, in order, followed by every other follower
    of a member, so a member's index in the table is its index in the test
    set.  Rows are solved on request, up to eight games per pass over the
    contexts, and kept for the table's lifetime.
    """

    def __init__(self, members: Sequence[GameId]):
        contexts = list(members)
        index: dict[GameId, int] = {}
        for i, x in enumerate(contexts):
            index.setdefault(x, i)
        for x in contexts:  # grows while iterated: the follower closure
            for o in options(x):
                if o not in index:
                    index[o] = len(contexts)
                    contexts.append(o)
        self.contexts = tuple(contexts)
        size = len(contexts)
        lefts = [tuple(index[o] for o in left_options(x)) for x in contexts]
        rights = [tuple(index[o] for o in right_options(x)) for x in contexts]
        self._size = size
        self._ones = int.from_bytes(b"\x01" * size, "little")
        self._member_mask = int.from_bytes(b"\x01" * len(members), "little")
        self._no_left = int.from_bytes(bytes(not lo for lo in lefts), "little")
        self._no_right = int.from_bytes(bytes(not ro for ro in rights), "little")
        # options before the contexts that reach them, as ids are; three flat
        # tuples, zipped by the pass, keep no tuple per context
        order = sorted(range(size), key=contexts.__getitem__)
        self._order = tuple(order)
        self._lefts = tuple([lefts[i] for i in order])
        self._rights = tuple([rights[i] for i in order])
        self._rows: dict[GameId, Row] = {}

    def row(self, g: GameId) -> Row:
        """g's row, solved (with its unsolved followers) if not yet kept."""
        if g not in self._rows:
            self.solve((g,))
        return self._rows[g]

    def solve(self, games: Iterable[GameId]) -> None:
        """Solve and keep the rows of the games and of their unsolved followers.

        The unsolved followers, sorted by id (an option's id is below its
        game's), are grouped by height above the rows already kept, so a
        game's options are solved in an earlier group.  Each group is solved
        in passes of up to eight games over the contexts, bit b of every
        context byte standing for the pass's game b.
        """
        rows = self._rows
        todo = {g for g in games if g not in rows}
        stack = list(todo)
        while stack:
            for o in options(stack.pop()):
                if o not in rows and o not in todo:
                    todo.add(o)
                    stack.append(o)
        height: dict[GameId, int] = {}
        levels: list[list[GameId]] = []
        for g in sorted(todo):
            h = max([height[o] + 1 for o in options(g) if o in height], default=0)
            height[g] = h
            if h == len(levels):
                levels.append([])
            levels[h].append(g)
        for level in levels:
            for start in range(0, len(level), 8):
                self._pass(level[start:start + 8])

    def _pass(self, games: Sequence[GameId]) -> None:
        """Solve the rows of up to eight games whose options' rows are kept."""
        # Left moving first in g + X wins by a move g^L + X that Right loses
        # moving first, by a move g + X^L likewise, or by having no move at
        # all; the first kind is a whole-row operation on the option rows
        seed_left = seed_right = 0
        for b, g in enumerate(games):
            seed_left |= self._seed(left_options(g), 1, self._no_left) << b
            seed_right |= self._seed(right_options(g), 0, self._no_right) << b
        wl = bytearray(seed_left.to_bytes(self._size, "little"))
        wr = bytearray(seed_right.to_bytes(self._size, "little"))
        full = (1 << len(games)) - 1
        for i, lo, ro in zip(self._order, self._lefts, self._rights):
            if wl[i] != full:
                lost = full  # the games whose every move X^L wins for Right
                for j in lo:
                    lost &= wr[j]
                if lost != full:
                    wl[i] |= full ^ lost
            if wr[i] != full:
                lost = full
                for j in ro:
                    lost &= wl[j]
                if lost != full:
                    wr[i] |= full ^ lost
        left, right = int.from_bytes(wl, "little"), int.from_bytes(wr, "little")
        ones = self._ones
        for b, g in enumerate(games):
            self._rows[g] = (left >> b) & ones, (right >> b) & ones

    def _seed(self, opts: tuple[GameId, ...], reply: int, no_move: int) -> int:
        """Contexts the mover wins through g: an option whose row loses for the
        replying side (row index `reply`), or, when g has no option for the
        mover, the contexts where the mover has no move at all."""
        if not opts:
            return no_move
        reply_wins_all = self._ones
        for o in opts:
            reply_wins_all &= self._rows[o][reply]
        return self._ones ^ reply_wins_all

    def first(
        self, g: GameId, h: GameId, predicate: Callable[[Row, Row], int]
    ) -> Optional[int]:
        """First member index where predicate(row(g), row(h)) sets a byte, or None."""
        self.solve((g, h))
        hits = predicate(self._rows[g], self._rows[h]) & self._member_mask
        if not hits:
            return None
        return ((hits & -hits).bit_length() - 1) >> 3

    def signature(self, g: GameId) -> Row:
        """g's row restricted to the members: equal exactly when indistinguishable."""
        left, right = self.row(g)
        return left & self._member_mask, right & self._member_mask

    def outcome(self, g: GameId, i: int) -> Outcome:
        """Misere outcome of g plus context i."""
        left, right = self.row(g)
        return _outcome_from_wins(bool(left >> 8 * i & 1), bool(right >> 8 * i & 1))

    def outcomes(self, g: GameId) -> list[Outcome]:
        """Misere outcome of g plus each context, in context order: the whole
        row decoded at once, for callers that read most of it."""
        left, right = self.row(g)
        codes = (left << 1 | right).to_bytes(self._size, "little")  # 2 * L + R
        return [_BY_WINS[code] for code in codes]


def _differ(a: Row, b: Row) -> int:
    """Contexts where the two outcomes differ."""
    return (a[0] ^ b[0]) | (a[1] ^ b[1])


def _fails_geq(a: Row, b: Row) -> int:
    """Contexts where a's outcome is not >= b's.

    Those are the contexts where Left wins moving first against b but not
    against a, or Right wins moving first against a but not against b.
    """
    return (b[0] & ~a[0]) | (a[1] & ~b[1])


# ---------------------------------------------------------------------------
# generation


def _subset_count(n: int, max_size: int) -> int:
    return sum(comb(n, size) for size in range(1, max_size + 1))


def _day_candidates(pool: list[GameId], option_cap: int) -> Iterator[GameId]:
    """Candidate games whose options come from pool, in width-major key order."""
    by_size: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for size in range(1, option_cap + 1):
        by_size[size] = list(itertools.combinations(range(len(pool)), size))
    for width in range(1, 2 * option_cap + 1):
        for left_size in range(0, min(width, option_cap) + 1):
            right_size = width - left_size
            if right_size > option_cap:
                continue
            for lsub in by_size[left_size]:
                left = tuple(pool[i] for i in lsub)
                for rsub in by_size[right_size]:
                    yield intern(left, tuple(pool[i] for i in rsub))


def gen_dead_ending(
    birthday_cap: int,
    option_cap: int,
    cap: Optional[int] = None,
) -> TestSet:
    """Every dead-ending game of bounded birthday and option width.

    Grows rank by rank: the candidates of each birthday are all option-set
    pairs over the previously found members, which is exhaustive because
    followers of dead-ending games are dead-ending.  Members are ordered by
    ascending birthday, then total option width, then a fixed enumeration of
    option subsets; the order depends only on the bounds, never on interning
    history.  With a cap, the first `cap` members in that order are returned
    instead of raising when the full universe would exceed the budget.
    """
    if birthday_cap < 0 or option_cap < 1:
        raise ValueError("birthday_cap must be >= 0 and option_cap >= 1")
    descriptor = f"dead-ending:b{birthday_cap}:k{option_cap}"
    if cap is not None:
        descriptor += f":cap{cap}"
        within_budget(descriptor, cap)
    limit = cap if cap is not None else inf  # uncapped: each day is counted first
    members: list[GameId] = [ZERO]
    seen = {ZERO}
    for _day in range(1, birthday_cap + 1):
        if len(members) >= limit:
            break
        pool = members[:]  # sorted: prior days in order, each day key-sorted
        if cap is None:
            dead_left = sum(1 for g in pool if is_dead_left_end(g))
            dead_right = sum(1 for g in pool if is_dead_right_end(g))
            projected = (
                _subset_count(len(pool), option_cap) ** 2
                + _subset_count(dead_left, option_cap)
                + _subset_count(dead_right, option_cap)
                + 1
            )
            within_budget(descriptor, projected, "; pass a cap to take a deterministic prefix")
        for candidate in _day_candidates(pool, option_cap):
            if candidate in seen:
                continue
            seen.add(candidate)
            if is_dead_ending(candidate):
                members.append(candidate)
                if len(members) >= limit:
                    break
    if cap is not None:
        members = members[:cap]
    return TestSet(descriptor, tuple(members))


def gen_dead_ends(birthday_cap: int, option_cap: int) -> list[GameId]:
    """All dead ends (left or right) within the bounds, deterministically ordered.

    The dead left ends are the conjugates of the dead right ends.  Each day's
    are conjugated as soon as its right ends are built, so that new games are
    interned in birthday order.  A day's right ends are zero and every option
    subset of the previous day's, so the bounds are refused before any day is
    built when some day's projected size, every option subset of the pool
    taken as a new right end and its conjugate, exceeds the member budget.
    """
    count = 1  # right ends so far: zero, then a day's option subsets of them
    for _day in range(birthday_cap):
        projected = 2 * count - 1 + 2 * _subset_count(count, option_cap)
        within_budget(f"dead-ends:b{birthday_cap}:k{option_cap}", projected)
        count = 1 + _subset_count(count, option_cap)
    rights: list[GameId] = [ZERO]
    ends = {ZERO}
    for _day in range(birthday_cap):
        pool = sort_games(rights)
        for size in range(1, option_cap + 1):
            for sub in itertools.combinations(pool, size):
                g = intern(sub, ())
                if g not in ends:
                    ends.add(g)
                    rights.append(g)
        for g in rights[len(pool):]:
            ends.add(conjugate(g))
    return sort_games(ends)


def bounded_multisets(
    descriptor: str, count: int, items: Callable[[], Sequence[T]], max_terms: int
) -> Iterator[tuple[T, ...]]:
    """Every multiset of at most max_terms of the count items, by size.

    Their number is checked against the member budget first, under the
    descriptor.  The items are listed only after it passes, and only when
    there are terms to draw, so a refused descriptor lists no item and
    builds no game.
    """
    within_budget(descriptor, comb(count + max_terms, max_terms))
    pool = items() if max_terms else ()
    return itertools.chain.from_iterable(
        itertools.combinations_with_replacement(pool, size)
        for size in range(max_terms + 1)
    )


def bounded_sums(
    descriptor: str,
    count: int,
    items: Callable[[], Sequence[T]],
    max_terms: int,
    game: Callable[[T], GameId] = lambda item: item,
) -> Iterator[tuple[tuple[T, ...], GameId]]:
    """Every multiset of at most max_terms of the count items, by size, with
    the sum of its items' games.

    Refused, and its items listed, by `bounded_multisets` before the first
    sum is built.  Each sum is one `add` onto the sum of the multiset's
    prefix, the multiset without its last item, which was listed one size
    earlier.
    """
    combos = bounded_multisets(descriptor, count, items, max_terms)

    def with_sums() -> Iterator[tuple[tuple[T, ...], GameId]]:
        prefixes: dict[tuple[T, ...], GameId] = {}
        for combo in combos:
            total = add(prefixes[combo[:-1]], game(combo[-1])) if combo else ZERO
            if len(combo) < max_terms:
                prefixes[combo] = total
            yield combo, total

    return with_sums()


def number_multisets(
    max_exponent: int, max_magnitude: int, max_terms: int
) -> tuple[str, Iterator[tuple[tuple[NumberLiteral, ...], GameId]]]:
    """The numbers test set's descriptor, and its multisets of literals, each
    with its sum; the literals' games are built in the literals' order."""
    descriptor = f"numbers:j{max_exponent}:v{max_magnitude}:t{max_terms}"
    count = literal_count(max_exponent, max_magnitude)  # len(number_literals(...))
    literals = lambda: number_literals(max_exponent, max_magnitude)
    return descriptor, bounded_sums(descriptor, count, literals, max_terms, dyadic_game)


def gen_dead_end_closure(birthday_cap: int, option_cap: int, max_terms: int) -> TestSet:
    """Sums of up to max_terms dead ends, each within the structural bounds."""
    if max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    descriptor = f"dead-end-closure:b{birthday_cap}:k{option_cap}:t{max_terms}"
    ends = gen_dead_ends(birthday_cap, option_cap)
    sums = bounded_sums(descriptor, len(ends), lambda: ends, max_terms)
    return TestSet(descriptor, tuple(sort_games({s for _, s in sums})))


def gen_number_closure(
    max_exponent: int, max_magnitude: int, max_terms: int
) -> TestSet:
    """Sums of up to max_terms canonical numbers within the literal bounds."""
    descriptor, sums = number_multisets(max_exponent, max_magnitude, max_terms)
    return TestSet(descriptor, tuple(sort_games({s for _, s in sums})))


def generate(descriptor: str) -> TestSet:
    """Materialize a test set from its descriptor string.

    The last few are kept per process, so a repeated descriptor returns the
    same TestSet and the rows its table solved (a test set depends only on its
    descriptor; the store is append-only).  A refused one raises on every call.
    """
    return _generate(descriptor)


@lru_cache(maxsize=4)
def _generate(descriptor: str) -> TestSet:
    fields = descriptor.split(":")
    kind = fields[0]

    def value(field: str, prefix: str) -> int:
        if not field.startswith(prefix) or not field[len(prefix):].isdigit():
            raise ValueError(f"malformed descriptor field {field!r} in {descriptor!r}")
        return int(field[len(prefix):])

    if kind == "dead-ending" and len(fields) in (3, 4):
        cap = value(fields[3], "cap") if len(fields) == 4 else None
        return gen_dead_ending(value(fields[1], "b"), value(fields[2], "k"), cap)
    if kind == "dead-end-closure" and len(fields) == 4:
        return gen_dead_end_closure(
            value(fields[1], "b"), value(fields[2], "k"), value(fields[3], "t")
        )
    if kind == "numbers" and len(fields) == 4:
        return gen_number_closure(
            value(fields[1], "j"), value(fields[2], "v"), value(fields[3], "t")
        )
    raise ValueError(f"unrecognized test set descriptor {descriptor!r}")


def witness_contexts(max_rungs: int = 8, max_drop: int = 6) -> list[GameId]:
    """Ladder-shaped contexts (and conjugates) that separate slow-moving pairs.

    These live outside the small generated universes but are all dead-ending,
    so any refutation they produce is a genuine witness.
    """
    within_budget(f"ladders:r{max_rungs}:d{max_drop}", 2 * max_rungs * max_drop)
    out: list[GameId] = []
    for rungs in range(1, max_rungs + 1):
        for drop in range(1, max_drop + 1):
            g = ladder_game(rungs, drop)
            out.append(g)
            out.append(conjugate(g))
    return out


# ---------------------------------------------------------------------------
# verdicts


class Relation(Enum):
    """How g relates to h: the bounded scans' verdicts, then the closed forms'."""

    INDISTINGUISHABLE = "indistinguishable"
    DISTINGUISHED = "distinguished"
    GEQ_CONSISTENT = "geq-consistent"
    REFUTED = "refuted"
    EQUIVALENT = "equivalent"
    GREATER = "greater"
    LESS = "less"
    INCOMPARABLE = "incomparable"


class Verdict(NamedTuple):
    """A relation between two games, with what it rests on.

    `basis` is the descriptor of the scanned test set, or, for an exact
    verdict, the universe the closed form holds in.  A bounded verdict with no
    witnesses holds only up to its basis; otherwise its witnesses are contexts
    that refute (one for distinguished or refuted, the failing geq then leq
    context for incomparable).  `outcomes` are g's and h's misere outcomes at
    a distinguishing witness.
    """

    relation: Relation
    basis: str
    witnesses: tuple[GameId, ...] = ()
    outcomes: tuple[Outcome, ...] = ()
    exact: bool = False


def equiv_mod(g: GameId, h: GameId, tests: TestSet) -> Verdict:
    """The first context of the test set with differing misere outcomes."""
    table = tests.table
    i = table.first(g, h, _differ)
    if i is None:
        return Verdict(Relation.INDISTINGUISHABLE, tests.descriptor)
    return Verdict(
        Relation.DISTINGUISHED,
        tests.descriptor,
        (tests.members[i],),
        (table.outcome(g, i), table.outcome(h, i)),
    )


def geq_mod(g: GameId, h: GameId, tests: TestSet) -> Verdict:
    """Check o-(g+X) >= o-(h+X) over the test set, also noting the converse."""
    geq_fail = tests.table.first(g, h, _fails_geq)
    if geq_fail is None:
        return Verdict(Relation.GEQ_CONSISTENT, tests.descriptor)
    leq_fail = tests.table.first(h, g, _fails_geq)
    if leq_fail is None:
        return Verdict(Relation.REFUTED, tests.descriptor, (tests.members[geq_fail],))
    witnesses = (tests.members[geq_fail], tests.members[leq_fail])
    return Verdict(Relation.INCOMPARABLE, tests.descriptor, witnesses)


def invert_check(g: GameId, tests: TestSet) -> Verdict:
    """Is g + conjugate(g) indistinguishable from zero over the test set?"""
    return equiv_mod(add(g, conjugate(g)), ZERO, tests)


# ---------------------------------------------------------------------------
# closed-form comparisons


def compare_numbers_mod_E(a: NumberLiteral, b: NumberLiteral) -> Verdict:
    """Order of two canonical numbers in the dead-ending universe.

    Same-sign numbers compare by value plus a length condition: a exceeds b
    exactly when a > b and Left's path in a is no longer than in b (mirrored
    with right-lengths for negatives).  Pairs of opposite sign, and distinct
    pairs involving zero, are incomparable.
    """
    return Verdict(_number_relation(a, b), "dead-ending", exact=True)


def _number_relation(a: NumberLiteral, b: NumberLiteral) -> Relation:
    top = max(a.exponent, b.exponent)
    x, y = a.scaled(top), b.scaled(top)
    if x == y:
        return Relation.EQUIVALENT
    if x < 0 and y < 0:
        return _number_relation(b.conjugated(), a.conjugated())
    if x <= 0 or y <= 0:
        return Relation.INCOMPARABLE
    la, lb = a.left_length(), b.left_length()
    assert la is not None and lb is not None
    if x > y and la <= lb:
        return Relation.GREATER
    if y > x and lb <= la:
        return Relation.LESS
    return Relation.INCOMPARABLE


def compare_integers_mod_dead_end_closure(n: int, m: int) -> Verdict:
    """Total order of integers modulo the closure of dead ends: n exceeds m iff n < m."""
    if n == m:
        relation = Relation.EQUIVALENT
    else:
        relation = Relation.GREATER if n < m else Relation.LESS
    return Verdict(relation, "dead-end closure", exact=True)


def reduce_end_to_integer(g: GameId) -> NumberLiteral:
    """The integer a dead end is equivalent to in the closure of dead ends."""
    if is_dead_right_end(g):
        length = left_length(g)
        assert length is not None
        return NumberLiteral(length, 0)
    if is_dead_left_end(g):
        length = right_length(g)
        assert length is not None
        return NumberLiteral(-length, 0)
    raise ValueError("reduce_end_to_integer requires a dead end")


# ---------------------------------------------------------------------------
# monoid quotient


class MonoidClass(NamedTuple):
    label: int
    representative: GameId
    members: list[GameId]
    outcome: Outcome


class MonoidReport(NamedTuple):
    """Quotient of bounded generator sums by indistinguishability over a test set."""

    descriptor: str
    generators: list[GameId]
    max_terms: int
    classes: list[MonoidClass]
    product: dict[tuple[int, int], int]
    product_verified: dict[tuple[int, int], bool]
    identity_label: int
    inverse_pairs: list[tuple[int, int]]
    order: dict[tuple[int, int], str]
    notes: list[str]  # each inconsistency in the label bookkeeping

    @property
    def consistent(self) -> bool:
        return not self.notes

    def to_dict(self) -> dict:
        from .notation import render_all

        games = [*self.generators]
        for cls in self.classes:
            games += cls.representative, *cls.members
        name = dict(zip(games, render_all(games)))
        by_pair = lambda table: {f"{a},{b}": v for (a, b), v in sorted(table.items())}
        return {
            "tests": self.descriptor,
            "generators": [name[g] for g in self.generators],
            "max_terms": self.max_terms,
            "classes": [
                {
                    "label": cls.label,
                    "representative": name[cls.representative],
                    "members": [name[m] for m in cls.members],
                    "outcome": cls.outcome.value,
                }
                for cls in self.classes
            ],
            "product": by_pair(self.product),
            "product_verified": by_pair(self.product_verified),
            "identity_label": self.identity_label,
            "inverse_pairs": [list(pair) for pair in sorted(self.inverse_pairs)],
            "order": by_pair(self.order),
            "consistent": self.consistent,
            "notes": self.notes,
        }


def _generator_label(g: GameId) -> int:
    lit = as_number(g)
    if lit is not None:
        return lit.signed_length()
    if not is_dead_end(g):
        raise ValueError("generators must be canonical numbers or dead ends")
    return reduce_end_to_integer(g).numerator


def quotient_monoid(
    generators: Iterable[GameId],
    max_terms: int,
    tests: TestSet,
) -> MonoidReport:
    """Partition bounded generator sums into indistinguishability classes.

    Sums are indistinguishable over the test set exactly when their outcome
    signatures over its members agree, so each class is one signature, with
    the sums in key order and the first of them as representative.  Labels
    come from the length arithmetic of the generators (positive numbers
    count left moves, negatives right moves, ends reduce to integers), so the
    report exposes whether the quotient really is label addition.
    """
    if max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    gens = sort_games(set(generators))
    if not gens:
        raise ValueError("at least one generator required")
    gen_set = set(gens)
    if any(conjugate(g) not in gen_set for g in gens):
        raise ValueError("generator set must be closed under conjugation")
    labels = {g: _generator_label(g) for g in gens}
    built = bounded_sums("monoid generator sums", len(gens), lambda: gens, max_terms)

    notes: list[str] = []
    sums: dict[GameId, int] = {}
    for combo, s in built:
        label = sum(labels[g] for g in combo)
        if sums.setdefault(s, label) != label:
            notes.append(f"structurally equal sums carry labels {sums[s]} and {label}")

    table = tests.table
    table.solve(sums)
    by_signature: dict[Row, MonoidClass] = {}
    for s in sort_games(sums):
        signature = table.signature(s)
        cls = by_signature.get(signature)
        if cls is None:
            by_signature[signature] = MonoidClass(sums[s], s, [s], outcome_misere(s))
            continue
        cls.members.append(s)
        if sums[s] != cls.label:
            notes.append(
                f"class with label {cls.label} absorbed a sum labeled {sums[s]}"
            )
    classes = list(by_signature.values())
    by_label = {cls.label: cls for cls in classes}
    if len(by_label) != len(classes):
        notes.append("distinct classes share a label")
    label_list = sorted(by_label)

    product: dict[tuple[int, int], int] = {}
    pairs: dict[tuple[int, int], tuple[GameId, GameId]] = {}
    order: dict[tuple[int, int], str] = {}
    for la in label_list:
        a = by_label[la].representative
        for lb in label_list:
            b = by_label[lb].representative
            target = la + lb
            product[(la, lb)] = target
            # built in this order, sum then reference, so that ids never move
            combined = add(a, b)
            if target in by_label:
                reference = by_label[target].representative
            else:
                reference = integer_game(target)
            pairs[(la, lb)] = combined, reference
            if la != lb:  # the representatives' rows were solved with the sums
                order[(la, lb)] = geq_mod(a, b, tests).relation.value
    table.solve(itertools.chain.from_iterable(pairs.values()))
    product_verified = {
        key: table.signature(g) == table.signature(h) for key, (g, h) in pairs.items()
    }

    # the empty sum is a sum, so zero has a class
    zero = table.signature(ZERO)
    identity_label = by_signature[zero].label
    inverse_pairs = [
        (la, lb)
        for (la, lb), (combined, _) in pairs.items()
        if la <= lb and la + lb == identity_label and table.signature(combined) == zero
    ]

    return MonoidReport(
        descriptor=tests.descriptor,
        generators=gens,
        max_terms=max_terms,
        classes=classes,
        product=product,
        product_verified=product_verified,
        identity_label=identity_label,
        inverse_pairs=inverse_pairs,
        order=order,
        notes=notes,
    )
