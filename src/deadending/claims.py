"""Registry of executable bounded checks, one per governing statement of the algebra.

Every checker is deterministic given its bounds and only records its cases
in the `_Check` it is handed.  `run_claim` owns the report: it makes the
check, runs the checker and turns the check into a `ClaimReport`, a test set
refused by the member budget counting as a shortfall; `run_all` reports a
claim its wall-clock budget leaves no time for through a check of its own,
holding that one shortfall.  Statements quantified over an infinite
universe are checked over declared test sets and labeled as bounded passes;
statements with closed forms are checked exhaustively within bounds.  A
refuted report means the implementation is wrong somewhere, never merely
that the bounds are small: a search shortfall reports `skipped`, its reason
naming the bound too small.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections import namedtuple
from functools import cached_property
from math import comb
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .games import (
    ZERO,
    GameId,
    NumberLiteral,
    add,
    birthday,
    conjugate,
    dyadic_game,
    followers,
    integer_game,
    intern,
    is_dead_ending,
    is_dead_left_end,
    is_dead_right_end,
    is_left_end,
    is_right_end,
    lambda_game,
    left_length,
    left_options,
    literal_count,
    number_literals,
    right_length,
    right_options,
    sort_games,
    star,
    within_budget,
)
from .notation import render
from .outcomes import (
    Outcome,
    dead_end_sum_outcome,
    normal_geq,
    number_sum_outcome,
    outcome_misere,
    outcome_misere_sum,
)
from .universes import (
    BudgetExceededError,
    ContextTable,
    Relation,
    Row,
    TestSet,
    _differ,
    _fails_geq,
    bounded_sums,
    compare_integers_mod_dead_end_closure,
    compare_numbers_mod_E,
    equiv_mod,
    gen_dead_end_closure,
    gen_dead_ending,
    gen_dead_ends,
    gen_number_closure,
    geq_mod,
    invert_check,
    quotient_monoid,
    reduce_end_to_integer,
    witness_contexts,
)


class NumberSums(NamedTuple):
    """The multisets of at most t literals of a numbers test set, read
    through a table over the shorter sums.

    `table`'s contexts start with the distinct sums of at most t - 1
    literals, in build order.  Each case, in build order, holds a multiset
    and the index i of its prefix's sum: the multiset without its last
    literal c (the empty multiset is its own prefix, with c = 0).  So g plus
    the case's sum is entry i of the row of g + c, `shifted(g)[literals[-1:]]`,
    and only the prefixes are built: a full sum only as a witness (`total`).
    """

    descriptor: str
    last: list[NumberLiteral]  # the literals that end a case: none at t = 0
    cases: list[tuple[tuple[NumberLiteral, ...], int]]
    table: ContextTable

    def shifted(self, g: GameId) -> dict[tuple[NumberLiteral, ...], GameId]:
        """g plus each last literal's game, keyed by the case's `literals[-1:]`."""
        return {(): g, **{(c,): add(g, dyadic_game(c)) for c in self.last}}

    def outcomes(self, games: Sequence[GameId]) -> list[dict[tuple, list[Outcome]]]:
        """Each game's shifted rows, solved together and decoded whole."""
        shifts = [self.shifted(g) for g in games]
        self.table.solve(s for shift in shifts for s in shift.values())
        return [{key: self.table.outcomes(s) for key, s in shift.items()} for shift in shifts]

    def total(self, literals: tuple[NumberLiteral, ...], i: int) -> GameId:
        """The sum of case (literals, i), built on request."""
        return add(self.table.contexts[i], dyadic_game(literals[-1]) if literals else ZERO)


class Bounds(namedtuple("Bounds", "birthday options terms exponent magnitude scan_birthday "
                        "struct_exponent seed", defaults=(3, 2, 3, 3, 2, 2, 6, 0))):
    """Scale knobs for the bounded checks, and the one owner of the pools
    that the claims draw from.

    birthday/options/terms govern end and closure generation; exponent and
    magnitude bound number literals; scan_birthday bounds the dead-ending
    context universe used for equivalence scans, which grows so much faster
    than the others that it gets its own knob.  struct_exponent bounds the
    purely arithmetic dyadic checks, which are nearly free.  Bounds are
    built by keyword; equal bounds compare and hash as tuples.  Each lists
    its pools once, on first use; a pool the member budget refuses keeps
    nothing, so it is refused again on each use.
    """

    def __new__(cls, **bounds: int) -> "Bounds":
        self = super().__new__(cls, **bounds)  # a TypeError on an unknown name
        for name, value in self._asdict().items():
            low = int(name == "options")  # every game generator takes an option
            if name != "seed" and value < low:
                raise ValueError(f"bound {name} must be >= {low}, got {value}")
        return self

    @classmethod
    def _make(cls, fields) -> "Bounds":  # so that `_replace` validates too
        return cls(**dict(zip(cls._fields, fields)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def to_dict(self) -> dict:
        return self._asdict()

    @cached_property
    def literals(self) -> list[NumberLiteral]:
        return number_literals(self.exponent, self.magnitude)

    @property
    def literal_pairs(self) -> Iterator[tuple[NumberLiteral, NumberLiteral]]:
        """The literals' n(n-1)/2 pairs, counted before the first is made."""
        n = len(self.literals)
        within_budget(f"literal pairs:j{self.exponent}:v{self.magnitude}", n * (n - 1) // 2)
        return itertools.combinations(self.literals, 2)

    @cached_property
    def struct_literals(self) -> list[NumberLiteral]:
        return number_literals(self.struct_exponent, self.magnitude)

    @cached_property
    def dead_ends(self) -> list[GameId]:
        return gen_dead_ends(self.birthday, self.options)

    @cached_property
    def number_sums(self) -> NumberSums:
        """The multisets of the numbers test set, refused on their count
        before a literal is listed; only their prefixes' sums are built."""
        terms = self.terms
        descriptor = f"numbers:j{self.exponent}:v{self.magnitude}:t{terms}"
        count = literal_count(self.exponent, self.magnitude)  # len(self.literals)
        within_budget(descriptor, comb(count + terms, terms))
        last = self.literals if terms else []
        prefixes = bounded_sums(descriptor, count, lambda: last, max(terms - 1, 0), dyadic_game)
        index: dict[GameId, int] = {}
        position = {combo: index.setdefault(s, len(index)) for combo, s in prefixes}
        cases = [
            (combo, position[combo[:-1]])
            for size in range(terms + 1)
            for combo in itertools.combinations_with_replacement(last, size)
        ]
        return NumberSums(descriptor, last, cases, ContextTable(tuple(index)))

    @cached_property
    def dead_ending_tests(self) -> TestSet:
        return gen_dead_ending(self.scan_birthday, self.options)

    @cached_property
    def closure_tests(self) -> TestSet:
        return gen_dead_end_closure(self.birthday, self.options, self.terms)

    @cached_property
    def ladder_pack(self) -> TestSet:
        size = max(8, 2 * (self.exponent + self.magnitude))
        return TestSet(f"ladders:r{size}:d{size}", tuple(witness_contexts(size, size)))


class ClaimReport(NamedTuple):
    claim: str
    status: str  # "pass" | "refuted" | "skipped"
    bounds: dict
    cases: int
    witnesses: list[dict]
    duration_ms: int
    details: dict

    def to_dict(self) -> dict:
        return self._asdict()

    def line(self) -> str:
        mark = {"pass": "PASS", "refuted": "FAIL", "skipped": "SKIP"}[self.status]
        return (
            f"{mark:4s} {self.claim:28s} cases={self.cases:<7d} "
            f"witnesses={len(self.witnesses):<3d} {self.duration_ms / 1000.0:.2f}s"
        )


def _witness(game: GameId, role: str, **extra) -> dict:
    record = {"game": render(game, depth=8), "role": role}
    record.update(extra)
    return record


class _Check:
    """One claim run's cases, failures (the claim is refuted) and shortfalls
    (a search came up empty within the bounds: skipped, unless refuted).

    `run` files a case, `refute` files the case that a context witness
    separates g from h, and `search` files a case settled by finding
    something."""

    def __init__(self):
        self.cases = 0
        self.failures: list[dict] = []
        self.witnesses: list[dict] = []
        self.details: dict = {}
        self.shortfalls: list[str] = []

    def run(
        self, ok: bool, game: Union[GameId, Callable[[], GameId]], role: str, **extra
    ) -> None:
        # the game, or an `extra`, given as a function is called on failure only
        self.cases += 1
        if not ok:
            extra = {k: v() if callable(v) else v for k, v in extra.items()}
            self.failures.append(_witness(game() if callable(game) else game, role, **extra))

    def refute(
        self,
        g: GameId,
        h: GameId,
        predicate: RowPredicate,
        bounds: Bounds,
        role: str,
        routes: Optional[dict[str, int]] = None,
        **extra,
    ) -> None:
        """A case that some context separates g from h by predicate: the
        witness `_context_witness` finds, re-checked by `_verify_refutation`.
        When a dict of routes is given, the witness's route is tallied in it."""
        hit = _context_witness(g, h, predicate, bounds)
        if hit is not None and routes is not None:
            routes[hit[1]] += 1
        ok = hit is not None and _verify_refutation(g, h, hit[0], predicate)
        self.run(ok, g, role, **extra)

    def search(self, found: bool, reason: str) -> None:
        """A case settled by finding something; `reason` names the bound first."""
        self.cases += 1
        if not found:
            self.shortfalls.append(reason)

    def report(self, claim: str, bounds: Bounds, started: float) -> ClaimReport:
        status = "refuted" if self.failures else "skipped" if self.shortfalls else "pass"
        if status == "skipped":
            self.details["reason"] = self.shortfalls[0]
        return ClaimReport(
            claim=claim,
            status=status,
            bounds=bounds.to_dict(),
            cases=self.cases,
            witnesses=self.failures or self.witnesses,
            duration_ms=int((time.monotonic() - started) * 1000),
            details=self.details,
        )


# ---------------------------------------------------------------------------
# witness search shared by the order and distinctness claims

# a row predicate of `universes`: `_fails_geq` or `_differ`
RowPredicate = Callable[[Row, Row], int]


def _context_witness(
    g: GameId, h: GameId, predicate: RowPredicate, bounds: Bounds
) -> Optional[tuple[GameId, str]]:
    """A dead-ending context X where predicate holds for g and h, and its route.

    Tries the bounds' scan pool, then their ladder contexts, then composites
    conj(h) + Y; the composite step mirrors the reduction of g >= h to
    g + conj(h) >= 0, valid whenever h has an inverse.  Composites are read
    as the rows of g + conj(h) and h + conj(h) against Y, so only the
    returned witness is built.  Every witness a claim counts in its favour is
    re-checked with `_verify_refutation` and the same predicate, by
    `_Check.refute` or by `thm:geq-implies-normal`, so the route taken never
    weakens the result.
    """
    pools = (bounds.dead_ending_tests, bounds.ladder_pack)
    for route, tests in zip(("scan", "ladder"), pools):
        i = tests.table.first(g, h, predicate)
        if i is not None:
            return tests.members[i], route
    h_conjugate = conjugate(h)
    g_shifted = add(g, h_conjugate)
    h_shifted = add(h, h_conjugate)
    for tests in pools:
        i = tests.table.first(g_shifted, h_shifted, predicate)
        if i is not None:
            return add(h_conjugate, tests.members[i]), "composite"
    return None


# an outcome as a row over one context: (Left wins moving first, Right does)
_ONE_CONTEXT_ROW = {Outcome.L: (1, 0), Outcome.R: (0, 1), Outcome.N: (1, 1), Outcome.P: (0, 0)}


def _verify_refutation(g: GameId, h: GameId, x: GameId, predicate: RowPredicate) -> bool:
    """Independent re-check of a witness x of `_context_witness`: x is
    dead-ending and the predicate holds on the pair search's outcomes of
    g + x and h + x, read as rows over the one context x."""
    if not is_dead_ending(x):
        return False
    a, b = (_ONE_CONTEXT_ROW[outcome_misere_sum(k, x)] for k in (g, h))
    return bool(predicate(a, b) & 1)


# ---------------------------------------------------------------------------
# claim checkers


def _claim_follower_closed(bounds: Bounds, check: _Check) -> None:
    for g in bounds.dead_ending_tests.members:
        for f in sort_games(followers(g)):
            ok = is_dead_ending(f)
            check.run(ok, f, "non-dead-ending follower", of=lambda: render(g))


def _claim_sum_closed(bounds: Bounds, check: _Check) -> None:
    members = bounds.dead_ending_tests.members
    for i, g in enumerate(members):
        for h in members[i:]:
            total = add(g, h)
            check.run(is_dead_ending(total), total, "non-dead-ending sum")


def _claim_dead_end_outcome(bounds: Bounds, check: _Check) -> None:
    for g in bounds.dead_ends:
        if g == ZERO:
            check.run(outcome_misere(g) == Outcome.N, g, "zero end not N")
            continue
        if is_dead_left_end(g):
            check.run(outcome_misere(g) == Outcome.L, g, "dead left end not L")
        if is_dead_right_end(g):
            check.run(outcome_misere(g) == Outcome.R, g, "dead right end not R")


def _claim_end_sum_outcome(bounds: Bounds, check: _Check) -> None:
    ends = bounds.dead_ends
    rights = [g for g in ends if is_dead_right_end(g)]
    lefts = [g for g in ends if is_dead_left_end(g)]
    for g in rights:
        for h in lefts:
            check.run(
                outcome_misere_sum(g, h) == dead_end_sum_outcome(g, h),
                add(g, h),
                "solver disagrees with length rule",
            )
    check.details["pairs"] = len(rights) * len(lefts)


def _claim_ends_invertible(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    left_ends = [x for x in tests.members if is_left_end(x)]
    for g in bounds.dead_ends:
        verdict = invert_check(g, tests)
        check.run(
            not verdict.witnesses,
            g,
            "end plus conjugate distinguished from zero",
            witness=render(verdict.witnesses[0]) if verdict.witnesses else None,
        )
        paired = add(g, conjugate(g))
        for x in left_ends:
            check.run(
                outcome_misere_sum(paired, x) in (Outcome.L, Outcome.N),
                x,
                "left-end context escapes L/N",
                around=lambda: render(g),
            )
    check.details["tests"] = tests.descriptor


def _claim_int_total_order(bounds: Bounds, check: _Check) -> None:
    tests = bounds.closure_tests
    span = range(-bounds.birthday, bounds.birthday + 1)
    for n, m in itertools.combinations(span, 2):  # n < m
        verdict = geq_mod(integer_game(n), integer_game(m), tests)
        check.run(
            not verdict.witnesses,
            integer_game(n),
            "smaller integer not >= larger over closure",
            pair=f"{n},{m}",
        )
        strict = equiv_mod(integer_game(n), integer_game(m), tests)
        check.search(
            bool(strict.witnesses),
            f"terms={bounds.terms} too small: {n} and {m} indistinguishable "
            f"over {tests.descriptor}",
        )
        if strict.witnesses:
            check.run(
                compare_integers_mod_dead_end_closure(n, m).relation is Relation.GREATER,
                integer_game(n),
                "closed form disagrees",
                pair=f"{n},{m}",
            )
    check.details["tests"] = tests.descriptor


def _claim_int_incomparable(bounds: Bounds, check: _Check) -> None:
    span = range(-bounds.birthday, bounds.birthday + 1)
    for n in span:
        for m in span:
            if n <= m:
                continue
            run = functools.partial(check.run, pair=f"{n},{m}")
            gn, gm = integer_game(n), integer_game(m)
            # conjugate witness refutes n >= m
            x = conjugate(gm)
            run(outcome_misere_sum(gn, x) == Outcome.R, x, "n + conj(m) not R")
            run(outcome_misere_sum(gm, x) == Outcome.N, x, "m + conj(m) not N")
            run(_verify_refutation(gn, gm, x, _fails_geq), x, "conjugate witness fails")
            # ladder witness refutes n <= m
            if m >= 0:
                witness = lambda_game(n)
                n_outcome = outcome_misere_sum(gn, witness)
                run(n_outcome == Outcome.L, witness, "n + ladder not L")
                m_outcome = outcome_misere_sum(gm, witness)
                run(m_outcome in (Outcome.P, Outcome.R), witness, "m + ladder not P/R")
            elif n - m - 1 >= 1:
                k = -m - 1
                witness = add(integer_game(k), lambda_game(n + k))
                n_outcome = outcome_misere_sum(gn, witness)
                run(n_outcome == Outcome.L, witness, "n + shifted ladder not L")
                m_outcome = outcome_misere_sum(gm, witness)
                run(m_outcome == Outcome.N, witness, "m + shifted ladder not N")
            else:
                # consecutive pair below zero: the conjugated ladder separates it
                witness = conjugate(lambda_game(-m))
            refuted = _verify_refutation(gm, gn, witness, _fails_geq)
            run(refuted, witness, "ladder witness fails to refute n <= m")


def _claim_end_to_integer(bounds: Bounds, check: _Check) -> None:
    tests = bounds.closure_tests
    for g in bounds.dead_ends:
        literal = reduce_end_to_integer(g)
        verdict = equiv_mod(g, dyadic_game(literal), tests)
        check.run(
            not verdict.witnesses,
            g,
            "end distinguished from its integer",
            integer=str(literal),
        )
    check.details["tests"] = tests.descriptor


def _expect_integer_monoid(
    check: _Check, gens: list[GameId], tests: TestSet, label_span: int, bound: str
) -> None:
    """The quotient of sums of two generators over the tests is the integers
    -label_span..label_span under addition, ordered in reverse."""
    report = quotient_monoid(gens, 2, tests)
    expected = list(range(-label_span, label_span + 1))
    labels = sorted(cls.label for cls in report.classes)
    # unseparated sums alone fail the bookkeeping, label and inverse checks
    merged = len(labels) < len(expected)
    check.run(report.consistent or merged, ZERO, "label bookkeeping inconsistent")
    if merged:
        check.search(False, f"{bound} too small: {report.descriptor} separates "
                     f"{len(labels)} of {len(expected)} classes")
    else:
        check.run(labels == expected, ZERO, "class labels not the expected range",
                  labels=str(labels))
    for (a, b), target in report.product.items():
        check.run(target == a + b, ZERO, "product is not label addition", pair=f"{a},{b}")
    for (a, b), verified in report.product_verified.items():
        check.run(verified, ZERO, "product entry failed equivalence check", pair=f"{a},{b}")
    for cls in report.classes:
        expected_outcome = (
            Outcome.N if cls.label == 0 else Outcome.L if cls.label < 0 else Outcome.R
        )
        check.run(
            cls.outcome == expected_outcome,
            cls.representative,
            "class outcome off the partition",
            label=cls.label,
        )
    check.run(report.identity_label == 0, ZERO, "identity class is not labeled 0")
    check.run(
        report.inverse_pairs == [(-k, k) for k in range(label_span, -1, -1)] or merged,
        ZERO,
        "inverse pairs incomplete",
    )
    for (a, b), relation in report.order.items():
        expected_rel = "geq-consistent" if a < b else "refuted"
        check.run(relation == expected_rel, ZERO, "order relation off", pair=f"{a},{b}")
    check.details["tests"] = tests.descriptor
    check.details["classes"] = len(report.classes)


def _claim_int_monoid(bounds: Bounds, check: _Check) -> None:
    span = min(bounds.magnitude, 2)
    gens = [integer_game(n) for n in range(-span, span + 1)]
    tests = gen_dead_end_closure(bounds.birthday, bounds.options, 2)
    _expect_integer_monoid(check, gens, tests, 2 * span, f"birthday={bounds.birthday}")


def _claim_number_monoid(bounds: Bounds, check: _Check) -> None:
    gens = [dyadic_game(lit) for lit in number_literals(2, 1, include_zero=True)]
    tests = gen_number_closure(2, 1, 2)
    _expect_integer_monoid(check, gens, tests, 4, "the fixed test set")


def _claim_dyadic_options(bounds: Bounds, check: _Check) -> None:
    tallies = {"1:rl": 0, "1:lr": 0, "3:rl": 0, "3:lr": 0}
    flips = 0
    for lit in bounds.struct_literals:
        if lit.is_integer:
            continue
        g = dyadic_game(lit)
        (gl,) = left_options(g)
        (gr,) = right_options(g)
        rl = left_options(gr)
        lr = right_options(gl)
        check.run(bool(rl) or bool(lr), g, "neither mixed option exists")
        rl_match = bool(rl) and rl[0] == gl
        lr_match = bool(lr) and lr[0] == gr
        check.run(rl_match or lr_match, g, "no mixed option equals the direct option")
        # residue of the positive mirror; 1 normally forces the RL identity and
        # 3 the LR identity, except that half-integers with an integer option
        # satisfy the other branch instead
        residue = abs(lit.numerator) % 4
        expected_rl = (lit.numerator > 0) == (residue == 1)
        if rl_match:
            tallies[f"{residue}:rl"] += 1
        if lr_match:
            tallies[f"{residue}:lr"] += 1
        if rl_match != expected_rl and not (rl_match and lr_match):
            flips += 1
            check.run(
                lit.exponent == 1,
                g,
                "branch flip outside the half-integer family",
                literal=str(lit),
            )
    check.details["branch_tallies"] = tallies
    check.details["half_integer_branch_flips"] = flips


def _claim_right_option_length(bounds: Bounds, check: _Check) -> None:
    for lit in bounds.struct_literals:
        if lit.is_integer:
            continue
        # a negative literal is checked through its positive conjugate, whose
        # right option is the conjugate of the literal's left option
        if lit.numerator > 0:
            positive, role = lit, "right option has longer left path"
        else:
            positive, role = lit.conjugated(), "left option has longer right path"
        right = positive.right_option()
        assert right is not None
        la, lr = positive.left_length(), right.left_length()
        assert la is not None and lr is not None
        check.run(lr <= la, dyadic_game(lit), role)
        # literal arithmetic must agree with tree search
        g = dyadic_game(lit)
        check.run(
            left_length(g) == lit.left_length() and right_length(g) == lit.right_length(),
            g,
            "literal lengths disagree with tree lengths",
        )


def _claim_number_sum_outcome(bounds: Bounds, check: _Check) -> None:
    sums = bounds.number_sums
    (alone,) = sums.outcomes([ZERO])  # each sum's own outcome
    for literals, i in sums.cases:
        check.run(
            alone[literals[-1:]][i] == number_sum_outcome(literals),
            lambda: sums.total(literals, i),
            "solver disagrees with length rule",
            terms=lambda: " + ".join(str(l) for l in literals) or "0",
        )


def _claim_number_collapses(bounds: Bounds, check: _Check) -> None:
    sums = bounds.number_sums
    # each literal's game, then its length integer's: the order that fixes ids
    pairs = [
        (lit, dyadic_game(lit), integer_game(lit.signed_length()))
        for lit in bounds.literals
    ]
    shifts = [(sums.shifted(g), sums.shifted(n)) for _, g, n in pairs]
    sums.table.solve(s for pair in shifts for shift in pair for s in shift.values())
    for (lit, g, _), (g_plus, n_plus) in zip(pairs, shifts):
        check.run(
            all(sums.table.first(g_plus[k], n_plus[k], _differ) is None for k in g_plus),
            g,
            "number distinguished from its length integer over numbers",
            literal=str(lit),
            integer=lit.signed_length(),
        )
    check.details["tests"] = sums.descriptor


def _claim_number_plus_end(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    left_ends = [x for x in tests.members if is_left_end(x)]
    sums = bounds.number_sums
    rows = sums.outcomes(left_ends)  # x plus every sum
    for literals, i in sums.cases:
        if number_sum_outcome(literals) != Outcome.L:  # the empty sum is N
            continue
        last = literals[-1:]
        for x, row in zip(left_ends, rows):
            check.run(
                row[last][i] == Outcome.L,
                x,
                "left end spoils a Left-won number sum",
                terms=lambda: " + ".join(str(l) for l in literals),
            )
    check.details["left_ends"] = len(left_ends)


def _inverse_positions(exponent: int, magnitude: int) -> int:
    """The positions of every g + conj(g) over the literals, at most (b + 1)**2
    for g of birthday b.  The integers +-n have birthday n, and at exponent
    e >= 1 the 2**e literals +-m / 2**e with |m| >> e = q have q + e + 1."""
    return 2 * sum(n * n for n in range(2, magnitude + 2)) + sum(
        (1 << e) * (q + e + 2) ** 2 for e in range(1, exponent + 1) for q in range(magnitude)
    )


def _claim_numbers_invertible(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    literals = bounds.literals  # refused first, on their own count
    positions = _inverse_positions(bounds.exponent, bounds.magnitude)
    within_budget(f"inverse sums:j{bounds.exponent}:v{bounds.magnitude}", positions)
    for lit in literals:
        verdict = invert_check(dyadic_game(lit), tests)
        check.run(
            not verdict.witnesses,
            dyadic_game(lit),
            "number plus conjugate distinguished from zero",
            literal=str(lit),
        )
    check.details["tests"] = tests.descriptor


def _claim_geq_implies_normal(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    literals = bounds.literals
    size = len(literals) + min(4 * len(literals), len(tests))  # the pool, at most
    within_budget(f"pool pairs:j{bounds.exponent}:v{bounds.magnitude}", size * (size - 1))
    rng = random.Random(bounds.seed)
    pool = [dyadic_game(lit) for lit in literals]
    pool += list(tests.members[: 4 * len(pool)])
    pool = sort_games(set(pool))
    pairs = [
        (g, h) for g in pool for h in pool if g != h and not normal_geq(g, h)
    ]
    rng.shuffle(pairs)
    sample = pairs[:60]
    for g, h in sample:
        hit = _context_witness(g, h, _fails_geq, bounds)
        check.cases += 1
        if hit is None:
            check.witnesses.append(_witness(g, "witness beyond bound", against=render(h)))
        elif not _verify_refutation(g, h, hit[0], _fails_geq):
            check.failures.append(_witness(hit[0], "witness fails re-check"))
    beyond = len(check.witnesses)
    found = len(sample) - beyond
    check.details.update(
        {
            "sampled_pairs": len(sample),
            "witness_found": found,
            "witness_beyond_bound": beyond,
            "coverage": round(found / len(sample), 3) if sample else 1.0,
        }
    )


def _claim_numbers_distinct(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    routes = {"scan": 0, "ladder": 0, "composite": 0}
    for a, b in bounds.literal_pairs:
        ga, gb = dyadic_game(a), dyadic_game(b)
        role = "no distinguishing context found"
        check.refute(ga, gb, _differ, bounds, role, routes, pair=f"{a},{b}")
    check.details["routes"] = routes
    check.details["tests"] = tests.descriptor


def _claim_simplicity_length(bounds: Bounds, check: _Check) -> None:
    literals = [lit for lit in bounds.struct_literals if lit.numerator > 0]
    values = [lit.scaled(bounds.struct_exponent) for lit in literals]
    for a, a_value in zip(literals, values):
        a_left = a.left_option()
        if a_left is None:
            continue
        low, la = a_left.scaled(bounds.struct_exponent), a_left.left_length()
        for b, b_value in zip(literals, values):
            if low < b_value < a_value:
                lb = b.left_length()
                assert la is not None and lb is not None
                check.run(
                    la < lb,
                    dyadic_game(b),
                    "option length not below inner number length",
                    pair=lambda: f"{a},{b}",
                )


def _claim_number_order(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    routes = {"scan": 0, "ladder": 0, "composite": 0}
    greater_checked = 0
    incomparable_checked = 0
    for a, b in bounds.literal_pairs:
        relation = compare_numbers_mod_E(a, b).relation
        ga, gb = dyadic_game(a), dyadic_game(b)
        if relation in (Relation.GREATER, Relation.LESS):
            hi, lo = (ga, gb) if relation is Relation.GREATER else (gb, ga)
            greater_checked += 1
            stray = _context_witness(hi, lo, _fails_geq, bounds)
            check.run(
                stray is None,
                hi,
                "closed-form greater direction refuted",
                pair=f"{a},{b}",
            )
            role = "strictness witness missing"
            check.refute(lo, hi, _fails_geq, bounds, role, pair=f"{a},{b}")
        elif relation is Relation.INCOMPARABLE:
            incomparable_checked += 1
            for x, y in ((a, b), (b, a)):
                gx, gy = dyadic_game(x), dyadic_game(y)
                role = "incomparable direction lacks a witness"
                check.refute(gx, gy, _fails_geq, bounds, role, routes, pair=f"{x},{y}")
    check.details.update(
        {
            "tests": tests.descriptor,
            "greater_pairs": greater_checked,
            "incomparable_pairs": incomparable_checked,
            "routes": routes,
        }
    )


def _claim_non_invertible_family(bounds: Bounds, check: _Check) -> None:
    values = range(0, bounds.birthday + 1)
    for size in range(1, bounds.options + 1):
        for naturals in itertools.combinations(values, size):
            members = tuple(integer_game(n) for n in naturals)
            mirrored = tuple(conjugate(g) for g in members)
            g = intern(members, mirrored)
            x = intern(members, ())
            check.run(conjugate(g) == g, g, "family member not self-conjugate")
            check.run(outcome_misere(x) == Outcome.R, x, "witness end not R")
            total = add(add(g, g), x)
            check.run(
                outcome_misere(total) in (Outcome.L, Outcome.P),
                total,
                "Left cannot win the doubled sum second",
                family=str(naturals),
            )
            check.run(
                outcome_misere(total) != outcome_misere(x),
                x,
                "witness fails to distinguish doubled game from zero",
                family=str(naturals),
            )


def _zero_family_hypothesis(g: GameId) -> bool:
    """Dead-ending, each g^L a left end with a Right move to 0, and mirrored."""
    sides = (left_options, right_options)
    return is_dead_ending(g) and all(
        not sides[s](o) and ZERO in sides[1 - s](o) for s in (0, 1) for o in sides[s](g)
    )


def _claim_zero_family(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    candidates = set(tests.members)
    ends = bounds.dead_ends
    left_sources = [g for g in ends if is_left_end(g) and ZERO in right_options(g)]
    right_sources = [g for g in ends if is_right_end(g) and ZERO in left_options(g)]
    for lsize in range(bounds.options + 1):
        for rsize in range(bounds.options + 1):
            for lsub in itertools.combinations(left_sources, lsize):
                for rsub in itertools.combinations(right_sources, rsize):
                    candidates.add(intern(lsub, rsub))
    matched = [g for g in sort_games(candidates) if _zero_family_hypothesis(g)]
    swap = intern((integer_game(-1),), (integer_game(1),))
    check.run(swap in matched, swap, "the basic swap game escaped the family")
    for g in matched:
        verdict = equiv_mod(g, ZERO, tests)
        check.run(
            not verdict.witnesses,
            g,
            "family member distinguished from zero",
        )
    check.details["family_size"] = len(matched)
    check.details["tests"] = tests.descriptor


def _claim_star_squared(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    verdict = invert_check(star(), tests)
    found = bool(verdict.witnesses)
    check.search(found, f"scan_birthday={bounds.scan_birthday} too small: "
                 f"no witness in {tests.descriptor}")
    if found:
        first, second = verdict.outcomes
        check.witnesses.append(
            _witness(
                verdict.witnesses[0],
                "separates star + star from zero",
                outcomes=f"{first.value} vs {second.value}",
            )
        )
    check.details["tests"] = tests.descriptor


_REGISTRY: dict[str, Callable[[Bounds, _Check], None]] = {
    "lemma:follower-closed": _claim_follower_closed,
    "lemma:sum-closed": _claim_sum_closed,
    "lemma:dead-end-outcome": _claim_dead_end_outcome,
    "lemma:end-sum-outcome": _claim_end_sum_outcome,
    "thm:ends-invertible": _claim_ends_invertible,
    "thm:int-total-order": _claim_int_total_order,
    "thm:int-incomparable": _claim_int_incomparable,
    "lemma:end-to-integer": _claim_end_to_integer,
    "thm:int-monoid": _claim_int_monoid,
    "prop:dyadic-options": _claim_dyadic_options,
    "lemma:right-option-length": _claim_right_option_length,
    "lemma:number-sum-outcome": _claim_number_sum_outcome,
    "cor:number-collapses": _claim_number_collapses,
    "thm:number-monoid": _claim_number_monoid,
    "lemma:number-plus-end": _claim_number_plus_end,
    "thm:numbers-invertible": _claim_numbers_invertible,
    "thm:geq-implies-normal": _claim_geq_implies_normal,
    "cor:numbers-distinct": _claim_numbers_distinct,
    "lemma:simplicity-length": _claim_simplicity_length,
    "thm:number-order": _claim_number_order,
    "lemma:non-invertible-family": _claim_non_invertible_family,
    "thm:zero-family": _claim_zero_family,
    "fact:star-squared": _claim_star_squared,
}


def claim_ids() -> list[str]:
    return list(_REGISTRY)


def run_claim(claim: str, bounds: Optional[Bounds] = None) -> ClaimReport:
    """Run one registered claim checker; unknown ids raise ValueError."""
    checker = _REGISTRY.get(claim)
    if checker is None:
        raise ValueError(f"unknown claim id {claim!r}")
    bounds = bounds or Bounds()
    started = time.monotonic()
    check = _Check()
    try:
        checker(bounds, check)
    except BudgetExceededError as err:  # a test set too large to build
        check.shortfalls.append(str(err))
    return check.report(claim, bounds, started)


def run_all(
    bounds: Optional[Bounds] = None, budget_seconds: Optional[float] = None
) -> list[ClaimReport]:
    """Run every registered claim, skipping the rest once the budget is spent."""
    bounds = bounds or Bounds()
    reports = []
    started = time.monotonic()
    for claim in _REGISTRY:
        if budget_seconds is not None and time.monotonic() - started >= budget_seconds:
            check = _Check()
            check.shortfalls.append("wall-clock budget exhausted")
            reports.append(check.report(claim, bounds, time.monotonic()))
        else:
            reports.append(run_claim(claim, bounds))
    return reports
