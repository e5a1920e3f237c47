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
from typing import Callable, NamedTuple, Optional

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
    outcome_geq,
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
    compare_integers_mod_dead_end_closure,
    compare_numbers_mod_E,
    equiv_mod,
    gen_dead_end_closure,
    gen_dead_ending,
    gen_dead_ends,
    gen_number_closure,
    geq_mod,
    invert_check,
    number_multisets,
    quotient_monoid,
    reduce_end_to_integer,
    witness_contexts,
)


class NumberSums(NamedTuple):
    """The multisets of a numbers test set's literals, in build order, each
    with the index of its sum in `table`, whose contexts start with the
    distinct sums in the order they were first built."""

    descriptor: str
    cases: list[tuple[tuple[NumberLiteral, ...], int]]
    table: ContextTable


class Bounds(namedtuple("Bounds", "birthday options terms exponent magnitude scan_birthday "
                        "struct_exponent seed", defaults=(3, 2, 3, 3, 2, 2, 6, 0))):
    """Scale knobs for the bounded checks.

    birthday/options/terms govern end and closure generation; exponent and
    magnitude bound number literals; scan_birthday bounds the dead-ending
    context universe used for equivalence scans, which grows so much faster
    than the others that it gets its own knob.  struct_exponent bounds the
    purely arithmetic dyadic checks, which are nearly free.  Bounds are
    built by keyword; equal bounds compare and hash as tuples, and each
    keeps its own test sets and number sums.
    """

    def __new__(cls, **bounds: int) -> "Bounds":
        self = super().__new__(cls, **bounds)  # a TypeError on an unknown name
        for name, value in self._asdict().items():
            if name != "seed" and value < 0:
                raise ValueError(f"bound {name} must be >= 0, got {value}")
        return self

    @classmethod
    def _make(cls, fields) -> "Bounds":  # so that `_replace` validates too
        return cls(**dict(zip(cls._fields, fields)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def to_dict(self) -> dict:
        return self._asdict()

    # built once per Bounds, so that the claims share their context tables
    @cached_property
    def number_sums(self) -> NumberSums:
        descriptor, sums = number_multisets(self.exponent, self.magnitude, self.terms)
        index: dict[GameId, int] = {}
        cases = [(literals, index.setdefault(s, len(index))) for literals, s in sums]
        return NumberSums(descriptor, cases, ContextTable(tuple(index)))

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
    (a search came up empty within the bounds: skipped, unless refuted)."""

    def __init__(self):
        self.cases = 0
        self.failures: list[dict] = []
        self.witnesses: list[dict] = []
        self.details: dict = {}
        self.shortfalls: list[str] = []

    def run(self, ok: bool, game: GameId, role: str, **extra) -> None:
        # an `extra` given as a function is called on failure only
        self.cases += 1
        if not ok:
            extra = {k: v() if callable(v) else v for k, v in extra.items()}
            self.failures.append(_witness(game, role, **extra))

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


def _context_witness(
    g: GameId,
    h: GameId,
    predicate: Callable[[Row, Row], int],
    scan: TestSet,
    pack: TestSet,
) -> Optional[tuple[GameId, str]]:
    """A dead-ending context X where predicate holds for g and h, and its route.

    The predicate is a row predicate of `universes` (`_fails_geq` or
    `_differ`).  Tries the scan pool, then ladder contexts, then composites
    conj(h) + Y; the composite step mirrors the reduction of g >= h to
    g + conj(h) >= 0, valid whenever h has an inverse.  Composites are read
    as the rows of g + conj(h) and h + conj(h) against Y, so only the
    returned witness is built.  Every returned witness is re-verified
    directly by the caller, so the route taken never weakens the result.
    """
    for route, tests in (("scan", scan), ("ladder", pack)):
        i = tests.table.first(g, h, predicate)
        if i is not None:
            return tests.members[i], route
    h_conjugate = conjugate(h)
    g_shifted = add(g, h_conjugate)
    h_shifted = add(h, h_conjugate)
    for tests in (scan, pack):
        i = tests.table.first(g_shifted, h_shifted, predicate)
        if i is not None:
            return add(h_conjugate, tests.members[i]), "composite"
    return None


def _paired_literals(bounds: Bounds) -> list[NumberLiteral]:
    """The bounds' literals, refused when their n(n-1)/2 pairs exceed the
    member budget: a pair loop over them is counted before it starts."""
    literals = number_literals(bounds.exponent, bounds.magnitude)
    n = len(literals)
    within_budget(f"literal pairs:j{bounds.exponent}:v{bounds.magnitude}", n * (n - 1) // 2)
    return literals


def _verify_refutation(g: GameId, h: GameId, x: GameId) -> bool:
    """Independent re-check of a refutation of g >= h by the pair search."""
    return is_dead_ending(x) and not outcome_geq(
        outcome_misere_sum(g, x), outcome_misere_sum(h, x)
    )


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
    for g in gen_dead_ends(bounds.birthday, bounds.options):
        if g == ZERO:
            check.run(outcome_misere(g) == Outcome.N, g, "zero end not N")
            continue
        if is_dead_left_end(g):
            check.run(outcome_misere(g) == Outcome.L, g, "dead left end not L")
        if is_dead_right_end(g):
            check.run(outcome_misere(g) == Outcome.R, g, "dead right end not R")


def _claim_end_sum_outcome(bounds: Bounds, check: _Check) -> None:
    ends = gen_dead_ends(bounds.birthday, bounds.options)
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
    for g in gen_dead_ends(bounds.birthday, bounds.options):
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
    for n in span:
        for m in span:
            if n >= m:
                continue
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
            run(_verify_refutation(gn, gm, x), x, "conjugate witness fails")
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
            refuted = _verify_refutation(gm, gn, witness)
            run(refuted, witness, "ladder witness fails to refute n <= m")


def _claim_end_to_integer(bounds: Bounds, check: _Check) -> None:
    tests = bounds.closure_tests
    for g in gen_dead_ends(bounds.birthday, bounds.options):
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
    for lit in number_literals(bounds.struct_exponent, bounds.magnitude):
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
    for lit in number_literals(bounds.struct_exponent, bounds.magnitude):
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
    alone = sums.table.outcomes(ZERO)  # zero's row: each sum's own outcome
    for literals, i in sums.cases:
        check.run(
            alone[i] == number_sum_outcome(literals),
            sums.table.contexts[i],
            "solver disagrees with length rule",
            terms=lambda: " + ".join(str(l) for l in literals) or "0",
        )


def _claim_number_collapses(bounds: Bounds, check: _Check) -> None:
    sums = bounds.number_sums
    # each literal's game, then its length integer's: the order that fixes ids
    pairs = [
        (lit, dyadic_game(lit), integer_game(lit.signed_length()))
        for lit in number_literals(bounds.exponent, bounds.magnitude)
    ]
    sums.table.solve(game for _, g, n in pairs for game in (g, n))
    for lit, g, n in pairs:
        check.run(
            sums.table.first(g, n, _differ) is None,
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
    sums.table.solve(left_ends)
    rows = [sums.table.outcomes(x) for x in left_ends]  # x plus every sum
    for literals, i in sums.cases:
        if number_sum_outcome(literals) != Outcome.L:  # the empty sum is N
            continue
        for x, row in zip(left_ends, rows):
            check.run(
                row[i] == Outcome.L,
                x,
                "left end spoils a Left-won number sum",
                terms=lambda: " + ".join(str(l) for l in literals),
            )
    check.details["left_ends"] = len(left_ends)


def _literal_birthday(lit: NumberLiteral) -> int:
    """Birthday of the canonical number: |n| for an integer n, and
    floor(|m| / 2^j) + j + 1 for m / 2^j with j >= 1."""
    magnitude = abs(lit.numerator)
    return magnitude if lit.is_integer else (magnitude >> lit.exponent) + lit.exponent + 1


def _claim_numbers_invertible(bounds: Bounds, check: _Check) -> None:
    tests = bounds.dead_ending_tests
    literals = number_literals(bounds.exponent, bounds.magnitude)
    # a number of birthday b has at most b + 1 positions, so g + conj(g) has
    # at most (b + 1)**2: counted before any sum is built
    positions = sum((_literal_birthday(lit) + 1) ** 2 for lit in literals)
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
    literals = number_literals(bounds.exponent, bounds.magnitude)  # before the pack
    size = len(literals) + min(4 * len(literals), len(tests))  # the pool, at most
    within_budget(f"pool pairs:j{bounds.exponent}:v{bounds.magnitude}", size * (size - 1))
    pack = bounds.ladder_pack
    rng = random.Random(bounds.seed)
    pool = [dyadic_game(lit) for lit in literals]
    pool += list(tests.members[: 4 * len(pool)])
    pool = sort_games(set(pool))
    pairs = [
        (g, h) for g in pool for h in pool if g != h and not normal_geq(g, h)
    ]
    rng.shuffle(pairs)
    sample = pairs[:60]
    found = 0
    beyond = 0
    for g, h in sample:
        hit = _context_witness(g, h, _fails_geq, tests, pack)
        check.cases += 1
        if hit is not None:
            witness, route = hit
            if not _verify_refutation(g, h, witness):
                check.failures.append(_witness(witness, "witness fails re-check"))
            found += 1
        else:
            beyond += 1
            check.witnesses.append(
                _witness(g, "witness beyond bound", against=render(h))
            )
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
    literals = _paired_literals(bounds)  # before the pack
    pack = bounds.ladder_pack
    routes = {"scan": 0, "ladder": 0, "composite": 0}
    for i, a in enumerate(literals):
        for b in literals[i + 1 :]:
            ga, gb = dyadic_game(a), dyadic_game(b)
            hit = _context_witness(ga, gb, _differ, tests, pack)
            ok = hit is not None
            if ok:
                witness, route = hit
                routes[route] += 1
                ok = is_dead_ending(witness) and outcome_misere_sum(
                    ga, witness
                ) != outcome_misere_sum(gb, witness)
            check.run(ok, ga, "no distinguishing context found", pair=f"{a},{b}")
    check.details["routes"] = routes
    check.details["tests"] = tests.descriptor


def _claim_simplicity_length(bounds: Bounds, check: _Check) -> None:
    literals = [
        lit
        for lit in number_literals(bounds.struct_exponent, bounds.magnitude)
        if lit.numerator > 0
    ]
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
    literals = _paired_literals(bounds)  # before the pack
    pack = bounds.ladder_pack
    routes = {"scan": 0, "ladder": 0, "composite": 0}
    greater_checked = 0
    incomparable_checked = 0
    for i, a in enumerate(literals):
        for b in literals[i + 1 :]:
            relation = compare_numbers_mod_E(a, b).relation
            ga, gb = dyadic_game(a), dyadic_game(b)
            if relation in (Relation.GREATER, Relation.LESS):
                hi, lo = (ga, gb) if relation is Relation.GREATER else (gb, ga)
                greater_checked += 1
                stray = _context_witness(hi, lo, _fails_geq, tests, pack)
                check.run(
                    stray is None,
                    hi,
                    "closed-form greater direction refuted",
                    pair=f"{a},{b}",
                )
                strict = _context_witness(lo, hi, _fails_geq, tests, pack)
                ok = strict is not None and _verify_refutation(lo, hi, strict[0])
                check.run(ok, lo, "strictness witness missing", pair=f"{a},{b}")
            elif relation is Relation.INCOMPARABLE:
                incomparable_checked += 1
                for x, y in ((a, b), (b, a)):
                    gx, gy = dyadic_game(x), dyadic_game(y)
                    hit = _context_witness(gx, gy, _fails_geq, tests, pack)
                    ok = hit is not None and _verify_refutation(gx, gy, hit[0])
                    if hit is not None:
                        routes[hit[1]] += 1
                    check.run(
                        ok,
                        gx,
                        "incomparable direction lacks a witness",
                        pair=f"{x},{y}",
                    )
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
    ends = gen_dead_ends(bounds.birthday, bounds.options)
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
