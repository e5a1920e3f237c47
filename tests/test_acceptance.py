"""Acceptance suite: one check per shipping criterion, each timed and printed.

Every quantity here is discrete, so each check is exact (tolerance zero)
within its declared bounds.  The full dead-ending universe at birthday 3 and
width 2 has 33,385,305 members, so scans that must visit every context use
the exhaustive 107-member birthday-2 universe plus a deterministic
2,000-member birthday-3 slice and the ladder context pack; no-witness
results over those pools are the strongest feasible bounded statements, and
every found witness is re-verified directly.
"""

import json
import random
import time

from deadending import (
    NumberLiteral,
    Outcome,
    add,
    birthday,
    conjugate,
    dyadic_game,
    integer_game,
    intern,
    is_dead_ending,
    lambda_game,
    number_literals,
    outcome_geq,
    outcome_misere,
    star,
)
from deadending.claims import Bounds, claim_ids, run_all, run_claim
from deadending.notation import parse_game, render
from deadending.universes import gen_dead_ending, gen_dead_ends

from test_cli import GOLDEN, GOLDEN_CASES, run_cli, scrub
from test_games import recursive_max_branching


def finish(number, started, limit, summary):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s < {limit}s): {summary}")


def test_criterion_01_dead_end_sum_closed_form():
    started = time.monotonic()
    report = run_claim("lemma:end-sum-outcome", Bounds(birthday=4))
    assert report.status == "pass" and not report.witnesses
    assert report.details["pairs"] == 4489  # 67 x 67 ends within birthday 4
    finish(1, started, 60, "solver matches the length rule on all 4489 end pairs (b4)")


def test_criterion_02_number_sum_closed_form():
    started = time.monotonic()
    report = run_claim("lemma:number-sum-outcome", Bounds(terms=4))
    assert report.status == "pass" and not report.witnesses
    assert report.cases == 58905  # multisets of <= 4 of the 32 literals
    half = dyadic_game(NumberLiteral(1, 1))
    three_q = dyadic_game(NumberLiteral(3, 2))
    assert outcome_misere(add(half, conjugate(half))) == Outcome.N
    assert outcome_misere(add(three_q, conjugate(half))) == Outcome.R
    finish(2, started, 120, "solver matches the length rule on all 58905 number sums")


def test_criterion_03_invertibility():
    started = time.monotonic()
    ends_report = run_claim("thm:ends-invertible", Bounds())
    numbers_report = run_claim("thm:numbers-invertible", Bounds())
    assert ends_report.status == "pass" and not ends_report.witnesses
    assert numbers_report.status == "pass" and not numbers_report.witnesses
    # deeper slice of the birthday-3 universe: still zero witnesses
    sliced = gen_dead_ending(3, 2, cap=2000)
    targets = list(gen_dead_ends(3, 2)) + [
        dyadic_game(lit) for lit in number_literals(3, 2)
    ]
    assert len(targets) == 53
    for g in targets:
        paired = add(g, conjugate(g))
        for x in sliced.members:
            assert outcome_misere(add(paired, x)) == outcome_misere(x)
    finish(
        3,
        started,
        300,
        "53 ends and numbers invert to zero over b2 in full and a 2000-member b3 slice",
    )


def test_criterion_04_integer_order_dichotomy():
    started = time.monotonic()
    total = run_claim("thm:int-total-order", Bounds())
    assert total.status == "pass"
    incomparable = run_claim("thm:int-incomparable", Bounds())
    assert incomparable.status == "pass"
    # ladders matched to the integer separate it upward
    for n in range(1, 4):
        assert outcome_misere(add(integer_game(n), lambda_game(n))) == Outcome.L
    finish(
        4,
        started,
        120,
        "integers totally ordered over the closure, pairwise incomparable with ladder witnesses",
    )


def test_criterion_05_monoid_reproduction():
    started = time.monotonic()
    ints = run_claim("thm:int-monoid", Bounds())
    nums = run_claim("thm:number-monoid", Bounds())
    assert ints.status == "pass" and nums.status == "pass"
    assert ints.details["classes"] == 9 == nums.details["classes"]
    finish(
        5,
        started,
        300,
        "integer and dyadic quotients both give the 9 classes -4..4 with label addition",
    )


def test_criterion_06_number_partial_order():
    started = time.monotonic()
    report = run_claim("thm:number-order", Bounds())
    assert report.status == "pass" and not report.witnesses
    assert report.details["incomparable_pairs"] == 402
    assert report.details["greater_pairs"] == 94
    # the flagship pair is separated in both directions
    half = dyadic_game(NumberLiteral(1, 1))
    three_q = dyadic_game(NumberLiteral(3, 2))
    down = conjugate(half)  # o-(3/4 + -1/2) = R while o-(1/2 + -1/2) = N
    assert not outcome_geq(
        outcome_misere(add(three_q, down)), outcome_misere(add(half, down))
    )
    up = next(
        x
        for x in gen_dead_ending(3, 2, cap=2000).members
        if not outcome_geq(
            outcome_misere(add(half, x)), outcome_misere(add(three_q, x))
        )
    )
    assert is_dead_ending(up) and birthday(up) <= 3
    finish(
        6,
        started,
        300,
        "closed-form order certified: 94 greater pairs unrefuted, 402 incomparable pairs witnessed both ways",
    )


def test_criterion_07_zero_like_games():
    started = time.monotonic()
    family = run_claim("lemma:non-invertible-family", Bounds())
    assert family.status == "pass"
    switch = intern((integer_game(1),), (integer_game(-1),))
    double = add(switch, conjugate(switch))
    one_end = integer_game(2)  # the one-rung right end {1 | .}
    assert outcome_misere(add(double, one_end)) != outcome_misere(one_end)

    star_report = run_claim("fact:star-squared", Bounds())
    assert star_report.status == "pass" and star_report.witnesses
    witness = parse_game(star_report.witnesses[0]["game"])
    assert is_dead_ending(witness)
    assert birthday(witness) <= 3 and recursive_max_branching(witness) <= 2
    doubled_star = add(star(), star())
    assert outcome_misere(add(doubled_star, witness)) != outcome_misere(witness)

    zero_family = run_claim("thm:zero-family", Bounds())
    assert zero_family.status == "pass"
    assert zero_family.details["family_size"] >= 2  # zero itself and the swap
    swap = intern((integer_game(-1),), (integer_game(1),))
    sliced = gen_dead_ending(3, 2, cap=2000)
    for x in sliced.members:
        assert outcome_misere(add(swap, x)) == outcome_misere(x)
    finish(
        7,
        started,
        120,
        "doubled switch and doubled star both distinguished from zero; swap family vanishes",
    )


def test_criterion_08_structural_lemmas():
    started = time.monotonic()
    arithmetic_start = time.monotonic()
    options_report = run_claim("prop:dyadic-options", Bounds())
    lengths_report = run_claim("lemma:right-option-length", Bounds())
    arithmetic_elapsed = time.monotonic() - arithmetic_start
    assert options_report.status == "pass" and lengths_report.status == "pass"
    assert arithmetic_elapsed < 1.0
    followers_report = run_claim("lemma:follower-closed", Bounds())
    sums_report = run_claim("lemma:sum-closed", Bounds())
    assert followers_report.status == "pass" and sums_report.status == "pass"
    assert sums_report.cases == 5778  # all unordered pairs over the 107 members
    finish(
        8,
        started,
        60,
        "option identities and length bounds exact to j=6; closure under followers and sums",
    )


def test_criterion_09_parser_round_trip():
    started = time.monotonic()
    rng = random.Random(20260810)

    def random_shape(depth):
        if depth == 0:
            return ((), ())
        width = lambda: rng.randint(0, 2)
        return (
            tuple(random_shape(rng.randint(0, depth - 1)) for _ in range(width())),
            tuple(random_shape(rng.randint(0, depth - 1)) for _ in range(width())),
        )

    def build(shape):
        left, right = shape
        return intern(tuple(build(s) for s in left), tuple(build(s) for s in right))

    games = [build(random_shape(4)) for _ in range(1000)]
    games += [integer_game(n) for n in range(-6, 7)]
    games += [dyadic_game(lit) for lit in number_literals(4, 3)]
    games += [lambda_game(k) for k in range(1, 7)] + [star()]
    for g in games:
        assert parse_game(render(g, depth=birthday(g) + 1)) == g

    for name, argv in GOLDEN_CASES.items():
        code, out, _ = run_cli(argv)
        data = scrub(json.loads(out))
        data["_exit_code"] = code
        assert data == json.loads((GOLDEN / name).read_text()), name
    finish(
        9,
        started,
        10,
        f"{len(games)} games render/parse exactly; {len(GOLDEN_CASES)} golden envelopes stable",
    )


def test_criterion_10_full_verification_suite():
    started = time.monotonic()
    reports = run_all(Bounds(), budget_seconds=870)
    assert len(reports) == len(claim_ids()) == 23
    failing = [r.claim for r in reports if r.status != "pass"]
    assert not failing, failing
    finish(10, started, 900, "verify all: 23 claims pass under default bounds")
