"""The claim registry: every checker runs, passes, and reports faithfully."""

import itertools
import json
from fractions import Fraction
from math import comb

import pytest

from deadending import (
    ZERO,
    NumberLiteral,
    Outcome,
    add,
    add_all,
    birthday,
    conjugate,
    dyadic_game,
    is_left_end,
    number_literals,
    outcome_geq,
    outcome_misere,
    outcome_misere_sum,
)
from deadending import claims
from deadending.claims import (
    Bounds,
    ClaimReport,
    _Check,
    _context_witness,
    _fails_geq,
    _verify_refutation,
    claim_ids,
    run_all,
    run_claim,
)
from deadending.games import followers, store_size
from deadending.universes import (
    DEFAULT_MEMBER_BUDGET,
    BudgetExceededError,
    ContextTable,
    gen_dead_ending,
)

# small enough to keep this module fast; the acceptance suite runs the
# defaults
SMALL = Bounds(
    birthday=2,
    options=2,
    terms=2,
    exponent=2,
    magnitude=1,
    scan_birthday=2,
    struct_exponent=4,
)


def test_registry_has_the_full_claim_set():
    ids = claim_ids()
    assert len(ids) == 23
    assert "lemma:follower-closed" in ids
    assert "thm:int-monoid" in ids
    assert "fact:star-squared" in ids


def test_every_claim_checker_is_registered():
    checkers = {
        value for name, value in vars(claims).items()
        if name.startswith("_claim_") and callable(value)
    }
    assert checkers == set(claims._REGISTRY.values())


def test_composite_witness_is_conjugate_plus_context():
    # -2 >= 3/8 has no refuting context among the scan and ladder pools; the
    # composite route must return conj(3/8) + Y for the first Y that the
    # built-sum route finds
    g, h = dyadic_game(-2), dyadic_game(Fraction(3, 8))
    scan = gen_dead_ending(2, 2)
    pack = Bounds().ladder_pack
    witness, route = _context_witness(g, h, _fails_geq, scan, pack)
    assert route == "composite"
    first = next(
        y
        for y in itertools.chain(scan, pack)
        if not outcome_geq(
            outcome_misere(add(g, add(conjugate(h), y))),
            outcome_misere(add(h, add(conjugate(h), y))),
        )
    )
    assert witness == add(conjugate(h), first)
    assert _verify_refutation(g, h, witness)


def test_bounds_build_scan_test_sets_once():
    bounds = Bounds(scan_birthday=1)
    assert bounds.dead_ending_tests is bounds.dead_ending_tests
    assert bounds.ladder_pack is bounds.ladder_pack
    twin = Bounds(scan_birthday=1)
    assert twin.dead_ending_tests is not bounds.dead_ending_tests
    assert twin == bounds and hash(twin) == hash(bounds)
    assert bounds.to_dict() == {
        "birthday": 3,
        "options": 2,
        "terms": 3,
        "exponent": 3,
        "magnitude": 2,
        "scan_birthday": 1,
        "struct_exponent": 6,
        "seed": 0,
    }


def test_bounds_are_frozen_records():
    bounds = Bounds(terms=1, seed=4)
    assert bounds == Bounds(seed=4, terms=1) != Bounds(terms=1)
    assert bounds != Bounds(**dict(bounds.to_dict(), seed=5))
    assert repr(bounds) == (
        "Bounds(birthday=3, options=2, terms=1, exponent=3, magnitude=2, "
        "scan_birthday=2, struct_exponent=6, seed=4)"
    )
    with pytest.raises(AttributeError):
        bounds.terms = 2
    with pytest.raises(TypeError):
        Bounds(width=2)
    with pytest.raises(ValueError):
        Bounds(terms=-1)


def test_bounds_replace_validates_and_defaults_are_the_fields():
    with pytest.raises(ValueError):
        Bounds()._replace(terms=-1)
    assert Bounds()._replace(terms=1) == Bounds(terms=1)
    assert Bounds(**Bounds._field_defaults) == Bounds()


@pytest.mark.parametrize(
    "claim", ["thm:geq-implies-normal", "cor:numbers-distinct", "thm:number-order"]
)
def test_literal_claims_refuse_before_building_the_ladder_pack(claim):
    # at j=60 the pack would hold 30,752 ladders; the literals are counted first
    bounds = Bounds(exponent=60)
    report = run_claim(claim, bounds)
    assert report.status == "skipped"
    assert report.details["reason"].startswith("test set literals:j60:v2 needs ")
    assert "ladder_pack" not in vars(bounds)


def test_closure_test_set_is_built_once_per_bounds(monkeypatch):
    built = []
    generate = claims.gen_dead_end_closure

    def counted(*args):
        built.append(args)
        return generate(*args)

    monkeypatch.setattr(claims, "gen_dead_end_closure", counted)
    bounds = Bounds(**SMALL.to_dict())  # equal to SMALL, with nothing built yet
    assert bounds.closure_tests is bounds.closure_tests
    for claim in ("thm:int-total-order", "lemma:end-to-integer"):
        assert run_claim(claim, bounds).status == "pass"
    assert built == [(2, 2, 2)]


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claim("thm:unheard-of")


@pytest.mark.parametrize("claim", claim_ids())
def test_each_claim_passes_at_small_bounds(claim):
    report = run_claim(claim, SMALL)
    assert report.status == "pass", report.witnesses[:3]
    assert report.cases >= 1
    assert report.claim == claim
    assert report.bounds == SMALL.to_dict()


def test_reports_round_trip():
    report = run_claim("lemma:dead-end-outcome", SMALL)
    assert ClaimReport(**report.to_dict()) == report


def test_reports_deterministic_modulo_duration():
    a = run_claim("thm:int-incomparable", SMALL)
    b = run_claim("thm:int-incomparable", SMALL)
    assert a._replace(duration_ms=0) == b._replace(duration_ms=0)


def test_run_all_zero_budget_skips_everything():
    reports = run_all(SMALL, budget_seconds=0)
    assert len(reports) == len(claim_ids())
    assert all(r.status == "skipped" for r in reports)
    assert all(r.details["reason"] for r in reports)


def test_run_all_matches_single_runs():
    reports = run_all(SMALL)
    assert [r.claim for r in reports] == claim_ids()
    assert all(r.status == "pass" for r in reports)
    single = run_claim(reports[3].claim, SMALL)
    assert single._replace(duration_ms=0) == reports[3]._replace(duration_ms=0)


@pytest.mark.parametrize(
    "bound, claim",
    [
        ("scan_birthday", "fact:star-squared"),
        ("terms", "thm:int-total-order"),
        ("birthday", "thm:int-monoid"),
    ],
)
def test_zero_bound_shortfalls_skip_rather_than_refute(bound, claim):
    # an empty search within tiny bounds says nothing against the claim
    reports = run_all(Bounds(**{bound: 0}))
    assert [r.claim for r in reports if r.status == "refuted"] == []
    assert [r.claim for r in reports if r.status == "skipped"] == [claim]
    (report,) = [r for r in reports if r.status == "skipped"]
    assert report.details["reason"].startswith(f"{bound}=0 too small: ")
    assert report.witnesses == []


def test_a_failure_outranks_a_shortfall():
    check = _Check()
    check.search(True, "terms=2 too small: unused")
    assert check.report("c", SMALL, 0.0).status == "pass"
    check.search(False, "terms=2 too small: first")
    check.search(False, "terms=2 too small: second")
    skipped = check.report("c", SMALL, 0.0)
    assert skipped.status == "skipped" and skipped.cases == 3
    assert skipped.details["reason"] == "terms=2 too small: first"
    check.run(False, ZERO, "a real failure")
    assert check.report("c", SMALL, 0.0).status == "refuted"


def refused_after(record):
    """A checker that records its cases, then meets a test set too large to build."""

    def checker(bounds, check):
        record(check)
        raise BudgetExceededError("dead-ends:b9:k2", 10**9, DEFAULT_MEMBER_BUDGET)

    return checker


def test_a_refused_test_set_skips_its_claim_with_the_reason(monkeypatch):
    checker = refused_after(lambda check: check.run(True, ZERO, "a passing case"))
    monkeypatch.setitem(claims._REGISTRY, "fact:star-squared", checker)
    report = run_claim("fact:star-squared", SMALL)
    assert report.status == "skipped" and report.cases == 1
    assert report.details["reason"] == (
        "test set dead-ends:b9:k2 needs 1000000000 members, "
        "which exceeds the budget of 500000"
    )


@pytest.mark.parametrize("claim", ["lemma:number-sum-outcome", "lemma:number-plus-end"])
def test_number_sum_claims_refuse_their_multisets_before_building(claim):
    # 2,760,681 multisets of at most 6 of the 32 literals: the number
    # collapse claim's test set, refused under the same descriptor
    gen_dead_ending(2, 2)  # the plus-end claim's contexts, built first
    before = store_size()
    report = run_claim(claim, Bounds(terms=6))
    assert report.status == "skipped" and report.cases == 0
    assert report.details["reason"] == (
        "test set numbers:j3:v2:t6 needs 2760681 members, "
        "which exceeds the budget of 500000"
    )
    assert store_size() == before
    collapse = run_claim("cor:number-collapses", Bounds(terms=6))
    assert collapse.details["reason"] == report.details["reason"]


def test_number_sums_are_built_once_per_bounds_in_build_order():
    bounds = Bounds(exponent=2, magnitude=1, terms=3)
    sums = bounds.number_sums
    assert sums is bounds.number_sums and sums.descriptor == "numbers:j2:v1:t3"
    built = [sums.table.contexts[i] for _, i in sums.cases]
    assert built == [add_all(dyadic_game(l) for l in literals) for literals, _ in sums.cases]
    distinct = tuple(dict.fromkeys(built))
    assert sums.table.contexts[: len(distinct)] == distinct
    assert len(sums.cases) == comb(8 + 3, 3)  # 8 literals, up to 3 terms


def test_number_sum_rows_match_the_pair_search():
    # the rows the number claims read, against the search they replaced
    bounds = Bounds(exponent=2, magnitude=1, terms=3)
    table = bounds.number_sums.table
    left_ends = [x for x in bounds.dead_ending_tests.members if is_left_end(x)]
    assert len(left_ends) == 4
    alone = table.outcomes(ZERO)
    rows = [table.outcomes(x) for x in left_ends]
    for i in sorted({i for _, i in bounds.number_sums.cases}):
        total = table.contexts[i]
        assert alone[i] == outcome_misere(total), total
        for x, row in zip(left_ends, rows):
            assert row[i] == outcome_misere_sum(total, x), (total, x)


def test_literal_birthdays_and_inverse_positions_have_closed_forms():
    for exponent, magnitude in itertools.product(range(6), range(4)):
        for lit in number_literals(exponent, magnitude):
            g = dyadic_game(lit)
            b = claims._literal_birthday(lit)
            assert b == birthday(g), lit
            assert len(followers(add(g, conjugate(g)))) <= (b + 1) ** 2, lit


def test_numbers_invertible_counts_its_sums_before_building_them():
    # 4,096 literals fit the member budget; the positions of their sums do not
    gen_dead_ending(2, 2)  # the claim's contexts, built first
    before = store_size()
    report = run_claim("thm:numbers-invertible", Bounds(exponent=10))
    assert report.status == "skipped" and report.cases == 0
    assert report.details["reason"] == (
        "test set inverse sums:j10:v2 needs 550920 members, "
        "which exceeds the budget of 500000"
    )
    assert store_size() == before


def test_failures_before_a_refusal_still_refute(monkeypatch):
    checker = refused_after(lambda check: check.run(False, ZERO, "a real failure"))
    monkeypatch.setitem(claims._REGISTRY, "fact:star-squared", checker)
    report = run_claim("fact:star-squared", SMALL)
    assert report.status == "refuted"
    assert [w["role"] for w in report.witnesses] == ["a real failure"]


def test_star_squared_records_a_witness():
    report = run_claim("fact:star-squared", SMALL)
    assert report.status == "pass"
    assert len(report.witnesses) == 1
    assert report.witnesses[0]["game"]


def test_geq_implies_normal_reports_coverage():
    report = run_claim("thm:geq-implies-normal", SMALL)
    details = report.details
    assert details["sampled_pairs"] > 0
    assert details["witness_found"] + details["witness_beyond_bound"] == details[
        "sampled_pairs"
    ]
    assert 0.0 <= details["coverage"] <= 1.0


def test_seed_changes_only_the_sampled_claim():
    a = run_claim("thm:geq-implies-normal", SMALL)
    b = run_claim(
        "thm:geq-implies-normal",
        Bounds(
            birthday=2,
            options=2,
            terms=2,
            exponent=2,
            magnitude=1,
            scan_birthday=2,
            struct_exponent=4,
            seed=7,
        ),
    )
    assert a.status == b.status == "pass"


# Failure details are formatted only when a case fails; a forced failure must
# still file the witnesses the eager formatting filed, key for key.  Each row:
# claim, the name patched, its stand-in, the first witness, and the lazily
# formatted field of every witness in order.
TINY = Bounds(
    birthday=1,
    options=2,
    terms=2,
    exponent=1,
    magnitude=1,
    scan_birthday=1,
    struct_exponent=3,
)
FORCED_REFUTATIONS = [
    (
        "lemma:follower-closed",
        (claims, "is_dead_ending", lambda g: False),
        {"game": "0", "role": "non-dead-ending follower", "of": "0"},
        ["0", "-1", "-1", "1", "1", "*", "*"],
    ),
    (
        "thm:ends-invertible",
        (claims, "outcome_misere_sum", lambda g, h: Outcome.R),
        {"game": "0", "role": "left-end context escapes L/N", "around": "0"},
        ["0", "0", "-1", "-1", "1", "1"],
    ),
    (
        "thm:int-incomparable",
        (claims, "outcome_misere_sum", lambda g, h: Outcome.P),
        {"game": "1", "role": "n + conj(m) not R", "pair": "0,-1"},
        ["0,-1"] * 4 + ["1,-1"] * 6 + ["1,0"] * 5,
    ),
    (
        "lemma:number-sum-outcome",
        (claims, "number_sum_outcome", lambda combo: None),
        {"game": "0", "role": "solver disagrees with length rule", "terms": "0"},
        ["0", "-1", "-1/2", "1/2", "1", "-1 + -1", "-1 + -1/2", "-1 + 1/2", "-1 + 1",
         "-1/2 + -1/2", "-1/2 + 1/2", "-1/2 + 1", "1/2 + 1/2", "1/2 + 1", "1 + 1"],
    ),
    (
        "lemma:number-plus-end",
        # the claim reads each left end's row against the number sums
        (ContextTable, "outcomes", lambda self, g: [Outcome.R] * len(self.contexts)),
        {"game": "0", "role": "left end spoils a Left-won number sum", "terms": "-1"},
        ["-1", "-1", "-1/2", "-1/2", "-1 + -1", "-1 + -1", "-1 + -1/2", "-1 + -1/2",
         "-1/2 + -1/2", "-1/2 + -1/2"],
    ),
    (
        "lemma:simplicity-length",
        (NumberLiteral, "left_length", lambda self: 0),
        {"game": "1/8", "role": "option length not below inner number length",
         "pair": "1/4,1/8"},
        ["1/4,1/8", "1/2,1/8", "1/2,1/4", "1/2,3/8", "3/4,5/8", "1,1/8", "1,1/4",
         "1,3/8", "1,1/2", "1,5/8", "1,3/4", "1,7/8"],
    ),
]


@pytest.mark.parametrize(
    "claim, patch, first, fields", FORCED_REFUTATIONS, ids=[r[0] for r in FORCED_REFUTATIONS]
)
def test_forced_refutation_files_the_same_witnesses(monkeypatch, claim, patch, first, fields):
    monkeypatch.setattr(*patch)
    report = run_claim(claim, TINY)
    assert report.status == "refuted"
    assert json.dumps(report.witnesses[0]) == json.dumps(first)
    field = list(first)[-1]
    assert [w[field] for w in report.witnesses] == fields
    assert all(list(w) == ["game", "role", field] for w in report.witnesses)


def test_passing_cases_format_no_details(monkeypatch):
    # a passing case calls no detail function: render is not reached
    monkeypatch.setattr(claims, "render", lambda *args: pytest.fail("rendered"))
    for claim in ("lemma:follower-closed", "thm:ends-invertible"):
        assert run_claim(claim, TINY).status == "pass"
