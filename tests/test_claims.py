"""The claim registry: every checker runs, passes, and reports faithfully."""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
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
    integer_game,
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
    gen_dead_ends,
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
    bounds = Bounds()
    witness, route = _context_witness(g, h, _fails_geq, bounds)
    assert route == "composite"
    scan, pack = bounds.dead_ending_tests, bounds.ladder_pack
    assert scan.descriptor == gen_dead_ending(2, 2).descriptor
    first = next(
        y
        for y in itertools.chain(scan, pack)
        if not outcome_geq(
            outcome_misere(add(g, add(conjugate(h), y))),
            outcome_misere(add(h, add(conjugate(h), y))),
        )
    )
    assert witness == add(conjugate(h), first)
    assert _verify_refutation(g, h, witness, _fails_geq)


def test_bounds_build_scan_test_sets_once():
    bounds = Bounds(scan_birthday=1)
    pools = ("dead_ending_tests", "ladder_pack", "literals", "struct_literals", "dead_ends")
    for pool in pools:
        assert getattr(bounds, pool) is getattr(bounds, pool), pool
    assert bounds.literals == number_literals(3, 2)
    assert bounds.struct_literals == number_literals(6, 2)
    assert bounds.dead_ends == gen_dead_ends(3, 2)
    # the pairs are counted on each read, and made from the one literal list
    assert list(bounds.literal_pairs) == list(itertools.combinations(bounds.literals, 2))
    twin = Bounds(scan_birthday=1)
    for pool in pools:
        assert getattr(twin, pool) is not getattr(bounds, pool), pool
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


def test_bounds_refuse_games_without_options():
    # every game generator takes at least one option, so 0 is refused by name
    with pytest.raises(ValueError, match="^bound options must be >= 1, got 0$"):
        Bounds(options=0)
    with pytest.raises(ValueError, match="^bound options must be >= 1, got 0$"):
        Bounds()._replace(options=0)
    assert Bounds(options=1).options == 1


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
    # a refused pool keeps nothing, so it is refused again on the next read
    assert "literals" not in vars(bounds)
    with pytest.raises(BudgetExceededError, match="literals:j60:v2"):
        bounds.literals


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


def test_run_all_lists_each_pool_once(monkeypatch):
    # the claims read the literals and dead ends from their Bounds, which
    # lists each once; the number monoid's fixed generators are a pool of
    # their own
    calls = {"number_literals": [], "gen_dead_ends": []}
    for name, made in calls.items():
        def counted(*args, _list=getattr(claims, name), _made=made, **kwargs):
            _made.append(args + tuple(kwargs.items()))
            return _list(*args, **kwargs)

        monkeypatch.setattr(claims, name, counted)
    reports = run_all(Bounds(**SMALL.to_dict()))  # equal to SMALL, with nothing built yet
    assert all(r.status == "pass" for r in reports)
    assert sorted(calls["number_literals"]) == [
        (2, 1), (2, 1, ("include_zero", True)), (4, 1)
    ]
    assert calls["gen_dead_ends"] == [(2, 2)]


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
    assert sums.last is bounds.literals  # listed once, by the bounds
    assert [literals for literals, _ in sums.cases] == [
        combo
        for size in range(4)
        for combo in itertools.combinations_with_replacement(bounds.literals, size)
    ]
    assert len(sums.cases) == comb(8 + 3, 3)  # 8 literals, up to 3 terms
    # each case holds its prefix's sum; the table's contexts start with the
    # distinct sums of at most two literals, in build order
    prefixes = [sums.table.contexts[i] for _, i in sums.cases]
    assert prefixes == [
        add_all(dyadic_game(l) for l in literals[:-1]) for literals, _ in sums.cases
    ]
    shorter = sums.cases[: comb(8 + 2, 2)]  # the multisets of at most two literals
    distinct = tuple(dict.fromkeys(add_all(map(dyadic_game, c)) for c, _ in shorter))
    assert sums.table.contexts[: len(distinct)] == distinct
    assert set(prefixes) == set(distinct)
    for literals, i in sums.cases:
        assert sums.total(literals, i) == add_all(dyadic_game(l) for l in literals), literals
    assert Bounds(terms=0).number_sums.cases == [((), 0)]
    assert Bounds(terms=0).number_sums.table.contexts == (ZERO,)


# in a fresh process: the number sums intern the sums of at most t - 1
# literals, by the left fold, and nothing more
PREFIXES_ONLY = """
import hashlib, itertools, sys
from deadending import games
from deadending.claims import Bounds
from deadending.games import add_all, dyadic_game, number_literals
if sys.argv[1] == "claims":
    Bounds(terms=3).number_sums
else:
    pool = [dyadic_game(l) for l in number_literals(3, 2)]
    for t in range(3):
        for c in itertools.combinations_with_replacement(pool, t):
            add_all(c)
print(games.store_size(), hashlib.sha256(repr(games._nodes).encode()).hexdigest())
"""


def test_number_sums_build_only_the_shorter_sums():
    package_root = str(pathlib.Path(claims.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    runs = [
        subprocess.run(
            [sys.executable, "-c", PREFIXES_ONLY, route],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        for route in ("claims", "fold")
    ]
    assert runs[0] == runs[1]


def _number_sum_differential(bounds):
    """Every case of the bounds' number sums, read as the claims read it,
    against the pair search on the built sum: alone, plus each left end x of
    the scan pool, and plus each literal g and its length integer n."""
    sums = bounds.number_sums
    left_ends = [x for x in bounds.dead_ending_tests.members if is_left_end(x)]
    shifts = sorted({g for lit in bounds.literals
                     for g in (dyadic_game(lit), integer_game(lit.signed_length()))})
    (alone, *rows) = sums.outcomes([ZERO] + left_ends + shifts)
    for literals, i in sums.cases:
        total = add_all(dyadic_game(l) for l in literals)
        assert alone[literals[-1:]][i] == outcome_misere(total), literals
        for x, row in zip(left_ends + shifts, rows):
            assert row[literals[-1:]][i] == outcome_misere_sum(total, x), (literals, x)
    return len(sums.cases), len(left_ends), len(shifts)


def test_number_sum_rows_match_the_pair_search():
    # every multiset of numbers:j2:v1:t3, as zero's, x's, g's and n's rows read it
    assert _number_sum_differential(Bounds(exponent=2, magnitude=1, terms=3)) == (165, 4, 10)


@pytest.mark.parametrize("terms", [0, 1, 2])
def test_factored_number_sums_match_the_pair_search_at_few_terms(terms):
    bounds = Bounds(exponent=1, magnitude=1, terms=terms, scan_birthday=1)
    assert _number_sum_differential(bounds)[0] == comb(4 + terms, terms)


# The three number-sum claims forced to fail in a fresh process, where
# interning order, and so the option order of every rendered witness,
# depends on nothing but the run.  Each witness is printed as one JSON line.
FORCED_NUMBER_FAILURES = """
import json
from deadending import claims
from deadending.claims import Bounds, run_claim
from deadending.outcomes import Outcome

bounds = Bounds(birthday=1, options=2, terms=3, exponent=1, magnitude=1, scan_birthday=1)
real = claims.number_sum_outcome
flip = {Outcome.L: Outcome.R, Outcome.R: Outcome.L, Outcome.N: Outcome.P}
# every three-term sum disagrees with its length rule, then is called Left-won
claims.number_sum_outcome = lambda terms: flip[real(terms)] if len(terms) == 3 else real(terms)
reports = [run_claim("lemma:number-sum-outcome", bounds)]
claims.number_sum_outcome = lambda terms: Outcome.L if len(terms) == 3 else real(terms)
reports.append(run_claim("lemma:number-plus-end", bounds))
claims.number_sum_outcome = real
integer = claims.integer_game
claims.integer_game = lambda n: integer(n + 1)  # each literal against the wrong integer
reports.append(run_claim("cor:number-collapses", bounds))
for report in reports:
    print(json.dumps([report.claim, report.status, report.cases]))
    for witness in report.witnesses:
        print(json.dumps(witness))
"""

THREE_TERMS = [
    "-1 + -1 + -1", "-1 + -1 + -1/2", "-1 + -1 + 1/2", "-1 + -1 + 1", "-1 + -1/2 + -1/2",
    "-1 + -1/2 + 1/2", "-1 + -1/2 + 1", "-1 + 1/2 + 1/2", "-1 + 1/2 + 1", "-1 + 1 + 1",
    "-1/2 + -1/2 + -1/2", "-1/2 + -1/2 + 1/2", "-1/2 + -1/2 + 1", "-1/2 + 1/2 + 1/2",
    "-1/2 + 1/2 + 1", "-1/2 + 1 + 1", "1/2 + 1/2 + 1/2", "1/2 + 1/2 + 1", "1/2 + 1 + 1",
    "1 + 1 + 1",
]
# the rendered sums of a few of those, as the parent's full table built them
SUM_RENDERS = {
    "-1 + -1 + -1": "-3",
    "-1 + -1 + -1/2": "{-3 | -2, {-2 | -1, -1/2}}",
    "-1 + -1 + 1/2": "{-2 | {-1 | 1/2, {-1 | 1}}, {-2 | {-1 | 1}}}",
    "-1 + -1/2 + 1": "{{-2 | -1, -1/2}, {-2 | {-1 | 1}} | {-1 | 1}, {-1/2, {-1 | 1} | 1}}",
    "-1 + 1/2 + 1/2": "{{-1 | 1/2, {-1 | 1}} | {1/2 | {1, 1/2 | 2}}, "
                      "{{-1 | 1}, {-1 | 1/2, {-1 | 1}} | {1, 1/2 | 2}, {{-1 | 1} | 2}}}",
    "-1/2 + 1 + 1": "{{-1/2, {-1 | 1} | 1}, {{-1 | 1} | 2} | 2}",
    "1/2 + 1/2 + 1/2": "{{1/2 | {1, 1/2 | 2}} | "
                       "{{1, 1/2 | 2}, {1/2 | {1, 1/2 | 2}} | {2, {1, 1/2 | 2} | 3}}}",
    "1 + 1 + 1": "3",
}
# sha256 of the sum-outcome witnesses' JSON lines, joined by newlines
SUM_WITNESSES_SHA256 = "e7a4452ba35e03f988d927db2f129956ea7d4a4e9e7e627075f6487484897b25"


def test_forced_number_sum_failures_pin_their_witnesses():
    package_root = str(pathlib.Path(claims.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    lines = subprocess.run(
        [sys.executable, "-c", FORCED_NUMBER_FAILURES],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("[")]
    blocks = [lines[i + 1:j] for i, j in zip(heads, heads[1:] + [len(lines)])]
    assert [json.loads(lines[i]) for i in heads] == [
        ["lemma:number-sum-outcome", "refuted", 35],
        ["lemma:number-plus-end", "refuted", 50],
        ["cor:number-collapses", "refuted", 4],
    ]
    sums, ends, collapses = ([json.loads(line) for line in block] for block in blocks)
    assert [w["terms"] for w in sums] == THREE_TERMS
    assert {w["role"] for w in sums} == {"solver disagrees with length rule"}
    assert {w["terms"]: w["game"] for w in sums if w["terms"] in SUM_RENDERS} == SUM_RENDERS
    digest = hashlib.sha256("\n".join(blocks[0]).encode()).hexdigest()
    assert digest == SUM_WITNESSES_SHA256
    # the two left ends of dead-ending:b1:k2 against each Left-won three-term sum
    left_won = THREE_TERMS[7:10] + THREE_TERMS[13:]
    assert ends == [
        {"game": x, "role": "left end spoils a Left-won number sum", "terms": terms}
        for terms in left_won
        for x in ("0", "-1")
    ]
    assert collapses == [
        {"game": lit, "role": "number distinguished from its length integer over numbers",
         "literal": lit, "integer": n}
        for lit, n in (("-1", -1), ("-1/2", -1), ("1/2", 1), ("1", 1))
    ]


def test_literal_birthdays_and_inverse_positions_have_closed_forms():
    # the closed-form count of the sums' positions against the sum over each
    # literal's game, on the literal sets nested in number_literals(10, 4)
    squares = {lit: (birthday(dyadic_game(lit)) + 1) ** 2 for lit in number_literals(10, 4)}
    for exponent, magnitude in itertools.product(range(11), range(5)):
        expected = sum(squares[lit] for lit in number_literals(exponent, magnitude))
        assert claims._inverse_positions(exponent, magnitude) == expected
    assert claims._inverse_positions(10, 2) == 550920
    assert claims._inverse_positions(9, 2) == 230408
    # a number of birthday b has at most b + 1 positions, so g + conj(g) at
    # most (b + 1)**2
    for lit in number_literals(5, 3):
        g = dyadic_game(lit)
        assert len(followers(add(g, conjugate(g)))) <= squares[lit], lit


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


# Every witness that the pair searches return is re-checked by the pair search
# itself.  With that search patched to answer N, every witness fails its
# re-check, so each report pins the route counts and the failures filed.
def _recheck_report(cases, witnesses, details):
    return {"status": "refuted", "bounds": TINY.to_dict(), "cases": cases,
            "witnesses": witnesses, "details": details}


def _missing(role, pairs):
    return [{"game": pair.split(",")[0], "role": role, "pair": pair} for pair in pairs]


RECHECK_PIN = {
    "cor:numbers-distinct": _recheck_report(
        6,
        _missing("no distinguishing context found",
                 ["-1,-1/2", "-1,1/2", "-1,1", "-1/2,1/2", "-1/2,1", "1/2,1"]),
        {"routes": {"scan": 4, "ladder": 2, "composite": 0}, "tests": "dead-ending:b1:k2"},
    ),
    "thm:number-order": _recheck_report(
        12,
        _missing("strictness witness missing", ["-1,-1/2"])
        + _missing("incomparable direction lacks a witness",
                   ["-1,1/2", "1/2,-1", "-1,1", "1,-1", "-1/2,1/2", "1/2,-1/2",
                    "-1/2,1", "1,-1/2"])
        + _missing("strictness witness missing", ["1/2,1"]),
        {"tests": "dead-ending:b1:k2", "greater_pairs": 2, "incomparable_pairs": 4,
         "routes": {"scan": 4, "ladder": 4, "composite": 0}},
    ),
    "thm:geq-implies-normal": _recheck_report(
        16,
        [{"game": game, "role": "witness fails re-check"} for game in [
            "lambda(1)", "{1 | 0}", "{1 | 0}", "0", "lambda(1)", "*", "*", "lambda(2)",
            "lambda(1)", "{{1 | 0} | 0}", "0", "lambda(1)", "*", "lambda(1)", "lambda(1)",
            "*"]],
        {"sampled_pairs": 16, "witness_found": 16, "witness_beyond_bound": 0,
         "coverage": 1.0},
    ),
}


@pytest.mark.parametrize("claim", sorted(RECHECK_PIN))
def test_every_search_witness_is_rechecked(monkeypatch, claim):
    monkeypatch.setattr(claims, "outcome_misere_sum", lambda g, h: Outcome.N)
    report = run_claim(claim, TINY).to_dict()
    del report["duration_ms"]
    assert json.dumps(report) == json.dumps({"claim": claim, **RECHECK_PIN[claim]})
