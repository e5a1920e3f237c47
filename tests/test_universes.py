"""Test-set generation, verdicts, closed-form comparisons, monoid quotients."""

import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

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
    intern,
    is_dead_ending,
    lambda_game,
    left_options,
    number_literals,
    outcome_geq,
    outcome_misere,
    outcome_misere_sum,
    right_options,
    star,
)
from deadending import universes
from deadending.claims import Bounds
from deadending.games import followers, sort_games, store_size, within_budget
from deadending.universes import (
    BudgetExceededError,
    ContextTable,
    Relation,
    TestSet,
    Verdict,
    compare_integers_mod_dead_end_closure,
    compare_numbers_mod_E,
    equiv_mod,
    gen_dead_end_closure,
    gen_dead_ending,
    gen_dead_ends,
    gen_number_closure,
    generate,
    geq_mod,
    invert_check,
    ladder_game,
    quotient_monoid,
    reduce_end_to_integer,
    witness_contexts,
)

from depth import shallow
from strategies import build, shapes
from test_games import recursive_max_branching


def lit(value):
    return NumberLiteral.from_value(Fraction(value))


# -- independent oracle: enumerate all bounded games and classify them by hand


def oracle_all_games(birthday_cap, option_cap):
    days = [[ZERO]]
    seen = {ZERO}
    for _ in range(birthday_cap):
        pool = [g for day in days for g in day]
        subsets = [()]
        for size in range(1, option_cap + 1):
            subsets.extend(itertools.combinations(range(len(pool)), size))
        fresh = []
        for lsub in subsets:
            for rsub in subsets:
                g = intern(
                    tuple(pool[i] for i in lsub), tuple(pool[i] for i in rsub)
                )
                if g not in seen:
                    seen.add(g)
                    fresh.append(g)
        days.append(fresh)
    return [g for day in days for g in day]


def oracle_followers(g):
    todo, seen = [g], {g}
    while todo:
        x = todo.pop()
        for o in left_options(x) + right_options(x):
            if o not in seen:
                seen.add(o)
                todo.append(o)
    return seen


def oracle_dead_ending(g):
    for f in oracle_followers(g):
        if not left_options(f):
            if any(left_options(x) for x in oracle_followers(f)):
                return False
        if not right_options(f):
            if any(right_options(x) for x in oracle_followers(f)):
                return False
    return True


# -- dead-ending generation -----------------------------------------------------


def test_gen_dead_ending_day_zero():
    assert gen_dead_ending(0, 2).members == (ZERO,)


def test_gen_dead_ending_day_one():
    ts = gen_dead_ending(1, 2)
    assert set(ts.members) == {ZERO, integer_game(1), integer_game(-1), star()}


def test_gen_dead_ending_matches_oracle_at_b2():
    expected = {g for g in oracle_all_games(2, 2) if oracle_dead_ending(g)}
    ts = gen_dead_ending(2, 2)
    assert set(ts.members) == expected
    assert len(ts) == 107


def test_gen_dead_ending_excludes_live_end():
    live = intern((), (integer_game(1),))
    assert live not in set(gen_dead_ending(2, 2).members)


def test_gen_dead_ending_membership_predicate():
    for g in gen_dead_ending(2, 2):
        assert is_dead_ending(g)
        assert birthday(g) <= 2
        assert recursive_max_branching(g) <= 2


def test_gen_dead_ending_order_is_birthday_monotone():
    members = gen_dead_ending(2, 2).members
    days = [birthday(g) for g in members]
    assert days == sorted(days)


def test_gen_dead_ending_budget_error_names_exact_size():
    # the full day-3 universe: (nonempty <=2-subsets of the 107)^2 plus the
    # end families and zero
    subsets = comb(107, 1) + comb(107, 2)
    dead_left = comb(4, 1) + comb(4, 2)
    expected = subsets**2 + 2 * dead_left + 1
    with pytest.raises(BudgetExceededError) as err:
        gen_dead_ending(3, 2)
    assert err.value.needed == expected == 33385305
    assert "dead-ending:b3:k2" in str(err.value)


@pytest.mark.parametrize("descriptor", ["numbers:j0:v2000:t2", "numbers:j10:v8:t3"])
def test_number_closure_over_budget_builds_no_game(descriptor):
    # the budget is checked on the literals before any number game is built:
    # integer_game(-2000) alone would overflow the stack, and j10 would intern
    # thousands of dyadic games before the refusal
    before = store_size()
    with pytest.raises(BudgetExceededError) as err:
        generate(descriptor)
    assert err.value.descriptor == descriptor
    assert store_size() == before


def test_closure_of_no_items_is_zero():
    assert generate("numbers:j0:v0:t2").members == (ZERO,)
    assert generate("numbers:j3:v0:t3").members == (ZERO,)
    assert generate("numbers:j1:v1:t0").members == (ZERO,)


@pytest.mark.parametrize(
    "descriptor, items, terms",
    [("numbers:j10:v8:t3", 2 * 8 * 2**10, 3), ("numbers:j0:v2000:t2", 4000, 2)],
)
def test_closure_budget_counts_every_multiset(descriptor, items, terms):
    # one per multiset of at most `terms` literals, summed size by size
    with pytest.raises(BudgetExceededError) as err:
        generate(descriptor)
    assert err.value.needed == sum(comb(items + k - 1, k) for k in range(terms + 1))


def test_number_literal_count_has_a_closed_form():
    # the numbers test sets are refused on this count, before any is listed
    for exponent, magnitude in itertools.product(range(9), range(5)):
        count = len(number_literals(exponent, magnitude))
        assert count == magnitude << (exponent + 1), (exponent, magnitude)


def test_literal_count_counts_fraction_magnitudes_too():
    from deadending.games import literal_count

    for exponent, magnitude in itertools.product(
        range(7), (0, 2, Fraction(1, 3), Fraction(3, 2), Fraction(7, 4))
    ):
        count = len(number_literals(exponent, magnitude))
        assert literal_count(exponent, magnitude) == count, (exponent, magnitude)


def test_bounded_sums_count_before_listing():
    def unlisted():
        raise AssertionError("items listed")

    with pytest.raises(BudgetExceededError) as err:
        universes.bounded_sums("many", 10**6, unlisted, 1)
    assert (err.value.descriptor, err.value.needed) == ("many", 10**6 + 1)
    assert list(universes.bounded_sums("none", 10**6, unlisted, 0)) == [((), ZERO)]
    sums = universes.bounded_sums("abc", 3, lambda: "abc", 2, lambda item: ZERO)
    assert ["".join(c) for c, _ in sums] == [
        "", "a", "b", "c", "aa", "ab", "ac", "bb", "bc", "cc"
    ]


def fold_sums(pool, max_terms):
    """Every bounded multiset's sum, by the left fold the sum builder replaced."""
    return [
        add_all(combo)
        for size in range(max_terms + 1)
        for combo in itertools.combinations_with_replacement(pool, size)
    ]


def test_prefix_built_sums_equal_the_left_fold():
    ends = gen_dead_ends(2, 2)
    built = universes.bounded_sums("ends", len(ends), lambda: ends, 3)
    assert [s for _, s in built] == fold_sums(ends, 3)
    literals = number_literals(2, 1)
    sums = universes.bounded_sums("numbers", len(literals), lambda: literals, 3, dyadic_game)
    for combo, total in sums:  # items mapped to their games before they are added
        assert total == add_all(dyadic_game(l) for l in combo), combo
    with pytest.raises(BudgetExceededError):  # refused on the call, not on iteration
        universes.bounded_sums("many", 10**6, lambda: pytest.fail("listed"), 1)


def test_sum_builder_callers_build_the_fold_sums():
    ends = gen_dead_ends(2, 2)
    closure = gen_dead_end_closure(2, 2, 2)
    assert closure.members == tuple(sort_games(set(fold_sums(ends, 2))))
    literals = [dyadic_game(l) for l in number_literals(2, 1)]
    numbers = gen_number_closure(2, 1, 3)
    assert numbers.members == tuple(sort_games(set(fold_sums(literals, 3))))
    gens = sort_games(integer_game(n) for n in range(-2, 3))
    report = quotient_monoid(gens, 2, closure)
    members = [m for cls in report.classes for m in cls.members]
    assert sorted(members) == sorted(set(fold_sums(gens, 2)))


# in a fresh process: both routes intern the same nodes in the same order
FOLD_OR_PREFIX = """
import hashlib, itertools, sys
from deadending import games
from deadending.games import add_all, dyadic_game, number_literals
from deadending.universes import gen_number_closure
if sys.argv[1] == "prefix":
    built = gen_number_closure(3, 2, 3).members
else:
    pool = [dyadic_game(l) for l in number_literals(3, 2)]
    built = {add_all(c) for t in range(4)
             for c in itertools.combinations_with_replacement(pool, t)}
print(len(built), games.store_size(), hashlib.sha256(repr(games._nodes).encode()).hexdigest())
"""


def test_prefix_built_sums_intern_what_the_left_fold_interns():
    package_root = str(pathlib.Path(universes.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    runs = [
        subprocess.run(
            [sys.executable, "-c", FOLD_OR_PREFIX, route],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        for route in ("prefix", "fold")
    ]
    assert runs[0] == runs[1] and runs[0].startswith("6479 ")  # distinct sums


def test_every_enumeration_refuses_under_a_lowered_member_budget(monkeypatch):
    # the budget has one owner: lowering it in games reaches every count
    from deadending import cli, games

    assert BudgetExceededError is games.BudgetExceededError
    gens = [integer_game(n) for n in (-1, 0, 1)]
    beyond = max(map(len, games._INTEGERS)) + 3  # an integer no chain holds yet
    monkeypatch.setattr(games, "DEFAULT_MEMBER_BUDGET", 3)
    enumerations = {
        "dead-ending universe": lambda: gen_dead_ending(2, 2),
        "capped dead-ending prefix": lambda: gen_dead_ending(2, 2, cap=4),
        "dead ends": lambda: gen_dead_ends(2, 2),
        "dead-end sums": lambda: gen_dead_end_closure(1, 1, 2),
        "number sums": lambda: gen_number_closure(1, 1, 1),
        "monoid sums": lambda: quotient_monoid(gens, 2, TestSet("zero", (ZERO,))),
        "ladders": lambda: witness_contexts(2, 1),
        "ladder rungs": lambda: ladder_game(4, 1),
        "literals": lambda: number_literals(1, 1),
        "integer chain": lambda: integer_game(beyond),
        "integer generators": lambda: cli._parse_generators("ints:0..3"),
        "dyadic generators": lambda: cli._parse_generators("dyadics:j1:v1"),
    }
    for name, enumerate_ in enumerations.items():
        with pytest.raises(BudgetExceededError) as err:
            enumerate_()
        assert err.value.needed > err.value.allowed == 3, name
    before = store_size()
    with pytest.raises(BudgetExceededError):
        integer_game(-beyond)
    assert store_size() == before
    assert len(number_literals(0, 1)) == 2 and len(witness_contexts(1, 1)) == 2


def test_a_count_past_the_digit_limit_is_written_by_its_size():
    # str() of an int past 4,300 digits raises ValueError, which would turn a
    # refusal (exit 3) into an error (exit 2)
    with pytest.raises(BudgetExceededError) as err:
        within_budget("x", 10**5000)
    assert err.value.needed == 10**5000
    assert str(err.value) == (
        "test set x needs at least 2**16609 members, which exceeds the budget of 500000"
    )
    with pytest.raises(BudgetExceededError) as err:
        within_budget("x", (1 << 64) - 1)
    assert f"needs {(1 << 64) - 1} members" in str(err.value)


def test_gen_dead_ending_capped_prefix():
    full = gen_dead_ending(2, 2)
    sliced = gen_dead_ending(3, 2, cap=300)
    assert sliced.descriptor == "dead-ending:b3:k2:cap300"
    assert len(sliced) == 300
    assert sliced.members[: len(full)] == full.members
    assert all(is_dead_ending(g) and birthday(g) <= 3 for g in sliced)


@pytest.mark.parametrize("birthday_cap, option_cap", [(6, 2), (5, 3)])
def test_gen_dead_ends_refuses_the_day_past_the_budget(birthday_cap, option_cap):
    # day 6 of k=2 projects 5.2 M ends, day 5 of k=3 63.7 M; the days are
    # counted before any is built, so none is
    before = store_size()
    with pytest.raises(BudgetExceededError) as err:
        gen_dead_ends(birthday_cap, option_cap)
    assert err.value.needed > err.value.allowed
    assert store_size() == before


def test_gen_dead_ending_deterministic():
    a = gen_dead_ending(2, 2)
    b = gen_dead_ending(2, 2)
    assert a == b


# -- closures -------------------------------------------------------------------


def test_dead_ends_match_manual_count():
    ends = gen_dead_ends(3, 2)
    rights = [g for g in ends if not right_options(g)]
    lefts = [g for g in ends if not left_options(g)]
    assert len(rights) == 11 and len(lefts) == 11
    assert len(ends) == 21  # zero counted once


def mirrored_gen_dead_ends(birthday_cap, option_cap):
    """The two-loop generator that building left ends by conjugation replaced."""
    rights = [ZERO]
    lefts = [ZERO]
    subsets = lambda pool: (
        sub
        for size in range(1, option_cap + 1)
        for sub in itertools.combinations(range(len(pool)), size)
    )
    for _day in range(birthday_cap):
        rights_pool = sort_games(rights)
        seen = set(rights)
        for sub in subsets(rights_pool):
            g = intern(tuple(rights_pool[i] for i in sub), ())
            if g not in seen:
                seen.add(g)
                rights.append(g)
        lefts_pool = sort_games(lefts)
        seen = set(lefts)
        for sub in subsets(lefts_pool):
            g = intern((), tuple(lefts_pool[i] for i in sub))
            if g not in seen:
                seen.add(g)
                lefts.append(g)
    return sort_games(set(rights) | set(lefts))


@pytest.mark.parametrize("bounds", [(2, 1), (2, 2), (3, 2)])
def test_dead_ends_match_mirrored_generator(bounds):
    assert gen_dead_ends(*bounds) == mirrored_gen_dead_ends(*bounds)


def test_closure_with_single_term_is_ends():
    assert set(gen_dead_end_closure(2, 2, 1).members) == set(gen_dead_ends(2, 2))


def test_closure_contains_mixed_sum():
    ts = gen_dead_end_closure(2, 2, 2)
    assert add(integer_game(1), integer_game(-1)) in set(ts.members)


def test_closure_members_dead_ending():
    assert all(is_dead_ending(g) for g in gen_dead_end_closure(3, 2, 2))


def test_number_closure_small():
    ts = gen_number_closure(1, 1, 1)
    assert set(ts.members) == {
        ZERO,
        integer_game(1),
        integer_game(-1),
        dyadic_game(lit("1/2")),
        dyadic_game(lit("-1/2")),
    }


def test_number_closure_contains_doubled_half():
    ts = gen_number_closure(3, 2, 2)
    assert add(dyadic_game(lit("1/2")), dyadic_game(lit("1/2"))) in set(ts.members)
    assert all(is_dead_ending(g) for g in ts)


def test_generate_round_trips_descriptors():
    for descriptor in (
        "dead-ending:b2:k2",
        "dead-ending:b3:k2:cap200",
        "dead-end-closure:b2:k2:t2",
        "numbers:j2:v1:t2",
    ):
        ts = generate(descriptor)
        assert ts.descriptor == descriptor
        again = generate(descriptor)
        assert again.members == ts.members


def test_generate_rejects_malformed():
    for text in ("dead-ending", "numbers:j2:v1", "dead-ending:bx:k2", "nope:b1:k1"):
        with pytest.raises(ValueError):
            generate(text)


@pytest.mark.parametrize(
    "descriptor, field",
    [
        ("dead-ending:b²:k2", "b²"),
        ("dead-ending:b٣:k1", "b٣"),
        ("dead-ending:b2:k2:cap١٠", "cap١٠"),
        ("numbers:j2:v1:t²", "t²"),
    ],
)
def test_descriptor_fields_take_ascii_digits_only(descriptor, field):
    with pytest.raises(ValueError) as err:
        generate(descriptor)
    assert str(err.value) == f"malformed descriptor field {field!r} in {descriptor!r}"


def test_generate_returns_the_kept_test_set_with_its_rows():
    ts = generate("dead-ending:b2:k2")
    g = add(star(), integer_game(1))
    row = ts.table.row(g)
    again = generate("dead-ending:b2:k2")
    assert again is ts and again.table is ts.table
    assert again.table._rows[g] is row  # solved once, read again


def test_generate_cache_stays_within_its_bound():
    bound = universes._generate.cache_info().maxsize
    assert bound is not None and bound <= 8
    oldest = generate("dead-ending:b1:k1")
    for k in range(2, 2 * bound + 2):
        generate(f"dead-ending:b1:k{k}")
        assert universes._generate.cache_info().currsize <= bound
    rebuilt = generate("dead-ending:b1:k1")
    assert rebuilt is not oldest and rebuilt == oldest


@pytest.mark.parametrize(
    "descriptor, error",
    [
        ("dead-ending:bx:k2", ValueError),
        ("numbers:j2:v1", ValueError),
        ("numbers:j10:v8:t3", BudgetExceededError),
        ("dead-ending:b3:k2", BudgetExceededError),
        ("dead-ending:b3:k2:cap500001", BudgetExceededError),  # a cap past the budget
        ("dead-end-closure:b7:k2:t1", BudgetExceededError),  # refused before day 1
        ("numbers:j40:v1:t1", BudgetExceededError),  # 2**41 literals, none listed
    ],
)
def test_generate_raises_on_every_call_and_keeps_nothing(descriptor, error):
    generate("dead-ending:b2:k2")  # b3:k2 refuses only after building day 2
    before = store_size()
    for _ in range(3):
        misses = universes._generate.cache_info().misses
        with pytest.raises(error):
            generate(descriptor)
        assert universes._generate.cache_info().misses == misses + 1
        assert store_size() == before


def test_witness_contexts_live_in_the_universe():
    pack = witness_contexts(6, 4)
    assert all(is_dead_ending(g) for g in pack)
    assert ladder_game(1, 1) in pack
    assert conjugate(ladder_game(3, 2)) in pack


# -- verdicts -------------------------------------------------------------------


def test_equiv_swap_game_is_zero_like():
    ts = gen_dead_ending(2, 2)
    swap = intern((integer_game(-1),), (integer_game(1),))
    verdict = equiv_mod(swap, ZERO, ts)
    assert verdict == Verdict(Relation.INDISTINGUISHABLE, "dead-ending:b2:k2")


def test_equiv_doubled_half_vs_two():
    ts = gen_number_closure(3, 2, 3)
    doubled = add(dyadic_game(lit("1/2")), dyadic_game(lit("1/2")))
    assert equiv_mod(doubled, integer_game(2), ts).relation is Relation.INDISTINGUISHABLE


def test_equiv_distinguishes_half_from_one():
    ts = gen_dead_ending(2, 2)
    verdict = equiv_mod(dyadic_game(lit("1/2")), integer_game(1), ts)
    assert verdict.relation is Relation.DISTINGUISHED
    # soundness: replaying the witness reproduces the differing outcomes
    (witness,) = verdict.witnesses
    g_out = outcome_misere(add(dyadic_game(lit("1/2")), witness))
    h_out = outcome_misere(add(integer_game(1), witness))
    assert (g_out, h_out) == verdict.outcomes
    assert g_out != h_out


def test_equiv_monotone_refinement():
    small = gen_dead_ending(1, 2)
    large = gen_dead_ending(2, 2)
    pairs = [
        (dyadic_game(lit("1/2")), integer_game(1)),
        (star(), ZERO),
        (integer_game(1), integer_game(2)),
    ]
    for g, h in pairs:
        if equiv_mod(g, h, small).witnesses:
            assert equiv_mod(g, h, large).witnesses


def test_equiv_is_equivalence_on_samples():
    ts = gen_dead_ending(1, 2)
    sample = [ZERO, integer_game(1), add(integer_game(1), integer_game(-1)), star()]
    for g in sample:
        assert equiv_mod(g, g, ts).relation is Relation.INDISTINGUISHABLE
    for g in sample:
        for h in sample:
            assert equiv_mod(g, h, ts).relation is equiv_mod(h, g, ts).relation
    for g in sample:
        for h in sample:
            for k in sample:
                if not equiv_mod(g, h, ts).witnesses and not equiv_mod(h, k, ts).witnesses:
                    assert not equiv_mod(g, k, ts).witnesses


def test_geq_reflexive():
    ts = gen_dead_ending(2, 2)
    g = dyadic_game(lit("3/4"))
    assert geq_mod(g, g, ts) == Verdict(Relation.GEQ_CONSISTENT, "dead-ending:b2:k2")


def test_geq_integers_incomparable():
    ts = gen_dead_ending(2, 2)
    verdict = geq_mod(ZERO, integer_game(1), ts)
    assert verdict.relation is Relation.INCOMPARABLE
    geq_fail, leq_fail = verdict.witnesses
    g_out = outcome_misere(add(ZERO, geq_fail))
    h_out = outcome_misere(add(integer_game(1), geq_fail))
    assert not outcome_geq(g_out, h_out)
    g_out = outcome_misere(add(ZERO, leq_fail))
    h_out = outcome_misere(add(integer_game(1), leq_fail))
    assert not outcome_geq(h_out, g_out)


def test_geq_one_exceeds_half():
    ts = gen_dead_ending(2, 2)
    verdict = geq_mod(integer_game(1), dyadic_game(lit("1/2")), ts)
    assert verdict.relation is Relation.GEQ_CONSISTENT and not verdict.witnesses


def test_geq_refuted_over_closure():
    ts = gen_dead_end_closure(3, 2, 2)
    verdict = geq_mod(integer_game(1), integer_game(0), ts)
    assert verdict.relation is Relation.REFUTED and len(verdict.witnesses) == 1


def test_invert_checks():
    ts = gen_dead_ending(2, 2)
    assert not invert_check(dyadic_game(lit("3/4")), ts).witnesses
    assert invert_check(star(), ts).relation is Relation.DISTINGUISHED
    switch = intern((integer_game(1),), (integer_game(-1),))
    verdict = invert_check(switch, ts)
    assert verdict.relation is Relation.DISTINGUISHED
    # the one-rung right end {1 | .} also witnesses the separation
    doubled = add(switch, conjugate(switch))
    x = integer_game(2)  # {1 | .}
    assert outcome_misere(add(doubled, x)) != outcome_misere(x)


# -- context tables: differentials against scans built on the pair search ----------

SCAN = gen_dead_ending(2, 2)
LADDERS = Bounds().ladder_pack


def reference_equiv(g, h, tests):
    for x in tests.members:
        og, oh = outcome_misere_sum(g, x), outcome_misere_sum(h, x)
        if og != oh:
            return Verdict(Relation.DISTINGUISHED, tests.descriptor, (x,), (og, oh))
    return Verdict(Relation.INDISTINGUISHABLE, tests.descriptor)


def reference_geq(g, h, tests):
    geq_fail = leq_fail = None
    for x in tests.members:
        og, oh = outcome_misere_sum(g, x), outcome_misere_sum(h, x)
        if geq_fail is None and not outcome_geq(og, oh):
            geq_fail = x
        if leq_fail is None and not outcome_geq(oh, og):
            leq_fail = x
        if geq_fail is not None and leq_fail is not None:
            return Verdict(Relation.INCOMPARABLE, tests.descriptor, (geq_fail, leq_fail))
    if geq_fail is None:
        return Verdict(Relation.GEQ_CONSISTENT, tests.descriptor)
    return Verdict(Relation.REFUTED, tests.descriptor, (geq_fail,))


def row_pool():
    """Literals, members, composites g + conj(h), and games outside the test set."""
    literals = [dyadic_game(l) for l in number_literals(3, 2)]
    composites = [add(g, conjugate(h)) for g in literals[::6] for h in literals[::9]]
    outside = [
        integer_game(4),
        lambda_game(3),
        intern((), (integer_game(1),)),  # a live left end: not dead-ending
        intern((star(),), (integer_game(2), ZERO)),
    ]
    return literals + list(SCAN.members) + composites + outside


def assert_rows_match_pair_search(g, tests):
    table = tests.table
    for i, x in enumerate(table.contexts):
        assert table.outcome(g, i) == outcome_misere_sum(g, x), (g, x)


def test_table_contexts_are_members_then_followers():
    for tests in (SCAN, LADDERS):
        contexts = tests.table.contexts
        assert contexts[: len(tests)] == tests.members
        closure = set(tests.members)
        for x in tests.members:
            closure |= set(left_options(x) + right_options(x))
        assert set(contexts) >= closure
    assert len(SCAN.table.contexts) == len(SCAN)  # follower-closed already
    assert integer_game(-1) in LADDERS.table.contexts[len(LADDERS):]


@pytest.mark.parametrize("tests", [SCAN, LADDERS], ids=["scan", "ladders"])
def test_table_rows_match_pair_search(tests):
    for g in row_pool():
        assert_rows_match_pair_search(g, tests)


@settings(max_examples=100)
@given(shapes)
def test_table_rows_match_pair_search_on_random_games(shape):
    g = build(shape)
    for tests in (SCAN, LADDERS):
        assert_rows_match_pair_search(g, tests)


@settings(max_examples=100)
@given(shapes)
def test_whole_row_outcomes_match_single_reads_on_random_games(shape):
    g = build(shape)
    for tests in (SCAN, LADDERS):
        table = tests.table
        row = table.outcomes(g)
        assert row == [table.outcome(g, i) for i in range(len(table.contexts))]


def solved(members, requests):
    """A fresh table's rows after solving each request in turn, and the number
    of games in each of its passes."""
    table = ContextTable(members)
    sizes = []
    solve_pass = table._pass
    table._pass = lambda games: sizes.append(len(games)) or solve_pass(games)
    for request in requests:
        table.solve(request)
    return table, sizes


def one_at_a_time(members, games):
    """A fresh table's rows solved one game per pass, options first."""
    closure = set().union(*map(followers, games))
    table, sizes = solved(members, [(g,) for g in sorted(closure)])
    assert sizes == [1] * len(closure)
    return table._rows


def monoid_sums():
    """The generator sums of the `monoid-quotient` workload."""
    gens = [dyadic_game(l) for l in number_literals(3, 1, include_zero=True)]
    return [add(g, h) for g, h in itertools.combinations_with_replacement(gens, 2)]


@pytest.mark.parametrize(
    "tests, games",
    [
        (lambda: gen_number_closure(3, 2, 2), monoid_sums),
        (lambda: LADDERS, row_pool),
        (lambda: SCAN, row_pool),
    ],
    ids=["numbers:j3:v2:t2", "ladders", "dead-ending:b2:k2"],
)
def test_bulk_rows_match_rows_solved_one_game_at_a_time(tests, games):
    ts = tests()
    pool = list(ts.members) + games()
    table, sizes = solved(ts.members, [pool])
    assert max(sizes) == 8 and len(sizes) < len(table._rows) / 2
    assert table._rows == one_at_a_time(ts.members, pool)


@pytest.mark.parametrize("count, sizes", [(1, [1]), (8, [8]), (9, [8, 1])])
def test_a_level_is_solved_in_passes_of_up_to_eight(count, sizes):
    base = [integer_game(n) for n in (-1, 0, 1)]
    sides = [()] + [(x,) for x in base] + list(itertools.combinations(base, 2))
    level = [intern(left, right) for left in sides for right in sides]
    level = [g for g in level if g not in base][:count]
    table, passes = solved(SCAN.members, [base, level])
    assert passes[-len(sizes):] == sizes  # the base's passes come first
    assert table._rows == one_at_a_time(SCAN.members, base + level)
    for g in level:
        for i, x in enumerate(table.contexts):
            assert table.outcome(g, i) == outcome_misere_sum(g, x), (g, x)


def test_deep_row_solves_within_a_shallow_stack():
    deep, table = integer_game(10**4), ContextTable(SCAN.members)
    # over contexts of birthday 2 the rows of the integers are constant from 3
    assert shallow(table.row, deep) == table.row(integer_game(3))
    for i in (0, 40, 90):
        x = table.contexts[i]
        assert table.outcome(deep, i) == shallow(outcome_misere_sum, deep, x)


@pytest.mark.parametrize(
    "tests",
    [SCAN, LADDERS, gen_dead_end_closure(2, 2, 2)],
    ids=["scan", "ladders", "closure"],
)
def test_scans_match_linear_reference(tests):
    half = dyadic_game(lit("1/2"))
    pool = [dyadic_game(l) for l in number_literals(2, 1)] + [
        ZERO,
        star(),
        lambda_game(2),
        intern((integer_game(1),), (integer_game(-1),)),
        add(half, conjugate(dyadic_game(lit("3/4")))),
        SCAN.members[40],
        SCAN.members[90],
    ]
    for g in pool:
        for h in pool:
            expected = reference_equiv(g, h, tests)
            assert equiv_mod(g, h, tests) == expected, (g, h)
            assert geq_mod(g, h, tests) == reference_geq(g, h, tests), (g, h)
            same = tests.table.signature(g) == tests.table.signature(h)
            assert same == (not expected.witnesses), (g, h)


def reference_classes(generators, max_terms, tests):
    """The class loop the signature partition replaced: first matching representative."""
    gens = sort_games(set(generators))
    sums = {
        add_all(combo)
        for size in range(max_terms + 1)
        for combo in itertools.combinations_with_replacement(gens, size)
    }
    classes = []
    for s in sort_games(sums):
        for cls in classes:
            if not reference_equiv(s, cls[0], tests).witnesses:
                cls.append(s)
                break
        else:
            classes.append([s])
    return classes


@pytest.mark.parametrize(
    "generators, tests",
    [
        (
            lambda: [integer_game(n) for n in (-1, 0, 1)],
            lambda: gen_dead_end_closure(2, 2, 2),
        ),
        (
            lambda: [integer_game(n) for n in range(-2, 3)],
            lambda: gen_dead_end_closure(3, 2, 2),
        ),
        (
            lambda: [dyadic_game(l) for l in number_literals(2, 1, include_zero=True)],
            lambda: gen_number_closure(2, 1, 2),
        ),
        (  # too few contexts: 10 of the 25 products fail and 0 + 0 is no inverse pair
            lambda: [dyadic_game(l) for l in number_literals(2, 1, include_zero=True)],
            lambda: gen_dead_ending(1, 2),
        ),
    ],
    ids=["golden", "integers", "dyadics", "dyadics-coarse"],
)
def test_signature_partition_matches_class_loop(generators, tests):
    gens, ts = generators(), tests()
    report = quotient_monoid(gens, 2, ts)
    expected = reference_classes(gens, 2, ts)
    assert [cls.members for cls in report.classes] == expected
    assert [cls.representative for cls in report.classes] == [c[0] for c in expected]
    # products and inverses as the equivalence scans they replaced found them
    by_label = {cls.label: cls.representative for cls in report.classes}
    verified, inverses = {}, []
    for la in sorted(by_label):
        for lb in sorted(by_label):
            combined = add(by_label[la], by_label[lb])
            target = by_label[la + lb] if la + lb in by_label else integer_game(la + lb)
            verified[(la, lb)] = not reference_equiv(combined, target, ts).witnesses
            if la <= lb and la + lb == report.identity_label:
                if not reference_equiv(combined, ZERO, ts).witnesses:
                    inverses.append((la, lb))
    assert report.product_verified == verified
    assert report.inverse_pairs == inverses


# -- closed forms ---------------------------------------------------------------


def test_compare_numbers_examples():
    assert compare_numbers_mod_E(lit("1/2"), lit("3/4")).relation is Relation.INCOMPARABLE
    assert compare_numbers_mod_E(lit(1), lit("1/2")).relation is Relation.GREATER
    assert compare_numbers_mod_E(lit(2), lit(1)).relation is Relation.INCOMPARABLE
    assert compare_numbers_mod_E(lit("3/4"), lit("3/8")).relation is Relation.GREATER
    assert compare_numbers_mod_E(lit("3/8"), lit("3/4")).relation is Relation.LESS
    assert compare_numbers_mod_E(lit("1/2"), lit("1/2")).relation is Relation.EQUIVALENT
    assert compare_numbers_mod_E(lit("-1/2"), lit("-3/4")).relation is Relation.INCOMPARABLE
    assert compare_numbers_mod_E(lit("-3/4"), lit(-1)).relation is Relation.GREATER
    assert compare_numbers_mod_E(lit(-1), lit("-3/4")).relation is Relation.LESS
    assert compare_numbers_mod_E(lit("1/2"), lit("-1/2")).relation is Relation.INCOMPARABLE
    assert compare_numbers_mod_E(lit(0), lit("1/2")).relation is Relation.INCOMPARABLE


def mirrored_compare_numbers(a, b):
    """The hand-mirrored comparison that the conjugated negative branch replaced."""
    if a.value == b.value:
        return Relation.EQUIVALENT
    if a.value > 0 and b.value > 0:
        la, lb = a.left_length(), b.left_length()
        if a.value > b.value and la <= lb:
            return Relation.GREATER
        if b.value > a.value and lb <= la:
            return Relation.LESS
        return Relation.INCOMPARABLE
    if a.value < 0 and b.value < 0:
        ra, rb = a.right_length(), b.right_length()
        if a.value > b.value and rb <= ra:
            return Relation.GREATER
        if b.value > a.value and ra <= rb:
            return Relation.LESS
        return Relation.INCOMPARABLE
    return Relation.INCOMPARABLE


def test_compare_numbers_matches_mirrored_branches():
    literals = number_literals(4, 2, include_zero=True)
    assert len(literals) == 65
    for a in literals:
        for b in literals:
            expected = Verdict(mirrored_compare_numbers(a, b), "dead-ending", exact=True)
            assert compare_numbers_mod_E(a, b) == expected, (a, b)


def test_verdict_and_test_set_record_semantics():
    verdict = Verdict(Relation.REFUTED, "dead-ending:b2:k2", (3,))
    twin = Verdict(Relation.REFUTED, "dead-ending:b2:k2", (3,), (), False)
    assert verdict == twin and hash(verdict) == hash(twin)
    assert verdict != Verdict(Relation.REFUTED, "dead-ending:b2:k2")
    assert verdict != Verdict(Relation.REFUTED, "dead-ending:b2:k2", (3,), exact=True)
    with pytest.raises(AttributeError):
        verdict.exact = True
    tests = TestSet("ladders", (ZERO, star()))
    same = TestSet("ladders", (ZERO, star()))
    assert tests == same and hash(tests) == hash(same)
    assert tests != TestSet("other", (ZERO, star()))
    assert tests.table is tests.table and tests.table is not same.table
    assert repr(tests) == f"TestSet(descriptor='ladders', members=(0, {star()}))"
    with pytest.raises(AttributeError):
        tests.members = ()


def test_compare_integers_examples():
    assert compare_integers_mod_dead_end_closure(-1, 0).relation is Relation.GREATER
    assert compare_integers_mod_dead_end_closure(1, 1).relation is Relation.EQUIVALENT
    assert compare_integers_mod_dead_end_closure(2, 1) == Verdict(
        Relation.LESS, "dead-end closure", exact=True
    )


def test_reduce_end_to_integer():
    g = intern((ZERO, integer_game(1)), ())
    assert reduce_end_to_integer(g) == NumberLiteral(1, 0)
    assert reduce_end_to_integer(integer_game(3)) == NumberLiteral(3, 0)
    assert reduce_end_to_integer(ZERO) == NumberLiteral(0, 0)
    with pytest.raises(ValueError):
        reduce_end_to_integer(star())
    ts = gen_dead_end_closure(2, 2, 2)
    for end in gen_dead_ends(2, 2):
        target = dyadic_game(reduce_end_to_integer(end))
        assert not equiv_mod(end, target, ts).witnesses


# -- monoid ----------------------------------------------------------------------


def integer_monoid_report():
    gens = [integer_game(n) for n in range(-2, 3)]
    tests = gen_dead_end_closure(3, 2, 2)
    return quotient_monoid(gens, 2, tests)


def test_monoid_requires_conjugation_closure():
    with pytest.raises(ValueError):
        quotient_monoid([integer_game(1)], 2, gen_dead_end_closure(2, 2, 2))


def test_monoid_rejects_non_number_generators():
    with pytest.raises(ValueError):
        quotient_monoid([star()], 1, gen_dead_end_closure(2, 2, 2))


def test_integer_monoid_structure():
    report = integer_monoid_report()
    assert report.consistent
    assert sorted(c.label for c in report.classes) == list(range(-4, 5))
    assert report.identity_label == 0
    assert all(result == a + b for (a, b), result in report.product.items())
    assert len(report.product) == 81
    assert all(report.product_verified.values())
    zero_class = next(c for c in report.classes if c.label == 0)
    assert ZERO in zero_class.members
    assert add(integer_game(1), integer_game(-1)) in zero_class.members
    outcomes = {c.label: c.outcome for c in report.classes}
    for label, outcome in outcomes.items():
        expected = Outcome.N if label == 0 else Outcome.L if label < 0 else Outcome.R
        assert outcome == expected
    assert report.inverse_pairs == [(-4, 4), (-3, 3), (-2, 2), (-1, 1), (0, 0)]
    for (a, b), relation in report.order.items():
        assert relation == ("geq-consistent" if a < b else "refuted")


def test_dyadic_monoid_isomorphic():
    gens = [dyadic_game(l) for l in number_literals(2, 1, include_zero=True)]
    report = quotient_monoid(gens, 2, gen_number_closure(2, 1, 2))
    reference = integer_monoid_report()
    assert sorted(c.label for c in report.classes) == sorted(
        c.label for c in reference.classes
    )
    assert {c.label: c.outcome for c in report.classes} == {
        c.label: c.outcome for c in reference.classes
    }
    assert report.product == reference.product
    assert all(report.product_verified.values())
    assert report.inverse_pairs == reference.inverse_pairs
    assert report.order == reference.order


def test_monoid_product_independent_of_representatives():
    report = integer_monoid_report()
    tests = gen_dead_end_closure(3, 2, 2)
    cls = next(c for c in report.classes if c.label == 0)
    assert len(cls.members) >= 2
    for alternate in cls.members:
        for other in report.classes[:3]:
            combined = add(alternate, other.representative)
            assert not equiv_mod(combined, other.representative, tests).witnesses


def test_monoid_report_serializes():
    import json

    data = integer_monoid_report().to_dict()
    assert json.loads(json.dumps(data)) == data
