"""Command-line interface: exit codes, output forms, golden JSON envelopes."""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import deadending
from deadending import cli
from deadending.cli import main
from deadending.games import store_size

from depth import shallow

GOLDEN = pathlib.Path(__file__).parent / "golden"
PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"

GOLDEN_CASES = {
    "outcome_left_end.json": ["outcome", "{.|1}", "--json"],
    "equiv_half_vs_one.json": ["equiv", "1/2", "1", "--tests", "dead-ending:b2:k2", "--json"],
    "equiv_indistinguishable.json": ["equiv", "{-1|1}", "0", "--tests", "dead-ending:b2:k2",
                                     "--json"],
    "compare_closed_form.json": ["compare", "1/2", "3/4", "--closed-form", "--json"],
    "compare_closed_form_integers.json": ["compare", "2", "1", "--closed-form", "integers",
                                          "--json"],
    "compare_geq_consistent.json": ["compare", "1", "1/2", "--tests", "dead-ending:b2:k2",
                                    "--json"],
    "compare_refuted.json": ["compare", "1", "0", "--tests", "dead-end-closure:b3:k2:t2",
                             "--json"],
    "compare_incomparable.json": ["compare", "0", "1", "--tests", "dead-ending:b2:k2", "--json"],
    "universe_day1.json": ["universe", "dead-ending:b1:k2", "--list", "--json"],
    "verify_star_squared.json": ["verify", "fact:star-squared", "--json"],
    "verify_all_small.json": ["verify", "all", "--b", "2", "--t", "2", "--j", "2", "--v", "1",
                              "--json"],
    "verify_all_budget_zero.json": ["verify", "all", "--budget", "0", "--json"],
    "monoid_small.json": ["monoid", "--generators", "ints:-1..1", "--terms", "2",
                          "--tests", "dead-end-closure:b2:k2:t2", "--json"],
}

# Envelopes that render games whose options were first interned in another
# order by other tests: `render` lists options in id order, so these are
# compared as a fresh process prints them.  The default `verify all` is among
# them, so that a fresh run at the default bounds is pinned byte for byte.
FRESH_GOLDEN_CASES = {
    "monoid_dyadics.json": ["monoid", "--generators", "dyadics:j3:v1", "--terms", "2",
                            "--tests", "numbers:j3:v2:t2", "--json"],
    "monoid_dead_ends.json": ["monoid", "--generators", "{0|};{|0};{0,1|};{|0,-1};0",
                              "--terms", "2", "--tests", "dead-end-closure:b2:k2:t2",
                              "--json"],
    "verify_all_default.json": ["verify", "all", "--json"],
}


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def scrub(node):
    if isinstance(node, dict):
        return {k: (0 if k == "duration_ms" else scrub(v)) for k, v in node.items()}
    if isinstance(node, list):
        return [scrub(x) for x in node]
    return node


def test_outcome_text_and_exit():
    code, out, _ = run_cli(["outcome", "{.|1}"])
    assert code == 0 and out.strip() == "N-"
    code, out, _ = run_cli(["outcome", "0", "--normal"])
    assert code == 0 and out.strip() == "P+"


def test_lengths_text():
    code, out, _ = run_cli(["lengths", "-3/4"])
    assert code == 0 and out.strip() == "left=undefined right=2"


def test_classify_text():
    code, out, _ = run_cli(["classify", "3"])
    assert code == 0
    assert "dead-right-end=yes" in out and "birthday=3" in out


def test_equiv_exit_codes():
    code, out, _ = run_cli(["equiv", "{-1|1}", "0", "--tests", "dead-ending:b2:k2"])
    assert code == 0 and "indistinguishable up to dead-ending:b2:k2" in out
    code, out, _ = run_cli(["equiv", "1/2", "1", "--tests", "dead-ending:b2:k2"])
    assert code == 1 and "distinguished" in out


def test_compare_closed_form_exits():
    code, out, _ = run_cli(["compare", "1/2", "3/4", "--closed-form"])
    assert code == 1 and out.strip() == "incomparable"
    code, out, _ = run_cli(["compare", "1", "1/2", "--closed-form"])
    assert code == 0 and out.strip() == "greater"
    code, out, _ = run_cli(["compare", "-1", "0", "--closed-form", "integers"])
    assert code == 0 and out.strip() == "greater"
    code, out, _ = run_cli(["compare", "2", "1", "--closed-form", "integers"])
    assert code == 0 and out.strip() == "less"


def test_compare_tests_based():
    code, out, _ = run_cli(["compare", "0", "1", "--tests", "dead-ending:b2:k2"])
    assert code == 1 and "incomparable" in out
    code, out, _ = run_cli(["compare", "1", "1/2", "--tests", "dead-ending:b2:k2"])
    assert code == 0 and "geq consistent" in out
    code, _, err = run_cli(["compare", "1", "1/2"])
    assert code == 2 and "compare needs" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["compare", "1/2", "1", "--closed-form", "integers"], "g = '1/2'"),
        (["compare", "1", "1/2", "--closed-form", "integers"], "h = '1/2'"),
        (["compare", "*", "1", "--closed-form"], "g = '*'"),
        (["compare", "1", "*", "--closed-form"], "h = '*'"),
    ],
)
def test_closed_form_names_the_argument_out_of_its_domain(argv, named):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert named in err and "line" not in err


def test_universe_count_and_budget():
    code, out, _ = run_cli(["universe", "dead-ending:b2:k2"])
    assert code == 0 and "107 members" in out
    code, _, err = run_cli(["universe", "dead-ending:b3:k2"])
    assert code == 3 and "33385305" in err
    code, _, err = run_cli(["universe", "dead-end-closure:b7:k2:t1"])
    assert code == 3 and "dead-ends:b7:k2" in err


def test_universe_number_closure_over_budget_exits_3():
    # refused on the literal count, before integer_game(-2000) is built
    code, _, err = run_cli(["universe", "numbers:j0:v2000:t2"])
    assert code == 3 and "8006001" in err


REFUSED = "budget exceeded: test set {} needs {} members, which exceeds the budget of 500000"


@pytest.mark.parametrize(
    "argv, stderr",
    [
        # only an uncapped dead-ending universe can take a prefix instead
        (
            ["universe", "dead-ending:b3:k2"],
            REFUSED.format("dead-ending:b3:k2", 33385305)
            + "; pass a cap to take a deterministic prefix",
        ),
        (
            ["universe", "dead-ending:b3:k2:cap500001"],
            REFUSED.format("dead-ending:b3:k2:cap500001", 500001),
        ),
        (
            ["universe", "dead-end-closure:b7:k2:t1"],
            REFUSED.format("dead-ends:b7:k2", 5200677),
        ),
        (
            ["universe", "numbers:j0:v2000:t2"],
            REFUSED.format("numbers:j0:v2000:t2", 8006001),
        ),
        (
            ["monoid", "--generators", "ints:-5..5", "--terms", "12", "--tests", "dead-ending:b1:k2"],
            REFUSED.format("monoid generator sums", 1352078),
        ),
    ],
)
def test_budget_refusal_hints_a_cap_only_where_one_helps(argv, stderr):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (3, "", stderr + "\n")


def test_verify_skips_only_the_claims_whose_test_set_is_refused():
    code, out, _ = run_cli(["verify", "all", "--b", "7", "--json"])
    assert code == 3
    reports = json.loads(out)["result"]["reports"]
    skipped = [r for r in reports if r["status"] == "skipped"]
    assert len(reports) == 23 and len(skipped) == 7
    assert all(r["status"] == "pass" for r in reports if r not in skipped)
    for report in skipped:
        assert "dead-ends:b7:k2" in report["details"]["reason"], report["claim"]


def test_verify_reasons_offer_no_cap():
    # verify takes no cap, so its reasons offer none; `universe` does
    code, out, _ = run_cli(["verify", "all", "--eb", "3", "--json"])
    assert code == 3
    reports = json.loads(out)["result"]["reports"]
    reasons = [r["details"]["reason"] for r in reports if r["status"] == "skipped"]
    refusal = REFUSED.format("dead-ending:b3:k2", 33385305)
    assert reasons == [refusal.removeprefix("budget exceeded: ")] * 10


def test_parse_error_is_usage_error():
    code, _, err = run_cli(["outcome", "3/6"])
    assert code == 2 and "power of two" in err
    code, _, err = run_cli(["outcome", "{0|"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["outcome", "²"], "error: unexpected character '²' at line 1, column 1\n"),
        (["outcome", "1/٣"], "error: unexpected character '٣' at line 1, column 3\n"),
        (
            ["universe", "dead-ending:b²:k2"],
            "error: malformed descriptor field 'b²' in 'dead-ending:b²:k2'\n",
        ),
    ],
    ids=["superscript-two", "arabic-indic-three", "descriptor"],
)
def test_non_ascii_digits_are_usage_errors(argv, message):
    assert run_cli(argv) == (2, "", message)


@pytest.mark.parametrize(
    "text, column",
    [("7" * 5000, 1), ("1/" + "8" * 5000, 3), ("lambda(" + "7" * 5000 + ")", 8)],
    ids=["numerator", "denominator", "lambda"],
)
def test_an_over_long_numeral_exits_3_with_its_position(text, column):
    # past 4,300 digits int() would refuse it with exit 2 and no position
    assert run_cli(["outcome", text, "--json"]) == (
        3,
        "",
        f"budget exceeded: numeral of 5000 digits at line 1, column {column} "
        "exceeds the limit of 4300 digits\n",
    )


def test_bad_descriptor_is_usage_error():
    code, _, err = run_cli(["equiv", "0", "0", "--tests", "no-such:b1"])
    assert code == 2


def test_verify_single_claim():
    code, out, _ = run_cli(["verify", "lemma:dead-end-outcome"])
    assert code == 0
    assert "PASS lemma:dead-end-outcome" in out
    assert "1 pass, 0 refuted, 0 skipped" in out


def test_verify_unknown_claim():
    code, _, err = run_cli(["verify", "thm:unheard-of"])
    assert code == 2 and "unknown claim" in err


def test_verify_negative_bound_is_usage_error():
    code, out, err = run_cli(["verify", "all", "--b", "-1"])
    assert code == 2 and out == ""
    assert "birthday must be >= 0" in err


def test_verify_with_no_options_is_usage_error():
    # refused on the bound before any claim runs, naming the bound
    code, out, err = run_cli(["verify", "all", "--k", "0"])
    assert (code, out, err) == (2, "", "error: bound options must be >= 1, got 0\n")


def test_monoid_negative_terms_is_usage_error():
    argv = ["monoid", "--generators", "ints:-1..1", "--terms", "-1",
            "--tests", "dead-ending:b1:k1"]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "max_terms must be >= 0" in err


@pytest.mark.parametrize("spec", ["dyadics:j3", "dyadics:jx:v1"])
def test_malformed_dyadic_generators_are_usage_errors(spec):
    argv = ["monoid", "--generators", spec, "--terms", "2", "--tests", "numbers:j3:v2:t2"]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "spec, count", [("dyadics:j40:v1", (1 << 41) + 1), ("ints:0..999999", 1_000_000)]
)
def test_generator_specs_over_the_member_budget_exit_3_before_building(spec, count):
    argv = ["monoid", "--generators", spec, "--terms", "1", "--tests", "dead-ending:b1:k1"]
    before = store_size()
    started = time.monotonic()
    code, out, err = run_cli(argv)
    assert time.monotonic() - started < 1
    assert code == 3 and out == ""
    assert err.strip() == REFUSED.format(spec, count)
    assert store_size() == before


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["outcome", "99999999999"], "ints:0..99999999999"),
        (["verify", "all", "--j", "60", "--json"], ":j60:"),
        (["verify", "all", "--v", "100000", "--json"], ":v100000"),
        (["outcome", "lambda(99999999999)"], "ladder:r99999999999:d1"),
        # a count of more than 4,300 digits is written by its size
        (["verify", "all", "--j", "1000000", "--json"], ":j1000000:"),
        # 262,144 literals fit the budget, their pairs do not
        (["verify", "cor:numbers-distinct", "--j", "16", "--json"], "literal pairs:j16:v2"),
        (["verify", "thm:number-order", "--j", "16", "--json"], "literal pairs:j16:v2"),
        (["verify", "thm:geq-implies-normal", "--j", "16", "--json"], "pool pairs:j16:v2"),
        # and the positions of their sums g + conj(g) do not either
        (["verify", "thm:numbers-invertible", "--j", "16", "--json"], "inverse sums:j16:v2"),
        # the four claims together, which list the literals once
        (["verify", "all", "--j", "16", "--json"], ":j16:"),
    ],
)
def test_unbounded_probes_exit_3_within_a_second_in_a_fresh_process(argv, bound):
    # refused on a count: the integer chain, the ladder, the literal lists and
    # their pairs, the number sums
    started = time.monotonic()
    child = run_child("deadending", argv, timeout=20)
    assert time.monotonic() - started < 1, argv
    assert child.returncode == 3, child.stderr
    if argv[0] == "outcome":
        assert bound in child.stderr
        return
    reports = json.loads(child.stdout)["result"]["reports"]
    reasons = [r["details"]["reason"] for r in reports if r["status"] == "skipped"]
    assert reasons and all(bound in reason for reason in reasons)
    assert all(r["status"] in ("pass", "skipped") for r in reports)


def test_a_refused_integer_builds_nothing():
    before = store_size()
    code, out, err = run_cli(["outcome", "99999999999"])
    assert (code, out) == (3, "")
    assert err.strip() == REFUSED.format("ints:0..99999999999", 10**11)
    assert store_size() == before


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_verify_budget_must_be_a_finite_number(budget):
    # a nan budget never compares as spent, so it would run every claim
    code, out, err = run_cli(["verify", "all", f"--budget={budget}"])
    assert code == 2 and out == ""
    assert "budget must be a finite number" in err


def test_verify_flag_defaults_are_the_bounds_defaults():
    from deadending.claims import Bounds
    from deadending.cli import _bounds_from, _parser

    assert _bounds_from(_parser().parse_args(["verify", "all"])) == Bounds()


def test_verify_budget_zero_exits_3():
    code, out, _ = run_cli(["verify", "all", "--budget", "0"])
    assert code == 3
    assert "23 skipped" in out


def test_verify_bound_too_small_for_a_search_exits_3():
    code, out, _ = run_cli(["verify", "fact:star-squared", "--eb", "0", "--json"])
    assert code == 3
    (report,) = json.loads(out)["result"]["reports"]
    assert report["status"] == "skipped"
    assert report["details"]["reason"].startswith("scan_birthday=0 too small")


def test_verify_with_no_number_literals_runs():
    # --v 0 leaves the number claims no literals: their closure is {0}
    code, out, err = run_cli(["verify", "all", "--v", "0"])
    assert code in (0, 3), err
    assert err == "" and " 0 refuted," in out


def test_back_to_back_calls_match_fresh_parsers():
    # one process reuses its parser; no flag or subcommand may carry over
    from deadending.cli import _parser

    sequence = [
        ["outcome", "1/2", "--normal"],
        ["outcome", "1/2"],
        ["outcome", "{.|1}", "--json"],
        ["lengths", "3/4"],
        ["compare", "1/2", "3/4", "--closed-form", "integers"],
        ["compare", "1/2", "3/4", "--closed-form"],
        ["compare", "1", "1/2", "--tests", "dead-ending:b1:k2", "--json"],
        ["equiv", "1/2", "1", "--tests", "dead-ending:b1:k2"],
        ["outcome", "1/2", "--bogus"],
        ["classify", "*"],
        ["verify", "lemma:dead-end-outcome", "--b", "2"],
        ["verify", "lemma:dead-end-outcome"],
    ]
    warm = [run_cli(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        _parser.cache_clear()
        fresh.append(run_cli(argv))
    normalize = lambda out: re.sub(r"\d+\.\d\ds|\"duration_ms\": \d+", "", out)
    for argv, (code, out, err), (fcode, fout, ferr) in zip(sequence, warm, fresh):
        assert (code, normalize(out), err) == (fcode, normalize(fout), ferr), argv
    assert warm[0][1].strip() == "L+" and warm[1][1].strip() == "R-"


def test_json_envelope_schema():
    for argv in GOLDEN_CASES.values():
        code, out, _ = run_cli(argv)
        data = json.loads(out)
        assert set(data) == {
            "command",
            "inputs",
            "result",
            "witnesses",
            "bounds",
            "duration_ms",
        }


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_files(name):
    argv = GOLDEN_CASES[name]
    code, out, _ = run_cli(argv)
    data = scrub(json.loads(out))
    data["_exit_code"] = code
    expected = json.loads((GOLDEN / name).read_text())
    assert data == expected


@pytest.mark.parametrize("name", sorted(FRESH_GOLDEN_CASES))
def test_golden_files_from_a_fresh_process(name):
    child = run_child("deadending", FRESH_GOLDEN_CASES[name])
    data = scrub(json.loads(child.stdout))
    data["_exit_code"] = child.returncode
    assert data == json.loads((GOLDEN / name).read_text())


def run_child(module, argv, timeout=None):
    """Run `python -m module argv` in a fresh process."""
    # the child imports this package even when it is not installed
    package_root = str(pathlib.Path(deadending.__file__).parents[1])
    path = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, check=False, env=env, timeout=timeout,
    )


EQUIV_ARGV = ["equiv", "1/2", "1", "--tests", "dead-ending:b2:k2", "--json"]


def test_cli_deterministic_across_processes():
    runs = [run_child("deadending.cli", EQUIV_ARGV) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 1
    first = scrub(json.loads(runs[0].stdout))
    second = scrub(json.loads(runs[1].stdout))
    assert first == second


def test_python_dash_m_deadending_runs_the_cli():
    package = run_child("deadending", EQUIV_ARGV)
    module = run_child("deadending.cli", EQUIV_ARGV)
    assert package.returncode == module.returncode == 1  # the exit code passes through
    assert scrub(json.loads(package.stdout)) == scrub(json.loads(module.stdout))
    usage = run_child("deadending", [])
    assert usage.returncode == 2 and "usage" in usage.stderr


def test_internal_error_exits_4_with_one_line(monkeypatch):
    def broken(game):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(cli, "outcome_misere", broken)
    code, out, err = run_cli(["outcome", "1/2", "--json"])
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: solver fault\n"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deep_benchmark_queries_match_reference_answers():
    # answered at the interpreter's default recursion limit
    workloads = load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())["queries"]
    assert len(workloads.DEEP_QUERIES) == 6
    for argv in workloads.DEEP_QUERIES:
        code, out, err = run_cli(argv)
        assert code == 0, (argv[:2], err)
        digest = workloads.answer_digest(code, out)
        assert digest == reference[workloads.query_key(argv)], argv[:2]


def test_whole_benchmark_pool_matches_reference_answers():
    # one process, as a query session runs: renders share nothing between
    # calls, and repeated test sets come from the generate cache
    workloads = load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())["queries"]
    pool = workloads.query_pool()
    assert len(pool) == 1000
    for argv in pool:
        code, out, err = run_cli(argv)
        digest = workloads.answer_digest(code, out)
        assert digest == reference[workloads.query_key(argv)], (argv, err)


def test_deep_inputs_answer_within_a_shallow_stack():
    n = 10**4
    braces = "{" * (n + 1) + "|}" * (n + 1)  # the integer n
    cases = [  # (deep input, shallow input with the same answer, result keys)
        (["outcome", str(n)], ["outcome", "3"], ["outcome"]),
        (["outcome", str(-n), "--normal"], ["outcome", "-3", "--normal"], ["outcome"]),
        (["outcome", f"lambda({n})"], ["outcome", "lambda(3)"], ["outcome"]),
        (["outcome", braces], ["outcome", "3"], ["outcome"]),
        (["classify", braces], ["classify", "3"], ["dead_ending", "dicot"]),
        (["lengths", str(-n)], ["lengths", "-3"], ["left"]),
    ]
    for deep, small, keys in cases:
        code, out, err = shallow(run_cli, deep + ["--json"])
        assert code == 0, (deep[:2], err)
        result = json.loads(out)["result"]
        expected = json.loads(run_cli(small + ["--json"])[1])["result"]
        assert {k: result[k] for k in keys} == {k: expected[k] for k in keys}, deep[:2]
    assert result == {"left": None, "right": n, "game": str(-n)}
