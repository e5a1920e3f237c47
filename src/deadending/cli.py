"""Command-line front end over the engine.

Exit codes: 0 for a successful computation (or an all-pass verification run),
1 when the computed answer is a refutation (distinguished, refuted, or
incomparable), 2 for usage or notation errors, 3 when a generation or
wall-clock budget was exceeded or a verify bound was too small for a search
to settle a claim (a `skipped` report whose details.reason names the bound),
4 for an internal error (any other exception, reported on one line).  All
diagnostics go to stderr; --json emits a stable envelope {command, inputs,
result, witnesses, bounds, duration_ms}.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from typing import Optional

# game expressions may begin "-3" or "-3/4"; teach argparse that any
# dash-digit token is a value, not an option
_LEADING_DASH_EXPR = re.compile(r"^-\d.*$")

from .claims import Bounds, run_all, run_claim
from .games import (
    GameId,
    as_integer,
    as_number,
    birthday,
    dyadic_game,
    integer_game,
    is_dead_ending,
    is_dead_left_end,
    is_dead_right_end,
    is_dicot,
    is_left_end,
    is_right_end,
    left_length,
    number_literals,
    right_length,
)
from .notation import ParseError, parse_game, render
from .outcomes import outcome_misere, outcome_normal
from .universes import (
    BudgetExceededError,
    Comparison,
    GeqConsistentUpTo,
    IndistinguishableUpTo,
    Refuted,
    compare_integers_mod_dead_end_closure,
    compare_numbers_mod_E,
    equiv_mod,
    generate,
    geq_mod,
    quotient_monoid,
)

_EXIT_OK = 0
_EXIT_REFUTED = 1
_EXIT_USAGE = 2
_EXIT_BUDGET = 3
_EXIT_INTERNAL = 4


class _Emitter:
    def __init__(self, command: str, inputs: dict, as_json: bool):
        self.command = command
        self.inputs = inputs
        self.as_json = as_json
        self.started = time.monotonic()
        self.lines: list[str] = []
        self.result: dict = {}
        self.witnesses: list[dict] = []
        self.bounds: dict = {}

    def say(self, line: str) -> None:
        self.lines.append(line)

    def finish(self, code: int) -> int:
        if self.as_json:
            envelope = {
                "command": self.command,
                "inputs": self.inputs,
                "result": self.result,
                "witnesses": self.witnesses,
                "bounds": self.bounds,
                "duration_ms": int((time.monotonic() - self.started) * 1000),
            }
            print(json.dumps(envelope, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
        return code


# verify's flag for each Bounds field it sets; the defaults are Bounds' own
_BOUND_FLAGS = {
    "b": ("birthday", "birthday cap for ends/closures"),
    "k": ("options", "per-side option cap"),
    "t": ("terms", "summand cap"),
    "j": ("exponent", "number exponent cap"),
    "v": ("magnitude", "number magnitude cap"),
    "eb": ("scan_birthday", "birthday cap for dead-ending context scans"),
    "seed": ("seed", "seed for sampled checks"),
}


def _bounds_from(ns: argparse.Namespace) -> Bounds:
    fields = {name: getattr(ns, flag) for flag, (name, _) in _BOUND_FLAGS.items()}
    return Bounds(**fields)


def _outcome_text(game: GameId, normal: bool) -> str:
    if normal:
        return outcome_normal(game).value + "+"
    return outcome_misere(game).value + "-"


def _cmd_outcome(ns: argparse.Namespace) -> int:
    out = _Emitter("outcome", {"expr": ns.expr, "normal": ns.normal}, ns.json)
    game = parse_game(ns.expr)
    text = _outcome_text(game, ns.normal)
    out.result = {"outcome": text, "game": render(game)}
    out.say(text)
    return out.finish(_EXIT_OK)


def _cmd_lengths(ns: argparse.Namespace) -> int:
    out = _Emitter("lengths", {"expr": ns.expr}, ns.json)
    game = parse_game(ns.expr)
    left = left_length(game)
    right = right_length(game)
    out.result = {"left": left, "right": right, "game": render(game)}
    fmt = lambda v: "undefined" if v is None else str(v)
    out.say(f"left={fmt(left)} right={fmt(right)}")
    return out.finish(_EXIT_OK)


def _cmd_classify(ns: argparse.Namespace) -> int:
    out = _Emitter("classify", {"expr": ns.expr}, ns.json)
    game = parse_game(ns.expr)
    flags = {
        "birthday": birthday(game),
        "left_end": is_left_end(game),
        "right_end": is_right_end(game),
        "dead_left_end": is_dead_left_end(game),
        "dead_right_end": is_dead_right_end(game),
        "dead_ending": is_dead_ending(game),
        "dicot": is_dicot(game),
    }
    out.result = dict(flags, game=render(game))
    yn = lambda v: "yes" if v else "no"
    out.say(
        f"birthday={flags['birthday']} left-end={yn(flags['left_end'])} "
        f"right-end={yn(flags['right_end'])} dead-left-end={yn(flags['dead_left_end'])} "
        f"dead-right-end={yn(flags['dead_right_end'])} "
        f"dead-ending={yn(flags['dead_ending'])} dicot={yn(flags['dicot'])}"
    )
    return out.finish(_EXIT_OK)


def _cmd_equiv(ns: argparse.Namespace) -> int:
    out = _Emitter(
        "equiv", {"g": ns.g, "h": ns.h, "tests": ns.tests}, ns.json
    )
    g = parse_game(ns.g)
    h = parse_game(ns.h)
    tests = generate(ns.tests)
    out.bounds = {"tests": tests.descriptor, "contexts": len(tests)}
    verdict = equiv_mod(g, h, tests)
    if isinstance(verdict, IndistinguishableUpTo):
        out.result = {"verdict": "indistinguishable-up-to", "tests": verdict.descriptor}
        out.say(f"indistinguishable up to {verdict.descriptor}")
        return out.finish(_EXIT_OK)
    out.result = {"verdict": "distinguished"}
    witness = render(verdict.witness)
    first, second = verdict.first_outcome.value, verdict.second_outcome.value
    out.witnesses = [{"game": witness, "outcomes": [first + "-", second + "-"]}]
    out.say(f"distinguished by {witness} [{first}- vs {second}-]")
    return out.finish(_EXIT_REFUTED)


def _closed_form_compare(ns: argparse.Namespace, out: _Emitter) -> int:
    g = parse_game(ns.g)
    h = parse_game(ns.h)
    if ns.closed_form == "integers":
        n, m = as_integer(g), as_integer(h)
        if n is None or m is None:
            raise ParseError("integer closed form needs integer games", 1, 1)
        relation = compare_integers_mod_dead_end_closure(n, m)
        universe = "dead-end closure"
    else:
        a, b = as_number(g), as_number(h)
        if a is None or b is None:
            raise ParseError("number closed form needs canonical numbers", 1, 1)
        relation = compare_numbers_mod_E(a, b)
        universe = "dead-ending"
    out.result = {"relation": relation.value, "universe": universe}
    out.say(relation.value)
    return out.finish(
        _EXIT_REFUTED if relation == Comparison.INCOMPARABLE else _EXIT_OK
    )


def _cmd_compare(ns: argparse.Namespace) -> int:
    out = _Emitter(
        "compare",
        {
            "g": ns.g,
            "h": ns.h,
            "tests": ns.tests,
            "closed_form": ns.closed_form,
        },
        ns.json,
    )
    if ns.closed_form is not None:
        return _closed_form_compare(ns, out)
    if ns.tests is None:
        print("compare needs --tests DESC or --closed-form", file=sys.stderr)
        return _EXIT_USAGE
    g = parse_game(ns.g)
    h = parse_game(ns.h)
    tests = generate(ns.tests)
    out.bounds = {"tests": tests.descriptor, "contexts": len(tests)}
    verdict = geq_mod(g, h, tests)
    if isinstance(verdict, GeqConsistentUpTo):
        out.result = {"verdict": "geq-consistent-up-to", "tests": verdict.descriptor}
        out.say(f"geq consistent up to {verdict.descriptor}")
        return out.finish(_EXIT_OK)
    if isinstance(verdict, Refuted):
        out.result = {"verdict": "refuted"}
        witness = render(verdict.witness)
        out.witnesses = [{"game": witness}]
        out.say(f"refuted by {witness}")
        return out.finish(_EXIT_REFUTED)
    out.result = {"verdict": "incomparable"}
    geq_fail = render(verdict.witness_geq_fail)
    leq_fail = render(verdict.witness_leq_fail)
    out.witnesses = [
        {"game": geq_fail, "direction": "geq"},
        {"game": leq_fail, "direction": "leq"},
    ]
    out.say(f"incomparable [geq fails at {geq_fail}, leq fails at {leq_fail}]")
    return out.finish(_EXIT_REFUTED)


def _cmd_universe(ns: argparse.Namespace) -> int:
    out = _Emitter(
        "universe", {"descriptor": ns.descriptor, "list": ns.list}, ns.json
    )
    tests = generate(ns.descriptor)
    out.bounds = {"tests": tests.descriptor}
    out.result = {"descriptor": tests.descriptor, "count": len(tests)}
    if ns.list:
        out.result["members"] = [render(g) for g in tests.members]
        for text in out.result["members"]:
            out.say(text)
    else:
        out.say(f"{tests.descriptor}: {len(tests)} members")
    return out.finish(_EXIT_OK)


def _parse_generators(spec: str) -> list[GameId]:
    if spec.startswith("ints:"):
        lo, _, hi = spec[len("ints:"):].partition("..")
        return [integer_game(n) for n in range(int(lo), int(hi) + 1)]
    if spec.startswith("dyadics:"):
        fields = spec.split(":")
        if len(fields) != 3 or not fields[1].startswith("j") or not fields[2].startswith("v"):
            raise ValueError(f"malformed generator spec {spec!r}")
        exponent = int(fields[1][1:])
        magnitude = int(fields[2][1:])
        return [
            dyadic_game(lit)
            for lit in number_literals(exponent, magnitude, include_zero=True)
        ]
    return [parse_game(text) for text in spec.split(";") if text.strip()]


def _cmd_monoid(ns: argparse.Namespace) -> int:
    out = _Emitter(
        "monoid",
        {"generators": ns.generators, "terms": ns.terms, "tests": ns.tests},
        ns.json,
    )
    generators = _parse_generators(ns.generators)
    tests = generate(ns.tests)
    report = quotient_monoid(generators, ns.terms, tests)
    out.bounds = {"tests": tests.descriptor, "terms": ns.terms}
    out.result = report.to_dict()
    out.say(f"classes: {len(report.classes)}  (tests {tests.descriptor})")
    for cls in out.result["classes"]:  # rendered once, by to_dict
        out.say(
            f"  label {cls['label']:+d}  outcome {cls['outcome']}-  "
            f"rep {cls['representative']}  members {len(cls['members'])}"
        )
    out.say(f"identity label: {report.identity_label}")
    out.say(f"inverse pairs: {report.inverse_pairs}")
    out.say("product: label addition" if report.consistent else "INCONSISTENT")
    return out.finish(_EXIT_OK if report.consistent else _EXIT_REFUTED)


def _cmd_verify(ns: argparse.Namespace) -> int:
    out = _Emitter(
        "verify",
        {"claim": ns.claim, "budget": ns.budget},
        ns.json,
    )
    bounds = _bounds_from(ns)
    out.bounds = bounds.to_dict()
    if ns.claim == "all":
        reports = run_all(bounds, ns.budget)
    else:
        reports = [run_claim(ns.claim, bounds)]
    out.result = {"reports": [r.to_dict() for r in reports]}
    for report in reports:
        out.say(report.line())
    passed = sum(r.status == "pass" for r in reports)
    skipped = sum(r.status == "skipped" for r in reports)
    refuted = sum(r.status == "refuted" for r in reports)
    out.say(f"{passed} pass, {refuted} refuted, {skipped} skipped")
    if skipped:
        return out.finish(_EXIT_BUDGET)
    if refuted:
        return out.finish(_EXIT_REFUTED)
    return out.finish(_EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deadending",
        description=(
            "Exact misere-play engine for dead-ending partizan games. "
            "Games are written as {options | options} with '.' for an empty "
            "side, integer and dyadic literals (3, -1/2), '*', lambda(k), "
            "'+' for disjunctive sum, and '~' for conjugation."
        ),
    )
    parser._negative_number_matcher = _LEADING_DASH_EXPR
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p._negative_number_matcher = _LEADING_DASH_EXPR
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        return p

    p = with_json(sub.add_parser("outcome", help="misere (default) or normal outcome"))
    p.add_argument("expr")
    p.add_argument("--normal", action="store_true")
    p.set_defaults(func=_cmd_outcome)

    p = with_json(sub.add_parser("lengths", help="left/right lengths or undefined"))
    p.add_argument("expr")
    p.set_defaults(func=_cmd_lengths)

    p = with_json(sub.add_parser("classify", help="end and universe membership flags"))
    p.add_argument("expr")
    p.set_defaults(func=_cmd_classify)

    p = with_json(sub.add_parser("equiv", help="indistinguishability over a test set"))
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--tests", required=True, metavar="DESC")
    p.set_defaults(func=_cmd_equiv)

    p = with_json(sub.add_parser("compare", help="order over a test set or closed form"))
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--tests", metavar="DESC")
    p.add_argument(
        "--closed-form",
        nargs="?",
        const="numbers",
        choices=["numbers", "integers"],
        help="use the closed-form order (numbers: dead-ending universe; "
        "integers: dead-end closure)",
    )
    p.set_defaults(func=_cmd_compare)

    p = with_json(sub.add_parser("universe", help="generate a test set"))
    p.add_argument("descriptor")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the size (default)")
    group.add_argument("--list", action="store_true", help="print every member")
    p.set_defaults(func=_cmd_universe)

    p = with_json(sub.add_parser("monoid", help="quotient of generator sums"))
    p.add_argument(
        "--generators",
        required=True,
        help="'ints:LO..HI', 'dyadics:jJ:vV', or ';'-separated expressions",
    )
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--tests", required=True, metavar="DESC")
    p.set_defaults(func=_cmd_monoid)

    p = with_json(sub.add_parser("verify", help="run claim checks"))
    p.add_argument("claim", help="a claim id or 'all'")
    for flag, (name, text) in _BOUND_FLAGS.items():
        p.add_argument(f"--{flag}", type=int, default=getattr(Bounds, name), help=text)
    p.add_argument("--budget", type=float, default=None, help="wall-clock seconds")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import; parse_args keeps no state
    # between calls, so one parser serves every call in a process
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return _EXIT_BUDGET
    except (ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as err:  # not a refutation: exit 1 must not mean a crash
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return _EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
