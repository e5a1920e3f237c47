"""Command-line front end over the engine.

Exit codes: 0 for a successful computation (or an all-pass verification run),
1 when the computed answer is a refutation (a scan's verdict with a witness:
distinguished, refuted or incomparable; or a closed form's incomparable),
2 for usage or notation errors, 3 when a generation or wall-clock budget was
exceeded or a verify bound was too small for a search to settle a claim (a
`skipped` report whose details.reason names the bound), 4 for an internal
error (any other exception, reported on one line).  All diagnostics go to
stderr; --json emits a stable envelope {command, inputs, result, witnesses,
bounds, duration_ms}.

`main` owns the envelope.  Each subcommand names its inputs next to its
arguments; `main` makes the `_Emitter` from them, the command fills it in and
returns an exit code, and `main` finishes the emitter with that code.  A
command that raises prints nothing to stdout: `main` maps the exception to
its exit code and a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
from .notation import ParseError, parse_game, render, render_all
from .outcomes import outcome_misere, outcome_normal
from .universes import (
    DEFAULT_MEMBER_BUDGET,
    BudgetExceededError,
    Relation,
    Verdict,
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


def _cmd_outcome(ns: argparse.Namespace, out: _Emitter) -> int:
    game = parse_game(ns.expr)
    text = _outcome_text(game, ns.normal)
    out.result = {"outcome": text, "game": render(game)}
    out.say(text)
    return _EXIT_OK


def _cmd_lengths(ns: argparse.Namespace, out: _Emitter) -> int:
    game = parse_game(ns.expr)
    left = left_length(game)
    right = right_length(game)
    out.result = {"left": left, "right": right, "game": render(game)}
    fmt = lambda v: "undefined" if v is None else str(v)
    out.say(f"left={fmt(left)} right={fmt(right)}")
    return _EXIT_OK


def _cmd_classify(ns: argparse.Namespace, out: _Emitter) -> int:
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
    return _EXIT_OK


def _finish_verdict(out: _Emitter, verdict: Verdict) -> int:
    """Render a verdict; exit 1 when it refutes: a witness, or incomparable."""
    name = verdict.relation.value
    shown = [render(w) for w in verdict.witnesses]
    out.witnesses = [{"game": w} for w in shown]
    if verdict.exact:
        out.result = {"relation": name, "universe": verdict.basis}
        out.say(name)
    elif not shown:
        out.result = {"verdict": f"{name}-up-to", "tests": verdict.basis}
        out.say(f"{name.replace('-', ' ')} up to {verdict.basis}")
    else:
        out.result = {"verdict": name}
        if verdict.relation is Relation.DISTINGUISHED:
            first, second = (o.value + "-" for o in verdict.outcomes)
            out.witnesses[0]["outcomes"] = [first, second]
            out.say(f"distinguished by {shown[0]} [{first} vs {second}]")
        elif verdict.relation is Relation.REFUTED:
            out.say(f"refuted by {shown[0]}")
        else:  # incomparable: the contexts where geq, then leq, fails
            out.witnesses[0]["direction"], out.witnesses[1]["direction"] = "geq", "leq"
            out.say(f"incomparable [geq fails at {shown[0]}, leq fails at {shown[1]}]")
    refutes = bool(shown) or verdict.relation is Relation.INCOMPARABLE
    return _EXIT_REFUTED if refutes else _EXIT_OK


def _cmd_equiv(ns: argparse.Namespace, out: _Emitter) -> int:
    g = parse_game(ns.g)
    h = parse_game(ns.h)
    tests = generate(ns.tests)
    out.bounds = {"tests": tests.descriptor, "contexts": len(tests)}
    return _finish_verdict(out, equiv_mod(g, h, tests))


def _closed_form(ns: argparse.Namespace) -> Verdict:
    g = parse_game(ns.g)
    h = parse_game(ns.h)
    if ns.closed_form == "integers":
        read, compare = as_integer, compare_integers_mod_dead_end_closure
        needs = "integer closed form needs integer games"
    else:
        read, compare = as_number, compare_numbers_mod_E
        needs = "number closed form needs canonical numbers"
    a, b = read(g), read(h)
    for name, text, value in (("g", ns.g, a), ("h", ns.h, b)):
        if value is None:
            raise ValueError(f"{needs}, but {name} = {text!r} is not one")
    return compare(a, b)


def _cmd_compare(ns: argparse.Namespace, out: _Emitter) -> int:
    if ns.closed_form is not None:
        return _finish_verdict(out, _closed_form(ns))
    if ns.tests is None:
        raise ValueError("compare needs --tests DESC or --closed-form")
    g = parse_game(ns.g)
    h = parse_game(ns.h)
    tests = generate(ns.tests)
    out.bounds = {"tests": tests.descriptor, "contexts": len(tests)}
    return _finish_verdict(out, geq_mod(g, h, tests))


def _cmd_universe(ns: argparse.Namespace, out: _Emitter) -> int:
    tests = generate(ns.descriptor)
    out.bounds = {"tests": tests.descriptor}
    out.result = {"descriptor": tests.descriptor, "count": len(tests)}
    if ns.list:
        out.result["members"] = render_all(tests.members)
        for text in out.result["members"]:
            out.say(text)
    else:
        out.say(f"{tests.descriptor}: {len(tests)} members")
    return _EXIT_OK


def _parse_generators(spec: str) -> list[GameId]:
    """The generator games of a spec; a range or literal list longer than the
    member budget is refused on its count, before any game is built."""

    def counted(count: int) -> None:
        if count > DEFAULT_MEMBER_BUDGET:
            raise BudgetExceededError(spec, count, DEFAULT_MEMBER_BUDGET)

    if spec.startswith("ints:"):
        lo, _, hi = spec[len("ints:"):].partition("..")
        counted(int(hi) - int(lo) + 1)
        return [integer_game(n) for n in range(int(lo), int(hi) + 1)]
    if spec.startswith("dyadics:"):
        fields = spec.split(":")
        if len(fields) != 3 or not fields[1].startswith("j") or not fields[2].startswith("v"):
            raise ValueError(f"malformed generator spec {spec!r}")
        exponent = int(fields[1][1:])
        magnitude = int(fields[2][1:])
        counted((magnitude << (exponent + 1)) + 1)  # the literals, zero included
        return [
            dyadic_game(lit)
            for lit in number_literals(exponent, magnitude, include_zero=True)
        ]
    return [parse_game(text) for text in spec.split(";") if text.strip()]


def _cmd_monoid(ns: argparse.Namespace, out: _Emitter) -> int:
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
    return _EXIT_OK if report.consistent else _EXIT_REFUTED


def _cmd_verify(ns: argparse.Namespace, out: _Emitter) -> int:
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
        return _EXIT_BUDGET
    if refuted:
        return _EXIT_REFUTED
    return _EXIT_OK


def _seconds(text: str) -> float:
    """A finite number of seconds: a nan budget would never be spent."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"budget must be a finite number, got {text!r}")
    return value


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
    p.set_defaults(func=_cmd_outcome, inputs=("expr", "normal"))

    p = with_json(sub.add_parser("lengths", help="left/right lengths or undefined"))
    p.add_argument("expr")
    p.set_defaults(func=_cmd_lengths, inputs=("expr",))

    p = with_json(sub.add_parser("classify", help="end and universe membership flags"))
    p.add_argument("expr")
    p.set_defaults(func=_cmd_classify, inputs=("expr",))

    p = with_json(sub.add_parser("equiv", help="indistinguishability over a test set"))
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--tests", required=True, metavar="DESC")
    p.set_defaults(func=_cmd_equiv, inputs=("g", "h", "tests"))

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
    p.set_defaults(func=_cmd_compare, inputs=("g", "h", "tests", "closed_form"))

    p = with_json(sub.add_parser("universe", help="generate a test set"))
    p.add_argument("descriptor")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the size (default)")
    group.add_argument("--list", action="store_true", help="print every member")
    p.set_defaults(func=_cmd_universe, inputs=("descriptor", "list"))

    p = with_json(sub.add_parser("monoid", help="quotient of generator sums"))
    p.add_argument(
        "--generators",
        required=True,
        help="'ints:LO..HI', 'dyadics:jJ:vV', or ';'-separated expressions",
    )
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--tests", required=True, metavar="DESC")
    p.set_defaults(func=_cmd_monoid, inputs=("generators", "terms", "tests"))

    p = with_json(sub.add_parser("verify", help="run claim checks"))
    p.add_argument("claim", help="a claim id or 'all'")
    for flag, (name, text) in _BOUND_FLAGS.items():
        p.add_argument(f"--{flag}", type=int, default=getattr(Bounds, name), help=text)
    p.add_argument("--budget", type=_seconds, default=None, help="wall-clock seconds")
    p.set_defaults(func=_cmd_verify, inputs=("claim", "budget"))

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
    out = _Emitter(ns.command, {k: getattr(ns, k) for k in ns.inputs}, ns.json)
    try:
        return out.finish(ns.func(ns, out))
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}{err.hint}", file=sys.stderr)
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
