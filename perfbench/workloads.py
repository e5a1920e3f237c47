"""Workload definitions, seeded query streams and answer digests.

Nothing here imports the engine: the parent process generates inputs and
checks answers, and only the fresh child processes run `deadending`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

VERIFY_ARGV = ["verify", "all", "--json", "--seed"]  # the seed is appended
MONOID_ARGV = [
    "monoid",
    "--generators",
    "dyadics:j3:v1",
    "--terms",
    "2",
    "--tests",
    "numbers:j3:v2:t2",
    "--json",
]
MONOID_LABELS = list(range(-6, 7))

SCAN_TESTS = "dead-ending:b2:k2"

# The query pool is fixed, and a session is the whole pool in a seeded order,
# so every seed runs the same work and every query has a reference answer.
POOL_SEED = 1212_6435
POOL_SIZE = 1000
DEEP_REPEATS = 2  # each deep query this many times per session, about 1%

_COMMAND_WEIGHTS = [
    ("outcome", 25),
    ("outcome-normal", 10),
    ("lengths", 10),
    ("classify", 15),
    ("equiv", 12),
    ("compare", 10),
    ("compare-closed", 18),
]


def _nested_braces(depth: int) -> str:
    text = "{|}"
    for _ in range(depth):
        text = "{" + text + "|}"
    return text


# Inputs past the interpreter's default recursion limit.  They raise
# RecursionError at the commit that introduced this benchmark; they stay in
# the stream so that the defect, and a later fix, both show in `failed`.
DEEP_QUERIES = [
    ["outcome", "2000", "--json"],
    ["outcome", "-1500", "--normal", "--json"],
    ["lengths", "1200", "--json"],
    ["outcome", "lambda(1500)", "--json"],
    ["outcome", _nested_braces(400), "--json"],
    ["classify", _nested_braces(400), "--json"],
]


def _integer(rng: random.Random) -> str:
    return str(rng.randint(-4, 4))


def _dyadic(rng: random.Random) -> str:
    exponent = rng.randint(1, 3)
    scale = 1 << exponent
    numerator = rng.choice([n for n in range(-2 * scale, 2 * scale + 1) if n % 2])
    return f"{numerator}/{scale}"


def _number(rng: random.Random) -> str:
    return _integer(rng) if rng.random() < 0.5 else _dyadic(rng)


def _term(rng: random.Random, depth: int) -> str:
    kinds = ["int", "frac", "star", "lambda", "conj"]
    weights = [4, 3, 2, 2, 1]
    if depth > 0:
        kinds.append("braces")
        weights.append(3)
    kind = rng.choices(kinds, weights)[0]
    if kind == "int":
        return _integer(rng)
    if kind == "frac":
        return _dyadic(rng)
    if kind == "star":
        return "*"
    if kind == "lambda":
        return f"lambda({rng.randint(1, 4)})"
    if kind == "conj":
        return "~" + _term(rng, depth)
    sides = []
    for _ in range(2):
        count = rng.randint(0, 2)
        sides.append(", ".join(_term(rng, depth - 1) for _ in range(count)) or ".")
    return "{" + sides[0] + " | " + sides[1] + "}"


def expression(rng: random.Random, max_terms: int = 3, depth: int = 2) -> str:
    """A random game in notation: a sum of 1..max_terms terms."""
    count = rng.randint(1, max_terms)
    return " + ".join(_term(rng, depth) for _ in range(count))


def _query(rng: random.Random) -> list[str]:
    names, weights = zip(*_COMMAND_WEIGHTS)
    command = rng.choices(names, weights)[0]
    if command == "outcome":
        return ["outcome", expression(rng), "--json"]
    if command == "outcome-normal":
        return ["outcome", expression(rng), "--normal", "--json"]
    if command in ("lengths", "classify"):
        return [command, expression(rng), "--json"]
    if command in ("equiv", "compare"):
        # scans add each context to both games, so keep the pair small
        g = expression(rng, max_terms=2, depth=1)
        h = expression(rng, max_terms=2, depth=1)
        return [command, g, h, "--tests", SCAN_TESTS, "--json"]
    if rng.random() < 0.3:
        return ["compare", _integer(rng), _integer(rng), "--closed-form", "integers", "--json"]
    return ["compare", _number(rng), _number(rng), "--closed-form", "--json"]


def query_pool() -> list[list[str]]:
    """The fixed pool of ordinary queries that every session draws from."""
    rng = random.Random(POOL_SEED)
    return [_query(rng) for _ in range(POOL_SIZE)]


def query_stream(seed: int) -> list[list[str]]:
    """A session's queries: the pool shuffled by seed, deep queries inserted."""
    rng = random.Random(seed)
    stream = query_pool()
    rng.shuffle(stream)
    for argv in DEEP_QUERIES * DEEP_REPEATS:
        stream.insert(rng.randint(0, len(stream)), argv)
    return stream


def query_key(argv: list[str]) -> str:
    return json.dumps(argv)


# ---------------------------------------------------------------------------
# answer digests


@functools.lru_cache(maxsize=None)
def _canon_game(text: str) -> str:
    """Sort the options inside rendered braces.

    `render` lists options in interned-id order, which depends on what the
    process built before; sorting makes the text independent of that history.
    Cached: the children of one run render the same games the same way, and
    some renderings are large.
    """
    pos = 0

    def item() -> str:
        nonlocal pos
        if text.startswith("{", pos):
            pos += 1
            left = side("|")
            pos += 1
            right = side("}")
            pos += 1
            return "{" + left + " | " + right + "}"
        start = pos
        while pos < len(text) and text[pos] not in ",|}":
            pos += 1
        return text[start:pos].strip()

    def side(closer: str) -> str:
        nonlocal pos
        items = []
        while True:
            while text.startswith(" ", pos):
                pos += 1
            if text.startswith(closer, pos):
                break
            items.append(item())
            while text.startswith(" ", pos):
                pos += 1
            if text.startswith(",", pos):
                pos += 1
        items = [x for x in items if x != "."]
        return ", ".join(sorted(items)) or "."

    return item() + text[pos:]


def canonical(value):
    """Drop every `duration_ms` and canonicalize rendered games in a JSON value."""
    if isinstance(value, str):
        return _canon_game(value) if value.startswith("{") else value
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items() if k != "duration_ms"}
    return value


def answer_digest(code, stdout: str) -> str:
    """Digest of a CLI answer: exit code, `result` and `witnesses`.

    `code` is the integer exit code, or the exception name when main raised.
    Timings and the echo of the inputs are left out.
    """
    if not isinstance(code, int):
        return f"raised:{code}"
    envelope = json.loads(stdout) if stdout.strip() else {}
    payload = {
        "exit": code,
        "result": canonical(envelope.get("result")),
        "witnesses": canonical(envelope.get("witnesses")),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
