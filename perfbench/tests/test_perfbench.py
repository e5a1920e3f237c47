"""Self-tests of the benchmark.  From the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_same_seed_same_stream_other_seed_other_stream():
    first = workloads.query_stream(7)
    assert first == workloads.query_stream(7)
    assert first != workloads.query_stream(8)
    assert len(first) == workloads.POOL_SIZE + len(workloads.DEEP_QUERIES) * workloads.DEEP_REPEATS


def test_every_query_has_a_reference_answer():
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    keys = {workloads.query_key(q) for q in workloads.query_stream(0)}
    assert keys <= set(reference["queries"])


def test_only_a_deep_query_may_fail_without_a_wrong_answer():
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    ordinary = workloads.query_pool()[0]
    deep = workloads.DEEP_QUERIES[0]
    record = {"codes": ["TypeError", "RecursionError", 2], "stdout": ["", "", ""]}
    digests = run.answers(record)
    # a deep query that raises RecursionError is the known defect: failed but
    # not wrong.  Any other raise or bad exit code is wrong, deep or not.
    queries = [ordinary, deep, deep]
    assert run.check("query-session", record, digests, reference, queries) == (3, 3, 2)
    queries = [deep, deep, ordinary]
    assert run.check("query-session", record, digests, reference, queries) == (3, 3, 2)
    crash = {"codes": ["ValueError"], "stdout": [""]}
    assert run.check("verify-default", crash, [""], reference, [])[2] == len(reference["claims"])
    assert run.check("monoid-quotient", crash, [""], reference, [])[2] == 1


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap("t.inner", inner)
    wrapped_outer = tracer.wrap("t.outer", outer)
    assert wrapped_outer() == 2
    snap = tracer.snapshot()
    # outer: 0..5 with two inner spans of 1 tick each
    assert snap["total_s"] == {"t.inner": 2, "t.outer": 5}
    assert snap["self_s"] == {"t.inner": 2, "t.outer": 3}
    assert snap["edges"] == {"t.outer>t.inner": 2}


def test_outermost_entry_guard_counts_a_recursive_call_once():
    from deadending import games, notation

    g = games.intern((games.integer_game(37),), (games.dyadic_game(games.NumberLiteral(5, 3)),))
    h = games.intern((games.star(),), (games.lambda_game(9),))
    nodes = games.store_size()
    tracer = Tracer()
    tracer.install()
    try:
        total = games.add(g, h)
        text = notation.render(games.intern((total,), (g, h)))
    finally:
        tracer.uninstall()
    assert games.store_size() - nodes > 10  # add recursed through its global
    assert text.count("{") > 1  # so did render
    calls = tracer.snapshot()["calls"]
    assert calls["games.add"] == 1
    assert calls["notation.render"] == 1
    assert games.add is not None and not hasattr(games.add, "__wrapped__")


def _child(queries, traced):
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "run"]
    proc = subprocess.run(
        argv + (["--trace"] if traced else []),
        input=json.dumps({"queries": queries}),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_leaves_answers_unchanged():
    queries = workloads.query_stream(3)[:60] + [
        ["verify", "thm:int-monoid", "--json"],
        workloads.DEEP_QUERIES[0],
    ]
    plain = _child(queries, traced=False)
    traced = _child(queries, traced=True)
    assert "trace" in traced and "trace" not in plain
    assert traced["trace"]["calls"]["cli.main"] == len(queries)
    assert run.answers(plain) == run.answers(traced)
    assert plain["codes"][-1] == "RecursionError"


def test_digest_ignores_option_order():
    a = {"result": {"game": "{*, {1, 2 | .} | 0}"}, "witnesses": []}
    b = {"result": {"game": "{{2, 1 | .}, * | 0}"}, "witnesses": []}
    assert workloads.answer_digest(0, json.dumps(a)) == workloads.answer_digest(0, json.dumps(b))
    assert workloads.answer_digest(0, json.dumps(a)) != workloads.answer_digest(1, json.dumps(a))


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(run.REFERENCE) as fh:
        claims = list(json.load(fh)["claims"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units(claims)
