"""Cold-process benchmark of the `deadending` engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-default|monoid-quotient|query-session \
        --seed N --seconds S --trace 0|1

Every workload runs through `deadending.cli.main` in a fresh child process,
one child at a time, because the engine's memo tables make a warm rerun
nearly free.  `--trace 0` repeats the untraced workload for about S seconds
and reports the end-to-end metrics; `--trace 1` alternates untraced and
traced children and reports the per-layer metrics and the tracing overhead.
Every answer is checked against perfbench/reference.json.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("verify-default", "monoid-quotient", "query-session")
MIN_SAMPLES = 3  # workload children per untraced run, however long they take
# import-only children per untraced run, run between the workload children in
# step with elapsed time, so that set-up samples spread over the whole run
SETUP_PROBES = 40
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "ok_share": "ratio",
}

# functions whose calls, self time and inclusive time (`.s`) are reported from
# the traced run; inclusive time matters for entry points such as `generate`
# and `parse_game`, which hand most of their work to other traced functions
TRACED_FUNCTIONS = (
    "games.add",
    "games.add_all",
    "games.intern",
    "outcomes.outcome_misere",
    "outcomes.outcome_normal",
    "universes.equiv_mod",
    "universes.geq_mod",
    "universes.quotient_monoid",
    "universes.generate",
    "notation.parse_game",
    "notation.render",
    "claims.run_claim",
    "cli.main",
)


def per_layer_units(claims: list[str]) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for fn in TRACED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        units[f"{fn}.s"] = "s"
    units["games.nodes_interned"] = "count"
    units["universes.contexts_scanned"] = "count"
    units["universes.quotient_equiv_calls"] = "count"
    units["universes.generate.members"] = "count"
    for claim in claims:
        units[claim_metric(claim)] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def claim_metric(claim: str) -> str:
    return "claims." + claim.replace(":", ".") + ".s"


# ---------------------------------------------------------------------------
# children


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment with bytecode caching on, into .bench_build.

    Users import compiled bytecode, so set-up time must not depend on whether
    the caller happens to set PYTHONDONTWRITEBYTECODE.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(os.getcwd(), ".bench_build", "pycache")
    return env


def run_child(kind: str, queries: list, traced: bool, deadline: float) -> dict:
    argv = [sys.executable, CHILD, kind] + (["--trace"] if traced else [])
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            argv,
            input=json.dumps({"queries": queries}),
            capture_output=True,
            text=True,
            timeout=timeout,
            env=child_env(),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child {kind} ran past the run's time limit") from exc
    if proc.returncode != 0:
        raise ChildError(
            f"child {kind} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks


def answers(record: dict) -> list[str]:
    """A digest per CLI call of one child."""
    return [
        workloads.answer_digest(code, stdout)
        for code, stdout in zip(record["codes"], record["stdout"])
    ]


def check(
    workload: str, record: dict, digests: list[str], reference: dict, queries: list
) -> tuple[int, int, int]:
    """(attempted, failed, wrong) operations in one child's record.

    An operation is one claim, one monoid run or one query.  It failed if it
    raised, exited with a code other than 0 or 1, or gave a wrong answer.
    `wrong` counts every failure except the known defect: a deep query
    (workloads.DEEP_QUERIES) that raises RecursionError.  Every operation
    has a recorded true answer, so any other failure is a wrong answer.
    """
    codes, outputs = record["codes"], record["stdout"]
    if workload == "verify-default":
        expected = reference["claims"]
        if not exited(codes[0]):
            return len(expected), len(expected), len(expected)
        reports = {r["claim"]: r for r in json.loads(outputs[0])["result"]["reports"]}
        wrong = sum(
            1
            for claim, cases in expected.items()
            if claim not in reports
            or reports[claim]["status"] != "pass"
            or reports[claim]["cases"] != cases
        )
        return len(expected), wrong, wrong
    if workload == "monoid-quotient":
        if not exited(codes[0]):
            return 1, 1, 1
        result = json.loads(outputs[0])["result"]
        ok = (
            result["consistent"] is True
            and sorted(c["label"] for c in result["classes"]) == workloads.MONOID_LABELS
            and digests[0] == reference["monoid"]
        )
        return 1, int(not ok), int(not ok)
    deep = {workloads.query_key(argv) for argv in workloads.DEEP_QUERIES}
    failed = wrong = 0
    for argv, code, digest in zip(queries, codes, digests):
        key = workloads.query_key(argv)
        if not exited(code):
            failed += 1
            wrong += not (key in deep and code == "RecursionError")
        elif digest != reference["queries"][key]:
            failed += 1
            wrong += 1
    return len(queries), failed, wrong


def exited(code) -> bool:
    """Whether a CLI call ended with exit code 0 or 1 rather than raising."""
    return isinstance(code, int) and code in (0, 1)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records: list[dict], probes: list[dict], attempted: int, failed: int) -> dict:
    latencies_ms = [s * 1000 for r in records for s in r["latencies_s"]]
    # interpolated, so that p50 over the few calls of verify-default and
    # monoid-quotient is their median rather than one call's time
    percentiles = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records + probes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "query_p50_ms": percentiles[49],
        "query_p99_ms": percentiles[98],
        "ok_share": 1 - failed / attempted,
    }


def layer_metrics(record: dict, claims: list[str]) -> dict:
    trace = record["trace"]
    calls, self_s, edges = trace["calls"], trace["self_s"], trace["edges"]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    for fn in TRACED_FUNCTIONS:
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        m[f"{fn}.s"] = trace["total_s"].get(fn, 0.0)
    m["games.nodes_interned"] = record["nodes_interned"]
    scanned = sum(
        edges.get(f"universes.{scan}>outcomes.outcome_misere", 0)
        for scan in ("equiv_mod", "geq_mod")
    )
    m["universes.contexts_scanned"] = scanned // 2  # one pair per context
    m["universes.quotient_equiv_calls"] = edges.get(
        "universes.quotient_monoid>universes.equiv_mod", 0
    )
    m["universes.generate.members"] = trace["sizes"].get("universes.generate", 0)
    for claim in claims:
        m[claim_metric(claim)] = trace["keyed_s"].get(f"claims.run_claim:{claim}", 0.0)
    m["trace.wall_s"] = record["wall_s"]
    return m


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value = values[name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:44s} {text:>14s} {unit}")


def print_spans(record: dict) -> None:
    """Every traced function of one traced child, by self time."""
    trace = record["trace"]
    print("traced spans (one traced child): calls, self seconds")
    for name, secs in sorted(trace["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:44s} {trace['calls'][name]:>10d} {secs:12.6f}")


# ---------------------------------------------------------------------------


def workload_queries(workload: str, seed: int) -> list[list[str]]:
    if workload == "verify-default":
        return [workloads.VERIFY_ARGV + [str(seed)]]
    if workload == "monoid-quotient":
        return [list(workloads.MONOID_ARGV)]
    return workloads.query_stream(seed)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    ns = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "deadending", "cli.py")):
        print("run from the root of a deadending checkout (no src/deadending)", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    claims = list(reference["claims"])
    queries = workload_queries(ns.workload, ns.seed)
    load = os.getloadavg()
    print(
        f"workload={ns.workload} seed={ns.seed} seconds={ns.seconds:g} trace={ns.trace} "
        f"queries={len(queries)} python={platform.python_version()} "
        f"nproc={os.cpu_count()} loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}"
    )
    try:
        # compiles bytecode and warms the file cache; not measured
        run_child("probe", [], False, deadline)
        measure_from = time.monotonic()
        records, traced, probes = [], [], []
        min_samples = 1 if ns.trace else MIN_SAMPLES
        while True:
            records.append(run_child("run", queries, False, deadline))
            if ns.trace:
                traced.append(run_child("run", queries, True, deadline))
            else:
                share = min(1.0, (time.monotonic() - measure_from) / ns.seconds)
                while len(probes) < SETUP_PROBES * share:
                    probes.append(run_child("probe", [], False, deadline))
            elapsed = time.monotonic() - measure_from
            if len(records) >= min_samples and elapsed * (1 + 1 / len(records)) > ns.seconds:
                break  # the next sample would end past --seconds
        while not ns.trace and len(probes) < SETUP_PROBES:
            probes.append(run_child("probe", [], False, deadline))
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = failed = wrong = 0
    digests = [answers(record) for record in records + traced]
    for record, digest in zip(records + traced, digests):
        a, f, w = check(ns.workload, record, digest, reference, queries)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
    consistent = all(d == digests[0] for d in digests)
    if not consistent:
        print("error: children gave different answers to the same inputs", file=sys.stderr)
    if wrong:
        print(f"error: {wrong} operations gave wrong answers", file=sys.stderr)
    print(
        f"children={len(records) + len(traced)} attempted={attempted} "
        f"failed={failed} wrong={wrong}"
    )

    if ns.trace:
        units = per_layer_units(claims)
        per_child = [layer_metrics(r, claims) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_child) for name in per_child[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in records
        )
        print_spans(traced[0])
    else:
        units = END_TO_END
        metrics = end_to_end(records, probes, attempted, failed)
    print_table(f"medians over {len(records)} untraced, {len(traced)} traced children", metrics, units)
    result = {
        "correct": consistent and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
