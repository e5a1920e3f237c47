"""One fresh process: import the engine, run one workload through
`deadending.cli.main`, and print a JSON record of what happened.

Usage (from the root of a checkout, inputs as JSON on stdin):

    python3 perfbench/child.py probe|run [--trace]

`probe` only imports the engine; `run` answers {"queries": [argv, ...]} in
order.  The record goes to stdout as the only line; the CLI's own output is
captured and returned in the record.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def call_main(main, argv: list[str]):
    """Run main(argv) with its output captured; return (code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # the session goes on; the failure is counted
        code = type(exc).__name__
    return code, out.getvalue(), time.perf_counter() - started


def peak_rss_mb() -> float:
    """This process's peak resident set size since exec.

    VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so it would
    include the forking parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    kind = sys.argv[1]
    traced = "--trace" in sys.argv[2:]
    inputs = json.load(sys.stdin)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))

    started = time.perf_counter()
    import deadending
    import deadending.cli

    setup_s = time.perf_counter() - started
    if not os.path.abspath(deadending.__file__).startswith(os.path.join(root, "src")):
        print(f"deadending imported from {deadending.__file__}", file=sys.stderr)
        return 2
    record: dict = {"setup_s": setup_s}
    if kind == "probe":
        print(json.dumps(record))
        return 0

    from deadending.games import store_size

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main_fn = deadending.cli.main  # looked up after install, so it is traced
    nodes_before = store_size()

    queries = inputs["queries"]
    codes, outputs, latencies = [], [], []
    loop_started = time.perf_counter()
    for argv in queries:
        code, stdout, seconds = call_main(main_fn, argv)
        codes.append(code)
        outputs.append(stdout)
        latencies.append(seconds)
    record["wall_s"] = time.perf_counter() - loop_started

    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.snapshot()
    record["nodes_interned"] = store_size() - nodes_before
    record["peak_rss_mb"] = peak_rss_mb()
    record["latencies_s"] = latencies
    record["codes"] = codes
    record["stdout"] = outputs
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
