"""Run the benchmark over ten seeds and summarize it.

From the root of a checkout:

    python3 perfbench/baseline.py [--out perfbench/results/BENCH_seed.json]

For each workload it makes one untraced run for each seed 0-9 and one traced
run at seed 0.  It prints each end-to-end metric's median, quartiles and spread
(quartile distance over median, the figure the bounds in BENCHMARK.json are
set against) and, with --out, writes them with the per-layer table, the
Python version, nproc and the load average.
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

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    load = os.getloadavg()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, loadavg_before=list(load), run_s=time.monotonic() - started)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    ns = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "loadavg": [r["loadavg_before"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(
                f"  {name:14s} median {stats['median']:12.6g} {stats['unit']:6s} "
                f"spread {stats['spread']:.4f} bound {bounds[name]}"
            )
        traced = run_once(workload, 0, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced"] = {
            "seed": 0,
            "correct": traced["correct"],
            "loadavg": traced["loadavg_before"],
            "run_s": traced["run_s"],
        }
        print(f"  traced: correct={traced['correct']} overhead "
              f"{entry['per_layer']['trace.overhead_s']:.3f} s")
        report["workloads"][workload] = entry
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
