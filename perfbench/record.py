"""Record perfbench/reference.json: the answers the benchmark checks against.

Run from the root of a checkout whose answers are trusted:

    python3 perfbench/record.py

It records each claim's case count (the same for every `--seed`), the digest
of the monoid-quotient answer, and the digest of every query in the pool and
of every deep query.  It runs in a thread with a large stack and a raised
recursion limit, so that the deep queries, which raise RecursionError in the
benchmark, get their true answers here.
"""

from __future__ import annotations

import json
import os
import sys
import threading

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from run import REFERENCE, answers  # noqa: E402
from child import call_main  # noqa: E402

VERIFY_SEEDS = (0, 1, 2)


def record() -> dict:
    from deadending.cli import main

    def digest(argv: list[str]) -> str:
        code, stdout, _ = call_main(main, argv)
        if code not in (0, 1):
            raise RuntimeError(f"{argv[:2]} gave {code}")
        return answers({"codes": [code], "stdout": [stdout]})[0]

    claims = None
    for seed in VERIFY_SEEDS:
        code, stdout, _ = call_main(main, workloads.VERIFY_ARGV + [str(seed)])
        reports = json.loads(stdout)["result"]["reports"]
        if code != 0 or any(r["status"] != "pass" for r in reports):
            raise RuntimeError(f"verify all --seed {seed} did not pass")
        cases = {r["claim"]: r["cases"] for r in reports}
        if claims is not None and cases != claims:
            raise RuntimeError("claim case counts depend on the seed")
        claims = cases
    queries = {}
    for argv in workloads.query_pool() + workloads.DEEP_QUERIES:
        key = workloads.query_key(argv)
        if key not in queries:
            queries[key] = digest(argv)
    return {"claims": claims, "monoid": digest(workloads.MONOID_ARGV), "queries": queries}


def main() -> int:
    sys.setrecursionlimit(50_000)
    threading.stack_size(512 * 1024 * 1024)
    box = {}
    worker = threading.Thread(target=lambda: box.update(reference=record()))
    worker.start()
    worker.join()
    if "reference" not in box:
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump(box["reference"], fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}: {len(box['reference']['queries'])} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
