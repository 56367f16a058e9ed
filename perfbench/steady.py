#!/usr/bin/env python3
"""Check that the benchmark is steady: run it once per seed and report,
per metric, the median over the runs and the spread between its first and
third quartile as a share of the median, against the metric's bound.

    python3 perfbench/steady.py --workload live-read --seeds 1-10 [--trace 0]

Each run is a full `run.py` invocation of BENCHMARK.json's run_seconds.
A spread at or below a third of the bound leaves room for the
regression check of a later change; setup_s is checked on its median
only, so its spread is printed but not judged.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}

    values = {name: [] for name in bounds}
    for seed in args.seeds:
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if out.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %-4d correct=%s attempted=%d failed=%d  %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            "  ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items()
                      if v["value"] is not None)))
        for name, v in result["metrics"].items():
            if v["value"] is not None:
                values[name].append(v["value"])

    steady = True
    for name, bound in bounds.items():
        xs = values[name]
        if len(xs) < 2 or run.median(xs) == 0:
            print("%-32s %d values, median %s" % (name, len(xs), xs and run.median(xs)))
            continue
        s = run.spread(xs)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            steady = steady and s <= bound
        print("%-32s median %-12.5g spread %.3f  bound %s  %s"
              % (name, run.median(xs), s, bound, verdict))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
