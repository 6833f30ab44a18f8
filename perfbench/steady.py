#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload repeatedly on the current checkout, each run with its
own seed, and prints for every end-to-end metric its median, quartiles
and spread (the distance between the quartiles as a share of the
median, as statistics.quantiles(values, n=4) gives them) against the
metric's bound in BENCHMARK.json. With --trace it also makes one traced
run per seed and prints the per-layer medians and the tracing overhead.

Run it from the root of the checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads fleet-ops --runs 5 --trace
"""

import argparse
import json
import statistics
import subprocess
import functools
import sys

print = functools.partial(print, flush=True)


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"  {workload} seed {seed}: a check failed:\n{out.stderr}", file=sys.stderr)
    return res


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also make one traced run per seed")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs, traced = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, args.seconds, False))
            if args.trace:
                traced.append(run_once(workload, seed, args.seconds, True))
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs + traced)
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, correct={correct}, "
              f"failed share(s)={sorted(shares)}")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  ")
        for name, bound in bounds.items():
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
            unit = runs[0]["metrics"][name]["unit"]
            # Every spread, setup_s's too, should stay below a third of
            # its bound.
            ok = spread <= bound / 3
            steady &= ok and correct and len(shares) == 1
            print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bound:>7.2f}  "
                  f"{unit}{'' if ok else '  UNSTEADY'}")
        if traced:
            print("  per-layer medians (traced runs):")
            for name in traced[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in traced]
                print(f"    {name:<28}{statistics.median(vals):>14.6g} {traced[0]['metrics'][name]['unit']}")
            untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
            with_trace = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in traced)
            print(f"  tracing overhead: ops_per_s {untraced:.6g} untraced, {with_trace:.6g} traced "
                  f"({(1 - with_trace / untraced) * 100:.1f}% fewer)")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
