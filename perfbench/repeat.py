#!/usr/bin/env python3
"""Runs workloads several times and prints each metric's median and quartiles.

    python3 perfbench/repeat.py --workload served_mix --runs 10 --first-seed 1
    python3 perfbench/repeat.py --workload all --runs 10 --trace both

Each run uses its own seed (first-seed, first-seed+1, ...), the way the
benchmark is judged: for every end-to-end metric the spread is the distance
between the first and third quartile of the runs' values, as a share of their
median (statistics.quantiles(values, n=4)), and is compared with the metric's
bound in BENCHMARK.json. With --trace both, every seed runs untraced and then
traced, and the tracing overhead is reported as traced minus untraced
queries_per_s. Every run lasts run_seconds from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bounds):
    """Prints one row per metric; returns {metric: (median, q1, q3)}."""
    names = list(results[0]["metrics"])
    out = {}
    print("  %-32s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("  %-32s %14.6g %14.6g %14.6g %7.1f%% %6s  %s" %
              (name, med, q1, q3, 100 * spread,
               "" if bound is None else "%g" % bound, unit))
        out[name] = (med, q1, q3)
    failed = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print("  failed share per run: %s; all correct: %s" % (failed, correct))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]

    for workload in workloads:
        runs = {t: [] for t in traces}
        for i in range(args.runs):
            seed = args.first_seed + i
            for t in traces:
                runs[t].append(run_once(workload, seed, t))
                print("%s seed %d trace %d done" % (workload, seed, t),
                      file=sys.stderr)
        for t in traces:
            print("%s, %d runs, seeds %d..%d, trace %d:" %
                  (workload, args.runs, args.first_seed,
                   args.first_seed + args.runs - 1, t))
            summarize(runs[t], bounds if t == 0 else {})
        if len(traces) == 2:
            untraced = statistics.median(
                r["metrics"]["queries_per_s"]["value"] for r in runs[0])
            traced = statistics.median(
                r["metrics"]["trace.queries_per_s"]["value"] for r in runs[1])
            print("  tracing overhead: traced - untraced queries_per_s = "
                  "%.4g - %.4g = %.4g (%.1f%%)" %
                  (traced, untraced, traced - untraced,
                   100 * (traced - untraced) / untraced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
