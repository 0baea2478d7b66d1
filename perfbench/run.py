#!/usr/bin/env python3
"""Runs one workload of the wcoj benchmark and prints its result.

    python3 perfbench/run.py --workload cyclic_lftj --seed 1 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench_driver from the repository's sources on first use (CMake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload for --seconds (default: run_seconds from BENCHMARK.json), and
prints the driver's one-line JSON result as the last line of stdout. Build output and diagnostics go to stderr. Exits non-zero when the
sources are missing, the build fails, or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cyclic_lftj", "minesweeper_resample", "served_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
BUILD_JOBS = "3"


def run_seconds():
    """The run length BENCHMARK.json fixes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no wcoj sources at %s/src; run from a checkout"
                 % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", BUILD_JOBS])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True, env=env,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            sys.exit("perfbench: build step %s failed: %s" % (cmd[:2], err))
    return os.path.join(bdir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the answer checks themselves and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    seconds = args.seconds or run_seconds()
    bdir = build_dir()
    driver = build(bdir)
    out_dir = os.path.join(bdir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    if args.self_test:
        return subprocess.run([driver, "--self-test", "--out-dir", out_dir],
                              timeout=RUN_TIMEOUT_S,
                              stdout=sys.stderr).returncode

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: driver exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
