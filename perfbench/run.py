#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload in its own process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload offline_int16 --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1                # every workload
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --reference

The build compiles libernn from src/ together with the benchmark program
(perfbench/CMakeLists.txt) into .bench_build/perfbench; later runs reuse
it. Build output goes to stderr, so the last line on stdout is the
program's JSON result. Traces and temporary artifacts go to .bench_out/.
Without --seconds a run lasts BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ernn_perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("offline_int16", "live_gru_fft", "train_trial")


def build():
    """Configure and build; returns False (after printing why) on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_workload(args, workload):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    return subprocess.run(cmd).returncode


def run_all(args):
    """Every workload, each in its own process, one after another."""
    worst = 0
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        worst = max(worst, run_workload(args, workload))
    return worst


def self_test():
    """Check self-tests, then a short smoke run of every workload."""
    if subprocess.run([BINARY, "--self-test"]).returncode != 0:
        return 1
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [BINARY, "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--out", OUT],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and lines
            if ok:
                result = json.loads(lines[-1])
                ok = (result["correct"] and result["attempted"] > 0
                      and result["failed"] == 0 and result["metrics"])
            print("%s  smoke %s --trace %d"
                  % ("ok  " if ok else "FAIL", workload, trace))
            bad += 0 if ok else 1
    print("smoke: %d failure(s)" % bad)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check self-tests plus a smoke run of each "
                             "workload")
    parser.add_argument("--reference", action="store_true",
                        help="print the README's reference figures")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    if args.reference:
        return subprocess.run([BINARY, "--reference"]).returncode
    if args.self_test:
        return self_test()
    if args.workload is None:
        return run_all(args)
    return run_workload(args, args.workload)


if __name__ == "__main__":
    sys.exit(main())
