#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--runs 5]

For every workload in BENCHMARK.json it runs two interleaved sets of
--runs untraced runs of run_seconds each (A1 B1 A2 B2 ...), every run
with its own seed, and prints for each end-to-end metric: each set's
median and quartiles, the spread of all runs (quartile distance over
median, as statistics.quantiles(n=4) gives them), and how much worse
set B's median is than set A's -- each against the metric's bound in
BENCHMARK.json. A metric is "ok" when its spread is below a third of
its bound and set B is not worse than set A by more than the bound.
Raw results go to .bench_out/steady.json.
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
print = functools.partial(print, flush=True)  # progress shows while running


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady: run failed: " + " ".join(cmd))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (two sets per workload)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    raw = {}
    worst_ok = True
    for wi, workload in enumerate(names):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for si, s in enumerate(("A", "B")):
                seed = 1000 * (wi + 1) + 2 * i + si + 1
                sets[s].append(run_once(bench, workload, seed, seconds))
        raw[workload] = sets
        everything = sets["A"] + sets["B"]
        shares = {s: sum(r["failed"] for r in sets[s]) /
                  sum(r["attempted"] for r in sets[s]) for s in sets}
        correct = all(r["correct"] for r in everything)
        print("\n%s: %d+%d runs of %d s, outputs %s, failed share A %.6f"
              " B %.6f" % (workload, args.runs, args.runs, seconds,
                            "correct" if correct else "WRONG",
                            shares["A"], shares["B"]))
        print("  %-14s %12s %12s %12s %12s %8s %8s %7s  %s"
              % ("metric", "A median", "A q1", "A q3", "B median",
                 "spread", "B worse", "bound", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in sets["A"]]
            vb = [r["metrics"][name]["value"] for r in sets["B"]]
            q1a, ma, q3a, _ = spread(va)
            _, mb, _, _ = spread(vb)
            _, _, _, all_spread = spread(va + vb)
            worse = (mb - ma) / ma if m["better"] == "lower" \
                else (ma - mb) / ma
            ok = worse <= bound and all_spread < bound / 3
            worst_ok = worst_ok and ok and correct and \
                shares["A"] == shares["B"]
            print("  %-14s %12.6g %12.6g %12.6g %12.6g %7.2f%% %7.2f%%"
                  " %6.0f%%  %s" % (name, ma, q1a, q3a, mb,
                                    100 * all_spread, 100 * worse,
                                    100 * bound, "ok" if ok else "UNSTEADY"))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("\nsteady: %s" % ("all metrics steady" if worst_ok
                            else "NOT steady"))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
