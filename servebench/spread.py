#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 servebench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                                 [--seconds S] [--trace 0|1] [--same-seed]

For every metric on the result line it prints the median, the quartiles and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Compare each
spread with the metric's bound in BENCHMARK.json. With --all it does the same
for every metric measured in the full reports. With --same-seed every run
uses --first-seed, so the spread is the host's alone, as when two commits
are compared on the same seeds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    report = [l for l in lines if l.startswith("full report: ")][-1]
    with open(report[len("full report: "):]) as f:
        return json.loads(lines[-1]), json.load(f)["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values = {}
    for i in range(args.seeds):
        seed = args.first_seed + (0 if args.same_seed else i)
        result, full = run_once(args.workload, seed, seconds, args.trace)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if args.all:
            for name, metric in full.items():
                if "value" in metric and name not in result["metrics"]:
                    values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{name:32s} median {median:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {spread:.4f}")


if __name__ == "__main__":
    main()
