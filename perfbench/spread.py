#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

Run from the root of a checkout. Runs one workload after another, one seed
after another, with the run length of BENCHMARK.json. For each metric it
prints the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (Q3 - Q1) / median next to the metric's bound. This is
the check a benchmark change must pass (each end-to-end spread below its
bound, setup_s excepted); a change that claims a gain compares two such
sets of runs. Each run's wall time, build included, is printed too. --out
writes every run's result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    results = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in args.seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                    str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            took = time.perf_counter() - start
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode} after {took:.1f} s")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "run_s": took, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} in {took:.1f} s", flush=True)
        for metric in metrics:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            if len(values) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(mid) if mid else float("inf")
            bound = metric.get("bound")
            flag = "" if bound is None else ("  OK" if spread < bound / 3 else
                                             "  within bound" if spread < bound else "  TOO WIDE")
            print(f"  {metric['name']:<36} median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f}" + ("" if bound is None else f" / bound {bound}") + flag)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
