#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json at
the tiny scale (PERFBENCH_SCALE=tiny) in both modes and asserts that the
last stdout line carries exactly the keys correct, attempted, failed and
metrics, that every metric BENCHMARK.json names prints with its unit and a
number, and that nothing failed. Then injects three faults and asserts
that each one raises the failed count: a corrupted CLI output, a wrong
serve answer, and a query the server refuses.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = "4"
FAULTS = (
    ("sparse-communities", "corrupt-cli"),
    ("sparse-communities", "wrong-serve"),
    ("dense-random", "refused-query"),
)


def bench(workload, trace, inject=""):
    env = dict(os.environ, PERFBENCH_SCALE="tiny", PERFBENCH_INJECT=inject)
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
            "--seconds", SECONDS, "--trace", str(trace)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert isinstance(result["failed"], int), result
    return result


def main():
    bench_spec = json.loads(Path("BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench_spec[section]}
        for workload in (w["name"] for w in bench_spec["workloads"]):
            result = bench(workload, trace)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected, f"{workload} trace={trace}: {units} != {expected}"
            for name, m in result["metrics"].items():
                value = m["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
            assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
            print(f"ok: {workload} --trace {trace}: {len(units)} metrics with units, "
                  f"{result['attempted']} operations, none failed")
    for workload, fault in FAULTS:
        result = bench(workload, 0, fault)
        assert result["failed"] >= 1 and not result["correct"], f"{fault}: {result}"
        print(f"ok: {fault} on {workload}: failed {result['failed']}/{result['attempted']}")
    print("selftest passed")


if __name__ == "__main__":
    main()
