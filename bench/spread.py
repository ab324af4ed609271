#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's quartile spread.

    python3 bench/spread.py --workload closed_loop --seeds 1-10 [--trace 0]

For each metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json and
a third of it. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    command = spec["command"] + ["--workload", args.workload, "--seconds",
                                 str(spec["run_seconds"]), "--trace", str(args.trace)]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(command + ["--seed", str(seed)], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=900).stdout
        result = json.loads(out.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
              flush=True)
        for key, value in row.items():
            values.setdefault(key, []).append(value)
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(key)
        flag = "" if bound is None else (
            f"bound {bound} third {bound / 3:.4f} " + ("ok" if spread < bound / 3 else "WIDE"))
        print(f"{key:<34} median {med:.6g} spread {spread:.4f} {flag}")


if __name__ == "__main__":
    sys.exit(main())
