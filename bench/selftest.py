#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json matches the metrics the code defines; that an
untraced run of every workload prints each end-to-end metric with its
unit, and a JSON result line with exactly its four keys; that
two traced runs with the same seed repeat the exact counts bit for bit;
and that the benchmark fails, without a result line, in a directory
holding only BENCHMARK.json and bench/. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

EXACT = ("simulate.events_out", "correlations.pairs", "tomography.mle_calls",
         "tomography.mle_iters", "tomography.objective_evals", "tomography.nll_sum")
PRINTED = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
           "ops": "count"}
PRINTED_BY_WORKLOAD = {"closed_loop": {"simulate_s": "s", "tomo_s": "s", "nll_sum": "nll"},
                       "g2_recapture": {}}
TRACE_ONLY = ("trace.overhead_s",)


def fail(message):
    sys.exit(f"selftest FAIL: {message}")


def run(workload, trace, cwd=ROOT, seed=7):
    command = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{what}: attempted {result['attempted']!r}")
    return result, lines[:-1]


def check_spec(spec):
    from layers import PER_LAYER
    from workloads import WORKLOADS

    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    defined = [(m.name, m.unit, m.better) for m in PER_LAYER]
    if [d for d in declared if d[0] not in TRACE_ONLY] != defined:
        fail("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if "setup_s" not in {m["name"] for m in spec["end_to_end"]}:
        fail("setup_s is not an end-to-end metric")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in [w["name"] for w in spec["workloads"]]:
        result, lines = result_of(run(workload, 0), f"{workload} --trace 0")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != end_to_end:
            fail(f"{workload}: untraced metrics {got}, want {end_to_end}")
        for name, unit in {**PRINTED, **PRINTED_BY_WORKLOAD[workload]}.items():
            if not any(re.fullmatch(rf"{re.escape(name)}\s+\S+ {re.escape(unit)}", line)
                       for line in lines):
                fail(f"{workload}: no printed line '{name} <value> {unit}'")

        first, _ = result_of(run(workload, 1), f"{workload} --trace 1")
        second, _ = result_of(run(workload, 1), f"{workload} --trace 1 (again)")
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        if got != per_layer:
            fail(f"{workload}: traced metrics differ from per_layer: "
                 f"{sorted(set(got) ^ set(per_layer))}")
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                fail(f"{workload}: {name} differs between runs with one seed: {a!r} {b!r}")
        print(f"selftest ok: {workload}", flush=True)

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("g2_recapture", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("the benchmark did not fail without the package sources")
    print("selftest ok: fails without sources")
    print("selftest PASS")


if __name__ == "__main__":
    main()
