#!/usr/bin/env python3
"""Run one qdcascade benchmark workload and print its metrics.

    python3 bench/run.py --workload closed_loop --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src and
nothing needs to be installed. The workload's inputs come from --seed.
Repetitions run until --seconds is spent, and an untraced run makes at
least two; each timing is the median over them. With --trace 0 the benchmark measures untraced
and reports the end-to-end metrics; with --trace 1 it spends half the
time untraced and half traced and reports the per-layer metrics plus
the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --tiny shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread: on a small shared machine OpenBLAS worker threads spin
# between the tiny 4x4 calls, doubling CPU time and the run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

SETUP_PROBES = 7
TAIL_PERCENTILES = (99, 95, 90, 80, 50)
ACCOUNTED = 0.98
# a closed_loop repetition takes 15-25 s; without a floor its median
# would rest on a single sample
MIN_REPS = 2
PROBE = ("import sys, time; sys.path.insert(0, {src!r}); import qdcascade; "
         "qdcascade.load_config({config!r}); print(time.monotonic())")


def import_package():
    """Import qdcascade from this checkout's src/, never from site-packages."""
    init = os.path.join(SRC, "qdcascade", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no qdcascade sources at {init}")
    sys.path.insert(0, SRC)
    import qdcascade

    if os.path.abspath(qdcascade.__file__) != init:
        sys.exit(f"error: imported qdcascade from {qdcascade.__file__}, not {init}")


def setup_seconds(config_path):
    """Median wall time of a fresh interpreter importing qdcascade and loading the config.

    The probe prints the system-wide monotonic clock once the config is
    loaded, so the time runs from spawning it to that point. Timing the
    parent's wait instead would add up to 50 ms of subprocess polling.
    """
    code = PROBE.format(src=SRC, config=config_path)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                             capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]) - t0)
    return statistics.median(times)


def run_reps(workload, work_dir, budget, traced, min_reps=1):
    """Repeat the workload until the next repetition would overrun ``budget`` seconds."""
    from layers import ACCOUNTING_SITES, ALL_SITES
    from tracer import Tracer
    from workloads import Rep

    reps, tracers, lengths = [], [], []
    start = time.perf_counter()
    while (len(reps) < min_reps
           or time.perf_counter() - start + statistics.median(lengths) <= budget):
        t0 = time.perf_counter()
        out_dir = os.path.join(work_dir, "out")
        os.makedirs(out_dir)
        with Tracer(timed=traced) as tracer:
            tracer.install(ALL_SITES if traced else ACCOUNTING_SITES)
            try:
                rep = workload.run(out_dir, tracer)
            except Exception as exc:  # counts every operation of the repetition as failed
                planned = workload.planned_ops()
                rep = Rep({}, "", [("exception", False, f"{type(exc).__name__}: {exc}")],
                          ops=planned, failed=planned)
        shutil.rmtree(out_dir)
        reps.append(rep)
        tracers.append(tracer)
        lengths.append(time.perf_counter() - t0)
        if not rep.timings:
            break
    return reps, tracers


def median_of(reps, key):
    values = [r.timings[key] for r in reps if key in r.timings]
    return statistics.median(values) if values else None


def verdict(reps):
    """All gates of every repetition, plus byte-identical output across them."""
    checks = [c for r in reps for c in r.checks]
    digests = {r.sha256 for r in reps}
    checks.append(("deterministic output", len(digests) == 1,
                   f"{len(digests)} distinct output digest(s) over {len(reps)} repetitions"))
    unique = list(dict.fromkeys(checks))  # repetitions repeat the same checks
    return all(ok for _, ok, _ in unique), unique


def metadata(tracers, n_plain):
    import numpy
    import scipy

    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
    except OSError:
        out = []
    # a checkout that is not itself a git work tree has no revision
    rev = out[1] if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT) else None
    lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    lines += sum(1 for _ in fh)
    meta = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_revision": rev, "src_lines": lines, "repetitions_untraced": n_plain,
            "repetitions_traced": len(tracers), "setup_probes": SETUP_PROBES}
    mle = [len(t.named("tomography.mle")) for t in tracers]
    if mle and max(mle):
        n = statistics.median(mle)
        meta["tail_metric"] = "tomography.mle_p80_ms"
        meta["tail_percentile"] = 80
        meta["tail_samples"] = n
        meta["highest_percentile_with_10_beyond"] = next(
            (p for p in TAIL_PERCENTILES if n * (1 - p / 100.0) >= 10), None)
    return meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload.prepare(work_dir)
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(workload.config_dict(), fh)
        if args.trace:
            plain, _ = run_reps(workload, work_dir, args.seconds / 2.0, traced=False)
            traced, tracers = run_reps(workload, work_dir, args.seconds / 2.0, traced=True)
        else:
            setup_s = setup_seconds(config_path)
            plain, plain_tracers = run_reps(workload, work_dir, args.seconds, traced=False,
                                            min_reps=MIN_REPS)
            traced, tracers = [], []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = plain + traced
    correct, checks = verdict(reps)
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    meta = metadata(tracers, len(plain))

    print(f"qdcascade benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, {len(plain)} untraced + {len(traced)} traced repetitions")
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        metrics = _traced_metrics(workload.name, args.seed, plain, traced, tracers)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (median_of(plain, "wall_s"), "s"),
                   "peak_rss_mb": (peak, "MB")}
        shown = dict(metrics)
        for key in ("simulate_s", "tomo_s"):
            if median_of(plain, key) is not None:
                shown[key] = (median_of(plain, key), "s")
        shown["fail_frac"] = (failed / attempted if attempted else 1.0, "ratio")
        shown["ops"] = (attempted, "count")
        from layers import unusable_sites

        for key, why in sorted(unusable_sites(plain_tracers[0], workload.name).items()):
            print(f"accounting MISSING {key}: {why}; its failures are not counted")
        binned = plain_tracers[0].named("tomography.time_binned")
        if binned and all("nll_sum" in s.attrs for s in binned):
            shown["nll_sum"] = (sum(s.attrs["nll_sum"] for s in binned), "nll")
        for name, (value, unit) in shown.items():
            print(f"{name:<16} {value!r} {unit}")
        print("wall_s per repetition " + " ".join(f"{r.timings['wall_s']:.4f}"
                                                   for r in plain if r.timings))
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"report_sha256 {reps[0].sha256}")
    print(f"correct {'PASS' if correct else 'FAIL'}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _traced_metrics(name, seed, plain, traced, tracers):
    """Median per-layer metrics over the traced repetitions; prints the coverage checks."""
    from layers import PER_LAYER, layer_metrics, unusable_sites

    good = [t for t, r in zip(tracers, traced) if r.timings]
    per_rep = [layer_metrics(t, name) for t in good]
    metrics = {}
    for m in PER_LAYER:
        values = [d[m.name] for d in per_rep if m.name in d]
        if values and len(values) == len(per_rep):
            metrics[m.name] = (statistics.median(values), m.unit)
    traced_wall, plain_wall = median_of(traced, "wall_s"), median_of(plain, "wall_s")
    if traced_wall is not None and plain_wall is not None:
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    bad = unusable_sites(tracers[-1], name) if tracers else {}
    for key, why in sorted(bad.items()):
        print(f"coverage MISSING {key}: {why}")
    absent = [m.name for m in PER_LAYER if m.name not in metrics]
    print(f"coverage {'PASS' if not bad else 'FAIL'}: {len(PER_LAYER) - len(absent)} of "
          f"{len(PER_LAYER)} per-layer metrics reported" + (f"; missing {absent}" if absent else ""))
    if good and traced_wall:
        # every span nests inside a top-level one, so the layers' self times
        # (pipeline.self_s included) add up to the top-level spans' total
        covered = statistics.median(
            sum(s.duration for s in t.spans if s.parent is None) for t in good) / traced_wall
        layers = {k: round(v, 4) for k, v in sorted(good[0].self_times().items())}
        print(f"accounting {'PASS' if covered >= ACCOUNTED else 'FAIL'}: layer self times "
              f"cover {covered:.4f} of traced wall_s {traced_wall:.3f} s "
              f"(want >= {ACCOUNTED}); by layer {layers}")
        path = os.path.join(ROOT, ".bench_out", f"{name}-seed{seed}-spans.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([t.to_json() for t in good], fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<34} {value!r} {unit}")
    return metrics


if __name__ == "__main__":
    main()
