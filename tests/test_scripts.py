import importlib
import os
import runpy
import shutil
import subprocess
import sys

import pytest

import qdcascade

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH = os.path.join(ROOT, "bench")


@pytest.mark.parametrize("script,args,expect", [
    ("run_fss_scan.py", [], "phase oscillation period"),
    ("run_cascade_pipeline.py", ["--pulses", "20000"], "peak fidelity"),
    ("run_autocorrelation_study.py", ["--pulses", "150000"], "recapture fit"),
], ids=["fss_scan", "cascade_pipeline", "autocorrelation_study"])
def test_script_runs(script, args, expect, tmp_path, monkeypatch, capsys):
    path = os.path.join(SCRIPTS, script)
    if script == "run_cascade_pipeline.py":
        args = args + ["--out", str(tmp_path / "pipeline")]
    monkeypatch.setattr(sys, "argv", [path] + args)
    runpy.run_path(path, run_name="__main__")
    assert expect in capsys.readouterr().out


def test_every_exported_name_resolves():
    missing = [name for name in qdcascade.__all__ if not hasattr(qdcascade, name)]
    assert missing == []


def test_every_benchmark_site_resolves(monkeypatch):
    # the benchmark wraps these module attributes; a renamed or deleted one
    # silently turns its per-layer metrics into "missing"
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    missing = [site.key for site, _ in layers.SITES
               if not callable(getattr(importlib.import_module(site.module), site.attr, None))]
    assert layers.SITES and missing == []


@pytest.mark.parametrize("workload", ["closed_loop", "g2_recapture"])
def test_benchmark_reads_every_layer(workload, tmp_path):
    # the benchmark's readers bind argument names (input, n_pulses, stream,
    # path, stream_a, stream_b) of the calls it wraps; a renamed argument
    # turns its per-layer metrics into "missing". The --tiny gates fail by
    # design, so only the coverage line is checked. The run happens in a
    # copy, so its .bench_work and .bench_out stay out of the checkout.
    for name in ("bench", "src"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "coverage PASS: 29 of 29" in proc.stdout, proc.stdout + proc.stderr
