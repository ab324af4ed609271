import importlib
import os
import runpy
import sys

import pytest

import qdcascade

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


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
