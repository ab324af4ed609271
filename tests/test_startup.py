"""qdcascade runs on numpy alone: no import, command or curve fit loads scipy.

Every check runs in a fresh interpreter, since this test process has
long since imported scipy (the tests use it as an oracle).
"""

import json

from conftest import run_python

NO_SCIPY = """
import sys
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:3]}"
"""


def check(code, *args):
    proc = run_python(code, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_import_config_and_simulate_load_no_scipy(tmp_path):
    config = {"simulation": {"n_pulses": 1000, "seed": 3},
              "io": {"output_dir": str(tmp_path / "out"), "formats": ["binary"]}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    check("""
import sys
import qdcascade
from qdcascade import cli, pipeline, io
from qdcascade.config import load_config
pipeline.cmd_simulate(load_config(sys.argv[1]))
""" + NO_SCIPY, tmp_path / "config.json")
    assert (tmp_path / "out" / "manifest.json").exists()


def test_config_error_exit_loads_no_scipy(tmp_path):
    check("""
import sys
from qdcascade.cli import main
assert main(["simulate", "--config", sys.argv[1]]) == 1
""" + NO_SCIPY, tmp_path / "missing.json")


def test_commands_and_curve_fits_load_no_scipy(tmp_path):
    config = {"simulation": {"n_pulses": 20000, "seed": 1},
              "tomography": {"max_delay_ps": 1500}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    check("""
import sys
import numpy as np
from qdcascade.cli import main
from qdcascade.correlations import Histogram
from qdcascade.io import write_histogram_csv

root, cfg = sys.argv[1], sys.argv[1] + "/config.json"
assert main(["simulate", "--config", cfg, "--out", root + "/sim"]) == 0
# tomo and report fit the fidelity oscillation, a nonlinear sinusoid fit
assert main(["tomo", "--config", cfg, "--manifest", root + "/sim/manifest.json",
             "--out", root + "/tomo"]) == 0
assert main(["report", "--dir", root + "/tomo"]) == 0
u = np.abs(np.arange(-4000.0, 4000.0, 25.0) + 12.5 - 30.0)
y = np.random.default_rng(3).poisson(5.0 + 3000.0 * np.exp(-u / 1100.0)
                                     * (1.0 - np.exp(-u / 546.0)))
write_histogram_csv(Histogram(25.0, -4000.0, y), root + "/xx.csv")
assert main(["analyze", "recapture", "--histogram", root + "/xx.csv"]) == 0
""" + NO_SCIPY, tmp_path)


def test_concurrent_first_fits_match_a_serial_fit():
    check("""
import threading
import numpy as np
from dataclasses import asdict
from qdcascade import fit_model

x = np.linspace(-500.0, 500.0, 101)
y = 20.0 + 300.0 * 40.0**2 / ((x - 15.0) ** 2 + 40.0**2)
barrier, results = threading.Barrier(2), [None, None]

def first_fit(k):
    barrier.wait()
    results[k] = asdict(fit_model("lorentzian", x, y))

threads = [threading.Thread(target=first_fit, args=(k,)) for k in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
serial = asdict(fit_model("lorentzian", x, y))
assert results == [serial, serial], (results, serial)
""")
