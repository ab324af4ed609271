"""scipy is loaded by the first nonlinear curve fit, not by ``import qdcascade``.

Every check runs in a fresh interpreter, since this test process has
long since imported scipy.
"""

import json

import pytest

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


def test_linear_fits_load_no_scipy_and_the_first_curve_fit_does():
    check("""
import sys
import numpy as np
from qdcascade import fit_model, fss_from_peak_positions
x = np.linspace(1.0, 10.0, 12)
fit_model("power_law", x, 3.0 * x**0.8)
angles = np.linspace(0.0, np.pi, 16)
fss_from_peak_positions(angles, 1.0 + 0.2 * np.sin(4 * angles))
""" + NO_SCIPY + """
fit_model("sinusoid", x, 0.5 + 0.3 * np.sin(2 * np.pi * x / 4.0))
assert "scipy.optimize" in sys.modules
""")


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


@pytest.mark.parametrize("call", ["fit", "report"])
def test_missing_scipy_is_an_import_error_not_a_failed_fit(call):
    # a FitError here would read as "no oscillation" in build_report and as a
    # failed side peak in g2_zero
    check("""
import sys
sys.modules["scipy.optimize"] = None  # an interpreter without scipy
import numpy as np
from qdcascade import fit_model, pipeline

x = 100.0 * np.arange(8) + 50.0
y = 0.5 + 0.4 * np.sin(2 * np.pi * x / 890.0)
bins = [{"bin_start_ps": s - 50.0, "bin_width_ps": 100.0, "total_counts": 1000.0,
         "fidelity": f, "fidelity_std": None, "concurrence": 0.95,
         "concurrence_std": None, "converged": True, "rho_file": f"bins/bin_{k:04d}.json"}
        for k, (s, f) in enumerate(zip(x, y))]
meta = {"toolkit_version": "0", "config": {}, "bins": bins, "skipped_bins": []}
try:
    fit_model("sinusoid", x, y) if sys.argv[1] == "fit" else pipeline.build_report(meta)
except ImportError:
    pass
else:
    raise AssertionError("no ImportError")
""", call)
