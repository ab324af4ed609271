"""Analyze commands whose output does not depend on numpy's CPU dispatch.

numpy picks some float64 kernels (``exp``, ``log``, ...) by CPU. With its
AVX-512 groups switched off, ``analyze lifetime``, ``power``, ``fss`` and
``g2`` must print the same bytes. The variable acts when numpy is
imported, so each setting runs in a child interpreter. ``analyze
recapture`` is not among them: its parameters move in the eleventh digit
without AVX-512 (README, "Determinism").
"""

import json

import numpy as np
import pytest

from conftest import run_python
from qdcascade import Histogram
from qdcascade.io import write_histogram_csv

#: numpy 2.x names of its AVX-512 dispatch groups, as the CI's no-AVX-512 job sets them
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

RUN = """
import json, sys
from qdcascade.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def write_inputs(root):
    """Seeded inputs of the four commands; returns their argv lists."""
    rng = np.random.default_rng(30)
    t = np.arange(-1000.0, 9000.0, 25.0)
    decay = 4.0 + np.where(t >= 0, 900.0 * np.exp(-np.maximum(t, 0.0) / 1100.0), 0.0)
    write_histogram_csv(Histogram(25.0, -1000.0, rng.poisson(decay)), root / "decay.csv")
    period, t = 12500.0, np.arange(-80000.0, 80000.0, 100.0)
    peaks = sum((40.0 if m == 0 else 800.0) * np.exp(-np.abs(t + 50.0 - m * period) / 900.0)
                for m in range(-6, 7))
    write_histogram_csv(Histogram(100.0, -80000.0, rng.poisson(2.0 + peaks)), root / "g2.csv")
    angles = np.deg2rad(np.arange(0, 360, 5))
    energies = 1000.0 + 2.3 * np.sin(4 * angles + 0.4) + 0.05 * rng.standard_normal(72)
    np.savetxt(root / "fss.csv", np.column_stack([angles, energies]), delimiter=",",
               header="angle_rad,energy_uev", comments="")
    x = np.logspace(0, 2, 40)
    y = 3.0 * x**0.9 * (1 + 0.05 * rng.standard_normal(40))
    np.savetxt(root / "power.csv", np.column_stack([x, y]), delimiter=",", header="x,y",
               comments="")
    return [["analyze", "lifetime", "--histogram", str(root / "decay.csv")],
            ["analyze", "g2", "--histogram", str(root / "g2.csv"), "--rep-period", "12500"],
            ["analyze", "fss", "--data", str(root / "fss.csv")],
            ["analyze", "power", "--data", str(root / "power.csv")]]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the dispatch group names are numpy 2's")
def test_analyze_output_ignores_avx512(tmp_path):
    argvs = json.dumps(write_inputs(tmp_path))
    outputs = []
    for features in ("", NO_AVX512):
        proc = run_python(RUN, argvs, env={"NPY_DISABLE_CPU_FEATURES": features})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count('"model"') == 3  # lifetime, fss and power print a fit
    assert outputs[1] == outputs[0]
