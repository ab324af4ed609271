import os
import subprocess
import sys

import numpy as np
import pytest

import qdcascade
from qdcascade.polarization import tomography_bases
from qdcascade.tomography import (ProjectionRecord, TomographyInput,
                                  expected_probability)


def random_physical_rho(rng, rank=4):
    """Random density matrix of the given rank (Ginibre construction)."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary2(rng):
    """Haar-ish random 2x2 unitary via QR of a complex Gaussian."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def make_input(rho, flux, basis_count=36, rng=None, weights=None):
    """Projection counts for a state: exact (rounded) or Poisson-noisy."""
    records = []
    for label, a, b in tomography_bases(basis_count):
        w = 1.0 if weights is None else weights.get(label, 1.0)
        expected = flux * w * expected_probability(rho, (a, b))
        counts = float(rng.poisson(expected)) if rng is not None else float(round(expected))
        records.append(ProjectionRecord(label, counts, w))
    return TomographyInput(tuple(records))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def run_python(code, *args, timeout=120):
    """Run ``code`` in a fresh interpreter that imports this checkout's qdcascade."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdcascade.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)
