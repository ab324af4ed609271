import os
import subprocess
import sys

import numpy as np
import pytest

import qdcascade
from qdcascade.polarization import tomography_bases
from qdcascade.tomography import (ProjectionRecord, TomographyInput, _linear_inversion,
                                  _prepared, expected_probability)


#: Orthogonal partner of each analyzer label.
ORTHOGONAL = {"H": "V", "V": "H", "D": "A", "A": "D", "R": "L", "L": "R"}


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


def waveplate_jones(retardance, fast_axis):
    """Jones matrix R(fast_axis) diag(1, exp(-i*retardance)) R(-fast_axis) of a
    retarder: retardance pi is a half-wave plate, pi/2 a quarter-wave plate."""
    c, s = np.cos(fast_axis), np.sin(fast_axis)
    r = np.array([[c, -s], [s, c]])
    return r @ np.diag([1.0, np.exp(-1j * retardance)]) @ r.T


def trace_distance(rho, sigma):
    """Trace distance 0.5*||rho - sigma||_1 between two 4x4 matrices."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def rho_from_dict(obj):
    """The density matrix of a ``quantum.rho_to_dict`` object."""
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def estimate_normalization(input):
    """(pair flux, N_v of each record) as the MLE's normalization sees them."""
    _, _, flux, norms = _prepared(input)
    return flux, norms


def linear_inversion(input):
    """The linear-inversion seed of the MLE, before projection onto physical states."""
    setup, counts, _, norms = _prepared(input)
    return _linear_inversion(setup, counts, norms)


def make_input(rho, flux, basis_count=36, rng=None, weights=None):
    """Projection counts for a state: exact (rounded) or Poisson-noisy."""
    records = []
    for label, a, b in tomography_bases(basis_count):
        w = 1.0 if weights is None else weights.get(label, 1.0)
        expected = flux * w * expected_probability(rho, (a, b))
        counts = float(rng.poisson(expected)) if rng is not None else float(round(expected))
        records.append(ProjectionRecord(label, counts, w))
    return TomographyInput(tuple(records))


def write_tomo_csv(path, data):
    """Write what ``tomo --counts`` or ``tomo --binned`` reads.

    A TomographyInput becomes ``basis,counts,weight`` rows; a {basis:
    Histogram} dict becomes ``basis,bin_start_ps,counts`` rows, in sorted
    basis order. Floats get 17 significant digits, so they read back bit for bit.
    """
    if isinstance(data, TomographyInput):
        header = "basis,counts,weight"
        rows = [(r.basis_pair, r.counts, r.acquisition_weight) for r in data.records]
    else:
        header = "basis,bin_start_ps,counts"
        rows = [(basis, start, int(c)) for basis in sorted(data)
                for start, c in zip(data[basis].bin_starts, data[basis].counts)]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def run_python(code, *args, timeout=120, env=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's qdcascade,
    with the variables in ``env`` added to this process's environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdcascade.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **(env or {}), "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)
