"""Two-qubit states, density matrices and entanglement measures.

Conventions shared by every module:

* Pure states are length-4 complex vectors over the product basis
  (HH, HV, VH, VV), first slot = biexciton (XX) photon, second = exciton
  (X) photon.
* Density matrices are 4x4 complex ndarrays over the same basis.
* A matrix is "physical" when it is Hermitian, unit trace and positive
  semidefinite within the tolerances below.

The emitted two-photon state of a dot with fine-structure splitting
``fss`` evolves as (|HH> + exp(i*fss*t/hbar)|VV>)/sqrt(2), where t is
the delay between the two photons of one cascade.
"""

from __future__ import annotations

import numpy as np

from .constants import HBAR_UEV_PS, H_UEV_PS
from .errors import ValidationError, require_finite

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9
STATE_NORM_TOL = 1e-12
#: Largest anti-Hermitian part ``project_physical`` symmetrizes away.
PROJECTION_HERMITICITY_TOL = 1e-6

#: Bell state (|HH> + |VV>)/sqrt(2).
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

#: Bell state (|HH> - |VV>)/sqrt(2).
PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


def validate_state(psi):
    """Return psi as a normalized complex vector or raise ValidationError."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValidationError(f"pure state must have 4 amplitudes, got shape {psi.shape}")
    norm2 = float(np.vdot(psi, psi).real)
    if abs(norm2 - 1.0) > STATE_NORM_TOL:
        raise ValidationError(f"pure state not normalized: |psi|^2 = {norm2!r}")
    return psi


def validate_density_matrix(rho):
    """Check Hermiticity, unit trace and positivity of a 4x4 matrix.

    Returns the matrix as a complex ndarray; raises ValidationError on
    any violated invariant. Eigenvalues in [-EIGENVALUE_TOL, 0) are accepted
    because the MLE and bootstrap routinely produce boundary states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"density matrix must be 4x4, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValidationError(f"density matrix not Hermitian: max |rho - rho^+| = {herm!r}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"density matrix trace {tr!r} != 1")
    eigvals = np.linalg.eigvalsh(rho)
    if eigvals.min() < -EIGENVALUE_TOL:
        raise ValidationError(f"density matrix not PSD: min eigenvalue {eigvals.min()!r}")
    return rho


def time_evolved_state(fss, t):
    """Cascade two-photon state at XX-X delay t.

    Parameters
    ----------
    fss : float
        Fine-structure splitting in ueV (>= 0).
    t : float
        Delay between the two photons in ps.

    Returns
    -------
    ndarray
        (|HH> + exp(i*fss*t/hbar)|VV>)/sqrt(2). The phase period is
        h/fss; the state is maximally entangled for every t.
    """
    require_finite(fss=fss, t=t)
    if fss < 0:
        raise ValidationError("fss must be nonnegative")
    phase = np.exp(1j * fss * t / HBAR_UEV_PS)
    return np.array([1.0, 0.0, 0.0, phase], dtype=complex) / np.sqrt(2.0)


def oscillation_period(fss):
    """Period h/fss (ps) of the phase oscillation for splitting fss (ueV)."""
    require_finite(fss=fss)
    if fss <= 0:
        raise ValidationError("fss must be positive")
    return H_UEV_PS / fss


def density_of(psi):
    """Rank-1 density matrix |psi><psi| of a normalized pure state."""
    psi = validate_state(psi)
    return np.outer(psi, psi.conj())


def fidelity(rho, target):
    """Overlap <target|rho|target> of a physical rho with a pure target.

    Clamped to [0, 1]; raises ValidationError if rho is not physical.
    """
    rho = validate_density_matrix(rho)
    target = validate_state(target)
    val = float(np.real(np.vdot(target, rho @ target)))
    return min(1.0, max(0.0, val))


def concurrence(rho):
    """Wootters concurrence of a physical two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the descending
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).
    They are computed as the singular values of sqrt(rho) (sy x sy)
    sqrt(rho)^T, which avoids the sqrt-of-noise blowup of the direct
    eigenvalue route for boundary-rank states; spectral weight below
    1e-12 of the leading eigenvalue is treated as exactly zero.
    """
    rho = validate_density_matrix(rho)
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0.0, None)
    evals[evals < 1e-12 * evals.max()] = 0.0
    sqrt_rho = (evecs * np.sqrt(evals)) @ evecs.conj().T
    lam = np.linalg.svd(sqrt_rho @ _SY_SY @ sqrt_rho.T, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def project_physical(m):
    """Nearest physical density matrix to an approximately Hermitian m.

    Symmetrizes (rejecting anti-Hermitian parts above
    PROJECTION_HERMITICITY_TOL), clips negative eigenvalues to zero and
    renormalizes the trace; this is the Frobenius-nearest PSD unit-trace
    matrix. Raises ValidationError on an all-zero input.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected 4x4 matrix, got shape {m.shape}")
    if not np.any(m):
        raise ValidationError("cannot project an all-zero matrix")
    if np.max(np.abs(m - m.conj().T)) > PROJECTION_HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (m + m.conj().T)
    evals, evecs = np.linalg.eigh(sym)
    evals = np.clip(evals, 0.0, None)
    total = evals.sum()
    if total <= 0.0:
        raise ValidationError("matrix has no positive spectral weight")
    rho = (evecs * (evals / total)) @ evecs.conj().T
    return 0.5 * (rho + rho.conj().T)


def rho_to_dict(rho):
    """JSON-ready {"re": ..., "im": ...} form of a density matrix.

    Row-major 4x4 lists over the (HH, HV, VH, VV) basis; json's
    repr-precision floats make a round trip through text bit-exact.
    """
    rho = np.asarray(rho, dtype=complex)
    return {"re": rho.real.tolist(), "im": rho.imag.tolist()}
