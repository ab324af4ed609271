"""Jones calculus: projector bases, waveplates and local-unitary corrections.

Single-photon polarization states are length-2 complex vectors
(H amplitude, V amplitude). The six analyzer settings are labelled
H, V, D, A, R, L; circular handedness follows R = (1, -i)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quantum import validate_density_matrix

BASIS_LABELS = ("H", "V", "D", "A", "R", "L")

#: Orthogonal partner of each label.
ORTHOGONAL = {"H": "V", "V": "H", "D": "A", "A": "D", "R": "L", "L": "R"}

#: The 16-projection minimal set uses one state of each mutually unbiased pair.
MINIMAL_LABELS = ("H", "V", "D", "R")


def projector_for(basis):
    """Jones vector of one analyzer setting.

    H=(1,0), V=(0,1), D=(1,1)/sqrt2, A=(1,-1)/sqrt2, R=(1,-i)/sqrt2,
    L=(1,i)/sqrt2.
    """
    s = 1.0 / np.sqrt(2.0)
    table = {
        "H": np.array([1.0, 0.0], dtype=complex),
        "V": np.array([0.0, 1.0], dtype=complex),
        "D": np.array([s, s], dtype=complex),
        "A": np.array([s, -s], dtype=complex),
        "R": np.array([s, -1j * s], dtype=complex),
        "L": np.array([s, 1j * s], dtype=complex),
    }
    try:
        return table[basis]
    except KeyError:
        raise ValidationError(f"unknown polarization label {basis!r}") from None


def rotation(angle):
    """2x2 real rotation matrix R(angle)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def waveplate_jones(retardance, fast_axis):
    """Jones matrix of a retarder with its fast axis at ``fast_axis``.

    J = R(fast_axis) diag(1, exp(-i*retardance)) R(-fast_axis), unitary
    up to the chosen global phase. retardance pi is a half-wave plate,
    pi/2 a quarter-wave plate.
    """
    core = np.diag([1.0, np.exp(-1j * retardance)])
    r = rotation(fast_axis)
    return r @ core @ r.T


def tomography_bases(count):
    """Ordered projection pairs for a 16- or 36-setting tomography.

    36 enumerates {H,V,D,A,R,L}^2, 16 enumerates {H,V,D,R}^2; the outer
    loop runs over the XX arm, the inner loop over the X arm, in the
    label order just given.

    Returns a list of (label_pair, jones_xx, jones_x) with label_pair a
    two-letter string such as "HV".
    """
    if count == 36:
        labels = BASIS_LABELS
    elif count == 16:
        labels = MINIMAL_LABELS
    else:
        raise ValidationError(f"unsupported basis count {count!r}; expected 16 or 36")
    pairs = []
    for a in labels:
        for b in labels:
            pairs.append((a + b, projector_for(a), projector_for(b)))
    return pairs


@dataclass(frozen=True)
class CorrectionUnitary:
    """Two-angle local rotation undoing setup birefringence.

    U(theta, phi) = Rz(phi) Ry(theta) with
    Ry(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]] and
    Rz(phi) = diag(exp(-i phi/2), exp(i phi/2)).
    """

    theta: float = 0.0
    phi: float = 0.0

    def matrix(self):
        half_t = 0.5 * self.theta
        ry = np.array(
            [[np.cos(half_t), -np.sin(half_t)], [np.sin(half_t), np.cos(half_t)]],
            dtype=complex,
        )
        rz = np.diag([np.exp(-0.5j * self.phi), np.exp(0.5j * self.phi)])
        return rz @ ry


def correction_unitary(c):
    """2x2 unitary of a CorrectionUnitary (or (theta, phi) tuple)."""
    if not isinstance(c, CorrectionUnitary):
        c = CorrectionUnitary(*c)
    return c.matrix()


ARMS = ("both", "xx_only", "x_only")


def apply_correction(rho, c, arms="both"):
    """Conjugate a physical rho by the correction on the selected arms.

    rho' = (U_a x U_b) rho (U_a x U_b)^+, with the identity on any arm
    not selected by ``arms`` (one of "both", "xx_only", "x_only").
    Local unitaries leave trace, spectrum and concurrence unchanged.
    """
    rho = validate_density_matrix(rho)
    if arms not in ARMS:
        raise ValidationError(f"arms must be one of {ARMS}, got {arms!r}")
    u = correction_unitary(c)
    eye = np.eye(2, dtype=complex)
    u_xx = u if arms in ("both", "xx_only") else eye
    u_x = u if arms in ("both", "x_only") else eye
    big = np.kron(u_xx, u_x)
    out = big @ rho @ big.conj().T
    return 0.5 * (out + out.conj().T)
