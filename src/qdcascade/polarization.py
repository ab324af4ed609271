"""Jones calculus: projector bases and local-unitary corrections.

Single-photon polarization states are length-2 complex vectors
(H amplitude, V amplitude). The six analyzer settings are labelled
H, V, D, A, R, L; circular handedness follows R = (1, -i)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite
from .quantum import validate_density_matrix

BASIS_LABELS = ("H", "V", "D", "A", "R", "L")

#: The 16-projection minimal set uses one state of each mutually unbiased pair.
MINIMAL_LABELS = ("H", "V", "D", "R")


_S = 1.0 / np.sqrt(2.0)
_JONES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_S, _S], dtype=complex),
    "A": np.array([_S, -_S], dtype=complex),
    "R": np.array([_S, -1j * _S], dtype=complex),
    "L": np.array([_S, 1j * _S], dtype=complex),
}
for _v in _JONES.values():
    _v.setflags(write=False)


def projector_for(basis):
    """Jones vector of one analyzer setting, read-only.

    H=(1,0), V=(0,1), D=(1,1)/sqrt2, A=(1,-1)/sqrt2, R=(1,-i)/sqrt2,
    L=(1,i)/sqrt2.
    """
    try:
        return _JONES[basis]
    except KeyError:
        raise ValidationError(f"unknown polarization label {basis!r}") from None


def pair_projectors(label):
    """Jones vectors (XX arm, X arm) of a two-letter basis-pair label such
    as "HV": the one parser of such labels."""
    if not isinstance(label, str) or len(label) != 2:
        raise ValidationError(f"basis pair must be two letters, got {label!r}")
    return projector_for(label[0]), projector_for(label[1])


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
    return [(a + b, *pair_projectors(a + b)) for a in labels for b in labels]


ARMS = ("both", "xx_only", "x_only")


@dataclass(frozen=True)
class Correction:
    """Two-angle local rotation undoing setup birefringence, on selected arms.

    U(theta, phi) = Rz(phi) Ry(theta) with
    Ry(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]] and
    Rz(phi) = diag(exp(-i phi/2), exp(i phi/2)). ``arms`` (one of
    "both", "xx_only", "x_only") names the photons it acts on.
    """

    theta: float = 0.0
    phi: float = 0.0
    arms: str = "both"

    def __post_init__(self):
        require_finite(theta=self.theta, phi=self.phi)
        if self.arms not in ARMS:
            raise ValidationError(f"correction arms must be one of {ARMS}, got {self.arms!r}")

    def matrix(self):
        """The 2x2 unitary U(theta, phi)."""
        half_t = 0.5 * self.theta
        ry = np.array(
            [[np.cos(half_t), -np.sin(half_t)], [np.sin(half_t), np.cos(half_t)]],
            dtype=complex,
        )
        rz = np.diag([np.exp(-0.5j * self.phi), np.exp(0.5j * self.phi)])
        return rz @ ry

    def apply(self, rho):
        """Conjugate a physical rho by the rotation on the selected arms.

        rho' = (U_a x U_b) rho (U_a x U_b)^+, with the identity on an arm
        that ``arms`` leaves out. Local unitaries leave trace, spectrum
        and concurrence unchanged.
        """
        rho = validate_density_matrix(rho)
        u = self.matrix()
        eye = np.eye(2, dtype=complex)
        u_xx = u if self.arms in ("both", "xx_only") else eye
        u_x = u if self.arms in ("both", "x_only") else eye
        big = np.kron(u_xx, u_x)
        out = big @ rho @ big.conj().T
        return 0.5 * (out + out.conj().T)
