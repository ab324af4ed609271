import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_physical_rho
from qdcascade import (PHI_PLUS, ValidationError, apply_correction, concurrence,
                       correction_unitary, density_of, projector_for,
                       tomography_bases, waveplate_jones)
from qdcascade.polarization import BASIS_LABELS, ORTHOGONAL, CorrectionUnitary
from qdcascade.quantum import validate_density_matrix

angles = st.floats(-10.0, 10.0)


class TestProjectors:
    def test_table(self):
        s = 1 / np.sqrt(2)
        assert np.allclose(projector_for("H"), [1, 0])
        assert np.allclose(projector_for("V"), [0, 1])
        assert np.allclose(projector_for("D"), [s, s])
        assert np.allclose(projector_for("A"), [s, -s])
        assert np.allclose(projector_for("R"), [s, -1j * s])
        assert np.allclose(projector_for("L"), [s, 1j * s])

    def test_normalization_and_orthogonality(self):
        for label in BASIS_LABELS:
            v = projector_for(label)
            assert abs(np.vdot(v, v).real - 1.0) < 1e-12
            w = projector_for(ORTHOGONAL[label])
            assert abs(np.vdot(v, w)) < 1e-12

    def test_mutually_unbiased_overlaps(self):
        groups = {"H": "HV", "V": "HV", "D": "DA", "A": "DA", "R": "RL", "L": "RL"}
        for a, b in itertools.combinations(BASIS_LABELS, 2):
            if groups[a] == groups[b]:
                continue
            overlap = abs(np.vdot(projector_for(a), projector_for(b))) ** 2
            assert overlap == pytest.approx(0.5, abs=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            projector_for("Q")


class TestWaveplates:
    @given(retardance=angles, fast_axis=angles)
    def test_unitarity(self, retardance, fast_axis):
        j = waveplate_jones(retardance, fast_axis)
        assert np.max(np.abs(j.conj().T @ j - np.eye(2))) < 1e-12

    def test_hwp_at_zero_fixes_h(self):
        out = waveplate_jones(np.pi, 0.0) @ projector_for("H")
        assert abs(np.vdot(projector_for("H"), out)) == pytest.approx(1.0, abs=1e-12)

    def test_hwp_at_45_swaps_h_v(self):
        out = waveplate_jones(np.pi, np.pi / 4) @ projector_for("H")
        assert abs(np.vdot(projector_for("V"), out)) == pytest.approx(1.0, abs=1e-12)

    def test_qwp_at_45_makes_circular(self):
        out = waveplate_jones(np.pi / 2, np.pi / 4) @ projector_for("H")
        assert abs(out[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        # overlap with one circular state is 1, with the other 0
        overlaps = sorted(
            abs(np.vdot(projector_for(l), out)) ** 2 for l in ("R", "L")
        )
        assert overlaps[0] == pytest.approx(0.0, abs=1e-12)
        assert overlaps[1] == pytest.approx(1.0, abs=1e-12)

    def test_settings_realize_projections(self):
        # a QWP, then an HWP, then an H-transmitting polarizer passes one state
        angles = {"H": (0.0, 0.0), "V": (0.0, np.pi / 4), "D": (np.pi / 4, np.pi / 8),
                  "A": (np.pi / 4, 3 * np.pi / 8), "R": (np.pi / 4, 0.0),
                  "L": (np.pi / 4, np.pi / 4)}
        h = np.array([1.0, 0.0], dtype=complex)
        for label, (qwp, hwp) in angles.items():
            realized = (waveplate_jones(np.pi / 2, qwp).conj().T
                        @ waveplate_jones(np.pi, hwp).conj().T @ h)
            assert abs(np.vdot(projector_for(label), realized)) == pytest.approx(1.0, abs=1e-12)


class TestTomographyBases:
    def test_full_set(self):
        bases = tomography_bases(36)
        labels = [b[0] for b in bases]
        assert len(bases) == 36 and len(set(labels)) == 36
        assert labels[0] == "HH" and labels[-1] == "LL"

    def test_minimal_set(self):
        bases = tomography_bases(16)
        labels = [b[0] for b in bases]
        assert len(bases) == 16
        assert "DR" in labels
        assert not any("A" in l or "L" in l for l in labels)

    def test_unsupported_count(self):
        with pytest.raises(ValidationError):
            tomography_bases(9)

    def test_projector_sum_is_nine_identity(self):
        total = np.zeros((4, 4), dtype=complex)
        for _, a, b in tomography_bases(36):
            psi = np.kron(a, b)
            total += np.outer(psi, psi.conj())
        assert np.max(np.abs(total - 9.0 * np.eye(4))) < 1e-10

    def test_probabilities_sum_to_nine(self, rng):
        from qdcascade.tomography import expected_probability

        rho = random_physical_rho(rng)
        total = sum(
            expected_probability(rho, (a, b)) for _, a, b in tomography_bases(36)
        )
        assert total == pytest.approx(9.0, abs=1e-9)


class TestCorrection:
    def test_identity(self):
        assert np.allclose(correction_unitary((0.0, 0.0)), np.eye(2), atol=1e-12)

    def test_theta_pi_is_spin_flip(self):
        u = correction_unitary((np.pi, 0.0))
        out = u @ np.array([1.0, 0.0])
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(out[0]) == pytest.approx(0.0, abs=1e-12)

    @given(theta=angles, phi=angles)
    def test_always_unitary(self, theta, phi):
        u = correction_unitary(CorrectionUnitary(theta, phi))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_reported_setup_angles_are_unitary(self):
        u = correction_unitary((0.521, -1.284))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


class TestApplyCorrection:
    def test_identity_correction_is_noop(self):
        rho = density_of(PHI_PLUS)
        out = apply_correction(rho, (0.0, 0.0), "both")
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_concurrence_invariant(self, rng):
        for _ in range(10):
            rho = random_physical_rho(rng, rank=rng.integers(1, 5))
            c = CorrectionUnitary(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
            for arms in ("both", "xx_only", "x_only"):
                out = apply_correction(rho, c, arms)
                assert concurrence(out) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_flip_both_arms_maps_hh_to_vv(self):
        hh = np.zeros(4, dtype=complex)
        hh[0] = 1.0
        vv = np.zeros(4, dtype=complex)
        vv[3] = 1.0
        out = apply_correction(density_of(hh), (np.pi, 0.0), "both")
        assert np.max(np.abs(out - density_of(vv))) < 1e-10

    def test_single_arm_selectors_differ(self):
        rho = density_of(PHI_PLUS)
        c = CorrectionUnitary(0.7, -0.3)
        xx_only = apply_correction(rho, c, "xx_only")
        x_only = apply_correction(rho, c, "x_only")
        assert np.max(np.abs(xx_only - x_only)) > 1e-3

    def test_preserves_trace_and_spectrum(self, rng):
        rho = random_physical_rho(rng)
        out = apply_correction(rho, (0.521, -1.284), "both")
        validate_density_matrix(out)
        assert np.allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-10
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            apply_correction(np.eye(4), (0, 0), "both")  # trace 4
        with pytest.raises(ValidationError):
            apply_correction(np.eye(4) / 4, (0, 0), "sideways")
