import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_physical_rho, random_unitary2, rho_from_dict, trace_distance
from qdcascade import (H_UEV_PS, HBAR_UEV_PS, PHI_MINUS, PHI_PLUS,
                       ValidationError, concurrence, density_of, fidelity,
                       oscillation_period, project_physical, time_evolved_state)
from qdcascade.quantum import rho_to_dict, validate_density_matrix

HALF_PERIOD_465 = 444.69545124774226  # h / (2 * 4.65), frozen from the constants


def test_constants_consistent():
    assert H_UEV_PS == pytest.approx(2 * np.pi * HBAR_UEV_PS, rel=1e-12)
    assert HBAR_UEV_PS == pytest.approx(658.2119569)


class TestTimeEvolvedState:
    def test_zero_delay_is_phi_plus(self):
        psi = time_evolved_state(4.65, 0.0)
        assert np.allclose(psi, PHI_PLUS, atol=1e-12)

    def test_full_period_returns_to_phi_plus(self):
        # 890 ps ~ one period for 4.65 ueV
        psi = time_evolved_state(4.65, 890.0)
        assert abs(np.vdot(PHI_PLUS, psi)) ** 2 > 0.99999
        assert oscillation_period(4.65) == pytest.approx(889.3909024954845)

    def test_half_period_is_phi_minus(self):
        psi = time_evolved_state(4.65, HALF_PERIOD_465)
        overlap = abs(np.vdot(PHI_MINUS, psi)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @given(fss=st.floats(0.0, 50.0), t=st.floats(-1e5, 1e5))
    def test_normalization(self, fss, t):
        psi = time_evolved_state(fss, t)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    @given(fss=st.floats(0.1, 50.0), t=st.floats(-1e4, 1e4))
    def test_periodicity(self, fss, t):
        period = H_UEV_PS / fss
        a = time_evolved_state(fss, t)
        b = time_evolved_state(fss, t + period)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            time_evolved_state(-1.0, 0.0)
        with pytest.raises(ValidationError):
            time_evolved_state(1.0, np.inf)
        with pytest.raises(ValidationError, match="fss must be a finite"):
            time_evolved_state(np.nan, 0.0)


class TestDensityOf:
    def test_phi_plus_corners(self):
        rho = density_of(PHI_PLUS)
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(rho, expected, atol=1e-12)

    def test_hv_product_state(self):
        rho = density_of(np.array([0, 1, 0, 0], dtype=complex))
        assert rho[1, 1] == pytest.approx(1.0)
        assert np.sum(np.abs(rho)) == pytest.approx(1.0)

    def test_quarter_period_off_diagonal(self):
        # at T/4 the phase is pi/2, so rho[0,3] = 0.5*exp(-i*pi/2) = -0.5i
        psi = time_evolved_state(4.65, HALF_PERIOD_465 / 2.0)
        rho = density_of(psi)
        assert rho[0, 3] == pytest.approx(-0.5j, abs=1e-9)
        assert rho[3, 0] == pytest.approx(0.5j, abs=1e-9)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            density_of(np.array([1.0, 1.0, 0.0, 0.0]))


class TestFidelity:
    def test_exact_match(self):
        assert fidelity(density_of(PHI_PLUS), PHI_PLUS) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert fidelity(np.eye(4) / 4.0, PHI_PLUS) == pytest.approx(0.25)

    @pytest.mark.parametrize("t", [0.0, 100.0, 300.0, HALF_PERIOD_465, 700.0])
    def test_analytic_overlap(self, t):
        # |<phi+|psi(t)>|^2 = cos^2(fss*t / (2 hbar))
        fss = 4.65
        rho = density_of(time_evolved_state(fss, t))
        expected = np.cos(fss * t / (2 * HBAR_UEV_PS)) ** 2
        assert fidelity(rho, PHI_PLUS) == pytest.approx(expected, abs=1e-10)

    def test_half_period_is_orthogonal(self):
        rho = density_of(time_evolved_state(4.65, HALF_PERIOD_465))
        assert fidelity(rho, PHI_PLUS) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_nonphysical(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            fidelity(bad, PHI_PLUS)
        with pytest.raises(ValidationError):
            fidelity(np.eye(4) / 2.0, PHI_PLUS)  # trace 2

    def test_bounds_on_random_states(self, rng):
        for _ in range(50):
            rho = random_physical_rho(rng, rank=rng.integers(1, 5))
            f = fidelity(rho, PHI_PLUS)
            assert 0.0 <= f <= 1.0

    def test_self_fidelity_of_random_pure_states(self, rng):
        for _ in range(25):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            assert fidelity(density_of(psi), psi) == pytest.approx(1.0, abs=1e-10)


def _concurrence_oracle(rho):
    """Independent spin-flip construction, kept deliberately naive."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    product = rho @ flip @ rho.conj() @ flip
    lam = np.sort(np.sqrt(np.abs(np.linalg.eigvals(product))))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(density_of(PHI_PLUS)) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4.0) == 0.0

    def test_werner_state(self):
        rho = 0.5 * density_of(PHI_PLUS) + 0.5 * np.eye(4) / 4.0
        assert _concurrence_oracle(rho) == pytest.approx(0.25, abs=1e-9)
        assert concurrence(rho) == pytest.approx(0.25, abs=1e-9)

    def test_matches_oracle_on_random_states(self, rng):
        # the naive eigenvalue oracle itself carries sqrt(eps) ~ 1e-8 noise
        for _ in range(30):
            rho = random_physical_rho(rng, rank=rng.integers(1, 5))
            assert concurrence(rho) == pytest.approx(_concurrence_oracle(rho), abs=1e-6)

    @pytest.mark.parametrize("t", np.linspace(0.0, 2000.0, 9).tolist())
    def test_cascade_states_stay_maximally_entangled(self, t):
        rho = density_of(time_evolved_state(4.65, t))
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            rho = random_physical_rho(rng, rank=rng.integers(1, 5))
            u = np.kron(random_unitary2(rng), random_unitary2(rng))
            rotated = u @ rho @ u.conj().T
            rotated = 0.5 * (rotated + rotated.conj().T)
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


class TestProjectPhysical:
    def test_identity_on_physical_input(self, rng):
        rho = random_physical_rho(rng)
        assert np.max(np.abs(project_physical(rho) - rho)) < 1e-10

    def test_eigenvalue_clipping(self):
        m = np.diag([1.1, 0.1, -0.1, -0.1]).astype(complex)
        expected = np.diag([1.1, 0.1, 0.0, 0.0]) / 1.2
        assert np.allclose(project_physical(m), expected, atol=1e-12)

    def test_tiny_asymmetric_perturbation(self):
        rho = density_of(PHI_PLUS)
        noisy = rho.copy()
        noisy[0, 1] += 1e-12
        assert np.max(np.abs(project_physical(noisy) - rho)) < 1e-10

    def test_idempotent(self, rng):
        for _ in range(20):
            m = random_physical_rho(rng) + 0.1 * np.diag(rng.standard_normal(4))
            m = 0.5 * (m + m.conj().T)
            once = project_physical(m)
            twice = project_physical(once)
            assert np.max(np.abs(twice - once)) < 1e-10
            validate_density_matrix(once)

    def test_rejects_zero_and_asymmetric(self):
        with pytest.raises(ValidationError):
            project_physical(np.zeros((4, 4)))
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 1.0
        with pytest.raises(ValidationError):
            project_physical(skew)


class TestSerialization:
    def test_bit_exact_round_trip(self, rng):
        rho = random_physical_rho(rng)
        back = rho_from_dict(json.loads(json.dumps(rho_to_dict(rho))))
        assert np.array_equal(back, rho)

    def test_layout(self):
        obj = json.loads(json.dumps(rho_to_dict(density_of(PHI_PLUS))))
        assert set(obj) == {"re", "im"}
        assert obj["re"][0][0] == pytest.approx(0.5, abs=1e-15)
        assert len(obj["im"]) == 4 and len(obj["im"][2]) == 4


def test_trace_distance_basics():
    rho = density_of(PHI_PLUS)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    sigma = density_of(PHI_MINUS)
    assert trace_distance(rho, sigma) == pytest.approx(1.0, abs=1e-9)
    assert trace_distance(rho, np.eye(4) / 4.0) == pytest.approx(0.75, abs=1e-9)

