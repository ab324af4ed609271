import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import (estimate_normalization, linear_inversion, make_input,
                      random_physical_rho, trace_distance)
from qdcascade import (HBAR_UEV_PS, PHI_PLUS, ValidationError, concurrence,
                       density_of, fidelity, mle_reconstruct, neg_log_likelihood,
                       project_physical, rho_from_t, time_evolved_state)
from qdcascade.correlations import Histogram
from qdcascade.polarization import projector_for, tomography_bases
from qdcascade import tomography
from qdcascade.tomography import (ProjectionRecord, TomographyInput,
                                  _hessian, _objective_and_grad, _prepared, _t_from_rho,
                                  bootstrap_metrics, expected_probability,
                                  time_binned_tomography)

VV = np.array([0, 0, 0, 1], dtype=complex)


class TestExpectedProbability:
    def test_bell_state_examples(self):
        rho = density_of(PHI_PLUS)
        v = projector_for("V")
        h = projector_for("H")
        assert expected_probability(rho, (v, v)) == pytest.approx(0.5, abs=1e-12)
        assert expected_probability(rho, (h, v)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 150.0, 444.7, 890.0])
    def test_dd_oscillation(self, t):
        # <DD|psi(t)> expands to (1 + cos(fss*t/hbar)) / 4
        fss = 4.65
        rho = density_of(time_evolved_state(fss, t))
        d = projector_for("D")
        expected = (1.0 + np.cos(fss * t / HBAR_UEV_PS)) / 4.0
        assert expected_probability(rho, (d, d)) == pytest.approx(expected, abs=1e-12)


class TestRecordsAndInput:
    def test_record_validation(self):
        with pytest.raises(ValidationError):
            ProjectionRecord("HQ", 10)
        with pytest.raises(ValidationError):
            ProjectionRecord("HV", -1)
        with pytest.raises(ValidationError):
            ProjectionRecord("HV", 10, acquisition_weight=0.0)
        with pytest.raises(ValidationError, match="acquisition_weight must be a finite"):
            ProjectionRecord("HV", 10, acquisition_weight=np.inf)

    def test_input_validation(self):
        records = [ProjectionRecord("HV", 1)] * 16
        with pytest.raises(ValidationError, match="duplicate"):
            TomographyInput(tuple(records))
        with pytest.raises(ValidationError, match="16 or 36"):
            TomographyInput((ProjectionRecord("HV", 1),))

    def test_normalization_from_exact_counts(self):
        inp = make_input(density_of(PHI_PLUS), 1e6, 36)
        flux, norms = estimate_normalization(inp)
        assert flux == pytest.approx(1e6, rel=1e-6)
        assert np.allclose(norms, 1e6, rtol=1e-6)

    def test_normalization_needs_one_complete_quadruple(self):
        labels = [a + b for a in "HVDR" for b in "HVDR"]
        labels.remove("VV")
        labels.append("DL")  # still 16 distinct pairs, but no full quadruple
        records = tuple(ProjectionRecord(l, 100.0) for l in labels)
        with pytest.raises(ValidationError, match="quadruple"):
            estimate_normalization(TomographyInput(records))

    def test_normalization_respects_weights(self):
        weights = {label: (2.0 if label.startswith("D") else 1.0)
                   for label, _, _ in tomography_bases(36)}
        inp = make_input(density_of(PHI_PLUS), 1e6, 36, weights=weights)
        flux, norms = estimate_normalization(inp)
        assert flux == pytest.approx(1e6, rel=1e-5)
        by_pair = dict(zip([r.basis_pair for r in inp.records], norms))
        assert by_pair["DD"] == pytest.approx(2e6, rel=1e-5)
        assert by_pair["HH"] == pytest.approx(1e6, rel=1e-5)


class TestLinearInversion:
    def test_round_trip_bell(self):
        inp = make_input(density_of(PHI_PLUS), 1e8, 36)
        rho = linear_inversion(inp)
        assert np.max(np.abs(rho - density_of(PHI_PLUS))) < 1e-8

    def test_round_trip_random(self, rng):
        for _ in range(5):
            target = random_physical_rho(rng)
            inp = make_input(target, 1e9, 36)
            assert trace_distance(linear_inversion(inp), target) < 1e-7

    def test_equal_counts_give_maximally_mixed(self):
        records = tuple(
            ProjectionRecord(label, 1000.0) for label, _, _ in tomography_bases(36)
        )
        rho = linear_inversion(TomographyInput(records))
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-8

    def test_sixteen_basis_round_trip(self, rng):
        target = random_physical_rho(rng)
        inp = make_input(target, 1e9, 16)
        assert trace_distance(linear_inversion(inp), target) < 1e-6

    def test_noisy_counts_stay_hermitian(self, rng):
        inp = make_input(density_of(PHI_PLUS), 100.0, 36, rng=rng)
        rho = linear_inversion(inp)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=0.2)

    def test_degenerate_set_raises(self):
        # {H,V,D,A} carries no circular information: rank-deficient system
        labels = [a + b for a in "HVDA" for b in "HVDA"]
        records = tuple(ProjectionRecord(l, 100.0) for l in labels)
        with pytest.raises(ValidationError, match="singular|degenerate"):
            linear_inversion(TomographyInput(records))


class TestTParameterization:
    @given(st.lists(st.floats(-2, 2), min_size=16, max_size=16))
    def test_always_physical(self, t):
        t = np.asarray(t)
        if np.sum(t * t) < 1e-12:
            return
        rho = rho_from_t(t)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_round_trip(self, rng):
        for _ in range(10):
            rho = random_physical_rho(rng)
            assert np.max(np.abs(rho_from_t(_t_from_rho(rho)) - rho)) < 1e-10


def _objective_args(inp):
    setup, counts, _, norms = _prepared(inp)
    return setup.forms, counts, norms


class TestGradient:
    def test_matches_finite_differences(self, rng):
        inp = make_input(density_of(PHI_PLUS), 1e5, 36, rng=rng)
        args = _objective_args(inp)
        t = rng.standard_normal(16)
        _, grad, _ = _objective_and_grad(t, *args)
        for k in range(16):
            e = np.zeros(16)
            e[k] = 1e-6
            up = _objective_and_grad(t + e, *args)[0]
            dn = _objective_and_grad(t - e, *args)[0]
            numeric = (up - dn) / 2e-6
            assert grad[k] == pytest.approx(numeric, rel=1e-4, abs=1e-4)

    def test_hessian_matches_finite_differences(self, rng):
        inp = make_input(density_of(PHI_PLUS), 1e5, 36, rng=rng)
        args = _objective_args(inp)
        t = rng.standard_normal(16)
        _, grad, terms = _objective_and_grad(t, *args)
        hess = _hessian(t, grad, terms, *args)
        assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
        for k in range(16):
            e = np.zeros(16)
            e[k] = 1e-6
            up = _objective_and_grad(t + e, *args)[1]
            dn = _objective_and_grad(t - e, *args)[1]
            numeric = (up - dn) / 2e-6
            assert hess[:, k] == pytest.approx(numeric, rel=1e-4, abs=1e-4)


class TestMLE:
    def test_noiseless_bell_state(self):
        inp = make_input(density_of(PHI_PLUS), 1e6, 36)
        res = mle_reconstruct(inp)
        assert res.converged
        assert fidelity(res.rho, PHI_PLUS) >= 0.9999
        assert concurrence(res.rho) >= 0.999

    def test_vv_calibration_state(self, rng):
        inp = make_input(density_of(VV), 1e4, 16, rng=rng)
        res = mle_reconstruct(inp)
        assert fidelity(res.rho, VV) >= 0.99

    def test_equal_counts_give_maximally_mixed(self):
        records = tuple(
            ProjectionRecord(label, 5000.0) for label, _, _ in tomography_bases(36)
        )
        res = mle_reconstruct(TomographyInput(records))
        assert np.max(np.abs(res.rho - np.eye(4) / 4.0)) < 1e-6

    def test_never_worse_than_projected_inversion(self, rng):
        for _ in range(10):
            target = random_physical_rho(rng, rank=rng.integers(1, 5))
            inp = make_input(target, 300.0, 36, rng=rng)
            res = mle_reconstruct(inp)
            seed_rho = project_physical(linear_inversion(inp))
            assert res.neg_log_likelihood <= neg_log_likelihood(seed_rho, inp) + 1e-9

    def test_deterministic(self, rng):
        inp = make_input(random_physical_rho(rng), 1e4, 36, rng=rng)
        a = mle_reconstruct(inp)
        b = mle_reconstruct(inp)
        assert np.array_equal(a.rho, b.rho)
        assert a.neg_log_likelihood == b.neg_log_likelihood

    def test_recovers_random_states_from_exact_counts(self, rng):
        for rank in (1, 2, 3, 4):
            target = random_physical_rho(rng, rank=rank)
            inp = make_input(target, 1e7, 36)
            res = mle_reconstruct(inp)
            assert trace_distance(res.rho, target) < 1e-3

    def test_16_vs_36_consistency(self, rng):
        target = density_of(time_evolved_state(4.65, 320.0))
        res36 = mle_reconstruct(make_input(target, 1e5, 36, rng=rng))
        res16 = mle_reconstruct(make_input(target, 1e5, 16, rng=rng))
        assert trace_distance(res36.rho, res16.rho) < 0.05

    def test_seed5_bin_5100_reaches_the_minimum(self):
        # the 5100 ps bin of the closed loop at seed 5; L-BFGS-B reported
        # success there at NLL 17.814
        labels = [a + b for a in "ADHLRV" for b in "ADHLRV"]
        counts = [740, 512, 642, 1310, 44, 644, 498, 836, 671, 38, 1265, 686,
                  671, 648, 1235, 611, 614, 8, 1236, 35, 631, 480, 865, 653,
                  33, 1288, 677, 785, 447, 680, 641, 615, 6, 609, 625, 1278]
        inp = TomographyInput(tuple(ProjectionRecord(l, float(c))
                                    for l, c in zip(labels, counts)))
        assert inp.total_counts == 23257
        res = mle_reconstruct(inp)
        assert res.converged
        assert res.neg_log_likelihood <= 17.507

    def test_each_step_is_one_objective_call(self, rng, monkeypatch):
        # the objective is looked up as a module global on every call, so a
        # wrapper (as the benchmark installs one) sees the seed and each step
        objective, n_calls = tomography._objective_and_grad, [0]

        def counting(*args):
            n_calls[0] += 1
            return objective(*args)

        monkeypatch.setattr(tomography, "_objective_and_grad", counting)
        res = mle_reconstruct(make_input(random_physical_rho(rng), 1e4, 36, rng=rng))
        assert res.iterations > 0
        assert n_calls[0] == res.iterations + 1

    @pytest.mark.parametrize("basis_count", [16, 36])
    def test_never_worse_than_lbfgsb(self, rng, basis_count):
        # reference: the scipy L-BFGS-B fit this solver replaced, same seed
        # and stopping rules, kept only here
        for k in range(12):
            target = random_physical_rho(rng, rank=k % 4 + 1)
            flux = 10.0 ** rng.uniform(2, 7)
            inp = make_input(target, flux, basis_count, rng=rng if k % 2 else None)
            res = mle_reconstruct(inp)
            assert res.converged

            args = _objective_args(inp)
            seed_rho = project_physical(linear_inversion(inp))
            t0 = _t_from_rho((1 - 1e-12) * seed_rho + 1e-12 * np.eye(4) / 4)
            ref = minimize(lambda t: _objective_and_grad(t, *args)[:2], t0, jac=True,
                           method="L-BFGS-B",
                           options={"maxiter": 5000, "gtol": 1e-10, "ftol": 1e-12,
                                    "maxfun": 50000})
            ref_nll = min(neg_log_likelihood(rho_from_t(ref.x), inp),
                          neg_log_likelihood(seed_rho, inp))
            assert res.neg_log_likelihood <= ref_nll * (1 + 1e-9) + 1e-12

    def test_zero_counts_rejected(self):
        records = tuple(
            ProjectionRecord(label, 0.0) for label, _, _ in tomography_bases(36)
        )
        with pytest.raises(ValidationError):
            mle_reconstruct(TomographyInput(records))


def _histogram_set(rho_of_bin, n_bins, flux, width=100.0, rng=None):
    """Per-pair histograms whose bin k holds counts from rho_of_bin(k)."""
    pairs = tomography_bases(36)
    counts = {label: np.zeros(n_bins) for label, _, _ in pairs}
    for k in range(n_bins):
        rho = rho_of_bin(k)
        for label, a, b in pairs:
            mu = flux * expected_probability(rho, (a, b))
            counts[label][k] = rng.poisson(mu) if rng is not None else round(mu)
    return {
        label: Histogram(width, 0.0, counts[label]) for label, _, _ in pairs
    }


class TestTimeBinned:
    def test_single_bin_matches_direct_mle(self):
        hists = _histogram_set(lambda k: density_of(PHI_PLUS), 1, 1e5)
        out = time_binned_tomography(hists)
        assert len(out.bins) == 1 and not out.skipped
        records = tuple(
            ProjectionRecord(label, float(hists[label].counts[0]))
            for label in sorted(hists)
        )
        direct_input = TomographyInput(records)
        direct = mle_reconstruct(direct_input)
        assert np.array_equal(out.bins[0].result.rho, direct.rho)
        assert out.bins[0].input == direct_input

    def test_weights_reach_the_records(self):
        hists = _histogram_set(lambda k: density_of(PHI_PLUS), 2, 1e4)
        weights = {label: 2.0 for label in hists if label[0] == "D"}
        out = time_binned_tomography(hists, weights=weights)
        for b in out.bins:
            assert {r.basis_pair: r.acquisition_weight for r in b.input.records} == {
                label: weights.get(label, 1.0) for label in hists
            }
            assert np.array_equal(mle_reconstruct(b.input).rho, b.result.rho)

    def test_low_count_bins_skipped(self):
        def rho_of_bin(k):
            return density_of(PHI_PLUS)

        hists = _histogram_set(rho_of_bin, 3, 1e4)
        for h in hists.values():
            h.counts[1] = 0  # starve the middle bin
        out = time_binned_tomography(hists, min_counts=100)
        assert [b.bin_start for b in out.bins] == [0.0, 200.0]
        assert len(out.skipped) == 1
        assert out.skipped[0].bin_start == 100.0
        assert out.skipped[0].total_counts == 0.0

    def test_inconsistent_binning_rejected(self):
        hists = _histogram_set(lambda k: density_of(PHI_PLUS), 2, 1e4)
        hists["LL"] = Histogram(50.0, 0.0, hists["LL"].counts)
        with pytest.raises(ValidationError, match="inconsistent"):
            time_binned_tomography(hists)

    def test_oscillating_fidelity(self, rng):
        fss = 4.65
        width = 100.0

        def rho_of_bin(k):
            return density_of(time_evolved_state(fss, (k + 0.5) * width))

        hists = _histogram_set(rho_of_bin, 12, 3e4, width, rng=rng)
        out = time_binned_tomography(hists)
        fids = [fidelity(b.result.rho, PHI_PLUS) for b in out.bins]
        expected = [
            np.cos(fss * (k + 0.5) * width / (2 * HBAR_UEV_PS)) ** 2 for k in range(12)
        ]
        assert np.max(np.abs(np.array(fids) - np.array(expected))) < 0.05

    def test_argmax_bin_invariant_under_count_scaling(self, rng):
        def rho_of_bin(k):
            return density_of(time_evolved_state(4.65, 30.0 + 140.0 * k))

        hists = _histogram_set(rho_of_bin, 8, 2e4, rng=rng)
        out1 = time_binned_tomography(hists)
        scaled = {
            label: Histogram(h.bin_width, h.origin, h.counts * 3)
            for label, h in hists.items()
        }
        out3 = time_binned_tomography(scaled)
        fids1 = [fidelity(b.result.rho, PHI_PLUS) for b in out1.bins]
        fids3 = [fidelity(b.result.rho, PHI_PLUS) for b in out3.bins]
        assert np.argmax(fids1) == np.argmax(fids3)


def _bootstrap(inp, n, metric, seed=None):
    (out,) = bootstrap_metrics(inp, n, lambda rho: (metric(rho),), seed=seed)
    return out


def _phi_plus_fidelity(rho):
    return fidelity(rho, PHI_PLUS)


class TestBootstrap:
    def test_deterministic_given_seed(self):
        inp = make_input(density_of(PHI_PLUS), 1e4, 36)
        a = _bootstrap(inp, 2, _phi_plus_fidelity, seed=5)
        b = _bootstrap(inp, 2, _phi_plus_fidelity, seed=5)
        assert a.values == b.values
        assert len(a.values) == 2

    def test_concentrates_at_high_counts(self):
        inp = make_input(density_of(PHI_PLUS), 1e6, 36)
        out = _bootstrap(inp, 10, _phi_plus_fidelity, seed=1)
        assert out.std < 0.01
        assert out.mean > 0.99

    def test_poisson_scaling(self):
        big = make_input(density_of(time_evolved_state(4.65, 200.0)), 1e6, 36)
        small = make_input(density_of(time_evolved_state(4.65, 200.0)), 1e4, 36)
        s_big = _bootstrap(big, 12, concurrence, seed=2).std
        s_small = _bootstrap(small, 12, concurrence, seed=2).std
        # flux down x100 -> std up roughly x10
        assert 3.0 < s_small / s_big < 33.0

    def test_validation(self):
        inp = make_input(density_of(PHI_PLUS), 1e4, 36)
        with pytest.raises(ValidationError):
            _bootstrap(inp, 1, _phi_plus_fidelity)
