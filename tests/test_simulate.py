import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from qdcascade import (HBAR_UEV_PS, RunConfig, ValidationError, cross_correlate,
                       density_of, time_evolved_state)
from qdcascade.polarization import ORTHOGONAL, projector_for
from qdcascade.simulate import (EmitterConfig, simulate_autocorrelation_run,
                                simulate_projection_run)
from qdcascade.tomography import expected_probability

DEFAULTS = EmitterConfig()  # fss 4.65, tau_xx 1100, tau_x 1610, 80 MHz


def ideal_pair_probability(config, pair, delay):
    """Born probability of a two-letter projection on the cascade state at a delay."""
    rho = density_of(time_evolved_state(config.fss, delay))
    return expected_probability(rho, (projector_for(pair[0]), projector_for(pair[1])))


class TestEmitterConfig:
    def test_defaults_and_derived(self):
        assert DEFAULTS.rep_period_ps == pytest.approx(12500.0)
        assert DEFAULTS.total_efficiency == 1.0

    @pytest.mark.parametrize("field,value", [
        ("tau_xx", 0.0), ("tau_x", -5.0), ("rep_rate", 0.0),
        ("recapture_probability", 1.5), ("setup_efficiency", 0.0),
        ("detector_efficiency", 1.2), ("background_rate", -1.0),
        ("excitation_fraction", 0.0), ("fss", -0.1),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValidationError):
            EmitterConfig(**{field: value})

    def test_json_round_trip(self):
        cfg = EmitterConfig(fss=2.5, recapture_probability=0.2, background_rate=100.0)
        text = json.dumps(RunConfig(emitter=cfg).to_dict())
        assert RunConfig.from_dict(json.loads(text)).emitter == cfg


class TestIdealPairProbability:
    def test_vv_is_flat_half(self):
        for delay in (0.0, 222.3, 444.7, 1000.0):
            assert ideal_pair_probability(DEFAULTS, "VV", delay) == pytest.approx(0.5, abs=1e-12)

    def test_hv_stays_dark(self):
        # the H/V product projections carry no phase information
        for delay in (0.0, 444.69545124774226, 889.4):
            assert ideal_pair_probability(DEFAULTS, "HV", delay) == pytest.approx(0.0, abs=1e-12)

    def test_dd_da_antiphase_modulation(self):
        half_period = 444.69545124774226
        assert ideal_pair_probability(DEFAULTS, "DD", 0.0) == pytest.approx(0.5, abs=1e-9)
        assert ideal_pair_probability(DEFAULTS, "DA", 0.0) == pytest.approx(0.0, abs=1e-9)
        assert ideal_pair_probability(DEFAULTS, "DD", half_period) == pytest.approx(0.0, abs=1e-9)
        assert ideal_pair_probability(DEFAULTS, "DA", half_period) == pytest.approx(0.5, abs=1e-9)

    def test_rl_at_zero_delay(self):
        assert ideal_pair_probability(DEFAULTS, "RL", 0.0) == pytest.approx(0.5, abs=1e-12)

    @given(
        delay=st.floats(0.0, 5000.0),
        a=st.sampled_from("HVDARL"),
        b=st.sampled_from("HVDARL"),
    )
    def test_complete_quadruples_sum_to_one(self, delay, a, b):
        total = sum(
            ideal_pair_probability(DEFAULTS, x + y, delay)
            for x in (a, ORTHOGONAL[a])
            for y in (b, ORTHOGONAL[b])
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestProjectionRun:
    def test_forbidden_projection_gives_no_coincidences(self):
        # slow rep rate keeps neighboring-pulse tails out of the window
        cfg = EmitterConfig(fss=0.0, rep_rate=8.0)
        xx, x = simulate_projection_run(cfg, "HV", 200_000, seed=1)
        hist = cross_correlate(xx, x, 100.0, 6000.0)
        assert hist.total() == 0

    def test_vv_coincidences_decay_without_modulation(self):
        xx, x = simulate_projection_run(DEFAULTS, "VV", 400_000, seed=2)
        hist = cross_correlate(xx, x, 200.0, 6000.0)
        pos = hist.counts[len(hist.counts) // 2:]
        ratios = pos[1:16] / pos[:15]
        assert np.all(np.abs(ratios - np.exp(-200.0 / DEFAULTS.tau_x)) < 0.1)

    def test_da_coincidences_oscillate(self):
        xx, x = simulate_projection_run(DEFAULTS, "DA", 400_000, seed=3)
        hist = cross_correlate(xx, x, 100.0, 3000.0)
        pos = hist.counts[len(hist.counts) // 2:]
        # DA is dark at zero delay and bright half a period later
        assert pos[0] < 0.2 * pos[4]

    def test_cascade_delays_are_exponential(self):
        n = 400_000
        xx, x = simulate_projection_run(DEFAULTS, "VV", n, seed=4)
        # VV collapses each pulse to both-pass or both-fail, so the sorted
        # streams pair up one to one
        txx = xx.timestamps_ps[xx.origin_labels() == "XX"]
        tx = x.timestamps_ps[x.origin_labels() == "X"]
        assert len(txx) == len(tx)
        delays = (tx - txx).astype(float)
        assert len(delays) > 100_000
        stat = stats.kstest(delays, "expon", args=(0, DEFAULTS.tau_x)).statistic
        assert stat < 1.63 / np.sqrt(len(delays))  # 1% critical value

    def test_unpolarized_marginals(self):
        n = 300_000
        xx_h, _ = simulate_projection_run(DEFAULTS, "HH", n, seed=5)
        xx_v, _ = simulate_projection_run(DEFAULTS, "VV", n, seed=5)
        nh, nv = len(xx_h), len(xx_v)
        sigma = np.sqrt(nh + nv)
        assert abs(nh - nv) < 3 * sigma

    def test_singles_rate_matches_expectation(self):
        cfg = EmitterConfig(setup_efficiency=0.08, detector_efficiency=0.5,
                            excitation_fraction=0.9)
        n = 500_000
        xx, _ = simulate_projection_run(cfg, "VV", n, seed=6)
        # pass probability through the polarizer is 1/2 for unpolarized arms
        expected = n * 0.9 * 0.5 * 0.08 * 0.5
        assert abs(len(xx) - expected) < 4 * np.sqrt(expected)

    def test_truth_tags_and_conservation(self):
        n = 50_000
        xx, x = simulate_projection_run(DEFAULTS, "DD", n, seed=7)
        labels_xx = xx.origin_labels()
        labels_x = x.origin_labels()
        assert set(labels_xx) <= {"XX", "background"}
        assert set(labels_x) <= {"X", "background"}
        assert np.sum(labels_xx == "XX") <= n
        assert np.sum(labels_x == "X") <= n

    def test_background_appears(self):
        cfg = EmitterConfig(background_rate=1e6, excitation_fraction=1.0)
        xx, _ = simulate_projection_run(cfg, "VV", 100_000, seed=8)
        labels = xx.origin_labels()
        n_bg = int(np.sum(labels == "background"))
        duration_s = 100_000 * cfg.rep_period_ps * 1e-12
        expected = 1e6 * duration_s
        assert abs(n_bg - expected) < 5 * np.sqrt(expected)

    def test_determinism(self):
        a1, b1 = simulate_projection_run(DEFAULTS, "RL", 20_000, seed=11)
        a2, b2 = simulate_projection_run(DEFAULTS, "RL", 20_000, seed=11)
        assert np.array_equal(a1.timestamps_ps, a2.timestamps_ps)
        assert np.array_equal(b1.timestamps_ps, b2.timestamps_ps)
        a3, _ = simulate_projection_run(DEFAULTS, "RL", 20_000, seed=12)
        assert not np.array_equal(a1.timestamps_ps, a3.timestamps_ps)

    def test_zero_pulses(self):
        xx, x = simulate_projection_run(DEFAULTS, "HH", 0, seed=1)
        assert len(xx) == 0 and len(x) == 0

    def test_timing_jitter_broadens_arrivals(self):
        sharp = EmitterConfig(tau_xx=50.0, tau_x=50.0)
        blurred = EmitterConfig(tau_xx=50.0, tau_x=50.0, jitter_sigma=400.0)
        xx_s, _ = simulate_projection_run(sharp, "VV", 50_000, seed=13)
        xx_b, _ = simulate_projection_run(blurred, "VV", 50_000, seed=13)
        spread_s = np.std(xx_s.timestamps_ps % sharp.rep_period_ps)
        spread_b = np.std(xx_b.timestamps_ps % blurred.rep_period_ps)
        assert spread_b > 2 * spread_s


LOSSY = EmitterConfig(excitation_fraction=0.8, setup_efficiency=0.6,
                      background_rate=2e5, jitter_sigma=30)
ELLIPTICAL = (np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)]),
              np.array([np.cos(1.1), np.exp(-0.4j) * np.sin(1.1)]))

# SHA-256 over timestamps_ps then origins of (xx, x) from
# simulate_projection_run(config, pair, 20_000, seed=11), recorded with the
# sampler that evaluated |c_hh + c_vv exp(i phi)|^2 as complex numbers.
# Of the closed form's oscillating terms HH uses neither, DA and RL only the
# cosine, LD only the sine and ELLIPTICAL both.
PINNED_DIGESTS = [
    pytest.param(DEFAULTS, "HH", "88cc845ddfcce3377f893849862923828f2a084726d69baffdbc99537c1a54f8", id="default-HH"),
    pytest.param(DEFAULTS, "DA", "7003a09f67146b45ac8a7af74a52f366cbef24ec901c616a1ad015a327ecca81", id="default-DA"),
    pytest.param(DEFAULTS, "RL", "0a07c05f823430bf9d88974a32252eabc8ad50059c1fef6dcc9eb09075deaa0e", id="default-RL"),
    pytest.param(DEFAULTS, "LD", "21748bca18fc8390b4e163287b927e1b9c6506ddec719b5c51a2d8b2b80f5731", id="default-LD"),
    pytest.param(DEFAULTS, ELLIPTICAL, "996df900a07a2373eca4d9cfe3f7b9012569e927d6acab80f50c447bc6d53cde",
                 id="default-elliptical"),
    pytest.param(LOSSY, "HH", "f6e77daf9ecfe729dc56504e45ee981d30975b681c867a3ea61549321478c538", id="lossy-HH"),
    pytest.param(LOSSY, "DA", "e9b67828c8834e8a6f89af376f53b505bfb9d8a65baab5c800dafb18e230cd11", id="lossy-DA"),
    pytest.param(LOSSY, "RL", "90aa2de73b831fce6c8ffdfd742b36a346555f0da224cc6b104b046a8b5e465e", id="lossy-RL"),
    pytest.param(LOSSY, "LD", "9a9149e49074087fa75ee251e5c090e95b87942171a627b54ae7d5128a7730fb", id="lossy-LD"),
]


@pytest.mark.parametrize("config,pair,digest", PINNED_DIGESTS)
def test_projection_run_output_is_pinned(config, pair, digest):
    h = hashlib.sha256()
    for stream in simulate_projection_run(config, pair, 20_000, seed=11):
        h.update(stream.timestamps_ps.tobytes())
        h.update(stream.origins.tobytes())
    assert h.hexdigest() == digest


class TestAutocorrelationRun:
    def test_x_species_is_antibunched(self):
        cfg = EmitterConfig(rep_rate=8.0)  # isolate the zero-delay window
        a, b = simulate_autocorrelation_run(cfg, "X", 300_000, seed=1)
        hist = cross_correlate(a, b, 100.0, 5000.0)
        assert hist.total() == 0  # one photon per pulse, no background

    def test_side_peaks_at_rep_period_multiples(self):
        a, b = simulate_autocorrelation_run(DEFAULTS, "X", 300_000, seed=2)
        hist = cross_correlate(a, b, 100.0, 3.5 * 12500.0)
        centers = hist.bin_centers
        for m in (-3, -2, -1, 1, 2, 3):
            window = np.abs(centers - m * 12500.0) <= 4000.0
            peak = centers[window][np.argmax(hist.counts[window])]
            assert abs(peak - m * 12500.0) < 500.0

    def test_recapture_fills_center_peak(self):
        cfg = EmitterConfig(recapture_probability=0.3)
        a, b = simulate_autocorrelation_run(cfg, "XX", 300_000, seed=3)
        hist = cross_correlate(a, b, 100.0, 5000.0)
        assert hist.total() > 1000

    def test_recapture_delay_distribution(self):
        # inter-photon delay density ~ exp(-d/tau_xx) * (1 - exp(-d/t_c)):
        # mean = tau_xx + tau_xx*t_c/(tau_xx + t_c)
        cfg = EmitterConfig(recapture_probability=1.0)
        a, b = simulate_autocorrelation_run(cfg, "XX", 400_000, seed=4)
        times = np.sort(np.concatenate([a.timestamps_ps, b.timestamps_ps])).astype(float)
        pulse = np.floor(times / cfg.rep_period_ps).astype(int)
        # pulses contributing exactly two photons inside their own window
        uniq, counts = np.unique(pulse, return_counts=True)
        two = set(uniq[counts == 2])
        first = {}
        delays = []
        for t, p in zip(times, pulse):
            if p not in two:
                continue
            if p in first:
                delays.append(t - first[p])
            else:
                first[p] = t
        delays = np.array(delays)
        gate = cfg.tau_xx * cfg.recapture_time / (cfg.tau_xx + cfg.recapture_time)
        expected_mean = cfg.tau_xx + gate
        assert len(delays) > 100_000
        assert abs(delays.mean() - expected_mean) < 0.03 * expected_mean

    def test_x_timing_is_full_cascade(self):
        a, b = simulate_autocorrelation_run(DEFAULTS, "X", 300_000, seed=5)
        times = np.concatenate([a.timestamps_ps, b.timestamps_ps]).astype(float)
        offsets = times % DEFAULTS.rep_period_ps
        # conv of Exp(1100) and Exp(1610): mean 2710
        assert abs(offsets.mean() - (DEFAULTS.tau_xx + DEFAULTS.tau_x)) < 50.0

    def test_species_validation(self):
        with pytest.raises(ValidationError):
            simulate_autocorrelation_run(DEFAULTS, "T", 100, seed=0)
