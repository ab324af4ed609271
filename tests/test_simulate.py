import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from conftest import ORTHOGONAL
from qdcascade import (HBAR_UEV_PS, RunConfig, ValidationError, cross_correlate,
                       density_of, time_evolved_state)
from qdcascade.polarization import projector_for
from qdcascade import pool, simulate
from qdcascade.simulate import (EmitterConfig, _draws_below, simulate_autocorrelation_run,
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
# simulate_projection_run(config, pair, n_pulses, seed=11), recorded with the
# sampler that evaluated |c_hh + c_vv exp(i phi)|^2 as complex numbers (20,000
# pulses) and with the one that summed the closed form over whole arrays
# (150,000 pulses). Of the closed form's oscillating terms HH uses neither,
# DA and RL only the cosine, LD only the sine and ELLIPTICAL both. The
# simulator works through the pulses in blocks of 65,536, so the 150,000-pulse
# runs cross block boundaries and end in a partial block. HD and RV, recorded
# before the simulator summed constant rows as scalars, have constant joint
# probabilities of 1/4; the two runs of equal length draw the same bytes. DR
# at 2 * 65,536 pulses fills every block, and the lossy elliptical run uses
# both terms on pulses picked by the excitation draw; both were recorded
# while the run still held its pulse times and uniforms whole.
PINNED_DIGESTS = [
    pytest.param(DEFAULTS, "HH", 20_000, "88cc845ddfcce3377f893849862923828f2a084726d69baffdbc99537c1a54f8",
                 id="default-HH"),
    pytest.param(DEFAULTS, "DA", 20_000, "7003a09f67146b45ac8a7af74a52f366cbef24ec901c616a1ad015a327ecca81",
                 id="default-DA"),
    pytest.param(DEFAULTS, "RL", 20_000, "0a07c05f823430bf9d88974a32252eabc8ad50059c1fef6dcc9eb09075deaa0e",
                 id="default-RL"),
    pytest.param(DEFAULTS, "LD", 20_000, "21748bca18fc8390b4e163287b927e1b9c6506ddec719b5c51a2d8b2b80f5731",
                 id="default-LD"),
    pytest.param(DEFAULTS, ELLIPTICAL, 20_000, "996df900a07a2373eca4d9cfe3f7b9012569e927d6acab80f50c447bc6d53cde",
                 id="default-elliptical"),
    pytest.param(LOSSY, "HH", 20_000, "f6e77daf9ecfe729dc56504e45ee981d30975b681c867a3ea61549321478c538",
                 id="lossy-HH"),
    pytest.param(LOSSY, "DA", 20_000, "e9b67828c8834e8a6f89af376f53b505bfb9d8a65baab5c800dafb18e230cd11",
                 id="lossy-DA"),
    pytest.param(LOSSY, "RL", 20_000, "90aa2de73b831fce6c8ffdfd742b36a346555f0da224cc6b104b046a8b5e465e",
                 id="lossy-RL"),
    pytest.param(LOSSY, "LD", 20_000, "9a9149e49074087fa75ee251e5c090e95b87942171a627b54ae7d5128a7730fb",
                 id="lossy-LD"),
    pytest.param(DEFAULTS, "HH", 150_000, "160044945c5aa027b2f4c24a98fce271a78a2bb25321fefd3ba0ec912b9f394d",
                 id="default-HH-150k"),
    pytest.param(DEFAULTS, "DA", 150_000, "a1b91ccce7fb43ad1891b62aa45c0549c9ac9b5e008eb5afc0898c4c2c7950f6",
                 id="default-DA-150k"),
    pytest.param(DEFAULTS, "RL", 150_000, "49101212d33e1686a5672d90e87f6d23173c2cb168f886455a2e6df867a7a9b5",
                 id="default-RL-150k"),
    pytest.param(DEFAULTS, "LD", 150_000, "3a8074223d28e2d20e513430e282f2de9f6a2e9d668fe526bdf9fa061b7d757e",
                 id="default-LD-150k"),
    pytest.param(DEFAULTS, ELLIPTICAL, 150_000, "ee286946f45a5f5f37f9be6743f0189f0396e47094a70c5bc20de039c40dd224",
                 id="default-elliptical-150k"),
    pytest.param(LOSSY, "HH", 150_000, "2ea8e6803068c020d9e565ecbc3964a6e9967a9f12ccc18e95aa083b88616d73",
                 id="lossy-HH-150k"),
    pytest.param(LOSSY, "DA", 150_000, "304875f6aeb5178a94428d0c1175fc1f0d11435b3e1fc3761e06f012d3366932",
                 id="lossy-DA-150k"),
    pytest.param(LOSSY, "RL", 150_000, "0862d78a574e5070eaca4ca23c16085bfaf036037ca595ef9dd8ad1b5e31ec35",
                 id="lossy-RL-150k"),
    pytest.param(LOSSY, "LD", 150_000, "12bce017d1c13c92c14343efac3f38f7b5b6e575f5be906ba3e96571d08d41c3",
                 id="lossy-LD-150k"),
    pytest.param(DEFAULTS, "HD", 150_000, "d75f41127a33afff509fb35115a34bb96746c5548f27a5bbafbb0f792ed7ebe9",
                 id="default-HD-150k"),
    pytest.param(LOSSY, "HD", 20_000, "aab332d2d9cc10b4853dde170b5c6be1ebadad95c34b1eb26dafe8fac55a8edf",
                 id="lossy-HD"),
    pytest.param(DEFAULTS, "RV", 20_000, "6665bf30e6c264a6495a56ccad979440a7ab794ed41e9a2c5bd60f404337ed47",
                 id="default-RV"),
    pytest.param(LOSSY, "RV", 150_000, "ab98326bc2f54c2b0ba0670fa4a794888c2b8c0e818926039c83571187708596",
                 id="lossy-RV-150k"),
    pytest.param(DEFAULTS, "DR", 2 * simulate._BLOCK,
                 "81be16ffc4839703f83ed00aab5f2c019c1591c79724b6d980518e392520dcd7",
                 id="default-DR-full-blocks"),
    pytest.param(LOSSY, ELLIPTICAL, 150_000, "3203e4fcd24c2c94c9401e071a33c8aedded6ec6f5fb23b84004019426d8db48",
                 id="lossy-elliptical-150k"),
]


@pytest.mark.parametrize("config,pair,n_pulses,digest", PINNED_DIGESTS)
def test_projection_run_output_is_pinned(config, pair, n_pulses, digest):
    h = hashlib.sha256()
    for stream in simulate_projection_run(config, pair, n_pulses, seed=11):
        h.update(stream.timestamps_ps.tobytes())
        h.update(stream.origins.tobytes())
    assert h.hexdigest() == digest


def reference_joint_outcomes(a, b, fss, d_x, rng):
    """The all-float64 outcome loop that _joint_outcomes must match bit for
    bit: float64 cos and sin of every pulse's phase, then running sums."""
    a_perp, b_perp = simulate._orthogonal_vector(a), simulate._orthogonal_vector(b)
    rows = []
    for va, vb in ((a, b), (a, b_perp), (a_perp, b), (a_perp, b_perp)):
        c_hh = np.conj(va[0] * vb[0]) / np.sqrt(2.0)
        c_vv = np.conj(va[1] * vb[1]) / np.sqrt(2.0)
        z = np.conj(c_hh) * c_vv
        rows.append((abs(c_hh) ** 2 + abs(c_vv) ** 2, 2.0 * z.real, -2.0 * z.imag))
    use_cos = any(c for _, c, _ in rows)
    use_sin = any(s for _, _, s in rows)
    outcome = np.empty(len(d_x), dtype=np.int8)
    for lo in range(0, len(d_x), simulate._BLOCK):
        hi = min(lo + simulate._BLOCK, len(d_x))
        if use_cos or use_sin:
            phi = fss * d_x[lo:hi] / HBAR_UEV_PS
            cos_phi, sin_phi = np.cos(phi), np.sin(phi)
            cum, term = np.empty((4, hi - lo)), np.empty(hi - lo)
            for k, (const, c, s) in enumerate(rows):
                cum[k].fill(const)
                if c:
                    cum[k] += np.multiply(cos_phi, c, out=term)
                if s:
                    cum[k] += np.multiply(sin_phi, s, out=term)
                if k:
                    cum[k] += cum[k - 1]
        else:
            cum = list(itertools.accumulate(const for const, _, _ in rows))
        u = rng.random(hi - lo) * cum[-1]
        outcome[lo:hi] = (u >= cum[0]).astype(np.int8) + (u >= cum[1]) + (u >= cum[2])
    return outcome


def _outcomes_and_trig_dtypes(monkeypatch, pair, fss, n):
    """Outcomes of _joint_outcomes and of the reference for ``n`` pulses,
    with the number of pulses each float type of phase reached cos/sin with."""
    a, b = simulate._resolve_pair(pair)
    d_x = np.random.default_rng(n).exponential(DEFAULTS.tau_x, n)
    trig_pulses = {np.float32: 0, np.float64: 0}
    running_sums = simulate._running_sums

    def spy(rows, phi, cum, term):
        trig_pulses[phi.dtype.type] += len(phi)
        return running_sums(rows, phi, cum, term)

    monkeypatch.setattr(simulate, "_running_sums", spy)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = simulate._joint_outcomes(a, b, fss, d_x, rng)
        want = reference_joint_outcomes(a, b, fss, d_x, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got, want, trig_pulses


ELLIPTICAL_PAIRS = [ELLIPTICAL, (np.array([2.0, 1j]), np.array([0.5, 3.0 - 1.0j]))]


@pytest.mark.parametrize("fss", [0.3, 4.65, 60.0, 1e4])
def test_joint_outcomes_match_the_float64_loop(monkeypatch, fss):
    # float32 trig only picks the pulses that get float64 trig: every
    # outcome is the float64 loop's, for every label, an elliptical and an
    # unnormalized Jones pair, at lengths around the block size
    labels = ["".join(p) for p in itertools.product("HVDARL", repeat=2)]
    for pair in labels + ELLIPTICAL_PAIRS:
        for n in (1, simulate._BLOCK - 1, simulate._BLOCK, 2 * simulate._BLOCK + 3):
            got, want, _ = _outcomes_and_trig_dtypes(monkeypatch, pair, fss, n)
            assert np.array_equal(got, want), (pair, n)


@pytest.mark.parametrize("pair", ["DA", "RL", "LD", ELLIPTICAL])
def test_joint_outcomes_take_float64_trig_only_near_a_boundary(monkeypatch, pair):
    n = 2 * simulate._BLOCK + 3
    _, _, trig_pulses = _outcomes_and_trig_dtypes(monkeypatch, pair, DEFAULTS.fss, n)
    assert trig_pulses[np.float32] == n
    assert trig_pulses[np.float64] < 1e-3 * n


@pytest.mark.parametrize("pair,fss", [
    pytest.param("DA", 1e5, id="margin-too-wide"),
    pytest.param(ELLIPTICAL, 1e40, id="phase-beyond-float32"),
    # oscillating terms near 1e-300, so the margin alone would allow float32
    pytest.param(([1.0, 1e-150], [1.0, 1e-150]), 1e40, id="tiny-terms-beyond-float32"),
])
def test_joint_outcomes_of_huge_phases_take_float64_whole(monkeypatch, pair, fss):
    # no float32 cast, so no overflow or invalid-value warning either
    n = simulate._BLOCK + 5
    got, want, trig_pulses = _outcomes_and_trig_dtypes(monkeypatch, pair, fss, n)
    assert np.array_equal(got, want)
    assert trig_pulses == {np.float32: 0, np.float64: n}


def test_projection_run_drops_events_outside_the_run(monkeypatch):
    # Jitter of eight periods pushes photons of the first and last pulses
    # outside the run on both detectors. The spy redoes each detector's jitter
    # on a copy of the generator to count them. The digest was recorded when
    # the simulator dropped those events before sorting.
    config = EmitterConfig(tau_x=1e5, jitter_sigma=1e5)
    finalize = simulate._finalize
    outside = []

    def spy(times, origins_code, duration_ps, config, rng):
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = rng.bit_generator.state
        stamps = np.rint(times + twin.normal(0.0, config.jitter_sigma, len(times)))
        outside.append((int(np.sum(stamps < 0)), int(np.sum(stamps >= duration_ps))))
        return finalize(times, origins_code, duration_ps, config, rng)

    monkeypatch.setattr(simulate, "_finalize", spy)
    xx, x = simulate_projection_run(config, "VV", 2000, seed=11)
    assert len(outside) == 2 and min(min(ends) for ends in outside) > 0
    h = hashlib.sha256()
    for stream in (xx, x):
        h.update(stream.timestamps_ps.tobytes())
        h.update(stream.origins.tobytes())
    assert h.hexdigest() == "e0357707a198432d1139a47c64caed12072807f986f531779ceef0fd41467e99"


@pytest.mark.parametrize("m,p", [(1000, 1.0), (1000, 0.0), (0, 1.0), (0, 0.0), (1000, 0.3),
                                 (2 * simulate._BLOCK + 3, 0.3)])
def test_draws_below_leaves_the_generator_as_random_does(m, p):
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    rng.exponential(1.0, 7)
    ref.exponential(1.0, 7)
    passed = _draws_below(rng, m, p)
    assert np.array_equal(np.broadcast_to(passed, (m,)), ref.random(m) < p)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n_pulses", [1000.0, 1000.5, True])
@pytest.mark.parametrize("run", [lambda n: simulate_projection_run(DEFAULTS, "HH", n, seed=1),
                                 lambda n: simulate_autocorrelation_run(DEFAULTS, "X", n, seed=1)],
                         ids=["projection", "autocorrelation"])
def test_non_integer_n_pulses_is_rejected(run, n_pulses):
    with pytest.raises(ValidationError, match="n_pulses"):
        run(n_pulses)


def test_projection_run_peak_memory():
    # the closed loop runs two of these at once, so their peak sets its
    # memory. A run holds its two delay arrays and one-byte codes per pulse,
    # about 21.6 MiB at 1M pulses. An index array of every detected pulse
    # from compacting each detector's times whole took 24.9 MiB; holding the
    # pulse times, the uniforms and both channels' float times as well
    # peaked at 35.5 MiB (DEFAULTS, DA) and 29.2 MiB (LOSSY, DA);
    # whole-array outcome sums near 130 MB.
    for config, pair in ((DEFAULTS, "DA"), (LOSSY, "DA"), (DEFAULTS, ELLIPTICAL)):
        tracemalloc.start()
        try:
            simulate_projection_run(config, pair, 1_000_000, seed=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20, (config, pair)


@pytest.mark.parametrize("pair,message", [
    pytest.param((np.zeros(2), [1, 0]), "the XX arm must not be zero", id="zero-xx"),
    pytest.param(([1, 0], [0j, 0j]), "the X arm must not be zero", id="zero-x"),
    pytest.param(([1, 0], [1, 0, 0]), r"the X arm must have shape \(2,\)", id="3-vector"),
    pytest.param(([[1, 0]], [1, 0]), r"the XX arm must have shape \(2,\)", id="row-matrix"),
    pytest.param(([np.nan, 1], [1, 0]), "the XX arm must hold only finite", id="nan"),
    pytest.param(([1, 0], [1, complex(0, np.inf)]), "the X arm must hold only finite", id="inf"),
])
def test_jones_pair_is_validated(pair, message):
    # a zero vector used to give two empty streams, a 3-vector its first two entries
    with pytest.raises(ValidationError, match=message):
        simulate_projection_run(DEFAULTS, pair, 10_000, seed=1)


def test_autocorrelation_run_peak_memory():
    # each block of pulses is drawn and reduced to its detected events on
    # its own, so the working memory follows the events, not n_pulses;
    # drawing the whole run at once peaked at 115-120 MB
    config = EmitterConfig(setup_efficiency=0.05, recapture_probability=0.36)
    tracemalloc.start()
    try:
        simulate_autocorrelation_run(config, "XX", 4_000_000, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25e6


class TestAutocorrelationRun:
    def test_worker_count_does_not_change_output(self, monkeypatch):
        config = EmitterConfig(background_rate=5e5, jitter_sigma=35.0, recapture_probability=0.4)
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "WORKERS", workers)
            runs[workers] = [(s.timestamps_ps.tobytes(), s.origins.tobytes())
                             for s in simulate_autocorrelation_run(config, "XX", 600_000, seed=7)]
        assert runs[1] == runs[2]
        assert 600_000 > 4 * simulate._PULSE_BLOCK  # several blocks per worker

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

    # SHA-256 over timestamps_ps then origins of both splitter outputs at
    # 150,000 pulses, recorded when the run was first cut into blocks of
    # 2**17 pulses with a child generator each; the run crosses one block edge
    @pytest.mark.parametrize("config,species,digest", [
        pytest.param(EmitterConfig(background_rate=2e5, jitter_sigma=35.0), "X",
                     "d206c187d7660f881f4dbf26b3d512febd84490fbd29f70851a7845f4001cc16",
                     id="X-background-jitter"),
        pytest.param(EmitterConfig(recapture_probability=0.36), "XX",
                     "42f35a9ad3aae9ba40a9ef348ccbb574fca7a31ec466c95ed82eb76c736586ab",
                     id="XX-recapture"),
        pytest.param(EmitterConfig(excitation_fraction=0.8, setup_efficiency=0.6), "X",
                     "acdba26f927a41dc01686c3c1864a19a62984ed42cd720a1f3d476547728cb95",
                     id="X-lossy"),
        pytest.param(EmitterConfig(excitation_fraction=0.8, setup_efficiency=0.6), "XX",
                     "bc2425dc3aaadc047a3bbb187abce4798773550c6a4687797825b77aef6ff86a",
                     id="XX-lossy"),
        pytest.param(EmitterConfig(recapture_probability=0.0), "XX",
                     "535a43e0f1f2e197f946fa0378a111b007b8b197e810f5246f4afcba65e66fc2",
                     id="XX-no-recapture"),
    ])
    def test_output_is_pinned(self, config, species, digest):
        h = hashlib.sha256()
        for stream in simulate_autocorrelation_run(config, species, 150_000, seed=13):
            h.update(stream.timestamps_ps.tobytes())
            h.update(stream.origins.tobytes())
        assert h.hexdigest() == digest
