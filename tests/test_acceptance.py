"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The closed-loop criteria share one pipeline run.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_input, random_physical_rho, random_unitary2, waveplate_jones
from qdcascade import (PHI_PLUS, Correction, concurrence, cross_correlate, density_of,
                       fidelity, fit_model, fss_from_period, g2_zero, mle_reconstruct,
                       time_evolved_state)
from qdcascade.config import RunConfig
from qdcascade.fitting import _MODELS, poisson_weights
from qdcascade.pipeline import cmd_simulate, cmd_tomo
from qdcascade.quantum import validate_density_matrix
from qdcascade.simulate import EmitterConfig, simulate_autocorrelation_run
from qdcascade.streams import export_stream
from qdcascade.tomography import time_binned_tomography
from test_correlations import brute_force_histogram

SEED = 20260811


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {label}: FAIL")
        raise
    else:
        print(f"\nACCEPTANCE {num} {label}: PASS")


# --- criterion 1 -----------------------------------------------------------

def test_criterion_1_bell_state_oracle():
    with criterion(1, "Bell-state oracle"):
        start = time.perf_counter()
        inp = make_input(density_of(PHI_PLUS), 1e6, 36)
        result = mle_reconstruct(inp)
        elapsed = time.perf_counter() - start
        assert fidelity(result.rho, PHI_PLUS) >= 0.9999
        assert concurrence(result.rho) >= 0.999
        assert elapsed < 5.0


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_vv_calibration():
    with criterion(2, "VV calibration replication"):
        vv = np.array([0, 0, 0, 1], dtype=complex)
        rho_vv = density_of(vv)
        for seed in range(20):
            inp = make_input(rho_vv, 1e4, 16, rng=np.random.default_rng(seed))
            result = mle_reconstruct(inp)
            assert fidelity(result.rho, vv) >= 0.99


# --- criteria 3 and 4 share one pipeline run --------------------------------

@pytest.fixture(scope="module")
def closed_loop(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("closed_loop"))
    config = RunConfig.from_dict({
        "emitter": {"fss": 4.65, "tau_x": 1610.0, "tau_xx": 1100.0, "rep_rate": 80.0},
        "tomography": {"basis_count": 36, "bin_width_ps": 100.0,
                       "min_counts_per_bin": 100, "max_delay_ps": 6000.0},
        "simulation": {"n_pulses": 1_000_000, "seed": SEED},
        "io": {"output_dir": out_dir},
    })
    start = time.perf_counter()
    manifest = cmd_simulate(config)
    report = cmd_tomo(config, manifest=manifest)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_3_fss_closed_loop(closed_loop):
    with criterion(3, "FSS closed loop (period and peak fidelity)"):
        report, elapsed = closed_loop
        assert elapsed < 120.0
        osc = report["fits"]["fidelity_oscillation"]
        assert osc is not None and osc["converged"]
        assert abs(osc["params"]["P"]) == pytest.approx(890.0, abs=20.0)
        assert report["max_fidelity"]["value"] >= 0.95


def test_criterion_4_entanglement_persistence(closed_loop):
    with criterion(4, "entanglement persistence across time bins"):
        report, _ = closed_loop
        populated = [b for b in report["bins"] if b["total_counts"] >= 1000]
        assert len(populated) >= 30
        for b in populated:
            assert b["concurrence"] >= 0.9, f"bin {b['bin_start_ps']}"


# --- criterion 5 -----------------------------------------------------------

def _g2_of_run(config, species, n_pulses, seed, n_side=5):
    a, b = simulate_autocorrelation_run(config, species, n_pulses, seed)
    period = config.rep_period_ps
    hist = cross_correlate(a, b, 50.0, (n_side + 0.5) * period)
    return g2_zero(hist, period, n_side), (a, b)


def test_criterion_5_g2_procedure():
    with criterion(5, "pulsed g2 for X and XX plus recapture constant"):
        # X line: tune the background until the accidental floor sits at 0.024
        bg = 4e5
        for _ in range(2):
            cfg = EmitterConfig(background_rate=bg)
            pilot, _ = _g2_of_run(cfg, "X", 300_000, SEED + 1)
            bg *= 0.024 / max(pilot.g2_zero, 1e-6)
        result_x, _ = _g2_of_run(EmitterConfig(background_rate=bg), "X",
                                 1_200_000, SEED + 2)
        assert result_x.g2_zero == pytest.approx(0.024, abs=0.005)

        # XX line: tune the recapture probability to a 0.38 center/side ratio
        r = 0.30
        for _ in range(2):
            pilot, _ = _g2_of_run(EmitterConfig(recapture_probability=r), "XX",
                                  400_000, SEED + 3)
            k = pilot.g2_zero * (1 + r) ** 2 / r
            disc = (0.76 - k) ** 2 - 4 * 0.38 * 0.38
            r = (-(0.76 - k) - np.sqrt(max(disc, 0.0))) / (2 * 0.38)
        cfg_xx = EmitterConfig(recapture_probability=r)
        result_xx, streams = _g2_of_run(cfg_xx, "XX", 1_200_000, SEED + 4)
        assert result_xx.g2_zero == pytest.approx(0.38, abs=0.03)

        # recapture time constant from the center structure
        center = cross_correlate(streams[0], streams[1], 25.0, 4000.0)
        y = center.counts.astype(float)
        fit = fit_model("recapture", center.bin_centers, y,
                        weights=poisson_weights(y))
        assert fit.converged
        assert fit.params["t_c"] == pytest.approx(546.0, abs=55.0)


# --- criterion 6 -----------------------------------------------------------

def _draw_params(kind, rng):
    if kind == "exponential":
        return {"B": rng.uniform(5, 50), "A": rng.uniform(100, 1000),
                "x0": 0.0, "tau": rng.uniform(300, 4000)}
    if kind == "sinusoid":
        return {"y0": rng.uniform(0.5, 2.0), "A": rng.uniform(0.3, 2.0),
                "P": rng.uniform(400, 2500), "phi0": rng.uniform(-3.0, 3.0)}
    if kind == "recapture":
        t_d = rng.uniform(600, 3000)
        return {"C": rng.uniform(5, 50), "A": rng.uniform(200, 1000),
                "t0": rng.uniform(-200, 200), "t_d": t_d,
                "t_c": rng.uniform(100, 0.7 * t_d)}
    if kind == "lorentzian":
        return {"B": rng.uniform(5, 30), "A": rng.uniform(200, 2000),
                "x0": rng.uniform(-400, 400), "gamma": rng.uniform(200, 1500)}
    raise AssertionError(kind)


def _grid_for(kind, params):
    if kind == "exponential":
        return np.linspace(0.0, 6 * params["tau"], 250)
    if kind == "sinusoid":
        return np.linspace(0.0, 6 * params["P"], 300)
    if kind == "recapture":
        return np.linspace(-5 * params["t_d"], 5 * params["t_d"], 400)
    return np.linspace(params["x0"] - 8 * params["gamma"],
                       params["x0"] + 8 * params["gamma"], 400)


def _canonical_sinusoid(params):
    out = dict(params)
    if out["A"] < 0:
        out["A"] = -out["A"]
        out["phi0"] = out["phi0"] + np.pi
    out["phi0"] = (out["phi0"] + np.pi) % (2 * np.pi) - np.pi
    return out


def test_criterion_6_fit_recovery_suite():
    with criterion(6, "fit recovery for all five model kinds"):
        rng = np.random.default_rng(SEED)
        kinds = ("exponential", "sinusoid", "recapture", "lorentzian")

        for kind in kinds:
            func, _, names = _MODELS[kind]
            for i in range(50):
                true = _draw_params(kind, rng)
                x = _grid_for(kind, true)
                y = func(x, np.array([true[n] for n in names]))
                fit = fit_model(kind, x, y)
                got = fit.params
                want = dict(true)
                if kind == "sinusoid":
                    got, want = _canonical_sinusoid(got), _canonical_sinusoid(want)
                scale = float(np.max(np.abs(y)))
                for n in names:
                    tol = 1e-6 * max(abs(want[n]), 1e-3 * scale)
                    assert abs(got[n] - want[n]) <= tol, (kind, i, n)

        # 5% multiplicative noise: estimates sigma-consistent with the truth
        for kind in kinds:
            func, _, names = _MODELS[kind]
            for i in range(50):
                true = _draw_params(kind, rng)
                x = _grid_for(kind, true)
                clean = func(x, np.array([true[n] for n in names]))
                sigma = 0.05 * np.maximum(np.abs(clean), 1e-3 * np.max(np.abs(clean)))
                y = clean + sigma * rng.standard_normal(len(x))
                fit = fit_model(kind, x, y, weights=1.0 / sigma**2)
                got = fit.params
                want = dict(true)
                if kind == "sinusoid":
                    got, want = _canonical_sinusoid(got), _canonical_sinusoid(want)
                for n in names:
                    err = fit.std_errors[n]
                    assert abs(got[n] - want[n]) <= max(6 * err, 1e-9), (kind, i, n)

        # the reported lifetimes and power-law slopes as generator values
        for tau in (2060.0, 1100.0):
            x = np.linspace(0, 6 * tau, 300)
            fit = fit_model("exponential", x, 8.0 + 400 * np.exp(-x / tau))
            assert fit.params["tau"] == pytest.approx(tau, rel=1e-6)
        for slope in (0.78, 1.27):
            x = np.logspace(0, 2, 40)
            noiseless = fit_model("power_law", x, 2.0 * x**slope)
            assert noiseless.params["s"] == pytest.approx(slope, rel=1e-6)
            rng2 = np.random.default_rng(SEED + int(slope * 100))
            noisy = fit_model(
                "power_law", x, 2.0 * x**slope * (1 + 0.05 * rng2.standard_normal(len(x)))
            )
            assert abs(noisy.params["s"] - slope) <= 6 * noisy.std_errors["s"]


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_unit_conversion():
    with criterion(7, "period to splitting conversion"):
        fss = fss_from_period(890.0)
        assert 4.62 <= fss <= 4.67


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_correlation_oracle():
    with criterion(8, "cross-correlation equals the all-pairs oracle"):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            na = int(rng.integers(1, 2001))
            nb = int(rng.integers(1, 2001))
            ta = rng.integers(0, 5_000_000, na)
            tb = rng.integers(0, 5_000_000, nb)
            bw = float(rng.integers(10, 5000))
            md = float(rng.integers(2, 50) * bw)
            hist = cross_correlate(ta, tb, bw, md)
            assert np.array_equal(hist.counts, brute_force_histogram(ta, tb, bw, md))


# --- criterion 9 -----------------------------------------------------------

def test_criterion_9_invariant_suites(tmp_path):
    with criterion(9, "cross-module invariant suites"):
        rng = np.random.default_rng(SEED)

        # state normalization: 1000 random (fss, t)
        for _ in range(1000):
            psi = time_evolved_state(rng.uniform(0, 20), rng.uniform(-1e5, 1e5))
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

        # unitarity of every generated optic
        for _ in range(200):
            j = waveplate_jones(rng.uniform(-7, 7), rng.uniform(-7, 7))
            assert np.max(np.abs(j.conj().T @ j - np.eye(2))) < 1e-12
            u = Correction(rng.uniform(-7, 7), rng.uniform(-7, 7)).matrix()
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

        # physicality of 200 MLE reconstructions from noisy counts
        for _ in range(200):
            target = random_physical_rho(rng, rank=int(rng.integers(1, 5)))
            inp = make_input(target, float(rng.uniform(200, 5000)), 36, rng=rng)
            result = mle_reconstruct(inp)
            validate_density_matrix(result.rho)

        # local-unitary invariance of concurrence
        for _ in range(100):
            rho = random_physical_rho(rng, rank=int(rng.integers(1, 5)))
            u = np.kron(random_unitary2(rng), random_unitary2(rng))
            rotated = u @ rho @ u.conj().T
            rotated = 0.5 * (rotated + rotated.conj().T)
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9

        # determinism: identical (config, seed) gives byte-identical exports
        cfg = EmitterConfig(recapture_probability=0.2)
        blobs = []
        for run in range(2):
            a, b = simulate_autocorrelation_run(cfg, "XX", 50_000, seed=SEED)
            pair = []
            for name, stream in (("a", a), ("b", b)):
                path = tmp_path / f"det_{run}_{name}.ctts"
                export_stream(stream, path, "binary")
                pair.append(path.read_bytes())
            blobs.append(tuple(pair))
        assert blobs[0] == blobs[1]
