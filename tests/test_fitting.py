import numpy as np
import pytest

from qdcascade import (Histogram, ValidationError, first_lens_rate, fit_model,
                       fss_from_peak_positions, fss_from_period,
                       oscillation_period, poisson_weights)
from qdcascade import fitting
from qdcascade.correlations import g2_zero
from qdcascade.fitting import _JACOBIANS, _MODELS


def evaluate(kind, x, params):
    func, names = _MODELS[kind]
    return func(x, np.array([params[n] for n in names]))


class TestNoiselessRecovery:
    def test_exponential(self):
        x = np.linspace(0, 9000, 200)
        true = {"B": 12.0, "A": 480.0, "x0": 0.0, "tau": 2060.0}
        fit = fit_model("exponential", x, evaluate("exponential", x, true))
        for k in ("B", "A", "tau"):
            assert fit.params[k] == pytest.approx(true[k], rel=1e-8)
        assert fit.std_errors["x0"] == 0.0  # frozen parameter

    def test_exponential_with_offset_origin(self):
        x = np.linspace(1500, 9000, 120)
        true = {"B": 3.0, "A": 100.0, "x0": 1500.0, "tau": 1100.0}
        fit = fit_model("exponential", x, evaluate("exponential", x, true),
                        init={"x0": 1500.0})
        assert fit.params["tau"] == pytest.approx(1100.0, rel=1e-8)

    def test_sinusoid(self):
        x = np.linspace(0, 5000, 300)
        true = {"y0": 0.5, "A": 0.42, "P": 890.0, "phi0": 0.7}
        fit = fit_model("sinusoid", x, evaluate("sinusoid", x, true))
        for k in true:
            assert fit.params[k] == pytest.approx(true[k], rel=1e-7, abs=1e-7)

    def test_recapture(self):
        x = np.linspace(-4000, 4000, 400)
        true = {"C": 25.0, "A": 700.0, "t0": 60.0, "t_d": 1100.0, "t_c": 546.0}
        fit = fit_model("recapture", x, evaluate("recapture", x, true))
        for k in true:
            assert fit.params[k] == pytest.approx(true[k], rel=1e-6)

    def test_lorentzian(self):
        x = np.linspace(-5000, 5000, 500)
        true = {"B": 4.0, "A": 900.0, "x0": -120.0, "gamma": 640.0}
        fit = fit_model("lorentzian", x, evaluate("lorentzian", x, true))
        for k in true:
            assert fit.params[k] == pytest.approx(true[k], rel=1e-7)

    @pytest.mark.parametrize("slope", [0.78, 1.27])
    def test_power_law(self, slope):
        x = np.logspace(0, 2, 40)
        y = 2.5 * x**slope
        fit = fit_model("power_law", x, y)
        assert fit.params["s"] == pytest.approx(slope, rel=1e-10)
        assert fit.params["b"] == pytest.approx(np.log(2.5), rel=1e-8)


class TestNoisyRecovery:
    def test_sinusoid_period_under_noise(self, rng):
        x = np.linspace(0, 5000, 250)
        clean = 0.5 + 0.45 * np.sin(2 * np.pi * x / 890.0 + 0.3)
        y = clean * (1 + 0.05 * rng.standard_normal(len(x)))
        fit = fit_model("sinusoid", x, y)
        assert fit.params["P"] == pytest.approx(890.0, abs=10.0)

    def test_exponential_tau_under_noise(self, rng):
        x = np.linspace(0, 9000, 300)
        clean = 10.0 + 500.0 * np.exp(-x / 2060.0)
        y = clean * (1 + 0.05 * rng.standard_normal(len(x)))
        fit = fit_model("exponential", x, y, weights=1.0 / (0.05 * clean) ** 2)
        assert fit.params["tau"] == pytest.approx(2060.0, rel=0.05)
        assert abs(fit.params["tau"] - 2060.0) < 5 * fit.std_errors["tau"]

    def test_recapture_under_noise(self, rng):
        x = np.linspace(-4000, 4000, 320)
        clean = 20.0 + 650.0 * np.exp(-np.abs(x) / 1100.0) * (1 - np.exp(-np.abs(x) / 546.0))
        y = np.maximum(clean * (1 + 0.05 * rng.standard_normal(len(x))), 0.0)
        fit = fit_model("recapture", x, y, weights=poisson_weights(y))
        assert fit.params["t_c"] == pytest.approx(546.0, rel=0.05)
        assert fit.params["t_d"] == pytest.approx(1100.0, rel=0.05)

    def test_power_law_under_noise(self, rng):
        x = np.logspace(0, 2, 50)
        y = 3.0 * x**1.27 * (1 + 0.05 * rng.standard_normal(len(x)))
        fit = fit_model("power_law", x, y)
        assert fit.params["s"] == pytest.approx(1.27, abs=0.05)
        assert abs(fit.params["s"] - 1.27) < 5 * fit.std_errors["s"]


class TestFitModelValidation:
    def test_degenerate_x(self):
        with pytest.raises(ValidationError, match="degenerate"):
            fit_model("exponential", np.ones(10), np.arange(10.0))

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="at least"):
            fit_model("sinusoid", np.arange(3.0), np.arange(3.0))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown model"):
            fit_model("gaussian", np.arange(10.0), np.arange(10.0))

    def test_power_law_needs_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            fit_model("power_law", np.array([1.0, 2.0, -3.0]), np.ones(3))

    def test_bad_weights(self):
        with pytest.raises(ValidationError, match="weights"):
            fit_model("exponential", np.arange(10.0), np.arange(10.0),
                      weights=np.zeros(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "y", "weights"])
    def test_non_finite_input(self, where, bad):
        data = {"x": np.arange(10.0), "y": np.exp(-np.arange(10.0) / 3.0),
                "weights": np.ones(10)}
        data[where][4] = bad
        with pytest.raises(ValidationError, match=f"{where} must hold only finite"):
            fit_model("lorentzian", data["x"], data["y"], weights=data["weights"])
        with pytest.raises(ValidationError, match="x0 must be a finite number"):
            fit_model("lorentzian", np.arange(10.0), np.ones(10), init={"x0": bad})

    def test_std_error_keys_match(self):
        x = np.linspace(0, 10, 30)
        fit = fit_model("exponential", x, 1 + np.exp(-x / 3.0))
        assert set(fit.params) == set(fit.std_errors)
        assert fit.model == "exponential"


class TestPowerLawInvariance:
    def test_slope_invariant_under_y_rescaling(self, rng):
        x = np.logspace(0.2, 1.8, 25)
        y = 4.0 * x**0.78 * (1 + 0.02 * rng.standard_normal(len(x)))
        s1 = fit_model("power_law", x, y).params["s"]
        s2 = fit_model("power_law", x, 137.0 * y).params["s"]
        assert s1 == pytest.approx(s2, rel=1e-12)


class TestFssFromPeaks:
    def _trace(self, fss, phase, angles, rng=None, noise=0.0):
        energies = 1000.0 + (fss / 2.0) * np.sin(4 * angles + phase)
        if rng is not None:
            energies = energies + noise * rng.standard_normal(len(angles))
        return energies

    def test_recovers_amplitude(self, rng):
        angles = np.deg2rad(np.arange(0, 360, 5))
        energies = self._trace(4.6, 0.4, angles, rng, noise=0.05)
        fss, fit = fss_from_peak_positions(angles, energies)
        assert fss == pytest.approx(4.6, abs=0.1)
        assert fit.params["fss"] == fss
        assert fit.std_errors["fss"] > 0

    def test_flat_trace_gives_zero(self, rng):
        angles = np.deg2rad(np.arange(0, 360, 5))
        energies = 1000.0 + 0.02 * rng.standard_normal(len(angles))
        fss, _ = fss_from_peak_positions(angles, energies)
        assert fss < 0.05

    def test_antiphase_traces(self, rng):
        angles = np.deg2rad(np.arange(0, 360, 5))
        x_line = self._trace(4.6, 0.4, angles)
        xx_line = self._trace(4.6, 0.4 + np.pi, angles)
        fss_x, fit_x = fss_from_peak_positions(angles, x_line)
        fss_xx, fit_xx = fss_from_peak_positions(angles, xx_line)
        assert fss_x == pytest.approx(fss_xx, rel=1e-9)
        dphi = (fit_x.params["phase"] - fit_xx.params["phase"]) % (2 * np.pi)
        assert dphi == pytest.approx(np.pi, abs=1e-6)

    def test_harmonic_override(self):
        angles = np.deg2rad(np.arange(0, 360, 5))
        energies = 1000.0 + 2.3 * np.sin(2 * angles + 0.1)
        fss, _ = fss_from_peak_positions(angles, energies, harmonic=2)
        assert fss == pytest.approx(4.6, abs=1e-9)

    def test_coverage_validation(self):
        angles = np.deg2rad(np.arange(0, 90, 5))  # only a quarter turn
        with pytest.raises(ValidationError, match="half a rotation"):
            fss_from_peak_positions(angles, np.ones_like(angles))
        with pytest.raises(ValidationError, match="8"):
            fss_from_peak_positions(np.linspace(0, np.pi, 5), np.ones(5))
        angles = np.deg2rad(np.arange(0, 360, 5))
        energies = self._trace(4.6, 0.4, angles)
        energies[7] = np.nan
        with pytest.raises(ValidationError, match="energies must hold only finite"):
            fss_from_peak_positions(angles, energies)

    @pytest.mark.parametrize("harmonic,message", [(0, "harmonic must be nonzero"),
                                                  (np.nan, "harmonic must be a finite"),
                                                  (np.inf, "harmonic must be a finite")])
    def test_harmonic_validation(self, harmonic, message):
        angles = np.deg2rad(np.arange(0, 360, 5))
        with pytest.raises(ValidationError, match=message):
            fss_from_peak_positions(angles, self._trace(4.6, 0.4, angles), harmonic=harmonic)


class TestUnitConversion:
    def test_reference_pairing(self):
        assert fss_from_period(890.0) == pytest.approx(4.6468176366, abs=1e-9)
        assert 4.62 <= fss_from_period(890.0) <= 4.67

    def test_reverse(self):
        assert oscillation_period(4.6) == pytest.approx(899.058, abs=0.01)

    def test_round_trip(self):
        for x in (100.0, 890.0, 12345.6):
            assert oscillation_period(fss_from_period(x)) == pytest.approx(x, rel=1e-12)

    def test_positive_input_required(self):
        with pytest.raises(ValidationError):
            fss_from_period(0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                fss_from_period(bad)
        with pytest.raises(ValidationError):
            oscillation_period(-2.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="fss must be a finite"):
                oscillation_period(bad)


class TestFirstLensRate:
    def test_published_budget_flags_inconsistency(self):
        out = first_lens_rate(40_000.0, 0.008, 0.5, 80.0)
        assert out.rate_mhz == pytest.approx(10.0)
        assert out.fraction_of_pulses == pytest.approx(0.125)
        assert "16.67" in out.note

    def test_unit_efficiencies(self):
        out = first_lens_rate(2_000_000.0, 1.0, 1.0, 80.0)
        assert out.rate_mhz == pytest.approx(2.0)
        assert out.fraction_of_pulses == pytest.approx(0.025)
        assert out.note == ""

    def test_linearity(self):
        a = first_lens_rate(10_000.0, 0.01, 0.5, 40.0)
        b = first_lens_rate(20_000.0, 0.01, 0.5, 40.0)
        assert b.rate_mhz == pytest.approx(2 * a.rate_mhz)
        assert b.fraction_of_pulses == pytest.approx(2 * a.fraction_of_pulses)

    def test_validation(self):
        with pytest.raises(ValidationError):
            first_lens_rate(0.0, 0.5, 0.5, 80.0)
        with pytest.raises(ValidationError):
            first_lens_rate(100.0, 1.5, 0.5, 80.0)
        with pytest.raises(ValidationError, match="measured_cps must be a finite"):
            first_lens_rate(np.nan, 0.5, 0.5, 80.0)
        with pytest.raises(ValidationError, match="rep_rate_mhz must be a finite"):
            first_lens_rate(100.0, 0.5, 0.5, np.inf)


def test_poisson_weights():
    w = poisson_weights(np.array([0.0, 0.5, 4.0]))
    assert np.allclose(w, [1.0, 1.0, 0.25])


class TestRecaptureModel:
    def test_from_fit_round_trip(self):
        from qdcascade import RecaptureModel

        x = np.linspace(-4000, 4000, 300)
        model = RecaptureModel(C=10.0, A=400.0, t0=0.0, t_d=1100.0, t_c=546.0)
        fit = fit_model("recapture", x, model(x))
        back = RecaptureModel.from_fit(fit)
        assert back.t_c == pytest.approx(546.0, rel=1e-6)
        assert np.allclose(back(x), model(x), rtol=1e-6)

    def test_invariants(self):
        from qdcascade import RecaptureModel

        with pytest.raises(ValidationError):
            RecaptureModel(C=0, A=1, t0=0, t_d=0.0, t_c=10.0)
        with pytest.raises(ValidationError):
            RecaptureModel(C=0, A=-1, t0=0, t_d=10.0, t_c=10.0)

    def test_rejects_wrong_fit_kind(self):
        from qdcascade import RecaptureModel

        x = np.linspace(0, 10, 40)
        fit = fit_model("exponential", x, 1 + np.exp(-x / 3))
        with pytest.raises(ValidationError):
            RecaptureModel.from_fit(fit)

    def test_mirror_start_returns_physical_branch(self):
        from qdcascade import RecaptureModel

        # (A, t_d, t_c) and (-A, 1/(1/t_d + 1/t_c), -t_c) draw the same curve
        x = np.linspace(-4000, 4000, 400)
        true = {"C": 25.0, "A": 600.0, "t0": 60.0, "t_d": 1100.0, "t_c": 400.0}
        mirror = dict(true, A=-600.0, t_d=1.0 / (1.0 / 1100.0 + 1.0 / 400.0), t_c=-400.0)
        assert np.allclose(evaluate("recapture", x, mirror), evaluate("recapture", x, true))
        fit = fit_model("recapture", x, evaluate("recapture", x, true), init=mirror)
        assert fit.params["A"] >= 0
        assert fit.params["t_d"] > 0
        assert fit.params["t_c"] > 0
        model = RecaptureModel.from_fit(fit)
        assert model.t_c == pytest.approx(400.0, rel=1e-6)


def _central_differences(func, x, p, rel=1e-6):
    """Central differences of func(x, p) in each parameter, and each entry's
    rounding floor (eps * |f| / h), below which a difference carries no digits."""
    diffs, floors = [], []
    for k in range(len(p)):
        h = rel * max(abs(p[k]), 1.0)
        up, down = p.copy(), p.copy()
        up[k] += h
        down[k] -= h
        f_up, f_down = func(x, up), func(x, down)
        diffs.append((f_up - f_down) / (2.0 * h))
        floors.append(np.finfo(float).eps * np.maximum(abs(f_up), abs(f_down)) / h)
    return np.column_stack(diffs), np.column_stack(floors)


def _random_point(kind, rng):
    """Parameters and abscissae; negative time constants make the exp cap bind."""
    sign = rng.choice([-1.0, 1.0], size=2)
    if kind == "exponential":
        p = [rng.normal(), rng.uniform(0.5, 5), rng.uniform(-2, 2), sign[0] * rng.uniform(0.05, 3)]
    elif kind == "sinusoid":
        p = [rng.normal(), rng.uniform(0.5, 3), rng.uniform(1, 10), rng.uniform(-3, 3)]
    elif kind == "recapture":
        p = [rng.normal(), rng.uniform(0.5, 5), rng.uniform(-2, 2),
             sign[0] * rng.uniform(0.05, 3), sign[1] * rng.uniform(0.05, 3)]
    else:
        p = [rng.normal(), rng.uniform(0.5, 5), rng.uniform(-2, 2), rng.uniform(0.2, 5)]
    p = np.array(p)
    x = np.linspace(-20.0, 20.0, 81)
    if kind == "recapture":  # next to the cusp, a step clear of it, and on it
        x = np.concatenate([x, p[2] + np.array([-1e-2, -1e-3, 1e-3, 1e-2, 0.0])])
    return p, x


class TestAnalyticJacobians:
    @pytest.mark.parametrize("kind", sorted(_MODELS))
    def test_matches_central_differences(self, kind, rng):
        func, _ = _MODELS[kind]
        capped = 0
        for _ in range(200):
            p, x = _random_point(kind, rng)
            jac = _JACOBIANS[kind](x, p)
            diffs, floors = _central_differences(func, x, p)
            assert jac.shape == (len(x), len(p))
            assert np.all(np.abs(jac - diffs) <= 1e-6 * np.abs(jac) + 8.0 * floors)
            if kind == "exponential":
                capped += np.sum(-(x - p[2]) / p[3] > 60.0)
            elif kind == "recapture":
                u = np.abs(x - p[2])
                capped += np.sum((-u / p[3] > 60.0) | (-u / p[4] > 60.0))
        if kind in ("exponential", "recapture"):
            assert capped > 0  # the cap bound at some rows

    def test_zero_where_the_cap_binds_and_at_the_cusp(self):
        x = np.array([-500.0, 0.0, 500.0])
        jac = _JACOBIANS["exponential"](x, np.array([1.0, 2.0, 0.0, 5.0]))
        assert np.all(jac[0, 2:] == 0.0) and jac[0, 1] == np.exp(60.0)
        jac = _JACOBIANS["recapture"](x, np.array([1.0, 2.0, 0.0, 300.0, -5.0]))
        assert np.all(jac[[0, 2], 4] == 0.0)  # -u/t_c = 100 is capped
        assert jac[1, 2] == 0.0  # d/dt0 at x == t0

    def test_fits_evaluate_no_finite_differences(self, rng, monkeypatch):
        # with finite-difference Jacobians (p + 1 model calls per Jacobian)
        # these fits made 360 Lorentzian and 674 recapture calls
        calls = {"lorentzian": 0, "recapture": 0}
        for kind in calls:
            func, *rest = _MODELS[kind]

            def spy(x, p, func=func, kind=kind):
                calls[kind] += 1
                return func(x, p)

            monkeypatch.setitem(fitting._MODELS, kind, (spy, *rest))

        period, width = 12500.0, 50.0
        x = np.arange(-5.5 * period, 5.5 * period, width) + width / 2.0
        peaks = sum((0.3 if m == 0 else 1.0) * 400.0 / (1.0 + ((x - m * period) / 400.0) ** 2)
                    for m in range(-6, 7))
        g2_zero(Histogram(width, -5.5 * period, rng.poisson(5.0 + peaks)), period, 5)
        t = np.arange(-4000.0, 4000.0, 25.0) + 12.5
        u = np.abs(t - 30.0)
        y = rng.poisson(5.0 + 3000.0 * np.exp(-u / 1100.0) * (1.0 - np.exp(-u / 546.0)))
        fit_model("recapture", t, y, weights=poisson_weights(y))
        # 10 side-peak fits and 10 recapture starts take 69 and 126 calls
        assert 0 < calls["lorentzian"] <= 150
        assert 0 < calls["recapture"] <= 300


@pytest.fixture
def rng():
    return np.random.default_rng(42)
