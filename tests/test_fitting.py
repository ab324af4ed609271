import numpy as np
import pytest

from qdcascade import (FitError, Histogram, ValidationError, first_lens_rate, fit_model,
                       fss_from_peak_positions, fss_from_period,
                       oscillation_period, poisson_weights)
from qdcascade import fitting
from qdcascade.correlations import g2_zero
from qdcascade.fitting import _MODELS, _errors


def evaluate(kind, x, params):
    func, _, names = _MODELS[kind]
    if kind == "exponential":  # it decays from the offset x0
        x = x - params["x0"]
    return func(x, np.array([params[n] for n in names]))


class TestNoiselessRecovery:
    def test_exponential(self):
        x = np.linspace(0, 9000, 200)
        true = {"B": 12.0, "A": 480.0, "x0": 0.0, "tau": 2060.0}
        fit = fit_model("exponential", x, evaluate("exponential", x, true))
        for k in ("B", "A", "tau"):
            assert fit.params[k] == pytest.approx(true[k], rel=1e-8)
        assert fit.std_errors["x0"] == 0.0  # an offset, not fitted

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

    @pytest.mark.parametrize("kind,init", [("exponential", {"tua": 5000.0}),
                                           ("exponential", {"t0": 1.0}),
                                           ("sinusoid", {"x0": 1.0}),
                                           ("power_law", {"s": 1.0})])
    def test_init_must_name_a_parameter(self, kind, init):
        x = np.linspace(1.0, 10.0, 20)
        name = next(iter(init))
        with pytest.raises(ValidationError, match=f"{kind} fit has no parameter {name}"):
            fit_model(kind, x, 1.0 + np.exp(-x / 3.0), init=init)

    def test_non_finite_start_is_a_fit_error(self):
        # gamma = 0 at x = x0 makes the Lorentzian 0/0
        x = np.linspace(-5.0, 5.0, 11)
        with np.errstate(invalid="ignore"), pytest.raises(FitError, match="starting point"):
            fit_model("lorentzian", x, 1.0 / (1.0 + x * x), init={"x0": 0.0, "gamma": 0.0})

    def test_singular_fit_gives_nan_errors(self):
        red_chi2, std, cov = _errors(np.ones((5, 2)), np.arange(5.0))
        assert red_chi2 == 10.0  # 30 over 5 - 2 degrees of freedom
        assert np.all(np.isnan(std)) and np.all(np.isnan(cov))

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

    @pytest.mark.parametrize("step", [np.pi / 4, np.pi / 2])
    def test_angles_must_resolve_the_harmonic(self, step):
        # at k*pi/4 the sine column of harmonic 4 is ~1e-16, so the amplitude is unresolved
        angles = step * np.arange(16)
        with pytest.raises(ValidationError, match="do not resolve harmonic 4"):
            fss_from_peak_positions(angles, self._trace(4.6, 0.4, angles))

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
        p = [rng.normal(), rng.uniform(0.5, 5), sign[0] * rng.uniform(0.05, 3)]
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
        func, model_jac, _ = _MODELS[kind]
        capped = 0
        for _ in range(200):
            p, x = _random_point(kind, rng)
            jac = model_jac(x, p)
            diffs, floors = _central_differences(func, x, p)
            assert jac.shape == (len(x), len(p))
            assert np.all(np.abs(jac - diffs) <= 1e-6 * np.abs(jac) + 8.0 * floors)
            if kind == "exponential":
                capped += np.sum(-x / p[2] > 60.0)
            elif kind == "recapture":
                u = np.abs(x - p[2])
                capped += np.sum((-u / p[3] > 60.0) | (-u / p[4] > 60.0))
        if kind in ("exponential", "recapture"):
            assert capped > 0  # the cap bound at some rows

    def test_zero_where_the_cap_binds_and_at_the_cusp(self):
        x = np.array([-500.0, 0.0, 500.0])
        jac = _MODELS["exponential"][1](x, np.array([1.0, 2.0, 5.0]))
        assert np.all(jac[0, 2:] == 0.0) and jac[0, 1] == np.exp(60.0)
        jac = _MODELS["recapture"][1](x, np.array([1.0, 2.0, 0.0, 300.0, -5.0]))
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


def _seeded_fits(fit_model=fit_model):
    """One seeded fit of each kind, on data like the analysis commands see;
    ``fit_model`` lets a test check each fit as it is made."""
    rng = np.random.default_rng(2024)
    x = np.arange(0.0, 9000.0, 50.0) + 25.0
    y = rng.poisson(10.0 + 500.0 * np.exp(-x / 2060.0)).astype(float)
    w = poisson_weights(y)
    fits = {"exponential": fit_model("exponential", x, y, weights=w),
            "exponential_x0": fit_model("exponential", x[7:], y[7:], weights=w[7:],
                                        init={"x0": 375.0})}
    x = np.linspace(0, 6000, 60)
    y = 0.8 + 0.1 * np.sin(2 * np.pi * x / 890.0 + 0.3) + 0.02 * rng.standard_normal(60)
    fits["sinusoid"] = fit_model("sinusoid", x, y)
    t = np.arange(-4000.0, 4000.0, 25.0) + 12.5
    u = np.abs(t - 30.0)
    y = rng.poisson(5.0 + 3000.0 * np.exp(-u / 1100.0) * (1.0 - np.exp(-u / 546.0)))
    fits["recapture"] = fit_model("recapture", t, y, weights=poisson_weights(y))
    x = np.linspace(-5000, 5000, 200)
    y = rng.poisson(4.0 + 900.0 * 320.0**2 / ((x + 120.0) ** 2 + 320.0**2))
    fits["lorentzian"] = fit_model("lorentzian", x, y, weights=poisson_weights(y),
                                   init={"x0": -100.0})
    x = np.logspace(0, 2, 40)
    fits["power_law"] = fit_model("power_law", x,
                                  3.0 * x**1.27 * (1 + 0.05 * rng.standard_normal(40)))
    angles = np.deg2rad(np.arange(0, 360, 5))
    energies = 1000.0 + 2.3 * np.sin(4 * angles + 0.4) + 0.05 * rng.standard_normal(len(angles))
    fits["fss"] = fss_from_peak_positions(angles, energies)[1]
    return fits


#: (params, std_errors, reduced_chi2) of ``_seeded_fits``, as recorded with
#: numpy 2.4. The fits end on the gradient, so with numpy's AVX-512 kernels
#: off they moved by at most 2e-13 relative; 1e-9 leaves room for other builds.
PINNED_FITS = {
    "exponential": (
        {"B": 8.95759241514096, "A": 491.18925267279786, "x0": 0.0, "tau": 2067.1691523269546},
        {"B": 1.0644923313854264, "A": 5.901529907444777, "x0": 0.0, "tau": 34.51872450819314},
        1.1006317195267625),
    "exponential_x0": (
        {"B": 9.029554370095564, "A": 410.3694996503747, "x0": 375.0, "tau": 2063.1472807613527},
        {"B": 1.1306124269423237, "A": 5.380137614269828, "x0": 0.0, "tau": 40.146519603590946},
        1.1160721318762745),
    "sinusoid": (
        {"y0": 0.8010571065485815, "A": 0.09802160109508153, "P": 889.280779204504,
         "phi0": 0.2733372473665164},
        {"y0": 0.0025152005560976224, "A": 0.003534233259825148, "P": 2.6309233112403523,
         "phi0": 0.07167860478493064},
        0.0003781267146335658),
    "recapture": (
        {"C": 5.980170770492969, "A": 3072.0524327526823, "t0": 31.066785036677803,
         "t_d": 1089.5206868733906, "t_c": 567.1716797565981},
        {"C": 4.270815956021314, "A": 101.69055373159783, "t0": 0.8169284642671204,
         "t_d": 21.950304706351456, "t_c": 25.753578102491545},
        0.9458382717399082),
    "lorentzian": (
        {"B": 3.327058627501062, "A": 910.3729474921587, "x0": -125.64855872974644,
         "gamma": 633.0455189685208},
        {"B": 0.3692338118782854, "A": 12.913737624701412, "x0": 3.5860963896234557,
         "gamma": 8.643926790045585},
        1.1415745635815682),
    "power_law": (
        {"s": 1.2681461278175081, "b": 1.1010237927455733},
        {"s": 0.005831444813199323, "b": 0.015603695666510138},
        0.002527212166221712),
    "fss": (
        {"y0": 999.9971676661411, "amplitude": 2.3065434600143844, "phase": 0.40290240502573965,
         "fss": 4.613086920028769},
        {"y0": 0.006059511136519292, "amplitude": 0.008569442830616392, "phase": 0.0,
         "fss": 0.017138885661232783},
        0.002643672615379295),
}


def test_seeded_fits_are_pinned():
    for name, fit in _seeded_fits().items():
        params, std_errors, reduced_chi2 = PINNED_FITS[name]
        assert fit.params == pytest.approx(params, rel=1e-9), name
        assert fit.std_errors == pytest.approx(std_errors, rel=1e-9), name
        assert fit.reduced_chi2 == pytest.approx(reduced_chi2, rel=1e-9), name


def test_never_worse_than_minpack(monkeypatch):
    # reference: MINPACK's lmder (scipy's least_squares, method="lm"), which
    # made these fits before, run from every start the package solves from
    from scipy.optimize import least_squares

    starts, solve = [], fitting._damped_minimize
    monkeypatch.setattr(fitting, "_damped_minimize", lambda value, derivatives, p:
                        starts.append((value, p)) or solve(value, derivatives, p))

    def checked(kind, x, y, weights=None, init=None):
        del starts[:]
        fit = fit_model(kind, x, y, weights=weights, init=init)
        if kind not in _MODELS:
            return fit
        _, model_jac, names = _MODELS[kind]
        sqrt_w = np.sqrt(np.ones_like(y) if weights is None else weights)
        x = x - init["x0"] if init and kind == "exponential" else x
        value = starts[0][0]
        ref = min(least_squares(lambda p: value(p)[1], p0, method="lm", xtol=1e-14,
                                ftol=1e-14, gtol=1e-14, max_nfev=20000,
                                jac=lambda p: sqrt_w[:, None] * model_jac(x, p)).cost
                  for value, p0 in starts if len(p0) == len(names))  # t0 held: not a start
        cost = value(np.array([fit.params[n] for n in names]))[0]
        assert cost <= ref * (1 + 1e-12), (kind, cost, ref)
        return fit

    _seeded_fits(checked)
    rng = np.random.default_rng(11)
    t = np.arange(-4000.0, 4000.0, 25.0) + 12.5
    for k in range(94):
        u = np.abs(t - rng.uniform(-60.0, 60.0))
        y = rng.poisson(rng.uniform(2, 20) + rng.uniform(500, 5000) * np.exp(
            -u / rng.uniform(800, 1500)) * (1.0 - np.exp(-u / rng.uniform(200, 800))))
        if k < 8 or k == 93:  # draw 93 stalls with t0 on a data point's kink
            checked("recapture", t, y, poisson_weights(y))


@pytest.fixture
def rng():
    return np.random.default_rng(42)
