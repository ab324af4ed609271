"""Weighted nonlinear least-squares fits used by the analysis commands.

Model forms:

* ``exponential``   y = B + A*exp(-(x - x0)/tau), x0 held fixed (it is
  degenerate with A; pass it via ``init`` when the decay does not start
  at zero)
* ``sinusoid``      y = y0 + A*sin(2*pi*x/P + phi0)
* ``recapture``     y = C + A*exp(-|x - t0|/t_d)*(1 - exp(-|x - t0|/t_c))
* ``power_law``     log y = s*log x + b, fitted linearly in log-log space
* ``lorentzian``    y = B + A*(g/2)^2 / ((x - x0)^2 + (g/2)^2)

Nonlinear kinds run Levenberg-Marquardt from data-driven starting
points; parameter uncertainties come from the Jacobian covariance
scaled by the reduced chi-square. For raw count data pass
``weights=poisson_weights(y)``.

The sinusoid start takes P from the strongest FFT component and then
(y0, A, phi0) from the weighted linear least-squares solve at that
period, where the model is linear in (y0, A*cos(phi0), A*sin(phi0))
(variable projection, as in ``fss_from_peak_positions``).

The recapture model has an exact mirror: (A, t_d, t_c) and
(-A, 1/(1/t_d + 1/t_c), -t_c) draw the same curve. A fit that converges
to the mirror (t_c < 0) is mapped back and refitted there, so recapture
fits always return the physical branch (A >= 0, t_d, t_c > 0) of a peak,
with errors from that branch's Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .constants import H_UEV_PS
from .errors import FitError, ValidationError


@dataclass
class FitResult:
    model: str
    params: dict
    std_errors: dict
    reduced_chi2: float
    converged: bool

    def __post_init__(self):
        if set(self.params) != set(self.std_errors):
            raise ValidationError("std_errors keys must match params keys")
        if self.reduced_chi2 < 0:
            raise ValidationError("reduced_chi2 must be nonnegative")


def poisson_weights(y):
    """1/max(y, 1) weights for histogram count data."""
    y = np.asarray(y, dtype=float)
    return 1.0 / np.maximum(y, 1.0)


@dataclass(frozen=True)
class RecaptureModel:
    """Double-sided decay peak with a re-excitation dip.

    y(t) = C + A * exp(-|t - t0|/t_d) * (1 - exp(-|t - t0|/t_c)), with
    t_d the radiative and t_c the recapture time constant.
    """

    C: float
    A: float
    t0: float
    t_d: float
    t_c: float

    def __post_init__(self):
        if self.t_d <= 0 or self.t_c <= 0:
            raise ValidationError("t_d and t_c must be positive")
        if self.A < 0:
            raise ValidationError("A must be nonnegative")

    @classmethod
    def from_fit(cls, fit):
        if fit.model != "recapture":
            raise ValidationError(f"expected a recapture fit, got {fit.model!r}")
        return cls(**fit.params)

    def __call__(self, x):
        return _recapture(np.asarray(x, dtype=float),
                          (self.C, self.A, self.t0, self.t_d, self.t_c))


def _safe_exp(z):
    """exp with the argument capped, so stray LM steps cannot produce inf/nan."""
    return np.exp(np.minimum(z, 60.0))


def _exponential(x, p):
    b, a, x0, tau = p
    return b + a * _safe_exp(-(x - x0) / tau)


def _sinusoid(x, p):
    y0, a, period, phi0 = p
    return y0 + a * np.sin(2.0 * np.pi * x / period + phi0)


def _recapture(x, p):
    c, a, t0, t_d, t_c = p
    u = np.abs(x - t0)
    return c + a * _safe_exp(-u / t_d) * (1.0 - _safe_exp(-u / t_c))


def _lorentzian(x, p):
    b, a, x0, gamma = p
    hw2 = (gamma / 2.0) ** 2
    return b + a * hw2 / ((x - x0) ** 2 + hw2)


_MODELS = {
    "exponential": (_exponential, ("B", "A", "x0", "tau")),
    "sinusoid": (_sinusoid, ("y0", "A", "P", "phi0")),
    "recapture": (_recapture, ("C", "A", "t0", "t_d", "t_c")),
    "lorentzian": (_lorentzian, ("B", "A", "x0", "gamma")),
}


def _dominant_period(x, y):
    """Period guess from the strongest nonzero FFT component."""
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    dx = np.median(np.diff(xs))
    if dx <= 0:
        return None
    spectrum = np.abs(np.fft.rfft(ys - ys.mean()))
    freqs = np.fft.rfftfreq(len(ys), d=dx)
    if len(spectrum) < 2:
        return None
    k = 1 + int(np.argmax(spectrum[1:]))
    return 1.0 / freqs[k] if freqs[k] > 0 else None


def _linear_sinusoid(phase, y, sqrt_w):
    """Weighted least squares of y = y0 + a*sin(phase) + b*cos(phase).

    Returns the design matrix and (y0, a, b); a = A*cos(phi0), b = A*sin(phi0).
    """
    design = np.column_stack([np.ones_like(phase), np.sin(phase), np.cos(phase)])
    coef, *_ = np.linalg.lstsq(design * sqrt_w[:, None], y * sqrt_w, rcond=None)
    return design, coef


def _sinusoid_guess(x, y, weights, period):
    """(y0, A, P, phi0) start from the weighted linear solve at a fixed P."""
    _, (y0, a, b) = _linear_sinusoid(2.0 * np.pi * x / period, y, np.sqrt(weights))
    return {"y0": float(y0), "A": float(np.hypot(a, b)) or 1.0, "P": period,
            "phi0": float(np.arctan2(b, a))}


def _recapture_mirror(p):
    """The other (C, A, t0, t_d, t_c) that draws the same recapture curve."""
    c, a, t0, t_d, t_c = p
    return np.array([c, -a, t0, 1.0 / (1.0 / t_d + 1.0 / t_c), -t_c])


def _initial_guesses(kind, x, y, weights, init):
    init = dict(init or {})
    span = x.max() - x.min()
    lo, hi = float(y.min()), float(y.max())
    if kind == "exponential":
        guess = {"B": lo, "A": hi - lo if hi > lo else 1.0, "x0": 0.0,
                 "tau": span / 3.0 if span > 0 else 1.0}
    elif kind == "sinusoid":
        period = init.get("P") or _dominant_period(x, y) or span / 2.0
        guess = _sinusoid_guess(x, y, weights, period)
    elif kind == "lorentzian":
        x0 = float(x[np.argmax(y)])
        above = x[y > (lo + hi) / 2.0]
        gamma = float(above.max() - above.min()) if len(above) > 1 else span / 10.0
        guess = {"B": lo, "A": hi - lo if hi > lo else 1.0, "x0": x0,
                 "gamma": gamma or span / 10.0}
    elif kind == "recapture":
        weights_c = np.maximum(y - lo, 0.0)
        t0 = float(np.sum(x * weights_c) / np.sum(weights_c)) if weights_c.sum() > 0 \
            else float(np.median(x))
        guess = {"C": lo, "A": 2.0 * (hi - lo) if hi > lo else 1.0, "t0": t0,
                 "t_d": span / 4.0 or 1.0, "t_c": span / 12.0 or 1.0}
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    guess.update(init)
    return guess


def _lm_fit(kind, x, y, weights, init):
    func, names = _MODELS[kind]
    sqrt_w = np.sqrt(weights)

    def residuals(p):
        return sqrt_w * (func(x, p) - y)

    guess = _initial_guesses(kind, x, y, weights, init)
    frozen = {"x0"} if kind == "exponential" else set()
    free = [n for n in names if n not in frozen]

    starts = [guess]
    if kind == "recapture" and not init:
        for fd in (0.5, 1.0, 2.0):
            for fc in (0.3, 1.0, 3.0):
                alt = dict(guess)
                alt["t_d"] = guess["t_d"] * fd
                alt["t_c"] = guess["t_c"] * fc
                starts.append(alt)

    def pack(g):
        return np.array([g[n] for n in free], dtype=float)

    def unpack(vec):
        full = dict(guess)
        full.update(dict(zip(free, vec)))
        return np.array([full[n] for n in names], dtype=float)

    def solve(start):
        try:
            return least_squares(lambda v: residuals(unpack(v)), start, method="lm",
                                 xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=20000)
        except Exception as exc:
            raise FitError(f"{kind} fit failed: {exc}") from exc

    best = None
    for start in starts:
        res = solve(pack(start))
        if best is None or res.cost < best.cost:
            best = res

    if kind == "recapture" and best.x[4] < 0:  # t_c < 0: the mirror branch
        best = solve(_recapture_mirror(best.x))

    res = best
    p_full = unpack(res.x)
    chi2 = float(2.0 * res.cost)
    dof = max(len(x) - len(free), 1)
    red_chi2 = chi2 / dof

    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj) * red_chi2
        errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        errs = np.full(len(free), np.nan)

    params = dict(zip(names, (float(v) for v in p_full)))
    std = {n: 0.0 for n in names}
    std.update(dict(zip(free, (float(e) for e in errs))))
    converged = bool(res.success) and res.status != 0
    return FitResult(kind, params, std, red_chi2, converged)


def _power_law_fit(x, y, weights):
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValidationError("power-law fit needs strictly positive x and y")
    lx, ly = np.log(x), np.log(y)
    design = np.column_stack([lx, np.ones_like(lx)])
    w = np.asarray(weights, dtype=float)
    wd = design * np.sqrt(w)[:, None]
    wy = ly * np.sqrt(w)
    coef, *_ = np.linalg.lstsq(wd, wy, rcond=None)
    resid = wy - wd @ coef
    dof = max(len(x) - 2, 1)
    red_chi2 = float(resid @ resid) / dof
    cov = np.linalg.inv(wd.T @ wd) * red_chi2
    errs = np.sqrt(np.diag(cov))
    return FitResult(
        "power_law",
        {"s": float(coef[0]), "b": float(coef[1])},
        {"s": float(errs[0]), "b": float(errs[1])},
        red_chi2,
        True,
    )


def fit_model(kind, x, y, weights=None, init=None):
    """Fit one of the five analysis models to (x, y) data.

    ``weights`` multiply squared residuals (default uniform); ``init``
    overrides individual starting parameters by name. Returns a
    FitResult; converged=False carries the best parameters found.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    if len(x) == 0 or np.all(x == x[0]):
        raise ValidationError("degenerate x data: all abscissae equal")
    n_params = 2 if kind == "power_law" else len(_MODELS.get(kind, (None, ()))[1])
    if kind != "power_law" and kind not in _MODELS:
        raise ValidationError(f"unknown model kind {kind!r}")
    if len(x) < n_params + 1:
        raise ValidationError(f"{kind} fit needs at least {n_params + 1} points")
    if weights is None:
        weights = np.ones_like(y)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != y.shape or np.any(weights <= 0):
            raise ValidationError("weights must be positive and match y")

    if kind == "power_law":
        return _power_law_fit(x, y, weights)
    return _lm_fit(kind, x, y, weights, init)


def fss_from_peak_positions(angles, peak_energies, harmonic=4):
    """Fine-structure splitting from polarization-resolved line positions.

    Fits E(theta) = y0 + A*sin(harmonic*theta + phase) with the angular
    frequency fixed (harmonic=4 for a rotating half-wave plate, i.e. a
    pi/2 period in plate angle) by linear least squares, and returns
    (fss, fit) with fss the peak-to-peak amplitude 2A.
    """
    angles = np.asarray(angles, dtype=float)
    energies = np.asarray(peak_energies, dtype=float)
    if angles.shape != energies.shape or angles.ndim != 1:
        raise ValidationError("angles and energies must be 1-d arrays of equal length")
    if len(angles) < 8:
        raise ValidationError("need at least 8 angular samples")
    if angles.max() - angles.min() < np.pi - 1e-9:
        raise ValidationError("angles must span at least half a rotation (pi)")

    design, coef = _linear_sinusoid(harmonic * angles, energies, np.ones_like(angles))
    y0, a, b = coef
    resid = energies - design @ coef
    dof = max(len(angles) - 3, 1)
    red_chi2 = float(resid @ resid) / dof
    cov = np.linalg.inv(design.T @ design) * red_chi2
    amp = float(np.hypot(a, b))
    phase = float(np.arctan2(b, a))
    if amp > 0:
        var_amp = (
            a * a * cov[1, 1] + b * b * cov[2, 2] + 2.0 * a * b * cov[1, 2]
        ) / (amp * amp)
    else:
        var_amp = cov[1, 1] + cov[2, 2]
    amp_err = float(np.sqrt(max(var_amp, 0.0)))
    fss = 2.0 * amp
    fit = FitResult(
        "fss_sinusoid",
        {"y0": float(y0), "amplitude": amp, "phase": phase, "fss": fss},
        {"y0": float(np.sqrt(cov[0, 0])), "amplitude": amp_err, "phase": 0.0,
         "fss": 2.0 * amp_err},
        red_chi2,
        True,
    )
    return fss, fit


def fss_from_period(period):
    """Splitting (ueV) whose phase oscillation has the given period (ps)."""
    if period <= 0:
        raise ValidationError("period must be positive")
    return H_UEV_PS / period


@dataclass
class FirstLensRate:
    """Photon rate at the first lens inferred from detected counts."""

    rate_mhz: float
    fraction_of_pulses: float
    note: str = field(default="")


def first_lens_rate(measured_cps, setup_eff, detector_eff, rep_rate_mhz):
    """Back out the source rate by dividing out downstream efficiencies.

    rate = measured_cps / (setup_eff * detector_eff); the fraction is
    rate / rep_rate. A note flags the known bookkeeping quirk of the
    published 40 kcps / 0.8% / 50% / 80 MHz scenario, whose headline
    16.67 MHz does not follow from this formula (it yields 10 MHz,
    which is the 12.5% of 80 MHz the same source quotes).
    """
    if measured_cps <= 0 or rep_rate_mhz <= 0:
        raise ValidationError("measured_cps and rep_rate must be positive")
    if not 0 < setup_eff <= 1 or not 0 < detector_eff <= 1:
        raise ValidationError("efficiencies must be in (0, 1]")
    rate_hz = measured_cps / (setup_eff * detector_eff)
    rate_mhz = rate_hz / 1e6
    fraction = rate_mhz / rep_rate_mhz
    note = ""
    s4_like = (
        abs(measured_cps - 40000.0) / 40000.0 < 0.01
        and abs(setup_eff - 0.008) / 0.008 < 0.01
        and abs(detector_eff - 0.5) / 0.5 < 0.01
        and abs(rep_rate_mhz - 80.0) / 80.0 < 0.01
    )
    if s4_like and abs(rate_mhz - 16.67) > 0.1:
        note = (
            "inputs match the published 40 kcps / 0.8% / 50% / 80 MHz budget, "
            "whose quoted 16.67 MHz is inconsistent with rate = counts / "
            "(setup_eff * detector_eff) = 10 MHz (= 12.5% of 80 MHz)"
        )
    return FirstLensRate(rate_mhz, fraction, note)
