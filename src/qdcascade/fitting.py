"""Weighted least-squares fits used by the analysis commands.

Model forms:

* ``exponential``   y = B + A*exp(-(x - x0)/tau); x0 is an offset, not a
  fitted parameter (it is degenerate with A). Pass it via ``init`` when
  the decay does not start at zero; it is reported with std 0.
* ``sinusoid``      y = y0 + A*sin(2*pi*x/P + phi0)
* ``recapture``     y = C + A*exp(-|x - t0|/t_d)*(1 - exp(-|x - t0|/t_c))
* ``power_law``     log y = s*log x + b, fitted linearly in log-log space
* ``lorentzian``    y = B + A*(g/2)^2 / ((x - x0)^2 + (g/2)^2)

Nonlinear kinds run Levenberg-Marquardt from data-driven starting points
with each model's closed-form Jacobian (``_MODELS``), never finite
differences, in ``_damped_minimize``, the damped Newton solver that the
tomography MLE shares, with J^T J as the curvature. Each Jacobian is the
derivative of the model as evaluated, so it is 0 where ``_safe_exp``'s
cap binds, and the recapture ``t0`` column takes sign(x - t0), 0 at the
cusp. Every fit, linear or not, takes its errors from one rule
(``_errors``): the reduced chi-square over max(n - k, 1) degrees of
freedom and std = sqrt(diag(inv(J^T J)) * reduced chi-square), with J the
weighted Jacobian (the weighted design of a linear fit) at the solution.
Where J^T J is singular the errors are nan. Non-finite x, y or weights
are rejected as bad input. For raw count data pass
``weights=poisson_weights(y)``.

The sinusoid start takes P from the strongest FFT component and then
(y0, A, phi0) from the weighted linear least-squares solve at that
period, where the model is linear in (y0, A*cos(phi0), A*sin(phi0))
(variable projection, as in ``fss_from_peak_positions``).

The recapture model has an exact mirror: (A, t_d, t_c) and
(-A, 1/(1/t_d + 1/t_c), -t_c) draw the same curve. A fit that converges
to the mirror (t_c < 0) is mapped back and refitted there, so recapture
fits always return the physical branch (A >= 0, t_d, t_c > 0) of a peak,
with errors from that branch's Jacobian. Its cost has a kink wherever t0
crosses a data point, where a solve can stall, so it ends with a solve
of the other four parameters at its t0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import H_UEV_PS
from .errors import FitError, ValidationError, require_finite


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


def _safe_exp_and_slope(z):
    """``_safe_exp(z)`` and its derivative in z, which is 0 where the cap binds."""
    value = _safe_exp(z)
    return value, np.where(z < 60.0, value, 0.0)


def _exponential(x, p):
    b, a, tau = p
    return b + a * _safe_exp(-x / tau)


def _exponential_jac(x, p):
    b, a, tau = p
    z = -x / tau
    value, slope = _safe_exp_and_slope(z)
    return np.column_stack([np.ones_like(x), value, -slope * (a / tau) * z])


def _sinusoid(x, p):
    y0, a, period, phi0 = p
    return y0 + a * np.sin(2.0 * np.pi * x / period + phi0)


def _sinusoid_jac(x, p):
    y0, a, period, phi0 = p
    theta = 2.0 * np.pi * x / period + phi0
    a_cos = a * np.cos(theta)
    return np.column_stack([np.ones_like(x), np.sin(theta),
                            -a_cos * (2.0 * np.pi * x / period ** 2), a_cos])


def _recapture(x, p):
    c, a, t0, t_d, t_c = p
    u = np.abs(x - t0)
    return c + a * _safe_exp(-u / t_d) * (1.0 - _safe_exp(-u / t_c))


def _recapture_jac(x, p):
    c, a, t0, t_d, t_c = p
    u = np.abs(x - t0)
    decay, decay_slope = _safe_exp_and_slope(-u / t_d)
    rise, rise_slope = _safe_exp_and_slope(-u / t_c)
    dip = 1.0 - rise
    d_decay = (a / t_d) * dip * decay_slope  # -d(peak)/du through the decay factor
    d_dip = (a / t_c) * decay * rise_slope  # d(peak)/du through the dip factor
    # du/dt0 = -sign(x - t0), which is 0 at the cusp
    return np.column_stack([np.ones_like(x), decay * dip,
                            np.sign(x - t0) * (d_decay - d_dip),
                            d_decay * (u / t_d), -d_dip * (u / t_c)])


def _lorentzian(x, p):
    b, a, x0, gamma = p
    hw2 = (gamma / 2.0) ** 2
    return b + a * hw2 / ((x - x0) ** 2 + hw2)


def _lorentzian_jac(x, p):
    b, a, x0, gamma = p
    d = x - x0
    hw2 = (gamma / 2.0) ** 2
    den = d * d + hw2
    scale = a / (den * den)
    return np.column_stack([np.ones_like(x), hw2 / den, scale * (2.0 * hw2) * d,
                            scale * (gamma / 2.0) * (d * d)])


#: kind -> (model(x, p), d(model)/dp with one column per name, names of p)
_MODELS = {
    "exponential": (_exponential, _exponential_jac, ("B", "A", "tau")),
    "sinusoid": (_sinusoid, _sinusoid_jac, ("y0", "A", "P", "phi0")),
    "recapture": (_recapture, _recapture_jac, ("C", "A", "t0", "t_d", "t_c")),
    "lorentzian": (_lorentzian, _lorentzian_jac, ("B", "A", "x0", "gamma")),
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


def _sinusoid_design(phase):
    """Columns of y0 + a*sin(phase) + b*cos(phase); a = A*cos(phi0), b = A*sin(phi0)."""
    return np.column_stack([np.ones_like(phase), np.sin(phase), np.cos(phase)])


def _linear_fit(design, y, sqrt_w):
    """Weighted linear least squares: coefficients, weighted design and residuals."""
    design, y = design * sqrt_w[:, None], y * sqrt_w
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef, design, y - design @ coef


def _errors(jac, resid):
    """Reduced chi-square, std errors and covariance from the weighted Jacobian
    (or design) and residuals at the solution; nan where J^T J is singular."""
    k = jac.shape[1]
    red_chi2 = float(resid @ resid) / max(len(resid) - k, 1)
    try:
        cov = np.linalg.inv(jac.T @ jac) * red_chi2
    except np.linalg.LinAlgError:
        cov = np.full((k, k), np.nan)
    return red_chi2, np.sqrt(np.maximum(np.diag(cov), 0.0)), cov


def _sinusoid_guess(x, y, weights, period):
    """(y0, A, P, phi0) start from the weighted linear solve at a fixed P."""
    (y0, a, b), *_ = _linear_fit(_sinusoid_design(2.0 * np.pi * x / period), y,
                                 np.sqrt(weights))
    return {"y0": float(y0), "A": float(np.hypot(a, b)) or 1.0, "P": period,
            "phi0": float(np.arctan2(b, a))}


def _recapture_mirror(p):
    """The other (C, A, t0, t_d, t_c) that draws the same recapture curve."""
    c, a, t0, t_d, t_c = p
    return np.array([c, -a, t0, 1.0 / (1.0 / t_d + 1.0 / t_c), -t_c])


def _initial_guesses(kind, x, y, weights, init):
    span = x.max() - x.min()
    lo, hi = float(y.min()), float(y.max())
    if kind == "exponential":
        guess = {"B": lo, "A": hi - lo if hi > lo else 1.0,
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
    else:  # recapture
        weights_c = np.maximum(y - lo, 0.0)
        t0 = float(np.sum(x * weights_c) / np.sum(weights_c)) if weights_c.sum() > 0 \
            else float(np.median(x))
        guess = {"C": lo, "A": 2.0 * (hi - lo) if hi > lo else 1.0, "t0": t0,
                 "t_d": span / 4.0 or 1.0, "t_c": span / 12.0 or 1.0}
    guess.update(init)
    return guess


#: Steps (calls of ``value`` after the first) one ``_damped_minimize`` may take.
_MAX_ITERATIONS = 1000


def _damped_minimize(value, derivatives, x):
    """Minimize f from x by damped Newton steps; (x, value(x), steps, converged).

    ``value(x)`` returns a tuple that starts with f, and ``derivatives(x,
    value(x))`` the gradient g and a symmetric curvature C (a Hessian, or
    J^T J). Each step solves (|C| + lam I) s = -g, |C| having C's
    eigenvalues made positive, on parameters scaled by the largest
    sqrt|C_ii| seen so far (as in Moré's Levenberg-Marquardt). lam starts
    at 1e-6 of the largest scaled |eigenvalue|, shrinks 4x when a step
    lowers f and grows 8x when not.
    The solve ends, converged, on the gradient: when every scaled
    |g_i| / sqrt|C_ii| is at most 1e-11 sqrt|f| (for least squares, when
    every column of J is that close to orthogonal to the residuals). Once
    g.|C|^-1.g falls to 1e-14 f, below which f cannot resolve a decrease,
    steps are undamped and taken while they halve the scaled gradient;
    the first that does not also ends the solve, as does a step that no
    longer moves x. It stops unconverged when _MAX_ITERATIONS calls of
    ``value`` after the first (``steps``) run out. A start where f is not
    finite raises FitError.
    """
    res = value(x)
    if not np.isfinite(res[0]):
        raise FitError(f"the objective is {res[0]} at the starting point")
    grad, curv = derivatives(x, res)
    scale, lam, steps = np.zeros_like(x), None, 0
    while True:  # at each taken step
        scale = np.maximum(scale, np.sqrt(np.abs(np.diag(curv))))
        scale[scale == 0.0] = 1.0
        scaled_grad = grad / scale
        if np.abs(scaled_grad).max() <= 1e-11 * abs(res[0]) ** 0.5:
            return x, res, steps, True
        evals, evecs = np.linalg.eigh(curv / np.outer(scale, scale))
        evals = np.abs(evals)
        evals = np.maximum(evals, 1e-16 * evals.max())  # no division by 0 on a null direction
        gw = evecs.T @ scaled_grad
        lam = 1e-6 * evals.max() if lam is None else lam / 4.0
        finishing = gw @ (gw / evals) <= 1e-14 * res[0]
        while True:  # at each step tried
            trial = x - (evecs @ (gw / (evals if finishing else evals + lam))) / scale
            if np.array_equal(trial, x) or steps == _MAX_ITERATIONS:
                return x, res, steps, steps < _MAX_ITERATIONS
            steps += 1
            trial_res = value(trial)
            if finishing or trial_res[0] < res[0]:
                break
            lam *= 8.0
        trial_grad, curv = derivatives(trial, trial_res)
        if finishing and not (np.linalg.norm(trial_grad / scale)
                              <= 0.5 * np.linalg.norm(scaled_grad)):
            return x, res, steps, True
        x, res, grad = trial, trial_res, trial_grad


def _lm_fit(kind, x, y, weights, init):
    func, model_jac, names = _MODELS[kind]
    sqrt_w = np.sqrt(weights)

    init = dict(init or {})
    # the exponential decays from x0, which shifts x and is not fitted
    offset = init.pop("x0", 0.0) if kind == "exponential" else 0.0
    guess = _initial_guesses(kind, x, y, weights, init)
    x = x - offset

    starts = [guess]
    if kind == "recapture" and not init:
        starts += [dict(guess, t_d=guess["t_d"] * fd, t_c=guess["t_c"] * fc)
                   for fd in (0.5, 1.0, 2.0) for fc in (0.3, 1.0, 3.0)]

    def jacobian(p):
        return sqrt_w[:, None] * model_jac(x, p)

    def solve(start, free=slice(None)):
        """(p, cost, weighted residuals, converged) from ``start``, fitting p[free]."""
        def cost(q):
            p = start.copy()
            p[free] = q
            resid = sqrt_w * (func(x, p) - y)
            return 0.5 * float(resid @ resid), resid, p

        def derivatives(q, res):
            jac = jacobian(res[2])[:, free]
            return res[1] @ jac, jac.T @ jac

        _, (f, resid, p), _, converged = _damped_minimize(cost, derivatives, start[free])
        return p, f, resid, converged

    best = min((solve(np.array([s[n] for n in names], dtype=float)) for s in starts),
               key=lambda res: res[1])  # the first of equal costs

    if kind == "recapture":
        if best[0][4] < 0:  # t_c < 0: the mirror branch
            best = solve(_recapture_mirror(best[0]))
        # t0 may sit on a kink with the rest short of their optimum
        held = solve(best[0], np.array(names) != "t0")
        best = held[:3] + (best[3] and held[3],)

    p, _, resid, converged = best
    red_chi2, errs, _ = _errors(jacobian(p), resid)
    params = dict(zip(names, (float(v) for v in p)))
    std = dict(zip(names, (float(e) for e in errs)))
    if kind == "exponential":
        params["x0"], std["x0"] = float(offset), 0.0
    return FitResult(kind, params, std, red_chi2, converged)


def _power_law_fit(x, y, weights):
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValidationError("power-law fit needs strictly positive x and y")
    coef, design, resid = _linear_fit(np.column_stack([np.log(x), np.ones_like(x)]),
                                      np.log(y), np.sqrt(weights))
    red_chi2, errs, _ = _errors(design, resid)
    return FitResult("power_law", {"s": float(coef[0]), "b": float(coef[1])},
                     {"s": float(errs[0]), "b": float(errs[1])}, red_chi2, True)


def fit_model(kind, x, y, weights=None, init=None):
    """Fit one of the five analysis models to (x, y) data.

    ``weights`` multiply squared residuals (default uniform); ``init``
    overrides individual starting parameters by name, and for the
    exponential also sets the offset ``x0``. ``power_law`` takes no
    ``init``. Returns a FitResult; converged=False carries the best
    parameters found.
    """
    require_finite(**(init or {}))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    require_finite(x=x, y=y)
    if len(x) == 0 or np.all(x == x[0]):
        raise ValidationError("degenerate x data: all abscissae equal")
    if kind == "power_law":
        n_params, settable = 2, ()
    elif kind in _MODELS:
        names = _MODELS[kind][2]
        n_params, settable = len(names), names + (("x0",) if kind == "exponential" else ())
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    unknown = sorted(set(init or {}) - set(settable))
    if unknown:
        raise ValidationError(f"{kind} fit has no parameter {', '.join(unknown)} to set")
    if len(x) < n_params + 1:
        raise ValidationError(f"{kind} fit needs at least {n_params + 1} points")
    if weights is None:
        weights = np.ones_like(y)
    else:
        weights = np.asarray(weights, dtype=float)
        require_finite(weights=weights)
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
    (fss, fit) with fss the peak-to-peak amplitude 2A. The std errors of
    (y0, A, phase) come from ``_errors`` on the curve's Jacobian in those
    three. Angles that do not resolve the harmonic (angles k*pi/4 at
    harmonic 4, where the sine term is ~0) raise ValidationError.
    """
    angles = np.asarray(angles, dtype=float)
    energies = np.asarray(peak_energies, dtype=float)
    if angles.shape != energies.shape or angles.ndim != 1:
        raise ValidationError("angles and energies must be 1-d arrays of equal length")
    require_finite(angles=angles, energies=energies, harmonic=harmonic)
    if harmonic == 0:  # the sine column of the design would be all zeros
        raise ValidationError("harmonic must be nonzero")
    if len(angles) < 8:
        raise ValidationError("need at least 8 angular samples")
    if angles.max() - angles.min() < np.pi - 1e-9:
        raise ValidationError("angles must span at least half a rotation (pi)")

    design = _sinusoid_design(harmonic * angles)
    if np.linalg.matrix_rank(design) < 3:
        raise ValidationError(f"these angles do not resolve harmonic {harmonic}")
    (y0, a, b), _, resid = _linear_fit(design, energies, np.ones_like(angles))
    amp, phase = float(np.hypot(a, b)), float(np.arctan2(b, a))
    # the curve's Jacobian in (y0, A, phi0): the sinusoid's at P = 2*pi/harmonic
    jac = _sinusoid_jac(angles, (y0, amp, 2.0 * np.pi / harmonic, phase))[:, [0, 1, 3]]
    red_chi2, errs, _ = _errors(jac, resid)
    y0_err, amp_err, phase_err = map(float, errs)
    fss = 2.0 * amp
    fit = FitResult(
        "fss_sinusoid",
        {"y0": float(y0), "amplitude": amp, "phase": phase, "fss": fss},
        {"y0": y0_err, "amplitude": amp_err, "phase": phase_err, "fss": 2.0 * amp_err},
        red_chi2,
        True,
    )
    return fss, fit


def fss_from_period(period):
    """Splitting (ueV) whose phase oscillation has the given period (ps)."""
    require_finite(period=period)
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
    require_finite(measured_cps=measured_cps, setup_eff=setup_eff,
                   detector_eff=detector_eff, rep_rate_mhz=rep_rate_mhz)
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
