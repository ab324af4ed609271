"""The two benchmark workloads, their inputs and their correctness gates.

Each workload is built from the seed alone, generates its inputs before
any timing starts, and runs one repetition through the same public
entry points the CLI and the study scripts call. Module attributes are
looked up at call time (``pipeline.cmd_tomo``, not a name imported
here), so the tracer's replacements see every call.

* ``closed_loop``: the acceptance configuration, 36 x 1,000,000 pulses
  through ``cmd_simulate`` then ``cmd_tomo``; it touches every layer.
* ``g2_recapture``: a scan of Hanbury Brown-Twiss runs (X with
  background, XX with recapture) correlated over +-5.5 periods, then
  ``g2_zero`` and, for XX, the recapture fit; it never reaches
  ``tomography``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from layers import fit_failed

#: Output directory recorded in the configs. The files go to the directory
#: passed to ``run``, so report.json does not depend on where the run happens.
OUTPUT_DIR = "out"

#: Histogram bin of the g2 procedure, as in the autocorrelation study script.
G2_BIN_PS = 50.0


@dataclass
class Rep:
    """What one repetition produced: timings, outputs and operation counts."""

    timings: dict
    sha256: str
    checks: list
    ops: int
    failed: int


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check(checks, name, ok, detail):
    checks.append((name, bool(ok), detail))


def _oscillation(report):
    """Ops and failures of the report's fidelity-oscillation fit."""
    timed = [b for b in report["bins"] if b["bin_start_ps"] is not None]
    if len(timed) < 8:  # build_report does not attempt the fit
        return 0, 0
    osc = report["fits"]["fidelity_oscillation"]
    return 1, int(osc is None or not osc["converged"])


class ClosedLoop:
    name = "closed_loop"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n_pulses = 40_000 if tiny else 1_000_000
        self.max_delay = 1500.0 if tiny else 6000.0

    def config_dict(self):
        return {
            "emitter": {"fss": 4.65, "tau_x": 1610.0, "tau_xx": 1100.0, "rep_rate": 80.0},
            "tomography": {"basis_count": 36, "bin_width_ps": 100.0,
                           "min_counts_per_bin": 100, "max_delay_ps": self.max_delay},
            "simulation": {"n_pulses": self.n_pulses, "seed": self.seed},
            "io": {"output_dir": OUTPUT_DIR, "formats": ["binary"]},
        }

    def prepare(self, work_dir):
        pass

    def planned_ops(self):
        return int(round(self.max_delay / 100.0)) + 1

    def run(self, out_dir, tracer):
        from qdcascade import pipeline
        from qdcascade.config import RunConfig

        config = RunConfig.from_dict(self.config_dict())
        t0 = time.perf_counter()
        manifest = pipeline.cmd_simulate(config, out_dir=out_dir)
        t1 = time.perf_counter()
        report = pipeline.cmd_tomo(config, manifest=manifest, out_dir=out_dir)
        t2 = time.perf_counter()
        timings = {"wall_s": t2 - t0, "simulate_s": t1 - t0, "tomo_s": t2 - t1}

        checks = []
        osc_ops, osc_failed = _oscillation(report)
        bins = report["bins"]
        nonconverged = sum(not b["converged"] for b in bins)
        osc = report["fits"]["fidelity_oscillation"]
        period = abs(osc["params"]["P"]) if osc else float("nan")
        _check(checks, "oscillation period", abs(period - 890.0) <= 20.0,
               f"|P| = {period:.1f} ps, want 890 +- 20")
        best = report["max_fidelity"]["value"] if report["max_fidelity"] else float("nan")
        _check(checks, "max fidelity", best >= 0.95, f"{best:.4f}, want >= 0.95")
        populated = [b for b in bins if b["total_counts"] >= 1000]
        worst = min((b["concurrence"] for b in populated), default=float("nan"))
        _check(checks, "populated bins", len(populated) >= 30,
               f"{len(populated)} bins with >= 1000 counts, want >= 30")
        _check(checks, "concurrence", worst >= 0.9,
               f"lowest {worst:.4f} over bins with >= 1000 counts, want >= 0.9")
        return Rep(timings, sha256_of(os.path.join(out_dir, "report.json")), checks,
                   ops=len(bins) + osc_ops, failed=nonconverged + osc_failed)


class G2Recapture:
    """Autocorrelation scan in the shape of scripts/run_autocorrelation_study.py.

    X runs at three background rates and XX runs at three recapture
    probabilities around the acceptance targets (g2 0.024 and 0.38).
    """

    name = "g2_recapture"
    n_side = 5
    x_backgrounds = (2.75e5, 5.5e5, 1.1e6)
    xx_recaptures = (0.3, 0.36, 0.45)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n_pulses = 150_000 if tiny else 1_000_000
        if tiny:
            self.x_backgrounds, self.xx_recaptures = self.x_backgrounds[1:2], self.xx_recaptures[1:2]

    def config_dict(self):
        return {"emitter": {"background_rate": self.x_backgrounds[0]},
                "simulation": {"seed": self.seed}, "io": {"output_dir": OUTPUT_DIR}}

    def prepare(self, work_dir):
        from qdcascade.simulate import EmitterConfig

        self.scan = [("X", EmitterConfig(background_rate=bg)) for bg in self.x_backgrounds]
        self.scan += [("XX", EmitterConfig(recapture_probability=r)) for r in self.xx_recaptures]
        self.predicted = [predicted_g2(em, species, self.n_side) for species, em in self.scan]

    def planned_ops(self):
        return sum(2 * self.n_side + (species == "XX") for species, _ in self.scan)

    def run(self, out_dir, tracer):
        from qdcascade import correlations, fitting, simulate

        results = []
        t0 = time.perf_counter()
        for i, (species, em) in enumerate(self.scan):
            period = em.rep_period_ps
            a, b = simulate.simulate_autocorrelation_run(em, species, self.n_pulses,
                                                         [self.seed, i])
            hist = correlations.cross_correlate(a, b, G2_BIN_PS, (self.n_side + 0.5) * period)
            g2 = correlations.g2_zero(hist, period, self.n_side)
            row = {"species": species, "background_rate": em.background_rate,
                   "recapture_probability": em.recapture_probability,
                   "g2_zero": g2.g2_zero, "window_delta": g2.window_delta, "fit": None}
            if species == "XX":
                center = correlations.cross_correlate(a, b, 25.0, 4000.0)
                y = center.counts.astype(float)
                fit = fitting.fit_model("recapture", center.bin_centers, y,
                                        weights=fitting.poisson_weights(y))
                row["fit"] = {"params": fit.params, "converged": fit.converged,
                              "t_c_err": fit.std_errors["t_c"], "failed": fit_failed(fit)}
            results.append(row)
        path = os.path.join(out_dir, "g2_report.json")
        with open(path, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        timings = {"wall_s": time.perf_counter() - t0}

        checks = []
        for (species, em), row, predict in zip(self.scan, results, self.predicted):
            tol = 0.005 if species == "X" else 0.03
            expected = predict(row["window_delta"])
            label = (f"X bg {em.background_rate:g}" if species == "X"
                     else f"XX r {em.recapture_probability:g}")
            _check(checks, f"g2 {label}", abs(row["g2_zero"] - expected) <= tol,
                   f"{row['g2_zero']:.4f}, model {expected:.4f} +- {tol}")
            if row["fit"] is not None:
                _check(checks, f"recapture fit {label}", not row["fit"]["failed"],
                       f"t_c {row['fit']['params']['t_c']:.1f} +- {row['fit']['t_c_err']:.1f} ps, "
                       f"converged {row['fit']['converged']}")
        # one XX run at 1M pulses gives t_c to about +-25-40 ps, so the
        # criterion-5 tolerance applies to the inverse-variance mean of the scan
        fits = [(r["fit"]["params"]["t_c"], r["fit"]["t_c_err"]) for r in results
                if r["fit"] is not None and not r["fit"]["failed"] and r["fit"]["t_c_err"] > 0]
        if fits:
            w = [1.0 / e ** 2 for _, e in fits]
            t_c = sum(wi * v for wi, (v, _) in zip(w, fits)) / sum(w)
            want = self.scan[-1][1].recapture_time
            _check(checks, "t_c", abs(t_c - want) <= 55.0,
                   f"{t_c:.1f} +- {sum(w) ** -0.5:.1f} ps over {len(fits)} physical fits, "
                   f"want {want:g} +- 55")
        fits_failed = sum(bool(r["fit"] and r["fit"]["failed"]) for r in results)
        return Rep(timings, sha256_of(path), checks, ops=self.planned_ops(), failed=fits_failed)


def predicted_g2(em, species, n_side, n_samples=1_000_000):
    """Model g2(0) of a run, as a function of the counting window width.

    Independent of the simulator's code: photon times are drawn from the
    emission model in ``qdcascade.simulate``'s docstring and the window
    geometry follows the g2 procedure (50 ps bins whose centres lie
    within delta/2 of the peak, with the side peaks at multiples of the
    period). Signal-background and background-background accidentals
    are added analytically.
    """
    rng = np.random.default_rng(12345)
    period, eff = em.rep_period_ps, em.total_efficiency * em.excitation_fraction
    r = em.recapture_probability if species == "XX" else 0.0
    gate = em.tau_xx * em.recapture_time / (em.tau_xx + em.recapture_time)

    def photon_times(n):
        if species == "X":
            return rng.exponential(em.tau_xx, n) + rng.exponential(em.tau_x, n)
        first = rng.exponential(em.tau_xx, n)
        second = first + rng.exponential(em.tau_xx, n) + rng.exponential(gate, n)
        return np.where(rng.random(n) < r / (1.0 + r), second, first)

    # delay between photons of different pulses, and within one pulse
    cross = photon_times(n_samples) - photon_times(n_samples)
    inner = rng.exponential(em.tau_xx, n_samples) + rng.exponential(gate, n_samples)
    inner = np.concatenate([inner, -inner])
    per_channel = 0.5 * eff * (1.0 + r)
    beta = em.background_rate * 1e-12

    def frac(samples, lo, hi):
        return float(np.mean((samples >= lo) & (samples < hi)))

    def window_counts(center, delta):
        half_bins = math.floor((delta / 2.0 - G2_BIN_PS / 2.0) / G2_BIN_PS) + 1
        lo, hi = center - G2_BIN_PS * half_bins, center + G2_BIN_PS * half_bins
        m = round(center / period)
        signal = 0.0
        for k in (m - 1, m, m + 1):
            if k == 0:
                signal += 0.5 * r * eff * eff * frac(inner, lo, hi)
            else:
                signal += per_channel ** 2 * frac(cross, lo - k * period, hi - k * period)
        accidental = (hi - lo) * (2.0 * per_channel * beta + beta * beta * period)
        return signal + accidental

    def predict(delta):
        side = [window_counts(m * period, delta)
                for m in range(-n_side, n_side + 1) if m != 0]
        return window_counts(0.0, delta) / float(np.mean(side))

    return predict


WORKLOADS = {w.name: w for w in (ClosedLoop, G2Recapture)}
