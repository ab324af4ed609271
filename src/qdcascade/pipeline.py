"""High-level commands wiring simulation, reconstruction and reporting.

Every command is a plain function over a RunConfig so the CLI stays a
thin argument parser. Outputs are deterministic for a fixed config and
seed: stable key ordering, bins sorted by start time and floats in the
report rounded to 12 significant digits.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from . import io as qio
from .config import RunConfig
from .correlations import Histogram, cross_correlate, g2_zero
from .errors import ValidationError
from .fitting import (first_lens_rate, fit_model, fss_from_peak_positions,
                      fss_from_period, poisson_weights)
from .polarization import CorrectionUnitary, apply_correction, tomography_bases
from .quantum import PHI_PLUS, concurrence, fidelity, rho_to_dict
from .simulate import simulate_projection_run
from .streams import export_stream, import_stream
from .tomography import bootstrap_metrics, time_binned_tomography
from .version import __version__

_STREAM_EXT = {"binary": "ctts", "csv": "csv"}


def _child_seed(seed, index):
    return index if seed is None else [int(seed), index]


def cmd_simulate(config: RunConfig, out_dir=None, include_truth=False):
    """Generate per-projection stream pairs plus a manifest.

    One projection run per basis pair of the configured set, each with
    its own child seed derived from the run seed, so reruns with the
    same config are byte-identical.
    """
    out_dir = out_dir or config.io.output_dir
    sim = config.simulation
    fmt = config.io.formats[0]
    ext = _STREAM_EXT[fmt]
    streams_dir = os.path.join(out_dir, "streams")
    os.makedirs(streams_dir, exist_ok=True)

    bases = tomography_bases(config.tomography.basis_count)
    files = []
    for index, (label, a, b) in enumerate(bases):
        xx, x = simulate_projection_run(
            config.emitter, (a, b), sim.n_pulses, _child_seed(sim.seed, index)
        )
        xx_rel = f"streams/{label}_xx.{ext}"
        x_rel = f"streams/{label}_x.{ext}"
        export_stream(xx, os.path.join(out_dir, xx_rel), fmt, include_truth)
        export_stream(x, os.path.join(out_dir, x_rel), fmt, include_truth)
        files.append(
            {
                "basis": label,
                "xx_file": xx_rel,
                "x_file": x_rel,
                "xx_records": len(xx),
                "x_records": len(x),
            }
        )

    manifest = {
        "toolkit_version": __version__,
        "config": config.to_dict(),
        "basis_count": config.tomography.basis_count,
        "files": files,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    qio.dump_json(manifest, manifest_path, digits=12)
    return manifest_path


def _histograms_from_manifest(manifest_path, config: RunConfig):
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    by_basis = {entry["basis"]: entry for entry in manifest.get("files", [])}
    expected = [label for label, _, _ in tomography_bases(config.tomography.basis_count)]
    missing = [label for label in expected if label not in by_basis]
    if missing:
        raise ValidationError(f"manifest is missing basis pair(s): {', '.join(missing)}")

    width = config.tomography.bin_width_ps
    n_pos = int(round(config.tomography.max_delay_ps / width))
    if n_pos < 1:
        raise ValidationError("max_delay_ps must cover at least one bin")
    histograms = {}
    for label in expected:
        entry = by_basis[label]
        xx = import_stream(os.path.join(base, entry["xx_file"]))
        x = import_stream(os.path.join(base, entry["x_file"]))
        full = cross_correlate(xx, x, width, n_pos * width)
        histograms[label] = Histogram(width, 0.0, full.counts[n_pos:])
    return histograms


def _bin_metrics(result, correction, arms, target):
    rho = apply_correction(result.rho, correction, arms)
    return rho, fidelity(rho, target), concurrence(rho)


def cmd_tomo(config: RunConfig, manifest=None, counts_csv=None, binned_csv=None,
             out_dir=None):
    """Reconstruct per-time-bin states and write the analysis report.

    Exactly one input source is used: a simulation manifest (streams are
    correlated into per-pair delay histograms), a binned-counts CSV, or
    a single-set projection CSV (one bin over [0, max_delay_ps)). Writes
    report.json, per-bin density matrices, and plot-ready CSV data;
    returns the report dict.
    """
    sources = [s for s in (manifest, counts_csv, binned_csv) if s]
    if len(sources) != 1:
        raise ValidationError("exactly one of manifest, counts_csv or binned_csv is required")
    out_dir = out_dir or config.io.output_dir
    os.makedirs(os.path.join(out_dir, "bins"), exist_ok=True)

    tomo_cfg = config.tomography
    correction = CorrectionUnitary(tomo_cfg.correction.theta, tomo_cfg.correction.phi)
    arms = tomo_cfg.correction.arms
    target = PHI_PLUS

    weights, extra_outputs = {}, []
    if manifest:
        histograms = _histograms_from_manifest(manifest, config)
        os.makedirs(os.path.join(out_dir, "histograms"), exist_ok=True)
        for label in sorted(histograms):
            rel = f"histograms/{label}.csv"
            qio.write_histogram_csv(histograms[label], os.path.join(out_dir, rel))
            extra_outputs.append(rel)
    elif binned_csv:
        histograms = qio.read_binned_csv(binned_csv)
    else:  # a single projection set is one bin over [0, max_delay_ps)
        records = qio.read_projection_csv(counts_csv).records
        histograms = {r.basis_pair: Histogram(tomo_cfg.max_delay_ps, 0.0, np.array([r.counts]))
                      for r in records}
        weights = {r.basis_pair: r.acquisition_weight for r in records}
    if len(histograms) != tomo_cfg.basis_count:
        raise ValidationError(
            f"input has {len(histograms)} basis pairs, config expects {tomo_cfg.basis_count}"
        )
    tomo = time_binned_tomography(histograms, min_counts=tomo_cfg.min_counts_per_bin,
                                  weights=weights)
    skipped = [
        {"bin_start_ps": s.bin_start, "bin_width_ps": s.bin_width,
         "total_counts": s.total_counts}
        for s in tomo.skipped
    ]

    bins = []
    for k, b in enumerate(tomo.bins):
        result = b.result
        rho, fid, conc = _bin_metrics(result, correction, arms, target)
        fid_std = conc_std = None
        if tomo_cfg.bootstrap_samples >= 2:
            transform = lambda r: apply_correction(r, correction, arms)
            boot_seed = (config.simulation.seed or 0) + 7000 + k
            boot = bootstrap_metrics(
                b.input, tomo_cfg.bootstrap_samples, ("fidelity", "concurrence"),
                target=target, seed=boot_seed, transform=transform,
            )
            fid_std, conc_std = boot["fidelity"].std, boot["concurrence"].std
        rel = f"bins/bin_{k:04d}.json"
        qio.dump_json(
            {
                "bin_start_ps": b.bin_start,
                "bin_width_ps": b.bin_width,
                "rho": rho_to_dict(rho),
                "fidelity": fid,
                "concurrence": conc,
                "fidelity_std": fid_std,
                "concurrence_std": conc_std,
                "converged": result.converged,
            },
            os.path.join(out_dir, rel),
        )
        bins.append(
            {
                "bin_start_ps": b.bin_start,
                "bin_width_ps": b.bin_width,
                "total_counts": b.total_counts,
                "fidelity": fid,
                "concurrence": conc,
                "fidelity_std": fid_std,
                "concurrence_std": conc_std,
                "converged": result.converged,
                "iterations": result.iterations,
                "rho_file": rel,
            }
        )

    meta = {
        "toolkit_version": __version__,
        "config": config.to_dict(),
        "bins": bins,
        "skipped_bins": skipped,
        "extra_outputs": sorted(extra_outputs),
    }
    qio.dump_json(meta, os.path.join(out_dir, "tomo_meta.json"))
    report = build_report(meta)
    _write_report_files(report, bins, out_dir)
    return report


def build_report(meta):
    """Assemble the report dict from the per-run metadata (pure function)."""
    bins = sorted(
        meta["bins"],
        key=lambda b: (b["bin_start_ps"] is not None, b["bin_start_ps"] or 0.0),
    )
    report = {
        "toolkit_version": meta["toolkit_version"],
        "config": meta["config"],
        "target_state": "phi_plus",
        "bins": bins,
        "skipped_bins": meta["skipped_bins"],
        "max_fidelity": None,
        "max_concurrence": None,
        "fits": {"fidelity_oscillation": None},
        "outputs": sorted(
            [b["rho_file"] for b in bins]
            + list(meta.get("extra_outputs", []))
            + ["metrics_vs_time.csv", "report.json", "tomo_meta.json"]
        ),
    }
    if bins:
        best_f = max(bins, key=lambda b: b["fidelity"])
        best_c = max(bins, key=lambda b: b["concurrence"])
        report["max_fidelity"] = {
            "value": best_f["fidelity"],
            "std": best_f["fidelity_std"],
            "bin_start_ps": best_f["bin_start_ps"],
        }
        report["max_concurrence"] = {
            "value": best_c["concurrence"],
            "std": best_c["concurrence_std"],
            "bin_start_ps": best_c["bin_start_ps"],
        }
    timed = [b for b in bins if b["bin_start_ps"] is not None]
    if len(timed) >= 8:
        x = np.array([b["bin_start_ps"] + 0.5 * b["bin_width_ps"] for b in timed])
        y = np.array([b["fidelity"] for b in timed])
        try:
            fit = fit_model("sinusoid", x, y)
            report["fits"]["fidelity_oscillation"] = qio.fit_result_dict(fit)
        except Exception:
            report["fits"]["fidelity_oscillation"] = None
    return report


def _write_report_files(report, bins, out_dir):
    with open(os.path.join(out_dir, "metrics_vs_time.csv"), "w") as fh:
        fh.write(
            "bin_start_ps,bin_width_ps,total_counts,fidelity,fidelity_std,"
            "concurrence,concurrence_std,converged\n"
        )
        for b in report["bins"]:
            fh.write(
                ",".join(
                    _csv_cell(b[k])
                    for k in ("bin_start_ps", "bin_width_ps", "total_counts",
                              "fidelity", "fidelity_std", "concurrence",
                              "concurrence_std", "converged")
                )
                + "\n"
            )
    qio.dump_json(report, os.path.join(out_dir, "report.json"), digits=12)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{qio.round_sig(value, 12):.12g}"
    return str(value)


def cmd_report(run_dir):
    """Regenerate report.json from a previous tomo run's metadata."""
    meta_path = os.path.join(run_dir, "tomo_meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"no tomo metadata under {run_dir}: {exc}") from exc
    report = build_report(meta)
    _write_report_files(report, report["bins"], run_dir)
    return report


def analyze_g2(hist: Histogram, rep_period, n_side_peaks=5):
    result = g2_zero(hist, rep_period, n_side_peaks)
    return {
        "g2_zero": result.g2_zero,
        "window_delta": result.window_delta,
        "side_peak_fwhm": result.side_peak_fwhm,
    }


def analyze_lifetime(hist: Histogram, x0=None):
    """Exponential tail fit of a decay histogram (Poisson weights)."""
    x = hist.bin_centers
    y = np.asarray(hist.counts, dtype=float)
    if x0 is None:
        x0 = float(x[np.argmax(y)])
    sel = x >= x0
    fit = fit_model("exponential", x[sel], y[sel],
                    weights=poisson_weights(y[sel]), init={"x0": x0})
    return qio.fit_result_dict(fit)


def analyze_recapture(hist: Histogram, init=None):
    x = hist.bin_centers
    y = np.asarray(hist.counts, dtype=float)
    fit = fit_model("recapture", x, y, weights=poisson_weights(y), init=init)
    return qio.fit_result_dict(fit)


def analyze_power(x, y):
    return qio.fit_result_dict(fit_model("power_law", x, y))


def analyze_fss(angles, energies, harmonic=4):
    fss, fit = fss_from_peak_positions(angles, energies, harmonic=harmonic)
    return {"fss_uev": fss, "fit": qio.fit_result_dict(fit)}


def analyze_fss_period(period_ps):
    return {"period_ps": period_ps, "fss_uev": fss_from_period(period_ps)}


def analyze_efficiency(measured_cps, setup_eff, detector_eff, rep_rate_mhz):
    result = first_lens_rate(measured_cps, setup_eff, detector_eff, rep_rate_mhz)
    return asdict(result)
