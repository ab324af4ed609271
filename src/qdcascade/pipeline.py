"""High-level commands wiring simulation, reconstruction and reporting.

Every command is a plain function over a RunConfig so the CLI stays a
thin argument parser; the CLI's analyze subcommands need no config and
call the correlation and fitting functions themselves. Outputs are
deterministic for a fixed config and seed: stable key ordering, bins
sorted by start time and floats in the report rounded to 12
significant digits.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np

from . import io as qio
from .config import RunConfig
from .correlations import Histogram, cross_correlate
from .errors import FitError, ValidationError, require_finite
from .fitting import fit_model
from .polarization import tomography_bases
from .pool import parallel_map
from .quantum import PHI_PLUS, concurrence, fidelity, rho_to_dict
from .simulate import simulate_projection_run
from .streams import FORMATS, export_stream, import_stream
from .tomography import bootstrap_metrics, time_binned_tomography
from .version import __version__


def _child_seed(seed, index):
    return index if seed is None else [int(seed), index]


def cmd_simulate(config: RunConfig, out_dir=None, include_truth=False):
    """Generate per-projection stream pairs plus a manifest.

    One projection run per basis pair of the configured set, each with
    its own child seed derived from the run seed, so reruns with the same
    config are byte-identical. The runs go to the package's shared thread
    pool (``pool.parallel_map``); a call made on a pool thread runs them
    itself.
    """
    out_dir = out_dir or config.io.output_dir
    sim = config.simulation
    fmt = config.io.formats[0]
    ext = FORMATS[fmt]
    streams_dir = os.path.join(out_dir, "streams")
    os.makedirs(streams_dir, exist_ok=True)

    def run(indexed_basis):
        index, (label, a, b) = indexed_basis
        xx, x = simulate_projection_run(
            config.emitter, (a, b), sim.n_pulses, _child_seed(sim.seed, index)
        )
        xx_rel = f"streams/{label}_xx.{ext}"
        x_rel = f"streams/{label}_x.{ext}"
        export_stream(xx, os.path.join(out_dir, xx_rel), fmt, include_truth)
        export_stream(x, os.path.join(out_dir, x_rel), fmt, include_truth)
        return {
            "basis": label,
            "xx_file": xx_rel,
            "x_file": x_rel,
            "xx_records": len(xx),
            "x_records": len(x),
        }

    bases = tomography_bases(config.tomography.basis_count)
    files = parallel_map(run, enumerate(bases))

    manifest = {
        "toolkit_version": __version__,
        "config": config.to_dict(),
        "basis_count": config.tomography.basis_count,
        "files": files,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    qio.dump_json(manifest, manifest_path, digits=12)
    return manifest_path


def _is_records(value, keys=(), strings=()):
    """True when ``value`` is a list of JSON objects that each hold ``keys``
    and a string at each of ``strings``."""
    return isinstance(value, list) and all(
        isinstance(e, dict) and all(k in e for k in keys)
        and all(isinstance(e.get(k), str) for k in strings) for e in value)


def _histograms_from_manifest(manifest_path, config: RunConfig):
    base = os.path.dirname(os.path.abspath(manifest_path))
    manifest = qio.read_json(manifest_path)
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not _is_records(files, strings=("basis", "xx_file", "x_file")):
        raise ValidationError(f"{manifest_path}: expected an object whose 'files' list holds "
                              "objects with string basis, xx_file and x_file")
    by_basis = {entry["basis"]: entry for entry in files}
    expected = [label for label, _, _ in tomography_bases(config.tomography.basis_count)]
    missing = [label for label in expected if label not in by_basis]
    if missing:
        raise ValidationError(f"manifest is missing basis pair(s): {', '.join(missing)}")

    width = config.tomography.bin_width_ps
    n_pos = int(round(config.tomography.max_delay_ps / width))
    if n_pos < 1:
        raise ValidationError("max_delay_ps must cover at least one bin")

    def correlate(label):
        entry = by_basis[label]
        xx = import_stream(os.path.join(base, entry["xx_file"]))
        x = import_stream(os.path.join(base, entry["x_file"]))
        full = cross_correlate(xx, x, width, n_pos * width)
        return Histogram(width, 0.0, full.counts[n_pos:])

    return dict(zip(expected, parallel_map(correlate, expected)))


def metrics(rho):
    """The numbers a bin reports: Phi+ fidelity and concurrence of its corrected rho."""
    return fidelity(rho, PHI_PLUS), concurrence(rho)


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
    tomo_cfg = config.tomography

    weights, extra_outputs = {}, []
    if manifest:
        histograms = _histograms_from_manifest(manifest, config)
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
    # the output tree is made only once the input has been read and checked
    os.makedirs(os.path.join(out_dir, "bins"), exist_ok=True)
    if manifest:
        os.makedirs(os.path.join(out_dir, "histograms"), exist_ok=True)
        for label in sorted(histograms):
            rel = f"histograms/{label}.csv"
            qio.write_histogram_csv(histograms[label], os.path.join(out_dir, rel))
            extra_outputs.append(rel)
    tomo = time_binned_tomography(histograms, min_counts=tomo_cfg.min_counts_per_bin,
                                  weights=weights)
    skipped = [
        {"bin_start_ps": s.bin_start, "bin_width_ps": s.bin_width,
         "total_counts": s.total_counts}
        for s in tomo.skipped
    ]

    correction = tomo_cfg.correction
    bins = []
    for k, b in enumerate(tomo.bins):
        rho = correction.apply(b.result.rho)
        fid, conc = metrics(rho)
        fid_std = conc_std = None
        if tomo_cfg.bootstrap_samples >= 2:
            boot_seed = (config.simulation.seed or 0) + 7000 + k
            fid_boot, conc_boot = bootstrap_metrics(
                b.input, tomo_cfg.bootstrap_samples,
                lambda resampled: metrics(correction.apply(resampled)), seed=boot_seed)
            fid_std, conc_std = fid_boot.std, conc_boot.std
        rel = f"bins/bin_{k:04d}.json"
        record = {  # the keys that the bin file and the report bin share
            "bin_start_ps": b.bin_start,
            "bin_width_ps": b.bin_width,
            "fidelity": fid,
            "concurrence": conc,
            "fidelity_std": fid_std,
            "concurrence_std": conc_std,
            "converged": b.result.converged,
        }
        qio.dump_json({**record, "rho": rho_to_dict(rho)}, os.path.join(out_dir, rel))
        bins.append({**record, "total_counts": b.total_counts,
                     "iterations": b.result.iterations, "rho_file": rel})

    meta = {
        "toolkit_version": __version__,
        "config": config.to_dict(),
        "bins": bins,
        "skipped_bins": skipped,
        "extra_outputs": sorted(extra_outputs),
    }
    qio.dump_json(meta, os.path.join(out_dir, "tomo_meta.json"))
    return _write_report(meta, out_dir)


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
            report["fits"]["fidelity_oscillation"] = asdict(fit)
        except (FitError, ValidationError):
            report["fits"]["fidelity_oscillation"] = None
    return report


#: Columns of metrics_vs_time.csv, one row per report bin.
_METRICS_COLUMNS = ("bin_start_ps", "bin_width_ps", "total_counts", "fidelity",
                    "fidelity_std", "concurrence", "concurrence_std", "converged")


def _write_report(meta, out_dir):
    """Build the report from ``meta`` and write report.json and metrics_vs_time.csv."""
    report = build_report(meta)
    with open(os.path.join(out_dir, "metrics_vs_time.csv"), "w") as fh:
        fh.write(",".join(_METRICS_COLUMNS) + "\n")
        for b in report["bins"]:
            fh.write(",".join(_csv_cell(b[k]) for k in _METRICS_COLUMNS) + "\n")
    qio.dump_json(report, os.path.join(out_dir, "report.json"), digits=12)
    return report


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
    meta = qio.read_json(meta_path)
    if not (isinstance(meta, dict) and {"toolkit_version", "config"} <= meta.keys()
            and _is_records(meta.get("bins"), _METRICS_COLUMNS, strings=("rho_file",))
            and isinstance(meta.get("skipped_bins"), list)
            and isinstance(extra := meta.get("extra_outputs", []), list)
            and all(isinstance(name, str) for name in extra)):
        raise ValidationError(f"{meta_path}: expected an object with toolkit_version, config, "
                              "a 'bins' list of bin objects with a string rho_file, a "
                              "'skipped_bins' list and any 'extra_outputs' as strings")
    for i, b in enumerate(meta["bins"]):
        # a single-set bin written before bins carried a time bin has a null start and width
        keys = ("fidelity", "concurrence") + (
            () if b["bin_start_ps"] is None else ("bin_start_ps", "bin_width_ps"))
        require_finite(**{f"{meta_path}: bins[{i}].{key}": b[key] for key in keys})
    return _write_report(meta, run_dir)

