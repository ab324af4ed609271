"""Command-line interface.

Subcommands: simulate, tomo, analyze (g2, lifetime, fss, fss-period,
recapture, power, efficiency) and report; analyze calls the fitting
and correlation functions directly. Exit codes: 0 success, 1 bad input
(invalid or unreadable), 2 computation failure. The environment variable
CASCADE_TOMO_SEED overrides the configured simulation seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import io as qio
from . import pipeline
from .config import load_config
from .correlations import g2_zero
from .errors import ComputationError, ParseError, ValidationError
from .fitting import (first_lens_rate, fit_model, fss_from_peak_positions,
                      fss_from_period, poisson_weights)
from .version import __version__


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qdcascade",
        description="Simulate and analyze entangled photon pairs from a "
                    "quantum-dot biexciton-exciton cascade.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate per-projection timestamp streams")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    p_sim.add_argument("--out", help="output directory (default: config io.output_dir)")
    p_sim.add_argument("--truth", action="store_true",
                       help="keep simulation-truth origin tags in exported streams")

    p_tomo = sub.add_parser("tomo", help="reconstruct density matrices and report")
    p_tomo.add_argument("--config", required=True)
    p_tomo.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    p_tomo.add_argument("--out")
    src = p_tomo.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", help="manifest.json from a simulate run")
    src.add_argument("--counts", help="single projection-set CSV (basis,counts,weight)")
    src.add_argument("--binned", help="time-binned CSV (basis,bin_start_ps,counts)")

    p_an = sub.add_parser("analyze", help="curve fits and derived quantities")
    an_sub = p_an.add_subparsers(dest="kind", required=True)

    g2 = an_sub.add_parser("g2")
    g2.add_argument("--histogram", required=True, help="CSV bin_start_ps,counts")
    g2.add_argument("--rep-period", type=float, required=True)
    g2.add_argument("--n-side", type=int, default=5)

    lt = an_sub.add_parser("lifetime")
    lt.add_argument("--histogram", required=True)
    lt.add_argument("--x0", type=float, help="decay start (default: histogram peak)")

    fss = an_sub.add_parser("fss")
    fss.add_argument("--data", required=True, help="CSV angle_rad,energy_uev")
    fss.add_argument("--harmonic", type=int, default=4)

    fssp = an_sub.add_parser("fss-period")
    fssp.add_argument("period_ps", type=float)

    rec = an_sub.add_parser("recapture")
    rec.add_argument("--histogram", required=True)

    pw = an_sub.add_parser("power")
    pw.add_argument("--data", required=True, help="CSV x,y (positive values)")

    eff = an_sub.add_parser("efficiency")
    eff.add_argument("--measured-cps", type=float, required=True)
    eff.add_argument("--setup-eff", type=float, required=True)
    eff.add_argument("--detector-eff", type=float, required=True)
    eff.add_argument("--rep-rate", type=float, required=True)

    for p in (g2, lt, fss, fssp, rec, pw, eff):
        p.add_argument("--out", help="write the result JSON here as well")

    p_rep = sub.add_parser("report", help="regenerate report.json for a tomo run")
    p_rep.add_argument("--dir", required=True)
    return parser


def _read_xy_csv(path):
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ValidationError(f"{path}: expected two CSV columns")
    return data[:, 0], data[:, 1]


def _emit(result, out_path):
    text = json.dumps(qio.round_floats(result, 12), indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _run_analyze(args):
    if args.kind == "g2":
        hist = qio.read_histogram_csv(args.histogram)
        return asdict(g2_zero(hist, args.rep_period, args.n_side))
    if args.kind == "lifetime":  # exponential tail fit from x0 (default: the peak)
        hist = qio.read_histogram_csv(args.histogram)
        x, y = hist.bin_centers, np.asarray(hist.counts, dtype=float)
        x0 = float(x[np.argmax(y)]) if args.x0 is None else args.x0
        sel = x >= x0
        return asdict(fit_model("exponential", x[sel], y[sel],
                                weights=poisson_weights(y[sel]), init={"x0": x0}))
    if args.kind == "recapture":
        hist = qio.read_histogram_csv(args.histogram)
        y = np.asarray(hist.counts, dtype=float)
        return asdict(fit_model("recapture", hist.bin_centers, y, weights=poisson_weights(y)))
    if args.kind == "fss":
        angles, energies = _read_xy_csv(args.data)
        fss, fit = fss_from_peak_positions(angles, energies, harmonic=args.harmonic)
        return {"fss_uev": fss, "fit": asdict(fit)}
    if args.kind == "fss-period":
        return {"period_ps": args.period_ps, "fss_uev": fss_from_period(args.period_ps)}
    if args.kind == "power":
        return asdict(fit_model("power_law", *_read_xy_csv(args.data)))
    if args.kind == "efficiency":
        return asdict(first_lens_rate(args.measured_cps, args.setup_eff,
                                      args.detector_eff, args.rep_rate))
    raise ValidationError(f"unknown analyze kind {args.kind!r}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = load_config(args.config, args.overrides)
            manifest = pipeline.cmd_simulate(config, args.out, include_truth=args.truth)
            print(f"wrote {manifest}")
        elif args.command == "tomo":
            config = load_config(args.config, args.overrides)
            report = pipeline.cmd_tomo(
                config,
                manifest=args.manifest,
                counts_csv=args.counts,
                binned_csv=args.binned,
                out_dir=args.out,
            )
            best = report["max_fidelity"]
            if best is not None:
                print(f"max fidelity {best['value']:.4f} at bin {best['bin_start_ps']}")
            print(f"{len(report['bins'])} bins reconstructed, "
                  f"{len(report['skipped_bins'])} skipped")
        elif args.command == "analyze":
            _emit(_run_analyze(args), args.out)
        elif args.command == "report":
            report = pipeline.cmd_report(args.dir)
            print(f"report rebuilt: {len(report['bins'])} bins")
        else:  # pragma: no cover - argparse enforces choices
            raise ValidationError(f"unknown command {args.command!r}")
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
