"""CSV and JSON readers/writers for analysis inputs and outputs."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .correlations import Histogram
from .errors import ParseError, ValidationError
from .fitting import FitResult
from .tomography import ProjectionRecord, TomographyInput


def round_sig(value, digits=12):
    """Round a float to a fixed number of significant digits."""
    if isinstance(value, float):
        if not np.isfinite(value):
            return value
        return float(f"{value:.{digits}g}")
    return value


def round_floats(obj, digits=12):
    """Recursively round every float in a JSON-style structure."""
    if isinstance(obj, dict):
        return {k: round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, digits) for v in obj]
    return round_sig(obj, digits)


def dump_json(obj, path, digits=None):
    """Write JSON with sorted keys and an optional fixed float precision."""
    if digits is not None:
        obj = round_floats(obj, digits)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_projection_csv(input: TomographyInput, path):
    """Write `basis,counts,weight` rows; ``:.17g`` reads back bit for bit."""
    with open(path, "w") as fh:
        fh.write("basis,counts,weight\n")
        for rec in input.records:
            fh.write(f"{rec.basis_pair},{rec.counts:.17g},{rec.acquisition_weight:.17g}\n")


def read_projection_csv(path) -> TomographyInput:
    """Read `basis,counts,weight` rows into a TomographyInput."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["basis", "counts"]:
            raise ParseError(f"{path}: bad header {header!r}")
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                basis = parts[0].strip()
                counts = float(parts[1])
                weight = float(parts[2]) if len(parts) > 2 else 1.0
                records.append(ProjectionRecord(basis, counts, weight))
            except (IndexError, ValueError, ValidationError) as exc:
                raise ParseError(f"{path}: {exc}", record_index=i) from exc
    return TomographyInput(tuple(records))


def write_binned_csv(histograms, path):
    """Write per-pair binned counts as `basis,bin_start_ps,counts` rows."""
    with open(path, "w") as fh:
        fh.write("basis,bin_start_ps,counts\n")
        for basis in sorted(histograms):
            h = histograms[basis]
            for start, c in zip(h.bin_starts, h.counts):
                fh.write(f"{basis},{start:g},{int(c)}\n")


def read_binned_csv(path):
    """Read `basis,bin_start_ps,counts` into {basis: Histogram}.

    All series must share the same uniform bin grid; the bin width is
    inferred from the grid spacing.
    """
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != ["basis", "bin_start_ps", "counts"]:
            raise ParseError(f"{path}: bad header {header!r}")
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                basis, start, counts = line.split(",")
                rows.setdefault(basis, []).append((float(start), float(counts)))
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", record_index=i) from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")

    starts = None
    for basis, pairs in rows.items():
        pairs.sort()
        s = np.array([p[0] for p in pairs])
        if starts is None:
            starts = s
        elif len(s) != len(starts) or np.any(s != starts):
            raise ValidationError(f"{path}: bin grid for {basis} differs from the rest")
    if len(starts) < 2:
        raise ValidationError(f"{path}: need at least two bins to infer the bin width")
    widths = np.diff(starts)
    if np.any(np.abs(widths - widths[0]) > 1e-9 * abs(widths[0])):
        raise ValidationError(f"{path}: bin grid is not uniform")
    width = float(widths[0])
    return {
        basis: Histogram(width, float(starts[0]), np.array([p[1] for p in pairs]))
        for basis, pairs in rows.items()
    }


def write_histogram_csv(hist: Histogram, path):
    with open(path, "w") as fh:
        fh.write("bin_start_ps,counts\n")
        for start, c in zip(hist.bin_starts, hist.counts):
            fh.write(f"{start:g},{int(c)}\n")


def read_histogram_csv(path) -> Histogram:
    starts, counts = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != ["bin_start_ps", "counts"]:
            raise ParseError(f"{path}: bad header {header!r}")
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                s, c = line.split(",")
                starts.append(float(s))
                counts.append(float(c))
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", record_index=i) from exc
    if len(starts) < 2:
        raise ValidationError(f"{path}: need at least two bins")
    starts = np.array(starts)
    widths = np.diff(starts)
    if np.any(np.abs(widths - widths[0]) > 1e-9 * abs(widths[0])):
        raise ValidationError(f"{path}: bin grid is not uniform")
    return Histogram(float(widths[0]), float(starts[0]), np.array(counts))


def fit_result_dict(fit: FitResult):
    return asdict(fit)
