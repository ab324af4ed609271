"""CSV and JSON readers/writers for analysis inputs and outputs: ``read_json``
reads every JSON file and ``_read_rows`` every CSV but a stream, naming
the path of a file that is missing, not UTF-8 or malformed. A row of a
table with a fixed header has exactly the header's fields, and a basis
label is read as written, so one padded with spaces names no pair."""

from __future__ import annotations

import json

import numpy as np

from .correlations import Histogram
from .errors import ParseError, ValidationError, require_finite
from .polarization import pair_projectors
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


def read_json(path):
    """The JSON document in ``path``; raises ValidationError if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _read_rows(path, columns, parse):
    """The non-blank rows of a CSV whose header is ``columns``, each through ``parse``.

    ``columns=None`` accepts any header. ``parse`` takes the row's
    comma-separated fields. A row it rejects (IndexError, ValueError or
    ValidationError) raises ParseError with the row's index among the
    lines after the header, as does a file with no data rows. A byte that
    is not UTF-8 reads as U+FFFD, which no header or number matches.
    """
    rows = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        if columns is not None and header.split(",") != list(columns):
            raise ParseError(f"{path}: bad header {header!r}")
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(parse(line.split(",")))
            except (IndexError, ValueError, ValidationError) as exc:
                raise ParseError(f"{path}: {exc}", record_index=i) from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def _uniform_width(path, starts):
    """Bin width of a uniform grid of at least two bin starts."""
    if len(starts) < 2:
        raise ValidationError(f"{path}: need at least two bins to infer the bin width")
    require_finite(**{f"{path}: bin_start_ps": starts})
    widths = np.diff(starts)
    if np.any(np.abs(widths - widths[0]) > 1e-9 * abs(widths[0])):
        raise ValidationError(f"{path}: bin grid is not uniform")
    return float(widths[0])


def read_xy_csv(path):
    """The first two columns of a CSV with any header, as float arrays x and y."""
    rows = _read_rows(path, None, lambda fields: (float(fields[0]), float(fields[1])))
    return tuple(np.array(rows).T)


def _projection_row(fields):
    basis, counts, weight = fields
    return ProjectionRecord(basis, float(counts), float(weight))


def read_projection_csv(path) -> TomographyInput:
    """Read `basis,counts,weight` rows into a TomographyInput."""
    columns = ("basis", "counts", "weight")
    return TomographyInput(tuple(_read_rows(path, columns, _projection_row)))


def _binned_row(fields):
    basis, start, counts = fields
    pair_projectors(basis)  # refuses a label that names no basis pair
    return basis, float(start), float(counts)


def read_binned_csv(path):
    """Read `basis,bin_start_ps,counts` into {basis: Histogram}.

    All series must share the same uniform bin grid; the bin width is
    inferred from the grid spacing.
    """
    rows = {}
    for basis, start, counts in _read_rows(path, ("basis", "bin_start_ps", "counts"),
                                           _binned_row):
        rows.setdefault(basis, []).append((start, counts))

    starts = None
    for basis, pairs in rows.items():
        pairs.sort()
        s = np.array([p[0] for p in pairs])
        if starts is None:
            starts = s
        elif len(s) != len(starts) or np.any(s != starts):
            raise ValidationError(f"{path}: bin grid for {basis} differs from the rest")
    width = _uniform_width(path, starts)
    return {
        basis: Histogram(width, float(starts[0]), np.array([p[1] for p in pairs]))
        for basis, pairs in rows.items()
    }


def write_histogram_csv(hist: Histogram, path):
    with open(path, "w") as fh:
        fh.write("bin_start_ps,counts\n")
        for start, c in zip(hist.bin_starts, hist.counts):
            fh.write(f"{np.format_float_positional(start, trim='-')},{int(c)}\n")


def _histogram_row(fields):
    start, counts = fields
    return float(start), float(counts)


def read_histogram_csv(path) -> Histogram:
    """Read `bin_start_ps,counts` rows on a uniform grid into a Histogram."""
    rows = _read_rows(path, ("bin_start_ps", "counts"), _histogram_row)
    starts = np.array([start for start, _ in rows])
    width = _uniform_width(path, starts)
    return Histogram(width, float(starts[0]), np.array([c for _, c in rows]))
