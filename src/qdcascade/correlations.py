"""Coincidence histogramming and the pulsed g2(0) procedure.

Delay histograms count event pairs with t_b - t_a inside half-open bins
of fixed width; the sweep walks both sorted streams once per window, so
ten-million-event runs stay tractable. g2(0) follows the side-peak
normalization: Lorentzian fits to the side peaks set the window width
(their mean FWHM), and the zero-delay window sum is divided by the mean
side-peak window sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, ValidationError
from .fitting import fit_model, poisson_weights
from .streams import TimestampStream


@dataclass
class Histogram:
    """Uniform-bin counts; bin k covers [origin + k*w, origin + (k+1)*w)."""

    bin_width: float
    origin: float
    counts: np.ndarray

    def __post_init__(self):
        if not self.bin_width > 0:
            raise ValidationError("bin_width must be positive")
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 1 or len(self.counts) < 1:
            raise ValidationError("counts must be a nonempty 1-d array")
        if np.any(self.counts < 0):
            raise ValidationError("counts must be nonnegative")

    @property
    def bin_starts(self):
        return self.origin + self.bin_width * np.arange(len(self.counts))

    @property
    def bin_centers(self):
        return self.bin_starts + 0.5 * self.bin_width

    def total(self):
        return int(self.counts.sum())


def _sorted_timestamps(stream_or_array):
    """int64 timestamps in ascending order; a TimestampStream is sorted already."""
    if isinstance(stream_or_array, TimestampStream):
        return stream_or_array.timestamps_ps
    return np.sort(np.asarray(stream_or_array).astype(np.int64))


def cross_correlate(stream_a, stream_b, bin_width, max_delay):
    """Histogram of delays t_b - t_a over [-max_delay, +max_delay).

    Accepts timestamp arrays or TimestampStream objects; timestamps are
    interpreted as integer picoseconds and inputs need not be sorted.
    An empty input yields an all-zero histogram and a warning.
    """
    if bin_width <= 0 or max_delay <= 0:
        raise ValidationError("bin_width and max_delay must be positive")
    ta = _sorted_timestamps(stream_a)
    tb = _sorted_timestamps(stream_b)
    n_bins = int(np.ceil(2.0 * max_delay / bin_width - 1e-9))
    origin = -float(max_delay)
    counts = np.zeros(n_bins, dtype=np.int64)
    if len(ta) == 0 or len(tb) == 0:
        warnings.warn("cross_correlate: empty stream, returning zero histogram")
        return Histogram(bin_width, origin, counts)

    lo = np.searchsorted(tb, ta + origin, side="left")
    hi = np.searchsorted(tb, ta + origin + n_bins * bin_width, side="left")
    sizes = hi - lo
    # flat indices of every in-window partner event
    flat = np.repeat(lo, sizes) + _ranges(sizes)
    delays = tb[flat] - np.repeat(ta, sizes)
    idx = np.floor((delays - origin) / bin_width).astype(np.int64)
    good = (idx >= 0) & (idx < n_bins)
    np.add.at(counts, idx[good], 1)
    return Histogram(bin_width, origin, counts)


def _ranges(sizes):
    """Concatenated arange(s) for each window size, without Python loops."""
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    starts = np.cumsum(sizes)[:-1]
    out[0] = 0
    nonzero = sizes > 0
    first_in_window = np.concatenate([[0], starts])[nonzero]
    out[first_in_window] = np.concatenate([[0], 1 - sizes[nonzero][:-1]])
    return np.cumsum(out)


@dataclass
class G2Result:
    """Zero-delay suppression plus the window geometry used to get it."""

    g2_zero: float
    window_delta: float
    side_peak_fwhm: list = field(default_factory=list)


def _window_sum(hist, center, delta):
    centers = hist.bin_centers
    sel = (centers >= center - delta / 2.0) & (centers <= center + delta / 2.0)
    return float(np.asarray(hist.counts)[sel].sum())


def g2_zero(hist: Histogram, rep_period, n_side_peaks=5):
    """Pulsed g2(0) from a coincidence histogram.

    Fits a Lorentzian to each of the n_side_peaks side peaks on both
    sides of zero delay (local windows of +-40% of the repetition
    period), takes the mean FWHM as the counting window, and divides the
    zero-centered window sum by the mean side-peak window sum.
    """
    if rep_period <= 0:
        raise ValidationError("rep_period must be positive")
    if n_side_peaks < 1:
        raise ValidationError("need at least one side peak")
    centers = hist.bin_centers
    span_lo = hist.origin
    span_hi = hist.origin + hist.bin_width * len(hist.counts)
    if span_lo > -n_side_peaks * rep_period or span_hi < n_side_peaks * rep_period:
        raise ValidationError(
            f"histogram must span {n_side_peaks} repetition periods on each side"
        )

    orders = [m for m in range(-n_side_peaks, n_side_peaks + 1) if m != 0]
    fwhms = []
    fitted_centers = []
    for m in orders:
        nominal = m * rep_period
        window = np.abs(centers - nominal) <= 0.4 * rep_period
        x, y = centers[window], np.asarray(hist.counts, dtype=float)[window]
        try:
            fit = fit_model("lorentzian", x, y, weights=poisson_weights(y),
                            init={"x0": nominal})
        except Exception as exc:
            raise ComputationError(f"side peak {m}: Lorentzian fit failed: {exc}") from exc
        if not fit.converged:
            raise ComputationError(f"side peak {m}: Lorentzian fit did not converge")
        fwhms.append(abs(fit.params["gamma"]))
        fitted_centers.append(fit.params["x0"])

    delta = float(np.mean(fwhms))
    center_sum = _window_sum(hist, 0.0, delta)
    side_sums = [_window_sum(hist, c, delta) for c in fitted_centers]
    mean_side = float(np.mean(side_sums))
    if mean_side <= 0:
        raise ComputationError("side-peak windows are empty; cannot normalize g2")
    return G2Result(center_sum / mean_side, delta, [float(f) for f in fwhms])
