"""Coincidence histogramming and the pulsed g2(0) procedure.

Delay histograms count event pairs with t_b - t_a inside half-open bins
of fixed width. The a-events are cut into chunks of about 65,536 that
the threads of the package's one pool (``pool.map_helped``) correlate
at once. Each chunk is one binary search
for each event's first partner, then one vectorized pass per window
occupancy (the most partners any event has), each compacting its events
by index, so memory scales with the events of the chunks in flight, not
with pairs. g2(0) follows the side-peak normalization:
Lorentzian fits to the side peaks set the window width (their mean
FWHM), and the zero-delay window sum is divided by the mean side-peak
window sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, FitError, ValidationError, require_finite
from .fitting import fit_model, poisson_weights
from .pool import map_helped
from .streams import TimestampStream


@dataclass
class Histogram:
    """Uniform-bin counts; bin k covers [origin + k*w, origin + (k+1)*w)."""

    bin_width: float
    origin: float
    counts: np.ndarray

    def __post_init__(self):
        require_finite(bin_width=self.bin_width, origin=self.origin)
        if not self.bin_width > 0:
            raise ValidationError("bin_width must be positive")
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 1 or len(self.counts) < 1:
            raise ValidationError("counts must be a nonempty 1-d array")
        require_finite(counts=self.counts)
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


#: Events of the first stream per correlation chunk: a chunk's per-pass
#: arrays (0.5 MB per int64 array) stay in cache.
_CHUNK = 65_536


def cross_correlate(stream_a, stream_b, bin_width, max_delay):
    """Histogram of delays t_b - t_a over [-max_delay, +max_delay).

    Accepts timestamp arrays or TimestampStream objects; timestamps are
    interpreted as integer picoseconds and inputs need not be sorted.
    An empty input yields an all-zero histogram and a warning.

    The sorted a-events are cut into contiguous chunks of about
    ``_CHUNK`` events, which the pool's threads correlate against all of
    stream b (``pool.map_helped``); a call made on a busy pool's thread
    runs its chunks itself. Each event's pairs do not depend on its chunk
    and the chunk counts are integers, so their sum is the same histogram
    on any number of threads.
    """
    require_finite(bin_width=bin_width, max_delay=max_delay)
    if bin_width <= 0 or max_delay <= 0:
        raise ValidationError("bin_width and max_delay must be positive")
    ta = _sorted_timestamps(stream_a)
    tb = _sorted_timestamps(stream_b)
    n_bins = int(np.ceil(2.0 * max_delay / bin_width - 1e-9))
    origin = -float(max_delay)
    if len(ta) == 0 or len(tb) == 0:
        warnings.warn("cross_correlate: empty stream, returning zero histogram")
        return Histogram(bin_width, origin, np.zeros(n_bins, dtype=np.int64))

    n_chunks = -(-len(ta) // _CHUNK)
    edges = [k * len(ta) // n_chunks for k in range(n_chunks + 1)]

    def chunk_counts(k):
        return _delay_counts(ta[edges[k]:edges[k + 1]], tb, origin, n_bins, bin_width)

    counts = np.sum(map_helped(chunk_counts, range(n_chunks)), axis=0)
    return Histogram(bin_width, origin, counts)


def _delay_counts(ta, tb, origin, n_bins, bin_width):
    """Delay counts of the sorted events ``ta`` against all of sorted ``tb``.

    Pass k bins the k-th partner of every event whose window still has
    one, so the loop runs once per window occupancy and never holds more
    than one partner per event. Each pass compacts its events by one
    np.flatnonzero index, not a boolean mask, then regathers their partners.
    """
    counts = np.zeros(n_bins, dtype=np.int64)
    # tb holds integers, so tb >= ta + origin exactly when tb >= ceil(ta + origin)
    j = np.searchsorted(tb, np.ceil(ta + origin).astype(np.int64))  # first partner
    a = ta  # the events whose window may still hold partner j
    while j.size:
        t = tb.take(j, mode="clip")  # j == len(tb) is dropped just below
        keep = np.flatnonzero((t < a + origin + n_bins * bin_width) & (j < len(tb)))
        del t  # gathered again from tb below: as cheap as compacting it, and one array fewer
        a = a.take(keep)  # one at a time: each old array is freed before the next copy
        j = j.take(keep)
        del keep  # an int64 per event; freed before the bin indices are formed
        idx = np.floor((tb.take(j) - a - origin) / bin_width).astype(np.int64)
        # a non-integral origin can put idx at -1 on the window's lower edge
        counts += np.bincount(np.compress((idx >= 0) & (idx < n_bins), idx), minlength=n_bins)
        j += 1
    return counts


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
    require_finite(rep_period=rep_period)
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
        except (FitError, ValidationError) as exc:
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
