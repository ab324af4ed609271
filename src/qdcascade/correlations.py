"""Coincidence histogramming and the pulsed g2(0) procedure.

Delay histograms count event pairs with t_b - t_a inside half-open bins
of fixed width. The bins cover one interval of integer delays, so a
pair is tested by one integer compare. The a-events are cut into chunks
of about 65,536 that the threads of the package's one pool
(``pool.parallel_map``) correlate at once; a call made on a pool thread
correlates its chunks itself. A chunk searches only the slice
of stream b its windows reach: one binary search for each event's first
partner, then one vectorized pass per window occupancy (the most
partners any event has), until each event's walk leaves its window or
the slice. So memory scales with the events of the chunks in flight,
not with pairs. g2(0) follows the side-peak normalization:
Lorentzian fits to the side peaks set the window width (their mean
FWHM), and the zero-delay window sum is divided by the mean side-peak
window sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, FitError, ValidationError, require_finite
from .fitting import fit_model, poisson_weights
from .pool import parallel_map
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

_I64 = np.iinfo(np.int64)


def cross_correlate(stream_a, stream_b, bin_width, max_delay):
    """Histogram of delays t_b - t_a over [-max_delay, +max_delay).

    Accepts timestamp arrays or TimestampStream objects; timestamps are
    interpreted as integer picoseconds and inputs need not be sorted.
    An empty input yields an all-zero histogram and a warning.

    The bins are turned once into the interval of integer delays they
    cover (``_delay_window``), so no float window test is made per event.
    The sorted a-events are then cut into contiguous chunks of about
    ``_CHUNK`` events, which the pool's threads correlate
    (``pool.parallel_map``); a call made on a pool thread, such as a
    pipeline correlation task, runs its chunks itself. Each event's pairs
    do not depend on its chunk and the chunk counts are integers, so their
    sum is the same histogram on any number of threads.
    """
    require_finite(bin_width=bin_width, max_delay=max_delay)
    if bin_width <= 0 or max_delay <= 0:
        raise ValidationError("bin_width and max_delay must be positive")
    n_bins = int(np.ceil(2.0 * max_delay / bin_width - 1e-9))
    if n_bins < 1:
        raise ValidationError(f"max_delay {max_delay!r} spans no bin of bin_width "
                              f"{bin_width!r}: 2*max_delay/bin_width must exceed 1e-9")
    ta = _sorted_timestamps(stream_a)
    tb = _sorted_timestamps(stream_b)
    origin = -float(max_delay)
    if len(ta) == 0 or len(tb) == 0:
        warnings.warn("cross_correlate: empty stream, returning zero histogram")
        return Histogram(bin_width, origin, np.zeros(n_bins, dtype=np.int64))

    d_lo, d_hi = _delay_window(origin, n_bins, bin_width)
    n_chunks = -(-len(ta) // _CHUNK)
    edges = [k * len(ta) // n_chunks for k in range(n_chunks + 1)]

    def chunk_counts(k):
        return _delay_counts(ta[edges[k]:edges[k + 1]], tb, d_lo, d_hi - 1,
                             origin, n_bins, bin_width)

    counts = np.sum(parallel_map(chunk_counts, range(n_chunks)), axis=0)
    return Histogram(bin_width, origin, counts)


def _bins(delays, origin, bin_width):
    """floor((d - origin) / bin_width), as floats: the one binning rule."""
    return np.floor((delays - origin) / bin_width)


def _delay_window(origin, n_bins, bin_width):
    """The integer delays [d_lo, d_hi) whose bin lies in [0, n_bins).

    The bin never falls as the delay grows, so these delays are one
    interval. Each end is the least int64 delay whose bin reaches 0 or
    ``n_bins``, found from a guess near it by the same float expression
    that bins the delays; ``d_hi`` is 2**63 when no int64 delay reaches
    ``n_bins``.
    """
    def first(k, guess):
        def below(d):  # true below every int64, false above every one
            return d < _I64.min or (d <= _I64.max and _bins(np.int64(d), origin, bin_width) < k)

        # step out from the guess in doubling strides until the bracket
        # holds, then halve it: a few evaluations when the guess is near
        lo = hi = guess
        step = 1
        while below(hi):
            lo, hi, step = hi, hi + step, 2 * step
        while not below(lo):
            lo, hi, step = lo - step, lo, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return hi

    return first(0, math.ceil(origin)), first(n_bins, math.ceil(origin + n_bins * bin_width))


def _delay_counts(ta, tb, d_lo, d_last, origin, n_bins, bin_width):
    """Delay counts of the sorted events ``ta`` against sorted ``tb``.

    Only the delays ``d_lo <= d <= d_last`` have a bin in [0, n_bins).
    Two binary searches on the chunk's end events cut the slice of ``tb``
    that holds every partner (a view), and each event's first partner is
    searched in that slice on integer keys. Pass k then takes the k-th
    partner of every event whose walk goes on: one integer compare keeps
    the delays up to ``d_last``, ending the other walks, and only the
    kept delays are binned. So the loop runs once per window occupancy
    and never holds more than one partner per event.
    """
    lo = np.searchsorted(tb, int(ta[0]) + d_lo)  # d_lo >= the int64 minimum, ta >= 0
    hi = np.searchsorted(tb, min(int(ta[-1]) + d_last, _I64.max), side="right")
    b = tb[lo:hi]
    j = np.searchsorted(b, ta + d_lo)  # first partner
    a = ta  # the events whose window may still hold partner j
    counts = np.zeros(n_bins, dtype=np.int64)
    while True:
        # j never falls from one event to the next (the keys rise, and each
        # pass keeps events in order and steps all of them by one), so the
        # walks that reached the end of the slice are a suffix: cut it off
        live = np.searchsorted(j, len(b))
        if not live:
            return counts
        a, j = a[:live], j[:live]
        d = b.take(j)
        d -= a
        keep = np.flatnonzero(d <= d_last)
        d = d.take(keep)  # one at a time: each old array is freed before the next copy
        a = a.take(keep)
        j = j.take(keep)
        del keep  # an int64 per event; freed before the bin indices are formed
        counts += np.bincount(_bins(d, origin, bin_width).astype(np.int64), minlength=n_bins)
        j += 1


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
