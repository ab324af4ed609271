import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdcascade import (ComputationError, G2Result, Histogram, TimestampStream,
                       ValidationError, cross_correlate, g2_zero, rebin)
from qdcascade.fitting import _lorentzian


def brute_force_histogram(ta, tb, bin_width, max_delay):
    """All-pairs oracle with the same binning rule as cross_correlate.

    Materializes the full quadratic delay matrix; no sweep, no sorting.
    """
    n_bins = int(np.ceil(2.0 * max_delay / bin_width - 1e-9))
    origin = -float(max_delay)
    delays = np.subtract.outer(np.asarray(tb, np.int64), np.asarray(ta, np.int64))
    idx = np.floor((delays.ravel() - origin) / bin_width).astype(np.int64)
    idx = idx[(idx >= 0) & (idx < n_bins)]
    return np.bincount(idx, minlength=n_bins).astype(np.int64)


class TestCrossCorrelate:
    def test_identical_single_events(self):
        h = cross_correlate(np.array([1000]), np.array([1000]), 100.0, 1000.0)
        assert h.total() == 1
        zero_bin = int(np.floor((0 - h.origin) / h.bin_width))
        assert h.counts[zero_bin] == 1

    def test_translation(self):
        ta = np.array([0, 20000, 40000])
        h = cross_correlate(ta, ta + 5000, 100.0, 8000.0)
        assert h.total() == 3
        idx = int(np.floor((5000 - h.origin) / h.bin_width))
        assert h.counts[idx] == 3

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            na, nb = rng.integers(1, 400, size=2)
            ta = rng.integers(0, 100_000, na)
            tb = rng.integers(0, 100_000, nb)
            bw = float(rng.integers(50, 2000))
            md = float(rng.integers(2, 40) * bw)
            h = cross_correlate(ta, tb, bw, md)
            assert np.array_equal(h.counts, brute_force_histogram(ta, tb, bw, md))

    def test_streams_match_unsorted_arrays(self, rng):
        ta = rng.integers(0, 100_000, 300)
        tb = rng.integers(0, 100_000, 200)
        sa = TimestampStream(np.zeros(len(ta)), ta, 100_000.0)
        sb = TimestampStream(np.ones(len(tb)), tb, 100_000.0)
        from_streams = cross_correlate(sa, sb, 250.0, 5000.0)
        assert np.array_equal(from_streams.counts,
                              brute_force_histogram(ta, tb, 250.0, 5000.0))

    def test_empty_stream_warns(self):
        with pytest.warns(UserWarning, match="empty"):
            h = cross_correlate(np.array([], dtype=np.int64), np.array([100]), 10.0, 100.0)
        assert h.total() == 0

    def test_partitioned_streams_merge(self, rng):
        ta = np.sort(rng.integers(0, 1_000_000, 5000))
        tb = np.sort(rng.integers(0, 1_000_000, 5000))
        full = cross_correlate(ta, tb, 500.0, 20_000.0)
        parts = [
            cross_correlate(chunk, tb, 500.0, 20_000.0).counts
            for chunk in np.array_split(ta, 4)
        ]
        assert np.array_equal(full.counts, np.sum(parts, axis=0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            cross_correlate(np.array([1]), np.array([1]), 0.0, 100.0)
        with pytest.raises(ValidationError):
            cross_correlate(np.array([1]), np.array([1]), 10.0, -5.0)


class TestHistogram:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Histogram(0.0, 0.0, np.array([1]))
        with pytest.raises(ValidationError):
            Histogram(1.0, 0.0, np.array([-1]))
        with pytest.raises(ValidationError):
            Histogram(1.0, 0.0, np.array([]))

    @given(
        counts=st.lists(st.integers(0, 50), min_size=12, max_size=12),
        factor=st.sampled_from([1, 2, 3, 4, 6]),
    )
    def test_rebin_preserves_totals(self, counts, factor):
        h = Histogram(10.0, -60.0, np.array(counts))
        merged = rebin(h, factor)
        assert merged.total() == h.total()
        assert merged.bin_width == 10.0 * factor
        assert len(merged.counts) == 12 // factor

    def test_rebin_requires_divisibility(self):
        with pytest.raises(ValidationError):
            rebin(Histogram(1.0, 0.0, np.ones(10)), 3)


def comb_histogram(rep_period=12500.0, bin_width=50.0, n_periods=6, gamma=800.0,
                   amp=1000.0, center_scale=0.0, background=0.0):
    """Lorentzian comb with a scalable center peak."""
    max_delay = (n_periods + 0.5) * rep_period
    n_bins = int(round(2 * max_delay / bin_width))
    centers = -max_delay + bin_width * (np.arange(n_bins) + 0.5)
    y = np.full(n_bins, background)
    for m in range(-n_periods, n_periods + 1):
        scale = center_scale if m == 0 else 1.0
        y += scale * _lorentzian(centers, (0.0, amp, m * rep_period, gamma))
    return Histogram(bin_width, -max_delay, np.round(y).astype(int))


class TestG2Zero:
    def test_zero_center(self):
        h = comb_histogram(center_scale=0.0)
        h.counts[np.abs(h.bin_centers) < 2000.0] = 0  # literally dark center
        out = g2_zero(h, 12500.0, 5)
        assert out.g2_zero == 0.0
        assert len(out.side_peak_fwhm) == 10
        for f in out.side_peak_fwhm:
            assert f == pytest.approx(800.0, rel=0.05)

    def test_unit_center(self):
        h = comb_histogram(center_scale=1.0)
        out = g2_zero(h, 12500.0, 4)
        assert out.g2_zero == pytest.approx(1.0, abs=0.02)

    def test_partial_center(self):
        h = comb_histogram(center_scale=0.38)
        out = g2_zero(h, 12500.0, 5)
        assert out.g2_zero == pytest.approx(0.38, abs=0.02)

    def test_scale_invariance(self):
        h = comb_histogram(center_scale=0.25)
        a = g2_zero(h, 12500.0, 3).g2_zero
        b = g2_zero(Histogram(h.bin_width, h.origin, h.counts * 7), 12500.0, 3).g2_zero
        assert a == pytest.approx(b, rel=1e-9)

    def test_insufficient_span(self):
        h = comb_histogram(n_periods=2)
        with pytest.raises(ValidationError, match="span"):
            g2_zero(h, 12500.0, 5)

    def test_side_fit_failure_names_peak(self):
        # huge bins leave too few points under each side peak to fit
        h = comb_histogram(bin_width=6250.0)
        with pytest.raises(ComputationError, match="side peak -5"):
            g2_zero(h, 12500.0, 5)

    def test_result_shape(self):
        out = g2_zero(comb_histogram(), 12500.0, 2)
        assert isinstance(out, G2Result)
        assert out.window_delta > 0


@pytest.fixture
def rng():
    return np.random.default_rng(7)
