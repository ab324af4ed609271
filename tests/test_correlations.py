import gc
import hashlib
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import run_python
from qdcascade import (ComputationError, G2Result, Histogram, TimestampStream,
                       ValidationError, correlations, cross_correlate, g2_zero, pool)
from qdcascade.errors import FitError
from qdcascade.fitting import _lorentzian
from qdcascade.simulate import (EmitterConfig, simulate_autocorrelation_run,
                                simulate_projection_run)

#: Child-interpreter body of the nested-call test: ``cross_correlate`` inside
#: ``parallel_map`` items, stream pairs read from argv[1], counts saved to argv[2].
NESTED_CALLS = """
import faulthandler, sys
import numpy as np
from qdcascade import correlations, cross_correlate, pool
pool.WORKERS, correlations._CHUNK = 2, 4  # as the small_chunks fixture sets them
stamps = np.load(sys.argv[1])
arrays = [stamps[f"arr_{k}"] for k in range(len(stamps.files))]
pairs = list(zip(arrays[0::2], arrays[1::2]))
faulthandler.dump_traceback_later(60, exit=True)
counts = pool.parallel_map(lambda p: cross_correlate(*p, 10.0, 200.0).counts, pairs)
faulthandler.cancel_dump_traceback_later()
np.savez(sys.argv[2], *counts)
"""


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
        sa = TimestampStream(ta)
        sb = TimestampStream(tb)
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

    @pytest.mark.parametrize("ta", [[1], []])
    def test_window_of_no_bin(self, ta):
        # 2*max_delay/bin_width = 8e-10 rounds down to no bin
        with pytest.raises(ValidationError, match="max_delay .* bin_width"):
            cross_correlate(np.array(ta), np.array([1]), 10.0, 4e-9)

    @pytest.mark.parametrize("bw,md", [(np.nan, 100.0), (np.inf, 100.0),
                                       (10.0, np.nan), (10.0, np.inf)])
    def test_non_finite_width_or_delay(self, bw, md):
        with pytest.raises(ValidationError, match="must be a finite number"):
            cross_correlate(np.array([1]), np.array([1]), bw, md)

    @pytest.mark.parametrize("bw,md", [(0.3, 7.45), (2.5, 41.2), (7.7, 100.05), (33.3, 250.0)])
    def test_fractional_width_and_delay(self, rng, bw, md):
        # a non-integral origin puts the window's lower edge between integers
        ta = rng.integers(0, 2_000, 300)
        tb = rng.integers(0, 2_000, 300)
        h = cross_correlate(ta, tb, bw, md)
        assert h.origin == -md
        assert np.array_equal(h.counts, brute_force_histogram(ta, tb, bw, md))

    def test_dense_windows(self, rng):
        ta = rng.integers(0, 20_000, 500)
        tb = rng.integers(0, 20_000, 2_000)
        h = cross_correlate(ta, tb, 40.0, 600.0)  # about 120 partners per event
        assert np.array_equal(h.counts, brute_force_histogram(ta, tb, 40.0, 600.0))
        assert h.total() >= 10 * len(ta)

    def test_equal_timestamps_and_window_edges(self):
        ta = np.array([1000, 1000, 1000, 5000])
        # partners exactly on the lower edge (included), on the upper edge
        # (excluded), one short of it, and equal to the a-events
        tb = np.array([500, 500, 1000, 1000, 1499, 1500, 4500, 5000, 5499, 5500])
        h = cross_correlate(ta, tb, 100.0, 500.0)
        assert np.array_equal(h.counts, brute_force_histogram(ta, tb, 100.0, 500.0))
        assert h.counts[0] == 3 * 2 + 1   # delay -500
        assert h.counts[5] == 3 * 2 + 1   # delay 0
        assert h.counts[-1] == 3 + 1      # delay 499
        assert h.total() == 3 * 5 + 3

    def test_partners_run_off_the_end(self, rng):
        ta = np.sort(rng.integers(0, 10_000, 200))
        tb = np.sort(rng.integers(0, 10_000, 200))
        # late events' windows reach past the last b-event; at +-12 ns every
        # window also reaches before the first
        for bw, md in ((50.0, 12_000.0), (125.0, 3_000.0), (10.0, 200.0)):
            h = cross_correlate(ta, tb, bw, md)
            assert np.array_equal(h.counts, brute_force_histogram(ta, tb, bw, md))
        h = cross_correlate(np.array([9_999]), tb, 100.0, 1_000.0)
        assert h.total() == np.count_nonzero(tb >= 8_999)

    @pytest.mark.parametrize("md", [250.3, 250.7, 250.95])
    @pytest.mark.parametrize("offset", [2**40, 10**15, 2**52, 2**63 - 2_000])
    def test_window_edges_at_long_acquisition_times(self, offset, md):
        # from 1e15 ps on, float64 steps by 0.125 ps or more, so a window
        # edge formed as a float timestamp moved by up to one integer. The
        # partners sit at every delay from before the lower edge (-250) to
        # past the fractional upper one (299.7, 299.3 or 299.05)
        ta = offset + np.array([0, 7, 1_000])
        tb = offset + np.arange(-260, 1_310)
        h = cross_correlate(ta, tb, 50.0, md)
        assert np.array_equal(h.counts, brute_force_histogram(ta, tb, 50.0, md))

    def test_window_wider_than_any_delay(self):
        # every int64 delay is in the window: its ends are cut to the int64 range
        ta = np.array([0, 5, 2**62, 2**63 - 1])
        h = cross_correlate(ta, ta[::-1], 1e18, 1e19)
        assert h.total() == 16
        assert np.array_equal(h.counts, brute_force_histogram(ta, ta, 1e18, 1e19))

    @given(
        ta=st.lists(st.integers(0, 3_000), min_size=1, max_size=60),
        tb=st.lists(st.integers(0, 3_000), min_size=1, max_size=60),
        bw=st.floats(0.25, 400.0),
        md=st.floats(0.5, 4_000.0),
    )
    def test_matches_brute_force_property(self, ta, tb, bw, md):
        h = cross_correlate(np.array(ta), np.array(tb), bw, md)
        assert np.array_equal(h.counts, brute_force_histogram(ta, tb, bw, md))


class TestChunkedCorrelate:
    """The a-events are correlated in chunks on the shared pool."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(pool, "WORKERS", 2)
        monkeypatch.setattr(correlations, "_CHUNK", 4)

    @given(
        ta=st.lists(st.integers(0, 3_000), min_size=1, max_size=60),
        tb=st.lists(st.integers(0, 3_000), min_size=1, max_size=60),
        bw=st.floats(0.25, 400.0),
        md=st.floats(0.5, 4_000.0),
        chunk=st.integers(1, 7),
    )
    def test_any_chunk_size_matches_brute_force(self, ta, tb, bw, md, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlations, "_CHUNK", chunk)
            h = cross_correlate(np.array(ta), np.array(tb), bw, md)
        assert np.array_equal(h.counts, brute_force_histogram(ta, tb, bw, md))

    @pytest.mark.parametrize("chunk", [1, 3, 4, 7])
    def test_last_chunk_runs_past_the_end(self, rng, chunk, monkeypatch):
        # b ends well before a does, so the last chunks' windows (and some
        # of the middle ones) reach past the last b-event
        monkeypatch.setattr(correlations, "_CHUNK", chunk)
        for bw, md in ((50.0, 1_500.0), (7.5, 333.3), (0.6, 40.2)):
            ta = rng.integers(0, 10_000, 40)
            tb = rng.integers(0, 8_000, 30)
            assert ta.max() - md > tb.max()
            h = cross_correlate(ta, tb, bw, md)
            assert np.array_equal(h.counts, brute_force_histogram(ta, tb, bw, md))

    def test_calls_inside_pool_items_finish(self, rng, tmp_path):
        # the outer items occupy the pool, so an inner call that waited on
        # the pool would wait on itself. The calls run in
        # a child interpreter whose faulthandler ends a deadlock after 60 s and
        # writes every thread's stack to the child's own stderr, which pytest's
        # capture of this process does not swallow.
        pairs = [(rng.integers(0, 5_000, 200), rng.integers(0, 5_000, 200)) for _ in range(6)]
        np.savez(tmp_path / "pairs.npz", *(t for pair in pairs for t in pair))
        proc = run_python(NESTED_CALLS, tmp_path / "pairs.npz", tmp_path / "counts.npz")
        assert proc.returncode == 0, proc.stderr
        counts = np.load(tmp_path / "counts.npz")
        for k, (ta, tb) in enumerate(pairs):
            assert np.array_equal(counts[f"arr_{k}"], brute_force_histogram(ta, tb, 10.0, 200.0))

    def test_error_in_a_helper_chunk_reaches_caller(self, monkeypatch):
        failed_on = []
        delay_counts = correlations._delay_counts

        def failing_third_chunk(ta, *args):
            if ta[0] == 8:
                failed_on.append(threading.current_thread())
                raise RuntimeError("chunk failed")
            return delay_counts(ta, *args)

        monkeypatch.setattr(correlations, "_delay_counts", failing_third_chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            cross_correlate(np.arange(40), np.arange(40), 1.0, 5.0)
        assert failed_on and failed_on[0] is not threading.current_thread()

    def test_busy_pool_keeps_no_input_alive(self):
        # a call made on a pool thread while every other pool thread is busy
        # must leave nothing queued behind them that holds the call's arrays
        executor = pool._pool()
        blockers_queued, release = threading.Event(), threading.Event()

        def correlate_and_drop():
            blockers_queued.wait(30)
            stream = TimestampStream(np.arange(40))
            ref = weakref.ref(stream.timestamps_ps)
            assert cross_correlate(stream, stream, 1.0, 5.0).total() > 0
            del stream
            gc.collect()
            return ref() is None

        caller = executor.submit(correlate_and_drop)
        blockers = [executor.submit(release.wait, 30) for _ in range(4)]  # at most 4 threads
        blockers_queued.set()
        try:
            assert caller.result(timeout=30)
        finally:
            release.set()
            for blocker in blockers:
                blocker.result(timeout=30)


@pytest.mark.parametrize("bw,md", [(0.3, 7.45), (0.7, 0.35), (0.25, 0.1251), (2.5, 41.2),
                                   (7.7, 100.05), (33.3, 250.0), (1e3, 3.7e17)])
def test_delay_window_edges(bw, md):
    # the bin of a delay as the oracle forms it; near 3.7e17 ps the float
    # spacing is 64 ps, so the edge lies far from the float guess
    n_bins = int(np.ceil(2.0 * md / bw - 1e-9))
    d_lo, d_hi = correlations._delay_window(-md, n_bins, bw)

    def bin_of(d):
        return np.floor((np.int64(d) + md) / bw)

    assert bin_of(d_lo - 1) < 0 <= bin_of(d_lo)
    assert bin_of(d_hi - 1) < n_bins <= bin_of(d_hi)


def _digest(hist):
    return hashlib.sha256(hist.counts.tobytes()).hexdigest()


def test_recapture_run_histograms_are_pinned():
    # recorded when the autocorrelation run was cut into seeded pulse blocks;
    # on the earlier whole-run streams this walk matched the pair-expansion
    # correlator bit for bit. The g2 and recapture fit use these shapes
    cfg = EmitterConfig(recapture_probability=0.36)
    a, b = simulate_autocorrelation_run(cfg, "XX", 150_000, seed=3)
    wide = cross_correlate(a, b, 50.0, 5.5 * cfg.rep_period_ps)
    assert _digest(wide) == "e46c6d30b556f004c7eb7c07c111c60135a6d4b07e324d43c55271ac82c30ebc"
    center = cross_correlate(a, b, 25.0, 4000.0)
    assert _digest(center) == "408f7322b200d8f9ab8074f9cb72c4b18e3ff09b165bfba87f09aa2177e9ae44"


def test_projection_run_histogram_is_pinned():
    xx, x = simulate_projection_run(EmitterConfig(), "HH", 150_000, seed=11)
    h = cross_correlate(xx, x, 100.0, 6000.0)
    assert _digest(h) == "c5d8ffedcd71bcbec101ef6f98aac4ba69ee2c288e3715310799f249b2cc851a"


def test_wide_window_peak_memory():
    # about 40 partners per event (4M pairs); expanding every pair peaked
    # at 136 MB here, walking one partner per event at a time at about 7 MB
    rng = np.random.default_rng(5)
    ta = np.sort(rng.integers(0, 100_000_000, 100_000))
    tb = np.sort(rng.integers(0, 100_000_000, 100_000))
    tracemalloc.start()
    try:
        h = cross_correlate(ta, tb, 100.0, 20_000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.total() > 30 * len(ta)
    assert peak < 30e6


class TestHistogram:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Histogram(0.0, 0.0, np.array([1]))
        with pytest.raises(ValidationError):
            Histogram(1.0, 0.0, np.array([-1]))
        with pytest.raises(ValidationError):
            Histogram(1.0, 0.0, np.array([]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="counts must hold only finite"):
                Histogram(1.0, 0.0, np.array([1.0, bad]))
            with pytest.raises(ValidationError, match="bin_width must be a finite"):
                Histogram(bad, 0.0, np.array([1]))
            with pytest.raises(ValidationError, match="origin must be a finite"):
                Histogram(1.0, bad, np.array([1]))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_period(self, bad):
        with pytest.raises(ValidationError, match="rep_period must be a finite"):
            g2_zero(comb_histogram(), bad, 5)

    def test_insufficient_span(self):
        h = comb_histogram(n_periods=2)
        with pytest.raises(ValidationError, match="span"):
            g2_zero(h, 12500.0, 5)

    def test_side_fit_failure_names_peak(self):
        # huge bins leave too few points under each side peak to fit
        h = comb_histogram(bin_width=6250.0)
        with pytest.raises(ComputationError, match="side peak -5"):
            g2_zero(h, 12500.0, 5)

    def test_only_fit_errors_become_computation_errors(self, monkeypatch):
        def fit_raising(exc):
            def fit(*args, **kwargs):
                raise exc
            return fit

        monkeypatch.setattr(correlations, "fit_model", fit_raising(RuntimeError("a bug")))
        with pytest.raises(RuntimeError, match="a bug"):
            g2_zero(comb_histogram(), 12500.0, 2)
        monkeypatch.setattr(correlations, "fit_model", fit_raising(FitError("no minimum")))
        with pytest.raises(ComputationError, match="side peak -2: Lorentzian fit failed"):
            g2_zero(comb_histogram(), 12500.0, 2)

    def test_result_shape(self):
        out = g2_zero(comb_histogram(), 12500.0, 2)
        assert isinstance(out, G2Result)
        assert out.window_delta > 0


@pytest.fixture
def rng():
    return np.random.default_rng(7)
