import hashlib
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qdcascade import (ParseError, TimestampStream, ValidationError, export_stream,
                       import_stream)
from qdcascade.simulate import EmitterConfig, simulate_projection_run
from qdcascade.streams import _CODE_ORIGIN, _CSV_BLOCK, _HEADER, _ORIGIN_CODE, MAGIC


def stamp_bytes(stamps):
    return np.array(stamps, dtype="<i8").tobytes()


def small_stream():
    return TimestampStream(
        timestamps_ps=np.array([120, 5, 999], dtype=np.int64),
        origins=np.array(
            [_ORIGIN_CODE["XX"], _ORIGIN_CODE["background"], _ORIGIN_CODE["XX"]],
            dtype=np.uint8,
        ),
    )


class TestStreamType:
    def test_sorts_on_construction(self):
        s = small_stream()
        assert list(s.timestamps_ps) == [5, 120, 999]
        assert s.origin_labels()[0] == "background"

    def test_validation(self):
        with pytest.raises(Exception):
            TimestampStream(np.array([-5]))

    @pytest.mark.parametrize("in_order", [True, False])
    @pytest.mark.parametrize("stamps", [[-5, 3, 7]])
    def test_out_of_range_stamp_rejected_on_both_paths(self, stamps, in_order):
        # a sorted stream is checked at its start, an unsorted one by a full scan
        ts = np.array(stamps if in_order else stamps[::-1])
        with pytest.raises(ValidationError, match="nonnegative"):
            TimestampStream(ts, _sorted=in_order)

    @pytest.mark.parametrize("stamps,origins", [
        ([[5, 1], [3, 2]], None), ([[5, 1], [3, 2]], [[1, 1], [2, 3]]), (7, None)])
    def test_stamps_must_be_one_dimensional(self, stamps, origins):
        # a (2, 2) array was once sorted into shape (2, 2, 2), which export
        # could not write
        with pytest.raises(ValidationError, match="1-D"):
            TimestampStream(np.array(stamps), origins=origins)

    @pytest.mark.parametrize("codes,record", [([1, 4, 2], 1), ([0, 1], 0), ([3, 3, 255], 2),
                                              ([257, 258], 0), ([-255, 2], 0), ([1.5, 2.0], 0),
                                              ([2.0, 3, 1.5], 2)])
    def test_unknown_origin_code_names_record(self, codes, record):
        # export and import both know only the codes of _ORIGIN_CODE; codes are
        # checked before the cast to u8, which would read 257 as 1 and 1.5 as 1
        with pytest.raises(ValidationError, match=f"bad origin code {codes[record]} "
                                                  rf"\(record {record}\)"):
            TimestampStream(np.arange(len(codes)), origins=codes)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
class TestRoundTrip:
    def test_plain(self, fmt, tmp_path):
        s = small_stream()
        path = tmp_path / f"s.{fmt}"
        export_stream(s, path, fmt)
        back = import_stream(path)
        assert np.array_equal(back.timestamps_ps, s.timestamps_ps)
        assert back.origins is None  # truth stripped by default

    def test_with_truth(self, fmt, tmp_path):
        s = small_stream()
        path = tmp_path / f"t.{fmt}"
        export_stream(s, path, fmt, include_truth=True)
        back = import_stream(path)
        assert np.array_equal(back.origins, s.origins)

    def test_empty(self, fmt, tmp_path):
        s = TimestampStream(np.zeros(0, np.int64), origins=np.zeros(0, np.uint8))
        path = tmp_path / f"e.{fmt}"
        for truth in (False, True):
            export_stream(s, path, fmt, include_truth=truth)
            back = import_stream(path)
            assert len(back) == 0
            assert (back.origins is not None) == truth

    def test_largest_stamp(self, fmt, tmp_path):
        s = TimestampStream(np.array([0, 2**63 - 1]), origins=[1, 3])
        path = tmp_path / f"m.{fmt}"
        export_stream(s, path, fmt, include_truth=True)
        back = import_stream(path)
        assert back.timestamps_ps.tolist() == [0, 2**63 - 1]
        assert back.origins.tolist() == [1, 3]


class TestImportEdgeCases:
    def test_unsorted_csv_sorts_and_warns(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("timestamp_ps\n500\n100\n300\n")
        with pytest.warns(UserWarning, match="not sorted"):
            back = import_stream(path)
        assert list(back.timestamps_ps) == [100, 300, 500]

    def test_unsorted_binary_sorts_and_warns(self, tmp_path):
        path = tmp_path / "u.ctts"
        path.write_bytes(_HEADER.pack(MAGIC, 3, 3) + stamp_bytes([500, 100, 300]))
        with pytest.warns(UserWarning, match="not sorted"):
            back = import_stream(path)
        assert list(back.timestamps_ps) == [100, 300, 500]
        assert back.timestamps_ps.dtype == np.int64
        assert back.timestamps_ps.flags.c_contiguous

    def test_sorted_binary_duration_and_range(self, tmp_path):
        path = tmp_path / "s.ctts"
        path.write_bytes(_HEADER.pack(MAGIC, 3, 3) + stamp_bytes([100, 300, 500]))
        assert list(import_stream(path).timestamps_ps) == [100, 300, 500]
        words = np.array([2**63, 2**63 + 6, 2**63 + 7], dtype="<u8")  # negative as int64
        path.write_bytes(_HEADER.pack(MAGIC, 3, 3) + words.tobytes())
        with pytest.raises(ParseError,
                           match=f"^{re.escape(str(path))}: timestamps must be nonnegative$"):
            import_stream(path)

    def test_negative_csv_stamp_names_the_path(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("timestamp_ps\n-5\n7\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*nonnegative"):
            import_stream(path)

    def test_bad_binary_origin_code_names_path_and_record(self, tmp_path):
        path = tmp_path / "o.ctts"
        path.write_bytes(_HEADER.pack(MAGIC, 4, 3) + stamp_bytes([1, 2, 3]) + bytes([1, 4, 2]))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: bad origin code 4 "
                                             r"\(record 1\)"):
            import_stream(path)

    @pytest.mark.parametrize("header", ["channel,timestamp_ps,foo",
                                        "channel,timestamp_ps,origin,extra",
                                        "timestamp_ps,foo", "timestamp_ps,origin,extra"])
    def test_header_must_be_a_stream_header(self, tmp_path, header):
        # such a third column was once dropped without a word
        path = tmp_path / "h.csv"
        path.write_text(f"{header}\n0,100,7\n")
        with pytest.raises(ParseError, match="bad CSV header"):
            import_stream(path)

    @pytest.mark.parametrize("text,index", [
        ("timestamp_ps\n100\n200,7\n", 1),
        ("timestamp_ps\n100,7\n200,7\n", 0),
        ("timestamp_ps,origin\n100,XX,1\n", 0),
        ("timestamp_ps,origin\n100,XX\n200\n", 1),
    ], ids=["plain_long", "plain_all_long", "origin_long", "origin_short"])
    def test_row_must_have_the_header_width(self, tmp_path, text, index):
        # a third field was once dropped, and a one-field body raised IndexError
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="fields") as err:
            import_stream(path)
        assert err.value.record_index == index

    def test_concurrent_csv_imports_keep_warning_filters(self, tmp_path):
        # the pipeline imports streams on several threads, where a
        # warnings.catch_warnings per call could leave its filter installed
        paths = []
        for k, body in enumerate(("", "5\n9\n")):
            paths.append(tmp_path / f"s{k}.csv")
            paths[-1].write_text("timestamp_ps\n" + body)
        before = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                sizes = list(pool.map(lambda p: len(import_stream(p)), paths * 200))
        finally:
            sys.setswitchinterval(interval)
        assert sizes == [0, 2] * 200
        assert warnings.filters == before

    @pytest.mark.parametrize("header,suffix", [("timestamp_ps", ""),
                                               ("timestamp_ps,origin", ",XX")])
    def test_csv_stamp_beyond_int64_reports_record(self, tmp_path, header, suffix):
        # it was a raw OverflowError
        path = tmp_path / "big.csv"
        path.write_text(f"{header}\n5{suffix}\n{2**63}{suffix}\n")
        with pytest.raises(ParseError, match="int64") as err:
            import_stream(path)
        assert err.value.record_index == 1

    def test_malformed_csv_reports_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_ps\n100\noops\n")
        with pytest.raises(ParseError) as err:
            import_stream(path)
        assert err.value.record_index == 1

    @pytest.mark.parametrize("data,index", [
        (b"timestamp_ps\n100\n# note\n200\n", 1),
        (b"timestamp_ps\n# note\n", 0),
        (b"timestamp_ps\n100\n2\xff0\n", 1),
        (b"timestamp_ps,origin\n100,XX\n200,X\x80\n", 1),
    ], ids=["comment", "comment_only", "not_utf8", "not_utf8_origin"])
    def test_comment_or_undecodable_row_reports_record(self, tmp_path, data, index):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            import_stream(path)
        assert err.value.record_index == index

    def test_undecodable_file_is_parse_error(self, tmp_path):
        path = tmp_path / "garbage.dat"
        path.write_bytes(b"\xff\xfe\x00garbage\x80")
        with pytest.raises(ParseError, match="bad CSV header"):
            import_stream(path)

    def test_csv_export_spans_blocks(self, tmp_path):
        n = 2 * _CSV_BLOCK + 5
        rng = np.random.default_rng(3)
        s = TimestampStream(np.arange(n) * 7, origins=rng.integers(1, 4, n), _sorted=True)
        for truth in (False, True):
            export_stream(s, tmp_path / "s.csv", "csv", include_truth=truth)
            rows = [f"{t}" + (f",{_CODE_ORIGIN[o]}" if truth else "")
                    for t, o in zip(s.timestamps_ps, s.origins)]
            header = "timestamp_ps" + (",origin" if truth else "")
            assert (tmp_path / "s.csv").read_text() == "\n".join([header, *rows]) + "\n"

    @pytest.mark.parametrize("data,error", [
        (_HEADER.pack(MAGIC, 1, 1) + bytes(9), "unsupported version 1"),
        (_HEADER.pack(MAGIC, 2, 1) + bytes(10), "unsupported version 2"),
        (b"channel,timestamp_ps\n0,100\n", "bad CSV header"),
        (b"channel,timestamp_ps,origin\n0,100,XX\n", "bad CSV header"),
    ], ids=["v1", "v2", "csv", "csv-origin"])
    def test_layouts_with_a_channel_are_refused(self, tmp_path, data, error):
        path = tmp_path / "old.dat"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {error}"):
            import_stream(path)

    @pytest.mark.parametrize("data", [
        _HEADER.pack(MAGIC, 3, 2**60),
        _HEADER.pack(MAGIC, 4, 3) + stamp_bytes([1, 2, 3]) + bytes([1, 2]),
    ], ids=["huge-count", "short-origins"])
    def test_count_is_checked_against_the_file_size(self, tmp_path, data):
        # the count is read before any buffer is sized
        path = tmp_path / "count.ctts"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: expected .* records"):
            import_stream(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ctts"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ParseError, match="header|magic"):
            import_stream(path)

    def test_truncated_payload(self, tmp_path):
        good = tmp_path / "good.ctts"
        export_stream(small_stream(), good, "binary")
        data = good.read_bytes()
        bad = tmp_path / "short.ctts"
        bad.write_bytes(data[:-4])
        with pytest.raises(ParseError, match="records"):
            import_stream(bad)

    def test_format_sniffing(self, tmp_path):
        s = small_stream()
        bin_path = tmp_path / "a.dat"
        csv_path = tmp_path / "b.dat"
        export_stream(s, bin_path, "binary")
        export_stream(s, csv_path, "csv")
        assert np.array_equal(import_stream(bin_path).timestamps_ps, s.timestamps_ps)
        assert np.array_equal(import_stream(csv_path).timestamps_ps, s.timestamps_ps)


def test_simulated_export_is_deterministic(tmp_path):
    cfg = EmitterConfig()
    for name, seed in (("a", 9), ("b", 9)):
        xx, _ = simulate_projection_run(cfg, "DD", 10_000, seed=seed)
        export_stream(xx, tmp_path / f"{name}.ctts", "binary")
    assert (tmp_path / "a.ctts").read_bytes() == (tmp_path / "b.ctts").read_bytes()


# SHA-256 of the exported file. The ids "v1" and "v2-truth" are kept from the
# layouts with a channel field; they now pin binary versions 3 and 4, whose
# stamps and origins were checked equal to those of the v1/v2 files when the
# digests were retaken.
@pytest.mark.parametrize("fmt,include_truth,digest", [
    ("binary", False, "9d1e736857dfd4577bcef5c6f1337949b78236b37c92cd57bdf833c02c523150"),
    ("binary", True, "ed591798375250cc568c38b30ade432c5797186f8fac6489e61da77fa4d3b229"),
    ("csv", False, "c6b126dfcae4e5080cfc2a39c0f9c31004976991acae97a5f5fff9a795669605"),
    ("csv", True, "470ffe5d4da3d5fb91535dafe5a9ec2e42965bb5a5df3da57e6b5a900c817958"),
], ids=["v1", "v2-truth", "csv", "csv-truth"])
def test_simulated_export_is_pinned(tmp_path, fmt, include_truth, digest):
    cfg = EmitterConfig(setup_efficiency=0.6, detector_efficiency=0.7,
                        background_rate=2e5, jitter_sigma=35.0)
    xx, _ = simulate_projection_run(cfg, "DA", 20_000, seed=13)
    path = tmp_path / "xx.dat"
    export_stream(xx, path, fmt, include_truth=include_truth)
    data = path.read_bytes()
    if fmt == "binary":
        assert _HEADER.unpack(data[:_HEADER.size]) == (MAGIC, 4 if include_truth else 3,
                                                       len(xx))
    assert hashlib.sha256(data).hexdigest() == digest
