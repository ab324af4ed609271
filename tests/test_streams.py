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
from qdcascade.streams import (_CODE_ORIGIN, _CSV_BLOCK, _HEADER, _ORIGIN_CODE, _REC_V1,
                               _REC_V2, MAGIC)


def small_stream():
    return TimestampStream(
        channels=np.array([0, 0, 0], dtype=np.uint8),
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
            TimestampStream(np.array([0]), np.array([-5]))

    @pytest.mark.parametrize("in_order", [True, False])
    @pytest.mark.parametrize("stamps", [[-5, 3, 7]])
    def test_out_of_range_stamp_rejected_on_both_paths(self, stamps, in_order):
        # a sorted stream is checked at its start, an unsorted one by a full scan
        ts = np.array(stamps if in_order else stamps[::-1])
        with pytest.raises(ValidationError, match="nonnegative"):
            TimestampStream(np.zeros(3), ts, _sorted=in_order)

    @pytest.mark.parametrize("channels,record", [([256, 257], 0), ([0, -1], 1)])
    def test_channel_outside_u8_names_record(self, channels, record):
        with pytest.raises(ValidationError, match=f"channel {channels[record]} outside "
                                                  rf"0-255 \(record {record}\)"):
            TimestampStream(np.array(channels), np.arange(len(channels)))

    @pytest.mark.parametrize("codes,record", [([1, 4, 2], 1), ([0, 1], 0), ([3, 3, 255], 2)])
    def test_unknown_origin_code_names_record(self, codes, record):
        # export and import both know only the codes of _ORIGIN_CODE
        with pytest.raises(ValidationError, match=f"bad origin code {codes[record]} "
                                                  rf"\(record {record}\)"):
            TimestampStream(np.zeros(len(codes)), np.arange(len(codes)), origins=codes)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
class TestRoundTrip:
    def test_plain(self, fmt, tmp_path):
        s = small_stream()
        path = tmp_path / f"s.{fmt}"
        export_stream(s, path, fmt)
        back = import_stream(path)
        assert np.array_equal(back.timestamps_ps, s.timestamps_ps)
        assert np.array_equal(back.channels, s.channels)
        assert back.origins is None  # truth stripped by default

    def test_with_truth(self, fmt, tmp_path):
        s = small_stream()
        path = tmp_path / f"t.{fmt}"
        export_stream(s, path, fmt, include_truth=True)
        back = import_stream(path)
        assert np.array_equal(back.origins, s.origins)

    def test_empty(self, fmt, tmp_path):
        s = TimestampStream(np.zeros(0, np.uint8), np.zeros(0, np.int64))
        path = tmp_path / f"e.{fmt}"
        export_stream(s, path, fmt)
        assert len(import_stream(path)) == 0


class TestImportEdgeCases:
    def test_unsorted_csv_sorts_and_warns(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("channel,timestamp_ps\n0,500\n0,100\n1,300\n")
        with pytest.warns(UserWarning, match="not sorted"):
            back = import_stream(path)
        assert list(back.timestamps_ps) == [100, 300, 500]

    def test_unsorted_binary_sorts_and_warns(self, tmp_path):
        records = np.zeros(3, dtype=_REC_V1)
        records["channel"] = [1, 0, 1]
        records["timestamp"] = [500, 100, 300]
        path = tmp_path / "u.ctts"
        path.write_bytes(_HEADER.pack(MAGIC, 1, 3) + records.tobytes())
        with pytest.warns(UserWarning, match="not sorted"):
            back = import_stream(path)
        assert list(back.timestamps_ps) == [100, 300, 500]
        assert list(back.channels) == [0, 1, 1]
        assert back.timestamps_ps.dtype == np.int64
        assert back.timestamps_ps.flags.c_contiguous

    def test_sorted_binary_duration_and_range(self, tmp_path):
        records = np.zeros(3, dtype=_REC_V1)
        records["timestamp"] = [100, 300, 500]
        path = tmp_path / "s.ctts"
        path.write_bytes(_HEADER.pack(MAGIC, 1, 3) + records.tobytes())
        assert list(import_stream(path).timestamps_ps) == [100, 300, 500]
        records["timestamp"] = [2**63 + 5, 2**63 + 6, 2**63 + 7]  # negative as int64
        path.write_bytes(_HEADER.pack(MAGIC, 1, 3) + records.tobytes())
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*nonnegative"):
            import_stream(path)

    def test_negative_csv_stamp_names_the_path(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("channel,timestamp_ps\n0,-5\n0,7\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*nonnegative"):
            import_stream(path)

    def test_bad_binary_origin_code_names_path_and_record(self, tmp_path):
        records = np.zeros(3, dtype=_REC_V2)
        records["origin"] = [1, 4, 2]
        records["timestamp"] = [1, 2, 3]
        path = tmp_path / "o.ctts"
        path.write_bytes(_HEADER.pack(MAGIC, 2, 3) + records.tobytes())
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: bad origin code 4 "
                                             r"\(record 1\)"):
            import_stream(path)

    @pytest.mark.parametrize("header", ["channel,timestamp_ps,foo",
                                        "channel,timestamp_ps,origin,extra"])
    def test_header_must_be_a_stream_header(self, tmp_path, header):
        # such a third column was once dropped without a word
        path = tmp_path / "h.csv"
        path.write_text(f"{header}\n0,100,7\n")
        with pytest.raises(ParseError, match="bad CSV header"):
            import_stream(path)

    @pytest.mark.parametrize("text,index", [
        ("channel,timestamp_ps\n0,100\n0,200,7\n", 1),
        ("channel,timestamp_ps\n0,100,7\n0,200,7\n", 0),
        ("channel,timestamp_ps\n5\n7\n", 0),
        ("channel,timestamp_ps,origin\n0,100,XX,1\n", 0),
        ("channel,timestamp_ps,origin\n0,100,XX\n0,200\n", 1),
    ], ids=["plain_long", "plain_all_long", "plain_short", "origin_long", "origin_short"])
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
        for k, body in enumerate(("", "0,5\n1,9\n")):
            paths.append(tmp_path / f"s{k}.csv")
            paths[-1].write_text("channel,timestamp_ps\n" + body)
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

    def test_malformed_csv_reports_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,timestamp_ps\n0,100\n0,oops\n")
        with pytest.raises(ParseError) as err:
            import_stream(path)
        assert err.value.record_index == 1

    @pytest.mark.parametrize("data,index", [
        (b"channel,timestamp_ps\n0,100\n# note\n0,200\n", 1),
        (b"channel,timestamp_ps\n# note\n", 0),
        (b"channel,timestamp_ps\n0,100\n0,2\xff0\n", 1),
        (b"channel,timestamp_ps,origin\n0,100,XX\n0,200,X\x80\n", 1),
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
        s = TimestampStream(rng.integers(0, 256, n), np.arange(n) * 7,
                            origins=rng.integers(1, 4, n), _sorted=True)
        for truth in (False, True):
            export_stream(s, tmp_path / "s.csv", "csv", include_truth=truth)
            rows = [f"{c},{t}" + (f",{_CODE_ORIGIN[o]}" if truth else "")
                    for c, t, o in zip(s.channels, s.timestamps_ps, s.origins)]
            header = "channel,timestamp_ps" + (",origin" if truth else "")
            assert (tmp_path / "s.csv").read_text() == "\n".join([header, *rows]) + "\n"

    @pytest.mark.parametrize("text", [
        "channel,timestamp_ps\n0,100\n256,200\n",
        "channel,timestamp_ps,origin\n0,100,XX\n256,200,X\n",
    ], ids=["plain", "origin"])
    def test_channel_outside_u8_reports_record(self, tmp_path, text):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="channel 256") as err:
            import_stream(path)
        assert err.value.record_index == 1

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


# SHA-256 of the exported file. The binary digests were recorded when export
# converted the timestamps to uint64 in a temporary and wrote records.tobytes();
# the CSV ones when export wrote plain rows with np.savetxt and truth rows one
# at a time.
@pytest.mark.parametrize("fmt,include_truth,digest", [
    ("binary", False, "29187d9602fe181bb36bfdc2be7a5d1702c7e4224da39d81057b8b845e77b8dc"),
    ("binary", True, "fcd0c77f655abf8d8d71856c399dea955aa301fe0e857b6453043bb98017dff1"),
    ("csv", False, "122a3897818d022de864bb6ec55695deceeabbdf61c63825f8d269d8393fbd54"),
    ("csv", True, "319abbc34d8ffed8d359429141dd75a0d298ff13b61c64a871eda0b23d21b361"),
], ids=["v1", "v2-truth", "csv", "csv-truth"])
def test_simulated_export_is_pinned(tmp_path, fmt, include_truth, digest):
    cfg = EmitterConfig(setup_efficiency=0.6, detector_efficiency=0.7,
                        background_rate=2e5, jitter_sigma=35.0)
    xx, _ = simulate_projection_run(cfg, "DA", 20_000, seed=13)
    path = tmp_path / "xx.dat"
    export_stream(xx, path, fmt, include_truth=include_truth)
    data = path.read_bytes()
    if fmt == "binary":
        assert _HEADER.unpack(data[:_HEADER.size]) == (MAGIC, 2 if include_truth else 1,
                                                       len(xx))
    assert hashlib.sha256(data).hexdigest() == digest
