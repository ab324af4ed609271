import numpy as np
import pytest

from qdcascade import ParseError, TimestampStream, export_stream, import_stream
from qdcascade.simulate import EmitterConfig, simulate_projection_run
from qdcascade.streams import _ORIGIN_CODE


def small_stream():
    return TimestampStream(
        channels=np.array([0, 0, 0], dtype=np.uint8),
        timestamps_ps=np.array([120, 5, 999], dtype=np.int64),
        duration_ps=1000.0,
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
            TimestampStream(np.array([0]), np.array([-5]), 10.0)
        with pytest.raises(Exception):
            TimestampStream(np.array([0]), np.array([50]), 10.0)

    def test_without_truth(self):
        s = small_stream().without_truth()
        assert s.origins is None


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
        s = TimestampStream(np.zeros(0, np.uint8), np.zeros(0, np.int64), 0.0)
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

    def test_malformed_csv_reports_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,timestamp_ps\n0,100\n0,oops\n")
        with pytest.raises(ParseError) as err:
            import_stream(path)
        assert err.value.record_index == 1

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
            import_stream(path, fmt="binary")

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
