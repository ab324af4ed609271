import json

import numpy as np
import pytest

from conftest import make_input
from qdcascade import PHI_PLUS, Histogram, ParseError, ValidationError, density_of
from qdcascade.io import (dump_json, read_binned_csv, read_histogram_csv,
                          read_projection_csv, round_floats, round_sig,
                          write_binned_csv, write_histogram_csv,
                          write_projection_csv)
from qdcascade.tomography import ProjectionRecord, TomographyInput


class TestRounding:
    def test_round_sig(self):
        assert round_sig(0.123456789012345678, 12) == 0.123456789012
        assert round_sig(1.0, 12) == 1.0
        assert round_sig("text", 12) == "text"
        assert round_sig(float("nan"), 12) != round_sig(float("nan"), 12)  # nan stays nan

    def test_round_floats_recurses(self):
        obj = {"a": [1.23456789012345678, {"b": 2.0}], "c": None, "d": True}
        out = round_floats(obj, 6)
        assert out["a"][0] == 1.23457
        assert out["a"][1]["b"] == 2.0
        assert out["c"] is None and out["d"] is True

    def test_dump_json_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json({"z": 1.0, "a": [3.0]}, p1, digits=12)
        dump_json({"a": [3.0], "z": 1.0}, p2, digits=12)
        assert p1.read_bytes() == p2.read_bytes()


class TestProjectionCsv:
    def test_round_trip(self, tmp_path):
        inp = make_input(density_of(PHI_PLUS), 1e4, 16)
        path = tmp_path / "counts.csv"
        write_projection_csv(inp, path)
        back = read_projection_csv(path)
        assert [r.basis_pair for r in back.records] == [r.basis_pair for r in inp.records]
        assert [r.counts for r in back.records] == [r.counts for r in inp.records]

    def test_round_trip_is_exact(self, tmp_path):
        # six significant digits once turned 1,506,172 into 1,506,170
        records = list(make_input(density_of(PHI_PLUS), 1e4, 16).records)
        for k, (counts, weight) in enumerate([(1_506_172.0, 1.0), (37.0, 2.0 / 3.0),
                                              (123_456_789_012.0, 0.1)]):
            records[k] = ProjectionRecord(records[k].basis_pair, counts, weight)
        path = tmp_path / "counts.csv"
        write_projection_csv(TomographyInput(records), path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[1:] == ["1506172", "1"]
        assert lines[2].split(",")[1:] == ["37", "0.66666666666666663"]
        assert read_projection_csv(path).records == tuple(records)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\nHH,1\n")
        with pytest.raises(ParseError):
            read_projection_csv(path)

    def test_bad_row_indexed(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["basis,counts,weight"] + [f"{p},10,1" for p in
                ("HH", "HV", "HD", "HR", "VH", "VV", "VD", "VR",
                 "DH", "DV", "DD", "DR", "RH", "RV")] + ["RD,x,1", "RR,10,1"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_projection_csv(path)
        assert err.value.record_index == 14


class TestBinnedCsv:
    def test_round_trip(self, tmp_path):
        hists = {
            "HH": Histogram(100.0, 0.0, np.array([5, 6, 7])),
            "VV": Histogram(100.0, 0.0, np.array([1, 2, 3])),
        }
        path = tmp_path / "binned.csv"
        write_binned_csv(hists, path)
        back = read_binned_csv(path)
        assert set(back) == {"HH", "VV"}
        assert np.array_equal(back["HH"].counts, [5, 6, 7])
        assert back["VV"].bin_width == 100.0

    def test_mismatched_grids_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "basis,bin_start_ps,counts\nHH,0,1\nHH,100,2\nVV,0,1\nVV,50,2\n"
        )
        with pytest.raises(ValidationError, match="differs|uniform"):
            read_binned_csv(path)


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        h = Histogram(50.0, -200.0, np.array([1, 0, 3, 2, 93, 2, 1, 0]))
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        back = read_histogram_csv(path)
        assert back.bin_width == 50.0
        assert back.origin == -200.0
        assert np.array_equal(back.counts, h.counts)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("bin_start_ps,counts\n0,1\n100,2\n250,3\n")
        with pytest.raises(ValidationError, match="uniform"):
            read_histogram_csv(path)


@pytest.mark.parametrize("reader,header,row", [
    (read_projection_csv, "basis,counts", "HH,1"),
    (read_projection_csv, "basis,counts,weight,extra", "HH,1,1"),
    (read_binned_csv, "basis,bin_start_ps,counts,weight", "HH,0,1"),
    (read_histogram_csv, "bin_start_ps,counts,weight", "0,1"),
], ids=["projection_short", "projection_long", "binned", "histogram"])
def test_header_must_match_exactly(tmp_path, reader, header, row):
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ParseError, match="bad header"):
        reader(path)
