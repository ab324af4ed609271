import json
import re

import numpy as np
import pytest

from conftest import make_input, write_tomo_csv
from qdcascade import PHI_PLUS, Histogram, ParseError, ValidationError, density_of
from qdcascade.io import (dump_json, read_binned_csv, read_histogram_csv, read_json,
                          read_projection_csv, read_xy_csv, round_floats, round_sig,
                          write_histogram_csv)
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
        write_tomo_csv(path, inp)
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
        write_tomo_csv(path, TomographyInput(records))
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

    @pytest.mark.parametrize("row", ["HV,100", "HV,100,2,oops"], ids=["short", "long"])
    def test_row_must_have_three_fields(self, tmp_path, row):
        # these once read as weight 1 and as weight 2 with the extra field dropped
        path = tmp_path / "counts.csv"
        write_tomo_csv(path, make_input(density_of(PHI_PLUS), 1e4, 16))
        lines = path.read_text().splitlines()
        lines[3] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="values to unpack") as err:
            read_projection_csv(path)
        assert err.value.record_index == 2


@pytest.mark.parametrize("reader,text", [
    (read_projection_csv, "basis,counts,weight\nHH ,10,1\n"),
    (read_binned_csv, "basis,bin_start_ps,counts\nHH ,0,1\nHH ,100,2\n"),
], ids=["projection", "binned"])
def test_basis_label_is_read_as_written(tmp_path, reader, text):
    # the projection reader once stripped the label and the binned one did not
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="basis pair must be two letters, got 'HH '") as err:
        reader(path)
    assert err.value.record_index == 0


class TestBinnedCsv:
    def test_round_trip(self, tmp_path):
        hists = {
            "HH": Histogram(100.0, 0.0, np.array([5, 6, 7])),
            "VV": Histogram(100.0, 0.0, np.array([1, 2, 3])),
        }
        path = tmp_path / "binned.csv"
        write_tomo_csv(path, hists)
        back = read_binned_csv(path)
        assert set(back) == {"HH", "VV"}
        assert np.array_equal(back["HH"].counts, [5, 6, 7])
        assert back["VV"].bin_width == 100.0

    def test_bad_label_names_its_row(self, tmp_path):
        # a label no pair matches was once read as a series of its own
        path = tmp_path / "bad.csv"
        path.write_text("basis,bin_start_ps,counts\nHH,0,1\nHH,100,2\nHQ,0,1\nHQ,100,2\n")
        with pytest.raises(ParseError, match="unknown polarization label 'Q'") as err:
            read_binned_csv(path)
        assert err.value.record_index == 2

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

    @pytest.mark.parametrize("width,origin", [(1 / 3, 0.0), (1 / 3, 12345.25), (0.1, 12345.25),
                                              (50.0, -68750.0)])
    def test_round_trip_is_exact(self, tmp_path, width, origin):
        # six significant digits once wrote 12345.25 as 12345.2 and made a
        # 1/3 ps grid nonuniform
        h = Histogram(width, origin, np.arange(9))
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        starts = [float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        assert starts == h.bin_starts.tolist()
        back = read_histogram_csv(path)
        assert back.origin == origin
        assert back.bin_width == pytest.approx(width, rel=1e-9)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("bin_start_ps,counts\n0,1\n100,2\n250,3\n")
        with pytest.raises(ValidationError, match="uniform"):
            read_histogram_csv(path)


@pytest.mark.parametrize("reader,text", [
    (read_histogram_csv, "bin_start_ps,counts\n-inf,1\n100,2\n200,3\n"),
    (read_binned_csv, "basis,bin_start_ps,counts\nHH,-inf,1\nHH,100,2\nHH,200,3\n"),
], ids=["histogram", "binned"])
def test_non_finite_bin_start_names_the_file(tmp_path, reader, text):
    path = tmp_path / "h.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: bin_start_ps .*finite"):
        reader(path)


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


class TestXyCsv:
    def test_reads_the_first_two_columns_under_any_header(self, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("angle_rad,energy_uev,note\n0,1.5,a\n\n0.5, 2.5,b\n")
        x, y = read_xy_csv(path)
        assert np.array_equal(x, [0.0, 0.5]) and np.array_equal(y, [1.5, 2.5])

    @pytest.mark.parametrize("text,index", [("x,y\n1,2\n# note\n3,4\n", 1),
                                            ("x,y\n1,2\n3\n", 1)],
                             ids=["comment", "one_column"])
    def test_bad_row_is_indexed(self, tmp_path, text, index):
        path = tmp_path / "xy.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_xy_csv(path)
        assert err.value.record_index == index


@pytest.mark.parametrize("data", [b"{not json", b"\xff\xfe\x00garbage\x80", None],
                         ids=["not_json", "not_utf8", "missing"])
def test_read_json_names_the_path(tmp_path, data):
    path = tmp_path / "doc.json"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(ValidationError, match=f"cannot read {re.escape(str(path))}"):
        read_json(path)
