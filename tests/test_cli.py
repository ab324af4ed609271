import hashlib
import json
import os
import re
import warnings

import numpy as np
import pytest

from conftest import make_input, rho_from_dict, write_tomo_csv
from qdcascade import (PHI_PLUS, Correction, Histogram, bootstrap_metrics, concurrence,
                       density_of, fidelity, import_stream, time_evolved_state)
from qdcascade import pipeline, pool
from qdcascade.correlations import cross_correlate
from qdcascade.cli import main
from qdcascade.config import RunConfig, apply_overrides, load_config
from qdcascade.errors import FitError, ParseError, ValidationError
from qdcascade.io import read_projection_csv, write_histogram_csv
from qdcascade.pipeline import cmd_report, cmd_simulate, cmd_tomo
from qdcascade.polarization import tomography_bases
from qdcascade.simulate import EmitterConfig, simulate_autocorrelation_run
from qdcascade.tomography import TomographyInput, expected_probability


def write_config(tmp_path, n_pulses=20_000, seed=7, **tomo):
    cfg = {
        "emitter": {"setup_efficiency": 1.0, "detector_efficiency": 1.0},
        "tomography": {"bin_width_ps": 100.0, "max_delay_ps": 4000.0, **tomo},
        "simulation": {"n_pulses": n_pulses, "seed": seed},
        "io": {"output_dir": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def binned_histograms(n_bins=5):
    """Poisson counts of the cascade state in 100 ps bins, one histogram per pair."""
    rng = np.random.default_rng(4)
    hists = {}
    for label, a, b in tomography_bases(36):
        counts = [
            rng.poisson(3e4 * expected_probability(
                density_of(time_evolved_state(4.65, (k + 0.5) * 100.0)), (a, b)))
            for k in range(n_bins)
        ]
        hists[label] = Histogram(100.0, 0.0, np.array(counts))
    return hists


#: tomo_meta.json of a single-set (--counts) run as written before single-set
#: bins carried a time bin: bin_start_ps and bin_width_ps are null.
NULL_BIN_META = {
    "bins": [{
        "bin_start_ps": None, "bin_width_ps": None, "total_counts": 209279.0,
        "fidelity": 0.4000863078743362, "fidelity_std": 0.0009080526275768114,
        "concurrence": 0.9999875026786891, "concurrence_std": 0.0007662941355315991,
        "converged": True, "iterations": 79, "rho_file": "bins/bin_0000.json",
    }],
    "config": {"tomography": {"basis_count": 36, "max_delay_ps": 4000.0}},
    "extra_outputs": [],
    "skipped_bins": [],
    "toolkit_version": "0.1.0",
}


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.tomography.basis_count == 36
        assert cfg.emitter.fss == 4.65

    def test_overrides(self):
        data = apply_overrides({}, ["emitter.fss=2.5", "tomography.basis_count=16",
                                    "io.output_dir=elsewhere"])
        cfg = RunConfig.from_dict(data)
        assert cfg.emitter.fss == 2.5
        assert cfg.tomography.basis_count == 16
        assert cfg.io.output_dir == "elsewhere"

    def test_seed_env_var(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, seed=1)
        monkeypatch.setenv("CASCADE_TOMO_SEED", "12345")
        cfg = load_config(path)
        assert cfg.simulation.seed == 12345

    def test_seed_required_with_pulses(self):
        with pytest.raises(ValidationError, match="seed"):
            RunConfig.from_dict({"simulation": {"n_pulses": 10}})

    def test_unknown_section(self):
        with pytest.raises(ValidationError, match="unknown"):
            RunConfig.from_dict({"simulatr": {}})

    def test_bad_override_format(self):
        with pytest.raises(ValidationError):
            apply_overrides({}, ["emitter.fss"])

    @pytest.mark.parametrize("formats", [[], ["csv", "binary"]])
    def test_formats_must_hold_one_entry(self, tmp_path, capsys, formats):
        with pytest.raises(ValidationError, match="exactly one"):
            RunConfig.from_dict({"io": {"formats": formats}})
        path = write_config(tmp_path, n_pulses=2000)
        rc = main(["simulate", "--config", str(path), "--set",
                   f"io.formats={json.dumps(formats)}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    def test_manifest_and_files(self, tmp_path):
        path = write_config(tmp_path, n_pulses=2000)
        rc = main(["simulate", "--config", str(path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["files"]) == 36
        for entry in manifest["files"]:
            stream_path = tmp_path / "out" / entry["xx_file"]
            assert stream_path.exists()
            assert len(import_stream(stream_path)) == entry["xx_records"]

    def test_zero_pulses(self, tmp_path):
        path = write_config(tmp_path, n_pulses=0, seed=None)
        rc = main(["simulate", "--config", str(path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert all(e["xx_records"] == 0 and e["x_records"] == 0
                   for e in manifest["files"])

    def test_truth_flag(self, tmp_path):
        path = write_config(tmp_path, n_pulses=2000)
        main(["simulate", "--config", str(path), "--truth",
              "--out", str(tmp_path / "truth_out")])
        stream = import_stream(tmp_path / "truth_out" / "streams" / "HH_xx.ctts")
        assert stream.origins is not None

    def test_missing_config_is_validation_error(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc == 1


class TestTomoCommand:
    def test_end_to_end(self, tmp_path):
        cfg_path = write_config(tmp_path, n_pulses=30_000)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        rc = main([
            "tomo", "--config", str(cfg_path),
            "--manifest", str(tmp_path / "out" / "manifest.json"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["max_fidelity"]["value"] > 0.9
        assert (tmp_path / "out" / "metrics_vs_time.csv").exists()
        first_bin = json.loads(
            (tmp_path / "out" / report["bins"][0]["rho_file"]).read_text()
        )
        assert set(first_bin) == {
            "bin_start_ps", "bin_width_ps", "rho", "fidelity", "concurrence",
            "fidelity_std", "concurrence_std", "converged",
        }
        # every emitted file is accounted for in the report
        listed = set(report["outputs"])
        on_disk = set()
        for dirpath, _, files in os.walk(tmp_path / "out"):
            for f in files:
                rel = os.path.relpath(os.path.join(dirpath, f), tmp_path / "out")
                on_disk.add(rel.replace(os.sep, "/"))
        on_disk -= {"manifest.json"}  # simulate output, listed there
        on_disk -= {e["xx_file"] for e in json.loads(
            (tmp_path / "out" / "manifest.json").read_text())["files"]}
        on_disk -= {e["x_file"] for e in json.loads(
            (tmp_path / "out" / "manifest.json").read_text())["files"]}
        assert on_disk == listed

    def test_binned_csv_input(self, tmp_path):
        csv = tmp_path / "binned.csv"
        write_tomo_csv(csv, binned_histograms())
        cfg_path = write_config(tmp_path, n_pulses=0, seed=None)
        rc = main(["tomo", "--config", str(cfg_path), "--binned", str(csv)])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["bins"]) == 5
        assert report["bins"][0]["fidelity"] > 0.95

    def test_counts_csv_single_bin(self, tmp_path):
        inp = make_input(density_of(PHI_PLUS), 1e5, 36)
        csv = tmp_path / "counts.csv"
        write_tomo_csv(csv, inp)
        cfg_path = write_config(tmp_path, n_pulses=0, seed=None)
        rc = main(["tomo", "--config", str(cfg_path), "--counts", str(csv)])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["bins"]) == 1
        assert report["bins"][0]["fidelity"] > 0.999

    def test_counts_csv_bootstrap_matches_bootstrap_metrics(self, tmp_path):
        weights = {label: 1.5 for label, _, _ in tomography_bases(36) if label[0] in "DR"}
        inp = make_input(density_of(time_evolved_state(4.65, 250.0)), 2e4, 36,
                         rng=np.random.default_rng(11), weights=weights)
        # sorted basis order is the order every bin is reconstructed in
        csv = tmp_path / "counts.csv"
        write_tomo_csv(csv, TomographyInput(sorted(inp.records, key=lambda r: r.basis_pair)))
        cfg_path = write_config(tmp_path, n_pulses=0, seed=None, bootstrap_samples=4)
        assert main(["tomo", "--config", str(cfg_path), "--counts", str(csv)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (b,) = report["bins"]
        assert (b["bin_start_ps"], b["bin_width_ps"]) == (0.0, 4000.0)
        saved = json.loads((tmp_path / "out" / b["rho_file"]).read_text())

        fid, conc = bootstrap_metrics(
            read_projection_csv(csv), 4,
            lambda r: (fidelity(Correction().apply(r), PHI_PLUS),
                       concurrence(Correction().apply(r))),
            seed=7000,
        )
        assert saved["fidelity_std"] == fid.std
        assert saved["concurrence_std"] == conc.std

    def test_counts_csv_respects_min_counts(self, tmp_path):
        inp = make_input(density_of(PHI_PLUS), 1e3, 36)
        csv = tmp_path / "counts.csv"
        write_tomo_csv(csv, inp)
        cfg_path = write_config(tmp_path, n_pulses=0, seed=None,
                                min_counts_per_bin=inp.total_counts + 1)
        report = cmd_tomo(load_config(cfg_path), counts_csv=str(csv))
        assert report["bins"] == []
        assert report["skipped_bins"] == [
            {"bin_start_ps": 0.0, "bin_width_ps": 4000.0, "total_counts": inp.total_counts}
        ]

    def test_binned_csv_bootstrap_is_deterministic(self, tmp_path):
        csv = tmp_path / "binned.csv"
        write_tomo_csv(csv, binned_histograms(3))
        cfg_path = write_config(tmp_path, n_pulses=0, seed=None, bootstrap_samples=3)
        for out in ("a", "b"):
            assert main(["tomo", "--config", str(cfg_path), "--binned", str(csv),
                         "--out", str(tmp_path / out)]) == 0
        first = (tmp_path / "a" / "report.json").read_bytes()
        assert (tmp_path / "b" / "report.json").read_bytes() == first
        assert all(b["fidelity_std"] is not None for b in json.loads(first)["bins"])

    @pytest.mark.parametrize("n_pairs", [16, 35])
    @pytest.mark.parametrize("source", ["--counts", "--binned"])
    def test_wrong_pair_count_exits_1(self, tmp_path, capsys, source, n_pairs):
        hists = dict(list(binned_histograms(2).items())[:n_pairs])
        csv = tmp_path / "input.csv"
        if source == "--counts":
            csv.write_text("basis,counts,weight\n" + "".join(
                f"{label},{h.counts[0]},1\n" for label, h in hists.items()))
        else:
            write_tomo_csv(csv, hists)
        cfg_path = write_config(tmp_path, n_pulses=0, seed=None)
        assert main(["tomo", "--config", str(cfg_path), source, str(csv)]) == 1
        assert f"{n_pairs}" in capsys.readouterr().err

    def test_missing_pair_named(self, tmp_path):
        cfg_path = write_config(tmp_path, n_pulses=2000)
        config = load_config(cfg_path)
        cmd_simulate(config)
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"] = [e for e in manifest["files"] if e["basis"] != "DR"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="DR"):
            cmd_tomo(config, manifest=str(manifest_path))

    def test_stream_with_a_channel_field_exits_1(self, tmp_path, capsys):
        # version 1 files held (channel u8, timestamp u64) records
        cfg_path = write_config(tmp_path, n_pulses=2000)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 0
        stream = tmp_path / "sim" / "streams" / "HH_xx.ctts"
        stream.write_bytes(b"CTTS" + (1).to_bytes(4, "little") + (1).to_bytes(8, "little")
                           + bytes(9))
        out = tmp_path / "tomo"
        assert main(["tomo", "--config", str(cfg_path), "--manifest",
                     str(tmp_path / "sim" / "manifest.json"), "--out", str(out)]) == 1
        assert f"{stream}: unsupported version 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_a_validation_error(self, tmp_path):
        config = load_config(write_config(tmp_path, n_pulses=2000))
        with pytest.raises(ValidationError, match="cannot read .*missing.json"):
            cmd_tomo(config, manifest=str(tmp_path / "missing.json"))

    def test_nonzero_correction_rotates_reconstructions(self, tmp_path):
        cfg_path = write_config(tmp_path, n_pulses=25_000)
        config = load_config(cfg_path)
        cmd_simulate(config)
        manifest = str(tmp_path / "out" / "manifest.json")
        raw = cmd_tomo(config, manifest=manifest, out_dir=str(tmp_path / "raw"))
        data = config.to_dict()
        data["tomography"]["correction"] = {"theta": 0.3, "phi": -0.5, "arms": "both"}
        rotated = cmd_tomo(RunConfig.from_dict(data), manifest=manifest,
                           out_dir=str(tmp_path / "rot"))
        c = Correction(0.3, -0.5, "both")
        for b_raw, b_rot in zip(raw["bins"], rotated["bins"]):
            rho_raw = rho_from_dict(json.loads(
                (tmp_path / "raw" / b_raw["rho_file"]).read_text())["rho"])
            rho_rot = rho_from_dict(json.loads(
                (tmp_path / "rot" / b_rot["rho_file"]).read_text())["rho"])
            expected = c.apply(rho_raw)
            assert np.max(np.abs(rho_rot - expected)) < 1e-12
            # a local unitary moves fidelity but not concurrence
            assert b_rot["concurrence"] == pytest.approx(b_raw["concurrence"], abs=1e-9)
        assert rotated["max_fidelity"]["value"] < raw["max_fidelity"]["value"]

    def test_correction_preserves_report_when_identity(self, tmp_path):
        cfg_path = write_config(tmp_path, n_pulses=20_000)
        config = load_config(cfg_path)
        cmd_simulate(config)
        r1 = cmd_tomo(config, manifest=str(tmp_path / "out" / "manifest.json"),
                      out_dir=str(tmp_path / "t1"))
        data = config.to_dict()
        data["tomography"]["correction"] = {"theta": 0.0, "phi": 0.0, "arms": "both"}
        r2 = cmd_tomo(RunConfig.from_dict(data),
                      manifest=str(tmp_path / "out" / "manifest.json"),
                      out_dir=str(tmp_path / "t2"))
        assert r1["bins"] == r2["bins"]

    def test_report_regeneration_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, n_pulses=20_000)
        config = load_config(cfg_path)
        cmd_simulate(config)
        cmd_tomo(config, manifest=str(tmp_path / "out" / "manifest.json"))
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["report", "--dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_report_rebuilds_null_bin_meta(self, tmp_path):
        (tmp_path / "tomo_meta.json").write_text(json.dumps(NULL_BIN_META))
        report = cmd_report(str(tmp_path))
        assert report["max_fidelity"]["bin_start_ps"] is None
        # digests of the files this meta rebuilt into before the change
        digests = {
            "report.json": "23baa77ca47d4f42d6242635ba3ec6268cb807c4421faf0172d3386aa0c946f5",
            "metrics_vs_time.csv":
                "58feff6bb49315a1e349dc2062e10a4fda534e9bc1526be98499998671f45a59",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_requires_exactly_one_source(self, tmp_path):
        cfg_path = write_config(tmp_path, n_pulses=0, seed=None)
        with pytest.raises(ValidationError):
            cmd_tomo(load_config(cfg_path))

    def test_bootstrap_uncertainties_in_report(self, tmp_path):
        config = RunConfig.from_dict({
            "tomography": {"min_counts_per_bin": 2000, "max_delay_ps": 2000.0,
                           "bootstrap_samples": 4},
            "simulation": {"n_pulses": 40_000, "seed": 3},
            "io": {"output_dir": str(tmp_path / "boot")},
        })
        cmd_simulate(config)
        report = cmd_tomo(config, manifest=str(tmp_path / "boot" / "manifest.json"))
        assert report["bins"]
        for b in report["bins"]:
            assert b["fidelity_std"] is not None and 0 <= b["fidelity_std"] < 0.2
            assert b["concurrence_std"] is not None
        # deterministic given the config seed
        report2 = cmd_tomo(config, manifest=str(tmp_path / "boot" / "manifest.json"),
                           out_dir=str(tmp_path / "boot2"))
        assert report["bins"] == report2["bins"]

    def test_oscillation_fit_failure_gives_null(self, monkeypatch):
        meta = {**NULL_BIN_META, "bins": [
            {**NULL_BIN_META["bins"][0], "bin_start_ps": 100.0 * k, "bin_width_ps": 100.0}
            for k in range(8)]}

        def failing(*args, **kwargs):
            raise FitError("no convergence")

        monkeypatch.setattr(pipeline, "fit_model", failing)
        assert pipeline.build_report(meta)["fits"]["fidelity_oscillation"] is None

        def broken(*args, **kwargs):
            raise RuntimeError("a programming error")

        monkeypatch.setattr(pipeline, "fit_model", broken)
        with pytest.raises(RuntimeError):
            pipeline.build_report(meta)

    def test_csv_stream_format_round_trips(self, tmp_path):
        config = RunConfig.from_dict({
            "tomography": {"max_delay_ps": 3000.0},
            "simulation": {"n_pulses": 15_000, "seed": 9},
            "io": {"output_dir": str(tmp_path / "csvfmt"), "formats": ["csv"]},
        })
        cmd_simulate(config)
        manifest = json.loads((tmp_path / "csvfmt" / "manifest.json").read_text())
        assert manifest["files"][0]["xx_file"].endswith(".csv")
        report = cmd_tomo(config, manifest=str(tmp_path / "csvfmt" / "manifest.json"))
        assert report["max_fidelity"]["value"] > 0.9

    def test_zero_splitting_gives_flat_fidelity(self, tmp_path):
        config = RunConfig.from_dict({
            "emitter": {"fss": 0.0},
            "tomography": {"min_counts_per_bin": 1000, "max_delay_ps": 4000.0},
            "simulation": {"n_pulses": 150_000, "seed": 5},
            "io": {"output_dir": str(tmp_path / "flat")},
        })
        cmd_simulate(config)
        report = cmd_tomo(config, manifest=str(tmp_path / "flat" / "manifest.json"))
        fids = [b["fidelity"] for b in report["bins"]]
        assert len(fids) >= 20
        assert min(fids) >= 0.99


def file_digests(root):
    """SHA-256 of every file under ``root``, keyed by its relative path."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


#: sha256 of the tomo outputs of one corrected, bootstrapped run per ``arms``
#: value: 40,000 pulses at seed 17, 3 resamples per bin, correction (0.3, -0.5).
#: "bins" hashes every bins/*.json file, in name order.
PINNED_TOMO_DIGESTS = {
    "both": {
        "report.json": "6b56c15b740a705dc3458a55613b62e375a1b016df0ad9b2a2383ea85f3141ca",
        "tomo_meta.json": "2ef13d8b3d409fca585e45d234561cf6086255feb072491035a16aa71f01076f",
        "metrics_vs_time.csv": "ecfd38d01cca37f8bc13bc3d8c0463e47426c8f1f55c35cc250e12ea43ed04b3",
        "bins": "3d57ae856dec3310fb3194fcc3500da9c00a91eed65e73285763bf2a95b03343",
    },
    "xx_only": {
        "report.json": "b3913f474425ac4b0b98f7808aa0994e0b5fdb41955e0ee9c79301bca139dea0",
        "tomo_meta.json": "a410b6120163bb024e782ce544a5cfffb8eabeba56ec2f0b80aeff0bd9b1dd4b",
        "metrics_vs_time.csv": "417fe00a056ee994df2d4d86e38735b2622ff1d92be6307dbf62710180b041df",
        "bins": "994dbde6fe09125218a47f051f355ffaf838fc308aec52e5433925c7d0ce9dc7",
    },
    "x_only": {
        "report.json": "616c7cf4a974aa393fad82b82cdc2627117c3cb08f6cf75e9eb9deafd63a1d90",
        "tomo_meta.json": "d4b5e3336f6c1a4043468889e0e04d4ae5047bec79227b75801a0e91ea0f2b92",
        "metrics_vs_time.csv": "c9cab9ba171697ac5194fccd42769f9bac46b14b387cfc3c130a353aeebfeca3",
        "bins": "7bde02664cb6f946baed505c5f3fac5f09f7e0c4df9f9801469aaa069fbe62ad",
    },
}


@pytest.mark.parametrize("arms", sorted(PINNED_TOMO_DIGESTS))
def test_corrected_bootstrap_run_is_pinned(tmp_path, arms):
    config = RunConfig.from_dict({
        "tomography": {"max_delay_ps": 2000.0, "min_counts_per_bin": 200,
                       "bootstrap_samples": 3,
                       "correction": {"theta": 0.3, "phi": -0.5, "arms": arms}},
        "simulation": {"n_pulses": 40_000, "seed": 17},
    })
    out = tmp_path / "run"
    cmd_tomo(config, manifest=cmd_simulate(config, str(out)), out_dir=str(out))
    bins = hashlib.sha256()
    for path in sorted((out / "bins").iterdir()):
        bins.update(path.read_bytes())
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("report.json", "tomo_meta.json", "metrics_vs_time.csv")}
    assert {**digests, "bins": bins.hexdigest()} == PINNED_TOMO_DIGESTS[arms]


class TestWorkerPool:
    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, n_pulses=20_000))
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "WORKERS", workers)
            out = str(tmp_path / f"workers{workers}")
            cmd_tomo(config, manifest=cmd_simulate(config, out), out_dir=out)
            runs[workers] = file_digests(out)
        assert runs[1] == runs[2]
        paths = list(runs[1])
        assert {"manifest.json", "report.json", "tomo_meta.json"} <= set(paths)
        for folder, count in (("streams", 72), ("histograms", 36)):
            assert sum(p.startswith(folder + os.sep) for p in paths) == count
        assert any(p.startswith("bins" + os.sep) for p in paths)

    def test_error_in_worker_reaches_caller(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pool, "WORKERS", 2)
        cfg_path = write_config(tmp_path, n_pulses=2000)
        manifest = cmd_simulate(load_config(cfg_path))
        entry = json.loads((tmp_path / "out" / "manifest.json").read_text())["files"][20]
        stream = tmp_path / "out" / entry["x_file"]
        stream.write_bytes(stream.read_bytes()[:-5])
        with pytest.raises(ParseError, match=re.escape(str(stream))):
            cmd_tomo(load_config(cfg_path), manifest=manifest)
        assert main(["tomo", "--config", str(cfg_path), "--manifest", manifest]) == 1
        assert str(stream) in capsys.readouterr().err


class TestAnalyzeCommands:
    def test_fss_period(self, capsys):
        assert main(["analyze", "fss-period", "890"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fss_uev"] == pytest.approx(4.6468, abs=1e-3)

    def test_efficiency(self, capsys):
        rc = main(["analyze", "efficiency", "--measured-cps", "40000",
                   "--setup-eff", "0.008", "--detector-eff", "0.5",
                   "--rep-rate", "80"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate_mhz"] == pytest.approx(10.0)
        assert "16.67" in out["note"]

    def test_lifetime(self, tmp_path, capsys):
        x = np.arange(0, 12000, 50.0)
        counts = np.round(800 * np.exp(-x / 2060.0)).astype(int)
        path = tmp_path / "decay.csv"
        write_histogram_csv(Histogram(50.0, 0.0, counts), path)
        rc = main(["analyze", "lifetime", "--histogram", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["tau"] == pytest.approx(2060.0, rel=0.02)

    def test_power(self, tmp_path, capsys):
        x = np.logspace(0, 2, 25)
        y = 2.0 * x**0.78
        path = tmp_path / "power.csv"
        path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)))
        rc = main(["analyze", "power", "--data", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["s"] == pytest.approx(0.78, abs=1e-6)

    def test_fss_sinusoid(self, tmp_path, capsys):
        angles = np.deg2rad(np.arange(0, 360, 5))
        energies = 1000.0 + 2.3 * np.sin(4 * angles + 0.2)
        path = tmp_path / "fss.csv"
        path.write_text("angle_rad,energy_uev\n" +
                        "\n".join(f"{a},{e}" for a, e in zip(angles, energies)))
        rc = main(["analyze", "fss", "--data", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fss_uev"] == pytest.approx(4.6, abs=1e-6)

    def test_fss_harmonic_zero_is_1(self, tmp_path, capsys):
        angles = np.deg2rad(np.arange(0, 360, 5))
        path = tmp_path / "fss.csv"
        path.write_text("angle_rad,energy_uev\n" +
                        "\n".join(f"{a},{1000.0 + np.sin(4 * a)}" for a in angles))
        assert main(["analyze", "fss", "--data", str(path), "--harmonic", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: harmonic must be nonzero") and "Traceback" not in err

    def test_fss_unresolved_harmonic_is_1(self, tmp_path, capsys):
        angles = np.pi / 4 * np.arange(16)
        path = tmp_path / "fss.csv"
        path.write_text("angle_rad,energy_uev\n" +
                        "\n".join(f"{a},{1000.0 + np.sin(4 * a + 0.4)}" for a in angles))
        assert main(["analyze", "fss", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: these angles do not resolve harmonic 4")

    def test_g2(self, tmp_path, capsys):
        # double-exponential peaks every 12.5 ns; the zero-delay peak is 2 %
        period = 12500.0
        x = np.arange(-5.5 * period, 5.5 * period, 50.0) + 25.0
        counts = sum((20.0 if m == 0 else 1000.0) * np.exp(-np.abs(x - m * period) / 1500.0)
                     for m in range(-6, 7))
        path = tmp_path / "g2.csv"
        write_histogram_csv(Histogram(50.0, -5.5 * period, np.round(counts)), path)
        rc = main(["analyze", "g2", "--histogram", str(path), "--rep-period", "12500"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["g2_zero"] == pytest.approx(0.02, abs=0.002)
        assert len(out["side_peak_fwhm"]) == 10
        assert out["window_delta"] == pytest.approx(np.mean(out["side_peak_fwhm"]), rel=1e-9)

    def test_recapture(self, tmp_path, capsys):
        em = EmitterConfig(recapture_probability=0.36)
        a, b = simulate_autocorrelation_run(em, "XX", 300_000, 1)
        path = tmp_path / "center.csv"
        write_histogram_csv(cross_correlate(a, b, 25.0, 4000.0), path)
        rc = main(["analyze", "recapture", "--histogram", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"] == "recapture" and out["converged"]
        assert out["params"]["t_d"] == pytest.approx(em.tau_xx, rel=0.05)
        assert out["params"]["t_c"] == pytest.approx(em.recapture_time, rel=0.15)

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "result.json"
        main(["analyze", "fss-period", "890", "--out", str(dest)])
        capsys.readouterr()
        assert json.loads(dest.read_text())["fss_uev"] == pytest.approx(4.6468, abs=1e-3)


class TestExitCodes:
    def test_validation_error_is_1(self, tmp_path):
        bad = tmp_path / "h.csv"
        bad.write_text("bin_start_ps,counts\n0,1\n100,1\n")
        # histogram does not span the requested side peaks
        rc = main(["analyze", "g2", "--histogram", str(bad), "--rep-period", "12500"])
        assert rc == 1

    def test_computation_error_is_2(self, tmp_path):
        # spans five periods but bins are too coarse for the side-peak fits
        x = np.arange(-68750.0, 68750.0, 6250.0)
        counts = np.round(1000 * np.exp(-((x % 12500) / 3000.0) ** 2)).astype(int)
        path = tmp_path / "coarse.csv"
        write_histogram_csv(Histogram(6250.0, -68750.0, counts), path)
        rc = main(["analyze", "g2", "--histogram", str(path), "--rep-period", "12500"])
        assert rc == 2

    def test_bad_seed_env_var_is_1(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, n_pulses=2000)
        monkeypatch.setenv("CASCADE_TOMO_SEED", "abc")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "CASCADE_TOMO_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("n_pulses", 1000.0), ("n_pulses", 1000.5),
                                             ("n_pulses", True), ("seed", 1.5), ("seed", True),
                                             ("seed", -1)])
    def test_bad_simulation_value_is_1(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, **{"n_pulses": 1000, "seed": 7, field: value})
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "emitter.fss", "NaN"), ("simulate", "emitter.fss", "Infinity"),
        ("simulate", "emitter.jitter_sigma", "NaN"),
        ("simulate", "emitter.background_rate", "NaN"),
        ("simulate", "emitter.tau_x", "true"),
        ("tomo", "tomography.correction.theta", "abc"),
        ("tomo", "tomography.correction.theta", "NaN"),
        ("tomo", "tomography.correction.phi", "Infinity"),
        ("tomo", "tomography.correction.arms", "sideways"),
        ("tomo", "tomography.bin_width_ps", "NaN"),
        ("tomo", "tomography.max_delay_ps", "Infinity"),
        ("tomo", "tomography.min_counts_per_bin", "NaN"),
        ("tomo", "tomography.bootstrap_samples", "2.5"),
        ("tomo", "tomography", "ab"),
        ("tomo", "tomography.correction", "5"),
        ("simulate", "emitter", "[1]"),
        ("simulate", "io", "null"),
    ])
    def test_bad_config_value_is_1_with_no_output(self, tmp_path, capsys, command, key, value):
        cfg = str(write_config(tmp_path, n_pulses=2000))
        csv = tmp_path / "binned.csv"
        write_tomo_csv(csv, binned_histograms(2))
        source = ["--binned", str(csv)] if command == "tomo" else []
        out = tmp_path / "o3"
        argv = [command, "--config", cfg, "--set", f"{key}={value}", *source, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key.split(".")[-1] in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text,env_seed,name", [("[1]", None, "config"),
                                                    ("null", None, "config"),
                                                    ('{"simulation": 5}', None, "simulation"),
                                                    ('{"simulation": 5}', "3", "simulation")])
    def test_config_not_an_object_is_1(self, tmp_path, monkeypatch, capsys, text, env_seed,
                                        name):
        path = tmp_path / "config.json"
        path.write_text(text)
        if env_seed is None:
            monkeypatch.delenv("CASCADE_TOMO_SEED", raising=False)
        else:
            monkeypatch.setenv("CASCADE_TOMO_SEED", env_seed)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,name", [
        (["fss-period", "nan"], "period"), (["fss-period", "inf"], "period"),
        (["efficiency", "--measured-cps", "nan", "--setup-eff", "0.008",
          "--detector-eff", "0.5", "--rep-rate", "80"], "measured_cps"),
        (["efficiency", "--measured-cps", "40000", "--setup-eff", "0.008",
          "--detector-eff", "0.5", "--rep-rate", "inf"], "rep_rate_mhz"),
        (["g2", "--histogram", "{ok}", "--rep-period", "nan"], "rep_period"),
        (["g2", "--histogram", "{nan}", "--rep-period", "12500"], "counts"),
        (["lifetime", "--histogram", "{nan}"], "counts"),
        (["lifetime", "--histogram", "{ok}", "--x0", "nan"], "x0"),
        (["recapture", "--histogram", "{nan}"], "counts"),
        (["power", "--data", "{nan_xy}"], "y"),
        (["fss", "--data", "{nan_xy}"], "energies"),
    ])
    def test_non_finite_number_is_1(self, tmp_path, capsys, argv, name):
        files = {"ok": "0,1\n50,2\n100,3\n", "nan": "0,1\n50,nan\n100,3\n"}
        paths = {}
        for key, rows in files.items():
            paths[key] = tmp_path / f"{key}.csv"
            paths[key].write_text("bin_start_ps,counts\n" + rows)
        angles = np.deg2rad(np.arange(0, 360, 5))
        table = [f"{a},{1000.0 + np.sin(4 * a)}" for a in angles]
        table[3] = f"{angles[3]},nan"
        paths["nan_xy"] = tmp_path / "nan_xy.csv"
        paths["nan_xy"].write_text("x,y\n" + "\n".join(table))
        argv = [arg.format(**paths) for arg in argv]
        assert main(["analyze", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["g2_missing", "counts_missing", "manifest_missing",
                                      "manifest_not_json", "meta_not_json",
                                      "power_not_numeric", "fss_not_numeric",
                                      "config_not_utf8", "manifest_not_utf8", "binned_not_utf8",
                                      "counts_not_utf8", "fss_not_utf8", "recapture_not_utf8",
                                      "meta_not_utf8"])
    def test_bad_input_file_is_1(self, tmp_path, capsys, case):
        cfg = str(write_config(tmp_path, n_pulses=2000))
        missing = str(tmp_path / "missing.csv")
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "tomo_meta.json").write_text("[1, 2")
        table = tmp_path / "table.csv"
        table.write_text("x,y\n1,2\n2,abc\n3,4\n")
        undecodable = b"\xff\xfe\x00garbage\x80"
        garbage = str(tmp_path / "garbage.bin")
        (tmp_path / "garbage.bin").write_bytes(undecodable)
        (tmp_path / "garbage_run").mkdir()
        (tmp_path / "garbage_run" / "tomo_meta.json").write_bytes(undecodable)
        argv = {
            "g2_missing": ["analyze", "g2", "--histogram", missing, "--rep-period", "12500"],
            "counts_missing": ["tomo", "--config", cfg, "--counts", missing],
            "manifest_missing": ["tomo", "--config", cfg,
                                 "--manifest", str(tmp_path / "missing.json")],
            "manifest_not_json": ["tomo", "--config", cfg, "--manifest", str(bad_json)],
            "meta_not_json": ["report", "--dir", str(tmp_path / "run")],
            "power_not_numeric": ["analyze", "power", "--data", str(table)],
            "fss_not_numeric": ["analyze", "fss", "--data", str(table)],
            "config_not_utf8": ["simulate", "--config", garbage],
            "manifest_not_utf8": ["tomo", "--config", cfg, "--manifest", garbage],
            "binned_not_utf8": ["tomo", "--config", cfg, "--binned", garbage],
            "counts_not_utf8": ["tomo", "--config", cfg, "--counts", garbage],
            "fss_not_utf8": ["analyze", "fss", "--data", garbage],
            "recapture_not_utf8": ["analyze", "recapture", "--histogram", garbage],
            "meta_not_utf8": ["report", "--dir", str(tmp_path / "garbage_run")],
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["fss", "power"])
    def test_header_only_csv_is_1(self, tmp_path, capsys, kind):
        path = tmp_path / "header_only.csv"
        path.write_text("x,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy reader would warn on a file with no data
            assert main(["analyze", kind, "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: no data rows\n"

    @pytest.mark.parametrize("key,value", [("fidelity", "high"), ("concurrence", None),
                                           ("bin_start_ps", "0"), ("bin_width_ps", None)])
    def test_non_numeric_meta_bin_value_is_1(self, tmp_path, capsys, key, value):
        bin_ = {**NULL_BIN_META["bins"][0], "bin_start_ps": 0.0, "bin_width_ps": 100.0}
        meta_path = tmp_path / "tomo_meta.json"
        meta_path.write_text(json.dumps({**NULL_BIN_META, "bins": [{**bin_, key: value}]}))
        assert main(["report", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta_path}: bins[0].{key} must be a finite number")
        assert not (tmp_path / "report.json").exists()

    def test_undecodable_binned_label_names_its_row(self, tmp_path, capsys):
        # such a label once started a series of its own, and the error named
        # the grid of a valid pair
        cfg = str(write_config(tmp_path, n_pulses=2000))
        csv = tmp_path / "binned.csv"
        write_tomo_csv(csv, binned_histograms(2))
        lines = csv.read_bytes().split(b"\n")
        lines[5] = b"H\xffD" + lines[5][2:]
        csv.write_bytes(b"\n".join(lines))
        out = tmp_path / "o2"
        assert main(["tomo", "--config", cfg, "--binned", str(csv), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv}: basis pair must be two letters")
        assert err.rstrip().endswith("(record 4)")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["counts_missing", "binned_missing", "wrong_pair_count"])
    def test_bad_tomo_input_makes_no_output_tree(self, tmp_path, case):
        cfg = str(write_config(tmp_path, n_pulses=2000))
        csv = tmp_path / "input.csv"
        write_tomo_csv(csv, dict(list(binned_histograms(2).items())[:16]))
        source = {"counts_missing": ["--counts", str(tmp_path / "missing.csv")],
                  "binned_missing": ["--binned", str(tmp_path / "missing.csv")],
                  "wrong_pair_count": ["--binned", str(csv)]}[case]
        out = tmp_path / "o2"
        assert main(["tomo", "--config", cfg, *source, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", ["manifest_list", "manifest_no_files", "entry_no_basis",
                                      "entry_not_object", "meta_empty", "meta_list",
                                      "meta_bin_no_fidelity", "entry_basis_list",
                                      "entry_file_not_string", "meta_rho_file_null",
                                      "meta_extra_not_strings", "meta_extra_string"])
    def test_malformed_json_is_1(self, tmp_path, capsys, case):
        cfg = str(write_config(tmp_path, n_pulses=2000))
        entry = {"basis": "HH", "xx_file": "streams/HH_xx.ctts", "x_file": "streams/HH_x.ctts"}
        # every basis pair, so that the manifest passes the completeness check
        entries = [{"basis": label, "xx_file": f"streams/{label}_xx.ctts",
                    "x_file": f"streams/{label}_x.ctts"} for label, _, _ in tomography_bases(36)]
        bin_ = {"bin_start_ps": 0.0, "bin_width_ps": 100.0, "total_counts": 5,
                "fidelity_std": None, "concurrence": 0.5, "concurrence_std": None,
                "converged": True, "rho_file": "bins/bin_0000.json"}
        meta = {"toolkit_version": "0", "config": {}, "skipped_bins": []}
        full_meta = {**meta, "bins": [{**bin_, "fidelity": 0.9}]}
        document = {
            "manifest_list": [],
            "manifest_no_files": {"basis_count": 36},
            "entry_no_basis": {"files": [{k: v for k, v in entry.items() if k != "basis"}]},
            "entry_not_object": {"files": [entry, "HV"]},
            "meta_empty": {},
            "meta_list": [meta],
            "meta_bin_no_fidelity": {**meta, "bins": [bin_]},
            "entry_basis_list": {"files": [{**entry, "basis": ["HH"]}]},
            "entry_file_not_string": {"files": [{**entries[0], "xx_file": 5}, *entries[1:]]},
            "meta_rho_file_null": {**meta, "bins": [{**bin_, "fidelity": 0.9,
                                                      "rho_file": None}]},
            "meta_extra_not_strings": {**full_meta, "extra_outputs": [1]},
            "meta_extra_string": {**full_meta, "extra_outputs": "abc"},
        }[case]
        path = tmp_path / ("run/tomo_meta.json" if case.startswith("meta") else "manifest.json")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(document))
        argv = (["report", "--dir", str(path.parent)] if case.startswith("meta")
                else ["tomo", "--config", cfg, "--manifest", str(path)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_success_is_0(self):
        assert main(["analyze", "fss-period", "890"]) == 0
