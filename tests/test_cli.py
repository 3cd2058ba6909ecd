"""Command-line interface: parsing, config files, CSV outputs, manifest."""
import argparse
import hashlib
import json
import os

import numpy as np
import pytest

from ambcsim.cli import (
    _sweep_config_from_args,
    build_parser,
    load_config,
    main,
    parse_complex,
    parse_detectors,
    parse_grid,
    parse_levels,
    parse_pair,
    write_csv,
)
from ambcsim.montecarlo import flat_channel
from oracles import EXACT_BER_SWEEP


def read_csv(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:-1]]
    return header, rows


class TestParsers:
    def test_grid_range(self):
        assert parse_grid("0:2:6") == (0.0, 2.0, 4.0, 6.0)
        got = parse_grid("3:0.25:16")
        assert len(got) == 53
        assert got[-1] == pytest.approx(16.0)

    def test_grid_list(self):
        assert parse_grid("1,2.5,3") == (1.0, 2.5, 3.0)
        assert parse_grid(" 5 ") == (5.0,)

    def test_grid_errors(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("0:0:5")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("5:1:0")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("1:2:3:4")

    def test_pair(self):
        assert parse_pair("50,0") == (50.0, 0.0)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_pair("50")

    def test_levels(self):
        assert parse_levels("0.1,0.01") == (0.1, 0.01)

    def test_detectors(self):
        assert parse_detectors("Correlation, Power") == ("Correlation",
                                                         "Power")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_detectors("Correlation,Psychic")

    def test_complex(self):
        assert parse_complex("0.1+0.2j") == 0.1 + 0.2j
        assert parse_complex("-1") == -1.0 + 0.0j
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("one")


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\n\nseed = 9\ngamma=0:5:10\n"
                     "direct-db = -50.0  # inline\n")
        cfg = load_config(str(p))
        assert cfg == {"seed": "9", "gamma": "0:5:10",
                       "direct_db": "-50.0"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed 9\n")
        with pytest.raises(ValueError):
            load_config(str(p))

    def test_flag_beats_config(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("gamma=0:5:10\nseed=9\n")
        out = tmp_path / "out"
        rc = main(["theory", "--config", str(cfgf), "--gamma", "5",
                   "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "run_manifest.json").read_text())
        assert doc["config"]["gamma"] == [5.0]
        assert doc["config"]["seed"] == 9
        assert doc["seed"] == 9

    # config text (None: no file) and the arguments; CFG is the file
    @pytest.mark.parametrize("text, argv", [
        pytest.param("warp_drive=1\n", ["theory", "--config", "CFG"],
                     id="unknown-key"),
        pytest.param("gamma = 5:1:0\n", ["theory", "--config", "CFG"],
                     id="config-bad-grid"),
        pytest.param("seed 9\n", ["theory", "--config", "CFG"],
                     id="config-line-without-equals"),
        pytest.param(None, ["theory", "--config", "CFG"],
                     id="config-file-missing"),
        pytest.param(None, ["coverage", "--resolution", "12", "--levels",
                            "0.7"], id="coverage-levels"),
        pytest.param(None, ["coverage", "--resolution", "12",
                            "--range-targets", "0.7"],
                     id="coverage-range-targets"),
        pytest.param(None, ["coverage", "--resolution", "1"],
                     id="coverage-resolution"),
        pytest.param(None, ["simulate", "--symbols", "50"],
                     id="simulate-symbols"),
        pytest.param(None, ["simulate", "--gamma", "5,3"],
                     id="simulate-gamma-order"),
        pytest.param(None, ["simulate", "--n", "3"], id="simulate-odd-n"),
        pytest.param(None, ["replicate", "--symbols", "50"],
                     id="replicate-symbols"),
        pytest.param(None, ["coverage", "--gamma-db", "nan"],
                     id="coverage-nan-gamma"),
        pytest.param(None, ["coverage", "--bs", "nan,0"],
                     id="coverage-nan-bs"),
        pytest.param(None, ["compare", "--gamma", "nan"],
                     id="compare-nan-gamma"),
        pytest.param(None, ["simulate", "--direct-db", "inf"],
                     id="simulate-inf-direct-db"),
        pytest.param(None, ["theory", "--iota=nan"], id="theory-nan-iota"),
        pytest.param("per_re=maybe\n", ["simulate", "--config", "CFG"],
                     id="config-bad-boolean"),
        pytest.param("help=1\n", ["theory", "--config", "CFG"],
                     id="config-help-key"),
    ])
    def test_unknown_key_is_usage_error(self, tmp_path, text, argv):
        cfgf = tmp_path / "run.cfg"
        if text is not None:
            cfgf.write_text(text)
        out = tmp_path / "out"
        argv = [str(cfgf) if a == "CFG" else a for a in argv]
        with pytest.raises(SystemExit) as e:
            main(argv + ["--out-dir", str(out)])
        assert e.value.code == 2
        assert not out.exists() or not any(out.iterdir())


class TestSweepConfigFromArgs:
    def test_cli_defaults_are_library_defaults(self):
        parser, _ = build_parser()
        args = parser.parse_args(["simulate"])
        cfg = _sweep_config_from_args(args, args.symbols,
                                      tuple(args.detectors), args.scheme)
        assert cfg.channel == flat_channel()


class TestCsvWriter:
    def test_column_formats(self, tmp_path):
        rows = [
            (True, 7, np.int64(-3), 0.1, np.float64(2.0 / 3.0),
             float("nan"), float("inf"), -0.0, 1e-300, "Power"),
            (False, -12345678901, np.int64(0), 123456789.5,
             np.float64(-1e21), float("-inf"), 5e-324, 0.0, -1e-300,
             "theory_exact"),
        ]
        path = tmp_path / "t.csv"
        write_csv(path, [f"c{k}" for k in range(10)], iter(rows))
        assert path.read_bytes() == (
            b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9\n"
            b"1,7,-3,0.1,0.666666667,nan,inf,-0,1e-300,Power\n"
            b"0,-12345678901,0,123456790,-1e+21,-inf,4.94065646e-324,0,"
            b"-1e-300,theory_exact\n")

    def test_no_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), iter(()))
        assert path.read_bytes() == b"a,b\n"


class TestTheoryCommand:
    def test_csv_and_manifest(self, tmp_path):
        rc = main(["theory", "--gamma", "0:5:10", "--out-dir",
                   str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "theory.csv")
        assert header == ["gamma_db", "gamma_b_db", "ber_exact",
                          "ber_gaussian", "ber_fsk"]
        assert len(rows) == 3
        by_gamma = {float(r["gamma_db"]): r for r in rows}
        assert float(by_gamma[0.0]["ber_exact"]) == pytest.approx(
            EXACT_BER_SWEEP[0.0], rel=1e-8)
        assert float(by_gamma[10.0]["ber_exact"]) == pytest.approx(
            EXACT_BER_SWEEP[10.0], rel=1e-8)
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["subcommand"] == "theory"
        entry = [o for o in doc["outputs"] if o["path"] == "theory.csv"][0]
        digest = hashlib.sha256((tmp_path / "theory.csv").read_bytes())
        assert entry["sha256"] == digest.hexdigest()

    def test_zero_iota_gives_coin_flip_row(self, tmp_path):
        rc = main(["theory", "--gamma", "5", "--iota", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "theory.csv")
        assert float(rows[0]["ber_exact"]) == 0.5
        assert float(rows[0]["ber_gaussian"]) == 0.5
        assert float(rows[0]["ber_fsk"]) == 0.5

    def test_csv_formatting(self, tmp_path):
        main(["theory", "--gamma", "5", "--out-dir", str(tmp_path)])
        raw = (tmp_path / "theory.csv").read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        for cell in text.split("\n")[1].split(","):
            if "." in cell and "e" not in cell:
                digits = cell.replace("-", "").replace(".", "")
                assert len(digits.lstrip("0")) <= 9

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMBCSIM_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["theory", "--gamma", "3"])
        assert rc == 0
        assert (tmp_path / "envout" / "theory.csv").exists()


class TestSimulateCommand:
    def test_rows_and_rerun_bytes(self, tmp_path):
        args = ["simulate", "--gamma", "6", "--symbols", "2500",
                "--seed", "4"]
        rc = main(args + ["--out-dir", str(tmp_path / "a")])
        assert rc == 0
        rc = main(args + ["--out-dir", str(tmp_path / "b")])
        assert rc == 0
        a = (tmp_path / "a" / "simulate.csv").read_bytes()
        b = (tmp_path / "b" / "simulate.csv").read_bytes()
        assert a == b
        header, rows = read_csv(tmp_path / "a" / "simulate.csv")
        sources = {r["source"] for r in rows}
        assert sources == {"theory_exact", "theory_gaussian", "simulation"}
        sim = [r for r in rows if r["source"] == "simulation"][0]
        assert int(sim["n_bits"]) == 2500
        assert float(sim["ci_low"]) < float(sim["ber"]) < float(
            sim["ci_high"])


class TestCompareCommand:
    def test_outputs(self, tmp_path):
        rc = main(["compare", "--gamma", "5", "--realizations", "2500",
                   "--detectors", "Correlation,SquareRoot",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "disagreement.csv")
        assert len(rows) == 1
        assert rows[0]["receiver_a"] == "Correlation"
        assert rows[0]["receiver_b"] == "SquareRoot"
        assert int(rows[0]["n_symbols"]) == 2500
        _, bers = read_csv(tmp_path / "compare.csv")
        assert len([r for r in bers if r["source"] == "simulation"]) == 2


class TestCoverageCommand:
    def test_outputs_and_range(self, tmp_path):
        rc = main(["coverage", "--resolution", "15", "--half-span", "0.5",
                   "--levels", "0.1", "--out-dir", str(tmp_path)])
        assert rc == 0
        _, grid_rows = read_csv(tmp_path / "coverage_grid.csv")
        assert len(grid_rows) == 225
        _, rrows = read_csv(tmp_path / "range.csv")
        assert len(rrows) == 1
        assert float(rrows[0]["ber_target"]) == 0.01
        assert float(rrows[0]["radius_wavelengths"]) == pytest.approx(
            2.487679, rel=1e-4)
        assert (tmp_path / "contours.csv").exists()

    def test_rerun_bytes(self, tmp_path):
        args = ["coverage", "--resolution", "12", "--half-span", "0.4"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        for name in ("coverage_grid.csv", "contours.csv", "range.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_series_failure_exit_code(self, tmp_path):
        rc = main(["coverage", "--engine", "exact", "--gamma-db", "90",
                   "--resolution", "2", "--half-span", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 1


class TestReplicateCommand:
    def test_outputs_and_rerun_bytes(self, tmp_path):
        args = ["replicate", "--gamma-b", "8", "--symbols", "303",
                "--seed", "2"]
        rc = main(args + ["--out-dir", str(tmp_path / "a")])
        assert rc == 0
        rc = main(args + ["--out-dir", str(tmp_path / "b")])
        assert rc == 0
        for name in ("replicate.csv", "packets.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        _, packets = read_csv(tmp_path / "a" / "packets.csv")
        assert len(packets) == 3
        _, rows = read_csv(tmp_path / "a" / "replicate.csv")
        assert all(float(r["gamma_b_db"]) == 8.0 for r in rows)


class TestUsageErrors:
    def test_bad_grid_text(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["theory", "--gamma", "zero", "--out-dir", str(tmp_path)])
        assert e.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main(["transmogrify"])
        assert e.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2
