"""Command-line interface: parsing, config files, CSV outputs, manifest."""
import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ambcsim import cli, montecarlo
from ambcsim.ber_theory import _gaussian_ber_u
from ambcsim.channel import from_db
from ambcsim.cli import (
    _COMMANDS,
    _records,
    _sweep_config_from_args,
    build_parser,
    load_config,
    main,
    parse_iota,
    parse_detectors,
    parse_grid,
    parse_levels,
    parse_pair,
    write_csv,
)
from ambcsim.coverage import CoverageScenario
from ambcsim.montecarlo import SweepConfig, flat_channel, measurement_config
from oracles import EXACT_BER_SWEEP
from test_api import _run_probe


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

    def test_grid_point_cap(self):
        # counted before a point is built: one point above the cap is
        # refused like an infinite count; the cap itself is a grid
        assert len(parse_grid("1:1:1000000")) == 10**6
        with pytest.raises(argparse.ArgumentTypeError,
                           match="too many points"):
            parse_grid("0:1:1000000")

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
        assert parse_iota("0.1+0.2j") == 0.1 + 0.2j
        assert parse_iota("-1") == -1.0 + 0.0j
        for bad in ("one", "nan", "1e200", "1e154+1e154j"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_iota(bad)


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

    def test_config_lines_are_the_flags(self, tmp_path, capsys):
        # a boolean, a value starting with '-' and a comma list: the file
        # gives the same bytes and the same resolved config as the flags
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("per_re=yes\ngamma=-2:2:2\n"
                        "detectors=Correlation,BesselMap\n")
        flags = ["--per-re", "--gamma=-2:2:2",
                 "--detectors", "Correlation,BesselMap"]
        docs = []
        for name, given in (("file", ["--config", str(cfgf)]),
                            ("flags", flags)):
            out = tmp_path / name
            assert main(["simulate", *given, "--msc", "12", "--symbols",
                         "200", "--out-dir", str(out)]) == 0
            doc = json.loads((out / "run_manifest.json").read_text())
            del doc["config"]["out_dir"]
            docs.append(doc)
        assert docs[0]["outputs"] == docs[1]["outputs"]
        assert docs[0]["config"] == docs[1]["config"]
        assert docs[0]["config"]["per_re"] is True
        # a prefix of a key is not the key, though argparse would take
        # --gam for --gamma
        cfgf.write_text("gam=5\n")
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--config", str(cfgf), "--out-dir",
                  str(tmp_path / "prefix")])
        assert e.value.code == 2
        assert "unknown config key: gam" in capsys.readouterr().err
        assert not (tmp_path / "prefix").exists()

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
        pytest.param(None, ["theory", "--gamma", "3100"],
                     id="theory-gamma-overflow"),
        pytest.param(None, ["theory", "--gamma=-3300"],
                     id="theory-gamma-underflow"),
        pytest.param(None, ["theory", "--gamma", "3100", "--iota=0.3"],
                     id="theory-iota-gamma-overflow"),
        pytest.param(None, ["simulate", "--gamma", "3100"],
                     id="simulate-gamma-overflow"),
        pytest.param(None, ["simulate", "--gamma=-3300"],
                     id="simulate-gamma-underflow"),
        pytest.param(None, ["replicate", "--gamma-b=-3300", "--symbols",
                            "303"], id="replicate-gamma-b-underflow"),
        pytest.param(None, ["coverage", "--gamma-db", "3100"],
                     id="coverage-gamma-overflow"),
        pytest.param(None, ["coverage", "--freq-mhz", "1e303"],
                     id="coverage-freq-overflow"),
        pytest.param(None, ["simulate", "--direct-db", "3200"],
                     id="simulate-direct-gain-overflow"),
        pytest.param(None, ["theory", "--direct-db", "3200"],
                     id="theory-direct-gain-overflow"),
        pytest.param(None, ["simulate", "--scatter-db", "3200"],
                     id="simulate-scatter-gain-overflow"),
        pytest.param(None, ["simulate", "--threads", "0"],
                     id="simulate-threads-zero"),
        pytest.param(None, ["compare", "--threads=-2"],
                     id="compare-threads-negative"),
        pytest.param(None, ["replicate", "--threads", "0"],
                     id="replicate-threads-zero"),
        pytest.param("threads=-2\n", ["simulate", "--config", "CFG"],
                     id="config-threads-negative"),
        pytest.param(None, ["theory", "--gamma", "0:1e-320:1e10"],
                     id="theory-gamma-infinite-points"),
        pytest.param(None, ["compare", "--gamma", "0", "--realizations",
                            "100", "--detectors", "Correlation,Correlation"],
                     id="compare-repeated-detector"),
        pytest.param(None, ["simulate", "--symbols", "100", "--detectors",
                            "Power,BesselMap,Power"],
                     id="simulate-repeated-detector"),
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


    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("sub", ["theory", "simulate", "compare",
                                     "coverage", "replicate"])
    def test_negative_seed_is_a_usage_error_naming_the_flag(
            self, tmp_path, capsys, sub, via_config):
        # rejected at parse time by every subcommand, those that ignore
        # the seed too, whether the value comes from the flag or a file
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("seed=-1\n")
        seed = ["--config", str(cfgf)] if via_config else ["--seed", "-1"]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main([sub, *seed, "--out-dir", str(out)])
        assert e.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


def field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


class TestSweepConfigFromArgs:
    def test_cli_defaults_are_library_defaults(self):
        # every CLI default that restates a library default equals it
        parser, _ = build_parser()
        sim = parser.parse_args(["simulate"])
        lib = field_defaults(SweepConfig)
        assert (sim.symbols, sim.scheme, sim.detectors, sim.msc, sim.n) == (
            lib["n_symbols_per_point"], lib["scheme"], lib["detectors"],
            lib["m_sc"], lib["n_chips"])
        cfg = _sweep_config_from_args(sim, sim.depth, sim.off_depth)
        assert cfg.channel == flat_channel()
        cov = parser.parse_args(["coverage"])
        lib = field_defaults(CoverageScenario)
        assert (cov.msc, cov.n, cov.half_span, cov.resolution,
                cov.engine) == (lib["m_sc"], lib["n_chips"], lib["half_span"],
                                lib["resolution"], lib["engine"])
        rep = parser.parse_args(["replicate"])
        assert rep.symbols == measurement_config((3.0,)).n_symbols_per_point
        # theory has no flag for symbols, scheme, detectors, per-RE
        # synthesis or the BD depths: its config keeps their defaults
        theory = parser.parse_args(["theory"])
        assert _sweep_config_from_args(theory) == SweepConfig(
            snr_grid_db=theory.gamma)


def columns(rows, width):
    """rows as one block: a tuple of width column lists."""
    return tuple([row[c] for row in rows] for c in range(width))


class TestCsvWriter:
    # blocks cut from a row list: an empty block, a one-row block, then
    # uneven blocks around 1024 rows, repeating
    BLOCK_SIZES = (0, 1, 1023, 1024, 0, 2)

    def test_column_formats(self, tmp_path):
        rows = [
            (True, 7, np.int64(-3), 0.1, np.float64(2.0 / 3.0),
             float("nan"), float("inf"), -0.0, 1e-300, "Power", np.True_),
            (False, -12345678901, np.int64(0), 123456789.5,
             np.float64(-1e21), float("-inf"), 5e-324, 0.0, -1e-300,
             "theory_exact", np.False_),
        ]
        path = tmp_path / "t.csv"
        write_csv(path, [f"c{k}" for k in range(11)],
                  iter([columns(rows, 11)]))
        assert path.read_bytes() == (
            b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10\n"
            b"1,7,-3,0.1,0.666666667,nan,inf,-0,1e-300,Power,1\n"
            b"0,-12345678901,0,123456790,-1e+21,-inf,4.94065646e-324,0,"
            b"-1e-300,theory_exact,0\n")

    def test_no_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), iter(()))
        assert path.read_bytes() == b"a,b\n"
        write_csv(path, ("a", "b"), iter([([], []), ((), ())]))
        assert path.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_chunk_boundaries_match_per_row_format(self, tmp_path, n):
        # the first block is empty, so the formats come from the first
        # row of a later one
        specials = (float("nan"), float("inf"), float("-inf"), -0.0)
        rows = [(f"r{k}", k - 5000, k % 3 == 0, k / 7.0,
                 specials[k % 4], np.float64(k) * 1e-300)
                for k in range(n)]
        blocks = []
        start = 0
        for size in itertools.cycle(self.BLOCK_SIZES):
            if start >= n and blocks:
                break
            blocks.append(columns(rows[start:start + size], 6))
            start += size
        path = tmp_path / "t.csv"
        digest = write_csv(path, ("s", "i", "b", "f", "special", "tiny"),
                           iter(blocks))
        fmt = "%s,%d,%d,%.9g,%.9g,%.9g\n"
        expected = ("s,i,b,f,special,tiny\n"
                    + "".join(fmt % row for row in rows)).encode()
        assert path.read_bytes() == expected
        assert digest == hashlib.sha256(expected).hexdigest()

    def test_one_field_records_are_tuples(self, tmp_path):
        @dataclasses.dataclass
        class One:
            n: int

        header, blocks = _records(One, [One(3), One(-4)])
        blocks = list(blocks)
        assert (header, blocks) == (["n"], [([3, -4],)])
        path = tmp_path / "t.csv"
        write_csv(path, header, blocks)
        assert path.read_bytes() == b"n\n3\n-4\n"

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_column_of_wrong_length_raises(self, tmp_path, bad):
        block = [[1, 2, 3], [0.5, 1.5, 2.5], ["a", "b", "c"]]
        block[bad] = block[bad][:2]
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ("i", "f", "s"), [tuple(block)])


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

    def test_each_row_builds_its_channel_once(self, tmp_path, monkeypatch):
        # gamma_b_db, the two BERs and ber_fsk of a row share one channel
        # and one DetectionParams, whose gamma_b is the per-bit SNR; so
        # do a simulate point's theory and simulation rows, after its one
        # shard has built its own channel
        calls = []
        for mod in (montecarlo, cli):
            for name in ("channel_for_snr", "snr_per_bit"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        lambda *a, _f=getattr(mod, name),
                                        _n=name: calls.append(_n) or _f(*a))
        assert main(["theory", "--gamma", "0:5:10", "--out-dir",
                     str(tmp_path)]) == 0
        assert calls == ["channel_for_snr"] * 3
        calls.clear()
        assert main(["simulate", "--gamma", "0:5:10", "--symbols", "100",
                     "--out-dir", str(tmp_path)]) == 0
        assert calls == ["channel_for_snr"] * 6

    @pytest.mark.parametrize("iota", ["0.03", "-0.0253", "0.02+0.05j"])
    def test_iota_gaussian_column_is_the_map_formula(self, iota):
        # bit for bit, the Gaussian BER of u = |1+iota|^2 that the
        # coverage map and ber_vs_iota give
        args = build_parser()[0].parse_args(
            ["theory", "--gamma", "0:2.5:20", "--iota", iota, "--msc", "12"])
        tables, _ = cli.cmd_theory(args)
        gamma_db, _, _, ber_gaussian, _ = tables["theory.csv"][1][0]
        u = abs(1.0 + complex(iota)) ** 2
        assert list(ber_gaussian) == [_gaussian_ber_u(u, from_db(g), 48)
                                      for g in gamma_db]

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

    def test_series_error_writes_nothing(self, tmp_path, capsys):
        # at 60 dB the Poisson window needs more than 20000 indices
        rc = main(["theory", "--gamma", "60", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "Poisson window" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMBCSIM_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["theory", "--gamma", "3"])
        assert rc == 0
        assert (tmp_path / "envout" / "theory.csv").exists()


class TestCommandsReturnTables:
    """Each cmd_* computes and returns its tables; main alone writes
    them, in the order given, and lists them so in the manifest."""

    @pytest.mark.parametrize("argv, names", [
        (["theory", "--gamma", "5"], ["theory.csv"]),
        (["simulate", "--gamma", "6", "--symbols", "200"],
         ["simulate.csv"]),
        (["compare", "--gamma", "5", "--realizations", "200"],
         ["compare.csv", "disagreement.csv"]),
        (["coverage", "--resolution", "6", "--half-span", "0.5"],
         ["coverage_grid.csv", "contours.csv", "range.csv"]),
        (["replicate", "--gamma-b", "8", "--symbols", "101"],
         ["replicate.csv", "packets.csv"]),
    ], ids=["theory", "simulate", "compare", "coverage", "replicate"])
    def test_tables_in_manifest_order(self, tmp_path, monkeypatch, argv,
                                      names):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        args = build_parser()[0].parse_args(argv + ["--out-dir", str(out)])
        tables, status = _COMMANDS[args.subcommand](args)
        assert status == 0
        assert list(tables) == names
        assert list(tmp_path.iterdir()) == []
        assert main(argv + ["--out-dir", str(out)]) == 0
        doc = json.loads((out / "run_manifest.json").read_text())
        assert [o["path"] for o in doc["outputs"]] == names
        for name, (header, _) in tables.items():
            assert read_csv(out / name)[0] == list(header)


class TestManifestEnvironment:
    def test_keys_present_and_csv_bytes_unchanged(self, tmp_path,
                                                  monkeypatch):
        # the variable is only recorded here: BLAS read it at load time
        argv = ["simulate", "--gamma", "6", "--symbols", "2500",
                "--seed", "4"]
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(argv + ["--out-dir", str(tmp_path / "unset")]) == 0
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert main(argv + ["--out-dir", str(tmp_path / "set")]) == 0
        envs = {}
        for name in ("unset", "set"):
            doc = json.loads((tmp_path / name / "run_manifest.json")
                             .read_text())
            envs[name] = doc["environment"]
        assert set(envs["unset"]) == {"python", "numpy", "scipy",
                                      "numpy_cpu_dispatch", "platform",
                                      "cpu_count", "openblas_num_threads"}
        assert envs["unset"]["openblas_num_threads"] is None
        assert envs["set"]["openblas_num_threads"] == "1"
        assert envs["unset"]["python"] == platform.python_version()
        assert envs["unset"]["numpy"] == np.__version__
        assert envs["unset"]["cpu_count"] == os.cpu_count()
        assert envs["unset"]["numpy_cpu_dispatch"] == \
            [f for f in cli.__cpu_dispatch__ if cli.__cpu_features__[f]]
        assert (tmp_path / "unset" / "simulate.csv").read_bytes() == \
            (tmp_path / "set" / "simulate.csv").read_bytes()

    def test_scipy_version_only_when_loaded(self):
        # in a fresh process: replicate loads no scipy and records null,
        # simulate's theory rows load it and record its version
        scipy = pytest.importorskip("scipy")
        runs = [["replicate", "--gamma-b", "5", "--symbols", "202"],
                ["simulate", "--gamma", "6", "--symbols", "2500"]]
        probe = ("import json, os, tempfile, ambcsim.cli as c\n"
                 f"for argv in {runs!r}:\n"
                 "    with tempfile.TemporaryDirectory() as d:\n"
                 "        assert c.main(argv + ['--threads', '1',\n"
                 "                              '--out-dir', d]) == 0\n"
                 "        with open(os.path.join(d, 'run_manifest.json')) as f:\n"
                 "            env = json.load(f)['environment']\n"
                 "    print(json.dumps(env['scipy']))\n")
        assert _run_probe(probe).splitlines() == \
            ["null", json.dumps(scipy.__version__)]


class TestManifestSource:
    def test_source_sha256_names_the_package_files(self, tmp_path):
        # an independent digest of ambcsim/*.py, the same in two runs
        pkg = Path(cli.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(pkg.glob("*.py"), key=lambda q: q.name):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0"
                          + str(len(data)).encode() + b"\0" + data)
        docs = []
        for run in ("a", "b"):
            assert main(["theory", "--gamma", "3", "--out-dir",
                         str(tmp_path / run)]) == 0
            docs.append(json.loads((tmp_path / run / "run_manifest.json")
                                   .read_text()))
        assert docs[0]["source_sha256"] == digest.hexdigest()
        assert docs[1]["source_sha256"] == docs[0]["source_sha256"]
        assert (tmp_path / "a" / "theory.csv").read_bytes() == \
            (tmp_path / "b" / "theory.csv").read_bytes()


class TestManifestArgv:
    """manifest["argv"] is the argument list main parsed; running it
    again with only --out-dir changed gives the same CSV bytes."""

    @pytest.mark.parametrize("argv", [
        ["theory", "--gamma", "2:3:8", "--iota", "0.1+0.2j"],
        ["simulate", "--gamma", "4,6", "--symbols", "300", "--per-re",
         "--detectors", "Correlation,BesselMap", "--seed", "3"],
        ["compare", "--gamma", "5", "--realizations", "200",
         "--y-model", "gaussian", "--seed", "2"],
        ["coverage", "--resolution", "6", "--half-span", "0.5",
         "--range-targets", "0.1,0.01"],
        ["replicate", "--gamma-b", "8", "--symbols", "101", "--seed", "5"],
    ], ids=["theory", "simulate", "compare", "coverage", "replicate"])
    def test_rerun_from_argv_alone(self, tmp_path, argv):
        first = argv[:1] + ["--out-dir", str(tmp_path / "first")] + argv[1:]
        assert main(first) == 0
        doc = json.loads((tmp_path / "first" / "run_manifest.json")
                         .read_text())
        assert doc["argv"] == first
        again = list(doc["argv"])
        again[again.index("--out-dir") + 1] = str(tmp_path / "again")
        assert main(again) == 0
        redo = json.loads((tmp_path / "again" / "run_manifest.json")
                          .read_text())
        assert redo["outputs"] == doc["outputs"]
        assert redo["argv"] == again

    def test_argv_defaults_to_the_command_line(self, tmp_path, monkeypatch):
        argv = ["theory", "--gamma", "3", "--out-dir", str(tmp_path)]
        monkeypatch.setattr("sys.argv", ["ambcsim"] + argv)
        assert main() == 0
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["argv"] == argv


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

    def test_tables_hold_no_per_cell_objects(self, tmp_path, monkeypatch):
        # the grid and its contours are computed before tracing starts;
        # building and writing the tables from them is what is measured
        parser, _ = build_parser()
        args = parser.parse_args(["coverage", "--resolution", "400"])
        grid = cli.compute_ber_grid(CoverageScenario(
            bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), carrier_freq_hz=782e6,
            gamma=10.0, resolution=400))
        lines = cli.contour_export(grid, args.levels)
        monkeypatch.setattr(cli, "compute_ber_grid", lambda sc: grid)
        monkeypatch.setattr(cli, "contour_export", lambda g, lv: lines)
        tracemalloc.start()
        try:
            tables, _ = cli.cmd_coverage(args)
            for name in list(tables):
                header, rows = tables.pop(name)
                write_csv(tmp_path / name, header, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * grid.ber.nbytes

    def test_series_failure_exit_code(self, tmp_path):
        rc = main(["coverage", "--engine", "exact", "--gamma-db", "90",
                   "--resolution", "2", "--half-span", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_failed_range_still_writes_its_tables(self, tmp_path, capsys):
        # at 90 dB the series fails in the 24 cells off the UE's singular
        # one and in the range bisection; the cells and the radius read
        # NaN, stderr names both failures, and every file is written
        rc = main(["coverage", "--engine", "exact", "--gamma-db", "90",
                   "--resolution", "5", "--half-span", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        msg = "Poisson window needs more than 20000 indices"
        assert capsys.readouterr().err.splitlines() == [
            f"error: 24 grid cells: {msg}", f"error: {msg}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "contours.csv", "coverage_grid.csv", "range.csv",
            "run_manifest.json"]
        _, grid_rows = read_csv(tmp_path / "coverage_grid.csv")
        assert len(grid_rows) == 25
        assert all(row["ber"] == "nan" for row in grid_rows)
        _, rrows = read_csv(tmp_path / "range.csv")
        assert ",".join(rrows[0].values()) == "0.01,nan,0.383366315,nan"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert [o["path"] for o in manifest["outputs"]] == [
            "coverage_grid.csv", "contours.csv", "range.csv"]

    @pytest.mark.parametrize("gamma_db, radius", [
        ("3000", "3.96693731e+75,0.383366315,1.03476418e+76"),
        ("3080", "inf,0.383366315,inf")], ids=["3000", "3080"])
    def test_huge_gamma_reads_everywhere(self, tmp_path, gamma_db, radius):
        # num, then den too, overflow in the gaussian grid; no warning.
        # The range is finite (the 1e300 row is the root for the exact
        # c, to all nine digits) until nm (2 gamma + 1) overflows
        rc = main(["coverage", "--gamma-db", gamma_db, "--resolution", "4",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        _, grid_rows = read_csv(tmp_path / "coverage_grid.csv")
        ber = np.array([float(row["ber"]) for row in grid_rows])
        assert np.isin(ber[~np.isnan(ber)], (0.0, 0.5)).all()
        _, rrows = read_csv(tmp_path / "range.csv")
        assert ",".join(rrows[0].values()) == "0.01," + radius


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

    def test_huge_gamma_b_runs(self, tmp_path):
        # at 400 dB the noise power is about 1e-45; a noise root that
        # cancels gives 0.0 there, which ChannelSet rejects
        rc = main(["replicate", "--gamma-b", "400", "--symbols", "303",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "replicate.csv")
        assert [(r["gamma_b_db"], r["source"]) for r in rows] == [
            ("400", "theory_gaussian"), ("400", "simulation")]
        _, packets = read_csv(tmp_path / "packets.csv")
        assert len(packets) == 3


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

    def test_iota_past_a_double_names_the_flag(self, tmp_path, capsys):
        # |1 + iota|^2 overflows a Python float's ** 2 past 1.3e154
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main(["theory", "--iota=1e200", "--out-dir", str(out)])
        assert e.value.code == 2
        assert "--iota" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
