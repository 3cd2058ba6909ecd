"""Golden CSV hashes: every CLI invocation below must reproduce the
SHA-256 of each CSV it writes, byte for byte.

Acceptance check 8 only compares two reruns of the same tree with each
other; this test pins the bytes themselves, so a refactor that moves a
single digit fails here. The invocations cover check 8's five runs plus
the paths no benchmark workload reaches: `theory --iota` on both sides
of |1 + iota| = 1, a destructive simulate geometry (on-state gain below
the off-state gain), the FSK and DBPSK simulate paths, a gaussian-y
BesselMap comparison, two gaussian-y BesselMap comparisons at m_sc 2
and 1 where the clipped samples are exactly zero (1278 and 3614 of
their 40 000 BesselMap samples; at m_sc 1 the Bessel order is 0), two
gaussian-y BesselMap comparisons at m_sc 50 and 51, whose Bessel orders
49 and 50 are the last one served by scipy's ive and the first one
served by the uniform asymptotic expansion, a small exact coverage map, a gaussian and an exact map around a UE
off the origin, and two per-subcarrier simulate runs: BPSK at m_sc 288,
whose 10 000-chip shards synthesize in chunks of 4096, 4096 and 1808
chips, and FSK at m_sc 12.

The hashes depend on numpy's random streams and scipy's special
functions, so they are only checked under the numpy and scipy versions
they were recorded with; elsewhere the test skips and names both. To
re-record (only when an output is meant to change), run

    PYTHONPATH=src python tests/test_golden.py

and paste the printed versions and table over the ones below.
"""
import hashlib

import numpy
import pytest
import scipy

from ambcsim.cli import main as cli_main

RECORDED_NUMPY = "2.4.6"
RECORDED_SCIPY = "1.17.1"

INVOCATIONS = {
    "check8-theory": ["theory", "--gamma", "0:5:10"],
    "check8-simulate": ["simulate", "--gamma", "6", "--symbols", "2500",
                        "--seed", "3"],
    "check8-compare": ["compare", "--gamma", "5", "--realizations", "2500",
                       "--detectors", "Correlation,SquareRoot"],
    "check8-coverage": ["coverage", "--resolution", "12", "--half-span",
                        "0.4"],
    "check8-replicate": ["replicate", "--gamma-b", "8", "--symbols", "303",
                         "--seed", "2"],
    "theory-iota-constructive": ["theory", "--gamma", "0:5:20",
                                 "--iota=0.3+0.2j"],
    "theory-iota-destructive": ["theory", "--gamma", "0:5:20",
                                "--iota=-0.4+0.1j"],
    "simulate-destructive": ["simulate", "--gamma", "0,6", "--symbols",
                             "2500", "--seed", "3", "--scatter-phase",
                             "3.14159", "--scatter-db", "-60",
                             "--detectors", "Correlation,Power"],
    "simulate-fsk": ["simulate", "--scheme", "FSK", "--gamma", "6",
                     "--symbols", "2500"],
    "simulate-dbpsk": ["simulate", "--scheme", "DBPSK", "--gamma", "6",
                       "--symbols", "2500"],
    "simulate-per-re": ["simulate", "--per-re", "--gamma", "0,6",
                        "--symbols", "2500", "--seed", "5", "--detectors",
                        "Correlation,BesselMap"],
    "simulate-fsk-per-re": ["simulate", "--scheme", "FSK", "--per-re",
                            "--msc", "12", "--gamma", "6", "--symbols",
                            "2500"],
    "compare-gaussian-bessel": ["compare", "--gamma", "5", "--realizations",
                                "2500", "--y-model", "gaussian",
                                "--scatter-phase", "3.0", "--detectors",
                                "Correlation,SquareRoot,BesselMap"],
    "compare-gaussian-bessel-msc2": ["compare", "--gamma", "0,5",
                                     "--realizations", "5000", "--msc", "2",
                                     "--y-model", "gaussian", "--detectors",
                                     "Correlation,Power,BesselMap",
                                     "--seed", "4"],
    "compare-gaussian-bessel-msc1": ["compare", "--gamma", "0,5",
                                     "--realizations", "5000", "--msc", "1",
                                     "--y-model", "gaussian", "--detectors",
                                     "Correlation,BesselMap", "--seed", "4"],
    "compare-gaussian-bessel-msc50": ["compare", "--gamma", "0,5",
                                      "--realizations", "2500", "--msc",
                                      "50", "--y-model", "gaussian",
                                      "--detectors", "Correlation,BesselMap",
                                      "--seed", "6"],
    "compare-gaussian-bessel-msc51": ["compare", "--gamma", "0,5",
                                      "--realizations", "2500", "--msc",
                                      "51", "--y-model", "gaussian",
                                      "--detectors", "Correlation,BesselMap",
                                      "--seed", "6"],
    "coverage-exact": ["coverage", "--engine", "exact", "--resolution", "6",
                       "--half-span", "0.4"],
    "coverage-off-origin": ["coverage", "--ue", "1.0,0.5", "--bs", "51,0.5",
                            "--resolution", "10", "--half-span", "0.4",
                            "--range-targets", "0.1,0.01"],
    "coverage-exact-off-origin": ["coverage", "--engine", "exact",
                                  "--ue=-0.3,0.2", "--resolution", "5",
                                  "--half-span", "0.3"],
}

GOLDEN = {
    "check8-theory": {
        "theory.csv":
            "ab2fba6febe662305c86f132d9843f855f9e54d4db154f89c1d7a5d3393c26bc",
    },
    "check8-simulate": {
        "simulate.csv":
            "5ccf285262a4fd8a56637cfe6da9712793474b1702e9a004c203513d3ecd3ccc",
    },
    "check8-compare": {
        "compare.csv":
            "3ded75a245039fd1f452182691dcefd2d9efebb69b2f25b4ba8b1ee7f4d92baf",
        "disagreement.csv":
            "9d982bb9c72a5e2197b2b50afcb4cef7d5e112fe49497e39cb2ca70fb8494a38",
    },
    "check8-coverage": {
        "contours.csv":
            "0bb2c0c2fde69af767b06d467ed44c8b5c9be7195b8fd2d0e45b883d26724672",
        "coverage_grid.csv":
            "257abb85a24670a637a5ca437c138bcdb51602e7f8b0a3b4354c648a67932d65",
        "range.csv":
            "2ae282b4e3f72e085b28c8d659a4de3ed3c90076050eaba5df5dd98ceeffe754",
    },
    "check8-replicate": {
        "packets.csv":
            "fbe7db87878483a1f5d6d359a1c3ec2a1686def899a4bf30bef6359a15ec9193",
        "replicate.csv":
            "b74a9f0b2d3cf6be127d96910ec405218ef184b0ce8a7002b9fee7f89187cfed",
    },
    "theory-iota-constructive": {
        "theory.csv":
            "35249d3619e6d1a3aed7d01af59775fca69330f7f01973b45fc9847e61d774b5",
    },
    "theory-iota-destructive": {
        "theory.csv":
            "86dd648cbf1bdcb7ed0b47481f5eeb5027d1e0f4ae0b8ae7b363fb4f6fdc34a2",
    },
    "simulate-destructive": {
        "simulate.csv":
            "831100192250883f1052d446dd8515e9a2051a2104cb3b3a3a6180e5baffe8ca",
    },
    "simulate-fsk": {
        "simulate.csv":
            "1d8558becca35fcc842151fda07f33197c7081d83fe4940145901c63e55d4118",
    },
    "simulate-dbpsk": {
        "simulate.csv":
            "bad6153a82f89c8d8c9076705ecd8a0540adc9bde2fc2a4a9e95e0b371402e47",
    },
    "simulate-per-re": {
        "simulate.csv":
            "1a1931680cbf6b7116c97ffbbb6c034ea28120f185383e83f02be83977a9fd1e",
    },
    "simulate-fsk-per-re": {
        "simulate.csv":
            "9a77ba351a04c1029de5fa8a0a7822e67c2279deae4755c18bc59569a0f3184c",
    },
    "compare-gaussian-bessel": {
        "compare.csv":
            "a801e23da4b5aa11985bac7b9ef53c11bea32e3d853d2003c433b47b2baef70e",
        "disagreement.csv":
            "10820cd9062717b278240da4727e54e31afeb1695e7b7853eedcb45e3b732aff",
    },
    "compare-gaussian-bessel-msc2": {
        "compare.csv":
            "7f7a32753649d6e2354c7d843221e5a01415252e2a037b7ce59f682b6182344d",
        "disagreement.csv":
            "bb52f70790b16ade07e4cc655249e818a00789925eccc484e315d4983e98c921",
    },
    "compare-gaussian-bessel-msc1": {
        "compare.csv":
            "d0e02e97c78ab24604d592b275b5cd9f65007010c73dc051f6dcdcdcf7f11aa2",
        "disagreement.csv":
            "9f64151f7ff1672f075cf7deefbf7ebb7f5a4daf4749ac2e3d3ba951831bc5b8",
    },
    "compare-gaussian-bessel-msc50": {
        "compare.csv":
            "f989658864f3b9d5baad9692320629af724ea7b70575070399236c0e3c5dff59",
        "disagreement.csv":
            "c77135fcd3a6a8e42c68889165abedd31fd5ef2b8ebdf15a2e9fe26f3fe3fc26",
    },
    "compare-gaussian-bessel-msc51": {
        "compare.csv":
            "664627639b415c7a591b623048af4079368e20b5b83123616453a351de02d404",
        "disagreement.csv":
            "a5dd0113c80c89bda2e377ec624c2fbd366f7530a28906148c53af5e977e3540",
    },
    "coverage-exact": {
        "contours.csv":
            "38eb3e23c7d5f03407c541d4d671c36acfde5e7f88f3ca2dc3454d2ca5c9224b",
        "coverage_grid.csv":
            "25dc2ded019cb173daae9de7d2aca3750a73a5c8c5dcdc471c4bc0bc917ee753",
        "range.csv":
            "cd2b7190fe673f54ecefab892013390c863a3fd9129f0ebc8919efe1d955e2c3",
    },
    "coverage-off-origin": {
        "contours.csv":
            "3d84648dabea6ae02a53c6c02dc28d41781688f3485b99830f8a44fd020132c5",
        "coverage_grid.csv":
            "179c211453e8820505884959622ef6670b7129be6a106903cddf53828121412d",
        "range.csv":
            "9d02e288268fc533a033bc9752a7e2e5dca230414d4b3844a40f57153fdf686a",
    },
    "coverage-exact-off-origin": {
        "contours.csv":
            "72e55b190f5df571aae6052e1c90b154c605b1b30209917175345834962f2f7d",
        "coverage_grid.csv":
            "d6ee63e59de738c016c80b91923fb5630954f07003034892739e0c4de05651aa",
        "range.csv":
            "6d91d2ecf18bf0eceb54e3cbe05be59af84e04525c0b7a226a1c106e90d1589e",
    },
}


def _hashes(name, out_dir):
    """Run one invocation into out_dir; SHA-256 of each CSV by file name."""
    assert cli_main(INVOCATIONS[name] + ["--out-dir", str(out_dir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _versions_match():
    return (numpy.__version__, scipy.__version__) == (RECORDED_NUMPY,
                                                      RECORDED_SCIPY)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_csv_bytes_match_golden_hashes(name, tmp_path):
    if not _versions_match():
        pytest.skip(f"hashes recorded under numpy {RECORDED_NUMPY} and "
                    f"scipy {RECORDED_SCIPY}; this is numpy "
                    f"{numpy.__version__} and scipy {scipy.__version__}")
    assert _hashes(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    print(f'RECORDED_NUMPY = "{numpy.__version__}"')
    print(f'RECORDED_SCIPY = "{scipy.__version__}"')
    print("GOLDEN = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name in INVOCATIONS:
            hashes = _hashes(name, Path(tmp) / name)
            print(f'    "{name}": {{')
            for fname, digest in hashes.items():
                print(f'        "{fname}":\n            "{digest}",')
            print("    },")
    print("}")
