"""Command-line front end.

Subcommands: theory | simulate | compare | coverage | replicate.
Common flags: --seed, --config, --out-dir, --threads. A flat
key=value config file supplies defaults; explicit flags win. Every run
writes its CSV outputs plus a run_manifest.json recording the resolved
configuration, seed, version, timestamps, output hashes, and the
environment (Python, numpy and scipy versions, numpy's dispatched SIMD
targets, platform, CPU count, OPENBLAS_NUM_THREADS).

Each cmd_* computes and returns its tables, a dict from CSV file name
to (header, blocks); main alone writes them, then the manifest, so a
subcommand that raises writes nothing.

CSV files use a single header row, '.' decimal separator, UTF-8, LF
line endings, and 9-significant-digit floats, so identical seed and
config reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import sys
import time
from collections import Counter

import numpy as np

try:
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                              __cpu_features__)

from . import __version__
from .ber_theory import (SeriesError, _params_for_u, exact_ber,
                         fsk_coherent_ber, gaussian_ber)
from .channel import from_db, to_db
from .coverage import (DEFAULT_LEVELS, CoverageScenario, compute_ber_grid,
                       contour_export, range_estimate)
from .modem import DETECTOR_KINDS
from .montecarlo import (BerPoint, DisagreementCount, PacketRecord,
                         SweepConfig, _theory_bers, compare_receivers,
                         flat_channel, measurement_config,
                         replicate_measurement, run_ber_sweep)

_FLOAT = "%.9g"


def _column_format(v) -> str:
    if isinstance(v, (int, np.integer, np.bool_)):  # True prints 1
        return "%d"
    if isinstance(v, (float, np.floating)):
        return _FLOAT
    return "%s"


def write_csv(path, header, blocks):
    """Write a header line and the rows of each block; return the
    SHA-256 hex digest of the bytes written.

    A block is a tuple of equal-length column sequences, one row per
    index; a column of another length raises ValueError. Each column's
    format comes from its cell in the first row: ints and bools (numpy
    ones too) print with %d, floats (numpy ones too) with %.9g,
    anything else with %s. A column must therefore hold one type in
    every row, and every block the first row's number of columns; %d
    would silently truncate a float. blocks may be any iterable and is
    streamed: one block at a time is interleaved into a flat list and
    formatted with one %.
    """
    digest = hashlib.sha256()
    fmt = None
    with open(path, "wb") as f:
        def put(text):
            data = text.encode("utf-8")
            f.write(data)
            digest.update(data)

        put(",".join(header) + "\n")
        for block in blocks:
            k, n = len(block), len(block[0])
            flat = [None] * (k * n)
            for i, column in enumerate(block):
                flat[i::k] = column  # ValueError unless len(column) == n
            if not n:
                continue
            if fmt is None:
                fmt = ",".join(map(_column_format, flat[:k])) + "\n"
            put((fmt * n) % tuple(flat))
    return digest.hexdigest()


def _records(cls, records):
    """(header, blocks) of dataclass records of type cls: one column per
    field, in field order, in a single block, so an empty list still
    has its header."""
    names = [f.name for f in dataclasses.fields(cls)]
    return names, [tuple([getattr(r, n) for r in records] for n in names)]


def finite(text: str) -> float:
    """A float flag value; nan and inf are usage errors."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text}")
    return x


def positive_int(text: str) -> int:
    """An integer flag value of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return n


def parse_grid(text: str):
    """Grid values from 'start:step:stop' (inclusive) or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                "range must be start:step:stop")
        a, b, c = (finite(p) for p in parts)
        if b <= 0.0 or c < a:
            raise argparse.ArgumentTypeError(
                "range needs step > 0 and stop >= start")
        count = int(math.floor((c - a) / b + 1e-9)) + 1
        return tuple(a + i * b for i in range(count))
    return tuple(finite(p) for p in text.split(","))


def parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected x,y")
    return (finite(parts[0]), finite(parts[1]))


def parse_levels(text: str):
    return tuple(finite(p) for p in text.split(","))


def parse_detectors(text: str):
    dets = tuple(p.strip() for p in text.split(",") if p.strip())
    for d in dets:
        if d not in DETECTOR_KINDS:
            raise argparse.ArgumentTypeError(f"unknown detector: {d}")
    return dets


def parse_complex(text: str):
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex value: {text}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise argparse.ArgumentTypeError(f"not a finite number: {text}")
    return z


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; keys use the flag
    names with underscores."""
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _apply_config(sub: argparse.ArgumentParser, cfg: dict):
    """Config values become subparser defaults, converted with each
    flag's own type; explicit CLI flags still take precedence."""
    defaults = {}
    known = {action.dest: action for action in sub._actions
             if not isinstance(action, argparse._HelpAction)}
    for key, raw in cfg.items():
        if key not in known:
            raise ValueError(f"unknown config key: {key}")
        action = known[key]
        if isinstance(action, argparse._StoreTrueAction):
            if raw.lower() not in _BOOLEANS:
                raise ValueError(f"bad boolean value for {key}: {raw}")
            defaults[key] = _BOOLEANS[raw.lower()]
        elif action.type is not None:
            defaults[key] = action.type(raw)
        else:
            defaults[key] = raw
    sub.set_defaults(**defaults)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0,
                     help="random seed of simulate, compare and replicate; "
                          "theory and coverage ignore it")
    sub.add_argument("--config", type=str, default=None)
    sub.add_argument("--out-dir", type=str,
                     default=os.environ.get("AMBCSIM_OUT_DIR", "."))
    sub.add_argument("--threads", type=positive_int, default=1,
                     help="worker processes of simulate, compare and "
                          "replicate; theory and coverage ignore it")


def _add_link_flags(sub):
    sub.add_argument("--msc", type=int, default=288)
    sub.add_argument("--n", type=int, default=4)
    sub.add_argument("--direct-db", type=finite, default=-52.2)
    sub.add_argument("--scatter-db", type=finite, default=-82.6)
    sub.add_argument("--scatter-phase", type=finite, default=0.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ambcsim",
        description="Backscatter-on-cellular link simulator")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    t = subs.add_parser("theory", help="exact/asymptotic BER curves")
    _add_common(t)
    _add_link_flags(t)
    t.add_argument("--gamma", type=parse_grid, default=parse_grid("0:1:20"),
                   help="LTE SNR grid in dB, start:step:stop or list")
    t.add_argument("--iota", type=parse_complex, default=None,
                   help="override the path gains with a fixed scatter ratio")

    s = subs.add_parser("simulate", help="Monte Carlo BER sweep")
    _add_common(s)
    _add_link_flags(s)
    s.add_argument("--gamma", type=parse_grid, default=parse_grid("0:2:12"))
    s.add_argument("--symbols", type=int, default=10000)
    s.add_argument("--scheme", type=str, default="BPSK",
                   choices=("BPSK", "FSK", "DBPSK"))
    s.add_argument("--detectors", type=parse_detectors,
                   default=("Correlation",))
    s.add_argument("--depth", type=finite, default=1.0)
    s.add_argument("--off-depth", type=finite, default=0.0)
    s.add_argument("--per-re", action="store_true",
                   help="synthesize every subcarrier instead of sampling "
                        "the energy law directly")

    c = subs.add_parser("compare", help="detector comparison on common "
                                        "random numbers")
    _add_common(c)
    _add_link_flags(c)
    c.add_argument("--gamma", type=parse_grid, default=parse_grid("0:5:10"))
    c.add_argument("--realizations", type=int, default=100000)
    c.add_argument("--detectors", type=parse_detectors,
                   default=("Correlation", "SquareRoot", "Power"))
    c.add_argument("--y-model", type=str, default="chi2",
                   choices=("chi2", "gaussian"))

    v = subs.add_parser("coverage", help="BER map over BD positions")
    _add_common(v)
    v.add_argument("--freq-mhz", type=finite, default=782.0)
    v.add_argument("--gamma-db", type=finite, default=10.0)
    v.add_argument("--bs", type=parse_pair, default=(50.0, 0.0))
    v.add_argument("--ue", type=parse_pair, default=(0.0, 0.0))
    v.add_argument("--half-span", type=finite, default=2.0)
    v.add_argument("--resolution", type=int, default=200)
    v.add_argument("--engine", type=str, default="gaussian",
                   choices=("gaussian", "exact"))
    v.add_argument("--levels", type=parse_levels, default=DEFAULT_LEVELS)
    v.add_argument("--range-targets", type=parse_levels, default=(0.01,))
    v.add_argument("--msc", type=int, default=288)
    v.add_argument("--n", type=int, default=4)

    r = subs.add_parser("replicate", help="framed FSK measurement pipeline")
    _add_common(r)
    r.add_argument("--gamma-b", type=parse_grid,
                   default=parse_grid("3:0.25:16"),
                   help="per-bit SNR grid in dB")
    r.add_argument("--symbols", type=int, default=9999,
                   help="symbols per SNR point; 101 per frame")

    return parser, subs.choices


def _environment():
    """What the output bits may depend on beyond config and seed: numpy
    streams and the SIMD targets its kernels dispatch to on this CPU,
    scipy special functions, and the OpenBLAS thread count of the exact
    series' last matrix-vector product (None when unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_cpu_dispatch": [f for f in __cpu_dispatch__
                               if __cpu_features__.get(f)],
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _manifest(args, outputs, started):
    doc = {
        "subcommand": args.subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "config"},
        "seed": args.seed,
        "version": __version__,
        "started_utc": started,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": outputs,
        "environment": _environment(),
    }
    path = os.path.join(args.out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        # tuples dump as arrays; str gives complex values their text
        json.dump(doc, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _sweep_config_from_args(args, *depths, **fields):
    """SweepConfig of the link flags; unflagged fields keep defaults."""
    return SweepConfig(
        snr_grid_db=tuple(args.gamma), seed=args.seed, m_sc=args.msc,
        n_chips=args.n, **fields,
        channel=flat_channel(args.direct_db, args.scatter_db,
                             args.scatter_phase, *depths))


def cmd_theory(args):
    rows = []
    cfg = _sweep_config_from_args(args)
    for gdb in args.gamma:
        if args.iota is not None:
            p = _params_for_u(abs(1.0 + args.iota) ** 2, from_db(gdb),
                              args.msc, args.n)
            gamma_b, pe, pg = p.gamma_b, exact_ber(p), gaussian_ber(p)
        else:
            gamma_b, pe, pg = _theory_bers(cfg, float(gdb))
        rows.append((float(gdb), to_db(gamma_b), pe, pg,
                     fsk_coherent_ber(gamma_b)))
    header = ("gamma_db", "gamma_b_db", "ber_exact", "ber_gaussian", "ber_fsk")
    return {"theory.csv": (header, [tuple(zip(*rows))])}, 0


def cmd_simulate(args):
    cfg = _sweep_config_from_args(
        args, args.depth, args.off_depth, n_symbols_per_point=args.symbols,
        scheme=args.scheme, detectors=args.detectors, per_re=args.per_re)
    points = run_ber_sweep(cfg, threads=args.threads)
    return {"simulate.csv": _records(BerPoint, points)}, 0


def cmd_compare(args):
    cfg = _sweep_config_from_args(args, n_symbols_per_point=args.realizations,
                                  detectors=args.detectors)
    points, disagreements = compare_receivers(cfg, y_model=args.y_model,
                                              threads=args.threads)
    return {"compare.csv": _records(BerPoint, points),
            "disagreement.csv": _records(DisagreementCount,
                                         disagreements)}, 0


def cmd_coverage(args):
    sc = CoverageScenario(
        bs_pos=tuple(args.bs), ue_pos=tuple(args.ue),
        carrier_freq_hz=args.freq_mhz * 1e6,
        gamma=from_db(args.gamma_db), m_sc=args.msc, n_chips=args.n,
        half_span=args.half_span, resolution=args.resolution,
        engine=args.engine)
    grid = compute_ber_grid(sc)
    for msg, n in Counter(msg for _, _, msg in grid.errors).items():
        print(f"error: {n} grid cells: {msg}", file=sys.stderr)
    lines = contour_export(grid, tuple(args.levels))
    lam = sc.wavelength
    targets = list(args.range_targets)
    radii, status = [], 1 if grid.errors else 0
    for target in targets:
        try:
            radii.append(range_estimate(sc, float(target)))
        except SeriesError as exc:  # like a failed cell: NaN, exit 1
            print(f"error: {exc}", file=sys.stderr)
            radii.append(math.nan)
            status = 1
    return {
        "coverage_grid.csv": (("x", "y", "ber"), _grid_rows(grid)),
        "contours.csv": (("level", "line_id", "vertex_id", "x", "y"),
                         _contour_rows(lines)),
        "range.csv": (
            ("ber_target", "radius_m", "wavelength_m", "radius_wavelengths"),
            [(targets, radii, [lam] * len(radii),
              [radius / lam for radius in radii])]),
    }, status


def _grid_rows(grid):
    """One (x, y, ber) block per grid row, x fastest; each axis value is
    formatted once and one grid row of ber is a Python list at a time."""
    xs = [_FLOAT % x for x in grid.x_axis.tolist()]
    for y, ber in zip(grid.y_axis.tolist(), grid.ber):
        yield xs, [_FLOAT % y] * len(xs), ber.tolist()


def _contour_rows(lines):
    """One (level, line_id, vertex_id, x, y) block per line; each
    distinct level is formatted once."""
    levels = {lv: _FLOAT % lv for lv in {line.level for line in lines}}
    for li, line in enumerate(lines):
        n = len(line.points)
        yield ([levels[line.level]] * n, [li] * n, range(n),
               *line.points.T.tolist())


def cmd_replicate(args):
    cfg = measurement_config(tuple(args.gamma_b),
                             n_symbols_per_point=args.symbols,
                             seed=args.seed)
    points, packets = replicate_measurement(cfg, threads=args.threads)
    return {"replicate.csv": _records(BerPoint, points),
            "packets.csv": _records(PacketRecord, packets)}, 0


_COMMANDS = {
    "theory": cmd_theory,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "coverage": cmd_coverage,
    "replicate": cmd_replicate,
}


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # the file's values become defaults of the chosen subcommand;
        # parsing again lets explicit flags win over them
        try:
            _apply_config(subparsers[args.subcommand],
                          load_config(args.config))
            args = parser.parse_args(argv)
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(str(exc))
    os.makedirs(args.out_dir, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        tables, status = _COMMANDS[args.subcommand](args)
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a flag value outside the library's domain
        parser.error(str(exc))
    outputs = []
    for name in list(tables):
        # popped, so a written table's blocks are freed before the next
        # table is formatted
        header, blocks = tables.pop(name)
        digest = write_csv(os.path.join(args.out_dir, name), header, blocks)
        outputs.append({"path": name, "sha256": digest})
    _manifest(args, outputs, started)
    return status


if __name__ == "__main__":
    sys.exit(main())
