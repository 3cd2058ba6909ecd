"""Command-line front end.

Subcommands: theory | simulate | compare | coverage | replicate.
Common flags: --seed, --config, --out-dir, --threads. A flat
key=value config file supplies defaults; explicit flags win. Every run
writes its CSV outputs plus a run_manifest.json recording the resolved
configuration, seed, version, timestamps, and output hashes.

CSV files use a single header row, '.' decimal separator, UTF-8, LF
line endings, and 9-significant-digit floats, so identical seed and
config reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import operator
import os
import sys
import time

import numpy as np

from . import __version__
from .ber_theory import (SeriesError, _params_for_u, exact_ber,
                         fsk_coherent_ber, gaussian_ber)
from .channel import _gamma_b
from .coverage import (DEFAULT_LEVELS, CoverageScenario, centered_grid,
                       compute_ber_grid, contour_export, range_estimate)
from .modem import DETECTOR_KINDS
from .montecarlo import (BerPoint, DisagreementCount, PacketRecord,
                         SweepConfig, compare_receivers, flat_channel,
                         measurement_config, replicate_measurement,
                         run_ber_sweep, theory_points)

def _column_format(v) -> str:
    if isinstance(v, (int, np.integer)):  # bools too: True prints 1
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.9g"
    return "%s"


def write_csv(path, header, rows):
    """Write a header line and one line per row tuple.

    Each column's format comes from its cell in the first row: ints and
    bools (numpy ones too) print with %d, floats (numpy ones too) with
    %.9g, anything else with %s. A column must therefore hold one type
    in every row; %d would silently truncate a float. rows may be any
    iterable and is streamed, never held in memory.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is None:
            return
        fmt = ",".join(map(_column_format, first)) + "\n"
        f.write(fmt % first)
        f.writelines(fmt % row for row in rows)


def _write_records(path, cls, records):
    """CSV of dataclass records of type cls: one column per field, in
    field order, so an empty list still writes the header."""
    names = [f.name for f in dataclasses.fields(cls)]
    write_csv(path, names, map(operator.attrgetter(*names), records))


def finite(text: str) -> float:
    """A float flag value; nan and inf are usage errors."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text}")
    return x


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
        if isinstance(action, (argparse._StoreTrueAction,
                               argparse._StoreFalseAction)):
            if raw.lower() not in _BOOLEANS:
                raise ValueError(f"bad boolean value for {key}: {raw}")
            defaults[key] = _BOOLEANS[raw.lower()]
        elif action.type is not None:
            defaults[key] = action.type(raw)
        else:
            defaults[key] = raw
    sub.set_defaults(**defaults)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--config", type=str, default=None)
    sub.add_argument("--out-dir", type=str,
                     default=os.environ.get("AMBCSIM_OUT_DIR", "."))
    sub.add_argument("--threads", type=int, default=1)


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
    subparsers = {}

    t = subs.add_parser("theory", help="exact/asymptotic BER curves")
    _add_common(t)
    _add_link_flags(t)
    t.add_argument("--gamma", type=parse_grid, default=parse_grid("0:1:20"),
                   help="LTE SNR grid in dB, start:step:stop or list")
    t.add_argument("--iota", type=parse_complex, default=None,
                   help="override the path gains with a fixed scatter ratio")
    subparsers["theory"] = t

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
    subparsers["simulate"] = s

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
    subparsers["compare"] = c

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
    subparsers["coverage"] = v

    r = subs.add_parser("replicate", help="framed FSK measurement pipeline")
    _add_common(r)
    r.add_argument("--gamma-b", type=parse_grid,
                   default=parse_grid("3:0.25:16"),
                   help="per-bit SNR grid in dB")
    r.add_argument("--symbols", type=int, default=9999,
                   help="symbols per SNR point; 101 per frame")
    subparsers["replicate"] = r

    return parser, subparsers


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, outputs, started, out_dir):
    doc = {
        "subcommand": args.subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "config"},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "started_utc": started,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": [{"path": os.path.basename(p), "sha256": _sha256(p)}
                    for p in outputs],
    }
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        # tuples dump as arrays; str gives complex values their text
        json.dump(doc, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _sweep_config_from_args(args, n_symbols, detectors, scheme):
    return SweepConfig(
        snr_grid_db=tuple(args.gamma), n_symbols_per_point=n_symbols,
        scheme=scheme, detectors=detectors, seed=args.seed,
        per_re=getattr(args, "per_re", False),
        m_sc=args.msc, n_chips=args.n,
        channel=flat_channel(args.direct_db, args.scatter_db,
                             args.scatter_phase,
                             getattr(args, "depth", 1.0),
                             getattr(args, "off_depth", 0.0)))


def cmd_theory(args, out_dir):
    rows = []
    cfg = _sweep_config_from_args(args, 10000, ("Correlation",), "BPSK")
    for gdb in args.gamma:
        if args.iota is not None:
            gamma = 10.0 ** (gdb / 10.0)
            p = _params_for_u(abs(1.0 + args.iota) ** 2, gamma, args.msc,
                              args.n)
            gamma_b = _gamma_b(p.n_chips, p.m_sc, p.h_on_sq, p.h_off_sq,
                               p.noise_power)
            pe = exact_ber(p)
            pg = gaussian_ber(p)
        else:
            te, tg = theory_points(cfg, float(gdb))
            pe, pg, gamma_b = te.ber, tg.ber, 10.0 ** (te.gamma_b_db / 10.0)
        gb_db = 10.0 * math.log10(gamma_b) if gamma_b > 0.0 else float("-inf")
        rows.append((float(gdb), gb_db, pe, pg, fsk_coherent_ber(gamma_b)))
    path = os.path.join(out_dir, "theory.csv")
    write_csv(path, ("gamma_db", "gamma_b_db", "ber_exact", "ber_gaussian",
                     "ber_fsk"), rows)
    return [path], 0


def cmd_simulate(args, out_dir):
    cfg = _sweep_config_from_args(args, args.symbols, tuple(args.detectors),
                                  args.scheme)
    points = run_ber_sweep(cfg, threads=args.threads)
    path = os.path.join(out_dir, "simulate.csv")
    _write_records(path, BerPoint, points)
    return [path], 0


def cmd_compare(args, out_dir):
    cfg = _sweep_config_from_args(args, args.realizations,
                                  tuple(args.detectors), "BPSK")
    points, disagreements = compare_receivers(cfg, y_model=args.y_model,
                                              threads=args.threads)
    p1 = os.path.join(out_dir, "compare.csv")
    _write_records(p1, BerPoint, points)
    p2 = os.path.join(out_dir, "disagreement.csv")
    _write_records(p2, DisagreementCount, disagreements)
    return [p1, p2], 0


def cmd_coverage(args, out_dir):
    sc = CoverageScenario(
        bs_pos=tuple(args.bs), ue_pos=tuple(args.ue),
        carrier_freq_hz=args.freq_mhz * 1e6,
        gamma=10.0 ** (args.gamma_db / 10.0),
        m_sc=args.msc, n_chips=args.n,
        grid=centered_grid(tuple(args.ue), args.half_span, args.resolution),
        engine=args.engine)
    # levels and targets are all checked before any file is written
    grid = compute_ber_grid(sc)
    lines = contour_export(grid, tuple(args.levels))
    lam = sc.wavelength
    rrows = []
    for target in args.range_targets:
        radius = range_estimate(sc, float(target))
        rrows.append((target, radius, lam,
                      radius / lam if lam > 0 else float("nan")))
    x, y = grid.x_axis, grid.y_axis
    p1 = os.path.join(out_dir, "coverage_grid.csv")
    write_csv(p1, ("x", "y", "ber"),
              zip(np.tile(x, y.size).tolist(), np.repeat(y, x.size).tolist(),
                  grid.ber.ravel().tolist()))
    p2 = os.path.join(out_dir, "contours.csv")
    write_csv(p2, ("level", "line_id", "vertex_id", "x", "y"),
              ((line.level, li, vi, xv, yv)
               for li, line in enumerate(lines)
               for vi, (xv, yv) in enumerate(line.points.tolist())))
    p3 = os.path.join(out_dir, "range.csv")
    write_csv(p3, ("ber_target", "radius_m", "wavelength_m",
                   "radius_wavelengths"), rrows)
    return [p1, p2, p3], 1 if grid.errors else 0


def cmd_replicate(args, out_dir):
    cfg = measurement_config(tuple(args.gamma_b),
                             n_symbols_per_point=args.symbols,
                             seed=args.seed)
    points, packets = replicate_measurement(cfg, threads=args.threads)
    p1 = os.path.join(out_dir, "replicate.csv")
    _write_records(p1, BerPoint, points)
    p2 = os.path.join(out_dir, "packets.csv")
    _write_records(p2, PacketRecord, packets)
    return [p1, p2], 0


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
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        outputs, status = _COMMANDS[args.subcommand](args, out_dir)
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a flag value outside the library's domain
        parser.error(str(exc))
    _manifest(args, outputs, started, out_dir)
    return status


if __name__ == "__main__":
    sys.exit(main())
