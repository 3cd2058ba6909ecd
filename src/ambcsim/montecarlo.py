"""Seeded end-to-end simulation harness.

Runs symbol streams through the grid/channel/modem stack, sweeps BER
against the cellular SNR, compares detectors on common random numbers,
and replicates the framed FSK measurement pipeline with 0.25 dB SNR
binning.

Determinism: every random draw comes from a stream seeded by
(seed, point_index, shard_index), or (seed, point_index, frame_index)
for framed replication, and work is partitioned into fixed tasks merged
by index, so thread count never changes any output bit.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .ber_theory import (_ordered_params, exact_ber, fsk_coherent_ber,
                         gaussian_ber, params_for_scheme)
from .channel import (SPEED_OF_LIGHT, ChannelSet, LinkGeometry,
                      _state_gains, _state_powers, from_db, fspl_gain,
                      snr_per_bit, to_db)
from .lte_grid import energy_stream
from .modem import (DETECTOR_KINDS, FRAME_BITS, PAYLOAD_BITS, SCHEMES,
                    SYNC_BITS, demodulate_stream, encode_bits, encode_frame,
                    frame_sync, make_alphabet)

_SHARD_SYMBOLS = 2500
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def flat_channel(direct_gain_db: float = -52.2,
                 scatter_gain_db: float = -82.6,
                 scatter_phase_rad: float = 0.0,
                 bd_modulation_depth: float = 1.0,
                 bd_off_depth: float = 0.0) -> ChannelSet:
    """ChannelSet with flat path attenuations in dB, a fixed scatter
    phase and a unit BD-to-BS leg, at noise power 1."""
    h_d = 10.0 ** (direct_gain_db / 20.0)
    h_s = 10.0 ** (scatter_gain_db / 20.0) * np.exp(1j * scatter_phase_rad)
    return ChannelSet(h_d=complex(h_d), h_s=complex(h_s), h_b=complex(1.0),
                      noise_power=1.0,
                      bd_modulation_depth=bd_modulation_depth,
                      bd_off_depth=bd_off_depth)


@dataclass(frozen=True)
class SweepConfig:
    """Scenario and sampling plan for a BER sweep.

    channel holds the path gains and BD depths. snr_grid_db sweeps the
    cellular SNR gamma by setting the noise power at each point, so
    channel.noise_power is not used, and the path gains and hence iota
    stay fixed.
    """

    snr_grid_db: tuple
    n_symbols_per_point: int = 10000
    scheme: str = "BPSK"
    detectors: tuple = ("Correlation",)
    seed: int = 0
    per_re: bool = False
    m_sc: int = 288
    n_chips: int = 4
    channel: ChannelSet = flat_channel()

    def __post_init__(self):
        grid = tuple(float(g) for g in self.snr_grid_db)
        if len(grid) == 0:
            raise ValueError("snr_grid_db must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        if self.n_symbols_per_point < 100:
            raise ValueError("n_symbols_per_point must be at least 100")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme: {self.scheme}")
        if not self.detectors:
            raise ValueError("at least one detector required")
        for d in self.detectors:
            if d not in DETECTOR_KINDS:
                raise ValueError(f"unknown detector kind: {d}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class BerPoint:
    """One row of a BER table. For simulation rows ber = n_errors /
    n_bits and [ci_low, ci_high] is the 95% Wilson interval; theory
    rows carry zero counts and NaN bounds."""

    gamma_db: float
    gamma_b_db: float
    receiver: str
    source: str
    ber: float
    n_errors: int
    n_bits: int
    ci_low: float = float("nan")
    ci_high: float = float("nan")


@dataclass(frozen=True)
class DisagreementCount:
    gamma_db: float
    receiver_a: str
    receiver_b: str
    n_disagree: int
    n_symbols: int


@dataclass(frozen=True)
class PacketRecord:
    """Outcome of one simulated frame. sync_offset is -1 when the
    synchronizer returned nothing; bit counts are zero unless the sync
    locked at the true frame start."""

    gamma_b_db: float
    lead_chips: int
    sync_offset: int
    sync_ok: bool
    n_errors: int
    n_bits: int


def wilson_interval(k: int, n: int):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError("k must be in [0, n]")
    p = k / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def channel_for_snr(cfg: SweepConfig, gamma_db: float) -> ChannelSet:
    """ChannelSet at cellular SNR gamma_db with the config's paths."""
    noise = abs(cfg.channel.h_d) ** 2 / from_db(gamma_db)
    return replace(cfg.channel, noise_power=noise)


def _theory_bers(cfg: SweepConfig, gamma_db: float):
    """(gamma_b, exact BER, asymptotic BER) at one sweep point."""
    ch = channel_for_snr(cfg, gamma_db)
    gamma_b = snr_per_bit(ch, cfg.n_chips, cfg.m_sc)
    p = _ordered_params(*_state_powers(ch), ch.noise_power, cfg.m_sc,
                        cfg.n_chips)
    pe = exact_ber(params_for_scheme(p, cfg.scheme))
    if cfg.scheme == "FSK":
        pg = fsk_coherent_ber(gamma_b)
    else:
        pg = gaussian_ber(p)
    if cfg.scheme == "DBPSK":
        pe = 2.0 * pe * (1.0 - pe)
        pg = 2.0 * pg * (1.0 - pg)
    return gamma_b, pe, pg


def theory_points(cfg: SweepConfig, gamma_db: float):
    """Exact and asymptotic theory rows matching one sweep point."""
    gamma_b, pe, pg = _theory_bers(cfg, gamma_db)
    gb_db = to_db(gamma_b)
    mk = lambda ber, src: BerPoint(
        gamma_db=gamma_db, gamma_b_db=gb_db, ber=float(ber), n_errors=0,
        n_bits=0, receiver="theory", source=src)
    return [mk(pe, "theory_exact"), mk(pg, "theory_gaussian")]


def _shard_sizes(total: int):
    return [min(_SHARD_SYMBOLS, total - k)
            for k in range(0, total, _SHARD_SYMBOLS)]


def _simulate_shard(cfg: SweepConfig, gamma_db: float, point_index: int,
                    shard_index: int, n_symbols: int, y_model: str):
    """Detect n_symbols random symbols on one seeded stream. All
    detectors in cfg see the same realizations. Returns per-detector
    error counts plus pairwise disagreement counts. y_model is "chi2"
    or "gaussian" (compare_receivers checks it)."""
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, point_index, shard_index)))
    ch = channel_for_snr(cfg, gamma_db)
    alphabet = make_alphabet(cfg.scheme, cfg.n_chips)
    bits = rng.integers(0, 2, n_symbols)
    chips = encode_bits(alphabet, bits)
    h = np.where(chips > 0, *_state_gains(ch))
    if y_model == "chi2":
        ys = energy_stream(h, cfg.m_sc, ch.noise_power, rng,
                           per_re=cfg.per_re)
    else:
        s2 = ch.noise_power
        g2 = np.abs(h) ** 2
        mu = cfg.m_sc * (s2 + g2)
        var = cfg.m_sc * (s2 * s2 + 2.0 * s2 * g2)
        ys = np.maximum(rng.normal(mu, np.sqrt(var)), 0.0)
    decoded_all = [demodulate_stream(det, ys, alphabet, ch, cfg.m_sc)
                   for det in cfg.detectors]
    errors = [int(np.sum(d != bits)) for d in decoded_all]
    disagree = [int(np.sum(a != b))
                for a, b in itertools.combinations(decoded_all, 2)]
    return errors, disagree


def _pool_map(fn, tasks, threads: int):
    """fn(*task) for each argument tuple in tasks, in task order: in this
    process when threads is 1, else in a pool of that many spawned
    worker processes (fn must be a module-level function). threads
    below 1 is a ValueError."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if threads == 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads,
                             mp_context=get_context("spawn")) as ex:
        return list(ex.map(fn, *zip(*tasks), chunksize=1))


def _run_shards(cfg: SweepConfig, threads: int, y_model: str):
    """All (point, shard) tasks, merged by index into per-point error
    and disagreement totals over cfg.n_symbols_per_point symbols."""
    tasks = [(cfg, float(gdb), pi, si, n, y_model)
             for pi, gdb in enumerate(cfg.snr_grid_db)
             for si, n in enumerate(_shard_sizes(cfg.n_symbols_per_point))]
    results = _pool_map(_simulate_shard, tasks, threads)
    n_det = len(cfg.detectors)
    n_pairs = n_det * (n_det - 1) // 2
    n_points = len(cfg.snr_grid_db)
    errors = np.zeros((n_points, n_det), dtype=int)
    disagree = np.zeros((n_points, n_pairs), dtype=int)
    for (cfg_, gdb, pi, si, n, ym), (errs, dis) in zip(tasks, results):
        errors[pi] += np.asarray(errs, dtype=int)
        disagree[pi] += np.asarray(dis, dtype=int)
    return errors, disagree


def run_ber_sweep(cfg: SweepConfig, threads: int = 1):
    """One simulation BerPoint per (SNR point, detector), plus matching
    exact and asymptotic theory rows. Deterministic for a fixed seed
    and config regardless of threads."""
    errors, _ = _run_shards(cfg, threads, "chi2")
    points = []
    for pi, gdb in enumerate(cfg.snr_grid_db):
        gdb = float(gdb)
        points.extend(theory_points(cfg, gdb))
        points.extend(_sim_points(cfg, gdb, errors[pi]))
    return points


def _sim_point(gamma_db: float, gamma_b_db: float, receiver: str, k: int,
               n: int) -> BerPoint:
    """Simulation BerPoint of k errors in n bits, with the 95% Wilson
    interval."""
    lo, hi = wilson_interval(k, n)
    return BerPoint(gamma_db=gamma_db, gamma_b_db=gamma_b_db, ber=k / n,
                    n_errors=k, n_bits=n, receiver=receiver,
                    source="simulation", ci_low=lo, ci_high=hi)


def _sim_points(cfg: SweepConfig, gdb: float, errors_row):
    """One simulation BerPoint per detector at SNR point gdb, from its
    error counts over cfg.n_symbols_per_point bits."""
    ch = channel_for_snr(cfg, gdb)
    gb_db = to_db(snr_per_bit(ch, cfg.n_chips, cfg.m_sc))
    return [_sim_point(gdb, gb_db, det, int(k), cfg.n_symbols_per_point)
            for det, k in zip(cfg.detectors, errors_row)]


def compare_receivers(cfg: SweepConfig, y_model: str = "chi2",
                      threads: int = 1):
    """Per-detector BER on the same realizations, plus pairwise
    decision disagreement counts. y_model picks how the per-chip energy
    is sampled: its exact chi-square law, or the matching-moment normal
    approximation (clipped at zero)."""
    if len(cfg.detectors) < 2:
        raise ValueError("receiver comparison needs at least 2 detectors")
    if y_model not in ("chi2", "gaussian"):
        raise ValueError(f"unknown y_model: {y_model}")
    errors, disagree = _run_shards(cfg, threads, y_model)
    n = cfg.n_symbols_per_point
    points = []
    rows = []
    for pi, gdb in enumerate(cfg.snr_grid_db):
        gdb = float(gdb)
        points.extend(_sim_points(cfg, gdb, errors[pi]))
        pairs = itertools.combinations(cfg.detectors, 2)
        rows.extend(DisagreementCount(
            gamma_db=gdb, receiver_a=a, receiver_b=b,
            n_disagree=int(k), n_symbols=n)
            for (a, b), k in zip(pairs, disagree[pi]))
    return points, rows


def measurement_config(snr_per_bit_grid_db, n_symbols_per_point: int = 9999,
                       seed: int = 0) -> SweepConfig:
    """Sweep configuration mirroring the reported measurement setup:
    2.56 GHz carrier, terminals at d_d=0.83 m, d_s=0.45 m, d_b=0.65 m,
    40 ms FSK symbols (20 chips), and a two-level tag with 0.5 dB
    reflect and 23 dB absorb return loss. The SNR grid is interpreted
    per bit by replicate_measurement."""
    d_d, d_s, d_b = 0.83, 0.45, 0.65
    x = (d_s ** 2 + d_d ** 2 - d_b ** 2) / (2.0 * d_d)
    y = math.sqrt(d_s ** 2 - x ** 2)
    geom = LinkGeometry(bs_pos=(d_d, 0.0), ue_pos=(0.0, 0.0),
                        bd_pos=(x, y))
    lam = SPEED_OF_LIGHT / 2560e6
    ch = ChannelSet(h_d=fspl_gain(geom.d_d, lam),
                    h_s=fspl_gain(geom.d_s, lam),
                    h_b=fspl_gain(geom.d_b, lam), noise_power=1.0,
                    bd_modulation_depth=10.0 ** (-0.5 / 20.0),
                    bd_off_depth=10.0 ** (-23.0 / 20.0))
    return SweepConfig(
        snr_grid_db=tuple(float(g) for g in snr_per_bit_grid_db),
        n_symbols_per_point=n_symbols_per_point,
        scheme="FSK", detectors=("Correlation",), seed=seed,
        n_chips=20, channel=ch)


def _noise_for_gamma_b(cfg: SweepConfig, gamma_b: float) -> float:
    """Noise power giving the requested per-bit SNR with the config's
    fixed path gains (closed-form root of the gamma_b definition)."""
    on, off = _state_powers(cfg.channel)
    s = on + off
    d = on - off
    nm = cfg.n_chips * cfg.m_sc
    return 0.5 * (-s + math.sqrt(s * s + nm * d * d / (2.0 * gamma_b)))


def _replicate_point(cfg: SweepConfig, pi: int, gb_db: float):
    """Packet records of the frames of one per-bit SNR point. Every
    frame draws from its own (seed, point, frame) stream."""
    alphabet = make_alphabet(cfg.scheme, cfg.n_chips)
    n = cfg.n_chips
    n_frames = max(1, cfg.n_symbols_per_point // FRAME_BITS)
    tail = SYNC_BITS.size * n
    noise = _noise_for_gamma_b(cfg, from_db(gb_db))
    ch = replace(cfg.channel, noise_power=noise)
    gains = _state_gains(ch)
    on, off = _state_powers(ch)
    mid = cfg.m_sc * (noise + 0.5 * (on + off))
    sgn = 1.0 if on >= off else -1.0
    log = []
    for fi in range(n_frames):
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, pi, fi)))
        payload = rng.integers(0, 2, PAYLOAD_BITS)
        lead = int(rng.integers(0, FRAME_BITS * n))
        chips = np.concatenate([
            -np.ones(lead, dtype=int),
            encode_frame(payload, alphabet, idle_chips=tail)])
        h = np.where(chips > 0, *gains)
        ys = energy_stream(h, cfg.m_sc, noise, rng,
                           per_re=cfg.per_re)
        llr = sgn * (ys - mid)
        offset = frame_sync(llr, alphabet)
        ok = offset is not None and int(offset) == lead
        n_err = 0
        n_bits = 0
        if ok:
            start = lead + tail
            seg = ys[start:start + PAYLOAD_BITS * n]
            decoded = demodulate_stream("Correlation", seg, alphabet,
                                        ch, cfg.m_sc)
            n_err = int(np.sum(decoded != payload))
            n_bits = PAYLOAD_BITS
        log.append(PacketRecord(
            gamma_b_db=gb_db, lead_chips=lead,
            sync_offset=-1 if offset is None else int(offset),
            sync_ok=bool(ok), n_errors=n_err, n_bits=n_bits))
    return log


def replicate_measurement(cfg: SweepConfig, threads: int = 1):
    """Framed FSK pipeline: 101-bit frames (21-bit Barker sync + 80
    payload bits), random idle lead-in, soft-chip synchronization, then
    coherent detection of the payload.

    cfg.snr_grid_db is the per-bit SNR grid in dB; bit errors aggregate
    into 0.25 dB gamma_b bins. Frames whose synchronizer misses the
    true start are logged with sync_ok false but contribute no bits to
    the bins. Returns (BerPoint rows incl. the coherent-FSK theory overlay,
    packet log). With threads > 1 the SNR points run in that many
    worker processes and merge in point order, so the output does not
    depend on threads.
    """
    if cfg.scheme != "FSK":
        raise ValueError("measurement replication uses the FSK scheme")
    tasks = [(cfg, pi, float(gb_db))
             for pi, gb_db in enumerate(cfg.snr_grid_db)]
    log = [rec for point_log in _pool_map(_replicate_point, tasks, threads)
           for rec in point_log]
    bins = {}
    for rec in log:
        tally = bins.setdefault(round(rec.gamma_b_db / 0.25) * 0.25, [0, 0])
        tally[0] += rec.n_errors
        tally[1] += rec.n_bits
    points = []
    for key in sorted(bins):
        k, nb = bins[key]
        theory = fsk_coherent_ber(from_db(key))
        points.append(BerPoint(
            gamma_db=float("nan"), gamma_b_db=float(key), ber=theory,
            n_errors=0, n_bits=0, receiver="theory",
            source="theory_gaussian"))
        if nb > 0:
            points.append(_sim_point(float("nan"), float(key),
                                     "Correlation", k, nb))
    return points, log
