"""Seeded sweep harness, receiver comparison, and measurement replica."""
import concurrent.futures
import math
import os

import numpy as np
import pytest

from ambcsim import montecarlo
from ambcsim.ber_theory import (DetectionParams, exact_ber, fsk_coherent_ber,
                                gaussian_ber)
from ambcsim.channel import (SPEED_OF_LIGHT, ChannelSet, _state_powers,
                             composite_gain, from_db, snr_per_bit)
from ambcsim.modem import FRAME_BITS, PAYLOAD_BITS
from ambcsim.montecarlo import (
    SweepConfig,
    _theory_bers,
    channel_for_snr,
    compare_receivers,
    flat_channel,
    measurement_config,
    replicate_measurement,
    run_ber_sweep,
    theory_points,
    wilson_interval,
)
from oracles import EXACT_BER_SWEEP


def small_cfg(**kw):
    base = dict(snr_grid_db=(6.0,), n_symbols_per_point=2500,
                detectors=("Correlation",), seed=7)
    base.update(kw)
    return SweepConfig(**base)


class TestConfigValidation:
    def test_grid(self):
        with pytest.raises(ValueError):
            SweepConfig(snr_grid_db=())
        with pytest.raises(ValueError):
            SweepConfig(snr_grid_db=(3.0, 1.0))
        with pytest.raises(ValueError):
            SweepConfig(snr_grid_db=(1.0, 1.0))

    def test_counts_and_names(self):
        with pytest.raises(ValueError):
            small_cfg(n_symbols_per_point=99)
        with pytest.raises(ValueError):
            small_cfg(scheme="OFDM")
        with pytest.raises(ValueError):
            small_cfg(detectors=())
        with pytest.raises(ValueError):
            small_cfg(detectors=("Correlation", "Psychic"))
        with pytest.raises(ValueError, match="repeat"):
            small_cfg(detectors=("Correlation", "Power", "Correlation"))
        with pytest.raises(ValueError):
            small_cfg(seed=-1)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one(self, threads):
        # raised before any work; no pool is started
        with pytest.raises(ValueError, match="threads"):
            run_ber_sweep(small_cfg(), threads=threads)
        with pytest.raises(ValueError, match="threads"):
            compare_receivers(small_cfg(detectors=("Correlation", "Power")),
                              threads=threads)
        with pytest.raises(ValueError, match="threads"):
            replicate_measurement(measurement_config((8.0,), 303),
                                  threads=threads)


class _RecordingPool:
    """ProcessPoolExecutor stand-in: runs the tasks in this process and
    records the pool size each pool was asked for."""

    def __init__(self, max_workers, mp_context, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


class TestPoolMap:
    """--threads is an upper bound on the worker processes."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            lambda max_workers, mp_context: _RecordingPool(
                max_workers, mp_context, sizes))
        return sizes

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    # threads, tasks, CPUs -> the pool size (None: no pool)
    @pytest.mark.parametrize("threads, n_tasks, cpus, size", [
        (4000, 4040, 2, 2), (3, 5, 8, 3), (8, 3, 16, 3), (2, 1, 4, None),
        (4, 6, 1, None), (1, 6, 4, None)])
    def test_pool_size(self, monkeypatch, sizes, threads, n_tasks, cpus,
                       size):
        self._cpus(monkeypatch, cpus)
        tasks = [(i, 2) for i in range(n_tasks)]
        assert montecarlo._pool_map(pow, tasks, threads) \
            == [i * i for i in range(n_tasks)]
        assert sizes == ([] if size is None else [size])

    def test_cpu_count_without_affinity(self, monkeypatch, sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        montecarlo._pool_map(pow, [(i, 2) for i in range(9)], 64)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        montecarlo._pool_map(pow, [(i, 2) for i in range(9)], 64)
        assert sizes == [3]

    def test_sweep_with_many_threads(self, monkeypatch, sizes):
        # 3 points of 2 shards each: 6 tasks, so 6 workers at most
        self._cpus(monkeypatch, 64)
        cfg = small_cfg(snr_grid_db=(4.0, 6.0, 8.0), n_symbols_per_point=3000)
        assert len(montecarlo._shard_sizes(3000)) == 2
        assert run_ber_sweep(cfg, threads=4000) == run_ber_sweep(cfg)
        assert sizes == [6]


class TestWilson:
    def test_closed_form(self):
        z = 1.959963984540054
        k, n = 37, 500
        p = k / n
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        lo, hi = wilson_interval(k, n)
        assert lo == pytest.approx(center - half, rel=1e-12, abs=0)
        assert hi == pytest.approx(center + half, rel=1e-12, abs=0)

    def test_edges_clamped(self):
        lo, hi = wilson_interval(0, 50)
        assert lo < 1e-15 and 0.0 < hi < 0.12
        lo, hi = wilson_interval(50, 50)
        assert hi > 1.0 - 1e-15 and 0.88 < lo < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestChannelForSnr:
    def test_sets_requested_snr(self):
        for gdb in (-3.0, 0.0, 12.5):
            ch = channel_for_snr(small_cfg(), gdb)
            assert abs(ch.h_d) ** 2 / ch.noise_power == pytest.approx(
                from_db(gdb), rel=1e-12, abs=0)

    def test_flat_gains_scale(self):
        ch = channel_for_snr(small_cfg(), 6.0)
        assert abs(ch.h_d) ** 2 == pytest.approx(from_db(-52.2), rel=1e-12,
                                                 abs=0)
        assert abs(ch.h_s) ** 2 == pytest.approx(from_db(-82.6), rel=1e-12,
                                                 abs=0)


class TestTheoryPoints:
    def test_bpsk_rows(self):
        cfg = small_cfg()
        rows = theory_points(cfg, 6.0)
        assert [r.source for r in rows] == ["theory_exact", "theory_gaussian"]
        assert all(r.receiver == "theory" for r in rows)
        assert rows[0].ber == pytest.approx(EXACT_BER_SWEEP[6.0], rel=1e-9,
                                            abs=0)

    def test_fsk_rows(self):
        cfg = small_cfg(scheme="FSK")
        rows = theory_points(cfg, 6.0)
        ch = channel_for_snr(cfg, 6.0)
        gb = snr_per_bit(ch, cfg.n_chips, cfg.m_sc)
        assert rows[1].ber == pytest.approx(fsk_coherent_ber(gb), rel=1e-12,
                                            abs=0)
        # FSK spends half its chips on the distinguishing tone
        p = DetectionParams(m_sc=cfg.m_sc, n_chips=cfg.n_chips // 2,
                            h_on_sq=abs(composite_gain(ch, +1)) ** 2,
                            h_off_sq=abs(composite_gain(ch, -1)) ** 2,
                            noise_power=ch.noise_power)
        assert rows[0].ber == pytest.approx(exact_ber(p), rel=1e-12, abs=0)

    def test_destructive_rows_take_state_order(self, monkeypatch):
        # gamma_b and the Gaussian BER of a row come from the gains in
        # state order, so on a destructive channel too they are bit for
        # bit snr_per_bit and gaussian_ber of the channel's own params;
        # the exact series is stubbed out, since only its params matter
        monkeypatch.setattr(montecarlo, "exact_ber", lambda p: 0.25)
        rng = np.random.default_rng(29)
        n_checked = 0
        while n_checked < 300:
            ch = ChannelSet(
                h_d=1.0, h_s=rng.uniform(0.0, 1.0) * np.exp(
                    1j * rng.uniform(-np.pi, np.pi)),
                h_b=1.0, noise_power=1.0,
                bd_off_depth=rng.uniform(0.0, 0.9))
            on, off = _state_powers(ch)
            if on >= off:
                continue
            m_sc = int(rng.integers(1, 300))
            n = 2 * int(rng.integers(1, 11))
            cfg = small_cfg(channel=ch, m_sc=m_sc, n_chips=n)
            gdb = float(rng.uniform(-10.0, 30.0))
            gamma_b, pe, pg = _theory_bers(cfg, gdb)
            at_gdb = channel_for_snr(cfg, gdb)
            assert pg == gaussian_ber(DetectionParams(m_sc, n, on, off,
                                                      at_gdb.noise_power))
            assert gamma_b == snr_per_bit(at_gdb, n, m_sc)
            assert pe == 0.25
            n_checked += 1

    def test_dbpsk_rows(self):
        base = theory_points(small_cfg(), 6.0)
        diff = theory_points(small_cfg(scheme="DBPSK"), 6.0)
        p = base[0].ber
        assert diff[0].ber == pytest.approx(2.0 * p * (1.0 - p), rel=1e-12,
                                            abs=0)

    def test_fsk_needs_more_energy_than_bpsk(self):
        pb = theory_points(small_cfg(), 6.0)[0].ber
        pf = theory_points(small_cfg(scheme="FSK"), 6.0)[0].ber
        assert pf > pb


class TestSweep:
    def test_reproducible_and_thread_invariant(self):
        # per_re=True also runs the per-subcarrier synthesis, and its
        # generator copy, in spawned workers
        for per_re in (False, True):
            cfg = small_cfg(n_symbols_per_point=5000, per_re=per_re)
            a = run_ber_sweep(cfg, threads=1)
            b = run_ber_sweep(cfg, threads=1)
            c = run_ber_sweep(cfg, threads=2)
            assert [repr(p) for p in a] == [repr(p) for p in b], per_re
            assert [repr(p) for p in a] == [repr(p) for p in c], per_re

    def test_matches_exact_theory(self):
        cfg = small_cfg(n_symbols_per_point=10000)
        pts = run_ber_sweep(cfg)
        sim = [p for p in pts if p.source == "simulation"][0]
        pe = EXACT_BER_SWEEP[6.0]
        z = (sim.n_errors - sim.n_bits * pe) / math.sqrt(
            sim.n_bits * pe * (1.0 - pe))
        assert abs(z) < 3.29
        assert sim.ci_low < sim.ber < sim.ci_high

    def test_per_re_path_statistically_equal(self):
        fast = run_ber_sweep(small_cfg(n_symbols_per_point=2000))
        slow = run_ber_sweep(small_cfg(n_symbols_per_point=2000,
                                       per_re=True))
        a = [p for p in fast if p.source == "simulation"][0]
        b = [p for p in slow if p.source == "simulation"][0]
        pool = (a.n_errors + b.n_errors) / (a.n_bits + b.n_bits)
        se = math.sqrt(2.0 * pool * (1.0 - pool) / a.n_bits)
        assert abs(a.ber - b.ber) < 3.29 * se

    def test_vanishing_scatter_flips_coins(self):
        cfg = small_cfg(channel=flat_channel(scatter_gain_db=-400.0))
        pts = run_ber_sweep(cfg)
        sim = [p for p in pts if p.source == "simulation"][0]
        assert abs(sim.ber - 0.5) < 0.04
        exact_row = [p for p in pts if p.source == "theory_exact"][0]
        assert exact_row.ber == pytest.approx(0.5, abs=1e-9)

    def test_gamma_b_column_consistent(self):
        pts = run_ber_sweep(small_cfg())
        ch = channel_for_snr(small_cfg(), 6.0)
        gb_db = 10.0 * math.log10(snr_per_bit(ch, 4, 288))
        assert all(p.gamma_b_db == pytest.approx(gb_db, rel=1e-12, abs=0)
                   for p in pts)


class TestCompareReceivers:
    def test_needs_two(self):
        with pytest.raises(ValueError):
            compare_receivers(small_cfg())
        with pytest.raises(ValueError):
            compare_receivers(small_cfg(detectors=("Correlation",
                                                   "SquareRoot")),
                              y_model="cauchy")

    def test_common_randomness_keeps_gaps_small(self):
        cfg = small_cfg(
            snr_grid_db=(5.0,), n_symbols_per_point=20000,
            detectors=("Correlation", "SquareRoot", "Power", "BesselMap"))
        points, rows = compare_receivers(cfg)
        sims = [p for p in points if p.source == "simulation"]
        assert len(sims) == 4
        n = sims[0].n_bits
        for a in sims:
            for b in sims:
                pool = 0.5 * (a.ber + b.ber)
                se = math.sqrt(pool * (1.0 - pool) / n)
                assert abs(a.ber - b.ber) <= 2.0 * se
        bysq = [r for r in rows if {r.receiver_a, r.receiver_b}
                == {"BesselMap", "SquareRoot"}][0]
        assert bysq.n_disagree / bysq.n_symbols <= 0.01

    def test_gaussian_y_model_consistent(self):
        cfg = small_cfg(n_symbols_per_point=10000,
                        detectors=("Correlation", "Power"))
        pc, _ = compare_receivers(cfg, y_model="chi2")
        pg, _ = compare_receivers(cfg, y_model="gaussian")
        a = [p for p in pc if p.receiver == "Correlation"][0]
        b = [p for p in pg if p.receiver == "Correlation"][0]
        pool = (a.n_errors + b.n_errors) / (a.n_bits + b.n_bits)
        se = math.sqrt(2.0 * pool * (1.0 - pool) / a.n_bits)
        assert abs(a.ber - b.ber) < 3.29 * se


class TestMeasurementConfig:
    def test_reported_setup(self):
        cfg = measurement_config((5.0, 6.0))
        assert cfg.scheme == "FSK"
        assert cfg.detectors == ("Correlation",)
        assert cfg.n_chips == 20
        ch = cfg.channel
        assert ch.bd_modulation_depth == pytest.approx(10 ** (-0.5 / 20))
        assert ch.bd_off_depth == pytest.approx(10 ** (-23.0 / 20))
        # free-space legs at 2.56 GHz over the reported distances
        lam = SPEED_OF_LIGHT / 2560e6
        for h, d in ((ch.h_d, 0.83), (ch.h_s, 0.45), (ch.h_b, 0.65)):
            assert abs(h) == pytest.approx(lam / (4.0 * math.pi * d),
                                           rel=1e-12, abs=0)

    def test_geometry_is_destructive(self):
        cfg = measurement_config((6.0,))
        ch = channel_for_snr(cfg, 0.0)
        on = abs(composite_gain(ch, +1)) ** 2
        off = abs(composite_gain(ch, -1)) ** 2
        assert on < off


class TestReplicateMeasurement:
    def test_fsk_only(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            replicate_measurement(cfg)

    def test_small_run_shape(self):
        cfg = measurement_config((7.9,), n_symbols_per_point=FRAME_BITS * 4,
                                 seed=3)
        points, log = replicate_measurement(cfg)
        assert len(log) == 4
        for rec in log:
            assert 0 <= rec.lead_chips < FRAME_BITS * 20
            assert rec.gamma_b_db == 7.9
            if rec.sync_ok:
                assert rec.sync_offset == rec.lead_chips
                assert rec.n_bits == PAYLOAD_BITS
            else:
                assert rec.n_bits == 0 and rec.n_errors == 0
        # 7.9 dB tallies into the nearest quarter-dB bin
        assert all(p.gamma_b_db == 8.0 for p in points)
        theory = [p for p in points if p.receiver == "theory"][0]
        assert theory.ber == pytest.approx(fsk_coherent_ber(from_db(8.0)),
                                           rel=1e-12, abs=0)
        sims = [p for p in points if p.source == "simulation"]
        assert sum(r.sync_ok for r in log) > 0
        assert sims[0].n_bits == PAYLOAD_BITS * sum(r.sync_ok for r in log)

    def test_deterministic(self):
        cfg = measurement_config((8.0,), n_symbols_per_point=FRAME_BITS * 3,
                                 seed=5)
        p1, l1 = replicate_measurement(cfg)
        p2, l2 = replicate_measurement(cfg)
        assert [repr(p) for p in p1] == [repr(p) for p in p2]
        assert l1 == l2

    def test_threads_do_not_change_output(self):
        cfg = measurement_config((6.0, 7.0, 8.0), n_symbols_per_point=303,
                                 seed=9)
        p1, l1 = replicate_measurement(cfg, threads=1)
        p2, l2 = replicate_measurement(cfg, threads=2)
        assert [repr(p) for p in p1] == [repr(p) for p in p2]
        assert l1 == l2
        assert [r.gamma_b_db for r in l2] == [6.0] * 3 + [7.0] * 3 + [8.0] * 3

    def test_sync_rate_at_ten_db(self):
        cfg = measurement_config((10.0,), n_symbols_per_point=FRAME_BITS * 25,
                                 seed=11)
        _, log = replicate_measurement(cfg)
        assert sum(r.sync_ok for r in log) >= 24
