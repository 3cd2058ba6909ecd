"""Seeded sweep harness, receiver comparison, and measurement replica."""
import math

import numpy as np
import pytest

from ambcsim.ber_theory import DetectionParams, exact_ber, fsk_coherent_ber
from ambcsim.channel import (SPEED_OF_LIGHT, composite_gain, from_db,
                             lte_snr, snr_per_bit)
from ambcsim.modem import FRAME_BITS, PAYLOAD_BITS
from ambcsim.montecarlo import (
    SweepConfig,
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
        with pytest.raises(ValueError):
            small_cfg(seed=-1)


class TestWilson:
    def test_closed_form(self):
        z = 1.959963984540054
        k, n = 37, 500
        p = k / n
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        lo, hi = wilson_interval(k, n)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)

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
            assert lte_snr(ch) == pytest.approx(from_db(gdb), rel=1e-12)

    def test_flat_gains_scale(self):
        ch = channel_for_snr(small_cfg(), 6.0)
        assert abs(ch.h_d) ** 2 == pytest.approx(from_db(-52.2), rel=1e-12)
        assert abs(ch.h_s) ** 2 == pytest.approx(from_db(-82.6), rel=1e-12)


class TestTheoryPoints:
    def test_bpsk_rows(self):
        cfg = small_cfg()
        rows = theory_points(cfg, 6.0)
        assert [r.source for r in rows] == ["theory_exact", "theory_gaussian"]
        assert all(r.receiver == "theory" for r in rows)
        assert rows[0].ber == pytest.approx(EXACT_BER_SWEEP[6.0], rel=1e-9)

    def test_fsk_rows(self):
        cfg = small_cfg(scheme="FSK")
        rows = theory_points(cfg, 6.0)
        ch = channel_for_snr(cfg, 6.0)
        gb = snr_per_bit(ch, cfg.n_chips, cfg.m_sc)
        assert rows[1].ber == pytest.approx(fsk_coherent_ber(gb), rel=1e-12)
        # FSK spends half its chips on the distinguishing tone
        p = DetectionParams(m_sc=cfg.m_sc, n_chips=cfg.n_chips // 2,
                            h_on_sq=abs(composite_gain(ch, +1)) ** 2,
                            h_off_sq=abs(composite_gain(ch, -1)) ** 2,
                            noise_power=ch.noise_power)
        assert rows[0].ber == pytest.approx(exact_ber(p), rel=1e-12)

    def test_dbpsk_rows(self):
        base = theory_points(small_cfg(), 6.0)
        diff = theory_points(small_cfg(scheme="DBPSK"), 6.0)
        p = base[0].ber
        assert diff[0].ber == pytest.approx(2.0 * p * (1.0 - p), rel=1e-12)

    def test_fsk_needs_more_energy_than_bpsk(self):
        pb = theory_points(small_cfg(), 6.0)[0].ber
        pf = theory_points(small_cfg(scheme="FSK"), 6.0)[0].ber
        assert pf > pb


class TestSweep:
    def test_reproducible_and_thread_invariant(self):
        cfg = small_cfg(n_symbols_per_point=5000)
        a = run_ber_sweep(cfg, threads=1)
        b = run_ber_sweep(cfg, threads=1)
        c = run_ber_sweep(cfg, threads=2)
        assert [repr(p) for p in a] == [repr(p) for p in b]
        assert [repr(p) for p in a] == [repr(p) for p in c]

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
        assert all(p.gamma_b_db == pytest.approx(gb_db, rel=1e-12)
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
                                           rel=1e-12)

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
                                           rel=1e-12)
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
