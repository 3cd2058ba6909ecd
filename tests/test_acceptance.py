"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured quantities and
its runtime, then asserts the stated tolerance. Run with

    python3 -m pytest tests/test_acceptance.py -v -s

to see every line. Two checks document known gaps between the idealized
near-field picture and the full interference field (contour circularity
and the four-wavelength reading range) and are expected to fail; see
the README.
"""
import math
import time

import numpy as np
import pytest

from ambcsim.ber_theory import (DetectionParams, ber_vs_iota,
                                doubly_noncentral_f_cdf, exact_ber,
                                gaussian_ber)
from ambcsim.channel import ChannelSet, LinkGeometry, from_db, scatter_ratio
from ambcsim.cli import main as cli_main
from ambcsim.coverage import (CoverageScenario, compute_ber_grid,
                              contour_export, range_estimate)
from ambcsim.lte_grid import energy_stream
from ambcsim.modem import demodulate_stream, encode_bits, make_alphabet
from ambcsim.montecarlo import (SweepConfig, channel_for_snr,
                                compare_receivers, measurement_config,
                                replicate_measurement, run_ber_sweep,
                                wilson_interval)
from oracles import circularity, ks_statistic, noncentral_chi2_cdf, \
    winding_number


def report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def coverage_scenario(freq_hz=782e6, engine="gaussian"):
    return CoverageScenario(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0),
                            carrier_freq_hz=freq_hz, gamma=10.0,
                            engine=engine)


def test_criterion_1_energy_distribution():
    started = time.time()
    m_sc, noise = 288, 2.0
    h = 1.3 + 0.4j
    n = 100000
    rng = np.random.default_rng(101)
    ys = energy_stream(np.full(n, h), m_sc, noise, rng, per_re=True)

    df = 2 * m_sc
    nonc = 2.0 * m_sc * abs(h) ** 2 / noise
    ks = ks_statistic(2.0 * ys / noise,
                      lambda x: noncentral_chi2_cdf(x, df, nonc))

    mean_ref = m_sc * (noise + abs(h) ** 2)
    var_ref = m_sc * (noise ** 2 + 2.0 * noise * abs(h) ** 2)
    mean_err = abs(ys.mean() - mean_ref) / mean_ref
    var_err = abs(ys.var() - var_ref) / var_ref

    took = time.time() - started
    ok = ks < 0.01 and mean_err < 0.01 and var_err < 0.03 and took < 60.0
    report("1 energy law", ok,
           f"ks={ks:.4f}<0.01, mean err={100 * mean_err:.2f}%<1%, "
           f"var err={100 * var_err:.2f}%<3%, {took:.1f}s<60s")
    assert ks < 0.01
    assert mean_err < 0.01
    assert var_err < 0.03
    assert took < 60.0


def test_criterion_2_theory_vs_simulation():
    started = time.time()
    cfg = SweepConfig(snr_grid_db=tuple(float(g) for g in range(0, 16, 2)),
                      n_symbols_per_point=10000,
                      detectors=("Correlation",), seed=1)
    pts = run_ber_sweep(cfg)
    theory = {p.gamma_db: p.ber for p in pts if p.source == "theory_exact"}
    sims = [p for p in pts if p.source == "simulation"]
    in_band = all(1e-4 <= theory[g] <= 0.4 for g in cfg.snr_grid_db)
    covered = sum(p.ci_low <= theory[p.gamma_db] <= p.ci_high for p in sims)
    took = time.time() - started
    ok = in_band and covered == len(sims) and took < 600.0
    report("2 theory vs simulation", ok,
           f"band [{min(theory.values()):.2e}, {max(theory.values()):.2f}] "
           f"in [1e-4, 0.4], {covered}/{len(sims)} points inside their 95% "
           f"Wilson CI, {took:.1f}s<600s")
    assert in_band
    assert covered == len(sims)
    assert took < 600.0


def test_criterion_3_receiver_equivalence():
    started = time.time()
    cfg = SweepConfig(
        snr_grid_db=(0.0, 5.0, 10.0), n_symbols_per_point=100000,
        detectors=("Correlation", "SquareRoot", "Power", "BesselMap"),
        seed=2)
    points, rows = compare_receivers(cfg)
    named = ("Correlation", "SquareRoot", "Power")
    worst_gap_se = 0.0
    for gdb in cfg.snr_grid_db:
        sims = {p.receiver: p for p in points
                if p.source == "simulation" and p.gamma_db == gdb}
        n = sims["Correlation"].n_bits
        for i, a in enumerate(named):
            for b in named[i + 1:]:
                pool = 0.5 * (sims[a].ber + sims[b].ber)
                se = math.sqrt(max(pool * (1.0 - pool), 1e-12) / n)
                worst_gap_se = max(worst_gap_se,
                                   abs(sims[a].ber - sims[b].ber) / se)
    agree = [1.0 - r.n_disagree / r.n_symbols for r in rows
             if {r.receiver_a, r.receiver_b} == {"BesselMap", "SquareRoot"}]
    took = time.time() - started
    ok = worst_gap_se <= 2.0 and min(agree) >= 0.99 and took < 900.0
    report("3 receiver equivalence", ok,
           f"worst pairwise gap {worst_gap_se:.2f} SE<=2, BesselMap-vs-"
           f"SquareRoot agreement min {100 * min(agree):.2f}%>=99%, "
           f"{took:.1f}s<900s")
    assert worst_gap_se <= 2.0
    assert min(agree) >= 0.99
    assert took < 900.0


def test_criterion_4_gaussian_asymptote():
    started = time.time()
    h_d = 10.0 ** (-52.2 / 20.0)
    amp = 10.0 ** (-82.6 / 20.0)
    on, off = (h_d + amp) ** 2, h_d ** 2
    s, d = on + off, on - off
    n_chips = 4

    def gaps(m_sc, gamma_b):
        noise = 0.5 * (-s + math.sqrt(
            s * s + n_chips * m_sc * d * d / (2.0 * gamma_b)))
        p = DetectionParams(m_sc=m_sc, n_chips=n_chips, h_on_sq=on,
                            h_off_sq=off, noise_power=noise)
        e, g = exact_ber(p), gaussian_ber(p)
        return abs(g - e) / e, e

    grid_db = (0.0, 2.0, 4.0, 6.0, 8.0)
    ordered = True
    cap_ok = True
    worst = 0.0
    for gb_db in grid_db:
        gb = from_db(gb_db)
        gap288, ber288 = gaps(288, gb)
        gap24, _ = gaps(24, gb)
        ordered = ordered and gap288 < gap24
        if ber288 >= 1e-3:
            cap_ok = cap_ok and gap288 <= 0.10
            worst = max(worst, gap288)
    took = time.time() - started
    ok = ordered and cap_ok and took < 300.0
    report("4 gaussian asymptote", ok,
           f"M=288 gap < M=24 gap at every matched per-bit SNR: {ordered}, "
           f"max M=288 gap {100 * worst:.2f}%<=10% where BER>=1e-3, "
           f"{took:.1f}s<300s")
    assert ordered
    assert cap_ok
    assert took < 300.0


def _ue_enclosing_loop(grid):
    lines = contour_export(grid, levels=(0.1,))
    loops = [ln.points for ln in lines
             if ln.points.shape[0] > 3
             and np.allclose(ln.points[0], ln.points[-1])
             and winding_number(ln.points, (0.0, 0.0)) != 0]
    assert len(loops) == 1
    return loops[0]


def test_criterion_5a_contour_circularity():
    started = time.time()
    grid = compute_ber_grid(coverage_scenario())
    circ = circularity(_ue_enclosing_loop(grid))
    took = time.time() - started
    ok = circ < 0.2 and took < 600.0
    report("5a contour circularity", ok,
           f"level-0.1 loop around the origin has std/mean radius "
           f"{circ:.4f}, requirement <0.2, {took:.1f}s<600s")
    assert circ < 0.2
    assert took < 600.0


def test_criterion_5b_reading_range():
    started = time.time()
    sc = coverage_scenario()
    r = range_estimate(sc, 1e-2)
    lam = sc.wavelength
    took = time.time() - started
    ok = abs(r / lam - 4.0) <= 1.0 and took < 600.0
    report("5b reading range", ok,
           f"radius at BER 1e-2 = {r / lam:.3f} wavelengths, requirement "
           f"4 +- 1, {took:.1f}s<600s")
    assert abs(r / lam - 4.0) <= 1.0
    assert took < 600.0


def test_criterion_5c_frequency_scaling():
    started = time.time()
    r_lo = range_estimate(coverage_scenario(), 1e-2)
    r_hi = range_estimate(coverage_scenario(freq_hz=2560e6), 1e-2)
    ratio = r_hi / r_lo
    expected = 782.0 / 2560.0
    took = time.time() - started
    ok = abs(ratio - expected) <= 0.25 * expected and took < 600.0
    report("5c frequency scaling", ok,
           f"range ratio {ratio:.4f} vs carrier ratio {expected:.4f} "
           f"+- 25%, {took:.1f}s<600s")
    assert abs(ratio - expected) <= 0.25 * expected
    assert took < 600.0


def test_criterion_5_exact_spot_checks():
    started = time.time()
    sc = coverage_scenario()
    grid = compute_ber_grid(sc)
    finite = np.argwhere(np.isfinite(grid.ber) & (grid.ber >= 1e-3))
    rng = np.random.default_rng(55)
    picks = finite[rng.choice(finite.shape[0], size=100, replace=False)]
    worst = 0.0
    for i, j in picks:
        bd = (float(grid.x_axis[j]), float(grid.y_axis[i]))
        geom = LinkGeometry(bs_pos=sc.bs_pos, ue_pos=sc.ue_pos, bd_pos=bd)
        iota = scatter_ratio(geom, sc.wavelength)
        exact = ber_vs_iota(iota, sc.gamma, sc.m_sc, sc.n_chips,
                            engine="exact")
        worst = max(worst, abs(grid.ber[i, j] - exact) / exact)
    took = time.time() - started
    ok = worst <= 0.10 and took < 600.0
    report("5 exact spot checks", ok,
           f"100 random cells with BER>=1e-3: worst exact-vs-gaussian "
           f"gap {100 * worst:.2f}%<=10%, {took:.1f}s<600s")
    assert worst <= 0.10
    assert took < 600.0


def test_criterion_6_measurement_shape():
    started = time.time()
    grid_db = tuple(5.0 + 0.25 * k for k in range(13))
    cfg = measurement_config(grid_db, seed=6)
    points, _ = replicate_measurement(cfg)
    sims = [p for p in points if p.source == "simulation"]
    assert sims
    misses = []
    for p in sims:
        theory = [t for t in points
                  if t.receiver == "theory" and t.gamma_b_db == p.gamma_b_db]
        if not p.ci_low <= theory[0].ber <= p.ci_high:
            misses.append(p.gamma_b_db)
    pooled = sum(p.n_errors for p in sims) / sum(p.n_bits for p in sims)
    order_ok = 10.0 ** -2.5 <= pooled <= 10.0 ** -1.5
    took = time.time() - started
    ok = order_ok and not misses and took < 300.0
    report("6 measurement shape", ok,
           f"band BER {pooled:.3e} within order 1e-2, "
           f"{len(sims) - len(misses)}/{len(sims)} quarter-dB bins cover "
           f"the coherent-FSK curve, {took:.1f}s<300s")
    assert order_ok
    assert not misses, misses
    assert took < 300.0


def test_criterion_7_small_instance_brute_force():
    started = time.time()
    # ten million detected symbols on the tiny two-subcarrier instance
    ch = ChannelSet(h_d=1.0, h_s=1.0, h_b=1.0, noise_power=1.0)
    alphabet = make_alphabet("BPSK", 2)
    n_total, shard = 10_000_000, 500_000
    errors = 0
    for si in range(n_total // shard):
        rng = np.random.default_rng(np.random.SeedSequence((77, si)))
        bits = rng.integers(0, 2, shard)
        chips = encode_bits(alphabet, bits)
        h = np.where(chips > 0, 2.0, 1.0).astype(complex)
        ys = energy_stream(h, 2, 1.0, rng)
        decoded = demodulate_stream("Correlation", ys, alphabet, ch, 2)
        errors += int(np.sum(decoded != bits))
    p_hat = errors / n_total
    p = DetectionParams(m_sc=2, n_chips=2, h_on_sq=4.0, h_off_sq=1.0,
                        noise_power=1.0)
    pe = exact_ber(p)
    z = abs(p_hat - pe) / math.sqrt(pe * (1.0 - pe) / n_total)

    # ratio-statistic distribution at the 5 dB sweep scenario
    sweep = SweepConfig(snr_grid_db=(5.0,), detectors=("Correlation",))
    ch5 = channel_for_snr(sweep, 5.0)
    on = abs(ch5.h_d + ch5.h_s) ** 2
    off = abs(ch5.h_d) ** 2
    m_sc, half = 288, 2
    rng = np.random.default_rng(707)
    n_xi = 100000
    y_on = energy_stream(np.full(half * n_xi, complex(math.sqrt(on))),
                         m_sc, ch5.noise_power, rng)
    y_off = energy_stream(np.full(half * n_xi, complex(math.sqrt(off))),
                          m_sc, ch5.noise_power, rng)
    xi = y_on.reshape(-1, half).sum(axis=1) / \
        y_off.reshape(-1, half).sum(axis=1)
    nu = m_sc * 2 * half
    lam1 = nu * on / ch5.noise_power
    lam2 = nu * off / ch5.noise_power
    xi.sort()
    ps = np.linspace(0.0025, 0.9975, 399)
    grid_x = np.quantile(xi, ps)
    ks = 0.0
    for x in grid_x:
        f = doubly_noncentral_f_cdf(float(x), nu, nu, lam1, lam2)
        emp = np.searchsorted(xi, x, side="right") / n_xi
        ks = max(ks, abs(emp - f))
    took = time.time() - started
    ok = z <= 3.0 and ks < 0.01 and took < 600.0
    report("7 small-instance brute force", ok,
           f"1e7-trial BER {p_hat:.6f} vs exact {pe:.6f} ({z:.2f} SE<=3), "
           f"ratio-law KS {ks:.4f}<0.01 at nu={nu}, {took:.1f}s<600s")
    assert z <= 3.0
    assert ks < 0.01
    assert took < 600.0


def test_criterion_8_byte_identical_reruns(tmp_path):
    started = time.time()
    runs = {
        "theory": ["theory", "--gamma", "0:5:10"],
        "simulate": ["simulate", "--gamma", "6", "--symbols", "2500",
                     "--seed", "3"],
        "compare": ["compare", "--gamma", "5", "--realizations", "2500",
                    "--detectors", "Correlation,SquareRoot"],
        "coverage": ["coverage", "--resolution", "12", "--half-span",
                     "0.4"],
        "replicate": ["replicate", "--gamma-b", "8", "--symbols", "303",
                      "--seed", "2"],
    }
    n_files = 0
    identical = True
    for name, args in runs.items():
        da, db = tmp_path / name / "a", tmp_path / name / "b"
        assert cli_main(args + ["--out-dir", str(da)]) == 0
        assert cli_main(args + ["--out-dir", str(db)]) == 0
        for fa in sorted(da.glob("*.csv")):
            n_files += 1
            identical = identical and \
                fa.read_bytes() == (db / fa.name).read_bytes()
    took = time.time() - started
    ok = identical and n_files >= 9 and took < 300.0
    report("8 determinism", ok,
           f"{n_files} CSVs byte-identical across re-runs: {identical}, "
           f"{took:.1f}s<300s")
    assert identical
    assert n_files >= 9
    assert took < 300.0
