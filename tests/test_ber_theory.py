"""Doubly noncentral F series, exact and asymptotic error rates."""
import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats as st

import ambcsim
from ambcsim.ber_theory import (
    _REL_TOL,
    DetectionParams,
    SeriesError,
    _params_for_u,
    _poisson_window,
    _reg_beta_table,
    ber_vs_iota,
    doubly_noncentral_f_cdf,
    exact_ber,
    fsk_coherent_ber,
    gaussian_ber,
    iota_magnitude_for_target,
    params_for_scheme,
)
from ambcsim.channel import ChannelSet, from_db, snr_per_bit
from ambcsim.specfun import q_func
from oracles import (EXACT_BER_SMALL, EXACT_BER_SWEEP, F_CDF_8_16_4,
                     REG_BETA_HALF_576_577)


def sweep_params(gamma_db):
    """Line-of-sight sweep scenario behind the frozen regression values."""
    h_d2 = from_db(-52.2)
    amp = np.sqrt(from_db(-82.6))
    return DetectionParams(
        m_sc=288,
        n_chips=4,
        h_on_sq=abs(np.sqrt(h_d2) + amp) ** 2,
        h_off_sq=h_d2,
        noise_power=h_d2 / from_db(gamma_db),
    )


class TestValidation:
    def test_detection_params(self):
        with pytest.raises(ValueError):
            DetectionParams(m_sc=0, n_chips=4, h_on_sq=1, h_off_sq=1,
                            noise_power=1)
        with pytest.raises(ValueError):
            DetectionParams(m_sc=3, n_chips=1, h_on_sq=1, h_off_sq=1,
                            noise_power=1)
        with pytest.raises(ValueError):
            DetectionParams(m_sc=4, n_chips=4, h_on_sq=-1, h_off_sq=1,
                            noise_power=1)
        with pytest.raises(ValueError):
            DetectionParams(m_sc=4, n_chips=4, h_on_sq=1, h_off_sq=1,
                            noise_power=0.0)

    def test_f_cdf_domain(self):
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(0.0, 4, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(1.0, 3, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(1.0, 4, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(1.0, 4, 4, -1.0, 1.0)

    def test_window_overflow_raises(self):
        # the Poisson window at mean 1e7 is wider than 20000 indices
        with pytest.raises(SeriesError, match="20000 indices"):
            doubly_noncentral_f_cdf(1.0, 4, 4, 2e7, 1.0)


def _mp_poisson_cdf(k, mu):
    """Poisson(mu) CDF at k to 50 digits, as the regularized upper
    incomplete gamma Q(k + 1, mu)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        return mp.gammainc(k + 1, mp.mpf(mu), mp.inf, regularized=True)


class TestPoissonWindow:
    """Window bounds: lo = k_q - 2 and hi = k_{1-q} + 2 with
    q = _REL_TOL / 4, k_p the smallest k whose double-precision CDF
    reaches p. Pinned values are checked against mpmath."""

    Q = _REL_TOL / 4.0

    @pytest.mark.parametrize("mu, lo, hi", [
        (40.0, 2, 96),
        # a plain cumulative sum of the log-pmf puts hi one index off here
        (26807.99615693672, 25632, 28001),
        (3.3e5, 325856, 334161),
        (1.5e6, 1491157, 1508860),
    ])
    def test_bounds_match_mpmath_quantiles(self, mu, lo, hi):
        got_lo, w = _poisson_window(mu)
        assert (got_lo, got_lo + w.size - 1) == (lo, hi)
        k_lo, k_hi = lo + 2, hi - 2
        assert _mp_poisson_cdf(k_lo - 1, mu) < self.Q
        assert _mp_poisson_cdf(k_lo, mu) >= self.Q
        # 1 - q and the CDF near 1 are compared as doubles
        p = 1.0 - self.Q
        assert float(_mp_poisson_cdf(k_hi - 1, mu)) < p
        assert float(_mp_poisson_cdf(k_hi, mu)) >= p

    @pytest.mark.parametrize("mu", [3e11, 6e11, 1e300])
    def test_huge_mean_raises_series_error(self, mu):
        with pytest.raises(SeriesError, match="20000 indices"):
            doubly_noncentral_f_cdf(1.0, 4, 4, 2.0 * mu, 1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_mean_raises_series_error(self, lam):
        with pytest.raises(SeriesError):
            doubly_noncentral_f_cdf(1.0, 4, 4, lam, 1.0)

    def test_series_error_is_public_runtime_error(self):
        assert ambcsim.SeriesError is SeriesError
        assert issubclass(SeriesError, RuntimeError)


def _reg_beta_table_j_major(x, a0, b0, nj, nk):
    """The table as built before its transposed layout, kept verbatim
    as the bit-level reference."""
    la = math.log(x)
    lb = math.log1p(-x)
    corner = float(sp.betainc(a0, b0, x))
    col = np.empty(nj)
    col[0] = corner
    if nj > 1:
        j = np.arange(nj - 1, dtype=float)
        lt = ((a0 + j) * la + b0 * lb + sp.gammaln(a0 + j + b0)
              - sp.gammaln(a0 + j + 1.0) - sp.gammaln(b0))
        col[1:] = corner - np.cumsum(np.exp(lt))
    if nk == 1:
        return np.clip(col[:, None], 0.0, 1.0)
    j = np.arange(nj, dtype=float)[:, None]
    t = np.arange(nk - 1, dtype=float)[None, :]
    s = sp.gammaln(a0 + b0 + np.arange(nj + nk - 2, dtype=float))
    hank = np.lib.stride_tricks.sliding_window_view(s, nk - 1)
    lt = ((a0 + j) * la + (b0 + t) * lb + hank[:nj]
          - sp.gammaln(a0 + j) - sp.gammaln(b0 + t + 1.0))
    out = np.empty((nj, nk))
    out[:, 0] = col
    out[:, 1:] = col[:, None] + np.cumsum(np.exp(lt), axis=1)
    return np.clip(out, 0.0, 1.0)


class TestRegBetaTable:
    @pytest.mark.parametrize("x, a0, b0, nj, nk", [
        (0.5, 4.0, 4.0, 1, 1),
        (0.5, 4.0, 6.0, 1, 9),
        (0.5, 6.0, 4.0, 9, 1),
        (0.3, 2.0, 3.0, 1, 2),
        (0.5, 50.0, 70.0, 40, 2),
        (0.5, 7.0, 9.0, 2, 2),
        (0.5, 120.0, 80.0, 31, 57),
        (0.7, 80.5, 120.0, 57, 31),
        (0.5, 5000.0, 5200.0, 1102, 1102),
        (0.5, 4100.0, 5900.0, 700, 1300),
    ])
    def test_bits_match_j_major_build(self, x, a0, b0, nj, nk):
        got = _reg_beta_table(x, a0, b0, nj, nk)
        ref = _reg_beta_table_j_major(x, a0, b0, nj, nk)
        assert got.shape == (nj, nk)
        assert got.flags.c_contiguous
        assert np.array_equal(got, ref)

    def test_matches_betainc(self):
        got = _reg_beta_table(0.4, 3.0, 5.0, 6, 7)
        a = 3.0 + np.arange(6.0)[:, None]
        b = 5.0 + np.arange(7.0)[None, :]
        assert np.allclose(got, sp.betainc(a, b, 0.4), rtol=1e-12, atol=0)

    def test_oracle_value_through_both_recurrences(self):
        # I_{1/2}(576, 577): six j-steps and six k-steps from the corner
        got = _reg_beta_table(0.5, 570.0, 571.0, 7, 7)[6, 6]
        assert abs(got - REG_BETA_HALF_576_577) < 1e-12


class TestFCdf:
    def test_central_matches_f_distribution(self):
        # equal dof makes the raw chi-square ratio an F variate
        for nu in (2, 8, 64):
            for x in (0.25, 1.0, 3.0):
                got = doubly_noncentral_f_cdf(x, nu, nu, 0.0, 0.0)
                ref = st.f.cdf(x, nu, nu)
                assert got == pytest.approx(ref, rel=1e-10)

    def test_singly_noncentral_matches_ncfdtr(self):
        for lam in (0.5, 4.0, 30.0):
            for x in (0.5, 1.0, 2.0):
                got = doubly_noncentral_f_cdf(x, 8, 8, lam, 0.0)
                ref = sp.ncfdtr(8, 8, lam, x)
                assert got == pytest.approx(ref, rel=1e-8)

    def test_duality_at_unit_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            lam1, lam2 = rng.uniform(0.0, 200.0, 2)
            a = doubly_noncentral_f_cdf(1.0, 16, 16, lam1, lam2)
            b = doubly_noncentral_f_cdf(1.0, 16, 16, lam2, lam1)
            assert abs(a + b - 1.0) < 1e-9

    def test_frozen_spot_value(self):
        got = doubly_noncentral_f_cdf(1.0, 8, 8, 16.0, 4.0)
        assert got == pytest.approx(F_CDF_8_16_4, rel=1e-9)

    def test_monotone_in_x(self):
        xs = np.linspace(0.1, 5.0, 25)
        vals = [doubly_noncentral_f_cdf(x, 8, 8, 16.0, 4.0) for x in xs]
        assert np.all(np.diff(vals) > 0)
        assert doubly_noncentral_f_cdf(1e4, 8, 8, 16.0, 4.0) > 1.0 - 1e-8

    def test_matches_sampled_ratio(self):
        rng = np.random.default_rng(22)
        n = 300000
        a = rng.noncentral_chisquare(8, 16.0, n)
        b = rng.noncentral_chisquare(8, 4.0, n)
        phat = np.mean(a / b <= 1.0)
        se = math.sqrt(phat * (1.0 - phat) / n)
        assert abs(phat - F_CDF_8_16_4) < 3.3 * se


class TestExactBer:
    def test_frozen_sweep(self):
        for gdb, ref in EXACT_BER_SWEEP.items():
            assert exact_ber(sweep_params(gdb)) == pytest.approx(ref, rel=1e-9)

    def test_frozen_small_case(self):
        p = DetectionParams(m_sc=2, n_chips=2, h_on_sq=4.0, h_off_sq=1.0,
                            noise_power=1.0)
        assert exact_ber(p) == pytest.approx(EXACT_BER_SMALL, rel=1e-9)

    def test_small_case_matches_sampling(self):
        # nu = 4, lambdas 16 and 4: direct chi-square ratio simulation
        rng = np.random.default_rng(23)
        n = 300000
        a = rng.noncentral_chisquare(4, 16.0, n)
        b = rng.noncentral_chisquare(4, 4.0, n)
        phat = np.mean(a < b)
        se = math.sqrt(phat * (1.0 - phat) / n)
        assert abs(phat - EXACT_BER_SMALL) < 3.3 * se

    def test_composes_the_two_f_cdfs_bit_for_bit(self):
        # windows built once per call give the bits of two full F CDFs
        for gdb in (0.0, 6.0, 10.0):
            p = sweep_params(gdb)
            nu = p.m_sc * p.n_chips
            lam_on = nu * p.h_on_sq / p.noise_power
            lam_off = nu * p.h_off_sq / p.noise_power
            err0 = doubly_noncentral_f_cdf(1.0, nu, nu, lam_on, lam_off)
            err1 = 1.0 - doubly_noncentral_f_cdf(1.0, nu, nu, lam_off, lam_on)
            assert exact_ber(p) == 0.5 * err0 + 0.5 * err1

    def test_equal_gains_give_half(self):
        p = DetectionParams(m_sc=24, n_chips=4, h_on_sq=2.0, h_off_sq=2.0,
                            noise_power=1.0)
        assert exact_ber(p) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_snr(self):
        vals = [exact_ber(sweep_params(g)) for g in (0.0, 3.0, 6.0, 10.0)]
        assert np.all(np.diff(vals) < 0)

    def test_gaussian_asymptote_tracks_exact(self):
        for gdb in (0.0, 6.0, 10.0):
            p = sweep_params(gdb)
            e, g = exact_ber(p), gaussian_ber(p)
            assert abs(g - e) / e < 0.1


class TestAsymptotics:
    def test_gaussian_ber_is_q_of_bit_snr(self):
        ch = ChannelSet(h_d=1.0, h_s=0.2, h_b=1.0, noise_power=0.3)
        on = abs(ch.h_d + ch.h_s * ch.h_b) ** 2
        off = abs(ch.h_d) ** 2
        p = DetectionParams(m_sc=288, n_chips=4, h_on_sq=on, h_off_sq=off,
                            noise_power=ch.noise_power)
        gb = snr_per_bit(ch, 4, 288)
        assert gaussian_ber(p) == pytest.approx(
            float(q_func(np.sqrt(2.0 * gb))), rel=1e-12)

    def test_fsk_rate(self):
        assert fsk_coherent_ber(0.0) == pytest.approx(0.5)
        assert fsk_coherent_ber(4.0) == pytest.approx(float(q_func(2.0)),
                                                      rel=1e-12)
        with pytest.raises(ValueError):
            fsk_coherent_ber(-0.1)


class TestBerVsIota:
    def test_zero_ratio_gives_half(self):
        assert ber_vs_iota(0.0, 10.0, 288, 4) == pytest.approx(0.5, abs=1e-9)
        assert ber_vs_iota(0.0, 10.0, 288, 4, engine="gaussian") == 0.5

    def test_depends_only_on_moved_magnitude(self):
        # iota values with equal |1 + iota| give identical error rates
        u = 1.21
        iotas = [math.sqrt(u) - 1.0,
                 math.sqrt(u) * np.exp(0.7j) - 1.0,
                 math.sqrt(u) * np.exp(-0.7j) - 1.0]
        vals = [ber_vs_iota(i, 10.0, 288, 4, engine="gaussian")
                for i in iotas]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)

    def test_conjugate_symmetry(self):
        i = 0.03 + 0.04j
        a = ber_vs_iota(i, 10.0, 288, 4)
        b = ber_vs_iota(np.conj(i), 10.0, 288, 4)
        assert a == pytest.approx(b, rel=1e-12)

    def test_destructive_ratio_swaps_roles(self):
        # |1+iota| < 1 flips the gain gap; the sign-aware detector gets
        # the error rate of the mirrored problem, never more than half
        iota = -0.0253
        u = abs(1.0 + iota) ** 2
        got = ber_vs_iota(iota, 10.0, 288, 4)
        swapped = DetectionParams(m_sc=288, n_chips=4, h_on_sq=10.0,
                                  h_off_sq=10.0 * u, noise_power=1.0)
        assert got == pytest.approx(exact_ber(swapped), rel=1e-12)
        assert 1e-3 < got <= 0.5
        g = ber_vs_iota(iota, 10.0, 288, 4, engine="gaussian")
        assert abs(got - g) / got < 0.1

    def test_params_for_u_orders_the_gains(self):
        up = _params_for_u(1.21, 10.0, 288, 4)
        down = _params_for_u(0.81, 10.0, 288, 4)
        assert (up.h_on_sq, up.h_off_sq) == (10.0 * 1.21, 10.0)
        assert (down.h_on_sq, down.h_off_sq) == (10.0, 10.0 * 0.81)
        assert (up.m_sc, up.n_chips, up.noise_power) == (288, 4, 1.0)

    def test_gaussian_monotone_in_magnitude(self):
        vals = [ber_vs_iota(i, 10.0, 288, 4, engine="gaussian")
                for i in (0.01, 0.03, 0.1, 0.3)]
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ber_vs_iota(float("nan"), 10.0, 288, 4)
        with pytest.raises(ValueError):
            ber_vs_iota(0.1, 0.0, 288, 4)
        with pytest.raises(ValueError):
            ber_vs_iota(0.1, 10.0, 288, 4, engine="magic")


class TestIotaTarget:
    def test_round_trip(self):
        for target in (0.3, 0.1, 1e-2, 1e-4):
            u = iota_magnitude_for_target(target, 10.0, 288, 4)
            iota = math.sqrt(u) - 1.0
            back = ber_vs_iota(iota, 10.0, 288, 4, engine="gaussian")
            assert back == pytest.approx(target, rel=1e-9)

    def test_half_target_needs_no_motion(self):
        assert iota_magnitude_for_target(0.5, 10.0, 288, 4) == 1.0

    def test_monotone_in_target(self):
        us = [iota_magnitude_for_target(t, 10.0, 288, 4)
              for t in (0.4, 0.1, 1e-2, 1e-3)]
        assert np.all(np.diff(us) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            iota_magnitude_for_target(0.0, 10.0, 288, 4)
        with pytest.raises(ValueError):
            iota_magnitude_for_target(0.6, 10.0, 288, 4)
        with pytest.raises(ValueError):
            iota_magnitude_for_target(0.1, -1.0, 288, 4)


class TestSchemeMapping:
    def test_fsk_halves_chip_count(self):
        p = DetectionParams(m_sc=288, n_chips=4, h_on_sq=2.0, h_off_sq=1.0,
                            noise_power=1.0)
        q = params_for_scheme(p, "FSK")
        assert q.n_chips == 2
        assert q.m_sc == p.m_sc
        assert q.h_on_sq == p.h_on_sq

    def test_non_fsk_passthrough(self):
        p = DetectionParams(m_sc=288, n_chips=4, h_on_sq=2.0, h_off_sq=1.0,
                            noise_power=1.0)
        assert params_for_scheme(p, "BPSK") is p
        assert params_for_scheme(p, "DBPSK") is p

    def test_odd_chip_count_rejected(self):
        p = DetectionParams(m_sc=288, n_chips=3, h_on_sq=2.0, h_off_sq=1.0,
                            noise_power=1.0)
        with pytest.raises(ValueError):
            params_for_scheme(p, "FSK")
