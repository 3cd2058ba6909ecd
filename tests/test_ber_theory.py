"""Doubly noncentral F series, exact and asymptotic error rates."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats as st

import ambcsim
from ambcsim import ber_theory
from ambcsim.ber_theory import (
    _BLOCK,
    _MAX_TERMS,
    _REL_TOL,
    DetectionParams,
    SeriesError,
    _excess_for_target,
    _gaussian_ber_u,
    _params_for_u,
    _poisson_cdf,
    _poisson_window,
    _reg_beta_table,
    ber_vs_iota,
    doubly_noncentral_f_cdf,
    exact_ber,
    fsk_coherent_ber,
    gaussian_ber,
    params_for_scheme,
)
from ambcsim.channel import ChannelSet, composite_gain, from_db, snr_per_bit
from ambcsim.coverage import CoverageScenario
from ambcsim.specfun import q_func, q_inv
from oracles import (EXACT_BER_SMALL, EXACT_BER_SWEEP, F_CDF_8_16_4,
                     REG_BETA_HALF_576_577, exact_ber_closed_form)


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

    @pytest.mark.parametrize("kw", [
        dict(h_on_sq=math.nan), dict(h_off_sq=math.inf),
        dict(noise_power=math.nan), dict(noise_power=math.inf)])
    def test_detection_params_reject_non_finite(self, kw):
        base = dict(m_sc=288, n_chips=4, h_on_sq=1.0, h_off_sq=1.0,
                    noise_power=1.0)
        with pytest.raises(ValueError, match="finite"):
            DetectionParams(**{**base, **kw})

    def test_f_cdf_domain(self):
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(0.0, 4, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(1.0, 3, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(1.0, 4, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            doubly_noncentral_f_cdf(1.0, 4, 4, -1.0, 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, 1e17, 1e300])
    def test_f_cdf_rejects_x_whose_beta_argument_is_one(self, x):
        # NaN and inf gave NaN; from about 9e15 x / (1 + x) rounds to 1
        # and log1p(-1) raised a bare math domain error
        with pytest.raises(ValueError,
                           match=r"x / \(1 \+ x\) rounds to 1"):
            doubly_noncentral_f_cdf(x, 4, 4, 1.0, 1.0)

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

    def test_non_finite_cdf_raises_series_error(self, monkeypatch):
        monkeypatch.setattr(ber_theory, "pdtr", lambda k, mu: math.nan)
        with pytest.raises(SeriesError, match="CDF is not finite"):
            _poisson_cdf(3, 2.0)

    def test_series_error_is_public_runtime_error(self):
        assert ambcsim.SeriesError is SeriesError
        assert issubclass(SeriesError, RuntimeError)


def _cdf_or_zero(k, mu):
    """_poisson_cdf extended by 0 below the support, where the bisection
    and the window-mass check below evaluate it."""
    return _poisson_cdf(k, mu) if k >= 0 else 0.0


def _poisson_quantile_bisect(p, mu):
    """The bracket-and-bisect quantile search the walk replaced, kept
    verbatim as the reference for the window equivalence test."""
    k0 = math.floor(mu)
    step = math.isqrt(k0) + 1
    # invariant once bracketed: CDF(below) < p <= CDF(above)
    below = above = k0
    if _cdf_or_zero(k0, mu) >= p:
        while _cdf_or_zero(above - step, mu) >= p:
            above -= step
            step *= 2
            if k0 - above > _MAX_TERMS:
                raise ber_theory._window_overflow()
        below = above - step
    else:
        while _cdf_or_zero(below + step, mu) < p:
            below += step
            step *= 2
            if below - k0 > _MAX_TERMS:
                raise ber_theory._window_overflow()
        above = below + step
    while above - below > 1:
        mid = (below + above) // 2
        if _cdf_or_zero(mid, mu) >= p:
            above = mid
        else:
            below = mid
    return above


def _window_outcome(mu):
    try:
        lo, w = _poisson_window(mu)
    except SeriesError as exc:
        return str(exc)
    return lo, w.tobytes()


def test_quantile_walk_matches_bisection(monkeypatch):
    # the same lo and weight bytes, or the same SeriesError message, as
    # the bisection on log-spaced means, densely across the overflow
    # edge near 1.9e6, and at a mean where a cumulative log-pmf sum is
    # one index off and at one where mu + step rounds to mu
    means = np.concatenate([
        np.logspace(-3.0, 13.0, 2000),
        np.linspace(1.8e6, 2.1e6, 500),
        [26807.99615693672, 3e11, 1e300],
    ]).tolist()
    walked = [_window_outcome(mu) for mu in means]
    monkeypatch.setattr(ber_theory, "_poisson_quantile",
                        _poisson_quantile_bisect)
    bisected = [_window_outcome(mu) for mu in means]
    mismatched = [mu for mu, a, b in zip(means, walked, bisected) if a != b]
    assert mismatched == []
    # both outcomes are exercised
    assert 0 < sum(isinstance(o, str) for o in walked) < len(means)
    # each window holds 1 - _REL_TOL / 2 of its mass as its quantiles are
    short = [mu for mu, o in zip(means, walked) if not isinstance(o, str)
             and _cdf_or_zero(o[0] + len(o[1]) // 8 - 1, mu)
             - _cdf_or_zero(o[0] - 1, mu) < 1.0 - _REL_TOL / 2.0]
    assert short == []


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
        # the largest table the exact-series workload builds
        (0.5, 7000.0, 7100.0, 1795, 1743),
        # x != 1/2 across several blocks
        (0.45, 900.0, 1100.0, 150, 3 * _BLOCK + 7),
        # column 0 and the blocks after it go below 0 before the clip
        (0.5, 300.0, 280.0, 400, _BLOCK + 2),
    ] + [
        # k-steps (nk - 1) on either side of one and two block lengths
        (0.5, a0, b0, nj, steps + 1)
        for nj, a0, b0 in ((1, 300.0, 280.0), (2, 300.0, 280.0),
                           (1102, 5000.0, 5200.0))
        for steps in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK,
                      2 * _BLOCK + 1)
    ])
    def test_bits_match_j_major_build(self, x, a0, b0, nj, nk):
        got = _reg_beta_table(x, a0, b0, nj, nk)
        ref = _reg_beta_table_j_major(x, a0, b0, nj, nk)
        assert got.shape == (nj, nk)
        assert got.flags.c_contiguous
        assert np.array_equal(got, ref)

    def test_bit_cases_move_under_both_clips(self, monkeypatch):
        # the j-major reference with its clip made the identity: the
        # bit test's cases must go past 1, and below 0 both in column 0
        # and in the k-step blocks, or it checks a clip on no entry
        monkeypatch.setattr(np, "clip", lambda a, lo, hi: a)
        over = _reg_beta_table_j_major(0.5, 5000.0, 5200.0, 1102, 1102)
        under = _reg_beta_table_j_major(0.5, 300.0, 280.0, 400, _BLOCK + 2)
        assert (over > 1.0).any()
        assert (under[:, 0] < 0.0).any()
        assert (under[:, 1:] < 0.0).any()

    def test_peak_memory_is_about_the_table(self):
        # the k-steps go through one block of scratch, not a second
        # table-sized buffer
        n = 1102
        tracemalloc.start()
        try:
            _reg_beta_table(0.5, 5000.0, 5200.0, n, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8

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
                assert got == pytest.approx(ref, rel=1e-10, abs=0)

    def test_singly_noncentral_matches_ncfdtr(self):
        for lam in (0.5, 4.0, 30.0):
            for x in (0.5, 1.0, 2.0):
                got = doubly_noncentral_f_cdf(x, 8, 8, lam, 0.0)
                ref = sp.ncfdtr(8, 8, lam, x)
                assert got == pytest.approx(ref, rel=1e-8, abs=0)

    def test_duality_at_unit_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            lam1, lam2 = rng.uniform(0.0, 200.0, 2)
            a = doubly_noncentral_f_cdf(1.0, 16, 16, lam1, lam2)
            b = doubly_noncentral_f_cdf(1.0, 16, 16, lam2, lam1)
            assert abs(a + b - 1.0) < 1e-9

    def test_frozen_spot_value(self):
        got = doubly_noncentral_f_cdf(1.0, 8, 8, 16.0, 4.0)
        assert got == pytest.approx(F_CDF_8_16_4, rel=1e-9, abs=0)

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
            assert exact_ber(sweep_params(gdb)) == pytest.approx(ref, rel=1e-9,
                                                                 abs=0)

    def test_frozen_small_case(self):
        p = DetectionParams(m_sc=2, n_chips=2, h_on_sq=4.0, h_off_sq=1.0,
                            noise_power=1.0)
        assert exact_ber(p) == pytest.approx(EXACT_BER_SMALL, rel=1e-9, abs=0)

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


def _closed_form(p, dps=60):
    """exact_ber_closed_form at the L = nu / 2 and s = lambda / 2 that
    exact_ber forms from p (lambda = nu h^2 / noise_power)."""
    nu = p.m_sc * p.n_chips
    s_small, s_big = sorted(nu * h / p.noise_power / 2.0
                            for h in (p.h_on_sq, p.h_off_sq))
    return exact_ber_closed_form(nu // 2, s_big, s_small, dps)


class TestClosedFormOracle:
    """exact_ber against the equal-variance closed form of Proakis and
    Salehi, App. B, in tests/oracles.py: Bessel sums in mpmath, with no
    Poisson window and no incomplete beta."""

    def test_frozen_values(self):
        pytest.importorskip("mpmath")
        small = DetectionParams(m_sc=2, n_chips=2, h_on_sq=4.0,
                                h_off_sq=1.0, noise_power=1.0)
        assert f"{_closed_form(small):.12e}" == f"{EXACT_BER_SMALL:.12e}"
        # Pr(X1 / X2 <= 1) at nu = 8 and lambdas (16, 4)
        assert f"{exact_ber_closed_form(4, 8.0, 2.0):.12e}" \
            == f"{F_CDF_8_16_4:.12e}"

    @pytest.mark.parametrize("gamma_db, u, m_sc, n_chips", [
        (0.0, 1.73, 6, 4), (5.0, 3.0, 1, 4), (5.0, 1.73, 6, 4),
        (10.0, 3.0, 1, 2), (0.0, 1.01, 288, 4), (10.0, 1.01, 144, 4),
        (5.0, 0.5, 6, 4), (0.0, 0.3, 2, 4)])
    def test_body_points(self, gamma_db, u, m_sc, n_chips):
        pytest.importorskip("mpmath")
        p = _params_for_u(u, from_db(gamma_db), m_sc, n_chips)
        ref = _closed_form(p)
        assert abs(exact_ber(p) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("u", [1.2, 1.1419693638416863])
    def test_oracle_holds_its_digits(self, u):
        # 60 and 120 working digits give the same double
        pytest.importorskip("mpmath")
        p = _params_for_u(u, 10.0, 288, 4)
        assert _closed_form(p) == _closed_form(p, dps=120)

    @pytest.mark.xfail(strict=True, reason=(
        "CHANGES.md FOUND line on exact_ber's err0/err1 average: err1 = "
        "1 - F carries the series' truncation residue, about 1e-12 "
        "absolute (ROADMAP item 5)"))
    @pytest.mark.parametrize("u", [1.2, 1.1419693638416863])
    def test_deep_tail_points(self, u):
        # the series reads 3.496e-13 against 6.9926e-13 at u = 1.2, and
        # is 1.05e-5 relative off at u = 1.14197
        pytest.importorskip("mpmath")
        p = _params_for_u(u, 10.0, 288, 4)
        ref = _closed_form(p)
        assert abs(exact_ber(p) - ref) <= 1e-12 * ref


def _dense_u_sweep():
    """Sorted u = |1+iota|^2 on both sides of 1, spaced so that at
    10 dB, m_sc 288 and N 4 neighbours mostly share Poisson windows."""
    step = 2e-5
    return np.concatenate((0.999 + step * np.arange(8),
                           1.001 + step * np.arange(8))).tolist()


class TestTableMemo:
    def test_shared_dict_keeps_the_bits(self):
        tables = {}
        for u in _dense_u_sweep():
            p = _params_for_u(u, 10.0, 288, 4)
            assert exact_ber(p, tables) == exact_ber(p)
            assert len(tables) <= 2

    def test_sweep_reuses_tables(self, monkeypatch):
        builds = []
        build = ber_theory._reg_beta_table

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(ber_theory, "_reg_beta_table", counted)
        us = _dense_u_sweep()
        tables = {}
        for u in us:
            exact_ber(_params_for_u(u, 10.0, 288, 4), tables)
        assert len(builds) < 2 * len(us)
        # a sorted sweep never returns to a window it left
        assert len(set(builds)) == len(builds)


class TestAsymptotics:
    def test_gaussian_ber_is_q_of_bit_snr(self):
        ch = ChannelSet(h_d=1.0, h_s=0.2, h_b=1.0, noise_power=0.3)
        on = abs(ch.h_d + ch.h_s * ch.h_b) ** 2
        off = abs(ch.h_d) ** 2
        p = DetectionParams(m_sc=288, n_chips=4, h_on_sq=on, h_off_sq=off,
                            noise_power=ch.noise_power)
        gb = snr_per_bit(ch, 4, 288)
        assert gaussian_ber(p) == pytest.approx(
            float(q_func(np.sqrt(2.0 * gb))), rel=1e-12, abs=0)

    def test_params_gamma_b_is_snr_per_bit(self):
        # on a constructive channel the (on, off) order is snr_per_bit's,
        # so the two homes of the per-bit SNR agree bit for bit
        ch = ChannelSet(h_d=1.0, h_s=0.2 + 0.1j, h_b=0.7, noise_power=0.3,
                        bd_off_depth=0.25)
        on = abs(composite_gain(ch, +1)) ** 2
        off = abs(composite_gain(ch, -1)) ** 2
        assert on > off
        for m_sc, n in ((288, 4), (12, 20), (1, 2)):
            p = DetectionParams(m_sc=m_sc, n_chips=n, h_on_sq=on,
                                h_off_sq=off, noise_power=ch.noise_power)
            assert p.gamma_b == snr_per_bit(ch, n, m_sc)

    @pytest.mark.parametrize("on, off, s2", [
        (1.44, 1.0, 0.3), (1.0, 1.44, 0.3), (2.0, 0.0, 1e-3),
        (1.0 + 1e-9, 1.0, 1.0), (7.0, 7.0, 2.0)])
    def test_gaussian_ber_is_q_of_params_gamma_b(self, on, off, s2):
        p = DetectionParams(m_sc=288, n_chips=4, h_on_sq=on, h_off_sq=off,
                            noise_power=s2)
        assert gaussian_ber(p) == float(q_func(np.sqrt(2 * p.gamma_b)))

    def test_fsk_gaussian_is_antipodal_at_half_the_chips(self):
        # the theory rows' FSK Gaussian BER: doubling is exact, so with
        # the gains in state order the antipodal problem at N / 2 gives
        # Q(sqrt(gamma_b)) bit for bit, constructive or destructive
        rng = np.random.default_rng(25)
        n_destructive = 0
        for _ in range(500):
            ch = ChannelSet(
                h_d=1.0, h_s=rng.uniform(0.0, 0.5) * np.exp(
                    1j * rng.uniform(-np.pi, np.pi)),
                h_b=1.0, noise_power=10.0 ** rng.uniform(-3.0, 1.0),
                bd_off_depth=rng.uniform(0.0, 0.5))
            on, off = (abs(g) ** 2 for g in (composite_gain(ch, +1),
                                             composite_gain(ch, -1)))
            m_sc = int(rng.integers(1, 300))
            n = 4 * int(rng.integers(1, 6))
            p = DetectionParams(m_sc=m_sc, n_chips=n, h_on_sq=on,
                                h_off_sq=off, noise_power=ch.noise_power)
            assert gaussian_ber(params_for_scheme(p, "FSK")) \
                == fsk_coherent_ber(snr_per_bit(ch, n, m_sc))
            n_destructive += on < off
        assert n_destructive > 100

    def test_fsk_rate(self):
        assert fsk_coherent_ber(0.0) == pytest.approx(0.5)
        assert fsk_coherent_ber(4.0) == pytest.approx(float(q_func(2.0)),
                                                      rel=1e-12, abs=0)
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
        assert vals[0] == pytest.approx(vals[1], rel=1e-12, abs=0)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12, abs=0)

    def test_conjugate_symmetry(self):
        i = 0.03 + 0.04j
        a = ber_vs_iota(i, 10.0, 288, 4)
        b = ber_vs_iota(np.conj(i), 10.0, 288, 4)
        assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_destructive_ratio_swaps_roles(self):
        # |1+iota| < 1 flips the gain gap; the sign-aware detector gets
        # the error rate of the mirrored problem, never more than half
        iota = -0.0253
        u = abs(1.0 + iota) ** 2
        got = ber_vs_iota(iota, 10.0, 288, 4)
        swapped = DetectionParams(m_sc=288, n_chips=4, h_on_sq=10.0,
                                  h_off_sq=10.0 * u, noise_power=1.0)
        assert got == pytest.approx(exact_ber(swapped), rel=1e-12, abs=0)
        assert 1e-3 < got <= 0.5
        g = ber_vs_iota(iota, 10.0, 288, 4, engine="gaussian")
        assert abs(got - g) / got < 0.1

    def test_params_for_u_keeps_state_order(self):
        # reflect gain gamma u, absorb gain gamma, on either side of 1
        for u in (1.21, 0.81):
            p = _params_for_u(u, 10.0, 288, 4)
            assert (p.h_on_sq, p.h_off_sq) == (10.0 * u, 10.0)
            assert (p.m_sc, p.n_chips, p.noise_power) == (288, 4, 1.0)

    def test_gaussian_engine_is_the_map_formula(self):
        # ber_vs_iota's gaussian engine and the coverage map share one
        # formula; np.square gives a scalar u the bits of an array u
        rng = np.random.default_rng(7)
        u = np.concatenate([rng.uniform(0.0, 4.0, 2000),
                            1.0 + rng.uniform(-1e-6, 1e-6, 500), [1.0]])
        for gamma, nm in ((10.0, 1152), (0.3, 2), (1e306, 1152)):
            arr = _gaussian_ber_u(u, gamma, nm)
            assert all(_gaussian_ber_u(v, gamma, nm) == a
                       for v, a in zip(u.tolist(), arr.tolist()))
        for iota in (0.03, -0.0253, 0.02 + 0.05j):
            u1 = abs(1.0 + iota) ** 2
            assert ber_vs_iota(iota, 10.0, 288, 4, engine="gaussian") \
                == _gaussian_ber_u(u1, 10.0, 1152)

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
        # |1 + iota|^2 past a double: a Python float's ** 2 overflows
        for iota in (1e200, 1e154 + 1e154j, np.complex128(1e200)):
            with pytest.raises(ValueError, match="range of a double"):
                ber_vs_iota(iota, 10.0, 288, 4, engine="gaussian")


class TestIotaTarget:
    """_excess_for_target, the gaussian inverse behind range_estimate:
    u* - 1 for the |1 + iota|^2 = u* at which the BER hits the target."""

    def test_round_trip(self):
        for target in (0.3, 0.1, 1e-2, 1e-4):
            e = _excess_for_target(target, 10.0, 288, 4)
            back = _gaussian_ber_u(1.0 + e, 10.0, 1152)
            assert back == pytest.approx(target, rel=1e-9, abs=0)

    def test_half_target_needs_no_motion(self):
        assert _excess_for_target(0.5, 10.0, 288, 4) == 0.0

    def test_monotone_in_target(self):
        es = [_excess_for_target(t, 10.0, 288, 4)
              for t in (0.4, 0.1, 1e-2, 1e-3)]
        assert np.all(np.diff(es) > 0)

    @pytest.mark.parametrize("gamma, m_sc, n_chips", [
        (math.nan, 288, 4), (math.inf, 288, 4), (10.0, 0, 4),
        (10.0, 288, 0)])
    def test_rejects_what_ber_vs_iota_rejects(self, gamma, m_sc, n_chips):
        # the inverse does not check its inputs: its one route,
        # range_estimate, takes them from a CoverageScenario, which
        # rejects them as ber_vs_iota does (range_estimate's target
        # check is coverage's test_target_domain)
        with pytest.raises(ValueError):
            ber_vs_iota(0.1, gamma, m_sc, n_chips, engine="gaussian")
        with pytest.raises(ValueError):
            CoverageScenario(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0),
                             carrier_freq_hz=782e6, gamma=gamma, m_sc=m_sc,
                             n_chips=n_chips)

    @pytest.mark.parametrize("m_sc, n_chips", [(288, 4), (1, 2)])
    @pytest.mark.parametrize("gamma", [7.9e304, 1e306, 1e308])
    def test_huge_gamma_needs_no_motion(self, gamma, m_sc, n_chips):
        # where nm * (2 gamma + 1) overflows the bare formula gives +inf
        # (7.9e304 at m_sc 288, N 4) or NaN (1e306, 1e308) and the
        # inverse 0; below that (nm = 2 up to 4.5e307) the excess is
        # tiny, and 1 + e rounds to 1 either way
        e = _excess_for_target(0.1, gamma, m_sc, n_chips)
        if math.isfinite(m_sc * n_chips * (2.0 * gamma + 1.0)):
            assert 0.0 < e < 1e-150
        else:
            assert e == 0.0

    def test_finite_inputs_keep_the_formula_bits(self):
        def formula(target, gamma, m_sc, n_chips):
            z = q_inv(target)
            nm = float(n_chips * m_sc)
            return (2.0 * z * z + 2.0 * z * math.sqrt(
                z * z + nm * (2.0 * gamma + 1.0))) / (nm * gamma)

        for target in (0.4, 0.1, 1e-2, 1e-6, 1e-300):
            for gamma in (1e-300, 1e-6, 0.5, 10.0, 1e6, 1e300, 7.7e304):
                for m_sc, n_chips in ((1, 2), (12, 2), (288, 4)):
                    assert _excess_for_target(
                        target, gamma, m_sc, n_chips) == formula(
                        target, gamma, m_sc, n_chips)


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
