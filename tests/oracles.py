"""Independent reference values and helper oracles for the test suite.

Frozen constants were computed with 60-digit arbitrary precision arithmetic
(mpmath) or closed forms, separately from the library code under test.
Helper functions implement textbook series definitions so distributional
tests do not depend on the same code paths they are checking.
"""
import math

import numpy as np
from scipy import stats

# ---------------------------------------------------------------------------
# frozen high-precision constants
# ---------------------------------------------------------------------------

# natural logs of modified Bessel values, 60-digit evaluation
LOG_I0_1 = 0.23591435850717864869
LOG_I287_600 = 528.41748819044228979
LOG_I1024_1E6 = 999991.64901809648208
LOG_I32_50 = 37.113328280075406745

# regularized incomplete beta at the symmetric series scale
REG_BETA_HALF_576_577 = 0.51175139916399654642

# standard normal tail values
Q_AT_3 = 0.0013498980316300945267
QINV_1E2 = 2.3263478740408411009
QINV_1E1 = 1.281551565544600467

# free-space power gain, 50 m at 782 MHz (lambda = c / 782e6)
WAVELENGTH_782 = 0.383366314578005
FSPL_POWER_50M_782 = 3.72278678000762e-7

# ---------------------------------------------------------------------------
# regression freezes from the validated build
# (cross-checked against Monte Carlo sampling; see acceptance suite)
# ---------------------------------------------------------------------------

# error rates for the default link scenario, aligned scatter phase,
# -52.2 dB direct / -82.6 dB scattered, M_sc=288, N=4
EXACT_BER_SWEEP = {
    0.0: 2.760036841206e-01,
    6.0: 8.606782334724e-02,
    10.0: 1.259892503018e-02,
}

# tiny instance used by the brute-force comparison
EXACT_BER_SMALL = 9.763533960638e-02  # m_sc=2, n=2, h2=(4,1), noise=1

# ratio-statistic CDF spot value at x=1, nu=8, noncentralities (16, 4)
F_CDF_8_16_4 = 1.191786774846e-01

# reliable-radius estimates on the 50 m link at linear SNR 10
RANGE_782_AT_1E1 = 1.705605  # meters, 4.449021 wavelengths
RANGE_782_AT_1E2 = 0.953692  # meters, 2.487679 wavelengths
RANGE_2560_AT_1E1 = 0.533098
RANGE_2560_AT_1E2 = 0.295138


# ---------------------------------------------------------------------------
# series oracles
# ---------------------------------------------------------------------------

def log_bessel_series(order: int, x: float, terms: int = 200) -> float:
    """ln I_order(x) by the ascending power series in log arithmetic.

    Accurate whenever the series converges well before `terms` entries,
    which holds for order <= 32, x <= 50.
    """
    if x == 0.0:
        return 0.0 if order == 0 else -math.inf
    lx = math.log(x / 2.0)
    logs = np.array(
        [
            (order + 2 * k) * lx
            - math.lgamma(k + 1)
            - math.lgamma(order + k + 1)
            for k in range(terms)
        ]
    )
    peak = logs.max()
    return peak + math.log(np.exp(logs - peak).sum())


def noncentral_chi2_cdf(x, df: int, nonc: float, rel_tol: float = 1e-12):
    """Poisson-mixture CDF of a noncentral chi-square variable.

    Sums pois(j; nonc/2) * P(chi2_{df+2j} <= x) over a mass window wide
    enough to leave at most rel_tol of the Poisson weight outside.
    """
    x = np.asarray(x, dtype=float)
    if nonc == 0.0:
        return stats.chi2.cdf(x, df)
    half = nonc / 2.0
    lo = int(stats.poisson.ppf(rel_tol / 4.0, half))
    hi = int(stats.poisson.isf(rel_tol / 4.0, half)) + 1
    js = np.arange(max(lo - 2, 0), hi + 2)
    w = stats.poisson.pmf(js, half)
    out = np.zeros_like(x, dtype=float)
    for j, wj in zip(js, w):
        out += wj * stats.chi2.cdf(x, df + 2 * j)
    return out / w.sum()


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a callable CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(ecdf_hi - f), np.max(f - ecdf_lo)))


# ---------------------------------------------------------------------------
# contour geometry helpers
# ---------------------------------------------------------------------------

def winding_number(points, center) -> int:
    """Signed turn count of a closed polyline around a point."""
    d = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)[None, :]
    ang = np.arctan2(d[:, 1], d[:, 0])
    steps = np.diff(ang)
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(steps.sum() / (2.0 * np.pi)))


def circularity(points) -> float:
    """std/mean of vertex distance to the polyline centroid."""
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=0)
    rr = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
    return float(rr.std() / rr.mean())


# ---------------------------------------------------------------------------
# arbitrary-precision Bessel oracle
# ---------------------------------------------------------------------------

# the grid on which the large-order expansion of ln I_v is checked:
# orders at and above its threshold (50), 60 log-spaced arguments
DEBYE_ORDERS = (50, 63, 287, 1024)
DEBYE_X = tuple(np.logspace(-6.0, 6.0, 60))


def log_bessel_mp(order, x: float, dps: int = 40) -> float:
    """ln I_order(x) from mpmath's besseli at `dps` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.log(mp.besseli(order, mp.mpf(x))))


# ---------------------------------------------------------------------------
# closed-form exact BER (Proakis and Salehi, Digital Communications, App. B)
# ---------------------------------------------------------------------------

def exact_ber_closed_form(L: int, s_big: float, s_small: float,
                          dps: int = 60) -> float:
    """Pr(Y_big <= Y_small) for independent noncentral chi-squares with
    2L degrees of freedom each and noncentralities 2 s_big > 2 s_small
    > 0, by the equal-variance closed form of Proakis and Salehi,
    App. B. With a = sqrt(s_small), b = sqrt(s_big) and
    E = exp(-(a^2 + b^2) / 2):

        P = Q_1(a, b) - E I_0(ab)
            + E 2^(1-2L) [ I_0(ab) sum_{k<L} C(2L-1, k)
                           + sum_{n=1}^{L-1} I_n(ab)
                             sum_{k<=L-1-n} C(2L-1, k) ((b/a)^n - (a/b)^n) ]

    where Q_1(a, b) = E sum_{k>=0} (a/b)^k I_k(ab), so Q_1 - E I_0 is
    the sum from k = 1 and every term is positive. Every I_n(ab) comes
    from one Miller backward recurrence, normalised by
    mpmath.besseli(0, ab), at `dps` digits.

    exact_ber(DetectionParams) is this at L = m_sc n_chips / 2 and
    s = L h^2 / noise_power for each state's squared gain.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, b = mp.sqrt(mp.mpf(s_small)), mp.sqrt(mp.mpf(s_big))
        x, rho = a * b, a / b
        # I_top / I_n is below 10^-dps for every n up to top / 2, and so
        # are the Q_1 terms past top / 2
        digits = dps * math.log(10.0)
        top = L + 2 * int(math.sqrt(2.0 * float(x) * digits) + 2 * digits) \
            + 20
        f = [mp.mpf(0)] * (top + 2)
        f[top] = mp.mpf(1)
        for n in range(top, 0, -1):
            f[n - 1] = f[n + 1] + (2 * n / x) * f[n]
        r = [fn / f[0] for fn in f]  # I_n(ab) / I_0(ab)
        q1_rest = mp.fsum(rho ** k * r[k] for k in range(1, top // 2))
        c = [math.comb(2 * L - 1, k) for k in range(L)]
        cum = [sum(c[:L - n]) for n in range(L)]  # sum_{k<=L-1-n}
        bracket = mp.fsum([cum[0]] + [
            r[n] * cum[n] * (rho ** -n - rho ** n) for n in range(1, L)])
        e_i0 = mp.exp(-(a * a + b * b) / 2) * mp.besseli(0, x)
        return float(e_i0 * (q1_rest + bracket / mp.mpf(2) ** (2 * L - 1)))
