"""Closed-form and asymptotic error probabilities for the correlation
detector.

The decision statistic is the ratio xi = y_plus / y_minus of two
independent noncentral chi-square sums, so conditional error rates are
values of the doubly noncentral F distribution:

    Pr(xi <= x) = sum_j sum_k pois(j; lam1/2) pois(k; lam2/2)
                  * I_{x/(1+x)}(nu1/2 + j, nu2/2 + k)

with nu1 = nu2 = m_sc N and lam = m_sc N |h|^2 / sigma_n^2 for the
matching hypothesis half. The regularized-beta table is built once per
evaluation from a single corner value plus the two one-step
recurrences, all in the log domain, and the double series is truncated
to mode-centered Poisson windows.

The noncentrality convention above (Poisson weights in lam/2) was
pinned empirically against a chi-square-ratio sampling oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _sp

from .channel import _gamma_b
from .specfun import q_func, q_inv


# truncation of the double Poisson series: each window holds at least
# 1 - _REL_TOL of its Poisson mass on at most _MAX_TERMS indices
_REL_TOL = 1e-12
_MAX_TERMS = 20000


class SeriesError(RuntimeError):
    """A truncated series gives up: a Poisson window needs more than
    _MAX_TERMS indices to hold 1 - _REL_TOL of its mass, or its mean
    is not finite."""


@dataclass(frozen=True)
class DetectionParams:
    """Inputs the error-rate formulas need.

    h_on_sq and h_off_sq are the squared composite gain magnitudes in
    the two BD states; noise_power is per subcarrier.
    """

    m_sc: int
    n_chips: int
    h_on_sq: float
    h_off_sq: float
    noise_power: float

    def __post_init__(self):
        if self.m_sc < 1 or self.n_chips < 1:
            raise ValueError("m_sc and n_chips must be positive")
        if (self.m_sc * self.n_chips) % 2:
            raise ValueError("m_sc * n_chips must be even")
        if self.h_on_sq < 0.0 or self.h_off_sq < 0.0:
            raise ValueError("squared gains must be non-negative")
        if self.noise_power <= 0.0:
            raise ValueError("noise_power must be positive")


def _window_overflow():
    return SeriesError(f"Poisson window needs more than {_MAX_TERMS} "
                       "indices")


def _poisson_cdf(k, mu):
    """Poisson(mu) CDF at integer k, 0 below the support."""
    if k < 0:
        return 0.0
    c = float(_sp.pdtr(k, mu))
    if not math.isfinite(c):
        raise SeriesError(f"Poisson CDF is not finite at mean {mu!r}")
    return c


def _poisson_quantile(p, mu):
    """Smallest k >= 0 with CDF(k) >= p, for 0 < p < 1.

    Integer bisection inside a bracket grown from floor(mu) in doubling
    steps of about one standard deviation. Raises the window-overflow
    SeriesError once the bracket passes _MAX_TERMS indices from
    floor(mu).
    """
    k0 = math.floor(mu)
    step = math.isqrt(k0) + 1
    # invariant once bracketed: CDF(below) < p <= CDF(above)
    below = above = k0
    if _poisson_cdf(k0, mu) >= p:
        while _poisson_cdf(above - step, mu) >= p:
            above -= step
            step *= 2
            if k0 - above > _MAX_TERMS:
                raise _window_overflow()
        below = above - step
    else:
        while _poisson_cdf(below + step, mu) < p:
            below += step
            step *= 2
            if below - k0 > _MAX_TERMS:
                raise _window_overflow()
        above = below + step
    while above - below > 1:
        mid = (below + above) // 2
        if _poisson_cdf(mid, mu) >= p:
            above = mid
        else:
            below = mid
    return above


def _poisson_window(half_lam):
    """Index window around the Poisson mode holding >= 1 - _REL_TOL of
    the mass, plus the weights on it.

    With mu = half_lam, q = _REL_TOL / 4 and k_p the smallest k >= 0
    whose CDF, evaluated in double precision, reaches p (1 - q rounded
    to double), the window starts at lo = max(k_q - 2, 0) and
    hi = k_{1-q} + 2, then widens by 16 on each side until
    CDF(hi) - CDF(lo - 1) >= 1 - _REL_TOL. The CDF is
    scipy.special.pdtr, the function scipy.stats.poisson's ppf/isf
    settle on, so the bounds are theirs wherever those are finite.

    Raises SeriesError for a non-finite mu, and when the window needs
    more than _MAX_TERMS indices. The median lies within one index of
    floor(mu) and between the two quantiles, so a quantile more than
    _MAX_TERMS indices from floor(mu) already decides that, before
    either bound is pinned down or any weight is computed.
    """
    if not math.isfinite(half_lam):
        raise SeriesError(f"Poisson mean is not finite: {half_lam!r}")
    if half_lam <= 0.0:
        return 0, np.array([1.0])
    q = _REL_TOL / 4.0
    lo = max(_poisson_quantile(q, half_lam) - 2, 0)
    hi = _poisson_quantile(1.0 - q, half_lam) + 2
    while (hi - lo + 1 <= _MAX_TERMS
           and _poisson_cdf(hi, half_lam) - _poisson_cdf(lo - 1, half_lam)
           < 1.0 - _REL_TOL):
        lo = max(lo - 16, 0)
        hi += 16
    if hi - lo + 1 > _MAX_TERMS:
        raise _window_overflow()
    k = np.arange(lo, hi + 1, dtype=float)
    logw = k * math.log(half_lam) - half_lam - _sp.gammaln(k + 1.0)
    return lo, np.exp(logw)


def _reg_beta_table(x, a0, b0, nj, nk):
    """I_x(a0 + j, b0 + k) for j < nj, k < nk, as a C-contiguous
    (nj, nk) array.

    Built from one betainc corner and the two single-step identities

        I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b G(a+b) / (G(a+1) G(b))
        I_x(a, b+1) = I_x(a, b) + x^a (1-x)^b G(a+b) / (G(a) G(b+1))

    with every step term formed in the log domain. Costs two cumsums
    instead of nj * nk betainc calls.

    The k-steps are laid out transposed, row t and column j, in one
    (nk, nj) buffer whose row 0 is the j-column, so the running sums
    over k are whole-row adds down axis 0. Every entry still comes from
    the same operations in the same order as a j-major build: the
    log-terms are summed left to right, exp runs on contiguous memory,
    each row's cumsum over the step terms alone is taken before the
    column value is added, and the matrix product sees the C-contiguous
    copy. The bits are therefore those of the j-major table.
    """
    la = math.log(x)
    lb = math.log1p(-x)
    corner = float(_sp.betainc(a0, b0, x))
    buf = np.empty((nk, nj))
    col = buf[0]
    col[0] = corner
    if nj > 1:
        j = np.arange(nj - 1, dtype=float)
        lt = ((a0 + j) * la + b0 * lb + _sp.gammaln(a0 + j + b0)
              - _sp.gammaln(a0 + j + 1.0) - _sp.gammaln(b0))
        col[1:] = corner - np.cumsum(np.exp(lt))
    if nk > 1:
        j = np.arange(nj, dtype=float)
        t = np.arange(nk - 1, dtype=float)[:, None]
        # gammaln(a0 + b0 + j + t) read out of one 1-D array via windows
        s = _sp.gammaln(a0 + b0 + np.arange(nj + nk - 2, dtype=float))
        hank = np.lib.stride_tricks.sliding_window_view(s, nj)
        lt = buf[1:]
        np.add((a0 + j) * la, (b0 + t) * lb, out=lt)
        lt += hank
        lt -= _sp.gammaln(a0 + j)
        lt -= _sp.gammaln(b0 + t + 1.0)
        np.exp(lt, out=lt)
        np.cumsum(lt, axis=0, out=lt)
        lt += col
    out = np.ascontiguousarray(buf.T)
    return np.clip(out, 0.0, 1.0, out=out)


def _f_cdf_series(x, nu1, nu2, win1, win2):
    """The double series of doubly_noncentral_f_cdf on prebuilt Poisson
    windows win1 = (jlo, wj) for lam1 / 2 and win2 = (klo, wk) for
    lam2 / 2."""
    jlo, wj = win1
    klo, wk = win2
    xb = x / (1.0 + x)
    table = _reg_beta_table(xb, nu1 / 2.0 + jlo, nu2 / 2.0 + klo,
                            wj.size, wk.size)
    val = math.fsum(wj * (table @ wk))
    return min(max(val, 0.0), 1.0)


def doubly_noncentral_f_cdf(x, nu1, nu2, lam1, lam2):
    """CDF of the ratio of two independent noncentral chi-squares,
    each divided by its degrees of freedom being unnecessary here since
    nu1 = nu2 in every use; the ratio is taken raw."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    if nu1 < 2 or nu2 < 2 or nu1 % 2 or nu2 % 2:
        raise ValueError("degrees of freedom must be even and positive")
    if lam1 < 0.0 or lam2 < 0.0:
        raise ValueError("noncentralities must be non-negative")
    return _f_cdf_series(x, nu1, nu2, _poisson_window(lam1 / 2.0),
                         _poisson_window(lam2 / 2.0))


def exact_ber(p: DetectionParams):
    """Error probability of the correlation detector at threshold
    xi = 1, averaged over two equally likely transmit hypotheses."""
    nu = p.m_sc * p.n_chips
    lam_on = nu * p.h_on_sq / p.noise_power
    lam_off = nu * p.h_off_sq / p.noise_power
    # each window serves both series, one as j-weights, one as k-weights
    win_on = _poisson_window(lam_on / 2.0)
    win_off = _poisson_window(lam_off / 2.0)
    err0 = _f_cdf_series(1.0, nu, nu, win_on, win_off)
    err1 = 1.0 - _f_cdf_series(1.0, nu, nu, win_off, win_on)
    return 0.5 * err0 + 0.5 * err1


def gaussian_ber(p: DetectionParams):
    """Large-m_sc asymptote of exact_ber: Q(sqrt(2 gamma_b)), with
    gamma_b the per-bit SNR of channel.snr_per_bit."""
    gamma_b = _gamma_b(p.n_chips, p.m_sc, p.h_on_sq, p.h_off_sq,
                       p.noise_power)
    return float(q_func(np.sqrt(2.0 * gamma_b)))


def fsk_coherent_ber(gamma_b):
    """Coherent binary FSK error rate Q(sqrt(gamma_b))."""
    if gamma_b < 0.0:
        raise ValueError("gamma_b must be non-negative")
    return float(q_func(np.sqrt(gamma_b)))


def _ordered_params(on, off, noise_power, m_sc, n_chips) -> DetectionParams:
    """Detection parameters for squared gains on, off with the larger
    one as h_on^2.

    Destructive geometries (on < off) flip the sign of the gain
    difference; the detector tracks the true sign, so they map to the
    role-swapped problem.
    """
    big, small = (on, off) if on >= off else (off, on)
    return DetectionParams(m_sc=m_sc, n_chips=n_chips, h_on_sq=big,
                           h_off_sq=small, noise_power=noise_power)


def _params_for_u(u, gamma, m_sc, n_chips) -> DetectionParams:
    """Detection parameters at link SNR gamma > 0 and u = |1+iota|^2,
    with sigma^2 = 1: h_on^2 = gamma max(u, 1), h_off^2 = gamma min(u, 1).
    """
    return _ordered_params(gamma * u, gamma, 1.0, m_sc, n_chips)


def ber_vs_iota(iota, gamma, m_sc, n_chips, engine: str = "exact"):
    """BER as a function of the scatter ratio at link SNR gamma.

    Maps h_off^2 = gamma sigma^2 and h_on^2 = gamma sigma^2 |1+iota|^2
    (sigma^2 = 1 without loss of generality) and evaluates the chosen
    engine. Depends on iota only through |1 + iota|^2.

    Destructive geometries (|1+iota| < 1) flip the sign of the gain
    difference; the detector tracks the true sign, so under equal
    priors its error rate is the exact_ber of the role-swapped problem.
    The gaussian engine is already even in the gap and needs no swap.
    """
    if not np.isfinite(iota):
        raise ValueError("iota must be finite")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    p = _params_for_u(abs(1.0 + iota) ** 2, gamma, m_sc, n_chips)
    if engine == "gaussian":
        return gaussian_ber(p)
    if engine == "exact":
        return exact_ber(p)
    raise ValueError(f"unknown engine: {engine}")


def iota_magnitude_for_target(ber_target, gamma, m_sc, n_chips):
    """Smallest |1 + iota|^2 > 1 whose gaussian-engine BER hits
    ber_target at link SNR gamma. Exact inverse of ber_vs_iota with the
    gaussian engine: the round trip reproduces ber_target to working
    precision."""
    if not 0.0 < ber_target <= 0.5:
        raise ValueError("ber_target must be in (0, 0.5]")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if ber_target == 0.5:
        return 1.0
    z = q_inv(ber_target)
    nm = float(n_chips * m_sc)
    return 1.0 + (2.0 * z * z
                  + 2.0 * z * math.sqrt(z * z + nm * (2.0 * gamma + 1.0))) \
        / (nm * gamma)


def params_for_scheme(p: DetectionParams, scheme: str) -> DetectionParams:
    """Detection parameters for the scheme-equivalent correlation
    problem: the two FSK tones differ on exactly half the chips, so its
    exact BER is the antipodal problem at n_chips / 2."""
    if scheme == "FSK":
        if p.n_chips % 2:
            raise ValueError("FSK needs an even chip count")
        return replace(p, n_chips=p.n_chips // 2)
    return p
