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
to mode-centered Poisson windows. The table depends only on the window
bounds, so exact_ber can take a caller's table dict and reuse it across
calls.

The noncentrality convention above (Poisson weights in lam/2) was
pinned empirically against a chi-square-ratio sampling oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import _gamma_b
from .specfun import betainc, gammaln, pdtr, q_func, q_inv


# truncation of the double Poisson series: each window holds at least
# 1 - _REL_TOL of its Poisson mass on at most _MAX_TERMS indices
_REL_TOL = 1e-12
_MAX_TERMS = 20000

# k-steps per scratch block of _reg_beta_table: at the usual nj of about
# a thousand, a block of 64 rows is 0.5 MB
_BLOCK = 64


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
        if not all(map(math.isfinite, (self.h_on_sq, self.h_off_sq,
                                       self.noise_power))):
            raise ValueError("squared gains and noise_power must be finite")
        if self.h_on_sq < 0.0 or self.h_off_sq < 0.0:
            raise ValueError("squared gains must be non-negative")
        if self.noise_power <= 0.0:
            raise ValueError("noise_power must be positive")

    @property
    def gamma_b(self):
        """Per-bit SNR of channel.snr_per_bit at these gains."""
        return _gamma_b(self.n_chips, self.m_sc, self.h_on_sq, self.h_off_sq,
                        self.noise_power)


def _window_overflow():
    return SeriesError(f"Poisson window needs more than {_MAX_TERMS} "
                       "indices")


def _poisson_cdf(k, mu):
    """Poisson(mu) CDF at integer k, 0 below the support."""
    if k < 0:
        return 0.0
    c = float(pdtr(k, mu))
    if not math.isfinite(c):
        raise SeriesError(f"Poisson CDF is not finite at mean {mu!r}")
    return c


def _poisson_quantile(p, mu):
    """Smallest k >= 0 with CDF(k) >= p, for 0 < p < 1.

    Starts at the Cornish-Fisher estimate floor(mu + z sqrt(mu)
    + (z^2 - 1) / 6), z = -q_inv(p), clipped at 0, and walks one index
    at a time: down while CDF(k - 1) >= p, then up while CDF(k) < p.
    Raises the window-overflow SeriesError when the estimate's step
    from mu exceeds _MAX_TERMS, or once the upward walk passes
    _MAX_TERMS indices above floor(mu).
    """
    z = -q_inv(p)
    step = z * math.sqrt(mu) + (z * z - 1.0) / 6.0
    if abs(step) > _MAX_TERMS:
        raise _window_overflow()
    k = max(math.floor(mu + step), 0)
    while k > 0 and _poisson_cdf(k - 1, mu) >= p:
        k -= 1
    while _poisson_cdf(k, mu) < p:
        k += 1
        if k - math.floor(mu) > _MAX_TERMS:
            raise _window_overflow()
    return k


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

    Each k_p comes from _poisson_quantile's walk of one index at a time
    from a Cornish-Fisher start, so the bounds are those of any exact
    search on the same CDF.

    Raises SeriesError for a non-finite mu, and when the window needs
    more than _MAX_TERMS indices. The median lies within one index of
    floor(mu) and between the two quantiles, so a quantile estimate
    more than _MAX_TERMS indices from mu, or a walk that passes
    _MAX_TERMS indices above floor(mu), already decides that, before
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
    logw = k * math.log(half_lam) - half_lam - gammaln(k + 1.0)
    return lo, np.exp(logw)


def _reg_beta_table(x, a0, b0, nj, nk):
    """I_x(a0 + j, b0 + k) for j < nj, k < nk, clipped to [0, 1], as a
    C-contiguous (nj, nk) array.

    Built from one betainc corner and the two single-step identities

        I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b G(a+b) / (G(a+1) G(b))
        I_x(a, b+1) = I_x(a, b) + x^a (1-x)^b G(a+b) / (G(a) G(b+1))

    with every step term formed in the log domain. Costs two running
    sums instead of nj * nk betainc calls.

    The j-column (k = 0) is clipped once into column 0 of the output.
    The k-steps are then taken _BLOCK at a time in one contiguous
    (_BLOCK, nj) scratch block, row t and column j, small enough to stay
    in cache: the log-terms, exp, the running sums over t (one
    whole-row add per step over a list of the block's row views built
    once, the first row of a block adding a copy of the last running
    row of the previous block), then the unclipped j-column and the
    clip, before the block is written transposed into its columns of
    the output. Every entry keeps the bits of a j-major build that
    clips the whole table at the end: each log-term is the same IEEE
    operations in the same order, exp and clip are elementwise, and a
    running sum is sequential whether it runs along a row or down rows
    in blocks; the column value is added only after the sum. The
    product with the k-weights stays one matrix-vector product over the
    whole C-contiguous table (see _f_cdf_series), since a blocked
    product would sum in another order and move the last bits.

    The output is allocated after every scratch array, so the scratch
    leaves its holes below the table, not between it and the next one.
    Allocated first, a table had scratch blocks right above it, and a
    map's next, slightly larger table often found no room in the hole
    of the one it replaced: the heap grew by a table, so the peak RSS
    of an exact map after a theory sweep depended on how earlier
    imports had laid out the heap (86 or 96 MB from run to run).
    """
    la = math.log(x)
    lb = math.log1p(-x)
    corner = float(betainc(a0, b0, x))
    col = np.empty(nj)
    col[0] = corner
    if nj > 1:
        j = np.arange(nj - 1, dtype=float)
        lt = ((a0 + j) * la + b0 * lb + gammaln(a0 + j + b0)
              - gammaln(a0 + j + 1.0) - gammaln(b0))
        col[1:] = corner - np.cumsum(np.exp(lt))
    if nk > 1:
        j = np.arange(nj, dtype=float)
        t = np.arange(nk - 1, dtype=float)[:, None]
        ja = (a0 + j) * la
        ga = gammaln(a0 + j)
        tb = (b0 + t) * lb
        gb = gammaln(b0 + t + 1.0)
        # gammaln(a0 + b0 + j + t) read out of one 1-D array via windows
        s = gammaln(a0 + b0 + np.arange(nj + nk - 2, dtype=float))
        hank = np.lib.stride_tricks.sliding_window_view(s, nj)
        blk = np.empty((min(_BLOCK, nk - 1), nj))
        rows = list(blk)
    out = np.empty((nj, nk))
    np.clip(col, 0.0, 1.0, out[:, 0])
    for r0 in range(0, nk - 1, _BLOCK):
        r1 = min(r0 + _BLOCK, nk - 1)
        n = r1 - r0
        lt = blk[:n]
        np.add(ja, tb[r0:r1], lt)
        lt += hank[r0:r1]
        lt -= ga
        lt -= gb[r0:r1]
        np.exp(lt, lt)
        if r0:
            np.add(rows[0], carry, rows[0])
        for i in range(1, n):
            np.add(rows[i], rows[i - 1], rows[i])
        carry = rows[n - 1].copy()
        lt += col
        np.clip(lt, 0.0, 1.0, lt)
        out[:, 1 + r0:1 + r1] = lt.T
    return out


def _table_key(x, nu1, nu2, win1, win2):
    """The _reg_beta_table arguments of the series of
    doubly_noncentral_f_cdf on the Poisson windows win1 (j) and win2
    (k): they hold the window bounds, not the weights."""
    return (x / (1.0 + x), nu1 / 2.0 + win1[0], nu2 / 2.0 + win2[0],
            win1[1].size, win2[1].size)


def _f_cdf_series(table, win1, win2):
    """The double series of doubly_noncentral_f_cdf on the table of
    _table_key(x, nu1, nu2, win1, win2) and the Poisson windows
    win1 = (jlo, wj) for lam1 / 2 and win2 = (klo, wk) for lam2 / 2."""
    val = math.fsum(win1[1] * (table @ win2[1]))
    return min(max(val, 0.0), 1.0)


def doubly_noncentral_f_cdf(x, nu1, nu2, lam1, lam2):
    """Pr(X1 / X2 <= x) for independent noncentral chi-squares X1 with
    nu1 degrees of freedom and noncentrality lam1, and X2 with nu2 and
    lam2.

    The ratio is taken raw: the F statistic (X1 / nu1) / (X2 / nu2) is
    at most f exactly when X1 / X2 is at most f nu1 / nu2. The two
    degrees of freedom may differ; both must be even and positive. x
    must be finite and small enough that x / (1 + x) stays below 1 in
    double precision (about 9e15)."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    if not x / (1.0 + x) < 1.0:
        raise ValueError(f"x = {x!r} is not finite, or so large that "
                         "x / (1 + x) rounds to 1")
    if nu1 < 2 or nu2 < 2 or nu1 % 2 or nu2 % 2:
        raise ValueError("degrees of freedom must be even and positive")
    if lam1 < 0.0 or lam2 < 0.0:
        raise ValueError("noncentralities must be non-negative")
    win1 = _poisson_window(lam1 / 2.0)
    win2 = _poisson_window(lam2 / 2.0)
    table = _reg_beta_table(*_table_key(x, nu1, nu2, win1, win2))
    return _f_cdf_series(table, win1, win2)


def exact_ber(p: DetectionParams, tables: dict | None = None):
    """Error probability of the correlation detector at threshold
    xi = 1, averaged over two equally likely transmit hypotheses.

    A table depends only on the Poisson window bounds, so consecutive
    calls at nearby gains often need the same two. A caller that makes
    such a run of calls may pass one dict as tables and keep it across
    them: each call first drops every entry it does not need, then
    takes its two tables from the dict or builds and stores them, so
    the dict never holds more than two. Without tables, each table is
    built, used and freed in turn. Either way the result has the same
    bits.
    """
    nu = p.m_sc * p.n_chips
    lam_on = nu * p.h_on_sq / p.noise_power
    lam_off = nu * p.h_off_sq / p.noise_power
    # each window serves both series, one as j-weights, one as k-weights
    win_on = _poisson_window(lam_on / 2.0)
    win_off = _poisson_window(lam_off / 2.0)
    key0 = _table_key(1.0, nu, nu, win_on, win_off)
    key1 = _table_key(1.0, nu, nu, win_off, win_on)
    if tables is not None:
        # Stale tables go before any build, so a new table can take the
        # pages they free. Allocation order is what matters here: an
        # evict-on-miss cache built the same tables with the same
        # tracemalloc peak, yet raised the peak RSS of an exact 16x16
        # coverage map from 77 to 86 MB.
        for key in [k for k in tables if k not in (key0, key1)]:
            del tables[key]

    def table(key):
        if tables is None:
            return _reg_beta_table(*key)
        if key not in tables:
            tables[key] = _reg_beta_table(*key)
        return tables[key]

    err0 = _f_cdf_series(table(key0), win_on, win_off)
    err1 = 1.0 - _f_cdf_series(table(key1), win_off, win_on)
    return 0.5 * err0 + 0.5 * err1


def gaussian_ber(p: DetectionParams):
    """Large-m_sc asymptote of exact_ber: Q(sqrt(2 p.gamma_b))."""
    return float(q_func(np.sqrt(2.0 * p.gamma_b)))


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
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if m_sc < 1 or n_chips < 1:
        raise ValueError("m_sc and n_chips must be positive")
    if ber_target == 0.5:
        return 1.0
    z = q_inv(ber_target)
    nm = float(n_chips * m_sc)
    spread = nm * (2.0 * gamma + 1.0)
    if not math.isfinite(spread):
        # nm * gamma is above 8.9e307: the excess over 1 is below 1e-150;
        # the formula would give inf or inf/inf
        return 1.0
    return 1.0 + (2.0 * z * z + 2.0 * z * math.sqrt(z * z + spread)) \
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
