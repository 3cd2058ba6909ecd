"""Special functions backing the detectors and the error-rate theory.

Domain-checked functions in the regimes this package actually hits:
Bessel orders of a few hundred, arguments from 1e-6 up to 1e6, and tail
probabilities down to 1e-12. Every input must be finite, except that
Q takes +-inf.

`log_bessel_i` takes one order per call, and the order picks the path
once. x = 0 takes its closed form at every order: ln I_0(0) = 0, -inf
above. At orders of 50 and above, x >= 1e-300 comes from the uniform
(Debye) asymptotic expansion, DLMF 10.41.3, in numpy, with ten terms
whose polynomials U_k(p) are built once in exact rationals from the
recurrence DLMF 10.41.9; below 1e-300, where x / order would no longer
be a normal double, x comes from a log-domain ascending series. Lower
orders come from scipy's exponentially scaled `ive`, and from the same
series where `ive` underflows to zero. The series takes its log-gamma
terms from `math.lgamma`.

The Q function is `math.erfc`, element by element. Its inverse takes
one p, starts from the stdlib's `statistics.NormalDist().inv_cdf`,
which is Wichura's AS241 (Appl. Statist. 37, 1988), and takes one
Newton step on Q. Both follow the platform's libm rather than a scipy
version, and Q^-1 also CPython's build of AS241. glibc's `erfc` is
within 3.1e-16 relative of 40-digit values for x / sqrt(2), x from 0.5
to 37.5; other libms were not checked.

This is the one module that takes numerics from scipy. Each import
waits for its first use: `scipy.special` for the exact series in
`ber_theory` (`betainc`, `gammaln` and `pdtr` from here) and for
Bessel orders below 50 at x > 0, `statistics` (which loads
`fractions`) for `q_inv`, and `fractions` for Bessel orders of 50 and
above. Importing the package loads no scipy module; an order of 50 or
above never does, so neither do `replicate`, `compare` and
`coverage --engine gaussian` at an `--msc` of 51 or more. `theory`,
`simulate` (its theory rows) and `coverage --engine exact` do.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT2 = np.sqrt(2.0)
_LOG_2PI = np.log(2.0 * np.pi)
_LOG2 = math.log(2.0)

# the expansion's first order, its smallest argument and its term count
_DEBYE_MIN_ORDER = 50.0
_DEBYE_MIN_X = 1e-300
_DEBYE_TERMS = 10
# terms of the ascending series
_SERIES_TERMS = 40


def betainc(a, b, x):
    """scipy.special.betainc, loaded on first call."""
    from scipy.special import betainc
    return betainc(a, b, x)


def gammaln(x):
    """scipy.special.gammaln, loaded on first call."""
    from scipy.special import gammaln
    return gammaln(x)


def pdtr(k, m):
    """scipy.special.pdtr, loaded on first call."""
    from scipy.special import pdtr
    return pdtr(k, m)


def _log_iv_series(order, x):
    # Ascending series in the log domain:
    #   I_v(x) = sum_k (x/2)^(v+2k) / (k! Gamma(v+k+1)).
    # Only used where ive underflows (x small relative to v), so a few
    # dozen terms are far more than enough.
    k = np.arange(_SERIES_TERMS, dtype=float)[:, None]
    lg = np.array([[math.lgamma(j + 1.0) + math.lgamma(order + j + 1.0)]
                   for j in range(_SERIES_TERMS)])
    # ln x - ln 2, not ln(x / 2): x / 2 rounds below the normal range
    lt = (order + 2.0 * k) * (np.log(x) - _LOG2) - lg
    m = lt.max(axis=0)
    return m + np.log(np.exp(lt - m).sum(axis=0))


def _log_iv_scaled(v, x):
    # at x > 0: ln ive(v, x) + x, or the ascending series where it is 0
    from scipy.special import ive
    with np.errstate(divide="ignore"):
        out = np.log(ive(v, x)) + x
    under = out == -np.inf
    if np.any(under):
        out[under] = _log_iv_series(v, x[under])
    return out


@lru_cache(maxsize=None)
def _debye_u():
    # U_0 .. U_{terms-1} of DLMF 10.41.9 as exact coefficient lists in p
    # (index = power):
    #   U_{k+1}(p) = p^2 (1 - p^2) U_k'(p) / 2
    #                + (1/8) int_0^p (1 - 5 t^2) U_k(t) dt
    from fractions import Fraction

    us = [[Fraction(1)]]
    for _ in range(1, _DEBYE_TERMS):
        nxt = [Fraction(0)] * (len(us[-1]) + 3)
        for j, c in enumerate(us[-1]):
            nxt[j + 1] += j * c / 2 + c / (8 * (j + 1))
            nxt[j + 3] -= j * c / 2 + 5 * c / (8 * (j + 3))
        us.append(nxt)
    return tuple(tuple(u) for u in us)


@lru_cache(maxsize=256)
def _debye_poly(nu):
    # sum_k U_k(p) / nu^k collapsed into one polynomial in p, summed in
    # exact rationals and rounded once, highest power first for Horner
    from fractions import Fraction

    inv = 1 / Fraction(nu)
    coef = [Fraction(0)] * len(_debye_u()[-1])
    for k, u in enumerate(_debye_u()):
        scale = inv ** k
        for j, c in enumerate(u):
            coef[j] += c * scale
    return tuple(float(c) for c in reversed(coef))


def _log_iv_debye(nu, x):
    # DLMF 10.41.3 with x = nu w, p = (1 + w^2)^(-1/2) and
    # eta = sqrt(1 + w^2) + ln(w / (1 + sqrt(1 + w^2))):
    #   ln I_nu(x) = nu eta - ln(2 pi nu) / 2 + ln(p) / 2
    #                + ln sum_k U_k(p) / nu^k
    coef = _debye_poly(nu)
    w = x / nu
    root = np.hypot(1.0, w)
    p = 1.0 / root
    poly = coef[0] * p
    poly += coef[1]
    for c in coef[2:]:
        poly *= p
        poly += c
    eta = root + np.log(w / (1.0 + root))
    return (nu * eta - 0.5 * math.log(2.0 * math.pi * nu)) \
        - 0.5 * np.log(root) + np.log(poly)


def log_bessel_i(order, x):
    """ln I_order(x) for one finite order >= 0 and finite x >= 0, x a
    scalar or an array; ln I_v(0) is -inf for v > 0.

    The order picks the path (see the module docstring), and a scalar x
    and the same x inside an array give the same bits.
    """
    if np.ndim(order):
        raise ValueError(f"log_bessel_i takes one order, not {order!r}")
    v = float(order)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if not (0.0 <= v < math.inf and np.all((0.0 <= xx) & (xx < np.inf))):
        raise ValueError("log_bessel_i requires a finite order >= 0 and "
                         "finite x >= 0")

    out = np.full(xx.shape, 0.0 if v == 0.0 else -np.inf)  # ln I_v(0)
    rest = xx > 0.0
    if v >= _DEBYE_MIN_ORDER:
        debye = xx >= _DEBYE_MIN_X
        out[debye] = _log_iv_debye(v, xx[debye])
        rest &= ~debye
    if np.any(rest):
        # ive would underflow at a large order and x below 1e-300
        low = _log_iv_series if v >= _DEBYE_MIN_ORDER else _log_iv_scaled
        out[rest] = low(v, xx[rest])
    return float(out[0]) if np.ndim(x) == 0 else out


def q_func(x):
    """Gaussian tail probability Q(x) = Pr(N(0,1) > x); Q(inf) = 0 and
    Q(-inf) = 1, and NaN is rejected."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise ValueError("q_func requires x that is not NaN")
    erfc = map(math.erfc, (x / _SQRT2).ravel().tolist())
    out = 0.5 * np.fromiter(erfc, float, x.size).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def q_inv(p):
    """Inverse of q_func on (0, 1), for one p."""
    if np.ndim(p) or not 0.0 < p < 1.0:
        raise ValueError(f"q_inv takes one p with 0 < p < 1, not {p!r}")
    from statistics import NormalDist

    z = -NormalDist().inv_cdf(p)
    # One Newton step pins the q_func round trip to machine precision.
    # Skipped where the normal pdf underflows (|z| > ~38): the start
    # alone is already as good as doubles allow out there.
    pdf = np.exp(-0.5 * z * z - 0.5 * _LOG_2PI)
    if pdf > 0.0:
        z += (q_func(z) - p) / max(pdf, 1e-300)
    return float(z)
