"""Special functions backing the detectors and the error-rate theory.

Domain-checked functions in the regimes this package actually hits:
Bessel orders of a few hundred, arguments from 1e-6 up to 1e6, and tail
probabilities down to 1e-12. Every input must be finite, except that
Q takes +-inf.

`log_bessel_i` takes each element by its order. Orders of 50 and above
come from the uniform (Debye) asymptotic expansion, DLMF 10.41.3, in
numpy, with ten terms whose polynomials U_k(p) are built once in exact
rationals from the recurrence DLMF 10.41.9. Lower orders come from
scipy's exponentially scaled `ive`, and from a log-domain ascending
series where `ive` underflows to zero; so do arguments below 1e-300 at
any order, where x / order would no longer be a normal double.

The Q function is `math.erfc`, element by element, and its inverse
starts from Wichura's algorithm AS241 (Appl. Statist. 37, 1988) in
plain `math` and takes one Newton step on Q. Both therefore follow the
platform's libm rather than a scipy version. glibc's `erfc` is within
3.1e-16 relative of 40-digit values for x / sqrt(2), x from 0.5 to
37.5; other libms were not checked.

This is the one module that takes numerics from scipy, and it loads
`scipy.special` only on the first call that needs it: the exact series
in `ber_theory` (`betainc`, `gammaln` and `pdtr` from here) and Bessel
orders below 50. Importing the package loads no scipy module, and
neither do `replicate`, `compare` and `coverage --engine gaussian`
unless an element takes the `ive` path; `theory`, `simulate` (its
theory rows) and `coverage --engine exact` do.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT2 = np.sqrt(2.0)
_LOG_2PI = np.log(2.0 * np.pi)

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
    lt = (order + 2.0 * k) * np.log(x / 2.0) \
        - gammaln(k + 1.0) - gammaln(order + k + 1.0)
    m = lt.max(axis=0)
    return m + np.log(np.exp(lt - m).sum(axis=0))


def _log_iv_scaled(v, x):
    # ln ive(v, x) + x, and the ascending series where ive underflows
    out = np.full(v.shape, -np.inf)
    if not v.size:
        # nothing below the expansion's range: scipy stays unloaded
        return out
    from scipy.special import ive
    scaled = ive(v, x)
    ok = scaled > 0.0
    out[ok] = np.log(scaled[ok]) + x[ok]
    need = (~ok) & (x > 0.0)
    if np.any(need):
        out[need] = _log_iv_series(v[need], x[need])
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


def _log_iv_debye_one(nu, x):
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
    """ln I_order(x) for finite order >= 0 and finite x >= 0,
    elementwise; ln I_v(0) is -inf for v > 0.

    Each element takes the path its order selects (see the module
    docstring), so a scalar order and the same order inside an array
    give the same bits.
    """
    o_in = np.asarray(order, dtype=float)
    x_in = np.asarray(x, dtype=float)
    scalar = o_in.ndim == 0 and x_in.ndim == 0
    v, xx = np.broadcast_arrays(np.atleast_1d(o_in), np.atleast_1d(x_in))
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(xx))):
        raise ValueError("log_bessel_i requires a finite order and x")
    if np.any(v < 0.0) or np.any(xx < 0.0):
        raise ValueError("log_bessel_i requires order >= 0 and x >= 0")

    # one pass per distinct large order, then one for the rest, so
    # every element sees the same operations whatever shares its call
    debye = (v >= _DEBYE_MIN_ORDER) & (xx >= _DEBYE_MIN_X)
    out = np.empty(v.shape)
    for nu in np.unique(v[debye]):
        sel = debye & (v == nu)
        out[sel] = _log_iv_debye_one(float(nu), xx[sel])
    rest = ~debye
    out[rest] = _log_iv_scaled(v[rest], xx[rest])
    return float(out[0]) if scalar else out


def q_func(x):
    """Gaussian tail probability Q(x) = Pr(N(0,1) > x); Q(inf) = 0 and
    Q(-inf) = 1, and NaN is rejected."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise ValueError("q_func requires x that is not NaN")
    out = 0.5 * _elementwise(math.erfc, x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def _elementwise(f, a):
    """f of a float to a float, mapped over the array a."""
    return np.fromiter(map(f, a.ravel().tolist()), float,
                       a.size).reshape(a.shape)


def _horner(coef, r):
    # coef highest power first, the nesting of ((c0 r + c1) r + c2) ...
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * r + c
    return acc


# AS241's PPND16 coefficients, highest power first: A/B for
# |p - 1/2| <= 0.425, C/D for r = sqrt(-ln min(p, 1 - p)) <= 5 (taken
# at r - 1.6), E/F beyond (at r - 5)
_AS241_A = (2.5090809287301226727e+3, 3.3430575583588128105e+4,
            6.7265770927008700853e+4, 4.5921953931549871457e+4,
            1.3731693765509461125e+4, 1.9715909503065514427e+3,
            1.3314166789178437745e+2, 3.3871328727963666080e+0)
_AS241_B = (5.2264952788528545610e+3, 2.8729085735721942674e+4,
            3.9307895800092710610e+4, 2.1213794301586595867e+4,
            5.3941960214247511077e+3, 6.8718700749205790830e+2,
            4.2313330701600911252e+1, 1.0)
_AS241_C = (7.7454501427834140764e-4, 2.2723844989269184583e-2,
            2.4178072517745061177e-1, 1.2704582524523683826e+0,
            3.6478483247632046050e+0, 5.7694972214606914055e+0,
            4.6303378461565452959e+0, 1.4234371107496835773e+0)
_AS241_D = (1.0507500716444168432e-9, 5.4759380849953449460e-4,
            1.5198666563616457197e-2, 1.4810397642748007459e-1,
            6.8976733498510000455e-1, 1.6763848301838038494e+0,
            2.0531916266377588219e+0, 1.0)
_AS241_E = (2.0103343992922881327e-7, 2.7115555687434875782e-5,
            1.2426609473880784386e-3, 2.6532189526576123093e-2,
            2.9656057182850489123e-1, 1.7848265399172913358e+0,
            5.4637849111641143699e+0, 6.6579046435011037772e+0)
_AS241_F = (2.0442631033899397856e-15, 1.4215117583164458887e-7,
            1.8463183175100546818e-5, 7.8686913114561325910e-4,
            1.4875361290850614853e-2, 1.3692988092273580531e-1,
            5.9983220655588793769e-1, 1.0)


def _as241(p):
    """Standard normal quantile x with Pr(N(0,1) <= x) = p, 0 < p < 1,
    by AS241 (PPND16), good to about 1e-16 relative."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return _horner(_AS241_A, r) * q / _horner(_AS241_B, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        r -= 1.6
        x = _horner(_AS241_C, r) / _horner(_AS241_D, r)
    else:
        r -= 5.0
        x = _horner(_AS241_E, r) / _horner(_AS241_F, r)
    return -x if q < 0.0 else x


def q_inv(p):
    """Inverse of q_func on (0, 1)."""
    p_in = np.asarray(p, dtype=float)
    if not np.all((p_in > 0.0) & (p_in < 1.0)):
        raise ValueError("q_inv requires 0 < p < 1")
    z = -_elementwise(_as241, p_in)
    # One Newton step pins the q_func round trip to machine precision.
    # Skipped where the normal pdf underflows (|z| > ~38): AS241 alone
    # is already as good as doubles allow out there.
    pdf = np.exp(-0.5 * z * z - 0.5 * _LOG_2PI)
    step = np.where(pdf > 0.0, (q_func(z) - p_in) / np.maximum(pdf, 1e-300), 0.0)
    z = z + step
    return float(z) if z.ndim == 0 else z
