"""Special functions backing the detectors and the error-rate theory.

Thin, domain-checked wrappers around scipy with fallbacks where scipy's
primitives lose precision in the regimes this package actually hits:
Bessel orders of a few hundred, arguments from 1e-6 up to 1e6, and tail
probabilities down to 1e-12.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

_SQRT2 = np.sqrt(2.0)
_LOG_2PI = np.log(2.0 * np.pi)


def _log_iv_series(order, x, n_terms=40):
    # Ascending series in the log domain:
    #   I_v(x) = sum_k (x/2)^(v+2k) / (k! Gamma(v+k+1)).
    # Only used where ive underflows (x small relative to v), so a few
    # dozen terms are far more than enough.
    k = np.arange(n_terms, dtype=float)[:, None]
    lt = (order + 2.0 * k) * np.log(x / 2.0) \
        - _sp.gammaln(k + 1.0) - _sp.gammaln(order + k + 1.0)
    m = lt.max(axis=0)
    return m + np.log(np.exp(lt - m).sum(axis=0))


def log_bessel_i(order, x):
    """ln I_order(x) for order >= 0 and x >= 0, elementwise.

    Uses the exponentially scaled Bessel function, ln I_v(x) =
    ln ive(v, x) + x, and switches to a log-domain ascending series
    where ive underflows to zero (large order, modest argument).
    """
    o_in = np.asarray(order, dtype=float)
    x_in = np.asarray(x, dtype=float)
    scalar = o_in.ndim == 0 and x_in.ndim == 0
    v, xx = np.broadcast_arrays(np.atleast_1d(o_in), np.atleast_1d(x_in))
    if np.any(v < 0.0) or np.any(xx < 0.0):
        raise ValueError("log_bessel_i requires order >= 0 and x >= 0")

    out = np.full(v.shape, -np.inf)
    ive = _sp.ive(v, xx)
    ok = ive > 0.0
    out[ok] = np.log(ive[ok]) + xx[ok]
    need = (~ok) & (xx > 0.0)
    if np.any(need):
        out[need] = _log_iv_series(v[need], xx[need])
    return float(out[0]) if scalar else out


def q_func(x):
    """Gaussian tail probability Q(x) = Pr(N(0,1) > x)."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * _sp.erfc(x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def q_inv(p):
    """Inverse of q_func on (0, 1)."""
    p_in = np.asarray(p, dtype=float)
    if np.any((p_in <= 0.0) | (p_in >= 1.0)):
        raise ValueError("q_inv requires 0 < p < 1")
    z = -_sp.ndtri(p_in)
    # One Newton step pins the q_func round trip to machine precision.
    # Skipped where the normal pdf underflows (|z| > ~38): ndtri alone
    # is already as good as doubles allow out there.
    pdf = np.exp(-0.5 * z * z - 0.5 * _LOG_2PI)
    step = np.where(pdf > 0.0, (q_func(z) - p_in) / np.maximum(pdf, 1e-300), 0.0)
    z = z + step
    return float(z) if z.ndim == 0 else z
