"""Sounding-signal resource grid model.

Models the uplink sounding symbol at the fidelity the detection chain
needs: a fixed number of unit-modulus subcarriers per sounding symbol,
a fixed sounding period, and the per-symbol energy statistic

    y[l] = sum_k |S_r[k; l]|^2.

With noise power sigma_n^2 per subcarrier and a frequency-flat gain h,
the normalized statistic 2 y / sigma_n^2 follows a noncentral
chi-square law with 2 m_sc degrees of freedom and noncentrality
2 m_sc |h|^2 / sigma_n^2.

The per-subcarrier path draws its random numbers in a fixed order:
chunks of _CHUNK chips, and within a chunk all symbol phases, then all
in-phase noise normals, then all quadrature noise normals, each as
(chips x m_sc) in row-major order. numpy's Generator gives the same
numbers whether such a draw is taken whole or in consecutive row
blocks, so the path builds a chunk _BLOCK chips at a time and keeps at
most two (chunk x m_sc) float arrays alive, with the bits of the
one-shot formula

    rx = h * exp(1j * theta) + scale * (a + 1j * b)
    y = sum_k (Re rx)^2 + (Im rx)^2.
"""

from __future__ import annotations

import numpy as np

_TWO_PI = 2.0 * np.pi
_CHUNK = 4096
_BLOCK = 64


def energy_stream(h, m_sc: int, noise_power: float, rng, per_re: bool = False):
    """Vector of energy statistics, one per entry of h.

    per_re=False samples each y directly from the noncentral chi-square
    law (the fast path). per_re=True synthesizes every subcarrier, which
    is what the direct path must match distributionally. Its symbols are
    unit modulus with uniformly random phases: y depends on the sequence
    only through |S_t[k]| = 1.
    """
    if noise_power <= 0.0:
        raise ValueError("noise_power must be positive")
    if m_sc < 1:
        raise ValueError("m_sc must be positive")
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if per_re:
        out = np.empty(h.size)
        scale = np.sqrt(noise_power / 2.0)
        for start in range(0, h.size, _CHUNK):
            hh = h[start:start + _CHUNK, None]
            out[start:start + _CHUNK] = _per_re_chunk(hh, m_sc, scale, rng)
        return out
    nonc = 2.0 * m_sc * np.abs(h) ** 2 / noise_power
    return (noise_power / 2.0) * rng.noncentral_chisquare(2 * m_sc, nonc)


def _per_re_chunk(hh, m_sc: int, scale, rng):
    """Energy of each chip in the column hh over m_sc synthesized
    subcarriers, with noise scale per real dimension. Two (chips x m_sc)
    arrays: `re` holds Re rx, and the phase array is overwritten block by
    block with Im rx. Re and Im of scale * (a + 1j * b) are exactly
    scale * a and scale * b, and complex addition is componentwise, so
    the parts add separately."""
    n = hh.shape[0]
    im = rng.uniform(0.0, _TWO_PI, (n, m_sc))
    re = np.empty_like(im)
    for lo in range(0, n, _BLOCK):
        theta = im[lo:lo + _BLOCK]
        a = rng.standard_normal(theta.shape)
        z = hh[lo:lo + _BLOCK] * np.exp(1j * theta)
        np.add(z.real, scale * a, out=re[lo:lo + _BLOCK])
        theta[...] = z.imag
    out = np.empty(n)
    for lo in range(0, n, _BLOCK):
        blk = im[lo:lo + _BLOCK]
        blk += scale * rng.standard_normal(blk.shape)
        out[lo:lo + _BLOCK] = np.sum(re[lo:lo + _BLOCK] ** 2 + blk ** 2,
                                     axis=1)
    return out
