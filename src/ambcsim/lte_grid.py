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
blocks, so the path builds a chunk _BLOCK chips at a time and keeps one
(chunk x m_sc) float array alive, the in-phase normals. The phases are
drawn twice: skipped, then re-drawn block by block from a copy of the
generator, since they are drawn first but used last. The result has
the bits, and leaves the generator in the state, of the one-shot
formula

    rx = h * exp(1j * theta) + scale * (a + 1j * b)
    y = sum_k (Re rx)^2 + (Im rx)^2.
"""

from __future__ import annotations

import copy

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

    ValueError, before any draw, unless noise_power is positive and
    finite, m_sc is positive and every m_sc |h|^2 is finite; on the
    chi-square path also unless every noncentrality
    2 m_sc |h|^2 / noise_power is finite.
    """
    if not (np.isfinite(noise_power) and noise_power > 0.0):
        raise ValueError("noise_power must be positive and finite")
    if m_sc < 1:
        raise ValueError("m_sc must be positive")
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if not np.isfinite(h).all():
        raise ValueError("gains h must be finite")
    # a finite h can still overflow m_sc |h|^2, or the noncentrality,
    # which is inf wherever m_sc |h|^2 is: checked before any draw, and
    # not warned about
    with np.errstate(over="ignore"):
        power = np.abs(h) ** 2
        if per_re:
            big, name = m_sc * power, "m_sc |h|^2"
        else:
            big = nonc = 2.0 * m_sc * power / noise_power
            name = "noncentrality 2 m_sc |h|^2 / noise_power"
    if not np.isfinite(big).all():
        raise ValueError(f"{name} must be finite")
    if per_re:
        out = np.empty(h.size)
        scale = np.sqrt(noise_power / 2.0)
        for start in range(0, h.size, _CHUNK):
            _per_re_chunk(h[start:start + _CHUNK, None], m_sc, scale, rng,
                          out[start:start + _CHUNK])
        return out
    return (noise_power / 2.0) * rng.noncentral_chisquare(2 * m_sc, nonc)


def _energy_moments(gain_sq, m_sc: int, noise_power):
    """Mean and variance of the energy statistic y at squared gain
    magnitude gain_sq (elementwise on arrays): with s2 = noise_power,
    m_sc (s2 + gain_sq) and m_sc (s2^2 + 2 s2 gain_sq), the moments of
    (s2 / 2) times a noncentral chi-square with 2 m_sc degrees of
    freedom and noncentrality 2 m_sc gain_sq / s2."""
    s2 = noise_power
    return m_sc * (s2 + gain_sq), m_sc * (s2 * s2 + 2.0 * s2 * gain_sq)


def _per_re_chunk(hh, m_sc: int, scale, rng, out):
    """Write to out the energy of each chip in the column hh over m_sc
    synthesized subcarriers, with noise scale per real dimension.

    One (chips x m_sc) array, `a`, holds the in-phase normals; the rest
    lives a block at a time. The phases come first in the stream but
    are needed last, beside each block's quadrature normals, so they
    are drawn twice: skipped on rng a block at a time, then re-drawn
    block by block from a copy of rng's bit generator taken at the
    chunk start. Both are the same uniform draws, so rng ends where the
    one-shot draws leave it on every bit generator. Skipping with
    advance() or raw outputs would not: PCG64's advance drops a
    buffered 32-bit value, an MT19937 double takes two raw outputs, and
    not every bit generator has advance(). Re and Im of
    scale * (a + 1j * b) are exactly scale * a and scale * b, and
    complex addition is componentwise, so the parts add separately."""
    n = hh.shape[0]
    phases = np.random.Generator(copy.deepcopy(rng.bit_generator))
    for lo in range(0, n, _BLOCK):
        rng.uniform(0.0, _TWO_PI, (min(_BLOCK, n - lo), m_sc))
    a = rng.standard_normal((n, m_sc))
    for lo in range(0, n, _BLOCK):
        blk = a[lo:lo + _BLOCK]
        z = hh[lo:lo + _BLOCK] * np.exp(
            1j * phases.uniform(0.0, _TWO_PI, blk.shape))
        re = z.real + scale * blk
        im = z.imag + scale * rng.standard_normal(blk.shape)
        out[lo:lo + _BLOCK] = np.sum(re ** 2 + im ** 2, axis=1)
