"""Sounding-signal resource grid model.

Models the uplink sounding symbol at the fidelity the detection chain
needs: a fixed number of unit-modulus subcarriers per sounding symbol,
a fixed sounding period, and the per-symbol energy statistic

    y[l] = sum_k |S_r[k; l]|^2.

With noise power sigma_n^2 per subcarrier and a frequency-flat gain h,
the normalized statistic 2 y / sigma_n^2 follows a noncentral
chi-square law with 2 m_sc degrees of freedom and noncentrality
2 m_sc |h|^2 / sigma_n^2.
"""

from __future__ import annotations

import numpy as np

_TWO_PI = 2.0 * np.pi


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
        # chunked so the (chips x subcarriers) scratch stays small
        step = 4096
        for start in range(0, h.size, step):
            hh = h[start:start + step, None]
            sym = np.exp(1j * rng.uniform(0.0, _TWO_PI, (hh.shape[0], m_sc)))
            noise = scale * (rng.standard_normal((hh.shape[0], m_sc))
                             + 1j * rng.standard_normal((hh.shape[0], m_sc)))
            rx = hh * sym + noise
            out[start:start + step] = np.sum(rx.real ** 2 + rx.imag ** 2, axis=1)
        return out
    nonc = 2.0 * m_sc * np.abs(h) ** 2 / noise_power
    return (noise_power / 2.0) * rng.noncentral_chisquare(2 * m_sc, nonc)
