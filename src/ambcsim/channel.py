"""Two-path geometric channel model.

The link is a direct path (UE to BS) plus a scattered path through the
backscatter device (UE to BD to BS). Free-space path loss gives each
leg a complex gain; the BD toggles the scattered path on and off. The
whole error-rate story depends on the scatter-to-direct ratio

    iota = (lambda / 4 pi) (d_d / (d_s d_b)) exp(j 2 pi (d_d - d_b - d_s) / lambda)

through |1 + iota|^2 only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0

_FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class LinkGeometry:
    """Planar positions of the three terminals, meters."""

    bs_pos: tuple
    ue_pos: tuple
    bd_pos: tuple

    def __post_init__(self):
        if min(self.d_d, self.d_s, self.d_b) <= 0.0:
            raise ValueError("degenerate geometry: coincident terminals")

    @property
    def d_d(self):
        return float(np.hypot(self.ue_pos[0] - self.bs_pos[0],
                              self.ue_pos[1] - self.bs_pos[1]))

    @property
    def d_s(self):
        return float(np.hypot(self.ue_pos[0] - self.bd_pos[0],
                              self.ue_pos[1] - self.bd_pos[1]))

    @property
    def d_b(self):
        return float(np.hypot(self.bd_pos[0] - self.bs_pos[0],
                              self.bd_pos[1] - self.bs_pos[1]))


@dataclass(frozen=True)
class ChannelSet:
    """Complex path gains plus the receiver noise level.

    bd_modulation_depth is the amplitude factor the BD applies in the
    reflecting state; bd_off_depth is the residual reflection in the
    absorbing state (0 for an ideal device). A measured two-level tag
    is represented by setting both, e.g. 10**(-0.5/20) reflect and
    10**(-23/20) absorb.
    """

    h_d: complex
    h_s: complex
    h_b: complex
    noise_power: float
    bd_modulation_depth: float = 1.0
    bd_off_depth: float = 0.0

    def __post_init__(self):
        if self.noise_power <= 0.0:
            raise ValueError("noise_power must be positive")
        if not 0.0 < self.bd_modulation_depth <= 1.0:
            raise ValueError("bd_modulation_depth must be in (0, 1]")
        if not 0.0 <= self.bd_off_depth < self.bd_modulation_depth:
            raise ValueError("bd_off_depth must be in [0, bd_modulation_depth)")


def fspl_gain(d: float, lam: float) -> complex:
    """Free-space complex amplitude gain at distance d, wavelength lam:
    magnitude lam / (4 pi d), phase 2 pi d / lam."""
    if d <= 0.0:
        raise ValueError("distance must be positive")
    if lam <= 0.0:
        raise ValueError("wavelength must be positive")
    return (lam / (_FOUR_PI * d)) * np.exp(2j * np.pi * d / lam)


def composite_gain(ch: ChannelSet, b: int) -> complex:
    """Per-symbol gain under BD state b: +1 reflect ("on"), -1 absorb
    ("off")."""
    if b == 1:
        return ch.h_d + ch.bd_modulation_depth * ch.h_s * ch.h_b
    if b == -1:
        if ch.bd_off_depth == 0.0:
            return ch.h_d
        return ch.h_d + ch.bd_off_depth * ch.h_s * ch.h_b
    raise ValueError("BD state must be +1 or -1")


def scatter_ratio(geom: LinkGeometry, lam: float) -> complex:
    """Scatter-to-direct gain ratio for free-space legs.

    Dimensionless and invariant under a uniform scaling of all
    coordinates together with the wavelength.
    """
    if lam <= 0.0:
        raise ValueError("wavelength must be positive")
    mag, phase = _scatter(geom.d_d, geom.d_s, geom.d_b, lam)
    return mag * np.exp(1j * phase)


def _scatter(d_d, d_s, d_b, lam):
    """Magnitude and phase of iota from the leg lengths (elementwise on
    arrays): (lam / 4 pi) d_d / (d_s d_b), 2 pi (d_d - d_b - d_s) / lam."""
    return ((lam / _FOUR_PI) * d_d / (d_s * d_b),
            2.0 * np.pi * (d_d - d_b - d_s) / lam)


def lte_snr(ch: ChannelSet) -> float:
    """Cellular-link SNR gamma = |h_d|^2 / sigma_n^2 (linear)."""
    return abs(ch.h_d) ** 2 / ch.noise_power


def snr_per_bit(ch: ChannelSet, n_chips: int, m_sc: int) -> float:
    """Effective SNR per backscatter bit:

        gamma_b = N m_sc (|h_on|^2 - |h_off|^2)^2
                  / (8 sigma^2 (sigma^2 + |h_on|^2 + |h_off|^2)).
    """
    if n_chips < 1 or m_sc < 1:
        raise ValueError("n_chips and m_sc must be positive")
    return _gamma_b(n_chips, m_sc, abs(composite_gain(ch, +1)) ** 2,
                    abs(composite_gain(ch, -1)) ** 2, ch.noise_power)


def _gamma_b(n_chips, m_sc, on, off, s2):
    """The per-bit SNR of snr_per_bit from the squared gains on, off and
    the noise power s2. Callers keep their own (on, off) order, since
    s2 + on + off and s2 + off + on can round apart."""
    return n_chips * m_sc * (on - off) ** 2 / (8.0 * s2 * (s2 + on + off))


def to_db(x: float) -> float:
    return 10.0 * np.log10(x) if x > 0.0 else float("-inf")


def from_db(x_db: float) -> float:
    return float(10.0 ** (x_db / 10.0))
