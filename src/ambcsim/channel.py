"""Two-path geometric channel model.

The link is a direct path (UE to BS) plus a scattered path through the
backscatter device (UE to BD to BS). Free-space path loss gives each
leg a complex gain; the BD toggles the scattered path on and off. The
whole error-rate story depends on the scatter-to-direct ratio

    iota = (lambda / 4 pi) (d_d / (d_s d_b)) exp(j 2 pi (d_d - d_b - d_s) / lambda)

through |1 + iota|^2 only.
"""

from __future__ import annotations

import math
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
        return _distance(self.ue_pos, self.bs_pos)

    @property
    def d_s(self):
        return _distance(self.ue_pos, self.bd_pos)

    @property
    def d_b(self):
        return _distance(self.bd_pos, self.bs_pos)


def _distance(a, b):
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


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
        if not np.all(np.isfinite((self.h_d, self.h_s, self.h_b,
                                   self.noise_power))):
            raise ValueError("path gains and noise_power must be finite")
        if self.noise_power <= 0.0:
            raise ValueError("noise_power must be positive")
        if not 0.0 < self.bd_modulation_depth <= 1.0:
            raise ValueError("bd_modulation_depth must be in (0, 1]")
        if not 0.0 <= self.bd_off_depth < self.bd_modulation_depth:
            raise ValueError("bd_off_depth must be in [0, bd_modulation_depth)")
        # finite path gains can still give a composite gain, or a squared
        # magnitude, beyond a double; the error rates need both
        with np.errstate(over="ignore", invalid="ignore"):
            for g in _state_gains(self):
                m = math.hypot(g.real, g.imag)
                if not math.isfinite(m * m):
                    raise ValueError("composite gains and their squared "
                                     "magnitudes must be finite")


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


def snr_per_bit(ch: ChannelSet, n_chips: int, m_sc: int) -> float:
    """Effective SNR per backscatter bit:

        gamma_b = N m_sc (|h_on|^2 - |h_off|^2)^2
                  / (8 sigma^2 (sigma^2 + |h_on|^2 + |h_off|^2)),

    half of the Gaussian link budget _two_gamma_b, taken through
    _gamma_b, which DetectionParams.gamma_b shares.
    """
    if n_chips < 1 or m_sc < 1:
        raise ValueError("n_chips and m_sc must be positive")
    return _gamma_b(n_chips * m_sc, *_state_powers(ch), ch.noise_power)


def _state_gains(ch: ChannelSet):
    """Composite gains (on, off) of the BD's reflect and absorb states."""
    return composite_gain(ch, +1), composite_gain(ch, -1)


def _state_powers(ch: ChannelSet):
    """Squared composite gain magnitudes (on, off) of the two BD states."""
    return tuple(abs(g) ** 2 for g in _state_gains(ch))


def _gamma_b(nm, on, off, s2):
    """The per-bit SNR of snr_per_bit from nm = n_chips m_sc, the squared
    gains on, off and the noise power s2, as a float: half of
    _two_gamma_b at gap on - off and total s2 + on + off, with on, off
    in state order (reflect, absorb), as every caller holds them."""
    return float(0.5 * _two_gamma_b(nm, on - off, s2 + on + off, s2))


def _two_gamma_b(nm, gap, total, s2):
    """The Gaussian link budget, twice the per-bit SNR:

        2 gamma_b = nm gap^2 / (4 s2 total)

    for nm = n_chips m_sc, the gain gap = on - off and total =
    s2 + on + off of the squared gains on, off and the noise power s2.
    Elementwise on arrays; +inf where inf / inf would give NaN. _gamma_b
    takes half of it, and the Gaussian BERs (gaussian_ber, through
    DetectionParams.gamma_b, and ber_theory._gaussian_ber_u) take Q of
    its square root.

    Callers form gap and total with their own operations, so each keeps
    its bits. Where no step overflows or underflows, the result is
    within 4.5e-16 relative of the exact value at the arguments given:
    it rounds four times, in np.square (which gives scalar and array
    inputs the same bits), the two products and the quotient.
    """
    # fmin passes over a NaN, so inf / inf reads +inf
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fmin(nm * np.square(gap) / (4.0 * s2 * total), np.inf)


def _noise_for_gamma_b(nm, on, off, gamma_b) -> float:
    """Noise power s2 at which _gamma_b(nm, on, off, s2) is gamma_b, for
    the squared gains on, off of a channel's two states.

    By _two_gamma_b, s2 solves s2 (s2 + s) = t / 4 with s = on + off,
    d = on - off and t = nm d^2 / (2 gamma_b). Its positive root is
    taken as 0.5 t / (s + sqrt(s^2 + t)), in which nothing cancels: the
    relative errors of the roundings add up to at most 11 * 2^-53, so
    wherever t is a normal double the result is within 1.3e-15 relative
    of the exact root at these on, off and gamma_b.
    """
    s = on + off
    d = on - off
    t = nm * d * d / (2.0 * gamma_b)
    return 0.5 * t / (s + math.sqrt(s * s + t))


def to_db(x: float) -> float:
    return 10.0 * np.log10(x) if x > 0.0 else float("-inf")


def from_db(x_db: float) -> float:
    """Linear value of x_db decibels; ValueError unless it is a finite
    positive double."""
    try:
        x = float(10.0 ** (x_db / 10.0))
    except OverflowError:
        x = math.inf
    if not 0.0 < x < math.inf:
        raise ValueError(f"{x_db} dB is outside the range of a double")
    return x
