"""Backscatter symbol alphabets, framing, synchronization, and the four
energy detectors.

Symbols are square-wave chip patterns in {-1, +1} with equal on and off
counts. Detectors operate on the per-chip energy statistics y[i] and
pick the hypothesis with the larger metric; exact ties go to H_0 so the
decision is deterministic.

Detector metrics (g_m[i] is the gain magnitude the channel takes when
chip i of symbol m is applied, sigma^2 the per-subcarrier noise power,
M the subcarrier count):

    BesselMap    sum_i J_{M-1}(2 g_m[i] sqrt(M y[i]) / sigma^2)
    SquareRoot   sum_i g_m[i] sqrt(y[i])
    Correlation  sum_i g_m[i] y[i]
    Power        sum_i [-(y[i]-mu_m[i])^2 / (2 V_m[i]) - ln(V_m[i]) / 2]
                 with mu = M (sigma^2 + g^2), V = M (sigma^4 + 2 sigma^2 g^2)

The Power rule's mu and V are the energy statistic's mean and variance,
written once in lte_grid._energy_moments, which the simulator's
Gaussian y-model and the replicate sync threshold also use. The
per-bit SNR and the Gaussian BERs share one link budget,
channel._two_gamma_b. The Gaussian BERs live in ber_theory:
gaussian_ber, Q(sqrt(2 gamma_b)), for the theory rows (for FSK, the
antipodal problem at N/2 chips), and _gaussian_ber_u for the BER of
u = |1+iota|^2 in the coverage map, ber_vs_iota and theory --iota.

BesselMap is the exact likelihood-ratio rule for the noncentral
chi-square law of y and serves as the referee for the other three.
With v = M - 1, z the argument above and the scaled log-Bessel
function

    J_v(z) = ln I_v(z) - v ln(z / 2),    J_v(0) = -ln Gamma(v + 1),

chip i's log likelihood under symbol m is J_v(z) - M g_m[i]^2 / sigma^2
plus a term in y[i] alone. The gain terms sum to the same value under
both hypotheses, because both symbols have equal on and off chip
counts, so they cancel from metric(H_0) - metric(H_1). J is finite at
z = 0, so a zero gain or a zero energy sample needs no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, _state_gains
from .lte_grid import _energy_moments
from .specfun import log_bessel_i

DETECTOR_KINDS = ("BesselMap", "SquareRoot", "Correlation", "Power")
SCHEMES = ("BPSK", "FSK", "DBPSK")

BARKER7 = np.array([1, 1, 1, -1, -1, 1, -1], dtype=int)

SYNC_BITS = np.concatenate([(BARKER7 < 0).astype(int)] * 3)
PAYLOAD_BITS = 80
FRAME_BITS = SYNC_BITS.size + PAYLOAD_BITS


@dataclass(frozen=True)
class SymbolAlphabet:
    scheme: str
    s0: np.ndarray
    s1: np.ndarray

    @property
    def n_chips(self):
        return len(self.s0)


def _square_wave(n_chips, periods):
    # one full period = half low then half high
    half = n_chips // (2 * periods)
    return np.tile(np.concatenate([-np.ones(half, dtype=int),
                                   np.ones(half, dtype=int)]), periods)


def make_alphabet(scheme: str, n_chips: int) -> SymbolAlphabet:
    """Square-wave chip patterns for one symbol.

    BPSK and DBPSK use the alternating pattern and its negation; FSK
    uses one period against two periods per symbol (the two tones).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme}")
    if n_chips < 2 or n_chips % 2:
        raise ValueError("n_chips must be even and at least 2")
    if scheme == "FSK":
        if n_chips % 4:
            raise ValueError("FSK needs n_chips divisible by 4")
        s0 = _square_wave(n_chips, 1)
        s1 = _square_wave(n_chips, 2)
    else:
        s0 = _square_wave(n_chips, n_chips // 2)
        s1 = -s0
    return SymbolAlphabet(scheme=scheme, s0=s0, s1=s1)


def encode_bits(alphabet: SymbolAlphabet, bits) -> np.ndarray:
    """Chip sequence for a bit sequence, one symbol per bit.

    DBPSK is differential: bit 1 toggles the transmitted waveform,
    bit 0 repeats it, starting from s0.
    """
    bits = np.asarray(bits, dtype=int)
    if bits.size == 0:
        raise ValueError("empty bit sequence")
    if alphabet.scheme == "DBPSK":
        states = np.cumsum(bits) % 2
    else:
        states = bits
    table = np.stack([alphabet.s0, alphabet.s1])
    return table[states].reshape(-1)


def encode_frame(payload, alphabet: SymbolAlphabet, idle_chips: int = 0) -> np.ndarray:
    """One 101-bit frame: the fixed 21-bit Barker sync header followed
    by 80 payload bits, optionally padded with idle (absorb-state)
    chips."""
    payload = np.asarray(payload, dtype=int)
    if payload.size != PAYLOAD_BITS:
        raise ValueError("payload must be exactly 80 bits")
    chips = encode_bits(alphabet, np.concatenate([SYNC_BITS, payload]))
    if idle_chips > 0:
        chips = np.concatenate([chips, -np.ones(idle_chips, dtype=int)])
    return chips


def frame_sync(chip_llrs, alphabet: SymbolAlphabet):
    """Locate the frame start in a soft chip stream.

    chip_llrs holds one finite signed soft value per chip, positive
    when the chip looks like the reflecting state. Returns the offset
    with the best normalized correlation against the 21-bit sync
    pattern, or None when the peak is below twice the largest sidelobe.

    The matched template maps sync bit b to +-(s0 - s1)/2, the
    tone-difference waveform, so a mismatched symbol contributes the
    negative of a matched one even for orthogonal (FSK) alphabets,
    where correlating the raw waveform would leave random data at half
    the peak height. For antipodal alphabets this template is s0/s1
    itself.

    Sidelobes are read within one Barker-code length of the peak with
    the mainlobe masked out: there a true peak leaves only the small
    aperiodic Barker residues, while a noise peak sits in clutter of
    its own size. Offsets further out are dominated by payload data,
    whose random symbols legitimately correlate with the sync pattern,
    so they never count as sidelobes.

    Cost: one direct correlation pass over the stream (O(offsets x
    template)) plus O(stream) for the window energies, which come from
    one cumulative sum of the squared chips.
    """
    x = np.asarray(chip_llrs, dtype=float)
    n = alphabet.n_chips
    frame_len = FRAME_BITS * n
    if x.size < frame_len:
        raise ValueError("stream shorter than one frame")
    if not np.all(np.isfinite(x)):
        raise ValueError("soft chips must be finite")
    # the sent waveform less the two states' mean: exact halves of +-1
    tmpl = encode_bits(alphabet, SYNC_BITS) - np.tile(
        (alphabet.s0 + alphabet.s1) / 2.0, SYNC_BITS.size)
    lt = tmpl.size
    n_off = x.size - frame_len + 1
    head = x[:n_off + lt - 1]
    corr = np.correlate(head, tmpl, "valid")
    # window energies as differences of one running sum; a sequential
    # sum of squares never decreases, the clamp keeps sqrt defined if
    # it were accumulated in another order
    e = np.concatenate(([0.0], np.cumsum(head * head)))
    energy = np.maximum(e[lt:] - e[:n_off], 0.0)
    norms = np.sqrt(energy) * np.sqrt(tmpl @ tmpl)
    r = corr / np.maximum(norms, 1e-300)
    peak = int(np.argmax(r))
    if r[peak] <= 0.0:
        return None
    reach = (BARKER7.size - 1) * n
    lo = max(peak - reach, 0)
    near = r[lo:peak + reach + 1]
    side = near[np.abs(np.arange(lo, lo + near.size) - peak) >= n]
    if side.size and np.max(side) > 0.0 and r[peak] < 2.0 * np.max(side):
        return None
    return peak


def _pattern_gains(alphabet: SymbolAlphabet, ch: ChannelSet):
    gains = [abs(g) for g in _state_gains(ch)]
    return np.where(alphabet.s0 > 0, *gains), np.where(alphabet.s1 > 0, *gains)


def _metric_diff(kind, ys, alphabet, ch, m_sc):
    """metric(H_0) - metric(H_1) for each row of ys, shape (n, N)."""
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector kind: {kind}")
    g0, g1 = _pattern_gains(alphabet, ch)
    s2 = ch.noise_power
    if kind == "Correlation":
        return ys @ (g0 - g1)
    if kind == "SquareRoot":
        return np.sqrt(ys) @ (g0 - g1)
    if kind == "Power":
        def ell(g):
            mu, v = _energy_moments(g ** 2, m_sc, s2)
            return -((ys - mu) ** 2) / (2.0 * v) - 0.5 * np.log(v)
    else:
        nu = m_sc - 1
        root = 2.0 * np.sqrt(m_sc * ys) / s2

        def ell(g):
            # J_nu(z) of the module docstring, its limit at z = 0
            z = root * g
            log_i = log_bessel_i(nu, z)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(z > 0.0, log_i - nu * np.log(z / 2.0),
                                -math.lgamma(nu + 1.0))
    return np.sum(ell(g0) - ell(g1), axis=1)


def demodulate_stream(kind: str, stream, alphabet: SymbolAlphabet,
                      ch: ChannelSet, m_sc: int) -> np.ndarray:
    """One bit per n_chips energy samples. The stream must already be
    aligned to a symbol boundary (apply the frame_sync offset first;
    a sync failure has no meaningful stream to pass here)."""
    stream = np.asarray(stream, dtype=float)
    n = alphabet.n_chips
    if stream.size == 0 or stream.size % n:
        raise ValueError("stream length must be a positive multiple of n_chips")
    if not np.all(np.isfinite(stream)):
        raise ValueError("energy samples must be finite")
    if np.any(stream < 0.0):
        raise ValueError("energy samples must be non-negative")
    ys = stream.reshape(-1, n)
    d = _metric_diff(kind, ys, alphabet, ch, m_sc)
    hard = (d < 0.0).astype(int)
    if alphabet.scheme == "DBPSK":
        prev = np.concatenate([[0], hard[:-1]])
        return hard ^ prev
    return hard
