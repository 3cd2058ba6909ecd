"""Property tests for the modem: frame_sync shift equivariance, DBPSK
differential decoding and the tie rule of the detectors; and for the
exact BER: either order of the two state gains gives the same value."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambcsim.ber_theory import (DetectionParams, exact_ber, gaussian_ber,
                                params_for_scheme)
from ambcsim.channel import ChannelSet, composite_gain
from ambcsim.modem import (DETECTOR_KINDS, PAYLOAD_BITS, SCHEMES,
                           _metric_diff, demodulate_stream, encode_bits,
                           encode_frame, frame_sync, make_alphabet)

# n_chips valid for every scheme (FSK needs a multiple of 4)
N_CHIPS = st.sampled_from([4, 8, 20])
BITS = st.lists(st.integers(0, 1), min_size=1, max_size=60)
PAYLOADS = st.lists(st.integers(0, 1), min_size=PAYLOAD_BITS,
                    max_size=PAYLOAD_BITS)


@st.composite
def channels(draw):
    """A channel whose on and off gain magnitudes are distinct integers
    from 0 to 20, either one the larger, so either state may have a
    zero gain. Integer gains keep the detector products exact, so equal
    metrics tie bit for bit."""
    a_on, a_off = draw(st.lists(st.integers(0, 20), min_size=2, max_size=2,
                                unique=True))
    noise = draw(st.floats(1e-3, 10.0))
    return ChannelSet(h_d=a_off, h_s=a_on - a_off, h_b=1.0,
                      noise_power=noise)


@given(scheme=st.sampled_from(SCHEMES), n=N_CHIPS, payload=PAYLOADS,
       lead=st.integers(0, 150), k=st.integers(1, 150),
       tail=st.integers(0, 150))
def test_frame_sync_shift_equivariance(scheme, n, payload, lead, k, tail):
    a = make_alphabet(scheme, n)
    frame = encode_frame(payload, a, idle_chips=tail).astype(float)
    base = np.concatenate([-np.ones(lead), frame])
    shifted = np.concatenate([-np.ones(k), base])
    assert frame_sync(base, a) == lead
    assert frame_sync(shifted, a) == lead + k


@given(bits=BITS, n=N_CHIPS, ch=channels(), m_sc=st.integers(1, 300),
       kind=st.sampled_from(DETECTOR_KINDS))
def test_dbpsk_noise_free_stream_decodes(bits, n, ch, m_sc, kind):
    a = make_alphabet("DBPSK", n)
    chips = encode_bits(a, bits)
    g2 = np.where(chips > 0, abs(composite_gain(ch, +1)),
                  abs(composite_gain(ch, -1))) ** 2
    ys = m_sc * (ch.noise_power + g2)
    assert np.array_equal(demodulate_stream(kind, ys, a, ch, m_sc), bits)


@given(scheme=st.sampled_from(SCHEMES), n=N_CHIPS, ch=channels(),
       m_sc=st.integers(1, 300), kind=st.sampled_from(DETECTOR_KINDS),
       root=st.integers(1, 1000))
def test_exact_tie_goes_to_zero(scheme, n, ch, m_sc, kind, root):
    # a constant energy vector scores both symbols alike, since each has
    # equal on and off chip counts; a square level keeps sqrt(y) exact
    a = make_alphabet(scheme, n)
    y = np.full(n, float(root * root))
    d = _metric_diff(kind, y[None, :], a, ch, m_sc)
    assert d[0] == 0.0
    assert demodulate_stream(kind, y, a, ch, m_sc)[0] == 0


# squared gains and noise powers that keep the exact series cheap:
# noncentralities of at most m_sc N 8, Poisson windows of a few hundred
GAINS = st.floats(0.0, 4.0)


@given(m_sc=st.integers(1, 12), n=st.sampled_from([4, 8]), on=GAINS,
       off=GAINS, s2=st.floats(0.5, 4.0))
def test_exact_ber_takes_either_state_order(m_sc, n, on, off, s2):
    # exact_ber does the destructive role swap itself; gamma_b and the
    # Gaussian BER sum s2 + on + off, which can round apart from
    # s2 + off + on, so they agree to rounding only
    p = DetectionParams(m_sc=m_sc, n_chips=n, h_on_sq=on, h_off_sq=off,
                        noise_power=s2)
    q = replace(p, h_on_sq=off, h_off_sq=on)
    assert exact_ber(p) == exact_ber(q)
    assert exact_ber(p) <= 0.5
    assert exact_ber(params_for_scheme(p, "FSK")) \
        == exact_ber(params_for_scheme(q, "FSK"))
    assert q.gamma_b == pytest.approx(p.gamma_b, rel=1e-12, abs=0)
    assert gaussian_ber(q) == pytest.approx(gaussian_ber(p), rel=1e-12, abs=0)
