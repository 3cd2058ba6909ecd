"""Symbol alphabets, detectors, differential coding, and frame sync."""
import numpy as np
import pytest

from ambcsim.channel import ChannelSet, composite_gain
from ambcsim.lte_grid import energy_stream
from ambcsim.modem import (
    BARKER7,
    DETECTOR_KINDS,
    FRAME_BITS,
    PAYLOAD_BITS,
    SCHEMES,
    SYNC_BITS,
    _metric_diff,
    demodulate_stream,
    encode_bits,
    encode_frame,
    frame_sync,
    make_alphabet,
)


def _channel(h_on_sq, h_off_sq, noise_power):
    """Channel whose on/off composite gains hit the requested powers."""
    h_d = np.sqrt(h_off_sq)
    return ChannelSet(
        h_d=h_d,
        h_s=np.sqrt(h_on_sq) - h_d,
        h_b=1.0,
        noise_power=noise_power,
    )


def _mean_energies(bits, alphabet, ch, m_sc):
    """Noise-mean energy stream for a bit sequence (no randomness)."""
    chips = encode_bits(alphabet, bits)
    a_on = abs(composite_gain(ch, +1)) ** 2
    a_off = abs(composite_gain(ch, -1)) ** 2
    g2 = np.where(chips > 0, a_on, a_off)
    return m_sc * (ch.noise_power + g2)


def _mp_log_likelihood(y, g, noise_power, m_sc):
    """ln of the density of one energy sample y at gain magnitude g, to
    30 digits: 2y/sigma^2 is chi-square with 2M degrees of freedom and
    noncentrality 2M g^2/sigma^2, plus the Jacobian 2/sigma^2 that both
    hypotheses share."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        x = 2 * mp.mpf(y) / noise_power
        lam = 2 * m_sc * mp.mpf(g) ** 2 / noise_power
        nu = m_sc - 1
        if lam == 0:
            return (nu * mp.log(x) - x / 2 - (nu + 1) * mp.log(2)
                    - mp.loggamma(nu + 1))
        return (-mp.log(2) - (x + lam) / 2 + mp.mpf(nu) / 2 * mp.log(x / lam)
                + mp.log(mp.besseli(nu, mp.sqrt(lam * x))))


class TestAlphabets:
    def test_bpsk_patterns(self):
        a = make_alphabet("BPSK", 4)
        assert a.s0.tolist() == [-1, 1, -1, 1]
        assert a.s1.tolist() == [1, -1, 1, -1]

    def test_fsk_patterns(self):
        a = make_alphabet("FSK", 4)
        assert a.s0.tolist() == [-1, -1, 1, 1]
        assert a.s1.tolist() == [-1, 1, -1, 1]

    def test_balanced_chip_counts(self):
        for scheme in ("BPSK", "FSK", "DBPSK"):
            for n in (4, 8, 20):
                a = make_alphabet(scheme, n)
                assert a.s0.sum() == 0
                assert a.s1.sum() == 0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_alphabet("BPSK", 3)
        with pytest.raises(ValueError):
            make_alphabet("BPSK", 0)
        with pytest.raises(ValueError):
            make_alphabet("FSK", 6)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_alphabet("QAM", 4)


class TestEncoding:
    def test_bpsk_mapping(self):
        a = make_alphabet("BPSK", 4)
        chips = encode_bits(a, [0, 1])
        assert chips.tolist() == a.s0.tolist() + a.s1.tolist()

    def test_differential_toggles_on_ones(self):
        a = make_alphabet("DBPSK", 4)
        chips = encode_bits(a, [1, 0, 1]).reshape(3, 4)
        # state runs s1, s1, s0
        assert chips[0].tolist() == a.s1.tolist()
        assert chips[1].tolist() == a.s1.tolist()
        assert chips[2].tolist() == a.s0.tolist()

    def test_empty_bits_rejected(self):
        with pytest.raises(ValueError):
            encode_bits(make_alphabet("BPSK", 4), [])

    def test_frame_layout(self):
        a = make_alphabet("FSK", 4)
        payload = np.zeros(PAYLOAD_BITS, dtype=int)
        chips = encode_frame(payload, a, idle_chips=8)
        assert chips.size == FRAME_BITS * 4 + 8
        assert np.all(chips[-8:] == -1)
        head = encode_bits(a, SYNC_BITS)
        assert np.array_equal(chips[: head.size], head)

    def test_frame_payload_size_enforced(self):
        a = make_alphabet("FSK", 4)
        with pytest.raises(ValueError):
            encode_frame(np.zeros(79, dtype=int), a)

    def test_sync_word_is_repeated_barker(self):
        assert SYNC_BITS.size == 21
        assert np.array_equal(SYNC_BITS[:7], (BARKER7 < 0).astype(int))
        assert np.array_equal(SYNC_BITS[:7], SYNC_BITS[7:14])


class TestDetectors:
    def setup_method(self):
        self.alphabet = make_alphabet("BPSK", 4)
        self.ch = _channel(4.0, 1.0, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            demodulate_stream("Correlation", [1.0, 2.0], self.alphabet,
                              self.ch, 288)
        with pytest.raises(ValueError):
            demodulate_stream("Correlation", [1.0, -2.0, 1.0, 2.0],
                              self.alphabet, self.ch, 288)
        with pytest.raises(ValueError):
            demodulate_stream("Banana", [1.0, 2.0, 1.0, 2.0], self.alphabet,
                              self.ch, 288)

    def test_noise_free_recovery_all_detectors_all_schemes(self):
        # the last two channels have an on-state or off-state gain of
        # exactly zero, where ln I_{M-1}(0) is -inf under both hypotheses
        for ch in (self.ch, _channel(4.0, 1.0, 1.0), _channel(0.0, 1.0, 0.5),
                   _channel(1.0, 0.0, 0.5)):
            rng = np.random.default_rng(3)
            for scheme in ("BPSK", "FSK", "DBPSK"):
                a = make_alphabet(scheme, 4)
                bits = rng.integers(0, 2, 40)
                ys = _mean_energies(bits, a, ch, 288)
                # each symbol's last chip, where it is a low-energy one,
                # zeroed (BPSK bit 1 on the second channel reads
                # [1440, 576, 1440, 0]): a zero sample, where
                # ln I_{M-1}(0) = -inf, only strengthens the true hypothesis
                low = (ys == ys.min()) & (np.arange(ys.size) % 4 == 3)
                for y in (ys, np.where(low, 0.0, ys)):
                    for kind in DETECTOR_KINDS:
                        got = demodulate_stream(kind, y, a, ch, 288)
                        assert np.array_equal(got, bits), (ch, scheme, kind)

    def test_tie_resolves_to_zero(self):
        # constant energies null every pattern correlation
        y = np.full(4, 7.0)
        for kind in DETECTOR_KINDS:
            got = demodulate_stream(kind, y, self.alphabet, self.ch, 288)
            assert got[0] == 0
        # with both state gains zero no sample, zero or not, tells the
        # symbols apart
        ch = ChannelSet(h_d=0.0, h_s=0.0, h_b=1.0, noise_power=1.0)
        for scheme in SCHEMES:
            a = make_alphabet(scheme, 4)
            for y in (np.full(4, 7.0), np.array([0.0, 3.0, 7.0, 12.0])):
                for kind in DETECTOR_KINDS:
                    d = _metric_diff(kind, y[None, :], a, ch, 288)
                    assert d[0] == 0.0, (scheme, kind)
                    got = demodulate_stream(kind, y, a, ch, 288)
                    assert got[0] == 0, (scheme, kind)

    @pytest.mark.parametrize("m_sc", [1, 2, 12, 288])
    def test_bessel_map_is_the_log_likelihood_ratio(self, m_sc):
        # against the noncentral chi-square log density summed per chip,
        # at random energies drawn from the law of a random symbol; the
        # second channel's off-state gain is zero
        rng = np.random.default_rng(13)
        for ch in (self.ch, _channel(1.0, 0.0, 0.5)):
            a_on = abs(composite_gain(ch, +1))
            a_off = abs(composite_gain(ch, -1))
            for scheme in ("BPSK", "FSK"):
                for n in (4, 8):
                    a = make_alphabet(scheme, n)
                    g0 = np.where(a.s0 > 0, a_on, a_off)
                    g1 = np.where(a.s1 > 0, a_on, a_off)
                    for _ in range(3):
                        g = g1 if rng.integers(2) else g0
                        y = (ch.noise_power / 2.0) * rng.noncentral_chisquare(
                            2 * m_sc, 2.0 * m_sc * g ** 2 / ch.noise_power)
                        ref = sum(
                            _mp_log_likelihood(yi, h0, ch.noise_power, m_sc)
                            - _mp_log_likelihood(yi, h1, ch.noise_power, m_sc)
                            for yi, h0, h1 in zip(y, g0, g1))
                        got = _metric_diff("BesselMap", y[None, :], a, ch,
                                           m_sc)[0]
                        assert y.min() > 0.0
                        assert abs(got - float(ref)) < 1e-9 * abs(float(ref)), (
                            scheme, n, got, ref)

    def test_correlation_reduces_to_pattern_sum(self):
        # with the antipodal alphabet the rule is the sign of sum s0[i] y[i]
        rng = np.random.default_rng(4)
        for _ in range(300):
            y = rng.uniform(0.0, 50.0, 4)
            got = demodulate_stream("Correlation", y, self.alphabet,
                                    self.ch, 288)[0]
            assert got == int(self.alphabet.s0 @ y < 0.0)

    def test_power_matches_moment_formulas(self):
        # independent reimplementation from the stated mean/variance forms
        rng = np.random.default_rng(5)
        a_on = abs(composite_gain(self.ch, +1)) ** 2
        a_off = abs(composite_gain(self.ch, -1)) ** 2
        s2, m = self.ch.noise_power, 288
        for scheme in ("BPSK", "FSK"):
            alph = make_alphabet(scheme, 4)
            g0 = np.where(alph.s0 > 0, a_on, a_off)
            g1 = np.where(alph.s1 > 0, a_on, a_off)
            mu0, mu1 = m * (s2 + g0), m * (s2 + g1)
            v0 = m * (s2 ** 2 + 2 * s2 * g0)
            v1 = m * (s2 ** 2 + 2 * s2 * g1)
            for _ in range(100):
                y = rng.uniform(0.0, 4.0 * m, 4)
                ref = np.sum(
                    -((y - mu0) ** 2) / (2 * v0) - 0.5 * np.log(v0)
                    + ((y - mu1) ** 2) / (2 * v1) + 0.5 * np.log(v1)
                )
                got = demodulate_stream("Power", y, alph, self.ch, m)[0]
                assert got == int(ref < 0.0), scheme

    def test_exact_rule_agrees_with_sqrt_approximation(self):
        # sampled at the real operating law, agreement above 99 percent
        rng = np.random.default_rng(6)
        ch = _channel(1.10, 1.00, 1.0)
        a = make_alphabet("BPSK", 4)
        n = 2000
        bits = rng.integers(0, 2, n)
        chips = encode_bits(a, bits)
        a_on = abs(composite_gain(ch, +1))
        a_off = abs(composite_gain(ch, -1))
        h = np.where(chips > 0, a_on, a_off)
        ys = energy_stream(h.astype(complex), 288, ch.noise_power, rng)
        d_bessel = demodulate_stream("BesselMap", ys, a, ch, 288)
        d_sqrt = demodulate_stream("SquareRoot", ys, a, ch, 288)
        agreement = np.mean(d_bessel == d_sqrt)
        assert agreement >= 0.99

    def test_vanishing_gap_gives_half_error_rate(self):
        rng = np.random.default_rng(7)
        ch = _channel(1.0 + 1e-9, 1.0, 1.0)
        a = make_alphabet("BPSK", 4)
        n = 4000
        bits = rng.integers(0, 2, n)
        chips = encode_bits(a, bits)
        h = np.where(chips > 0, abs(composite_gain(ch, +1)),
                     abs(composite_gain(ch, -1)))
        ys = energy_stream(h.astype(complex), 288, ch.noise_power, rng)
        got = demodulate_stream("Correlation", ys, a, ch, 288)
        ber = np.mean(got != bits)
        assert abs(ber - 0.5) < 0.02

    def test_decisions_invariant_under_common_rescale(self):
        # y, noise power, and gains rescaled together leave decisions alone
        rng = np.random.default_rng(8)
        y = rng.uniform(0.0, 1000.0, 4)
        c = 7.3
        ch2 = ChannelSet(h_d=self.ch.h_d * np.sqrt(c),
                         h_s=self.ch.h_s * np.sqrt(c),
                         h_b=self.ch.h_b,
                         noise_power=self.ch.noise_power * c)
        for kind in DETECTOR_KINDS:
            base = demodulate_stream(kind, y, self.alphabet, self.ch,
                                     288)[0]
            scaled = demodulate_stream(kind, c * y, self.alphabet, ch2,
                                       288)[0]
            assert base == scaled, kind

    def test_stream_length_validation(self):
        with pytest.raises(ValueError):
            demodulate_stream("Correlation", [1.0, 2.0, 3.0], self.alphabet,
                              self.ch, 288)
        with pytest.raises(ValueError):
            demodulate_stream("Correlation", [], self.alphabet, self.ch, 288)

    def test_non_finite_sample_rejected(self):
        for kind in DETECTOR_KINDS:
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError):
                    demodulate_stream(kind, [1.0, bad, 1.0, 2.0],
                                      self.alphabet, self.ch, 288)

    def test_differential_decode_survives_waveform_inversion(self):
        # a global sign flip of the chip stream corrupts at most bit 0
        a = make_alphabet("DBPSK", 4)
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 30)
        ys = _mean_energies(bits, a, self.ch, 288)
        chips = encode_bits(a, bits)
        a_on = abs(composite_gain(self.ch, +1)) ** 2
        a_off = abs(composite_gain(self.ch, -1)) ** 2
        g2_flip = np.where(-chips > 0, a_on, a_off)
        ys_flip = 288 * (self.ch.noise_power + g2_flip)
        d = demodulate_stream("Correlation", ys, a, self.ch, 288)
        d_flip = demodulate_stream("Correlation", ys_flip, a, self.ch, 288)
        assert np.array_equal(d, bits)
        assert np.array_equal(d_flip[1:], bits[1:])


class TestFrameSync:
    def _llr_stream(self, lead, alphabet, ch, m_sc, rng, payload=None, tail=42):
        if payload is None:
            payload = rng.integers(0, 2, PAYLOAD_BITS)
        chips = np.concatenate([
            -np.ones(lead, dtype=int),
            encode_frame(payload, alphabet, idle_chips=tail),
        ])
        a_on = abs(composite_gain(ch, +1))
        a_off = abs(composite_gain(ch, -1))
        h = np.where(chips > 0, a_on, a_off)
        ys = energy_stream(h.astype(complex), m_sc, ch.noise_power, rng)
        on2, off2 = a_on ** 2, a_off ** 2
        mid = m_sc * (ch.noise_power + 0.5 * (on2 + off2))
        sgn = 1.0 if on2 >= off2 else -1.0
        return sgn * (ys - mid)

    def test_clean_offset_bpsk(self):
        a = make_alphabet("BPSK", 4)
        payload = np.zeros(PAYLOAD_BITS, dtype=int)
        chips = np.concatenate([
            -np.ones(17, dtype=int),
            encode_frame(payload, a, idle_chips=30),
        ])
        assert frame_sync(chips.astype(float), a) == 17

    def test_clean_offsets_all_schemes(self):
        rng = np.random.default_rng(10)
        for scheme in ("BPSK", "FSK", "DBPSK"):
            a = make_alphabet(scheme, 4)
            for _ in range(20):
                lead = int(rng.integers(0, 200))
                payload = rng.integers(0, 2, PAYLOAD_BITS)
                chips = np.concatenate([
                    -np.ones(lead, dtype=int),
                    encode_frame(payload, a, idle_chips=50),
                ])
                assert frame_sync(chips.astype(float), a) == lead, scheme

    def test_noisy_lock_rate(self):
        # measurement-grade symbols, effective SNR per bit of 10 dB:
        # at least 99 percent of 1000 random-offset frames lock exactly
        n_chips, m_sc = 20, 288
        a = make_alphabet("FSK", n_chips)
        on2, off2 = 1.04, 1.00
        s, d = on2 + off2, on2 - off2
        gb = 10.0 ** (10.0 / 10.0)
        s2 = 0.5 * (-s + np.sqrt(s * s + n_chips * m_sc * d * d / (2.0 * gb)))
        ch = _channel(on2, off2, s2)
        rng = np.random.default_rng(42)
        hits = 0
        trials = 1000
        for _ in range(trials):
            lead = int(rng.integers(0, 101 * n_chips))
            llr = self._llr_stream(lead, a, ch, m_sc, rng, tail=21 * n_chips)
            if frame_sync(llr, a) == lead:
                hits += 1
        assert hits >= 990, hits

    def test_pure_noise_rejected(self):
        a = make_alphabet("FSK", 20)
        rng = np.random.default_rng(11)
        for _ in range(60):
            llr = rng.standard_normal(FRAME_BITS * 20 + 400)
            assert frame_sync(llr, a) is None

    def test_all_zero_rejected(self):
        a = make_alphabet("FSK", 4)
        assert frame_sync(np.zeros(FRAME_BITS * 4 + 100), a) is None

    def test_short_stream_rejected(self):
        a = make_alphabet("FSK", 4)
        with pytest.raises(ValueError):
            frame_sync(np.zeros(FRAME_BITS * 4 - 1), a)

    @pytest.mark.parametrize("chip, bad", [(10, np.nan), (100, np.nan),
                                           (450, np.inf)])
    def test_non_finite_chip_rejected(self, chip, bad):
        # unchecked, a NaN wins the argmax and locks at a wrong offset:
        # 0 for chip 10 and 17 for chip 100
        a = make_alphabet("BPSK", 4)
        chips = np.concatenate([
            -np.ones(40, dtype=int),
            encode_frame(np.zeros(PAYLOAD_BITS, dtype=int), a,
                         idle_chips=100),
        ]).astype(float)
        assert frame_sync(chips, a) == 40
        chips[chip] = bad
        with pytest.raises(ValueError, match="finite"):
            frame_sync(chips, a)


def _frame_sync_reference(chip_llrs, alphabet):
    """The windowed-matrix frame_sync this module's equivalence tests
    compare against: every window materialized, norms per window, and
    the sidelobe ring masked over all offsets."""
    x = np.asarray(chip_llrs, dtype=float)
    n = alphabet.n_chips
    frame_len = FRAME_BITS * n
    if x.size < frame_len:
        raise ValueError("stream shorter than one frame")
    if alphabet.scheme == "DBPSK":
        states = np.cumsum(SYNC_BITS) % 2
    else:
        states = SYNC_BITS
    table = np.stack([alphabet.s0, alphabet.s1]).astype(float)
    tmpl = ((table[states] - table[1 - states]) / 2.0).reshape(-1)
    lt = tmpl.size
    n_off = x.size - frame_len + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, lt)[:n_off]
    corr = windows @ tmpl
    norms = np.sqrt(np.sum(windows ** 2, axis=1)) * np.sqrt(np.sum(tmpl ** 2))
    r = corr / np.maximum(norms, 1e-300)
    peak = int(np.argmax(r))
    if r[peak] <= 0.0:
        return None
    dist = np.abs(np.arange(n_off) - peak)
    ring = (dist >= n) & (dist <= (BARKER7.size - 1) * n)
    side = r[ring]
    if side.size and np.max(side) > 0.0 and r[peak] < 2.0 * np.max(side):
        return None
    return peak


class TestFrameSyncMatchesReference:
    """frame_sync against the windowed-matrix reference: the same
    offset, or None, stream for stream."""

    ALPHABETS = [(s, n) for s in ("BPSK", "FSK", "DBPSK") for n in (4, 20)]

    @staticmethod
    def _frame(rng, a, lead, tail):
        payload = rng.integers(0, 2, PAYLOAD_BITS)
        return np.concatenate([
            -np.ones(lead, dtype=int),
            encode_frame(payload, a, idle_chips=tail),
        ]).astype(float)

    def _check(self, x, a):
        got = frame_sync(x, a)
        assert got == _frame_sync_reference(x, a), (a.scheme, a.n_chips)
        return got

    def test_noisy_frames(self):
        rng = np.random.default_rng(20)
        locked = 0
        for scheme, n in self.ALPHABETS:
            a = make_alphabet(scheme, n)
            for sigma in (0.3, 1.0, 2.0, 3.0):
                for _ in range(8):
                    lead = int(rng.integers(0, FRAME_BITS * n))
                    x = self._frame(rng, a, lead, SYNC_BITS.size * n)
                    x += sigma * rng.standard_normal(x.size)
                    locked += self._check(x, a) is not None
        assert locked > 0

    def test_scaled_streams(self):
        # a first half 1e3 louder than the second; a whole stream near
        # the bottom of the double range, where the norms are ~1e-148
        rng = np.random.default_rng(21)
        for scheme, n in self.ALPHABETS:
            a = make_alphabet(scheme, n)
            for _ in range(8):
                lead = int(rng.integers(0, FRAME_BITS * n))
                x = self._frame(rng, a, lead, SYNC_BITS.size * n)
                x += 0.5 * rng.standard_normal(x.size)
                self._check(x * 1e-150, a)
                x[:x.size // 2] *= 1e3
                self._check(x, a)

    def test_pure_noise_one_frame_long(self):
        # n_off = 1: a single window, and an empty sidelobe ring
        rng = np.random.default_rng(22)
        for scheme, n in self.ALPHABETS:
            a = make_alphabet(scheme, n)
            for _ in range(10):
                self._check(rng.standard_normal(FRAME_BITS * n), a)

    def test_peak_near_either_end(self):
        # the ring around the peak is clipped by the first or last offset
        rng = np.random.default_rng(23)
        for scheme, n in self.ALPHABETS:
            a = make_alphabet(scheme, n)
            for lead, tail in ((0, 40 * n), (2, 40 * n), (3 * n, 40 * n),
                               (40 * n, 0), (40 * n, 2 * n), (0, 0)):
                x = self._frame(rng, a, lead, tail)
                assert self._check(x, a) == lead
                x += 0.4 * rng.standard_normal(x.size)
                self._check(x, a)

    def test_echo_on_the_ring_edges(self):
        # an echo d chips after (or a pre-echo before) the frame puts a
        # second correlation peak d offsets from the first; d = n and
        # d = 6n sit on the inner and outer edges of the sidelobe ring.
        # The gains keep the peak at least 1% away from twice the
        # sidelobe: at an exact tie of the lock test (a 0.6 pre-echo
        # 6n early on BPSK n=20 is one) two summation orders may round
        # to opposite sides of it.
        rng = np.random.default_rng(24)
        rejected = 0
        for scheme, n in self.ALPHABETS:
            a = make_alphabet(scheme, n)
            for d in (n, 6 * n, -n, -6 * n):
                for gain in (0.45, 0.65, 0.85):
                    lead = int(rng.integers(8 * n, FRAME_BITS * n))
                    x = self._frame(rng, a, lead, SYNC_BITS.size * n)
                    if d > 0:
                        x[d:] += gain * x[:-d]
                    else:
                        x[:d] += gain * x[-d:]
                    rejected += self._check(x, a) is None
        assert rejected > 0

    def test_all_zero_stream(self):
        for scheme, n in self.ALPHABETS:
            a = make_alphabet(scheme, n)
            assert self._check(np.zeros(FRAME_BITS * n + 50), a) is None
