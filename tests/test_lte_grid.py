"""Resource-grid model: the energy statistic law on both generator paths."""
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ambcsim.lte_grid import _energy_moments, energy_stream
from oracles import ks_statistic, noncentral_chi2_cdf


class TestEnergyStream:
    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            energy_stream([1.0], 288, 0.0, rng)
        with pytest.raises(ValueError):
            energy_stream([1.0], 0, 1.0, rng)

    @pytest.mark.parametrize("per_re", [False, True], ids=["chi2", "per-re"])
    @pytest.mark.parametrize("h, noise_power, name", [
        (1.0, np.nan, "noise_power"),
        (1.0, np.inf, "noise_power"),
        (complex(np.inf, 0.0), 1.0, "gains h"),
        ([0.5, complex(0.0, np.nan)], 1.0, "gains h"),
        ([0.5, -np.inf], 1.0, "gains h"),
    ])
    def test_rejects_non_finite_inputs(self, h, noise_power, name, per_re):
        # a NaN or inf would otherwise come back as a NaN or inf energy
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=name):
            energy_stream(h, 12, noise_power, rng, per_re=per_re)

    @pytest.mark.parametrize("per_re", [False, True], ids=["chi2", "per-re"])
    @pytest.mark.parametrize("h, noise_power", [
        ([1e200, 1e160], 1.0),
        ([0.5, 1e160], 1e-3),
    ])
    def test_rejects_overflowing_energy(self, h, noise_power, per_re):
        # finite gains whose m_sc |h|^2 overflows: an error before any
        # draw, not an inf energy with an overflow warning
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="m_sc"):
            energy_stream(h, 12, noise_power, rng, per_re=per_re)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("h, noise_power", [
        ([1.0], 1e-320),
        ([3e153], 1.0),
    ])
    def test_rejects_overflowing_noncentrality(self, h, noise_power):
        # the chi-square law needs 2 m_sc |h|^2 / noise_power; the
        # per-subcarrier path never forms it and stays finite
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="noncentrality"):
            energy_stream(h, 12, noise_power, rng)
        assert rng.bit_generator.state == state
        y = energy_stream(h, 12, noise_power, rng, per_re=True)
        assert np.isfinite(y).all()

    def test_per_re_unit_gain_over_vanishing_noise(self):
        rng = np.random.default_rng(0)
        assert energy_stream([1.0], 12, 1e-320, rng,
                             per_re=True).tolist() == [12.0]

    def test_moments_fast_path(self):
        rng = np.random.default_rng(30)
        h, s2, n = 0.9 + 0.2j, 1.3, 100_000
        ys = energy_stream(np.full(n, h), 288, s2, rng)
        mean_ref = 288 * (s2 + abs(h) ** 2)
        var_ref = 288 * (s2 ** 2 + 2 * s2 * abs(h) ** 2)
        assert abs(ys.mean() / mean_ref - 1.0) < 0.01
        assert abs(ys.var() / var_ref - 1.0) < 0.03

    def test_moments_per_re_path(self):
        rng = np.random.default_rng(31)
        h, s2, n = 0.9 + 0.2j, 1.3, 100_000
        ys = energy_stream(np.full(n, h), 288, s2, rng, per_re=True)
        mean_ref = 288 * (s2 + abs(h) ** 2)
        var_ref = 288 * (s2 ** 2 + 2 * s2 * abs(h) ** 2)
        assert abs(ys.mean() / mean_ref - 1.0) < 0.01
        assert abs(ys.var() / var_ref - 1.0) < 0.03

    def test_energy_moments_are_the_chi2_law_moments(self):
        # the law energy_stream samples: (s2 / 2) times a noncentral
        # chi-square, 2 m_sc dof, noncentrality 2 m_sc |h|^2 / s2
        g2 = np.array([0.0, 1e-6, 0.85, 1.0, 3.7])
        for m_sc, s2 in ((288, 1.3), (1, 2.0), (12, 1e-4)):
            mean, var = _energy_moments(g2, m_sc, s2)
            law = stats.ncx2(2 * m_sc, 2.0 * m_sc * g2 / s2, scale=s2 / 2.0)
            np.testing.assert_allclose(mean, law.mean(), rtol=1e-12)
            np.testing.assert_allclose(var, law.var(), rtol=1e-12)
            assert _energy_moments(g2[2], m_sc, s2) == (mean[2], var[2])

    def test_normalized_law_matches_series_cdf(self):
        # 2y/sigma^2 ~ noncentral chi-square, 2 m_sc dof
        rng = np.random.default_rng(32)
        h, s2, n = 1.3 + 0.4j, 2.0, 100_000
        ys = energy_stream(np.full(n, h), 288, s2, rng)
        nonc = 2.0 * 288 * abs(h) ** 2 / s2
        ks = ks_statistic(2.0 * ys / s2, lambda x: noncentral_chi2_cdf(x, 576, nonc))
        assert ks < 0.01

    def test_central_law_matches_series_cdf(self):
        rng = np.random.default_rng(33)
        s2, n = 1.0, 100_000
        ys = energy_stream(np.zeros(n, dtype=complex), 288, s2, rng)
        ks = ks_statistic(2.0 * ys / s2, lambda x: noncentral_chi2_cdf(x, 576, 0.0))
        assert ks < 0.01

    def test_two_generators_agree(self):
        # fast path vs per-subcarrier synthesis: same distribution
        h, s2, n = 0.8 - 0.5j, 1.1, 40_000
        fast = energy_stream(np.full(n, h), 288, s2, np.random.default_rng(34))
        slow = energy_stream(np.full(n, h), 288, s2, np.random.default_rng(35), per_re=True)
        res = stats.ks_2samp(fast, slow)
        assert res.pvalue > 0.01

    def test_phase_seed_invariance(self):
        # energy law does not depend on which unit-modulus sequence was sent
        h, s2, n = 1.0 + 0.0j, 1.0, 40_000
        a = energy_stream(np.full(n, h), 288, s2, np.random.default_rng(36), per_re=True)
        b = energy_stream(np.full(n, h), 288, s2, np.random.default_rng(37), per_re=True)
        res = stats.ks_2samp(a, b)
        assert res.pvalue > 0.01

    def test_mixed_zero_and_nonzero_gains(self):
        # zero gains draw the central law in index order with the rest;
        # each class averages its own mean within 5 standard errors
        rng = np.random.default_rng(38)
        h0, s2, m, n = 0.7 + 0.6j, 1.3, 12, 20_000
        h = np.where(np.arange(n) % 2, h0, 0.0)
        ys = energy_stream(h, m, s2, rng)
        for sel, g2 in ((ys[0::2], 0.0), (ys[1::2], abs(h0) ** 2)):
            mean_ref = m * (s2 + g2)
            se = np.sqrt(m * (s2 ** 2 + 2 * s2 * g2) / sel.size)
            assert abs(sel.mean() - mean_ref) < 5.0 * se


def _one_shot_per_re(h, m_sc, noise_power, rng):
    """The per-subcarrier synthesis as one formula per 4096-chip chunk:
    eight chunk-sized arrays at once, the bits energy_stream must keep."""
    out = np.empty(h.size)
    scale = np.sqrt(noise_power / 2.0)
    for start in range(0, h.size, 4096):
        hh = h[start:start + 4096, None]
        sym = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (hh.shape[0], m_sc)))
        noise = scale * (rng.standard_normal((hh.shape[0], m_sc))
                         + 1j * rng.standard_normal((hh.shape[0], m_sc)))
        rx = hh * sym + noise
        out[start:start + 4096] = np.sum(rx.real ** 2 + rx.imag ** 2, axis=1)
    return out


def _pcg64_after_shard_bits(seed):
    # _simulate_shard draws integers, which can leave PCG64 holding a
    # buffered 32-bit value, before its first energy_stream call
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.integers(0, 2, 7)
    return rng


_GENERATORS = {
    "pcg64-after-integers": _pcg64_after_shard_bits,
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
    "sfc64": lambda seed: np.random.Generator(np.random.SFC64(seed)),
}


class TestPerReSynthesis:
    @pytest.mark.parametrize("m_sc", [1, 12, 288])
    def test_bits_and_draws_match_one_shot_formula(self, m_sc):
        # block and chunk edges on both sides; every third gain is zero.
        # The generator must end where the one-shot draws leave it: same
        # pickled state (MT19937's holds an array, so no dict ==) and
        # the same next draws
        for (name, make_rng), n in itertools.product(
                _GENERATORS.items(), (1, 63, 64, 65, 4095, 4096, 4097, 8193)):
            h = np.where(np.arange(n) % 3 == 1, 0.0,
                         0.9 - 0.4j + 0.01 * np.arange(n))
            rng_a, rng_b = make_rng(n), make_rng(n)
            got = energy_stream(h, m_sc, 1.7, rng_a, per_re=True)
            want = _one_shot_per_re(h, m_sc, 1.7, rng_b)
            assert got.tobytes() == want.tobytes(), (name, n)
            assert pickle.dumps(rng_a.bit_generator.state) == \
                pickle.dumps(rng_b.bit_generator.state), (name, n)
            assert rng_a.integers(0, 2 ** 62, 5).tolist() == \
                rng_b.integers(0, 2 ** 62, 5).tolist(), (name, n)

    def test_chunk_keeps_one_array(self):
        # one full chunk at the default m_sc: at most 1.5 (chips x m_sc)
        # float arrays alive at the peak
        n, m_sc = 4096, 288
        h = np.full(n, 0.9 - 0.4j)
        rng = np.random.default_rng(39)
        tracemalloc.start()
        try:
            energy_stream(h, m_sc, 1.7, rng, per_re=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * m_sc * 8, peak / (n * m_sc * 8)
