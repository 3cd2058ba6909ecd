"""Geometry-driven channel synthesis and the scatter-to-direct ratio."""
from dataclasses import replace

import numpy as np
import pytest

from ambcsim.channel import (
    SPEED_OF_LIGHT,
    ChannelSet,
    LinkGeometry,
    _noise_for_gamma_b,
    _state_gains,
    _state_powers,
    _two_gamma_b,
    composite_gain,
    from_db,
    fspl_gain,
    scatter_ratio,
    snr_per_bit,
    to_db,
)
from ambcsim.cli import parse_grid
from ambcsim.montecarlo import measurement_config
from oracles import FSPL_POWER_50M_782, WAVELENGTH_782


class TestLinkGeometry:
    def test_distances(self):
        g = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(3.0, 4.0))
        assert g.d_d == pytest.approx(50.0)
        assert g.d_s == pytest.approx(5.0)
        assert g.d_b == pytest.approx(np.hypot(47.0, 4.0))

    def test_coincident_terminals_rejected(self):
        with pytest.raises(ValueError):
            LinkGeometry(bs_pos=(0.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(1.0, 0.0))
        with pytest.raises(ValueError):
            LinkGeometry(bs_pos=(5.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(0.0, 0.0))
        with pytest.raises(ValueError):
            LinkGeometry(bs_pos=(5.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(5.0, 0.0))


class TestFsplGain:
    def test_unit_gain_distance(self):
        lam = 0.4
        h = fspl_gain(lam / (4.0 * np.pi), lam)
        assert abs(abs(h) - 1.0) < 1e-14

    def test_inverse_distance_law(self):
        a = abs(fspl_gain(10.0, 0.3))
        b = abs(fspl_gain(20.0, 0.3))
        assert a / b == pytest.approx(2.0, rel=1e-14)

    def test_reference_power(self):
        h = fspl_gain(50.0, WAVELENGTH_782)
        assert abs(h) ** 2 == pytest.approx(FSPL_POWER_50M_782, rel=1e-12)
        assert to_db(abs(h) ** 2) == pytest.approx(-64.29131837, abs=1e-6)

    def test_phase(self):
        d, lam = 12.34, 0.38
        h = fspl_gain(d, lam)
        expect = (2.0 * np.pi * d / lam) % (2.0 * np.pi)
        assert np.angle(h) % (2.0 * np.pi) == pytest.approx(expect, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fspl_gain(0.0, 0.3)
        with pytest.raises(ValueError):
            fspl_gain(-1.0, 0.3)
        with pytest.raises(ValueError):
            fspl_gain(1.0, 0.0)


class TestChannelSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelSet(h_d=1.0, h_s=0.1, h_b=1.0, noise_power=0.0)
        with pytest.raises(ValueError):
            ChannelSet(h_d=1.0, h_s=0.1, h_b=1.0, noise_power=1.0,
                       bd_modulation_depth=0.0)
        with pytest.raises(ValueError):
            ChannelSet(h_d=1.0, h_s=0.1, h_b=1.0, noise_power=1.0,
                       bd_modulation_depth=0.5, bd_off_depth=0.5)

    @pytest.mark.parametrize("kw", [
        dict(h_d=np.nan), dict(h_s=complex(0.1, np.inf)), dict(h_b=np.inf),
        dict(noise_power=np.nan), dict(noise_power=np.inf),
        # finite path gains whose on-state gain, or off-state gain's
        # squared magnitude, is beyond a double
        dict(h_d=1.0, h_s=1e200, h_b=1e200),
        dict(h_d=1e200, h_s=0.0, h_b=0.0)])
    def test_non_finite_values_rejected(self, kw):
        base = dict(h_d=1.0, h_s=0.1, h_b=1.0, noise_power=1.0)
        with pytest.raises(ValueError, match="finite"):
            ChannelSet(**{**base, **kw})

    def test_off_state_is_direct_path_by_default(self):
        ch = ChannelSet(h_d=0.7 - 0.1j, h_s=0.01, h_b=0.5j, noise_power=1.0)
        assert composite_gain(ch, -1) == ch.h_d

    def test_on_state_adds_scattered_path(self):
        ch = ChannelSet(h_d=0.7, h_s=0.01, h_b=0.5j, noise_power=1.0)
        assert composite_gain(ch, +1) == ch.h_d + ch.h_s * ch.h_b

    def test_modulation_depth_scales_reflection(self):
        ch = ChannelSet(h_d=0.7, h_s=0.01, h_b=0.5j, noise_power=1.0,
                        bd_modulation_depth=0.25)
        assert composite_gain(ch, +1) == ch.h_d + 0.25 * ch.h_s * ch.h_b

    def test_off_depth_leakage(self):
        ch = ChannelSet(h_d=0.7, h_s=0.01, h_b=0.5j, noise_power=1.0,
                        bd_modulation_depth=0.9, bd_off_depth=0.1)
        assert composite_gain(ch, -1) == ch.h_d + 0.1 * ch.h_s * ch.h_b

    def test_invalid_state_rejected(self):
        ch = ChannelSet(h_d=0.7, h_s=0.01, h_b=0.5j, noise_power=1.0)
        with pytest.raises(ValueError):
            composite_gain(ch, 0)


class TestScatterRatio:
    def test_expansion_identity(self):
        # |1+iota|^2 = 1 + (lam/2pi)(d_d/(d_s d_b)) cos(2pi(d_d-d_b-d_s)/lam)
        #            + (lam/4pi)^2 (d_d/(d_s d_b))^2
        rng = np.random.default_rng(8)
        for _ in range(100):
            ue = (0.0, 0.0)
            bs = tuple(rng.uniform(-60.0, 60.0, 2))
            bd = tuple(rng.uniform(-5.0, 5.0, 2))
            lam = rng.uniform(0.05, 0.5)
            try:
                g = LinkGeometry(bs_pos=bs, ue_pos=ue, bd_pos=bd)
            except ValueError:
                continue
            iota = scatter_ratio(g, lam)
            mag = (lam / (4.0 * np.pi)) * g.d_d / (g.d_s * g.d_b)
            ph = 2.0 * np.pi * (g.d_d - g.d_b - g.d_s) / lam
            expect = 1.0 + 2.0 * mag * np.cos(ph) + mag ** 2
            assert abs(abs(1.0 + iota) ** 2 - expect) < 1e-12 * max(1.0, expect)

    def test_scaling_invariance(self):
        # scaling geometry and wavelength together leaves iota unchanged
        g1 = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(0.6, 0.8))
        g2 = LinkGeometry(bs_pos=(150.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(1.8, 2.4))
        i1 = scatter_ratio(g1, 0.3835)
        i2 = scatter_ratio(g2, 3 * 0.3835)
        assert abs(i1 - i2) < 1e-12 * abs(i1)

    def test_mirror_symmetry(self):
        # reflecting the BD about the UE-BS axis preserves iota
        g_up = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(1.0, 0.7))
        g_dn = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(1.0, -0.7))
        assert scatter_ratio(g_up, 0.38) == scatter_ratio(g_dn, 0.38)

    def test_consistent_with_leg_gains(self):
        # same magnitude as the composed legs, and identical |1+iota|^2
        # (the only functional |1+iota|^2 dependence downstream)
        g = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(1.2, -0.4))
        lam = 0.3835
        ref = fspl_gain(g.d_s, lam) * fspl_gain(g.d_b, lam) / fspl_gain(g.d_d, lam)
        got = scatter_ratio(g, lam)
        assert abs(abs(got) - abs(ref)) < 1e-12 * abs(ref)
        assert abs(abs(1 + got) ** 2 - abs(1 + ref) ** 2) < 1e-12

    def test_collinear_phase_is_zero(self):
        # BD on the segment between UE and BS: zero excess path
        g = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(1.0, 0.0))
        iota = scatter_ratio(g, 0.3835)
        assert abs(np.angle(iota)) < 1e-9

    def test_gain_difference_identity(self):
        # |h_on|^2 - |h_off|^2 = |h_d|^2 (|1+iota|^2 - 1) at depth 1
        rng = np.random.default_rng(14)
        lam = 0.3835
        for _ in range(50):
            bd = tuple(rng.uniform(-3.0, 3.0, 2))
            try:
                g = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=bd)
            except ValueError:
                continue
            h_d = fspl_gain(g.d_d, lam)
            ch = ChannelSet(h_d=h_d, h_s=fspl_gain(g.d_s, lam),
                            h_b=fspl_gain(g.d_b, lam), noise_power=1e-9)
            on = abs(composite_gain(ch, +1)) ** 2
            off = abs(composite_gain(ch, -1)) ** 2
            u = abs(1.0 + scatter_ratio(g, lam)) ** 2
            lhs = on - off
            rhs = abs(h_d) ** 2 * (u - 1.0)
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(h_d) ** 2)

    def test_bad_wavelength(self):
        g = LinkGeometry(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0), bd_pos=(1.0, 1.0))
        with pytest.raises(ValueError):
            scatter_ratio(g, 0.0)


class TestSnr:
    def test_lte_snr(self):
        # the cellular-link SNR gamma = |h_d|^2 / sigma_n^2
        ch = ChannelSet(h_d=0.02, h_s=1e-4, h_b=1.0, noise_power=1e-5)
        assert abs(ch.h_d) ** 2 / ch.noise_power == pytest.approx(
            0.02 ** 2 / 1e-5, rel=1e-12)

    def test_snr_per_bit_formula(self):
        ch = ChannelSet(h_d=0.02, h_s=1e-4, h_b=1.0, noise_power=1e-5)
        on = abs(composite_gain(ch, +1)) ** 2
        off = abs(composite_gain(ch, -1)) ** 2
        s2 = ch.noise_power
        expect = 4 * 288 * (on - off) ** 2 / (8 * s2 * (s2 + on + off))
        assert snr_per_bit(ch, 4, 288) == pytest.approx(expect, rel=1e-12)

    def test_snr_per_bit_scales_with_chips(self):
        ch = ChannelSet(h_d=0.02, h_s=1e-4, h_b=1.0, noise_power=1e-5)
        assert snr_per_bit(ch, 8, 288) == pytest.approx(
            2.0 * snr_per_bit(ch, 4, 288), rel=1e-12)

    def test_noise_for_gamma_b_inverts_snr_per_bit(self):
        # on the measurement channel across replicate's default grid
        ch = measurement_config((5.0,)).channel
        for gb_db in parse_grid("3:0.25:16"):
            gb = from_db(gb_db)
            noise = _noise_for_gamma_b(20 * 288, *_state_powers(ch), gb)
            got = snr_per_bit(replace(ch, noise_power=noise), 20, 288)
            assert got == pytest.approx(gb, rel=1e-12)

    def test_noise_root_meets_its_bound(self):
        # the docstring's 1.3e-15 against the 50-digit root at the same
        # double on, off, over 0-300 dB on the measurement channel; the
        # form -s + sqrt(s^2 + t) cancels, is off by 8e-7 at 100 dB and
        # gives 0.0 from 200 dB
        mp = pytest.importorskip("mpmath")
        ch = measurement_config((5.0,)).channel
        on, off = _state_powers(ch)
        with mp.workdps(50):
            s, d = mp.mpf(on) + mp.mpf(off), mp.mpf(on) - mp.mpf(off)
            for gb_db in np.arange(0.0, 300.5, 2.5):
                gb = from_db(gb_db)
                t = 20 * 288 * d * d / (2 * mp.mpf(gb))
                ref = t / (2 * (s + mp.sqrt(s * s + t)))
                got = _noise_for_gamma_b(20 * 288, on, off, gb)
                assert abs(mp.mpf(got) / ref - 1) < 1.3e-15, gb_db

    def test_two_gamma_b_meets_its_bound(self):
        # the docstring's 4.5e-16 against nm gap^2 / (4 s2 total) at 50
        # digits, at the same double arguments: the map's gap gamma (u - 1)
        # and total 1 + gamma (u + 1) at unit noise, constructive (u > 1)
        # and destructive (u < 1), gamma up to 300 dB, and snr_per_bit's
        # on - off and s2 + on + off at other noise powers
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(26)
        with mp.workdps(50):
            for _ in range(2000):
                gamma = 10.0 ** rng.uniform(-3.0, 30.0)
                u = rng.choice([rng.uniform(0.0, 1.0), rng.uniform(1.0, 4.0),
                                1.0 + rng.uniform(-1e-6, 1e-6)])
                nm = int(rng.choice([2, 1152, 5760]))
                on, off = gamma * u, gamma
                for gap, total, s2 in (
                        (gamma * (u - 1.0), 1.0 + gamma * (u + 1.0), 1.0),
                        (on - off, 0.3 + on + off, 0.3)):
                    got = _two_gamma_b(nm, gap, total, s2)
                    ref = nm * mp.mpf(gap) ** 2 / (
                        4 * mp.mpf(s2) * mp.mpf(total))
                    assert abs(mp.mpf(float(got)) - ref) <= 4.5e-16 * ref
        assert _two_gamma_b(2, np.inf, np.inf, 1.0) == np.inf

    def test_state_gains_are_the_two_composite_gains(self):
        # bit for bit, reflect then absorb, on a destructive channel and
        # on a two-level tag with a residual absorb-state reflection
        destructive = ChannelSet(h_d=0.02, h_s=-0.01 + 0.003j, h_b=1.0,
                                 noise_power=1e-5)
        off_depth = ChannelSet(h_d=0.02, h_s=0.01j, h_b=0.5 - 0.2j,
                               noise_power=1e-5,
                               bd_modulation_depth=10.0 ** (-0.5 / 20.0),
                               bd_off_depth=10.0 ** (-23.0 / 20.0))
        for ch in (destructive, off_depth):
            on, off = _state_gains(ch)
            assert on == composite_gain(ch, +1)
            assert off == composite_gain(ch, -1)
        assert abs(_state_gains(destructive)[0]) < abs(destructive.h_d)
        assert _state_gains(off_depth)[1] != off_depth.h_d

    def test_state_powers_are_the_squared_composite_gains(self):
        # bit for bit on a destructive channel (off above on) and on a
        # two-level tag with a residual absorb-state reflection
        destructive = ChannelSet(h_d=0.02, h_s=-0.01 + 0.003j, h_b=1.0,
                                 noise_power=1e-5)
        off_depth = ChannelSet(h_d=0.02, h_s=0.01j, h_b=0.5 - 0.2j,
                               noise_power=1e-5,
                               bd_modulation_depth=10.0 ** (-0.5 / 20.0),
                               bd_off_depth=10.0 ** (-23.0 / 20.0))
        for ch in (destructive, off_depth):
            on, off = _state_powers(ch)
            assert on == abs(composite_gain(ch, +1)) ** 2
            assert off == abs(composite_gain(ch, -1)) ** 2
        assert _state_powers(destructive)[0] < _state_powers(destructive)[1]
        assert _state_powers(off_depth)[1] != abs(off_depth.h_d) ** 2

    def test_rejects_bad_sizes(self):
        ch = ChannelSet(h_d=0.02, h_s=1e-4, h_b=1.0, noise_power=1e-5)
        with pytest.raises(ValueError):
            snr_per_bit(ch, 0, 288)
        with pytest.raises(ValueError):
            snr_per_bit(ch, 4, 0)


class TestDbHelpers:
    def test_round_trip(self):
        for v in (1e-9, 1.0, 42.0):
            assert from_db(to_db(v)) == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("x_db", [3100.0, -3300.0, np.nan, np.inf])
    def test_from_db_outside_a_double_raises(self, x_db):
        with pytest.raises(ValueError, match="outside the range"):
            from_db(x_db)

    def test_zero_maps_to_minus_inf(self):
        assert to_db(0.0) == -np.inf

    def test_wavelength_constant(self):
        assert SPEED_OF_LIGHT / 782e6 == pytest.approx(WAVELENGTH_782, rel=1e-12)
