"""Special-function accuracy against closed forms and series oracles."""
import hashlib
import sys
import warnings

import numpy as np
import pytest

from ambcsim.specfun import log_bessel_i, q_func, q_inv
from oracles import (
    DEBYE_ORDERS,
    DEBYE_X,
    LOG_I0_1,
    LOG_I287_600,
    LOG_I1024_1E6,
    LOG_I32_50,
    Q_AT_3,
    QINV_1E2,
    log_bessel_mp,
    log_bessel_series,
)


def _worst_scaled_error(order):
    """Largest |got - ref| / max(1, |ref|) over the oracle grid."""
    got = log_bessel_i(order, np.array(DEBYE_X))
    ref = np.array([log_bessel_mp(order, x) for x in DEBYE_X])
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


class TestLogBesselI:
    def test_zero_argument_order_zero(self):
        assert log_bessel_i(0, 0.0) == 0.0

    def test_zero_argument_positive_order(self):
        assert log_bessel_i(1, 0.0) == -np.inf
        assert log_bessel_i(287, 0.0) == -np.inf

    def test_unit_argument(self):
        assert abs(log_bessel_i(0, 1.0) - LOG_I0_1) < 1e-12

    def test_large_order_large_argument(self):
        got = log_bessel_i(287, 600.0)
        assert abs(got - LOG_I287_600) < 1e-10 * abs(LOG_I287_600)

    def test_envelope_corner(self):
        # largest order/argument pair the detectors can request
        got = log_bessel_i(1024, 1e6)
        assert abs(got - LOG_I1024_1E6) < 1e-10 * abs(LOG_I1024_1E6)

    def test_moderate_pair(self):
        assert abs(log_bessel_i(32, 50.0) - LOG_I32_50) < 1e-10 * LOG_I32_50

    def test_matches_series_oracle_grid(self):
        # exp(log I) to 1e-10 relative over the small-parameter envelope
        for order in (0, 1, 3, 8, 17, 32):
            for x in (1e-3, 0.5, 2.0, 10.0, 31.0, 50.0):
                got = log_bessel_i(order, x)
                ref = log_bessel_series(order, x)
                assert abs(got - ref) < 1e-10 + 1e-10 * abs(ref), (order, x)

    def test_underflow_regime_uses_series(self):
        # scaled Bessel underflows near (order=900, x=1), series takes over
        got = log_bessel_i(900, 1.0)
        ref = log_bessel_series(900, 1.0, terms=60)
        assert np.isfinite(got)
        assert abs(got - ref) < 1e-10 * abs(ref)

    @pytest.mark.parametrize("order", [1, 49, 287])
    def test_smallest_subnormal_argument(self, order):
        # x / 2 is inexact below 2.2e-308 and 0 at 5e-324, so the series
        # must take ln x - ln 2, without a NaN or a warning
        for x in (5e-324, 1.5e-323, 2.5e-321, 1.0375e-320, 1e-310):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = log_bessel_i(order, x)
            ref = log_bessel_mp(order, x, dps=60)
            assert abs(got - ref) <= 1e-15 * abs(ref), x

    def test_monotone_in_argument(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            order = rng.integers(0, 200)
            x = rng.uniform(0.1, 500.0)
            assert log_bessel_i(order, x + 0.5) > log_bessel_i(order, x)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            order = int(rng.integers(0, 200))
            x = rng.uniform(0.5, 500.0)
            assert log_bessel_i(order + 1, x) < log_bessel_i(order, x)

    def test_vector_broadcast(self):
        # one order per call, x of any shape
        xs = np.array([[3.0], [0.5]])
        out = np.array([log_bessel_i(order, xs) for order in (0, 1, 2)])
        assert out.shape == (3, 2, 1)
        assert np.all(np.diff(out, axis=0) < 0)

    def test_array_order_rejected(self):
        for bad in ([287.0], np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="one order"):
                log_bessel_i(bad, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            log_bessel_i(0, -1.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            log_bessel_i(-1, 1.0)

    def test_non_finite_order_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                log_bessel_i(bad, 1.0)

    def test_non_finite_argument_rejected(self):
        for order, bad in ((0, np.nan), (287, np.nan), (287, np.inf)):
            with pytest.raises(ValueError):
                log_bessel_i(order, bad)


class TestLogBesselLargeOrder:
    """Orders of 50 and above come from the uniform asymptotic
    expansion; lower orders from scipy's ive."""

    def test_expansion_matches_mpmath_grid(self):
        pytest.importorskip("mpmath")
        for order in DEBYE_ORDERS:
            assert _worst_scaled_error(order) <= 1e-14, order

    def test_last_ive_order_on_the_same_grid(self):
        # order 49, the last one left to scipy's ive, misses 1e-14 there:
        # its worst is 1.24e-14, at x = 33.53 (order 50 is on the grid)
        pytest.importorskip("mpmath")
        assert _worst_scaled_error(49) <= 2e-14

    def test_scalar_and_array_x_give_same_bits(self):
        xs = np.array([0.0, 5e-324, 1e-310, 1e-305, 1e-300, 1e-6, 1.0,
                       33.5, 600.0, 1e6])
        for order in (0, 1, 17, 49, 50, 51, 287, 900.5, 1024):
            together = log_bessel_i(order, xs)
            one_by_one = [log_bessel_i(order, x) for x in xs]
            assert np.array_equal(together, one_by_one), order
            assert np.array_equal(log_bessel_i(order, xs.reshape(2, 5)),
                                  together.reshape(2, 5)), order

    def test_large_orders_never_load_scipy(self, monkeypatch):
        # a None entry makes any import of scipy.special raise
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        xs = np.array([5e-324, 1e-310, 1e-300, 1e-6, 1.0, 33.5, 600.0, 1e6])
        for order in (50.0, 51.0, 287.0, 900.5, 1024.0):
            assert np.all(np.isfinite(log_bessel_i(order, xs))), order
        # x = 0 is a closed form at any order, low ones included
        assert log_bessel_i(287, np.array([0.0, 1.0]))[0] == -np.inf
        assert [log_bessel_i(order, 0.0) for order in (0.0, 5.0, 287.0)] \
            == [0.0, -np.inf, -np.inf]
        with pytest.raises(ImportError):
            log_bessel_i(49.0, 1.0)

    def test_zero_argument_in_array(self):
        # -inf without a RuntimeWarning, which the suite turns into a
        # failure
        out = log_bessel_i(287, np.array([0.0, 1.0, 0.0]))
        assert out[0] == out[2] == -np.inf
        assert np.isfinite(out[1])


class TestQFunc:
    def test_center(self):
        assert q_func(0.0) == 0.5

    def test_reflection(self):
        for x in (-4.0, -1.3, 0.7, 2.5, 6.0):
            assert abs(q_func(x) + q_func(-x) - 1.0) < 1e-14

    def test_three_sigma(self):
        assert abs(q_func(3.0) - Q_AT_3) < 1e-12 * Q_AT_3 + 1e-18

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 101)
        assert np.all(np.diff(q_func(xs)) < 0.0)

    def test_deep_tail_relative_accuracy(self):
        # Q(10) = 7.6198530241605...e-24 (erfc closed form)
        assert abs(q_func(10.0) / 7.6198530241605255e-24 - 1.0) < 1e-6

    def test_tail_matches_mpmath(self):
        # math.erfc against 40-digit erfc at the same double argument
        # x / sqrt(2); the rounding of that argument is the formula's
        mp = pytest.importorskip("mpmath")
        xs = np.geomspace(1.0, 37.5, 200)
        with mp.workdps(40):
            for x, y in zip(xs, xs / np.sqrt(2.0)):
                ref = mp.erfc(mp.mpf(float(y))) / 2
                assert abs(mp.mpf(q_func(x)) / ref - 1) < 5e-16, x

    def test_infinities(self):
        assert q_func(np.inf) == 0.0
        assert q_func(-np.inf) == 1.0
        assert list(q_func(np.array([-np.inf, np.inf]))) == [1.0, 0.0]

    @pytest.mark.parametrize("x", [np.nan, [0.0, np.nan]],
                             ids=["scalar", "array"])
    def test_nan_rejected(self, x):
        with pytest.raises(ValueError, match="NaN"):
            q_func(x)


class TestQInv:
    def test_median(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self):
        assert abs(q_inv(q_func(1.7)) - 1.7) < 1e-10

    def test_percentile_value(self):
        assert abs(q_inv(1e-2) - QINV_1E2) < 1e-10

    def test_round_trip_sweep(self):
        for p in (1e-12, 1e-6, 1e-3, 0.1, 0.4, 0.6, 0.9, 1.0 - 1e-9):
            assert abs(q_func(q_inv(p)) - p) < 1e-10

    def test_bits_pinned(self):
        # q_inv's exact output on a log sweep of both tails: the exact
        # series' windows and the reading range rest on these bits
        ps = np.concatenate([np.geomspace(1e-300, 0.5, 10000),
                             1.0 - np.geomspace(1e-16, 0.5, 2000)])
        zs = np.array([q_inv(p) for p in ps])
        assert hashlib.sha256(zs.tobytes()).hexdigest() == \
            "272ca91b36242ee0419e2d73c5e440c85d6a65c7b8ee415612acbbf884ce1810"

    def test_close_to_scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        ps = np.geomspace(1e-300, 0.999, 2000)
        ref = -special.ndtri(ps)
        got = np.array([q_inv(p) for p in ps])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref) + 1e-300)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                q_inv(bad)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                q_inv(bad)

    def test_array_p_rejected(self):
        for bad in ([0.5], np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="one p"):
                q_inv(bad)
