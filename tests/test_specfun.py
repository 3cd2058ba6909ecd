"""Special-function accuracy against closed forms and series oracles."""
import numpy as np
import pytest

from ambcsim.specfun import log_bessel_i, q_func, q_inv
from oracles import (
    LOG_I0_1,
    LOG_I287_600,
    LOG_I1024_1E6,
    LOG_I32_50,
    Q_AT_3,
    QINV_1E2,
    log_bessel_series,
)


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
        orders = np.array([0.0, 1.0, 2.0])
        out = log_bessel_i(orders, 3.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            log_bessel_i(0, -1.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            log_bessel_i(-1, 1.0)


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

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                q_inv(bad)
