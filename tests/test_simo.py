"""SIMO ergodic capacity and variance against closed forms and MC."""

import math

import numpy as np
import pytest

from logint.errors import DomainError
from logint.oracles import McConfig, mc_simo
from logint.quadrature import QuadConfig, integrate_semi_infinite, require_converged
from logint.simo import (RepeatedSigmaError, SimoChannel,
                         capacity_closed_form_example,
                         capacity_partial_fractions, capacity_variance,
                         ergodic_capacity)

EXAMPLE = (0.5, 1.0)


def test_channel_validation():
    with pytest.raises(DomainError):
        SimoChannel((), 1.0)
    with pytest.raises(DomainError):
        SimoChannel((1.0, -0.5), 1.0)
    with pytest.raises(DomainError):
        SimoChannel((1.0,), 0.0)


class TestCapacity:
    def test_vanishes_at_zero_snr(self):
        assert ergodic_capacity(SimoChannel(EXAMPLE, 1e-9)) < 1e-7

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, 100.0])
    def test_matches_closed_form_example(self, rho):
        quad = ergodic_capacity(SimoChannel(EXAMPLE, rho))
        closed = capacity_closed_form_example(rho)
        assert abs(quad - closed) <= 1e-8 * abs(closed)

    @pytest.mark.parametrize("db", range(-80, 121, 20))
    def test_closed_form_across_snr_scales(self, db):
        rho = 10.0 ** (db / 10.0)
        quad = ergodic_capacity(SimoChannel(EXAMPLE, rho))
        closed = capacity_closed_form_example(rho)
        assert abs(quad - closed) <= max(1e-8 * abs(closed), 1e-12)

    @pytest.mark.parametrize("sigma_sq, rho", [(EXAMPLE, 0.3), (EXAMPLE, 50.0),
                                               ((0.3, 0.9, 2.0), 3.0)])
    def test_matches_paper_integrand(self, sigma_sq, rho):
        # the paper's form int e^{-x/rho}/x (1 - prod_l 1/(1 + sigma_l^2 x)) dx
        def f(x):
            prod = np.prod([1.0 + s * x for s in sigma_sq], axis=0)
            return np.exp(-x / rho) * (prod - 1.0) / (prod * x)

        paper = require_converged(integrate_semi_infinite(f), "paper SIMO integrand")
        assert abs(ergodic_capacity(SimoChannel(sigma_sq, rho)) - paper) <= 1e-9 * paper

    def test_matches_mc(self):
        rho = 2.0
        val = ergodic_capacity(SimoChannel(EXAMPLE, rho))
        mean_est, _ = mc_simo(EXAMPLE, rho, McConfig(trials=1_000_000, seed=31415))
        assert abs(val - mean_est.mean) <= 3.0 * mean_est.std_error

    def test_specializes_expect_ln1p(self):
        # the module is expect_ln1p composed with the product gain MGF
        from logint.logmoments import expect_ln1p
        from logint.mgf import product_mgf, simo_gain_mgf
        rho = 3.0
        gain = product_mgf([simo_gain_mgf(0.5, rho), simo_gain_mgf(1.0, rho)])
        a = ergodic_capacity(SimoChannel(EXAMPLE, rho))
        b = expect_ln1p(gain)
        assert abs(a - b) <= 2e-10

    def test_concave_increasing_on_db_grid(self):
        # increasing along the dB grid; concave in linear rho, checked by
        # second divided differences over the (dB-spaced) rho values
        # (in dB coordinates the curve is convex: d2 ln(1+rho)/d(ln rho)^2 > 0)
        db = np.arange(-10.0, 30.5, 2.0)
        rho = 10.0 ** (db / 10.0)
        caps = np.array([ergodic_capacity(SimoChannel(EXAMPLE, r)) for r in rho])
        assert all(b > a for a, b in zip(caps, caps[1:]))
        first = np.diff(caps) / np.diff(rho)
        second = np.diff(first) / (rho[2:] - rho[:-2])
        assert np.all(second <= 1e-9)


class TestClosedForm:
    def test_high_snr_log_growth(self):
        assert 0.9 < capacity_closed_form_example(1e4) / math.log(1e4) < 1.2

    def test_small_rho_no_overflow(self):
        v = capacity_closed_form_example(1e-6)
        assert 0.0 < v < 1e-5

    def test_monotone_on_db_grid(self):
        vals = [capacity_closed_form_example(10.0 ** (d / 10.0))
                for d in np.arange(-10.0, 30.5, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            capacity_closed_form_example(0.0)


class TestPartialFractions:
    def test_single_antenna(self):
        for rho in (0.3, 1.0, 8.0):
            ch = SimoChannel((1.0,), rho)
            assert abs(capacity_partial_fractions(ch) - ergodic_capacity(ch)) <= 1e-9

    def test_reproduces_example_algebra(self):
        for rho in (0.5, 1.0, 20.0):
            ch = SimoChannel(EXAMPLE, rho)
            assert capacity_partial_fractions(ch) == \
                pytest.approx(capacity_closed_form_example(rho), rel=1e-14)

    def test_three_antennas_vs_quadrature(self):
        ch = SimoChannel((0.3, 0.9, 2.0), 3.0)
        assert abs(capacity_partial_fractions(ch) - ergodic_capacity(ch)) <= 1e-9

    def test_repeated_sigma_raises(self):
        with pytest.raises(RepeatedSigmaError):
            capacity_partial_fractions(SimoChannel((1.0, 1.0), 1.0))


class TestVariance:
    def test_vanishes_at_tiny_snr(self):
        assert capacity_variance(SimoChannel(EXAMPLE, 1e-4)) < 1e-7

    def test_integrand_matches_paper_kernel(self):
        # algebraic identity of the example bracket at (x, y) = (1, 2)
        x, y = 1.0, 2.0
        s = x + y
        bracket = (1.0 / ((1.0 + 0.5 * s) * (1.0 + s))
                   - 1.0 / ((1.0 + 0.5 * x) * (1.0 + 0.5 * y) * (1.0 + x) * (1.0 + y)))
        lhs = bracket / (x * y)
        rhs = (2 * x * y + 6 * x + 6 * y + 10) / (
            (x + 1) * (y + 1) * (x + 2) * (y + 2) * (x + y + 1) * (x + y + 2))
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_matches_mc_at_rho10(self):
        rho = 10.0
        val = capacity_variance(SimoChannel(EXAMPLE, rho))
        _, var_est = mc_simo(EXAMPLE, rho, McConfig(trials=1_000_000, seed=2718))
        assert abs(val - var_est.mean) <= 3.0 * var_est.std_error

    def test_nonnegative(self):
        assert capacity_variance(SimoChannel(EXAMPLE, 1.0)) >= -1e-9
