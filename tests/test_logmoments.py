"""Core log-moment operations against closed-form, digamma and MC oracles."""

import math

import numpy as np
import pytest

from logint.errors import DomainError
from logint.logmoments import (cov_ln, expect_ln, expect_ln1p,
                               expect_ln_power_sum, expect_ln_sum_iid,
                               fractional_moment_sum_iid, var_ln, var_ln1p)
from logint.mgf import (JointMgfSpec, MgfSpec, constant_mgf, exponential_mgf,
                        gaussian_square_mgf, product_mgf, scale_mgf,
                        simo_gain_mgf, uniform01_mgf)
from logint.oracles import (McConfig, digamma, exponential_sampler,
                            mc_expect_ln, trigamma)
from logint.quadrature import integrate_semi_infinite_2d, require_converged
from logint.simo import SimoChannel, capacity_variance
from logint.special import exp_integral_e1

MC10M = McConfig(trials=10_000_000, seed=987654321)


def gamma_mgf(k):
    # Gamma(k, 1) as the sum of k unit exponentials
    return product_mgf([exponential_mgf()] * k)


def paper_var_ln_2d(z_m):
    """The paper's form: Var{ln Z} as the double integral of the MGF
    covariance [m(-u-v) - m(-u) m(-v)] / (uv) over the positive quadrant."""

    def f(u, v):
        return (z_m(-u - v) - z_m(-u) * z_m(-v)) / (u * v)

    return require_converged(integrate_semi_infinite_2d(f), "2-D variance")


class TestExpectLn:
    def test_constant_one(self):
        assert abs(expect_ln(constant_mgf(1.0))) <= 1e-12

    def test_exponential_is_minus_gamma(self):
        val = expect_ln(exponential_mgf())
        assert abs(val - digamma(1.0)) <= 1e-10
        est = mc_expect_ln(exponential_sampler(), np.log, MC10M)
        assert abs(val - est.mean) <= 3.0 * est.std_error

    def test_uniform_is_minus_one(self):
        # int_0^1 ln x dx = -1
        assert abs(expect_ln(uniform01_mgf()) + 1.0) <= 1e-9


class TestExpectLnSumIid:
    def test_n1_reduces(self):
        e = exponential_mgf()
        assert expect_ln_sum_iid(e, 1) == pytest.approx(expect_ln(e), abs=1e-12)

    def test_deterministic_sum(self):
        assert abs(expect_ln_sum_iid(constant_mgf(1.0), 5) - math.log(5.0)) <= 1e-10

    def test_exponential_n3_vs_mc(self):
        val = expect_ln_sum_iid(exponential_mgf(), 3)
        # sum of 3 unit exponentials is Gamma(3,1): E ln = psi(3)
        assert abs(val - digamma(3.0)) <= 1e-9
        est = mc_expect_ln(
            lambda rng, k: np.sum(rng.exponential(1.0, (k, 3)), axis=1),
            np.log, McConfig(trials=10_000_000, seed=24680))
        assert abs(val - est.mean) <= 3.0 * est.std_error


class TestExpectLnPowerSum:
    def test_chi_square_n1(self):
        # E ln |Z| = (psi(1/2) + ln 2)/2
        val = expect_ln_power_sum(gaussian_square_mgf(), 1, 2.0)
        assert abs(val - 0.5 * (digamma(0.5) + math.log(2.0))) <= 1e-9

    def test_chi_square_n4(self):
        val = expect_ln_power_sum(gaussian_square_mgf(), 4, 2.0)
        assert abs(val - 0.5 * (digamma(2.0) + math.log(2.0))) <= 1e-9

    def test_deterministic(self):
        # eight unit terms, s = 3: ln(8^{1/3}) = ln 2
        val = expect_ln_power_sum(constant_mgf(1.0), 8, 3.0)
        assert abs(val - math.log(2.0)) <= 1e-10

    def test_rejects_nonpositive_s(self):
        with pytest.raises(DomainError):
            expect_ln_power_sum(constant_mgf(1.0), 1, 0.0)


class TestExpectLn1p:
    def test_constant_zero(self):
        assert abs(expect_ln1p(constant_mgf(0.0))) <= 1e-12

    def test_constant_one(self):
        assert abs(expect_ln1p(constant_mgf(1.0)) - math.log(2.0)) <= 1e-10

    def test_exponential_e1_identity(self):
        # int ln(1+x) e^{-x} dx = e E1(1)
        val = expect_ln1p(exponential_mgf())
        assert abs(val - math.e * exp_integral_e1(1.0)) <= 1e-10


class TestVarLn1p:
    def test_deterministic_zero(self):
        for c in [0.0, 1.0, 3.5]:
            assert abs(var_ln1p(constant_mgf(c))) <= 1e-10

    def test_exponential_vs_mc(self):
        val = var_ln1p(exponential_mgf())
        est = mc_expect_ln(exponential_sampler(),
                           lambda x: np.log1p(x) ** 2,
                           McConfig(trials=10_000_000, seed=13579))
        mean = expect_ln1p(exponential_mgf())
        mc_var = est.mean - mean * mean
        assert abs(val - mc_var) <= 3.0 * est.std_error

    @pytest.mark.parametrize("spec", [exponential_mgf(), uniform01_mgf()],
                             ids=["exponential", "uniform"])
    def test_matches_paper_2d_form(self, spec):
        # 1+X has MGF e^t m(t)
        paper = paper_var_ln_2d(lambda t: np.exp(t) * spec.m(t))
        assert abs(var_ln1p(spec) - paper) <= 1e-9

    def test_matches_simo_variance(self):
        rho = 1.0
        gain_sum = product_mgf([simo_gain_mgf(0.5, rho), simo_gain_mgf(1.0, rho)])
        direct = var_ln1p(gain_sum)
        via_simo = capacity_variance(SimoChannel((0.5, 1.0), rho))
        assert abs(direct - via_simo) <= 1e-9


class TestVarLn:
    def test_deterministic_zero(self):
        assert abs(var_ln(constant_mgf(2.0), 1.0)) <= 1e-10

    def test_exponential_trigamma(self):
        assert abs(var_ln(exponential_mgf(), 1.0) - trigamma(1.0)) <= 1e-8

    def test_chi_square_one_dof(self):
        # Var{ln chi^2_1} = psi'(1/2) = pi^2/2
        val = var_ln(gaussian_square_mgf(), 1.0)
        assert abs(val - trigamma(0.5)) <= 1e-8

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_paper_2d_form(self, k):
        spec = gamma_mgf(k)
        assert abs(var_ln(spec, 1.0) - paper_var_ln_2d(spec.m)) <= 1e-9

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    @pytest.mark.parametrize("k", [1, 3])
    def test_scale_invariance(self, k, c):
        # Var{ln cX} = Var{ln X} = psi'(k) for X ~ Gamma(k), whatever c is
        assert abs(var_ln(scale_mgf(gamma_mgf(k), c), 1.0) - trigamma(k)) <= 1e-8


def independent_joint(x, y):
    return JointMgfSpec(m=lambda s, t: x.m(s) * y.m(t), label="independent")


class TestCovLn:
    def test_independent_zero(self):
        j = independent_joint(exponential_mgf(), exponential_mgf())
        assert abs(cov_ln(j, 1.0)) <= 1e-10

    def test_identical_equals_var(self):
        e = exponential_mgf()
        j = JointMgfSpec(m=lambda s, t: e.m(s + t), label="X=Y exponential")
        assert abs(cov_ln(j, 1.0) - var_ln(e, 1.0)) <= 1e-7

    def test_correlated_pair_vs_mc(self):
        # (X, X+W) with X, W independent unit exponentials:
        # Cov(ln X, ln(X+W)) by simulation
        e = exponential_mgf()
        j = JointMgfSpec(m=lambda s, t: e.m(s + t) * e.m(t), label="(X, X+W)")
        val = cov_ln(j, 1.0)
        rng = np.random.Generator(np.random.Philox(777))
        trials = 10_000_000
        x = rng.exponential(1.0, trials)
        w = rng.exponential(1.0, trials)
        a = np.log(x)
        b = np.log(x + w)
        cov = float(np.mean(a * b) - np.mean(a) * np.mean(b))
        se = float(np.std(a * b) / math.sqrt(trials))
        assert abs(val - cov) <= 4.0 * se


class TestFractionalMoment:
    def test_deterministic_n1(self):
        assert abs(fractional_moment_sum_iid(constant_mgf(1.0), 1, 0.5) - 1.0) <= 1e-10

    def test_deterministic_n4(self):
        assert abs(fractional_moment_sum_iid(constant_mgf(1.0), 4, 0.5) - 2.0) <= 1e-9

    def test_exponential_gamma_moment(self):
        # E{X^rho} = Gamma(1+rho)
        val = fractional_moment_sum_iid(exponential_mgf(), 1, 0.5)
        assert abs(val - math.gamma(1.5)) <= 1e-9

    def test_rho_domain(self):
        for rho in [-0.1, 0.0, 1.0, 1.5]:
            with pytest.raises(DomainError):
                fractional_moment_sum_iid(exponential_mgf(), 1, rho)

    def test_rho_to_zero_limit(self):
        # (E{S^rho} - 1)/rho -> E{ln S}.  The first-order remainder is
        # rho*E{ln^2 S}/2 (= 9.9e-4 at rho = 1e-3 for the exponential,
        # exactly; run at rho = 1e-4 where the 1e-4 band is attainable).
        rho = 1e-4
        for n in (1, 3):
            lim = (fractional_moment_sum_iid(exponential_mgf(), n, rho) - 1.0) / rho
            assert abs(lim - expect_ln_sum_iid(exponential_mgf(), n)) <= 1e-4

    def test_rho_first_order_remainder(self):
        # sharper continuity statement: quotient = E ln S + rho E{ln^2 S}/2 + O(rho^2)
        rho = 1e-3
        second_moment = trigamma(1.0) + digamma(1.0) ** 2
        lim = (fractional_moment_sum_iid(exponential_mgf(), 1, rho) - 1.0) / rho
        predicted = expect_ln(exponential_mgf()) + 0.5 * rho * second_moment
        assert abs(lim - predicted) <= 1e-5


class TestStructuralProperties:
    def test_scaling_law(self):
        e = exponential_mgf()
        base = expect_ln(e)
        for c in (0.5, 2.0, 10.0):
            val = expect_ln(scale_mgf(e, c))
            assert abs(val - (base + math.log(c))) <= 2e-9

    def test_jensen(self):
        for spec in [uniform01_mgf(), gaussian_square_mgf(), exponential_mgf(),
                     simo_gain_mgf(0.5, 2.0)]:
            assert expect_ln(spec) <= math.log(float(spec.m1(0.0))) + 1e-9

    def test_variances_nonnegative(self):
        assert var_ln(exponential_mgf(), 1.0) >= -1e-9
        assert var_ln1p(uniform01_mgf()) >= -1e-9
        assert var_ln1p(constant_mgf(1.0)) >= -1e-9

    def test_domain_error_for_unusable_mgf(self):
        bad = MgfSpec(m=lambda t: np.exp(t), m1=lambda t: np.exp(t),
                      m2=lambda t: np.exp(t), domain_upper=-1.0, label="bad")
        with pytest.raises(DomainError):
            expect_ln(bad)
