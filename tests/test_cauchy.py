"""Generalized Cauchy entropy: partition function, normalizer, entropy."""

import math
import time

import numpy as np
import pytest

from logint.cauchy import (GenCauchyModel, _bracket_integral, diff_entropy,
                           gsum_mgf, multivariate_cauchy_entropy,
                           normalizer_cn, partition_z)
from logint.errors import DomainError
from logint.oracles import digamma
from logint.quadrature import (QuadConfig, integrate_semi_infinite,
                               integrate_semi_infinite_2d, require_converged)
from logint.special import ln_gamma

SWEEP_CFG = QuadConfig(rel_tol=1e-8, abs_tol=1e-10)


def test_model_validation():
    with pytest.raises(DomainError):
        GenCauchyModel(theta=-1.0, q=1.0, n=1)
    with pytest.raises(DomainError):
        GenCauchyModel(theta=2.0, q=0.0, n=1)
    with pytest.raises(DomainError):
        GenCauchyModel(theta=2.0, q=1.0, n=3)  # q*theta = 2 < n


class TestPartitionZ:
    def test_theta2_is_sqrt_pi_over_t(self):
        m = GenCauchyModel(2.0, 1.0, 1)
        assert partition_z(m, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert partition_z(m, 4.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)

    def test_theta1_laplace(self):
        # int e^{-|x|} dx = 2
        m = GenCauchyModel(1.0, 2.0, 1)
        assert partition_z(m, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_matches_direct_quadrature(self):
        m = GenCauchyModel(1.7, 3.0, 2)
        for t in (0.5, 1.0, 3.0):
            direct = integrate_semi_infinite(
                lambda x: 2.0 * np.exp(-t * x ** 1.7)).value
            assert partition_z(m, t) == pytest.approx(direct, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            partition_z(GenCauchyModel(2.0, 1.0, 1), 0.0)


class TestNormalizer:
    def test_classic_cauchy(self):
        assert normalizer_cn(GenCauchyModel(2.0, 1.0, 1)) == \
            pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_n3_multivariate(self):
        assert normalizer_cn(GenCauchyModel(2.0, 2.0, 3)) == \
            pytest.approx(1.0 / math.pi ** 2, rel=1e-12)

    def test_quadrature_cross_check(self):
        m = GenCauchyModel(2.0, 3.0, 2)
        closed = normalizer_cn(m)
        quad = normalizer_cn(m, method="quadrature")
        assert abs(quad / closed - 1.0) <= 1e-9

    def test_quadrature_cross_check_singular_exponent(self):
        # alpha = q - 1 - n/theta < 0 exercises the endpoint substitution
        m = GenCauchyModel(2.0, 1.0, 1)
        closed = normalizer_cn(m)
        quad = normalizer_cn(m, method="quadrature")
        assert abs(quad / closed - 1.0) <= 1e-9


class TestMixture:
    def test_normalization_identity_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            theta = rng.uniform(0.5, 3.0)
            n = int(rng.integers(1, 5))
            q = n / theta + rng.uniform(0.2, 3.0)
            m = GenCauchyModel(theta, q, n)
            # gsum_mgf(0) integrates t^{q-1} e^{-t} Z^n against C_n/Gamma(q)
            assert abs(gsum_mgf(m, 0.0) - 1.0) <= 1e-9

    def test_gsum_mgf_bounded_and_decreasing(self):
        m = GenCauchyModel(2.0, 2.0, 3)
        grid = [0.0, 0.2, 0.5, 1.0, 2.0, 5.0]
        vals = [gsum_mgf(m, u) for u in grid]
        assert all(v <= 1.0 + 1e-12 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


def cauchy_entropy_oracle():
    # -int f ln f for the standard Cauchy density, by direct quadrature
    def nll(x):
        fx = 1.0 / (math.pi * (1.0 + x * x))
        return -2.0 * fx * np.log(fx)

    return integrate_semi_infinite(nll).value


class TestEntropy:
    def test_n1_closed_form(self):
        oracle = cauchy_entropy_oracle()
        assert abs(oracle - math.log(4.0 * math.pi)) <= 1e-9
        assert abs(multivariate_cauchy_entropy(1) - oracle) <= 1e-6
        assert abs(diff_entropy(GenCauchyModel(2.0, 1.0, 1)) - oracle) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_general_matches_specialized(self, n):
        m = GenCauchyModel(2.0, (n + 1) / 2.0, n)
        assert abs(diff_entropy(m) - multivariate_cauchy_entropy(n)) <= 1e-8

    def test_large_n_closed_form(self):
        # C_n = Gamma(q)/pi^q overflows a float at n = 1000; the entropy must not
        n = 1000
        q = (n + 1) / 2.0
        closed = q * (digamma(q) - digamma(0.5)) - (ln_gamma(q) - q * math.log(math.pi))
        assert abs(multivariate_cauchy_entropy(n) - closed) <= 1e-9 * closed

    def test_tolerance_tightening_invariance(self):
        loose = QuadConfig(rel_tol=1e-8, abs_tol=1e-10)
        tight = QuadConfig(rel_tol=1e-9, abs_tol=1e-11)
        a = multivariate_cauchy_entropy(3, loose)
        b = multivariate_cauchy_entropy(3, tight)
        assert abs(a - b) <= 2.0 * 1e-8 * abs(a)

    def test_normalized_entropy_decreasing(self):
        hs = [multivariate_cauchy_entropy(n, SWEEP_CFG) for n in range(1, 9)]
        ratios = [h / n for n, h in enumerate(hs, start=1)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_dimension_independent_cost(self):
        # one quadrature axis whatever n is; runtime must not scale with n
        t0 = time.perf_counter()
        multivariate_cauchy_entropy(2, SWEEP_CFG)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        multivariate_cauchy_entropy(100, SWEEP_CFG)
        t_large = time.perf_counter() - t0
        assert t_large <= 5.0 * t_small + 0.5


def paper_entropy_2d(model):
    """The paper's form: q/Gamma(q - n/theta) times the double integral
    int int t^alpha e^{-(t+u)}/u [1 - (t/(t+u))^{n/theta}] dt du, minus ln C_n.

    Iterated with u = r t and t = x^kappa/(1+r), kappa = 1/(1+alpha) when
    alpha < 0 (t = x/(1+r) otherwise), which keeps both axes on an O(1)
    scale and flattens the t^alpha endpoint.
    """
    q, th, n = model.q, model.theta, model.n
    alpha = q - 1.0 - n / th
    kappa = 1.0 / (1.0 + alpha) if alpha < 0.0 else 1.0

    def f(r, x):
        bracket = -np.expm1(-(n / th) * np.log1p(r))
        outer_part = bracket / (r * (1.0 + r) ** (1.0 + alpha))
        if alpha < 0.0:
            return outer_part * kappa * np.exp(-(x ** kappa))
        return outer_part * x ** alpha * np.exp(-x)

    integral = require_converged(integrate_semi_infinite_2d(f), "2-D bracket")
    return (q * math.exp(-ln_gamma(q - n / th)) * integral
            - math.log(normalizer_cn(model)))


class TestPaperForm:
    @pytest.mark.parametrize("n", [1, 5])
    def test_2d_bracket_matches_multivariate(self, n):
        model = GenCauchyModel(2.0, (n + 1) / 2.0, n)
        assert abs(multivariate_cauchy_entropy(n) - paper_entropy_2d(model)) <= 1e-9

    def test_2d_bracket_matches_alpha_half(self):
        model = GenCauchyModel(2.5, 1.5 + 2 / 2.5, 2)
        assert abs(diff_entropy(model) - paper_entropy_2d(model)) <= 1e-9

    @pytest.mark.parametrize("alpha, m_exp", [(-0.5, 0.5), (-0.5, 500.0), (-0.8, 1.0),
                                              (0.5, 1.2), (2.0, 0.7), (10.0, 3.0),
                                              (-0.9, 1.0), (-0.95, 2.0), (-0.985, 0.5),
                                              (-0.9999, 3.0)])
    def test_bracket_digamma_closed_form(self, alpha, m_exp):
        # with y = 1/(1+r) the bracket is int_0^1 y^alpha (1 - y^m)/(1 - y) dy
        closed = digamma(1.0 + alpha + m_exp) - digamma(1.0 + alpha)
        val = _bracket_integral(alpha, m_exp, None, "bracket")
        assert abs(val - closed) <= 1e-9 * max(1.0, closed)
