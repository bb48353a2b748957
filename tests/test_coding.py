"""AVS redundancy, empirical-entropy moments, K-T redundancy."""

import math
from math import comb, exp, factorial

import numpy as np
import pytest

from logint.coding import (DmsModel, SameLetterError, avs_redundancy,
                           binary_entropy_integral, empirical_entropy_mean,
                           empirical_entropy_mean_direct,
                           empirical_entropy_var, expected_hb,
                           expected_hb_mean_iid, kt_redundancy, phi_kernel,
                           psi_kernel)
from logint.errors import DomainError
from logint.mgf import constant_mgf, uniform01_mgf
from logint.oracles import (McConfig, enumerate_empirical_entropy,
                            mc_kt_redundancy)
from logint.quadrature import QuadConfig

BSS = DmsModel((0.5, 0.5))
DMS3 = DmsModel((0.2, 0.3, 0.5))
LN2 = math.log(2.0)
SWEEP_CFG = QuadConfig(rel_tol=1e-8, abs_tol=1e-10)


def test_dms_validation():
    with pytest.raises(DomainError):
        DmsModel((0.5, 0.6))
    with pytest.raises(DomainError):
        DmsModel((1.2, -0.2))
    with pytest.raises(DomainError):
        DmsModel(())
    assert BSS.alphabet_size == 2
    assert BSS.entropy() == pytest.approx(LN2, abs=1e-15)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy_integral(0.0) == 0.0
        assert binary_entropy_integral(1.0) == 0.0

    def test_maximum(self):
        assert abs(binary_entropy_integral(0.5) - LN2) <= 1e-10

    def test_generic_point(self):
        x = 0.11
        direct = -x * math.log(x) - (1 - x) * math.log(1 - x)
        assert abs(binary_entropy_integral(x) - direct) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy_integral(-0.01)
        with pytest.raises(DomainError):
            binary_entropy_integral(1.01)


class TestExpectedHb:
    def test_deterministic_half(self):
        assert abs(expected_hb(constant_mgf(0.5)) - LN2) <= 1e-10

    def test_deterministic_zero(self):
        assert abs(expected_hb(constant_mgf(0.0))) <= 1e-10

    def test_deterministic_one(self):
        # h_b(1) = 0: the reflection term cancels the direct one exactly
        assert abs(expected_hb(constant_mgf(1.0))) <= 1e-10

    def test_uniform_is_half_nat(self):
        # int_0^1 h_b(x) dx = 1/2
        assert abs(expected_hb(uniform01_mgf()) - 0.5) <= 1e-9


class TestExpectedHbMean:
    def test_n1_reduces(self):
        u = uniform01_mgf()
        assert expected_hb_mean_iid(u, 1) == pytest.approx(expected_hb(u), abs=1e-11)

    def test_paper_sequence(self):
        # printed to three decimals: 0.602, 0.634, 0.650, 0.659
        u = uniform01_mgf()
        for n, expected in [(2, 0.602), (3, 0.634), (4, 0.650), (5, 0.659)]:
            assert abs(expected_hb_mean_iid(u, n) - expected) <= 5e-4

    def test_large_n_near_ln2(self):
        assert abs(expected_hb_mean_iid(uniform01_mgf(), 200) - LN2) <= 0.01


class TestAvsRedundancy:
    def test_n1_zero(self):
        assert abs(avs_redundancy(uniform01_mgf(), 1)) <= 1e-10

    def test_n2_value(self):
        assert abs(avs_redundancy(uniform01_mgf(), 2) - 0.102) <= 1e-3

    def test_nonnegative_grid(self):
        u = uniform01_mgf()
        for n in [1, 2, 3, 5, 8, 13, 21, 34, 50]:
            assert avs_redundancy(u, n) >= -2e-10


class TestPhiKernel:
    def test_moments_at_zero(self):
        for dms, idx, n in [(BSS, 0, 4), (DMS3, 2, 6)]:
            p = dms.probs[idx]
            v, d1, d2 = phi_kernel(dms, n, idx, 0.0)
            assert float(v) == pytest.approx(1.0, abs=1e-14)
            assert float(d1) == pytest.approx(p, abs=1e-14)
            # second moment of a Binomial(n, p)/n
            assert float(d2) == pytest.approx(p * (1 - p) / n + p * p, abs=1e-13)

    def test_bss_closed_form_and_binomial_sum(self):
        n, t = 3, -1.0
        v, _, _ = phi_kernel(BSS, n, 0, t)
        closed = ((1.0 + exp(t / n)) / 2.0) ** n
        direct = sum(comb(n, k) * 2.0 ** -n * exp(t * k / n) for k in range(n + 1))
        assert float(v) == pytest.approx(closed, rel=1e-14)
        assert float(v) == pytest.approx(direct, rel=1e-13)

    def test_derivatives_match_finite_differences(self):
        h = 1e-5
        for dms, n, idx, t in [(BSS, 4, 1, -0.7), (DMS3, 9, 0, -2.0)]:
            vm, _, _ = phi_kernel(dms, n, idx, t - h)
            vp, _, _ = phi_kernel(dms, n, idx, t + h)
            v0, d1, d2 = phi_kernel(dms, n, idx, t)
            assert abs(float(d1) - (float(vp) - float(vm)) / (2 * h)) <= 1e-6
            fd2 = (float(vp) - 2 * float(v0) + float(vm)) / (h * h)
            assert abs(float(d2) - fd2) <= 1e-5


    def test_index_array_matches_scalar_calls(self):
        t = np.array([-2.0, -0.3, 0.0])
        letters = np.arange(3)[:, None]
        stacked = phi_kernel(DMS3, 6, letters, t)
        for k in range(3):
            for got, want in zip(stacked, phi_kernel(DMS3, 6, k, t)):
                np.testing.assert_array_equal(got[k], want)


class TestPsiKernel:
    def test_normalization(self):
        v, _ = psi_kernel(DMS3, 5, 0, 2, 0.0, 0.0)
        assert float(v) == pytest.approx(1.0, abs=1e-14)

    def test_bss_closed_form(self):
        n = 7
        s, t = -0.4, -1.1
        v, d2 = psi_kernel(BSS, n, 0, 1, s, t)
        closed = ((exp(s / n) + exp(t / n)) / 2.0) ** n
        assert float(v) == pytest.approx(closed, rel=1e-14)
        _, d2_00 = psi_kernel(BSS, n, 0, 1, 0.0, 0.0)
        assert float(d2_00) == pytest.approx(0.25 * (1.0 - 1.0 / n), rel=1e-14)

    def test_trinomial_sum(self):
        # |alphabet| = 3, n = 2: six-term multinomial enumeration
        n, s, t = 2, -1.0, -2.0
        v, _ = psi_kernel(DMS3, n, 0, 1, s, t)
        p, pp, rest = 0.2, 0.3, 0.5
        total = 0.0
        for k in range(n + 1):
            for l in range(n + 1 - k):
                m_ = n - k - l
                w = factorial(n) / (factorial(k) * factorial(l) * factorial(m_))
                total += w * p ** k * pp ** l * rest ** m_ * exp(s * k / n + t * l / n)
        assert float(v) == pytest.approx(total, rel=1e-13)

    def test_mixed_derivative_matches_finite_differences(self):
        n, s, t = 5, -0.8, -1.3
        h = 1e-5
        grid = {}
        for ds in (-h, h):
            for dt in (-h, h):
                grid[(ds, dt)], _ = psi_kernel(DMS3, n, 0, 2, s + ds, t + dt)
        fd = (float(grid[(h, h)]) - float(grid[(h, -h)])
              - float(grid[(-h, h)]) + float(grid[(-h, -h)])) / (4 * h * h)
        _, d2 = psi_kernel(DMS3, n, 0, 2, s, t)
        assert abs(float(d2) - fd) <= 1e-6

    def test_same_letter_raises(self):
        with pytest.raises(SameLetterError):
            psi_kernel(BSS, 3, 1, 1, 0.0, 0.0)
        with pytest.raises(SameLetterError):
            psi_kernel(DMS3, 3, np.array([0, 1, 2]), np.array([1, 2, 2]), 0.0, 0.0)

    def test_index_arrays_match_scalar_calls(self):
        s, t = np.array([-1.5, -0.2, 0.0]), np.array([0.0, -0.7, -3.0])
        i, j = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 1])
        stacked = psi_kernel(DMS3, 6, i[:, None], j[:, None], s, t)
        for k in range(4):
            for got, want in zip(stacked, psi_kernel(DMS3, 6, i[k], j[k], s, t)):
                np.testing.assert_array_equal(got[k], want)


class TestEmpiricalMean:
    def test_n1_zero(self):
        assert abs(empirical_entropy_mean(BSS, 1)) <= 1e-12
        assert empirical_entropy_mean_direct(BSS, 1) == 0.0

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    def test_integral_vs_direct(self, n):
        q = empirical_entropy_mean(BSS, n)
        d = empirical_entropy_mean_direct(BSS, n)
        assert abs(q - d) <= 1e-9

    def test_direct_bss_n2(self):
        # types {0, 1/2, 1} with P(1/2) = 1/2
        assert empirical_entropy_mean_direct(BSS, 2) == pytest.approx(0.5 * LN2, rel=1e-13)

    def test_paper_values_bits(self):
        gap100 = 1.0 - empirical_entropy_mean_direct(BSS, 100) / LN2
        gap1000 = 1.0 - empirical_entropy_mean_direct(BSS, 1000) / LN2
        assert abs(gap100 - 7.25e-3) <= 0.01 * 7.25e-3
        assert abs(gap1000 - 7.217e-4) <= 0.005 * 7.217e-4

    def test_plug_in_bias_direction(self):
        for dms in (BSS, DMS3):
            for n in (2, 7, 25):
                assert empirical_entropy_mean(dms, n) <= dms.entropy() + 1e-12

    def test_wald_rate(self):
        val = 1000.0 * (LN2 - empirical_entropy_mean_direct(BSS, 1000))
        assert abs(val - 0.5) <= 0.05 * 0.5


class TestEmpiricalVar:
    def test_n1_zero(self):
        assert empirical_entropy_var(BSS, 1) == 0.0

    def test_bss_n2_closed_form(self):
        assert abs(empirical_entropy_var(BSS, 2) - LN2 * LN2 / 4.0) <= 1e-12

    @pytest.mark.parametrize("n", [5, 20])
    def test_paths_agree(self, n):
        a = empirical_entropy_var(BSS, n, method="bss")
        b = empirical_entropy_var(BSS, n, method="general")
        assert abs(a - b) <= 2e-10

    def test_enumeration_oracle_three_letters(self):
        mean, var = enumerate_empirical_entropy(DMS3, 12)
        assert abs(empirical_entropy_mean(DMS3, 12) - mean) <= 1e-9
        assert abs(empirical_entropy_var(DMS3, 12) - var) <= 1e-9

    def test_enumeration_oracle_six_letters(self):
        dms = DmsModel((0.05, 0.1, 0.15, 0.2, 0.22, 0.28))
        _, var = enumerate_empirical_entropy(dms, 12)
        assert abs(empirical_entropy_var(dms, 12) - var) <= 1e-9

    def test_nonnegative_and_decaying(self):
        v100 = empirical_entropy_var(BSS, 100, SWEEP_CFG)
        v1000 = empirical_entropy_var(BSS, 1000, SWEEP_CFG)
        assert v100 >= -1e-9 and v1000 >= -1e-9
        assert math.sqrt(v1000) < math.sqrt(v100)

    def test_bss_path_rejects_other_sources(self):
        with pytest.raises(DomainError):
            empirical_entropy_var(DMS3, 5, method="bss")


class TestKtRedundancy:
    def test_bss_n1_zero(self):
        # first symbol coded with Q = 1/2 = P exactly, whatever the bias
        for s in (0.5, 0.736, 2.0):
            assert kt_redundancy(BSS, 1, s) == 0.0

    def test_n1_is_ln_k_minus_entropy(self):
        # the first symbol costs ln K nats; through the integral this
        # source's value came back 1e-7 off, flagged converged
        dms = DmsModel((0.18228730585542507, 0.7138314627118234, 0.10388123143275152))
        assert abs(kt_redundancy(dms, 1, 0.736) - (math.log(3.0) - dms.entropy())) <= 1e-12

    def test_nonnegative_bss(self):
        for n in [1, 2, 3, 5, 10, 30, 100, 500, 2000, 5000]:
            assert kt_redundancy(BSS, n, 0.5) >= -1e-12

    def test_slope_one_half(self):
        ns = np.array([100, 200, 500, 1000, 2000, 5000])
        nrn = np.array([n * kt_redundancy(BSS, int(n), 0.5) for n in ns])
        a = np.vstack([np.log(ns), np.ones(ns.size)]).T
        slope = np.linalg.lstsq(a, nrn, rcond=None)[0][0]
        assert abs(slope - 0.5) <= 0.02

    def test_matches_mc_oracle(self):
        n = 64
        val = kt_redundancy(BSS, n, 0.5)
        est = mc_kt_redundancy(BSS, n, 0.5, McConfig(trials=400_000, seed=11111))
        assert abs(val - est.mean) <= 3.0 * est.std_error

    def test_asymmetric_source(self):
        val = kt_redundancy(DMS3, 128, 0.5)
        est = mc_kt_redundancy(DMS3, 128, 0.5, McConfig(trials=200_000, seed=22222))
        assert abs(val - est.mean) <= 3.0 * est.std_error

    def test_bias_domain(self):
        with pytest.raises(DomainError):
            kt_redundancy(BSS, 4, 0.0)
