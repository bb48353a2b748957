"""The oracles against each other and against logint's own exact oracles."""

import math

import numpy as np
import pytest
from scipy.special import exp1

import oracles
import workloads
from logint.coding import DmsModel
from logint.oracles import enumerate_empirical_entropy


@pytest.mark.parametrize("probs, n", [((0.5, 0.5), 7), ((0.5, 0.5), 30),
                                      ((0.2, 0.3, 0.5), 12), ((0.1, 0.2, 0.3, 0.4), 9)])
def test_exact_sums_match_enumeration(probs, n):
    mean, var = enumerate_empirical_entropy(DmsModel(probs), n)
    assert oracles.empirical_entropy_mean(probs, n)[0] == pytest.approx(mean, rel=1e-13, abs=1e-15)
    assert oracles.empirical_entropy_var(probs, n)[0] == pytest.approx(var, rel=1e-10, abs=1e-15)


def test_cauchy_closed_form_at_n1_is_ln_4pi():
    assert oracles.multivariate_cauchy_entropy(1)[0] == pytest.approx(math.log(4 * math.pi), rel=1e-15)
    # the general form reduces to the multivariate one at theta = 2, q = (n+1)/2
    assert oracles.gen_cauchy_entropy(2.0, 2.5, 4)[0] == pytest.approx(
        oracles.multivariate_cauchy_entropy(4)[0], rel=1e-14)


def test_trigamma_identities():
    assert oracles.var_ln_gamma(1, 1.0)[0] == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
    assert oracles.var_ln_gamma(2, 2.0)[0] == pytest.approx((math.pi ** 2 / 6 - 1) / 4, rel=1e-15)


def test_simo_partial_fractions_match_the_two_antenna_example():
    for rho in (0.1, 1.0, 100.0):
        x1, x2 = 1 / rho, 2 / rho
        example = 2 * math.exp(x1) * exp1(x1) - math.exp(x2) * exp1(x2)
        assert oracles.simo_capacity((0.5, 1.0), rho)[0] == pytest.approx(example, rel=1e-12)


def test_uniform_avs_exact_and_asymptotic_agree():
    assert oracles.hb_mean_uniform(1)[0] == pytest.approx(0.5, rel=1e-15)
    assert oracles.hb_mean_uniform(2)[0] == pytest.approx(0.602, abs=5e-4)
    exact = oracles.hb_mean_uniform(40)[0]
    asym = math.log(2) - 1 / 240 - 1 / (36 * 1600) - 1 / (135 * 64000)
    assert abs(exact - asym) <= 1 / 40 ** 4


def test_kt_double_and_high_precision_paths_agree():
    probs = workloads.dirichlet_source(np.random.default_rng(3), 12)
    fast, err = oracles._kt_double(probs, 100_000, 0.7)
    slow, _ = oracles._kt_precise(probs, 100_000, 0.7)
    assert abs(fast - slow) <= err


@pytest.mark.parametrize("probs, s", [((0.5, 0.5), 0.5), ((0.2, 0.3, 0.5), 1.3),
                                      ((0.05, 0.15, 0.3, 0.5), 0.35)])
def test_kt_sweep_matches_the_windowed_sums(probs, s):
    sweep = oracles.kt_sweep(probs, 600, s)
    for n in (1, 2, 3, 17, 100, 600):
        v, err = oracles.kt_n_redundancy(probs, n, s)
        assert abs(sweep[n - 1][0] - v) <= err + sweep[n - 1][1]


def test_kt_asymptotic_law_for_s_half():
    # n R_n -> (K-1)/2 ln(n / 2 pi e) + ln(Gamma(1/2)^K / Gamma(K/2))
    for probs in ((0.5, 0.5), (0.2, 0.3, 0.5)):
        k = len(probs)
        n = 10 ** 8
        law = (k - 1) / 2 * math.log(n / (2 * math.pi * math.e)) + \
            k * math.lgamma(0.5) - math.lgamma(k / 2)
        assert oracles.kt_n_redundancy(probs, n, 0.5)[0] == pytest.approx(law, abs=1e-6)


def test_entropy_mean_window_and_expansion_agree_at_the_cutoff():
    n, p = 10 ** 6, 0.3
    (k, w), = oracles._binom_windows(n, [p])
    x = k / n
    assert math.fsum(w * -x * np.log(x)) == pytest.approx(oracles._ent_moments(n, p), abs=1e-14)
