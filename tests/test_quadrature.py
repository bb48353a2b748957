"""Adaptive engine: known integrals, error contract, 2D consistency."""

import math
from dataclasses import replace

import numpy as np
import pytest

from logint import coding, simo
from logint.errors import DomainError
from logint.quadrature import (_XK, NonFiniteIntegrandError, QuadConfig,
                               _from_unit, _inner_integrals,
                               integrate_semi_infinite,
                               integrate_semi_infinite_2d)


def test_unit_exponential():
    r = integrate_semi_infinite(lambda u: np.exp(-u))
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-12
    assert r.error_estimate >= 0.0


def test_log_identity_x2():
    # integral of (e^-u - e^-2u)/u is ln 2
    r = integrate_semi_infinite(lambda u: (np.exp(-u) - np.exp(-2.0 * u)) / u)
    assert r.converged
    assert abs(r.value - math.log(2.0)) <= 1e-10


def test_gamma_two():
    r = integrate_semi_infinite(lambda u: u * np.exp(-u))
    assert abs(r.value - 1.0) <= 1e-12


def test_converged_error_contract():
    for f, exact in [
        (lambda u: np.exp(-u), 1.0),
        (lambda u: u * u * np.exp(-3.0 * u), 2.0 / 27.0),
        (lambda u: np.log1p(u) / (u * (1.0 + u)), math.pi ** 2 / 6.0),
        (lambda u: (1.0 + u) ** -1.5, 2.0),
    ]:
        r = integrate_semi_infinite(f)
        assert r.converged
        cfg = QuadConfig()
        assert r.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(r.value))
        # estimate should actually bound the true error on these
        assert abs(r.value - exact) <= 10.0 * max(r.error_estimate, 1e-14)


def test_identity_sweep():
    for x in np.logspace(-3, 3, 50):
        r = integrate_semi_infinite(lambda u: (np.exp(-u) - np.exp(-u * x)) / u)
        assert r.converged
        assert abs(r.value - math.log(x)) <= max(1e-9, 1e-9 * abs(math.log(x)))


def test_linearity():
    rng = np.random.default_rng(1234)
    f = lambda u: np.exp(-u) * np.cos(u)
    g = lambda u: u * np.exp(-2.0 * u)
    rf = integrate_semi_infinite(f)
    rg = integrate_semi_infinite(g)
    for _ in range(5):
        a, b = rng.uniform(-3.0, 3.0, 2)
        rc = integrate_semi_infinite(lambda u: a * f(u) + b * g(u))
        tol = 2.0 * (rf.error_estimate * abs(a) + rg.error_estimate * abs(b)
                     + rc.error_estimate + 1e-12)
        assert abs(rc.value - (a * rf.value + b * rg.value)) <= tol


def test_non_finite_integrand_raises():
    def f(u):
        return np.where(u > 5.0, np.nan, np.exp(-u))

    with pytest.raises(NonFiniteIntegrandError):
        integrate_semi_infinite(f)


def test_2d_non_finite_tagged_with_axis():
    def f(u, v):
        return np.where(v > 5.0, np.nan, np.exp(-(u + v)))

    with pytest.raises(NonFiniteIntegrandError) as excinfo:
        integrate_semi_infinite_2d(f)
    assert excinfo.value.axis == "inner"

    def g(u, v):
        return np.where(u > 5.0, np.nan, 1.0) * np.exp(-(u + v))

    with pytest.raises(NonFiniteIntegrandError) as excinfo:
        integrate_semi_infinite_2d(g)
    assert excinfo.value.axis in ("inner", "outer")


def test_budget_exhaustion_returns_unconverged():
    cfg = QuadConfig(max_subdivisions=2)
    # needle at u ~ 50 on top of slow decay needs many panels
    r = integrate_semi_infinite(
        lambda u: np.exp(-((u - 50.0) ** 2)) + (1.0 + u) ** -2.5, cfg)
    assert not r.converged
    assert r.subdivisions_used == 2


def test_config_validation():
    with pytest.raises(DomainError):
        QuadConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadConfig(abs_tol=-1.0)
    with pytest.raises(DomainError):
        QuadConfig(max_subdivisions=0)


def test_2d_unit_product():
    r = integrate_semi_infinite_2d(lambda u, v: np.exp(-(u + v)))
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-11


def test_2d_unit_product_call_count():
    calls = []

    def f(u, v):
        calls.append(u.shape)
        return np.exp(-(u + v))

    integrate_semi_infinite_2d(f)
    # one call per inner step of each outer panel pair, not one per node
    assert len(calls) <= 40


def _inner_cfg(cfg, u):
    # the inner axis: rel_tol / 10, abs_tol / 10 over the outer Jacobian
    return replace(cfg, rel_tol=cfg.rel_tol / 10.0,
                   abs_tol=max(cfg.abs_tol / 10.0 / (1.0 + u) ** 2, 1e-305))


@pytest.mark.parametrize("f", [
    simo._variance_integrand(simo.SimoChannel((0.5, 1.0), 1000.0)),
    coding._bss_var_integrand(97),
    coding._general_var_integrand(coding.DmsModel((0.1, 0.2, 0.3, 0.15, 0.25)), 20),
], ids=["capacity_variance", "bss_var", "general_var_k5"])
def test_batched_inner_matches_scalar(f):
    # the 30 outer nodes of the first outer panel pair
    us = _from_unit(np.concatenate([0.25 + 0.25 * _XK, 0.75 + 0.25 * _XK]))
    cfg = QuadConfig()
    _, (value, error, splits, converged) = _inner_integrals(f, us, cfg)
    for i, u in enumerate(us):
        r = integrate_semi_infinite(lambda v: f(u, v), _inner_cfg(cfg, u))
        assert splits[i] == r.subdivisions_used
        assert converged[i] == r.converged
        assert abs(value[i] - r.value) <= 10.0 * max(error[i], r.error_estimate)


def test_2d_unconverged_inner_counts_in_error():
    # a narrow bump on the inner axis that 6 subdivisions cannot resolve;
    # the outer axis alone converges within that budget
    cfg = QuadConfig(max_subdivisions=6)
    bump = lambda v: np.exp(-(((v - 2.0) / 0.05) ** 2))
    seen = set()

    def f(u, v):
        seen.update(np.unique(u).tolist())
        return np.exp(-u) * bump(v)

    r = integrate_semi_infinite_2d(f, cfg)
    assert not r.converged
    amplified = 0.0
    for u in seen:
        ri = integrate_semi_infinite(lambda v: math.exp(-u) * bump(v), _inner_cfg(cfg, u))
        if not ri.converged:
            amplified = max(amplified, ri.error_estimate * (1.0 + u) ** 2)
    assert amplified > 0.0
    assert r.error_estimate >= amplified
    exact = 0.025 * math.sqrt(math.pi) * (1.0 + math.erf(40.0))
    assert abs(r.value - exact) <= r.error_estimate


def test_2d_gamma_product():
    r = integrate_semi_infinite_2d(lambda u, v: u * v * np.exp(-(u + v)))
    assert abs(r.value - 1.0) <= 1e-10


def test_2d_deterministic_mgf_integrand_is_zero():
    # Var{ln(1+X)} integrand for X = c: MGF factorizes, integrand vanishes
    c = 2.0

    def f(u, v):
        m = lambda t: np.exp(c * t)
        return np.exp(-(u + v)) * (m(-u - v) - m(-u) * m(-v)) / (u * v)

    r = integrate_semi_infinite_2d(f)
    assert abs(r.value) <= 1e-10


def test_2d_separable_matches_1d_product():
    g = lambda u: np.exp(-u) / (1.0 + u)
    h = lambda v: np.exp(-2.0 * v) * (1.0 + v)
    rg = integrate_semi_infinite(g)
    rh = integrate_semi_infinite(h)
    r2 = integrate_semi_infinite_2d(lambda u, v: g(u) * h(v))
    tol = 2.0 * (rg.error_estimate + rh.error_estimate + r2.error_estimate) + 1e-11
    assert abs(r2.value - rg.value * rh.value) <= tol


def test_algebraic_tail():
    # u^{-3/2} beyond 1: integral is 2; exercises deep tail splitting
    r = integrate_semi_infinite(lambda u: np.where(u < 1.0, 0.0, u ** -1.5))
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-9
