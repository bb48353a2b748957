"""Log moments of positive random variables through their MGFs.

Everything here rests on the identity

    ln x = integral_0^inf (e^{-u} - e^{-ux}) / u du,   x > 0,

which trades the expectation of a logarithm for the usually easier MGF:
E{ln X} = int [e^{-u} - M_X(-u)] du/u.  Sums of n i.i.d. terms raise the
MGF to the n-th power, and the power trick ln x = ln(x^s)/s lets a
tractable MGF of X^s stand in for an intractable one of X.

Second moments stay one-dimensional too.  Differentiating
Gamma(s)(1 - x^{-s}) = int (e^{-u} - e^{-ux}) u^{s-1} du at s = 0 gives

    int (e^{-u} - e^{-ux}) (gamma + ln u) / u du = -(ln x)^2 / 2,

so E{ln^2 X} is one integral against M(-u); a variance is that second
moment of the variable centred on its log-mean.  Only covariances of
two different variables need the double integral over the joint MGF.

The sample space is never integrated over; callers supply MgfSpec
objects whose m(-u) must be evaluable on u in (0, inf).  Commutability
of expectation and u-integration (Fubini) is a documented precondition
on those inputs, not something checked at runtime.  A finite mean is
assumed for the i.i.d.-sum forms; it is a conservative sufficient
condition, not claimed to be necessary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .mgf import JointMgfSpec, MgfSpec
from .quadrature import (QuadConfig, integrate_semi_infinite,
                         integrate_semi_infinite_2d, require_converged)
from .special import EULER_GAMMA, ln_gamma

__all__ = [
    "expect_ln",
    "expect_ln_sum_iid",
    "expect_ln_power_sum",
    "expect_ln1p",
    "var_ln1p",
    "var_ln",
    "cov_ln",
    "fractional_moment_sum_iid",
]


def _check_mgf_domain(x_mgf: MgfSpec):
    if x_mgf.domain_upper < 0.0:
        raise DomainError(
            f"MGF '{x_mgf.label}' is not defined on (-inf, 0] "
            f"(domain_upper={x_mgf.domain_upper})")


def _check_n(n: int):
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n!r}")


def _check_s_positive(s: float):
    if not (s > 0.0):
        raise DomainError(f"power parameter s must be > 0, got {s}")


def expect_ln(x_mgf: MgfSpec, cfg: QuadConfig | None = None) -> float:
    """E{ln X} = int [e^{-u} - m(-u)] du/u for positive X."""
    return expect_ln_sum_iid(x_mgf, 1, cfg)


def expect_ln_sum_iid(x_mgf: MgfSpec, n: int, cfg: QuadConfig | None = None) -> float:
    """E{ln(X_1 + ... + X_n)} = int [e^{-u} - m(-u)^n] du/u, X_i i.i.d. positive."""
    _check_mgf_domain(x_mgf)
    _check_n(n)

    def f(u):
        return (np.exp(-u) - x_mgf.m(-u) ** n) / u

    return require_converged(integrate_semi_infinite(f, cfg),
                             f"expect_ln_sum_iid({x_mgf.label}, n={n})")


def expect_ln_power_sum(x_power_mgf: MgfSpec, n: int, s: float,
                        cfg: QuadConfig | None = None) -> float:
    """E{ln Y} for Y = (X_1^s + ... + X_n^s)^{1/s}, s > 0.

    x_power_mgf must be the MGF of X^s (e.g. gaussian_square_mgf for
    s = 2 over |Z|); the identity ln y = ln(y^s)/s does the rest.
    """
    _check_s_positive(s)
    return expect_ln_sum_iid(x_power_mgf, n, cfg) / s


def expect_ln1p(x_mgf: MgfSpec, cfg: QuadConfig | None = None) -> float:
    """E{ln(1+X)} = int e^{-u} [1 - m(-u)] du/u for nonnegative X.

    The integrand has two feature scales, u ~ 1 from e^{-u} and
    u ~ 1/E{X} from m(-u).  It is integrated over x = u*S with
    S = sqrt(max(1, E{X})), which puts the midpoint of the engine's
    map, x = 1, at their geometric mean when E{X} > 1.  Without it, SIMO
    gains with E{X} above ~3e9 came back flagged converged but up to
    3e-5 off.  S is 1 when E{X} = m1(0) is not finite.
    """
    _check_mgf_domain(x_mgf)
    mean = float(x_mgf.m1(0.0))
    inv_scale = 1.0 / math.sqrt(mean) if math.isfinite(mean) and mean > 1.0 else 1.0

    def f(x):
        u = x * inv_scale
        return np.exp(-u) * (1.0 - x_mgf.m(-u)) / x

    return require_converged(integrate_semi_infinite(f, cfg),
                             f"expect_ln1p({x_mgf.label})")


def var_ln1p(x_mgf: MgfSpec, cfg: QuadConfig | None = None) -> float:
    """Var{ln(1+X)} for nonnegative X; 1+X has MGF e^t m(t)."""
    mean = expect_ln1p(x_mgf, cfg)
    return _centred_var_ln(lambda t: np.exp(t) * x_mgf.m(t), mean, cfg,
                           f"var_ln1p({x_mgf.label})")


def var_ln(x_power_mgf: MgfSpec, s: float, cfg: QuadConfig | None = None) -> float:
    """Var{ln X} = Var{ln X^s} / s^2.

    x_power_mgf is the MGF of X^s; X must be strictly positive so that
    m(-u) decays and the integral converges.
    """
    _check_s_positive(s)
    mean = expect_ln(x_power_mgf, cfg)
    val = _centred_var_ln(x_power_mgf.m, mean, cfg, f"var_ln({x_power_mgf.label})")
    return val / (s * s)


def _centred_var_ln(z_m, mean: float, cfg: QuadConfig | None, what: str) -> float:
    """Var{ln Z} from the MGF z_m of Z and mean ~ E{ln Z}.

    The (gamma + ln u) kernel of the module docstring, applied to
    Z' = e^{-mean} Z, integrates to -E{ln^2 Z'}/2 = -(Var{ln Z} + d^2)/2
    with d = E{ln Z} - mean: the variance itself, with no
    E{ln^2} - (E ln)^2 cancellation, and an error in mean enters only
    squared.  Centring also puts the integrand's features on an O(1)
    scale, whatever the scale of Z.
    """
    c = math.exp(-mean)

    def f(u):
        return (np.exp(-u) - z_m(-c * u)) * (EULER_GAMMA + np.log(u)) / u

    return -2.0 * require_converged(integrate_semi_infinite(f, cfg), what)


def cov_ln(joint: JointMgfSpec, s: float, cfg: QuadConfig | None = None) -> float:
    """Cov{ln X, ln Y} = (1/s^2) * double integral of
    [m(-u,-v) - m(-u,0) m(0,-v)] / (uv), with m the joint MGF of (X^s, Y^s)."""
    _check_s_positive(s)

    def f(u, v):
        return (joint.m(-u, -v) - joint.m(-u, 0.0) * joint.m(0.0, -v)) / (u * v)

    val = require_converged(integrate_semi_infinite_2d(f, cfg),
                            f"cov_ln({joint.label})")
    return val / (s * s)


def fractional_moment_sum_iid(x_mgf: MgfSpec, n: int, rho: float,
                              cfg: QuadConfig | None = None) -> float:
    """E{(X_1 + ... + X_n)^rho} for rho in (0, 1):

        1 + (rho / Gamma(1-rho)) * int [e^{-u} - m(-u)^n] / u^{rho+1} du.

    The integrand behaves like (n E{X} - 1) u^{-rho} at the origin; the
    substitution u = w^{1/(1-rho)} flattens that endpoint so the plain
    adaptive engine applies.  Below u = 1e-6 the numerator is replaced
    by its two-term series to dodge the e^{-u} - m^n cancellation, which
    the u^{-(rho+1)} weight would otherwise amplify.
    """
    _check_mgf_domain(x_mgf)
    _check_n(n)
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho must lie in (0, 1), got {rho}")

    kappa = 1.0 / (1.0 - rho)
    m1_0 = float(x_mgf.m1(0.0))
    m2_0 = float(x_mgf.m2(0.0))
    c1 = n * m1_0 - 1.0
    c2 = 0.5 * (1.0 - n * (n - 1) * m1_0 * m1_0 - n * m2_0)

    def f(w):
        # with u = w^kappa the Jacobian and the u^{-(rho+1)} weight
        # collapse to a single 1/u, so nothing here can overflow
        u = w ** kappa
        small = u < 1e-6
        us = np.where(small, 1.0, u)
        direct = (np.exp(-us) - x_mgf.m(-us) ** n) / us
        series = c1 + c2 * u
        return kappa * np.where(small, series, direct)

    integral = require_converged(
        integrate_semi_infinite(f, cfg),
        f"fractional_moment_sum_iid({x_mgf.label}, n={n}, rho={rho})")
    return 1.0 + rho / math.exp(ln_gamma(1.0 - rho)) * integral
