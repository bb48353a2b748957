"""Ergodic capacity and log-capacity variance of the Rayleigh SIMO channel.

With L receive antennas, i.i.d. circularly-symmetric complex Gaussian
transfer coefficients of variances sigma_l^2, and SNR rho, the summed
gain X = rho sum |h_l|^2 has the MGF prod_l 1/(1 - t rho sigma_l^2),
so the capacity C = E{ln(1 + X)} is logmoments.expect_ln1p of that
product MGF:

    C = int_0^inf e^{-u}/u * (1 - prod_l 1/(1 + u rho sigma_l^2)) du.

Its integrand has features at u ~ 1 and at u ~ 1/E{X} = 1/(rho
sum sigma_l^2); expect_ln1p integrates over u*sqrt(E{X}) so that the
quadrature map is centred between the two, which keeps the capacity
accurate from rho = 1e-8 to 1e12.  With distinct variances, partial
fractions turn the same integral into a combination of
exponential-integral terms (1/s2) e^{1/(s2 rho)} E1(1/(s2 rho)), which
is also the closed form used for the two-antenna (1/2, 1) example.

The variance is still the double integral over the MGF covariance.
logmoments.var_ln1p of the same gain MGF gives it in one dimension,
but it stays the package's one cheap 2-D integral, which the tracing
test of perfbench needs among its cheap operations.

All functions take rho on a linear scale; only the CLI speaks dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .logmoments import expect_ln1p
from .mgf import product_mgf, simo_gain_mgf
from .quadrature import QuadConfig, integrate_semi_infinite_2d, require_converged
from .special import exp_integral_e1_scaled

__all__ = [
    "SimoChannel",
    "RepeatedSigmaError",
    "ergodic_capacity",
    "capacity_closed_form_example",
    "capacity_partial_fractions",
    "capacity_variance",
]


class RepeatedSigmaError(DomainError):
    """Partial fractions need pairwise distinct antenna variances."""


@dataclass(frozen=True)
class SimoChannel:
    """Antenna variance profile (sigma_1^2, ..., sigma_L^2) and linear SNR."""

    sigma_sq: tuple
    rho: float

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigma_sq)
        object.__setattr__(self, "sigma_sq", sig)
        if len(sig) < 1:
            raise DomainError("SimoChannel needs at least one antenna")
        if any(s <= 0.0 for s in sig):
            raise DomainError(f"all sigma_sq must be > 0, got {sig}")
        if not (self.rho > 0.0):
            raise DomainError(f"rho must be > 0, got {self.rho}")


def ergodic_capacity(ch: SimoChannel, cfg: QuadConfig | None = None) -> float:
    """Capacity in nats per channel use: E{ln(1+X)} of the summed gain X."""
    gain = product_mgf([simo_gain_mgf(s, ch.rho) for s in ch.sigma_sq])
    return expect_ln1p(gain, cfg)


def capacity_closed_form_example(rho: float) -> float:
    """The L=2, sigma^2=(1/2, 1) closed form 2 e^{1/rho}E1(1/rho) - e^{2/rho}E1(2/rho).

    Evaluated through the scaled routine e^x E1(x), so small rho cannot
    overflow the exponential factor.
    """
    if not (rho > 0.0):
        raise DomainError(f"rho must be > 0, got {rho}")
    return 2.0 * exp_integral_e1_scaled(1.0 / rho) - exp_integral_e1_scaled(2.0 / rho)


def capacity_partial_fractions(ch: SimoChannel) -> float:
    """Closed-form capacity for pairwise distinct antenna variances.

    (1/x)(1 - prod 1/(1+s_l x)) decomposes into sum_l a_l/(1+s_l x) with
    residues a_l = s_l / prod_{j != l}(1 - s_j/s_l); each term integrates
    to (a_l/s_l) e^{1/(s_l rho)} E1(1/(s_l rho)).
    """
    sig = ch.sigma_sq
    for i in range(len(sig)):
        for j in range(i + 1, len(sig)):
            if abs(sig[i] - sig[j]) <= 1e-12 * max(sig[i], sig[j]):
                raise RepeatedSigmaError(
                    f"sigma_sq[{i}] and sigma_sq[{j}] coincide ({sig[i]}, {sig[j]}); "
                    "use ergodic_capacity instead")
    total = 0.0
    for l, sl in enumerate(sig):
        denom = 1.0
        for j, sj in enumerate(sig):
            if j != l:
                denom *= 1.0 - sj / sl
        a_l = sl / denom
        total += (a_l / sl) * exp_integral_e1_scaled(1.0 / (sl * ch.rho))
    return total


def _variance_integrand(ch: SimoChannel):
    # Cov(e^{-u(1+X)}, e^{-v(1+X)})/(uv) for the summed gain X, written
    # in x = rho u and y = rho v
    sig = np.array(ch.sigma_sq)
    rho = ch.rho

    def f(x, y):
        s = x + y
        joint = np.ones_like(np.asarray(y, dtype=float) + x)
        split = np.ones_like(joint)
        for sl in sig:
            joint = joint * (1.0 + sl * s)
            split = split * ((1.0 + sl * x) * (1.0 + sl * y))
        return np.exp(-s / rho) * (1.0 / joint - 1.0 / split) / (x * y)

    return f


def capacity_variance(ch: SimoChannel, cfg: QuadConfig | None = None) -> float:
    """Var{ln(1 + rho sum |h_l|^2)} in nats^2, by double quadrature."""
    return require_converged(integrate_semi_infinite_2d(_variance_integrand(ch), cfg),
                             f"capacity_variance(sigma_sq={ch.sigma_sq}, rho={ch.rho})")
