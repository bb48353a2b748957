"""Differential entropy of generalized multivariate Cauchy densities.

A density C_n / [1 + sum_i g(x_i)]^q with g(x) = |x|^theta is a Gamma
mixture of product measures, so every n-dimensional expectation
collapses onto the one-dimensional partition function

    Z(t) = int e^{-t g(x)} dx = 2 Gamma(1/theta) / (theta t^{1/theta}).

The normalizer follows in closed form, C_n = Gamma(q) / (c^n
Gamma(q - n/theta)) with c = 2 Gamma(1/theta)/theta.  The entropy comes
out as a two-dimensional integral whose dimensionality does not grow
with n,

    h = q/Gamma(q - n/theta)
        * int int t^alpha e^{-(t+u)}/u [1 - (t/(t+u))^{n/theta}] dt du
        - ln C_n,        alpha = q - 1 - n/theta,

and that integral is separable: with u = r t the t axis integrates to
Gamma(1+alpha)/(1+r)^{1+alpha}, and Gamma(1+alpha) cancels the prefactor
(1 + alpha = q - n/theta).  What is left is one integral over r,

    h = q * int [1 - (1+r)^{-n/theta}] / (r (1+r)^{1+alpha}) dr - ln C_n,

whose removable point r = 0 is kept benign by evaluating the bracket as
-expm1(-(n/theta) log1p(r)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import QuadConfig, integrate_semi_infinite, require_converged
# No code here integrates in 2-D; the name stays importable because
# perfbench's tracer tests patch and restore it on this module.
from .quadrature import integrate_semi_infinite_2d  # noqa: F401
from .special import ln_gamma

__all__ = [
    "GenCauchyModel",
    "partition_z",
    "normalizer_cn",
    "gsum_mgf",
    "diff_entropy",
    "multivariate_cauchy_entropy",
]


@dataclass(frozen=True)
class GenCauchyModel:
    """Exponent theta in g(x)=|x|^theta, power q, dimension n.

    Normalizability requires q*theta > n; enforced here because the
    closed-form normalizer needs Gamma(q - n/theta) with a positive
    argument.
    """

    theta: float
    q: float
    n: int

    def __post_init__(self):
        if not (self.theta > 0.0):
            raise DomainError(f"theta must be > 0, got {self.theta}")
        if not (self.q > 0.0):
            raise DomainError(f"q must be > 0, got {self.q}")
        if self.n < 1 or self.n != int(self.n):
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not (self.q * self.theta > self.n):
            raise DomainError(
                f"normalizability needs q*theta > n, got q*theta = "
                f"{self.q * self.theta} with n = {self.n}")


def _z_coef(model: GenCauchyModel) -> float:
    # Z(t) = c * t^{-1/theta}
    return 2.0 * math.exp(ln_gamma(1.0 / model.theta)) / model.theta


def _t_axis(model: GenCauchyModel):
    # substitution exponent for the t^alpha endpoint: t = w^kappa
    alpha = model.q - 1.0 - model.n / model.theta
    kappa = 1.0 / (1.0 + alpha) if alpha < 0.0 else 1.0
    return alpha, kappa


def _ln_normalizer(model: GenCauchyModel) -> float:
    # ln C_n; the entropy needs it in log form, since C_n itself
    # overflows for large n
    q, th, n = model.q, model.theta, model.n
    return ln_gamma(q) - n * math.log(_z_coef(model)) - ln_gamma(q - n / th)


def partition_z(model: GenCauchyModel, t: float) -> float:
    """Z(t) = 2 Gamma(1/theta) / (theta t^{1/theta}), t > 0."""
    if not (t > 0.0):
        raise DomainError(f"partition_z requires t > 0, got {t}")
    return _z_coef(model) / t ** (1.0 / model.theta)


def normalizer_cn(model: GenCauchyModel, cfg: QuadConfig | None = None,
                  method: str = "closed") -> float:
    """C_n = Gamma(q) / int t^{q-1} e^{-t} Z^n(t) dt.

    The denominator is c^n Gamma(q - n/theta) exactly; method="quadrature"
    integrates it numerically instead, as a transcription guard.
    """
    if method == "closed":
        return math.exp(_ln_normalizer(model))
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}, expected 'closed' or 'quadrature'")
    alpha, kappa = _t_axis(model)

    def f(w):
        if alpha < 0.0:
            return kappa * np.exp(-(w ** kappa))
        return w ** alpha * np.exp(-w)

    val = require_converged(integrate_semi_infinite(f, cfg),
                            f"normalizer_cn quadrature ({model})")
    return math.exp(ln_gamma(model.q)) / (_z_coef(model) ** model.n * val)


def gsum_mgf(model: GenCauchyModel, u: float, cfg: QuadConfig | None = None) -> float:
    """E{exp(-u sum_i g(X_i))} = (C_n/Gamma(q)) int t^{q-1} e^{-t} Z^n(t+u) dt.

    At u = 0 this is the mixture normalization identity and equals 1.
    """
    if u < 0.0:
        raise DomainError(f"gsum_mgf requires u >= 0, got {u}")
    q, th, n = model.q, model.theta, model.n
    alpha, kappa = _t_axis(model)
    pref = math.exp(-ln_gamma(q - n / th))  # C_n c^n / Gamma(q)

    def f(w):
        t = w ** kappa if alpha < 0.0 else w
        jac = kappa if alpha < 0.0 else w ** alpha
        return jac * np.exp(-t - (n / th) * np.log1p(u / t))

    val = require_converged(integrate_semi_infinite(f, cfg), f"gsum_mgf({model}, u={u})")
    return pref * val


def diff_entropy(model: GenCauchyModel, cfg: QuadConfig | None = None) -> float:
    """Differential entropy (nats) of the generalized Cauchy vector."""
    alpha, _ = _t_axis(model)
    integral = _bracket_integral(alpha, model.n / model.theta, cfg,
                                 f"diff_entropy({model})")
    return model.q * integral - _ln_normalizer(model)


def multivariate_cauchy_entropy(n: int, cfg: QuadConfig | None = None) -> float:
    """Entropy (nats) of the n-dimensional multivariate Cauchy
    (theta = 2, q = (n+1)/2)."""
    return diff_entropy(GenCauchyModel(2.0, 0.5 * (n + 1), n), cfg)


def _bracket_integral(alpha: float, m_exp: float, cfg: QuadConfig | None,
                      what: str) -> float:
    """int [1 - (1+r)^{-m_exp}] / (r (1+r)^{1+alpha}) dr over [0, inf)."""

    def f(r):
        return -np.expm1(-m_exp * np.log1p(r)) / (r * (1.0 + r) ** (1.0 + alpha))

    return require_converged(integrate_semi_infinite(f, cfg), what)
