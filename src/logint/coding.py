"""Universal source coding quantities via the log integral representation.

Three problem families share the machinery here:

* Arbitrarily varying binary sources: the binary entropy function has the
  representation h_b(x) = int (1/u)[x e^{-ux} + (1-x) e^{-u(1-x)} - e^{-u}] du,
  so E{h_b(X)} for X in [0, 1] needs only M_X and M_X', and the mean of n
  i.i.d. parameters enters through M_X^n(u/n) after rescaling.  The
  expected redundancy of a code matched to the average parameter is the
  difference of the two.

* Moments of the plug-in (empirical) entropy of a DMS sample: the
  per-letter MGF of the empirical frequency is
  phi_n(x,t) = [1 - P(x) + P(x) e^{t/n}]^n, with psi_n the two-letter
  joint version; their derivatives turn E{H_hat} into one and
  Var{H_hat} into two integrals whose cost does not grow with n.  The
  binary symmetric source admits specialized kernels (dispatched
  automatically) that are about |alphabet|^2 cheaper.

* The Krichevsky-Trofimov sequential code: summing the per-step
  redundancies of Q(x|past) = (N(x)+s)/(t+s|A|) geometric-series style
  gives a single integral for R_n.  Its two bracket terms each diverge
  at u -> 0 and only their joint difference is integrable, so the
  bracket is always evaluated jointly, with a series fallback below
  u = 1e-6 where cancellation would drown the O(u) remainder.

Everything returns nats; conversion to bits happens at the CLI only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mgf import MgfSpec
from .quadrature import (QuadConfig, integrate_semi_infinite,
                         integrate_semi_infinite_2d, require_converged)
from .special import ln_gamma

__all__ = [
    "DmsModel",
    "SameLetterError",
    "binary_entropy_integral",
    "expected_hb",
    "expected_hb_mean_iid",
    "avs_redundancy",
    "phi_kernel",
    "psi_kernel",
    "empirical_entropy_mean",
    "empirical_entropy_mean_direct",
    "empirical_entropy_var",
    "kt_redundancy",
]


class SameLetterError(DomainError):
    """psi_kernel needs two distinct letters."""


@dataclass(frozen=True)
class DmsModel:
    """Finite-alphabet letter probabilities of a discrete memoryless source."""

    probs: tuple

    def __post_init__(self):
        p = tuple(float(x) for x in self.probs)
        object.__setattr__(self, "probs", p)
        if len(p) < 1:
            raise DomainError("DmsModel needs at least one letter")
        if any(x <= 0.0 or x > 1.0 for x in p):
            raise DomainError(f"letter probabilities must lie in (0, 1], got {p}")
        if abs(math.fsum(p) - 1.0) > 1e-12:
            raise DomainError(f"letter probabilities must sum to 1, got {math.fsum(p)}")

    @property
    def alphabet_size(self) -> int:
        return len(self.probs)

    def entropy(self) -> float:
        """Source entropy in nats."""
        return -math.fsum(p * math.log(p) for p in self.probs)

    def is_bss(self) -> bool:
        return (len(self.probs) == 2
                and abs(self.probs[0] - 0.5) < 1e-15
                and abs(self.probs[1] - 0.5) < 1e-15)


def _check_n(n: int):
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n!r}")


def binary_entropy_integral(x: float, cfg: QuadConfig | None = None) -> float:
    """h_b(x) in nats through the integral representation; 0 at the endpoints."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary_entropy_integral requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0

    def f(u):
        return (x * np.exp(-u * x) + (1.0 - x) * np.exp(-u * (1.0 - x)) - np.exp(-u)) / u

    return require_converged(integrate_semi_infinite(f, cfg),
                             f"binary_entropy_integral(x={x})")


def expected_hb(x_mgf: MgfSpec, cfg: QuadConfig | None = None) -> float:
    """E{h_b(X)} in nats for X supported on [0, 1].

    Uses the reflection e^{-u}[M(u) - M'(u)] for the (1-X) term, taken
    through the MGF's scaled evaluators so nothing overflows at large u.
    """

    def f(u):
        return (x_mgf.m1(-u) + x_mgf.scaled_m(u) - x_mgf.scaled_m1(u) - np.exp(-u)) / u

    return require_converged(integrate_semi_infinite(f, cfg),
                             f"expected_hb({x_mgf.label})")


def expected_hb_mean_iid(x_mgf: MgfSpec, n: int, cfg: QuadConfig | None = None) -> float:
    """E{h_b((X_1+...+X_n)/n)} in nats for i.i.d. X_i supported on [0, 1]."""
    _check_n(n)

    def f(t):
        neg = x_mgf.m(-t) ** (n - 1) * x_mgf.m1(-t)
        pos = (x_mgf.scaled_m(t) ** n - x_mgf.scaled_m(t) ** (n - 1) * x_mgf.scaled_m1(t)
               - np.exp(-n * t))
        return (neg + pos) / t

    return require_converged(integrate_semi_infinite(f, cfg),
                             f"expected_hb_mean_iid({x_mgf.label}, n={n})")


def avs_redundancy(x_mgf: MgfSpec, n: int, cfg: QuadConfig | None = None) -> float:
    """Expected redundancy (nats/symbol) of coding for the average parameter:
    E{h_b(mean of n)} - E{h_b(X)}.  Nonnegative by concavity of h_b."""
    return expected_hb_mean_iid(x_mgf, n, cfg) - expected_hb(x_mgf, cfg)


def phi_kernel(dms: DmsModel, n: int, x_index, t):
    """Empirical-frequency MGF phi_n(x,t) = [1-P+P e^{t/n}]^n of letter x,
    returned with its first two t-derivatives.

    x_index may be an integer array; it broadcasts against t.
    """
    _check_n(n)
    p = np.asarray(dms.probs)[x_index]
    t = np.asarray(t, dtype=float)
    e = np.exp(t / n)
    base = 1.0 - p + p * e
    value = base ** n
    d1 = p * e * base ** (n - 1)
    d2 = (p * e / n) * base ** (n - 2) * (1.0 - p + n * p * e)
    return value, d1, d2


def psi_kernel(dms: DmsModel, n: int, x_index, xp_index, s, t):
    """Joint empirical-frequency MGF psi_n(x,x',s,t) of two distinct letters,
    returned with its mixed second derivative.

    x_index and xp_index may be integer arrays of letter pairs; they
    broadcast against s and t, and every pair must be distinct.
    """
    _check_n(n)
    same = np.asarray(x_index) == np.asarray(xp_index)
    if same.any():
        twice = np.broadcast_to(x_index, same.shape)[same][0]
        raise SameLetterError(f"psi_kernel needs distinct letters, got index {twice} twice")
    probs = np.asarray(dms.probs)
    p = probs[x_index]
    pp = probs[xp_index]
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    es = np.exp(s / n)
    et = np.exp(t / n)
    base = 1.0 - p * (1.0 - es) - pp * (1.0 - et)
    value = base ** n
    d2_mixed = (1.0 - 1.0 / n) * p * pp * es * et * base ** (n - 2)
    return value, d2_mixed


def empirical_entropy_mean(dms: DmsModel, n: int, cfg: QuadConfig | None = None) -> float:
    """E{H_hat} in nats by the single integral
    int (1/u)[e^{-u} sum_x P(x)(1 - P(x)(1-e^{-u}))^{n-1} - e^{-nu}] du."""
    _check_n(n)
    probs = np.array(dms.probs)

    def f(u):
        w = -np.expm1(-u)  # 1 - e^{-u}
        acc = 0.0
        for p in probs:
            acc = acc + p * np.exp((n - 1) * np.log1p(-p * w))
        return (np.exp(-u) * acc - np.exp(-n * u)) / u

    return require_converged(integrate_semi_infinite(f, cfg),
                             f"empirical_entropy_mean(n={n})")


def empirical_entropy_mean_direct(dms: DmsModel, n: int) -> float:
    """E{H_hat} by the O(n |alphabet|) binomial double sum, in log space.

    Costs grow with n and quadratically with the alphabet when n scales
    with it; the integral form above is the cheap path for large models.
    """
    _check_n(n)
    k = np.arange(1, n + 1)
    log_binom = ln_gamma(n) - np.array([ln_gamma(float(x)) for x in k]) \
        - np.array([ln_gamma(float(n - x + 1)) for x in k])
    total = 0.0
    for p in dms.probs:
        if p == 1.0:
            continue  # single-support letter: H_hat contribution is ln(n/n) = 0
        lw = log_binom + k * math.log(p) + (n - k) * math.log1p(-p)
        total += float(np.sum(np.exp(lw) * np.log(n / k)))
    return total


def _bss_var_integrand(n: int):
    # specialized binary-symmetric-source kernels
    def fn(s):
        es = np.exp(-s)
        return es * ((1.0 + es) / 2.0) ** (n - 2) * (1.0 + n * es) / (n + 1.0)

    def gn(s, t):
        es = np.exp(-s)
        et = np.exp(-t)
        return es * et * ((es + et) / 2.0) ** (n - 2)

    c_same = 0.5 * (1.0 + 1.0 / n)
    c_cross = 0.5 * (1.0 - 1.0 / n)

    def f(u, v):
        euv = np.exp(-(u + v))
        b_same = euv - np.exp(-v) * fn(u / n) - np.exp(-u) * fn(v / n) + fn((u + v) / n)
        b_cross = euv - np.exp(-v) * gn(u / n, 0.0) - np.exp(-u) * gn(0.0, v / n) \
            + gn(u / n, v / n)
        return (c_same * b_same + c_cross * b_cross) / (u * v)

    return f


def _general_var_integrand(dms: DmsModel, n: int):
    # z(r, s, t) = sum_x phi''(x, r) + sum_{x != x'} psi_st(x, x', s, t),
    # with letters (and ordered pairs of distinct letters) on a leading
    # axis in front of the node axes
    letters = np.arange(dms.alphabet_size)
    i, j = np.nonzero(letters[:, None] != letters)

    def z(r, s, t):
        ax = (slice(None),) + (None,) * np.ndim(r)
        return (phi_kernel(dms, n, letters[ax], r)[2].sum(axis=0)
                + psi_kernel(dms, n, i[ax], j[ax], s, t)[1].sum(axis=0))

    z0 = z(0.0, 0.0, 0.0)

    def f(u, v):
        return (np.exp(-u - v) * z0 - np.exp(-v) * z(-u, -u, 0.0)
                - np.exp(-u) * z(-v, 0.0, -v) + z(-u - v, -u, -v)) / (u * v)

    return f


def empirical_entropy_var(dms: DmsModel, n: int, cfg: QuadConfig | None = None,
                          method: str = "auto") -> float:
    """Var{H_hat} in nats^2 by the double integral over the phi/psi second
    derivatives, minus the squared mean from the exact direct sum.

    method: "auto" dispatches the equiprobable binary source to its
    specialized kernels (exact match on probabilities), "general" and
    "bss" force a path.
    """
    _check_n(n)
    if n == 1:
        return 0.0  # empirical distribution is degenerate
    if method == "auto":
        method = "bss" if dms.is_bss() else "general"
    if method == "bss":
        if not dms.is_bss():
            raise DomainError("bss path requires the equiprobable binary source")
        f = _bss_var_integrand(n)
    elif method == "general":
        f = _general_var_integrand(dms, n)
    else:
        raise DomainError(f"unknown method {method!r}")
    second_moment_part = require_converged(
        integrate_semi_infinite_2d(f, cfg), f"empirical_entropy_var(n={n})")
    mean = empirical_entropy_mean_direct(dms, n)
    return second_moment_part - mean * mean


def kt_redundancy(dms: DmsModel, n: int, s_bias: float = 0.5,
                  cfg: QuadConfig | None = None) -> float:
    """Redundancy (nats/symbol) of the Krichevsky-Trofimov sequential code
    with bias s over n symbols of the given source.

    The integrand's two terms individually diverge at u -> 0; they are
    evaluated jointly, and below u = 1e-6 replaced by the series
    c0 + c1 u of their difference (second-order expansion).
    """
    _check_n(n)
    if not (s_bias > 0.0):
        raise DomainError(f"s_bias must be > 0, got {s_bias}")
    if n == 1:
        # the first symbol is coded with Q = 1/K whatever the bias
        return math.log(dms.alphabet_size) - dms.entropy()
    probs = np.array(dms.probs)
    big_k = float(len(probs))
    s2 = float(np.sum(probs ** 2))
    s3 = float(np.sum(probs ** 3))
    # series of (T1 - T2)/u about u = 0
    a = n * (n - 1) * s2 / 2.0
    b = n * (n - 1) * (n - 2) * s3 / 6.0
    c0 = n * s_bias * (big_k * s2 - 1.0)
    c1 = (a / 2.0 + b + s_bias * a + n * s_bias ** 2 / 2.0
          - n * (s_bias ** 2 * big_k ** 2 / 2.0 + n * n / 6.0 - n / 4.0 + 1.0 / 12.0
                 + s_bias * big_k * (n - 1.0) / 2.0) * s3)

    def f(u):
        small = u < 1e-6
        us = np.where(small, 1.0, u)
        w = -np.expm1(-us)  # 1 - e^{-u}
        t1_sum = 0.0
        t2_sum = 0.0
        for p in probs:
            t1_sum = t1_sum + np.exp(n * np.log1p(-p * w))
            t2_sum = t2_sum + p * np.exp(-us * s_bias * big_k * p) \
                * (-np.expm1(-us * n * p)) / (-np.expm1(-us * p))
        t1 = np.exp(-us * s_bias) * (big_k - t1_sum) / w
        direct = (t1 - t2_sum) / us
        return np.where(small, c0 + c1 * u, direct)

    val = require_converged(integrate_semi_infinite(f, cfg),
                            f"kt_redundancy(n={n}, s={s_bias})")
    return val / n
