"""Independent reference values for every op family of the benchmark.

Nothing here calls the function it checks.  The references come from
closed forms (digamma/trigamma identities, the Cauchy entropy, exponential
integrals evaluated by mpmath), from exact binomial sums, or from
asymptotic laws whose truncation error is part of the returned bound.
Each oracle returns ``(value, err)``: the reference and a bound on its
own error, which the checker adds to the op's tolerance.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy import stats
from scipy.special import gammaln

DPS = 50
# mpmath quadratures of smooth integrands: 30 digits already reproduce the
# 50-digit values to double precision, at a third of the cost
QUAD_DPS = 30

# Per-letter cutoff between the exact windowed binomial sum and the
# central-moment expansion: above it the expansion's first omitted term
# is below ~1e-12 absolute, below it the window is at most ~8k terms.
_MOMENT_CUTOFF = 1e5


# -- Cauchy family ----------------------------------------------------------

def gen_cauchy_entropy(theta: float, q: float, n: int):
    """Entropy of C_n / [1 + sum |x_i|^theta]^q.

    S = sum |x_i|^theta is beta-prime(n/theta, q - n/theta) under the
    density, so E ln(1+S) = psi(q) - psi(q - n/theta), and
    h = -ln C_n + q E ln(1+S), C_n = Gamma(q) / (c^n Gamma(q - n/theta)),
    c = 2 Gamma(1/theta) / theta.
    """
    with mp.workdps(DPS):
        th, qq = mp.mpf(theta), mp.mpf(q)
        b = qq - n / th
        ln_c = mp.log(2) + mp.loggamma(1 / th) - mp.log(th)
        ln_cn = mp.loggamma(qq) - n * ln_c - mp.loggamma(b)
        h = -ln_cn + qq * (mp.digamma(qq) - mp.digamma(b))
        return float(h), 1e-14 * abs(float(h))


def multivariate_cauchy_entropy(n: int):
    """(n+1)/2 [psi((n+1)/2) - psi(1/2)] + ln(pi^{(n+1)/2} / Gamma((n+1)/2))."""
    with mp.workdps(DPS):
        a = mp.mpf(n + 1) / 2
        h = a * (mp.digamma(a) - mp.digamma(mp.mpf(1) / 2)) + a * mp.log(mp.pi) - mp.loggamma(a)
        return float(h), 1e-14 * abs(float(h))


# -- log moments ------------------------------------------------------------

def var_ln_gamma(shape: int, s: float):
    """Var{ln X}/... for var_ln(MGF of Y, s): Y ~ Gamma(shape) has
    Var ln Y = trigamma(shape) at any rate, and var_ln returns Var(ln Y)/s^2."""
    with mp.workdps(DPS):
        v = mp.psi(1, shape) / mp.mpf(s) ** 2
        return float(v), 1e-15 * float(v)


def _ln1p_moments(density, points):
    with mp.workdps(QUAD_DPS):
        m1 = mp.quad(lambda x: mp.log1p(x) * density(x), points)
        m2 = mp.quad(lambda x: mp.log1p(x) ** 2 * density(x), points)
        return m2 - m1 * m1


def var_ln1p(dist: str, scale: float, shape: int = 1):
    """Var{ln(1+X)} for X = scale * Y, Y ~ Gamma(shape, 1) or Uniform(0, 1),
    by mpmath quadrature of the density (not of the MGF)."""
    with mp.workdps(QUAD_DPS):
        c = mp.mpf(scale)
        if dist == "gamma":
            k = mp.mpf(shape)
            lgk = mp.loggamma(k)

            def dens(x):
                y = x / c
                return mp.exp((k - 1) * mp.log(y) - y - lgk) / c

            v = _ln1p_moments(dens, [0, c, 10 * c, 100 * c, mp.inf])
        elif dist == "uniform":
            v = _ln1p_moments(lambda x: 1 / c, [0, c])
        else:
            raise ValueError(dist)
        return float(v), 1e-14 * abs(float(v)) + 1e-17


# -- SIMO -------------------------------------------------------------------

def _e1_scaled(x):
    return mp.exp(x) * mp.e1(x)


def _simo_weights(sigma_sq):
    # density of sum_l sigma_l^2 E_l (E_l ~ Exp(1)) for distinct sigma_l^2:
    # sum_l w_l e^{-g/sigma_l^2}/sigma_l^2, w_l = prod_{j!=l} s_l/(s_l - s_j)
    s = [mp.mpf(x) for x in sigma_sq]
    w = []
    for i, si in enumerate(s):
        prod = mp.mpf(1)
        for j, sj in enumerate(s):
            if j != i:
                prod *= si / (si - sj)
        w.append(prod)
    return s, w


def simo_capacity(sigma_sq, rho: float):
    """E ln(1 + rho G) = sum_l w_l e^{1/b_l} E1(1/b_l), b_l = rho sigma_l^2,
    in 40-digit arithmetic so the residues cannot cancel catastrophically."""
    with mp.workdps(DPS):
        s, w = _simo_weights(sigma_sq)
        r = mp.mpf(rho)
        c = mp.fsum(wl * _e1_scaled(1 / (r * sl)) for sl, wl in zip(s, w))
        return float(c), 1e-14 * abs(float(c))


def simo_capacity_variance(sigma_sq, rho: float):
    """Var ln(1 + rho G) from the hypoexponential density, one mpmath
    quadrature of ln^2(1 + b y) e^{-y} per antenna."""
    with mp.workdps(QUAD_DPS):
        s, w = _simo_weights(sigma_sq)
        r = mp.mpf(rho)
        m1 = mp.fsum(wl * _e1_scaled(1 / (r * sl)) for sl, wl in zip(s, w))
        m2 = mp.fsum(wl * mp.quad(lambda y, b=r * sl: mp.log1p(b * y) ** 2 * mp.exp(-y),
                                  [0, 1, 10, mp.inf])
                     for sl, wl in zip(s, w))
        v = m2 - m1 * m1
        return float(v), 1e-13 * abs(float(v))


# -- arbitrarily varying source --------------------------------------------

def hb(p: float):
    """h_b(p) in nats: E h_b of a constant parameter."""
    with mp.workdps(DPS):
        x = mp.mpf(p)
        v = -x * mp.log(x) - (1 - x) * mp.log1p(-x)
        return float(v), 1e-16


@functools.lru_cache(maxsize=None)
def hb_mean_uniform(n: int):
    """E h_b(mean of n i.i.d. U(0,1)).

    n <= 40: exact, from E h_b = -2 E[Xbar ln Xbar] and the Irwin-Hall
    density of S = n Xbar, integrated term by term in high precision.
    n >= 200: ln 2 - 1/(6n) - 1/(36n^2) - 1/(135n^3), from the cumulants
    of the uniform; the first omitted term is O(n^-4), bounded by 1/n^4.
    """
    if n <= 40:
        with mp.workdps(60 + 3 * n):
            nn = mp.mpf(n)

            def prim(j, x):  # antiderivative of x^{j+1} ln x, zero at x = 0
                if x == 0:
                    return mp.mpf(0)
                return x ** (j + 2) / (j + 2) * (mp.log(x) - mp.mpf(1) / (j + 2))

            e_slns = mp.mpf(0)
            for k in range(n):
                # int_k^n s ln s (s-k)^{n-1} ds with (s-k)^{n-1} expanded
                part = mp.fsum(mp.binomial(n - 1, j) * (-k) ** (n - 1 - j)
                               * (prim(j, nn) - prim(j, mp.mpf(k)))
                               for j in range(n))
                e_slns += (-1) ** k * mp.binomial(n, k) * part
            e_slns /= mp.factorial(n - 1)
            v = -2 / nn * (e_slns - nn / 2 * mp.log(nn))
            return float(v), 1e-16
    if n < 200:
        raise ValueError(f"no uniform AVS oracle for 40 < n < 200 (n={n})")
    v = math.log(2.0) - 1.0 / (6 * n) - 1.0 / (36 * n * n) - 1.0 / (135 * n ** 3)
    return v, 1.0 / n ** 4 + 1e-16


# -- empirical entropy and the K-T code ------------------------------------

def _binom_windows(n: int, probs):
    """Per letter: the counts k within mean +- (12 sd + 40) of Bin(n, p) and
    their normalised pmf; the mass left outside is below 1e-30."""
    ks = []
    for p in probs:
        mu = n * p
        sd = math.sqrt(mu * (1.0 - p))
        lo = max(0, int(math.floor(mu - 12.0 * sd - 40.0)))
        hi = min(n, int(math.ceil(mu + 12.0 * sd + 40.0)))
        ks.append(np.arange(lo, hi + 1))
    pv = np.concatenate([np.full(k.size, p) for k, p in zip(ks, probs)])
    w_all = stats.binom.pmf(np.concatenate(ks), n, pv)
    out, at = [], 0
    for k in ks:
        w = w_all[at:at + k.size]
        at += k.size
        out.append((k, w / math.fsum(w)))
    return out


def _ent_moments(n: int, p: float) -> float:
    # E[g(N/n)], g(x) = -x ln x, expanded about p with the binomial central
    # moments of N/n; used once n p (1-p) >= _MOMENT_CUTOFF
    q = 1.0 - p
    m2 = p * q / n
    m3 = p * q * (q - p) / n ** 2
    m4 = p * q * (1.0 + 3.0 * (n - 2) * p * q) / n ** 3
    return -p * math.log(p) - m2 / (2.0 * p) + m3 / (6.0 * p * p) - m4 / (12.0 * p ** 3)


def empirical_entropy_mean(probs, n: int):
    """E H_hat = sum_a E[-(N_a/n) ln(N_a/n)], N_a ~ Bin(n, p_a): an exact
    windowed sum per letter, or the moment expansion for wide letters."""
    wide = [p for p in probs if n * p * (1.0 - p) >= _MOMENT_CUTOFF]
    narrow = [p for p in probs if n * p * (1.0 - p) < _MOMENT_CUTOFF]
    terms = [_ent_moments(n, p) for p in wide]
    for k, w in (_binom_windows(n, narrow) if narrow else []):
        x = k / n
        terms.append(math.fsum(w * np.where(k > 0, -x * np.log(np.where(k > 0, x, 1.0)), 0.0)))
    v = math.fsum(terms)
    return v, 1e-13 * abs(v) + 1e-15


def _kt_double(probs, n: int, s: float):
    # n <= 1e5: lnGamma values stay below ~1e6, so double sums lose at
    # most ~1e-10 absolute
    kk = len(probs)
    terms = [gammaln(n + s * kk), -gammaln(s * kk)]
    for (k, w), p in zip(_binom_windows(n, probs), probs):
        terms.append(-math.fsum(w * gammaln(k + s)))
        terms.append(gammaln(s))
        terms.append(n * p * math.log(p))
    v = math.fsum(terms)
    return v, 1e-15 * n * math.log(n + 2.0) * kk + 1e-13


def _lngamma_letter(n: int, p: float, s: float, window):
    """E lnGamma(N + s), N ~ Bin(n, p), as (big, small): big in mpmath,
    small a double correction of order one."""
    q = 1.0 - p
    mu = n * p
    if window is None:
        m2 = mp.mpf(n) * p * q
        m3 = m2 * (q - p)
        m4 = m2 * (1 + 3 * (n - 2) * mp.mpf(p) * q)
        x = mp.mpf(mu) + s
        big = (mp.loggamma(x) + mp.psi(1, x) * m2 / 2 + mp.psi(2, x) * m3 / 6
               + mp.psi(3, x) * m4 / 24)
        return big, 0.0
    k, w = window
    m = int(round(mu))
    # C_k = lnGamma(k+s) - lnGamma(m+s) - (k-m) ln(m+s), built from log1p
    # terms that are all small, so no digits are lost at large n
    d = np.log1p((np.arange(k[0], k[-1]) - m) / (m + s))
    c = np.concatenate([[0.0], np.cumsum(d)])
    c = c - c[m - k[0]]
    big = mp.loggamma(mp.mpf(m) + s) + (mp.mpf(mu) - m) * mp.log(mp.mpf(m) + s)
    return big, math.fsum(w * c)


def _kt_precise(probs, n: int, s: float):
    # large n: the lnGamma terms reach ~1e10 and cancel to O(ln n), so
    # they are combined in mpmath and only O(1) corrections stay in double
    kk = len(probs)
    narrow = [p for p in probs if n * p * (1.0 - p) < _MOMENT_CUTOFF]
    windows = dict(zip(narrow, _binom_windows(n, narrow))) if narrow else {}
    with mp.workdps(DPS):
        big = mp.loggamma(mp.mpf(n) + s * kk) - mp.loggamma(mp.mpf(s) * kk)
        small = 0.0
        for p in probs:
            b, sm = _lngamma_letter(n, p, s, windows.get(p))
            big += mp.loggamma(s) - b + n * mp.mpf(p) * mp.log(mp.mpf(p))
            small -= sm
        v = float(big) + small
    return v, 1e-12 * abs(v) + 1e-12


def kt_n_redundancy(probs, n: int, s: float):
    """n R_n = E L - n H for the K-T code, L = -ln Q(x^n) with
    Q = prod_a [Gamma(N_a + s)/Gamma(s)] * Gamma(sK)/Gamma(n + sK)."""
    return _kt_double(probs, n, s) if n <= 100_000 else _kt_precise(probs, n, s)


def kt_sweep(probs, n_max: int, s: float) -> list:
    """kt_n_redundancy for n = 1..n_max at once, as a figure sweep needs:
    each letter's Bin(n, p) pmf is carried to n + 1 by one exact step,
    (1-p) w[k] + p w[k-1], and E lnGamma(N + s) is summed about the mode
    so that the terms stay small."""
    kk = len(probs)
    g = gammaln(np.arange(n_max + 1) + s)
    pmfs = [np.zeros(n_max + 1) for _ in probs]
    for w in pmfs:
        w[0] = 1.0
    out = []
    for n in range(1, n_max + 1):
        terms = [gammaln(n + s * kk), -gammaln(s * kk)]
        for w, p in zip(pmfs, probs):
            w[1:n + 1] = (1.0 - p) * w[1:n + 1] + p * w[:n]
            w[0] *= 1.0 - p
            m = int(round(n * p))
            head = w[:n + 1]
            terms.append(-(g[m] + float(np.dot(head, g[:n + 1] - g[m])) / float(head.sum())))
            terms.append(gammaln(s))
            terms.append(n * p * math.log(p))
        v = math.fsum(terms)
        out.append((v, 1e-14 * n * math.log(n + 2.0) * kk + 1e-13))
    return out


def empirical_entropy_var(probs, n: int):
    """Var{H_hat} = sum_a Var g(N_a) + sum_{a != b} Cov(g(N_a), g(N_b)),
    exact: N_b given N_a = i is Bin(n - i, p_b / (1 - p_a))."""
    k = np.arange(n + 1)
    x = k / n
    g = np.where(k > 0, -x * np.log(np.where(k > 0, x, 1.0)), 0.0)
    pmf = [stats.binom.pmf(k, n, p) for p in probs]
    mean = [float(np.dot(w, g)) for w in pmf]
    total = [float(np.dot(w, (g - m) ** 2)) for w, m in zip(pmf, mean)]
    for a, pa in enumerate(probs):
        for b, pb in enumerate(probs):
            if a == b:
                continue
            # cond[i, j] = P(N_b = j | N_a = i), zero beyond j > n - i
            cond = stats.binom.pmf(k[None, :], (n - k)[:, None], min(pb / (1.0 - pa), 1.0))
            e_b_given_a = cond @ (g - mean[b])
            total.append(float(np.dot(pmf[a] * (g - mean[a]), e_b_given_a)))
    v = math.fsum(total)
    return v, 1e-12 * abs(v) + 1e-17


