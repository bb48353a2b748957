"""Adaptive quadrature over [0, inf) and [0, inf)^2.

The half line is folded onto the unit interval with the rational map
u = (1-t)/t, du = -dt/t^2 (the mirror of t/(1-t), chosen so the tail
lands at t -> 0 where floating point has far more resolution than at
t -> 1; algebraic tails stay splittable down to u ~ 1e300 instead of
saturating near u ~ 1/eps).  Unlike an exponential map, a rational map
keeps polynomial-times-exponential integrands smooth on the unit
interval and turns slow algebraic tails into mild endpoint behaviour
that plain bisection resolves.  Each panel is scored with a 15-point
Kronrod rule against its embedded 7-point Gauss rule; the panel with
the largest discrepancy is bisected until the summed discrepancy meets
the tolerance or the subdivision budget runs out.

Integrands are evaluated in vectorised form: they receive a numpy array
of abscissae and must return an array of matching shape (numpy scalar
broadcasting is accepted).  The origin is never sampled exactly; nodes
below a small floor are clamped, so integrands only need a finite limit
at 0+, not an explicit value there.

Double integrals are iterated: the inner axis is integrated per outer
node with tolerances tightened tenfold, so the outer error estimate
remains meaningful.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "QuadConfig",
    "QuadResult",
    "NonFiniteIntegrandError",
    "integrate_semi_infinite",
    "integrate_semi_infinite_2d",
    "require_converged",
]

# Evaluation floor near the origin: all supported integrands are analytic
# at u = 0 with O(1) slope, so clamping perturbs the result by O(1e-24).
ORIGIN_FLOOR = 1e-12

# Largest argument ever handed to an integrand (guards the map at nodes
# rounded onto the t = 0 endpoint, where u = (1-t)/t would overflow).
_U_CAP = 1e300


class NonFiniteIntegrandError(ArithmeticError):
    """The integrand returned NaN or +/-inf at a quadrature node."""

    def __init__(self, where, axis=""):
        tag = f" ({axis} axis)" if axis else ""
        super().__init__(f"integrand returned a non-finite value near u={where:.6g}{tag}")
        self.where = where
        self.axis = axis


def _from_unit(t):
    """Map t in (0, 1] to u in [0, inf) via u = (1-t)/t, capped and floored."""
    ts = np.where(t > 0.0, t, 1.0)
    u = np.where(t > 0.0, (1.0 - ts) / ts, _U_CAP)
    return np.minimum(np.maximum(u, ORIGIN_FLOOR), _U_CAP)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for the adaptive engine."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not (self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be > 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


def require_converged(result: QuadResult, what: str) -> float:
    """Return result.value, raising NonConvergenceError on converged=False."""
    if not result.converged:
        raise NonConvergenceError(
            f"{what}: quadrature did not converge "
            f"(estimate {result.value:.12g}, error {result.error_estimate:.3g}, "
            f"{result.subdivisions_used} subdivisions)",
            result,
        )
    return result.value


# 15-point Kronrod nodes on (-1, 1) with the embedded 7-point Gauss rule
# (Gauss nodes sit at the odd indices).  Standard published constants.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.zeros(15)
_WG[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]


_50EPS = 50.0 * np.finfo(float).eps


def _score(y, h: float):
    k15 = h * float(_WK @ y)
    g7 = h * float(_WG @ y)
    err = abs(k15 - g7)
    # QUADPACK-style rescaling: on panels where the rules disagree by a
    # sizeable fraction of the integrand variation (endpoint
    # singularities), report that variation instead of the raw
    # difference, which both rules miss in the same direction.
    resabs = h * float(_WK @ np.abs(y))
    mean = k15 / (2.0 * h) if h > 0.0 else 0.0
    resasc = h * float(_WK @ np.abs(y - mean))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = _50EPS * resabs
    if floor > 0.0:
        err = max(err, floor)
    return k15, err


def _panel(g, a: float, b: float, axis: str):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _XK
    y = np.broadcast_to(np.asarray(g(x), dtype=float), x.shape)
    if not np.isfinite(y).all():
        bad = x[~np.isfinite(y)][0]
        raise NonFiniteIntegrandError(float(_from_unit(np.asarray(bad))), axis=axis)
    return _score(y, h)


def _panel_pair(g, a: float, mid: float, b: float, axis: str):
    # both children of a bisected panel in one integrand call
    c1 = 0.5 * (a + mid)
    h1 = 0.5 * (mid - a)
    c2 = 0.5 * (mid + b)
    h2 = 0.5 * (b - mid)
    x = np.concatenate([c1 + h1 * _XK, c2 + h2 * _XK])
    y = np.broadcast_to(np.asarray(g(x), dtype=float), x.shape)
    if not np.isfinite(y).all():
        bad = x[~np.isfinite(y)][0]
        raise NonFiniteIntegrandError(float(_from_unit(np.asarray(bad))), axis=axis)
    return _score(y[:15], h1) + _score(y[15:], h2)


def _adaptive(g, a: float, b: float, cfg: QuadConfig, axis: str) -> QuadResult:
    val, err = _panel(g, a, b, axis)
    heap = [(-err, 0, a, b, val, err)]
    frozen_vals: list[float] = []  # panels too narrow to bisect further
    frozen_errs: list[float] = []
    # running totals steer the loop; exact fsum totals decide the result,
    # so the converged/error contract is immune to accumulation drift
    total_v, total_e = val, err
    seq = 1
    splits = 0

    def _totals():
        vals = [p[4] for p in heap] + frozen_vals
        errs = [p[5] for p in heap] + frozen_errs
        return math.fsum(vals), math.fsum(errs)

    def _within(v: float, e: float) -> bool:
        return e <= max(cfg.abs_tol, cfg.rel_tol * abs(v))

    while True:
        if _within(total_v, total_e):
            total_v, total_e = _totals()
            if _within(total_v, total_e):
                return QuadResult(total_v, total_e, splits, True)
        if splits >= cfg.max_subdivisions or not heap:
            v, e = _totals()
            return QuadResult(v, e, splits, _within(v, e))
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            frozen_vals.append(pval)
            frozen_errs.append(perr)
            continue
        v1, e1, v2, e2 = _panel_pair(g, pa, mid, pb, axis)
        total_v += (v1 + v2) - pval
        total_e += (e1 + e2) - perr
        heapq.heappush(heap, (-e1, seq, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, pb, v2, e2))
        seq += 2
        splits += 1


def integrate_semi_infinite(f: Callable, cfg: QuadConfig | None = None,
                            _axis: str = "") -> QuadResult:
    """Integrate f over [0, inf).

    f must be finite on (0, inf) with a finite limit at 0+ and an
    integrable tail.  It is called with numpy arrays of abscissae.
    """
    cfg = QuadConfig() if cfg is None else cfg

    def g(t):
        u = _from_unit(t)
        y = np.broadcast_to(np.asarray(f(u), dtype=float), u.shape)
        # two-stage division delays overflow of the 1/t^2 Jacobian; the
        # where() keeps 0 * inf from producing NaN at rounded endpoints
        ts = np.where(t > 0.0, t, 1.0)
        return np.where(y == 0.0, 0.0, (y / ts) / ts)

    return _adaptive(g, 0.0, 1.0, cfg, _axis)


def integrate_semi_infinite_2d(f: Callable, cfg: QuadConfig | None = None) -> QuadResult:
    """Integrate f(u, v) over [0, inf)^2 by iterated 1-D quadrature.

    The first argument is the outer variable (passed as a scalar), the
    second the inner one (passed as an array); f must broadcast.  The
    inner tolerance is tightened by a factor 10 so the returned error
    estimate, which is the outer rule's, stays honest.  The inner
    absolute tolerance is additionally divided by the outer Jacobian
    (1+u)^2: far out on the outer axis the inner values are tiny, and
    without this scaling they would "converge" instantly to pure noise
    that the Jacobian then amplifies back to order one.
    """
    cfg = QuadConfig() if cfg is None else cfg
    inner_rel = cfg.rel_tol / 10.0
    inner_uncert = 0.0

    def outer(us):
        nonlocal inner_uncert
        out = np.empty_like(us)
        for i, u in enumerate(us):
            jac = (1.0 + u) ** 2 if u < 1e150 else 1e300
            inner_abs = max(cfg.abs_tol / 10.0 / jac, 1e-305)
            inner_cfg = replace(cfg, rel_tol=inner_rel, abs_tol=inner_abs)
            r = integrate_semi_infinite(lambda v: f(u, v), inner_cfg, _axis="inner")
            if not r.converged:
                # the outer's panel weights sum to at most the unit
                # interval, so unresolved inner error can shift the
                # result by no more than its largest amplified estimate
                inner_uncert = max(inner_uncert, r.error_estimate * jac)
            out[i] = r.value
        return out

    res = integrate_semi_infinite(outer, cfg, _axis="outer")
    if inner_uncert > 0.0:
        err = res.error_estimate + inner_uncert
        conv = res.converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
        return QuadResult(res.value, err, res.subdivisions_used, conv)
    return res
