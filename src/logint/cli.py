"""Command-line front end: figure-data sweeps as CSV, plus validation.

Subcommands mirror the application studies: lnx (identity check),
cauchy (normalized entropy vs dimension), simo (capacity/variance vs
SNR), avs (binary AVS redundancy vs n), empent (empirical-entropy bias
and spread vs n), kt (Krichevsky-Trofimov redundancy growth), validate
(oracle cross-check suites).

All library values are nats; --units bits divides by ln 2 (ln^2 2 for
variances) exactly once at output.  empent defaults to bits to match
its customary presentation, kt always reports nats (its slope-1/2 law
is a statement about nats vs ln n).  Sweeps always emit rows in
ascending grid order.

Exit codes: 0 success, 1 usage error, 2 numerical non-convergence,
3 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import cauchy, coding, logmoments, mgf, oracles, simo, special
from .errors import DomainError, NonConvergenceError
from .quadrature import QuadConfig, integrate_semi_infinite, require_converged

LN2 = math.log(2.0)

# noise floors of the large-n empirical-entropy variance kernels sit above
# the default tolerances; the empent sweep only needs plotting-grade
# accuracy there anyway
_SWEEP_VAR_CFG = QuadConfig(rel_tol=1e-8, abs_tol=1e-10)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_grid(spec: str):
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise DomainError(f"grid must be start:stop:step, got {spec!r}")
    if step <= 0.0 or stop < start:
        raise DomainError(f"grid needs step > 0 and stop >= start, got {spec!r}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12 * max(1.0, abs(stop)):
            break
        values.append(v)
        k += 1
    return values


def _parse_probs(spec: str) -> coding.DmsModel:
    return coding.DmsModel(tuple(float(x) for x in spec.split(",")))


def cmd_lnx(args) -> list:
    x = args.x
    if not (x > 0.0):
        raise DomainError(f"x must be > 0, got {x}")

    def f(u):
        return (np.exp(-u) - np.exp(-u * x)) / u

    quad = require_converged(integrate_semi_infinite(f), f"lnx({x})")
    builtin = math.log(x)
    p = args.precision
    return ["x,ln_quadrature,ln_builtin,abs_diff",
            f"{x:g},{_fmt(quad, p)},{_fmt(builtin, p)},{abs(quad - builtin):.3e}"]


def cmd_cauchy(args) -> list:
    scale = 1.0 if args.units == "nats" else 1.0 / LN2

    def row(n):
        h = cauchy.multivariate_cauchy_entropy(n) * scale
        return f"{n},{_fmt(h, args.precision)},{_fmt(h / n, args.precision)}"

    return ["n,entropy,normalized_entropy"] + [row(n) for n in range(1, args.n_max + 1)]


def cmd_simo(args) -> list:
    sigma = tuple(float(s) for s in args.sigma_sq.split(","))
    grid = _parse_grid(args.snr_db)
    cap_scale = 1.0 if args.units == "nats" else 1.0 / LN2
    var_scale = 1.0 if args.units == "nats" else 1.0 / (LN2 * LN2)

    def row(db):
        rho = 10.0 ** (db / 10.0)
        ch = simo.SimoChannel(sigma, rho)
        cap = simo.ergodic_capacity(ch) * cap_scale
        if args.with_variance:
            var = simo.capacity_variance(ch) * var_scale
            return f"{db:g},{_fmt(cap, args.precision)},{_fmt(var, args.precision)}"
        return f"{db:g},{_fmt(cap, args.precision)}"

    header = "snr_db,capacity,variance" if args.with_variance else "snr_db,capacity"
    return [header] + [row(db) for db in grid]


def cmd_avs(args) -> list:
    u01 = mgf.uniform01_mgf()
    scale = 1.0 if args.units == "nats" else 1.0 / LN2
    base = coding.expected_hb(u01)

    def row(n):
        mean_hb = coding.expected_hb_mean_iid(u01, n)
        at_limit = 1 if abs(mean_hb - LN2) <= 0.01 else 0
        return (f"{n},{_fmt(mean_hb * scale, args.precision)},"
                f"{_fmt((mean_hb - base) * scale, args.precision)},{at_limit}")

    return ["n,expected_hb_mean,redundancy,at_limit"] + \
        [row(n) for n in range(1, args.n_max + 1)]


def cmd_empent(args) -> list:
    dms = _parse_probs(args.probs)
    n_list = sorted(int(x) for x in args.n_list.split(","))
    if any(n < 1 for n in n_list):
        raise DomainError("all n must be >= 1")
    h_max = math.log(dms.alphabet_size)
    scale = 1.0 if args.units == "nats" else 1.0 / LN2
    suffix = args.units

    def row(n):
        mean = coding.empirical_entropy_mean(dms, n)
        var = coding.empirical_entropy_var(dms, n, _SWEEP_VAR_CFG)
        gap = (h_max - mean) * scale
        std = math.sqrt(max(var, 0.0)) * scale
        return f"{n},{_fmt(gap, args.precision)},{_fmt(std, args.precision)}"

    return [f"n,one_minus_mean_{suffix},std_{suffix}"] + [row(n) for n in n_list]


def cmd_kt(args) -> list:
    dms = coding.DmsModel((0.5, 0.5)) if args.probs is None else _parse_probs(args.probs)

    def row(n):
        rn = coding.kt_redundancy(dms, n, args.s_bias)
        return (f"{n},{_fmt(math.log(n), args.precision)},"
                f"{_fmt(n * rn, args.precision)}")

    return ["n,ln_n,n_times_Rn_nats"] + [row(n) for n in range(1, args.n_max + 1)]


def _core_checks(trials: int, seed: int):
    checks = []
    r = integrate_semi_infinite(lambda u: (np.exp(-u) - np.exp(-3.0 * u)) / u)
    checks.append(("log_identity_x3", r.value, math.log(3.0), 1e-10))
    e1_q = integrate_semi_infinite(lambda t: np.exp(-(1.0 + t)) / (1.0 + t)).value
    checks.append(("e1_series_vs_quadrature", special.exp_integral_e1(1.0), e1_q, 1e-11))
    e1_q25 = integrate_semi_infinite(lambda t: np.exp(-(2.5 + t)) / (2.5 + t)).value
    checks.append(("e1_cf_vs_quadrature", special.exp_integral_e1(2.5), e1_q25, 1e-11))
    checks.append(("ln_gamma_half", special.ln_gamma(0.5), 0.5 * math.log(math.pi), 1e-12))
    checks.append(("ln_factorial_50", special.ln_factorial_integral(50),
                   math.fsum(math.log(k) for k in range(1, 51)), 1e-9))
    checks.append(("digamma_at_1", oracles.digamma(1.0), -special.EULER_GAMMA, 1e-10))
    checks.append(("trigamma_at_1", oracles.trigamma(1.0), math.pi ** 2 / 6.0, 1e-10))
    exp_mgf = mgf.exponential_mgf()
    checks.append(("expect_ln_exponential_digamma", logmoments.expect_ln(exp_mgf),
                   oracles.digamma(1.0), 1e-9))
    est = oracles.mc_expect_ln(oracles.exponential_sampler(), np.log,
                               oracles.McConfig(trials=trials, seed=seed))
    checks.append(("expect_ln_exponential_mc", logmoments.expect_ln(exp_mgf),
                   est.mean, 3.0 * est.std_error))
    checks.append(("expect_ln_uniform", logmoments.expect_ln(mgf.uniform01_mgf()),
                   -1.0, 1e-9))
    checks.append(("expect_ln1p_exponential", logmoments.expect_ln1p(exp_mgf),
                   math.e * special.exp_integral_e1(1.0), 1e-9))
    checks.append(("fractional_moment_exp_half",
                   logmoments.fractional_moment_sum_iid(exp_mgf, 1, 0.5),
                   math.exp(special.ln_gamma(1.5)), 1e-9))
    checks.append(("poisson_entropy_1", special.poisson_entropy(1.0),
                   _poisson_entropy_sum(1.0, 60), 1e-9))
    return checks


def _apps_checks(trials: int, seed: int):
    checks = []
    rho = 1.0
    ch = simo.SimoChannel((0.5, 1.0), rho)
    cap = simo.ergodic_capacity(ch)
    checks.append(("simo_capacity_closed_form", cap,
                   simo.capacity_closed_form_example(rho), 1e-8))
    mean_est, var_est = oracles.mc_simo((0.5, 1.0), rho,
                                        oracles.McConfig(trials=trials, seed=seed))
    checks.append(("simo_capacity_mc", cap, mean_est.mean, 3.0 * mean_est.std_error))
    var = simo.capacity_variance(ch)
    checks.append(("simo_variance_mc", var, var_est.mean, 3.0 * var_est.std_error))

    def cauchy_density_nll(x):
        fx = 1.0 / (math.pi * (1.0 + x * x))
        return -2.0 * fx * np.log(fx)

    h_oracle = integrate_semi_infinite(cauchy_density_nll).value
    checks.append(("cauchy_entropy_n1", cauchy.multivariate_cauchy_entropy(1),
                   h_oracle, 1e-6))
    checks.append(("avs_uniform_n2",
                   coding.expected_hb_mean_iid(mgf.uniform01_mgf(), 2), 0.602, 5e-4))
    bss = coding.DmsModel((0.5, 0.5))
    em, ev = oracles.enumerate_empirical_entropy(bss, 10)
    checks.append(("empent_mean_enum_n10", coding.empirical_entropy_mean(bss, 10),
                   em, 1e-9))
    checks.append(("empent_var_enum_n10", coding.empirical_entropy_var(bss, 10),
                   ev, 1e-9))
    kt_est = oracles.mc_kt_redundancy(bss, 64, 0.5,
                                      oracles.McConfig(trials=min(trials, 200_000),
                                                       seed=seed + 1))
    checks.append(("kt_redundancy_mc_n64", coding.kt_redundancy(bss, 64, 0.5),
                   kt_est.mean, 3.0 * kt_est.std_error))
    return checks


def _poisson_entropy_sum(lam: float, kmax: int) -> float:
    k = np.arange(0, kmax + 1)
    ln_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, kmax + 1)))])
    logp = -lam + k * math.log(lam) - ln_fact
    p = np.exp(logp)
    return float(-np.sum(p * logp))


def run_validate(suite: str, trials: int, seed: int):
    """Run a validation suite; returns (report_text, all_passed)."""
    checks = []
    if suite in ("core", "all"):
        checks += _core_checks(trials, seed)
    if suite in ("apps", "all"):
        checks += _apps_checks(trials, seed)
    lines = [f"validation suite={suite} trials={trials} seed={seed}"]
    ok = True
    for name, measured, expected, tol in checks:
        passed = abs(measured - expected) <= tol
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: "
                     f"measured={measured:.12e} expected={expected:.12e} tol={tol:.3e}")
    lines.append(f"{'OK' if ok else 'FAILED'}: {len(checks)} checks")
    return lines, ok


def cmd_validate(args):
    lines, ok = run_validate(args.suite, args.trials, args.seed)
    return lines, ok


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="logint",
                     description="Log-moment integrals via MGFs: figure sweeps and validation.")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write CSV/report to a file instead of stdout")
    parser.add_argument("--precision", type=int, default=9,
                        help="decimal places for values (1..17, default 9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lnx", help="ln(x) by quadrature vs the builtin")
    p.add_argument("x", type=float)
    p.set_defaults(fn=cmd_lnx)

    p = sub.add_parser("cauchy", help="multivariate Cauchy entropy for n = 1..n_max")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.set_defaults(fn=cmd_cauchy)

    p = sub.add_parser("simo", help="SIMO ergodic capacity over an SNR grid")
    p.add_argument("--sigma-sq", default="0.5,1", metavar="S1,S2,...")
    p.add_argument("--snr-db", default="-10:30:0.5", metavar="START:STOP:STEP")
    p.add_argument("--with-variance", action="store_true")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.set_defaults(fn=cmd_simo)

    p = sub.add_parser("avs", help="uniform-parameter AVS redundancy for n = 1..n_max")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.set_defaults(fn=cmd_avs)

    p = sub.add_parser("empent", help="empirical-entropy bias and spread of a DMS")
    p.add_argument("--n-list", default="10,100,1000", metavar="N1,N2,...")
    p.add_argument("--probs", default="0.5,0.5", metavar="P1,P2,...")
    p.add_argument("--units", choices=("nats", "bits"), default="bits")
    p.set_defaults(fn=cmd_empent)

    p = sub.add_parser("kt", help="Krichevsky-Trofimov n*R_n vs ln n (nats)")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--s-bias", type=float, default=0.5)
    p.add_argument("--probs", default=None, metavar="P1,P2,...",
                   help="source probabilities (default: binary symmetric)")
    p.set_defaults(fn=cmd_kt)

    p = sub.add_parser("validate", help="run oracle cross-check suites")
    p.add_argument("--suite", choices=("core", "apps", "all"), default="all")
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=20200151)
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (1 <= args.precision <= 17):
            parser.error(f"--precision must lie in [1, 17], got {args.precision}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "validate":
            lines, ok = args.fn(args)
            _emit(lines, args.out)
            return 0 if ok else 3
        lines = args.fn(args)
        _emit(lines, args.out)
        return 0
    except DomainError as exc:
        print(f"logint: error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"logint: numerical non-convergence: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
