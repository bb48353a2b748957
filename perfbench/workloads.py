"""Seeded inputs for the three workloads.

Inputs come from *catalogs*: one fixed, deterministic list of ops per
*slot* (a kind of op with its cost-setting parameters, e.g. "capacity
variance in the 10-20 dB band").  ``verify_catalog.py`` runs every
catalog entry once against its oracle and reports the ones that fail.
Those listed in ``EXCLUDED`` stay out of the timed ops, whose every op
must pass, and run in the known-defect probe instead.

A workload is an endless sequence of *rounds* with the same slots in
every round.  Round r draws one passing entry per slot from its own
generator, seeded by (seed, workload, r): the same seed gives the same
inputs, the first rounds of a long list equal those of a short one, and
two seeds give different inputs of the same cost structure.  Since a
timed run stops only at a round boundary, every run weighs the op
families alike and the figures of one run compare with those of another.

An op is a JSON-able dict: ``fam`` names the public function (or CLI
subcommand) it calls, ``args`` holds its inputs, ``rows`` the number of
output values it yields, ``tol`` the (rel, abs) quadrature tolerance the
call runs at.  The program under test receives nothing else.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

import numpy as np

WORKLOADS = ("sweep-1d", "moments-2d", "alphabet-scale")

# QuadConfig defaults of the program; every op runs at them
DEFAULT_TOL = (1e-10, 1e-12)

# rounds handed to one timed run: several times what the seed commit
# completes in a 30 s run, so only a much faster program wraps around
MAX_ROUNDS = {"sweep-1d": 12, "moments-2d": 20, "alphabet-scale": 20}

# rounds of the traced pass; fixed, so its counts do not depend on timing
TRACE_ROUNDS = {"sweep-1d": 1, "moments-2d": 1, "alphabet-scale": 1}

# never used while tuning the benchmark; reserved to confirm a claim
HELD_OUT_SEED = 917_331

CATALOG_SEED = 191_205_812

# catalog entries that failed their oracle when verify_catalog.py last ran
# (slot -> indices).  They run in the probe; a newly failing entry is a
# regression for the benchmark to show, so it is not to be added here.
EXCLUDED = {
    # kt_redundancy(K = 18, n = 5216, s = 0.839): converged=True, 4e-7 off
    # relative, where 1e-8 is allowed
    "kt": (1355,),
    # `kt --n-max 150`, K = 4, s = 0.916: the row n = 52 is 4.7e-7 off
    "kt-k4": (21,),
}


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_uniform_int(rng, lo: float, hi: float) -> int:
    return int(round(_log_uniform(rng, lo, hi)))


def dirichlet_source(rng, k: int) -> list:
    """K letter probabilities on a 2^-40 grid, summing to exactly 1."""
    scale = 2 ** 40
    ints = np.maximum(1, np.round(rng.dirichlet(np.ones(k)) * scale)).astype(np.int64)
    ints[np.argmax(ints)] += scale - int(ints.sum())
    return [float(i) / scale for i in ints]


def sigma_profile(rng, n_ant: int) -> list:
    """Antenna variances, each 1.5-3x the previous, so partial fractions
    of the reference stay well conditioned."""
    s = [_log_uniform(rng, 0.2, 2.0)]
    while len(s) < n_ant:
        s.append(s[-1] * rng.uniform(1.5, 3.0))
    return [round(x, 6) for x in s]


def _op(fam: str, rows: int = 1, **args) -> dict:
    return {"fam": fam, "args": args, "rows": rows, "tol": list(DEFAULT_TOL)}


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


# -- slots: name -> (catalog size, maker(rng, i)) ---------------------------

# the figure sweeps as documented: `kt --n-max 5000`, `avs --n-max 10` and
# `simo --snr-db=-10:30:0.5`.  The seeded sources sweep to a short n_max:
# their cost per row varies with the draw by up to 2x, so their rows are
# kept under a tenth of the total and the latency percentiles fall among
# the binary sweep's rows
KT_BSS_N_MAX = 5000
KT_SOURCE_N_MAX = 150
SIMO_GRID = (-10.0, 30.0, 0.5)


def _kt_cli(probs, s, n_max):
    argv = ["kt", "--n-max", str(n_max), "--s-bias", repr(s)]
    if probs != [0.5, 0.5]:
        argv += ["--probs", _csv(probs)]
    return _op("cli.kt", n_max, probs=probs, s=s, argv=argv)


def _simo_cli(n_ant):
    start, stop, step = SIMO_GRID
    rows = int(round((stop - start) / step)) + 1

    def make(rng, i):
        sig = sigma_profile(rng, n_ant)
        return _op("cli.simo", rows, sigma_sq=sig, start=start, step=step,
                   argv=["simo", "--sigma-sq", _csv(sig),
                         f"--snr-db={start!r}:{stop!r}:{step!r}"])
    return make


def _s_bias(rng) -> float:
    return round(float(rng.uniform(0.3, 1.5)), 3)


def _gamma(rng, k):
    return {"base": "gamma", "k": k, "scale": _log_uniform(rng, 0.3, 3.0)}


def _diff_entropy(rng, alpha):
    # alpha = q - 1 - n/theta; alpha = 1/2 is the costly kernel, an
    # integer alpha keeps the t axis smooth
    theta = float(rng.uniform(2.5, 3.0) if alpha == 0.5 else rng.uniform(1.5, 3.0))
    n = int(rng.integers(1, 4))
    a = float(rng.integers(1, 3)) if alpha is None else alpha
    return _op("cauchy.diff_entropy", theta=theta, n=n, q=1.0 + n / theta + a)


def _capvar(rng, lo):
    db = float(rng.uniform(lo, lo + 10.0))
    return _op("simo.capacity_variance", sigma_sq=sigma_profile(rng, int(rng.integers(1, 4))),
               rho=10.0 ** (db / 10.0))


def _eevar_k(k, n):
    return lambda rng, i: _op("coding.empirical_entropy_var", probs=dirichlet_source(rng, k), n=n)


def _kt_source(k):
    return lambda rng, i: _kt_cli(dirichlet_source(rng, k), _s_bias(rng), KT_SOURCE_N_MAX)


# A slot's position in SLOTS seeds its catalog, and EXCLUDED names entries
# by index, so a slot keeps its place and new slots go last.
SLOTS = {
    # sweep-1d
    "kt-bss": (40, lambda rng, i: _kt_cli([0.5, 0.5], _s_bias(rng), KT_BSS_N_MAX)),
    "kt-k2": (40, _kt_source(2)),
    "avs": (9, lambda rng, i: _op("cli.avs", 8 + i, argv=["avs", "--n-max", str(8 + i)])),
    "kt-k3": (40, _kt_source(3)),
    # moments-2d
    "cauchy": (120, lambda rng, i: _op("cauchy.multivariate_cauchy_entropy",
                                       n=_log_uniform_int(rng, 1, 1000))),
    **{f"var_ln-k{k}": (40, lambda rng, i, k=k: _op("logmoments.var_ln", mgf=_gamma(rng, k),
                                                  s=float(rng.uniform(0.5, 2.0))))
       for k in (1, 2, 3, 4)},
    "var_ln1p-exp": (60, lambda rng, i: _op("logmoments.var_ln1p", mgf=_gamma(rng, 1))),
    "var_ln1p-unif": (60, lambda rng, i: _op("logmoments.var_ln1p", mgf={
        "base": "uniform", "scale": _log_uniform(rng, 0.3, 3.0)})),
    "diff-half": (60, lambda rng, i: _diff_entropy(rng, 0.5)),
    "diff-int": (60, lambda rng, i: _diff_entropy(rng, None)),
    **{f"capvar{lo:+d}": (60, lambda rng, i, lo=lo: _capvar(rng, float(lo)))
       for lo in (-10, 0, 10, 20)},
    "eevar-bss": (101, lambda rng, i: _op("coding.empirical_entropy_var", probs=[0.5, 0.5],
                                          n=50 + i)),
    # alphabet-scale
    "eemean": (4000, lambda rng, i: _op("coding.empirical_entropy_mean",
                                        probs=dirichlet_source(rng, int(rng.integers(3, 33))),
                                        n=_log_uniform_int(rng, 10, 1e4))),
    "kt": (4000, lambda rng, i: _op("coding.kt_redundancy",
                                    probs=dirichlet_source(rng, int(rng.integers(3, 33))),
                                    n=_log_uniform_int(rng, 10, 1e4),
                                    s=float(rng.uniform(0.3, 1.5)))),
    "hb-const": (800, lambda rng, i: _op(
        "coding.expected_hb_mean_iid",
        mgf={"base": "constant",
             "value": float(rng.choice(dirichlet_source(rng, int(rng.integers(3, 33)))))},
        n=_log_uniform_int(rng, 10, 1e4))),
    "hb-unif": (800, lambda rng, i: _op("coding.expected_hb_mean_iid", mgf={"base": "uniform"},
                                        n=_log_uniform_int(rng, 200, 1e4))),
    "ergcap": (800, lambda rng, i: _op("simo.ergodic_capacity",
                                       sigma_sq=sigma_profile(rng, int(rng.integers(1, 9))),
                                       rho=10.0 ** (float(rng.uniform(-30.0, 80.0)) / 10.0))),
    "pf": (800, lambda rng, i: _op("simo.capacity_partial_fractions",
                                   sigma_sq=sigma_profile(rng, int(rng.integers(1, 9))),
                                   rho=10.0 ** (float(rng.uniform(-80.0, 80.0)) / 10.0))),
    **{f"eevar-k{k}": (8, _eevar_k(k, 20)) for k in range(3, 9)},
    # sweep-1d, continued
    "kt-k4": (40, _kt_source(4)),
    **{f"simo-l{n}": (60, _simo_cli(n)) for n in (1, 2, 3, 4)},
}


@functools.lru_cache(maxsize=None)
def catalog(slot: str) -> tuple:
    """The slot's fixed list of ops; entry i depends only on (slot, i)."""
    size, make = SLOTS[slot]
    sid = list(SLOTS).index(slot)
    return tuple(make(np.random.default_rng([CATALOG_SEED, sid, i]), i) for i in range(size))


@functools.lru_cache(maxsize=None)
def passing(slot: str) -> tuple:
    bad = set(EXCLUDED.get(slot, ()))
    return tuple(i for i in range(len(catalog(slot))) if i not in bad)


# -- rounds -----------------------------------------------------------------

def _slots_of_round(workload: str, rng, r: int) -> list:
    if workload == "sweep-1d":
        return (["kt-bss", "kt-k2", "kt-k3", "kt-k4", "avs"]
                + [f"simo-l{n}" for n in (1, 2, 3, 4)])
    if workload == "moments-2d":
        # five variance ops of one cost sit in the middle of the latency
        # distribution, and two diff_entropy ops at alpha = 1/2 (about
        # 850 ms, between the Cauchy op and var_ln of the exponential)
        # at its top tenth, so the median and the 90th percentile fall
        # inside a cluster
        return (["cauchy"] + [f"var_ln-k{k}" for k in (1, 2, 3, 4)]
                + ["var_ln1p-exp", "var_ln1p-unif", "diff-half", "diff-half", "diff-int"]
                + [f"capvar{lo:+d}" for lo in (-10, 0, 10, 20)] + ["eevar-bss"] * 5)
    cheap = ["eemean"] * 160 + ["kt"] * 160 + ["hb-const", "hb-unif", "ergcap", "pf"] * 20
    slots = [cheap[i] for i in rng.permutation(len(cheap))]
    # two variance ops whose cost sums to nearly the same in every round:
    # K and 11 - K letters at n = 20, where the cost grows as K^2 and
    # hardly varies with the draw (at n = 150 it varies by up to 3x)
    k = 3 + r % 3
    slots.insert(len(slots) // 4, f"eevar-k{k}")
    slots.insert(3 * len(slots) // 4, f"eevar-k{11 - k}")
    return slots


def rounds(workload: str, seed: int, count: int) -> list:
    """The first ``count`` rounds of a workload, each a list of ops."""
    stream = WORKLOADS.index(workload)
    out = []
    for r in range(count):
        rng = np.random.default_rng([seed % 2 ** 64, stream, r])
        ops = []
        for slot in _slots_of_round(workload, rng, r):
            ok = passing(slot)
            ops.append(catalog(slot)[ok[int(rng.integers(len(ok)))]])
        out.append(ops)
    return out


def probe(seed: int) -> list:
    """Known wrong answers, run untimed beside every workload.

    The reproducers of ROADMAP items 3 and 4; seeded draws from the scale
    ranges that contain them (n from 1e4 to 1e9, SNR down to -80 dB,
    scale factors down to 1e-8, the BSS variance beyond n = 150); and
    every catalog entry in ``EXCLUDED``.  At the commit that added
    the benchmark nearly all of them fail, which is why they sit outside
    the timed ops.
    """
    rng = np.random.default_rng([seed % 2 ** 64, len(WORKLOADS), 0])
    ops = [
        _op("coding.empirical_entropy_mean", probs=[0.5, 0.5], n=10 ** 7),
        _op("coding.expected_hb_mean_iid", mgf={"base": "uniform"}, n=10 ** 5),
        _op("coding.kt_redundancy", probs=[0.5, 0.5], n=10 ** 7, s=0.5),
        _op("simo.ergodic_capacity", sigma_sq=[0.5, 1.0], rho=1e-8),
        _op("simo.capacity_partial_fractions", sigma_sq=[1.0, 1.0 + 1e-9, 2.0], rho=1.0),
        _op("simo.capacity_partial_fractions",
            sigma_sq=[float(x) for x in np.linspace(0.5, 2.0, 32)], rho=1.0),
        _op("coding.empirical_entropy_var", probs=[0.5, 0.5], n=1000),
        # converged=True after two subdivisions, 3e-7 off
        _op("coding.kt_redundancy", probs=[0.18228730585542507, 0.7138314627118234,
                                           0.10388123143275152], n=1, s=0.736),
    ]
    for _ in range(4):
        ops.append(_op("coding.empirical_entropy_mean",
                       probs=dirichlet_source(rng, int(rng.integers(3, 33))),
                       n=_log_uniform_int(rng, 1e4, 1e9)))
        ops.append(_op("coding.kt_redundancy",
                       probs=dirichlet_source(rng, int(rng.integers(3, 33))),
                       n=_log_uniform_int(rng, 1e5, 1e9), s=0.5))
        ops.append(_op("coding.expected_hb_mean_iid", mgf={"base": "uniform"},
                       n=_log_uniform_int(rng, 1e4, 1e9)))
        ops.append(_op("simo.ergodic_capacity",
                       sigma_sq=sigma_profile(rng, int(rng.integers(1, 9))),
                       rho=10.0 ** (float(rng.uniform(-80.0, -40.0)) / 10.0)))
        ops.append(_op("logmoments.var_ln1p",
                       mgf={"base": "gamma", "k": 1, "scale": _log_uniform(rng, 1e-8, 1e-3)}))
        ops.append(_op("coding.empirical_entropy_var", probs=[0.5, 0.5],
                       n=_log_uniform_int(rng, 151, 1000)))
    for slot, bad in sorted(EXCLUDED.items()):
        ops.extend(catalog(slot)[i] for i in bad)
    return ops


def digest(ops) -> str:
    """Short hash of a list of ops, to show two runs used the same inputs."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
