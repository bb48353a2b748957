"""The logint benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from the seed, times the program
on them in a fresh interpreter (worker.py), checks every output against
an independent oracle (oracles.py), and prints the metrics: one line per
metric with its unit, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a fixed set of rounds runs under
the outside-in tracer (tracing.py) and the metrics are per layer.

It exits non-zero, printing no result, when the package source under
src/ is missing or the worker fails.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import calibrate  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# public application functions the workloads reach, directly or nested
APP_FUNCTIONS = (
    "cauchy.multivariate_cauchy_entropy", "cauchy.diff_entropy", "cauchy.normalizer_cn",
    "logmoments.var_ln", "logmoments.var_ln1p",
    "simo.ergodic_capacity", "simo.capacity_partial_fractions", "simo.capacity_variance",
    "coding.empirical_entropy_mean", "coding.empirical_entropy_mean_direct",
    "coding.empirical_entropy_var", "coding.kt_redundancy",
    "coding.expected_hb", "coding.expected_hb_mean_iid",
)

PER_LAYER = {
    "quadrature.integrals_1d": "count",
    "quadrature.integrals_2d": "count",
    "quadrature.inner_integrals": "count",
    "quadrature.integrand_calls": "count",
    "quadrature.integrand_points": "count",
    "quadrature.subdivisions": "count",
    "quadrature.unconverged": "count",
    "quadrature.engine_self_s": "s",
    "quadrature.engine_us_per_call": "us",
    "quadrature.engine_share": "ratio",
    "quadrature.outer2d_self_s": "s",
    "integrand.self_s": "s",
    "integrand.ns_per_point": "ns",
    "integrand.share": "ratio",
    "special.calls": "count",
    "special.self_s": "s",
    "cli.rows": "count",
    "cli.self_s": "s",
    **{f"{f}.{m}": u for f in APP_FUNCTIONS for m, u in (("calls", "count"), ("self_s", "s"))},
    "ops.attempted": "count",
    "ops.failed_raise": "count",
    "ops.failed_oracle": "count",
    "probe.attempted": "count",
    "probe.failed": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

# an output misses when it is further from its oracle than this many times
# the quadrature tolerance it was computed at, plus the oracle's own error
TOL_SLACK = 100.0

SETUP_REPEATS = 15
SETUP_CALS = 5
# argv: package source, benchmark directory; prints the import time and the
# mean calibration time taken right after it in the same process
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import logint, logint.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from worker import calibrate\n"
    f"print(repr(t), repr(sum(calibrate() for _ in range({SETUP_CALS})) / {SETUP_CALS}))\n"
)

# Times are reported in reference seconds: wall seconds scaled by
# CAL_REF_S over the time worker.calibrate() takes, so that the shared
# machine's speed swings (tens of percent within a second, 10-25 % from
# one run to the next) leave the figures.  Throughput, a property of the
# whole run, uses the run's mean kernel time; a latency uses the kernel
# times taken next to its op.  On a machine where the kernel takes 2.5 ms,
# reference and wall seconds agree.
CAL_REF_S = 2.5e-3


# -- oracles per op ---------------------------------------------------------

def references(op) -> list:
    """[(column, reference, reference error, tolerance scale)] per output row."""
    import oracles  # scipy and mpmath: imported only once the worker runs

    fam, a = op["fam"], op["args"]
    if fam == "cli.kt":
        return [[(2, v, e, abs(v))] for v, e in oracles.kt_sweep(a["probs"], op["rows"], a["s"])]
    if fam == "cli.avs":
        out = []
        for n in range(1, op["rows"] + 1):
            v, e = oracles.hb_mean_uniform(n)
            out.append([(1, v, e, abs(v)), (2, v - 0.5, e, abs(v))])
        return out
    if fam == "cli.simo":
        out = []
        for k in range(op["rows"]):
            db = a["start"] + k * a["step"]
            v, e = oracles.simo_capacity(a["sigma_sq"], 10.0 ** (db / 10.0))
            out.append([(1, v, e, abs(v))])
        return out
    if fam == "cauchy.multivariate_cauchy_entropy":
        v, e = oracles.multivariate_cauchy_entropy(a["n"])
    elif fam == "cauchy.diff_entropy":
        v, e = oracles.gen_cauchy_entropy(a["theta"], a["q"], a["n"])
    elif fam == "logmoments.var_ln":
        v, e = oracles.var_ln_gamma(a["mgf"]["k"], a["s"])
    elif fam == "logmoments.var_ln1p":
        spec = a["mgf"]
        if spec["base"] == "uniform":
            v, e = oracles.var_ln1p("uniform", spec.get("scale", 1.0))
        else:
            v, e = oracles.var_ln1p("gamma", spec.get("scale", 1.0), spec["k"])
    elif fam == "coding.empirical_entropy_var":
        v, e = oracles.empirical_entropy_var(a["probs"], a["n"])
        mean, _ = oracles.empirical_entropy_mean(a["probs"], a["n"])
        # the quadrature computes E[H^2]; the variance inherits its error
        return [[(None, v, e, v + mean * mean)]]
    elif fam == "coding.empirical_entropy_mean":
        v, e = oracles.empirical_entropy_mean(a["probs"], a["n"])
    elif fam == "coding.kt_redundancy":
        v, e = oracles.kt_n_redundancy(a["probs"], a["n"], a["s"])
        v, e = v / a["n"], e / a["n"]
    elif fam == "coding.expected_hb_mean_iid":
        if a["mgf"]["base"] == "constant":
            v, e = oracles.hb(a["mgf"]["value"])
        else:
            v, e = oracles.hb_mean_uniform(a["n"])
    elif fam in ("simo.ergodic_capacity", "simo.capacity_partial_fractions"):
        v, e = oracles.simo_capacity(a["sigma_sq"], a["rho"])
    elif fam == "simo.capacity_variance":
        v, e = oracles.simo_capacity_variance(a["sigma_sq"], a["rho"])
    else:
        raise ValueError(f"no oracle for {fam!r}")
    return [[(None, v, e, abs(v))]]


def check(op, res) -> tuple:
    """(rows attempted, rows that raised, rows that missed their oracle)."""
    rows = op["rows"]
    if "err" in res:
        return rows, rows, 0
    rel, absol = op["tol"]
    got = res["rows"] if "rows" in res else [[res["value"]]]
    if len(got) != rows:
        return rows, 0, rows
    missed = 0
    for row, refs in zip(got, references(op)):
        for col, ref, ref_err, scale in refs:
            try:
                value = float(row[0] if col is None else row[col])
            except (TypeError, ValueError, IndexError):
                missed += 1
                break
            tol = TOL_SLACK * max(absol, rel * scale) + ref_err
            if not abs(value - ref) <= tol:
                missed += 1
                break
    return rows, 0, missed


def tally(ops, results) -> dict:
    by_fam = {}
    total = Counter()
    for op, res in zip(ops, results):
        n, raised, missed = check(op, res)
        c = by_fam.setdefault(op["fam"], Counter())
        for key, val in (("attempted", n), ("raise", raised), ("oracle", missed)):
            c[key] += val
            total[key] += val
    return {"total": total, "by_fam": by_fam}


# -- running ----------------------------------------------------------------

def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("LOGINT_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup() -> list:
    """Times, in fresh interpreters, to import the package and CLI, each
    in reference seconds (calibrated just before and just after)."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = statistics.fmean(calibrate() for _ in range(SETUP_CALS))
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], env=_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        t, after = (float(x) for x in out.stdout.split())
        times.append(t * CAL_REF_S / (0.5 * (before + after)))
    return times


def reference_times(results, cal) -> list:
    """Each op's time scaled by CAL_REF_S over the mean of the calibration
    samples from the last one before it to the first one after it: two
    for most ops, one per 50 ms of work for a CLI sweep."""
    starts = [t for t, _, _ in cal]
    out = []
    for r in results:
        i = max(bisect.bisect_right(starts, r["t0"]) - 1, 0)
        j = min(bisect.bisect_left(starts, r["t1"]), len(cal) - 1)
        out.append(r["dt"] * CAL_REF_S / statistics.fmean(c for _, c, _ in cal[i:j + 1]))
    return out


def start_worker(tag: str):
    """The worker process, started before the parent loads scipy, mpmath
    and the inputs: a child inherits its parent's peak resident memory,
    and `peak_rss_mb` must be the worker's own."""
    res_path = OUT / f"result-{tag}.json"
    res_path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(SRC), str(res_path)],
                            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    return proc, res_path


def finish_worker(proc, res_path, job: dict) -> dict:
    ops_path = OUT / (res_path.stem + ".ops.jsonl")
    job["results_path"] = str(ops_path)
    _, err = proc.communicate(json.dumps(job), timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err[-4000:]}")
    res = json.loads(res_path.read_text())
    if ops_path.exists():
        with open(ops_path) as fh:
            res["results"] = [json.loads(line) for line in fh]
        ops_path.unlink()
    res_path.unlink()
    return res


def _print_tally(title: str, t: dict) -> None:
    tot = t["total"]
    rate = (tot["raise"] + tot["oracle"]) / max(tot["attempted"], 1)
    print(f"{title}: {tot['attempted']} attempted, {tot['raise']} raised, "
          f"{tot['oracle']} missed the oracle, error rate {rate:.4f}")
    for fam, c in sorted(t["by_fam"].items()):
        print(f"  {fam:40s} {c['attempted']:6d} attempted {c['raise']:5d} raised "
              f"{c['oracle']:5d} missed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "logint" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl, seed = args.workload, args.seed
    tag = f"{wl}-{seed}-{args.trace}"
    proc, res_path = start_worker(tag)
    try:
        count = workloads.TRACE_ROUNDS[wl] if args.trace else workloads.MAX_ROUNDS[wl]
        rounds = workloads.rounds(wl, seed, count)
        probe = workloads.probe(seed)
        print(f"workload {wl}, seed {seed}: {count} rounds of "
              f"{sum(len(r) for r in rounds) // count} ops, inputs {workloads.digest(rounds)}, "
              f"probe inputs {workloads.digest(probe)}")
        job = {"workload": wl, "mode": "trace" if args.trace else "timed",
               "seconds": args.seconds, "rounds": rounds, "probe": probe, "out_dir": str(OUT),
               "spans_path": str(OUT / f"spans-{tag}.npz"), "app_functions": APP_FUNCTIONS}
        setup = None if args.trace else measure_setup()
        res = finish_worker(proc, res_path, job)
    except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    if args.trace:
        ops = [op for r in rounds for op in r]
    else:
        ops = [op for i in range(len(res["round_s"])) for op in rounds[i % len(rounds)]]
    t = tally(ops, res["results"])
    p = tally(probe, res["probe"])
    _print_tally("ops", t)
    _print_tally("known-defect probe (not in the counts above)", p)
    tot = t["total"]
    failed = tot["raise"] + tot["oracle"]

    if args.trace:
        m = dict(res["layers"])
        m["quadrature.engine_share"] = m["quadrature.engine_self_s"] / res["traced_s"]
        m["integrand.share"] = m["integrand.self_s"] / res["traced_s"]
        m["cli.rows"] = sum(op["rows"] for op in ops if op["fam"].startswith("cli."))
        m["ops.attempted"] = tot["attempted"]
        m["ops.failed_raise"] = tot["raise"]
        m["ops.failed_oracle"] = tot["oracle"]
        m["probe.attempted"] = p["total"]["attempted"]
        m["probe.failed"] = p["total"]["raise"] + p["total"]["oracle"]
        m["trace.spans"] = res["spans"]
        m["trace.overhead_pct"] = (res["traced_s"] / res["plain_s"] - 1.0) * 100.0
        units = PER_LAYER
        correct = failed == 0 and res["identical"]
        print(f"traced pass {res['traced_s']:.3f} s, untraced {res['plain_s']:.3f} s, "
              f"values bit-identical: {res['identical']}")
    else:
        ref = reference_times(res["results"], res["cal_s"])
        busy = math.fsum(r["dt"] for r in res["results"])
        m, raw = {}, {}
        kernels = sum(n for _, _, n in res["cal_s"])
        run_scale = CAL_REF_S * kernels / math.fsum(c * n for _, c, n in res["cal_s"])
        for out, times, scale in ((raw, [r["dt"] for r in res["results"]], 1.0),
                                  (m, ref, run_scale)):
            # one sample per row; a CLI call's rows each get its mean per row
            lat = [dt * 1000.0 / op["rows"] for op, dt in zip(ops, times)
                   for _ in range(op["rows"])]
            out["ops_per_s"] = tot["attempted"] / (busy * scale)
            out["op_ms_p50"] = statistics.median(lat)
            out["op_ms_p90"] = statistics.quantiles(lat, n=10, method="inclusive")[-1]
            out["peak_rss_mb"] = res["peak_rss_mb"]
        m["setup_s"] = statistics.median(setup)
        units = END_TO_END
        correct = failed == 0
        q = statistics.quantiles(res["round_s"], n=4) if len(res["round_s"]) > 1 else [0.0] * 3
        print(f"{len(res['round_s'])} rounds, {busy:.3f} s in ops (round seconds: quartiles "
              f"{q[0]:.4f} {q[1]:.4f} {q[2]:.4f}, max {max(res['round_s']):.4f}); "
              f"{len(lat)} latency samples (per op; on sweep-1d per row, each the mean per row "
              f"of its CLI call)")
        print(f"calibration: {kernels} kernels in {len(res['cal_s'])} bursts in the worker, "
              f"mean {CAL_REF_S / run_scale * 1e3:.3f} ms; reference {CAL_REF_S * 1e3:g} ms")
        print("wall-clock figures before scaling:",
              ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    metrics = {k: {"value": m[k], "unit": u} for k, u in units.items()}
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": tot["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
