"""Runs ops against the logint package in a fresh interpreter.

Usage: python3 worker.py SRC RESULT.json < JOB.json

It imports the logint package from SRC, then reads the job (mode and
ops) from standard input; it imports nothing but logint and numpy, so
its memory and timings are the program's.  Modes:

* ``timed``: closed loop, one op after another, over whole rounds until
  the round boundary nearest to ``seconds``, with the calibration kernel
  timed every 50 ms of work: between ops, and between the rows of a CLI
  sweep.
* ``trace``: the fixed trace rounds untraced and traced, twice each; the
  faster traced pass yields the per-layer metrics and the span file.

Both then run the known-defect probe, untimed and untraced.

Every op's value (or the exception it raised) goes back to the caller,
which checks it against the oracles.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import sys
import time

import numpy as np


def _load(src: str):
    sys.path.insert(0, src)
    import logint
    import logint.cli

    here = os.path.realpath(os.path.dirname(logint.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"logint imported from {here}, not from {src}")
    return logint


def _mgf(lg, spec: dict):
    m = lg.mgf
    base = spec["base"]
    if base == "constant":
        return m.constant_mgf(spec["value"])
    if base == "uniform":
        out = m.uniform01_mgf()
    else:
        k = spec["k"]
        out = m.exponential_mgf() if k == 1 else m.product_mgf([m.exponential_mgf()] * k)
    scale = spec.get("scale", 1.0)
    return out if scale == 1.0 else m.scale_mgf(out, scale)


def _library_call(lg, op: dict):
    """The op as a zero-argument callable; module attributes are looked up
    at call time, so tracing wrappers installed later are used."""
    fam, a = op["fam"], op["args"]
    if fam == "cauchy.multivariate_cauchy_entropy":
        return lambda: lg.cauchy.multivariate_cauchy_entropy(a["n"])
    if fam == "cauchy.diff_entropy":
        return lambda: lg.cauchy.diff_entropy(lg.cauchy.GenCauchyModel(a["theta"], a["q"], a["n"]))
    if fam == "logmoments.var_ln":
        return lambda: lg.logmoments.var_ln(_mgf(lg, a["mgf"]), a["s"])
    if fam == "logmoments.var_ln1p":
        return lambda: lg.logmoments.var_ln1p(_mgf(lg, a["mgf"]))
    if fam == "coding.empirical_entropy_var":
        return lambda: lg.coding.empirical_entropy_var(lg.coding.DmsModel(tuple(a["probs"])), a["n"])
    if fam == "coding.empirical_entropy_mean":
        return lambda: lg.coding.empirical_entropy_mean(lg.coding.DmsModel(tuple(a["probs"])), a["n"])
    if fam == "coding.kt_redundancy":
        return lambda: lg.coding.kt_redundancy(lg.coding.DmsModel(tuple(a["probs"])), a["n"], a["s"])
    if fam == "coding.expected_hb_mean_iid":
        return lambda: lg.coding.expected_hb_mean_iid(_mgf(lg, a["mgf"]), a["n"])
    if fam.startswith("simo."):
        fn = fam.split(".", 1)[1]
        return lambda: getattr(lg.simo, fn)(lg.simo.SimoChannel(tuple(a["sigma_sq"]), a["rho"]))
    raise ValueError(f"unknown op family {fam!r}")


class Runner:
    def __init__(self, lg, out_dir: str):
        self.lg = lg
        self.csv_path = os.path.join(out_dir, "rows.csv")
        self.cal = None  # a Calibrator while timed

    def run(self, op: dict) -> dict:
        """One op: its start, its end and its time without calibration
        (``t0``, ``t1``, ``dt``), and either its values or the error raised.

        A CLI op that raises, or exits non-zero, fails all of its rows."""
        paused = self.cal.paused if self.cal else 0.0
        out = self._run(op)
        out["dt"] = out["t1"] - out["t0"] - ((self.cal.paused if self.cal else 0.0) - paused)
        return out

    def _run(self, op: dict) -> dict:
        if op["fam"].startswith("cli."):
            argv = ["--out", self.csv_path, "--precision", "15"] + op["args"]["argv"]
            call = lambda: self.lg.cli.main(argv)  # noqa: E731
        else:
            call = _library_call(self.lg, op)
        errors = (self.lg.DomainError, self.lg.NonConvergenceError, ArithmeticError)
        t0 = time.perf_counter()
        try:
            value = call()
        except errors as exc:
            return {"t0": t0, "t1": time.perf_counter(), "err": type(exc).__name__}
        t1 = time.perf_counter()
        if not op["fam"].startswith("cli."):
            return {"t0": t0, "t1": t1, "value": value}
        if value != 0:
            return {"t0": t0, "t1": t1, "err": f"exit {value}"}
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {"t0": t0, "t1": t1, "rows": rows}


def _warm_up(runner: Runner, workload: str) -> None:
    # first calls pay for numpy's lazy set-up; users pay it once per process
    calibrate()
    lg = runner.lg
    if workload == "sweep-1d":
        lg.cli.main(["--out", runner.csv_path, "lnx", "2"])
    else:
        lg.logmoments.expect_ln(lg.mgf.exponential_mgf())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy operations and
    interpreter work, like an integrand call and its engine step.

    The speed of a shared machine swings by tens of percent within a
    second.  Timed next to each op, this kernel tracks those swings, so
    the caller can state op times in reference seconds."""
    x = np.linspace(0.01, 1.0, 30)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(300):
        y = np.exp(-x * (1 + i % 7)) / (x + 1.0)
        acc += float(np.sum(np.where(y > 0.1, y, 0.0)))
    return time.perf_counter() - t0


# a calibration every 50 ms of work costs about 5 % of the run; sparser
# samples track the machine's speed markedly worse
CAL_INTERVAL_S = 0.05
# one kernel time is noisy: after a longer op, one kernel per 50 ms it
# took, up to this many, are timed in a burst and averaged
CAL_BURST = 20
# the functions the CLI sweeps call once per row; a sweep takes seconds,
# so the kernel is also timed between its rows
ROW_FUNCTIONS = (("coding", "kt_redundancy"), ("coding", "expected_hb_mean_iid"),
                 ("simo", "ergodic_capacity"))


class Calibrator:
    """Times the kernel when CAL_INTERVAL_S of work has passed since it
    last ran, and keeps the samples (start, mean kernel seconds, kernels)
    and the total time spent on them, which is not the program's."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self.next = 0.0

    def __call__(self) -> None:
        now = time.perf_counter()
        if now < self.next:
            return
        n = max(1, min(int((now - self.next) / CAL_INTERVAL_S) + 1, CAL_BURST))
        self.samples.append((now, sum(calibrate() for _ in range(n)) / n, n))
        end = time.perf_counter()
        self.paused += end - now
        self.next = end + CAL_INTERVAL_S

    def hook_rows(self, lg) -> list:
        """Wraps ROW_FUNCTIONS to calibrate before each call; returns what
        to restore.  The wrapper costs well under a microsecond a row."""
        saved = []
        for mod_name, name in ROW_FUNCTIONS:
            mod = getattr(lg, mod_name)
            fn = getattr(mod, name)

            def hooked(*args, _fn=fn, **kwargs):
                self()
                return _fn(*args, **kwargs)

            saved.append((mod, name, fn))
            setattr(mod, name, hooked)
        return saved


def timed(runner: Runner, job: dict) -> dict:
    """Results stream to a file, one JSON line per op, so the worker's
    memory does not grow with the number of ops a faster program fits in."""
    rounds = job["rounds"]
    round_s = []
    cal = runner.cal = Calibrator()
    saved = cal.hook_rows(runner.lg)
    deadline = time.perf_counter() + job["seconds"]
    try:
        with open(job["results_path"], "w") as fh:
            while True:
                t0 = time.perf_counter()
                for op in rounds[len(round_s) % len(rounds)]:
                    cal()
                    fh.write(json.dumps(runner.run(op)) + "\n")
                t1 = time.perf_counter()
                round_s.append(t1 - t0)
                # stop at the round boundary nearest to the deadline
                if t1 + 0.5 * sum(round_s) / len(round_s) >= deadline:
                    break
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
        runner.cal = None
    return {"round_s": round_s, "cal_s": cal.samples, "peak_rss_mb": _peak_rss_mb()}


def _traced_pass(runner: Runner, ops):
    from tracing import OP, Tracer

    tracer = Tracer()
    tracer.install(runner.lg)
    results = []
    t0 = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            j = tracer.open(OP)
            try:
                results.append(runner.run(op))
            finally:
                tracer.close(j)
    finally:
        tracer.uninstall()
    return time.perf_counter() - t0, results, tracer


def traced(runner: Runner, job: dict) -> dict:
    """Untraced and traced passes, alternated twice; the overhead compares
    the faster pass of each kind and the spans come from the faster traced
    pass, which keeps a burst of machine load out of both."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import layer_metrics

    ops = [op for rnd in job["rounds"] for op in rnd]
    plain_s, passes = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        plain = [runner.run(op) for op in ops]
        plain_s.append(time.perf_counter() - t0)
        passes.append(_traced_pass(runner, ops))
    traced_s, results, tracer = min(passes, key=lambda p: p[0])
    tracer.save(job["spans_path"])
    layers = layer_metrics(tracer.arrays(), tracer.names, job["app_functions"])

    def values(rs):
        return [r.get("value", r.get("rows", r.get("err"))) for r in rs]

    same = values(plain) == values(passes[0][1]) == values(passes[1][1])
    return {"results": results, "plain_s": min(plain_s), "traced_s": traced_s,
            "identical": same, "layers": layers, "spans": len(tracer.t0)}


def main(argv) -> int:
    lg = _load(argv[1])
    job = json.load(sys.stdin)
    runner = Runner(lg, job["out_dir"])
    _warm_up(runner, job["workload"])
    out = timed(runner, job) if job["mode"] == "timed" else traced(runner, job)
    out["probe"] = [runner.run(op) for op in job["probe"]]
    with open(argv[2], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
