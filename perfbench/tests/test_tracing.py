"""Outside-in tracing: transparent, repeatable, and counting what the
engine really does."""

import pytest

import logint
import logint.cli  # noqa: F401  (the CLI ops and the tracer need it loaded)
import run
import workloads
from tracing import Tracer, layer_metrics
from worker import Runner


def _ops():
    ops = []
    for wl in workloads.WORKLOADS:
        rnd = workloads.rounds(wl, 3, 1)[0]
        seen = set()
        for op in rnd:
            cheap = op["rows"] <= 100 and op["fam"] not in (
                "cauchy.multivariate_cauchy_entropy", "logmoments.var_ln",
                "coding.empirical_entropy_var")
            if cheap and op["fam"] not in seen:
                seen.add(op["fam"])
                ops.append(op)
    return ops


def _traced(runner, ops):
    tr = Tracer()
    tr.install(logint)
    try:
        out = []
        for i, op in enumerate(ops):
            tr.op_id = i
            j = tr.open(0)
            try:
                out.append(runner.run(op))
            finally:
                tr.close(j)
    finally:
        tr.uninstall()
    return out, layer_metrics(tr.arrays(), tr.names, run.APP_FUNCTIONS)


def _values(results):
    return [r.get("value", r.get("rows", r.get("err"))) for r in results]


def test_traced_values_are_bit_identical_and_counts_repeat(tmp_path):
    runner = Runner(logint, str(tmp_path))
    ops = _ops()
    plain = [runner.run(op) for op in ops]
    first, m1 = _traced(runner, ops)
    second, m2 = _traced(runner, ops)
    assert _values(first) == _values(plain) == _values(second)
    counts = [k for k in m1 if not k.endswith("_s") and "per_" not in k]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["cli.self_s"] > 0 and m1["quadrature.integrals_2d"] > 0


def test_uninstall_restores_every_attribute():
    before = (logint.quadrature.integrate_semi_infinite, logint.cauchy.integrate_semi_infinite_2d,
              logint.coding.kt_redundancy, logint.cauchy.ln_gamma, logint.cli.main)
    tr = Tracer()
    tr.install(logint)
    assert logint.coding.kt_redundancy is not before[2]
    tr.uninstall()
    after = (logint.quadrature.integrate_semi_infinite, logint.cauchy.integrate_semi_infinite_2d,
             logint.coding.kt_redundancy, logint.cauchy.ln_gamma, logint.cli.main)
    assert after == before


def test_counts_of_the_cauchy_bracket_at_n1():
    # integrand calls, points and inner integrals of the iterated 2-D
    # engine at the default QuadConfig, as recorded in ROADMAP.md item 1;
    # they hold while the Cauchy entropy takes that path
    op = {"fam": "cauchy.multivariate_cauchy_entropy", "args": {"n": 1}, "rows": 1,
          "tol": list(workloads.DEFAULT_TOL)}
    _, m = _traced(Runner(logint, "."), [op])
    if m["quadrature.integrals_2d"] != 1:
        pytest.skip("multivariate_cauchy_entropy no longer runs one 2-D integral")
    assert m["quadrature.integrand_calls"] == 14_032
    assert m["quadrature.integrand_points"] == 391_020
    assert m["quadrature.inner_integrals"] == 1_995
