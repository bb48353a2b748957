"""Ops that raise are counted as failures, whichever way they are issued."""

import json

import logint
import logint.cli  # noqa: F401  (the CLI ops need it loaded)
import pytest

import run
from worker import Runner

CLI_OP = {"fam": "cli.avs", "args": {"argv": ["avs", "--n-max", "8"]}, "rows": 8,
          "tol": [1e-10, 1e-12]}
LIB_OP = {"fam": "coding.expected_hb_mean_iid", "args": {"mgf": {"base": "uniform"}, "n": 20},
          "rows": 1, "tol": [1e-10, 1e-12]}


@pytest.mark.parametrize("error", [logint.NonFiniteIntegrandError(1.5),
                                   logint.NonConvergenceError("raised on purpose"),
                                   logint.DomainError("raised on purpose")])
def test_a_raising_op_fails_all_its_rows(monkeypatch, tmp_path, error):
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(logint.cli, "main", boom)
    monkeypatch.setattr(logint.coding, "expected_hb_mean_iid", boom)
    runner = Runner(logint, str(tmp_path))
    for op in (CLI_OP, LIB_OP):
        res = runner.run(op)
        assert res["err"] == type(error).__name__
        assert run.check(op, res) == (op["rows"], op["rows"], 0)
    t = run.tally([CLI_OP, LIB_OP], [runner.run(CLI_OP), runner.run(LIB_OP)])
    assert (t["total"]["attempted"], t["total"]["raise"], t["total"]["oracle"]) == (9, 9, 0)


def test_passing_ops_pass(tmp_path):
    runner = Runner(logint, str(tmp_path))
    for op in (CLI_OP, LIB_OP):
        assert run.check(op, runner.run(op)) == (op["rows"], 0, 0)


def test_timed_runs_calibrate_between_rows_and_restore_the_functions(tmp_path):
    import worker

    op = {"fam": "cli.kt", "args": {"probs": [0.5, 0.5], "s": 0.5,
                                    "argv": ["kt", "--n-max", "300", "--s-bias", "0.5"]},
          "rows": 300, "tol": [1e-10, 1e-12]}
    before = [getattr(getattr(logint, m), f) for m, f in worker.ROW_FUNCTIONS]
    runner = Runner(logint, str(tmp_path))
    job = {"rounds": [[op]], "seconds": 0.0, "results_path": str(tmp_path / "r.jsonl")}
    out = worker.timed(runner, job)
    assert [getattr(getattr(logint, m), f) for m, f in worker.ROW_FUNCTIONS] == before
    assert runner.cal is None
    res = json.loads((tmp_path / "r.jsonl").read_text())
    assert run.check(op, res) == (300, 0, 0)
    # the sweep takes well over 50 ms: kernels ran between its rows, and
    # their time is not the op's
    assert any(res["t0"] < t < res["t1"] for t, _, _ in out["cal_s"])
    assert 0 < res["dt"] < res["t1"] - res["t0"]
