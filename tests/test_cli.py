"""CLI: CSV contracts, units, determinism, exit codes, fault injection."""

import math
import os

import numpy as np
import pytest

import logint.special
from logint.cli import main, run_validate

LN2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestLnx:
    def test_x1_exact_zero_diff(self, capsys):
        code, out, _ = run_cli(capsys, "lnx", "1.0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][3]) == 0.0

    def test_x2_both_columns_ln2(self, capsys):
        code, out, _ = run_cli(capsys, "lnx", "2.0")
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(LN2, abs=1e-9)
        assert float(rows[0][2]) == pytest.approx(LN2, abs=1e-9)

    def test_large_x_small_diff(self, capsys):
        code, out, _ = run_cli(capsys, "--precision", "12", "lnx", "1e6")
        _, rows = parse_csv(out)
        assert float(rows[0][3]) <= 1e-9

    def test_nonpositive_x_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lnx", "--", "-3.0")
        assert code == 1
        assert "error" in err

    def test_non_convergence_exit_code(self, capsys, monkeypatch):
        from logint.quadrature import QuadResult
        import logint.cli

        monkeypatch.setattr(
            logint.cli, "integrate_semi_infinite",
            lambda f, cfg=None, _axis="": QuadResult(0.0, 1.0, 200, False))
        code, _, err = run_cli(capsys, "lnx", "2.0")
        assert code == 2
        assert "non-convergence" in err


class TestCauchy:
    def test_rows_and_n1_value(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--n-max", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "entropy", "normalized_entropy"]
        assert len(rows) == 4
        assert float(rows[0][1]) == pytest.approx(math.log(4.0 * math.pi), abs=1e-6)
        ratios = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_bits_units(self, capsys):
        _, out_n, _ = run_cli(capsys, "cauchy", "--n-max", "2")
        _, out_b, _ = run_cli(capsys, "cauchy", "--n-max", "2", "--units", "bits")
        _, rows_n = parse_csv(out_n)
        _, rows_b = parse_csv(out_b)
        for rn, rb in zip(rows_n, rows_b):
            assert float(rb[1]) == pytest.approx(float(rn[1]) / LN2, abs=1e-8)


class TestSimo:
    def test_closed_form_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "--precision", "12", "simo",
                               "--sigma-sq", "0.5,1", "--snr-db=-10:30:5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["snr_db", "capacity"]
        from logint.simo import capacity_closed_form_example
        for row in rows:
            rho = 10.0 ** (float(row[0]) / 10.0)
            assert float(row[1]) == pytest.approx(
                capacity_closed_form_example(rho), rel=1e-7)

    def test_monotone_capacity_and_nonnegative_variance(self, capsys):
        _, out, _ = run_cli(capsys, "simo", "--snr-db=-10:10:2.5",
                            "--with-variance")
        header, rows = parse_csv(out)
        assert header == ["snr_db", "capacity", "variance"]
        caps = [float(r[1]) for r in rows]
        assert all(a < b for a, b in zip(caps, caps[1:]))
        assert all(float(r[2]) >= 0.0 for r in rows)

    def test_grid_includes_stop_on_grid(self, capsys):
        _, out, _ = run_cli(capsys, "simo", "--snr-db", "0:10:5")
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0", "5", "10"]

    def test_bits_conversion_applied_once(self, capsys):
        _, nats, _ = run_cli(capsys, "simo", "--snr-db", "10:10:1", "--with-variance")
        _, bits, _ = run_cli(capsys, "simo", "--snr-db", "10:10:1", "--with-variance",
                             "--units", "bits")
        _, rn = parse_csv(nats)
        _, rb = parse_csv(bits)
        assert float(rb[0][1]) == pytest.approx(float(rn[0][1]) / LN2, abs=1e-8)
        assert float(rb[0][2]) == pytest.approx(float(rn[0][2]) / (LN2 * LN2), abs=1e-8)

    def test_bad_grid_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simo", "--snr-db", "10:0:1")
        assert code == 1


class TestAvs:
    def test_paper_rows(self, capsys):
        code, out, _ = run_cli(capsys, "avs", "--n-max", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "expected_hb_mean", "redundancy", "at_limit"]
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-8)
        assert float(rows[1][1]) == pytest.approx(0.602, abs=5e-4)
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-9)

    def test_limit_flag(self, capsys):
        _, out, _ = run_cli(capsys, "avs", "--n-max", "60")
        _, rows = parse_csv(out)
        flags = [int(r[3]) for r in rows]
        means = [float(r[1]) for r in rows]
        for flag, mean in zip(flags, means):
            assert flag == (1 if abs(mean - LN2) <= 0.01 else 0)
        assert flags[-1] == 1  # n = 60 is within 0.01 nats of ln 2


class TestEmpent:
    def test_bss_paper_values_bits(self, capsys):
        code, out, _ = run_cli(capsys, "empent", "--n-list", "1,100,1000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "one_minus_mean_bits", "std_bits"]
        by_n = {int(r[0]): r for r in rows}
        assert float(by_n[1][1]) == pytest.approx(1.0, abs=1e-9)
        assert float(by_n[1][2]) == pytest.approx(0.0, abs=1e-9)
        assert float(by_n[100][1]) == pytest.approx(7.25e-3, rel=0.01)
        assert float(by_n[1000][1]) == pytest.approx(7.217e-4, rel=0.005)

    def test_nats_units(self, capsys):
        _, bits, _ = run_cli(capsys, "empent", "--n-list", "50")
        _, nats, _ = run_cli(capsys, "empent", "--n-list", "50", "--units", "nats")
        _, rb = parse_csv(bits)
        _, rn = parse_csv(nats)
        assert float(rn[0][1]) == pytest.approx(float(rb[0][1]) * LN2, abs=1e-8)


class TestKt:
    def test_columns_and_first_row(self, capsys):
        code, out, _ = run_cli(capsys, "kt", "--n-max", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "ln_n", "n_times_Rn_nats"]
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-8)
        assert all(float(r[2]) >= -1e-9 for r in rows)

    def test_tail_slope(self, capsys):
        _, out, _ = run_cli(capsys, "--precision", "10", "kt", "--n-max", "400")
        _, rows = parse_csv(out)
        pts = [(float(r[1]), float(r[2])) for r in rows if int(r[0]) >= 100]
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope = np.linalg.lstsq(np.vstack([x, np.ones(x.size)]).T, y, rcond=None)[0][0]
        assert abs(slope - 0.5) <= 0.03


class TestValidate:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--suite", "core",
                               "--trials", "50000", "--seed", "123")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("checks")

    def test_deterministic_report(self, capsys):
        a = run_cli(capsys, "validate", "--suite", "core",
                    "--trials", "20000", "--seed", "99")
        b = run_cli(capsys, "validate", "--suite", "core",
                    "--trials", "20000", "--seed", "99")
        assert a == b

    def test_fault_injection_names_check(self, monkeypatch):
        # corrupt the Euler-Mascheroni constant: the E1 series must drift
        monkeypatch.setattr(logint.special, "EULER_GAMMA", 0.578)
        lines, ok = run_validate("core", 2000, 5)
        assert not ok
        failing = [ln for ln in lines if ln.startswith("FAIL")]
        assert any("e1_series_vs_quadrature" in ln for ln in failing)

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(logint.special, "EULER_GAMMA", 0.578)
        code, out, _ = run_cli(capsys, "validate", "--suite", "core",
                               "--trials", "2000", "--seed", "5")
        assert code == 3
        assert "FAIL" in out


class TestOutputPlumbing:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "--out", str(target), "avs", "--n-max", "2")
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("n,expected_hb_mean")
        assert text.endswith("\n")

    def test_precision_validation(self, capsys):
        code, _, err = run_cli(capsys, "--precision", "0", "lnx", "2.0")
        assert code == 1

    def test_precision_column_width(self, capsys):
        _, out, _ = run_cli(capsys, "--precision", "3", "avs", "--n-max", "1")
        _, rows = parse_csv(out)
        assert rows[0][1] == "0.500"

    def test_round_trip_determinism(self, capsys):
        a = run_cli(capsys, "kt", "--n-max", "12")
        b = run_cli(capsys, "kt", "--n-max", "12")
        assert a == b
