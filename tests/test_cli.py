import csv
import errno
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfrac.checks
import qfrac.special
from qfrac import NonConvergence, QParams, Truncation
from qfrac.cli import main
from qfrac.expr import compile_expr
from qfrac.fractional import (left_caputo, left_frac_integral, left_riemann_deriv, right_caputo,
                              right_frac_integral, right_riemann_deriv)

from conftest import run_cli


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class WriteLog(io.StringIO):
    """A stdout that keeps the size of each write, and raises error on every
    write after the first `good` ones."""

    def __init__(self, good: float = math.inf, error: OSError | None = None) -> None:
        super().__init__()
        self.sizes, self.good, self.error = [], good, error

    def write(self, text: str) -> int:
        if len(self.sizes) >= self.good:
            raise self.error
        self.sizes.append(len(text))
        return super().write(text)


OPERATORS = {
    ("fracint", "left"): left_frac_integral,
    ("fracint", "right"): right_frac_integral,
    ("fracder", "left"): left_riemann_deriv,
    ("fracder", "right"): right_riemann_deriv,
    ("caputo", "left"): left_caputo,
    ("caputo", "right"): right_caputo,
}


# Each eval target, as the words that select it, with a valid value for every
# numeric flag it reads besides the common --q, --rel-tol and --max-terms.
NUMERIC_FLAGS = {
    ("gamma",): {"--alpha": "0.5"},
    ("qfact",): {"--t": "1", "--s": "0.5", "--alpha": "0.5"},
    ("ml",): {"--alpha": "0.5", "--beta": "1", "--lambda": "0.3", "--z": "1", "--z0": "0"},
    ("eq",): {"--t": "0.5"},
    ("Eq",): {"--t": "0.5"},
    **{(target, "--side", side, "--f", "s"):
       {"--alpha": "0.5", "--t": "1", **({"--a": "0"} if side == "left" else {"--b": "4"})}
       for target, side in OPERATORS},
}
COMMON_FLAGS = {"--q": "0.5", "--rel-tol": "1e-12", "--max-terms": "10000"}


class TestEval:
    def test_gamma_at_one(self):
        code, out, _ = run_cli(["eval", "gamma", "--q", "0.5", "--alpha", "1"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(1.0)

    def test_ml_zero_rate(self):
        code, out, _ = run_cli(
            ["eval", "ml", "--q", "0.5", "--alpha", "1", "--beta", "1",
             "--lambda", "0", "--z", "1", "--z0", "0"]
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(1.0)

    def test_ml_on_the_time_scale_near_q_one(self):
        # z = z0 q**-1000: (q; q)_999 underflows at q = 0.998, and the head
        # used to print 1.0.  The value is from a 40-digit evaluation of the
        # definition.
        code, out, _ = run_cli(
            ["eval", "ml", "--q", "0.998", "--alpha", "0.5", "--lambda", "0.3",
             "--z0", "0.01", "--z", "0.0740386877238432"]
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(1.0917599926911134, rel=1e-13)

    def test_left_fractional_integral_of_identity(self):
        code, out, _ = run_cli(
            ["eval", "fracint", "--side", "left", "--q", "0.5", "--alpha", "1",
             "--a", "0", "--t", "1", "--f", "s"]
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_right_fractional_integral(self):
        code, out, _ = run_cli(
            ["eval", "fracint", "--side", "right", "--q", "0.5", "--alpha", "1",
             "--t", "1", "--f", "s^-2"]
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(0.5, rel=1e-9)

    def test_caputo_from_above_t(self):
        # The q-Taylor part of a quadratic is the quadratic, so the value is
        # 0; composing nabla_q^n f under the integral printed -16.0.
        code, out, err = run_cli(
            ["eval", "caputo", "--q", "0.9", "--alpha", "2.3", "--a", "2.2", "--t", "1",
             "--f", "s*s - 0.3*s + 0.5"]
        )
        assert code == 0 and err == ""
        assert abs(float(parse_csv(out)[0]["value"])) <= 1e-11

    def test_caputo_from_zero_at_order_two(self):
        # The q-power rule gives (1 + q) / q_gamma(3 - alpha); composing
        # nabla_q^2 f under the integral printed 1.1054260982791138.
        code, out, err = run_cli(
            ["eval", "caputo", "--q", "0.3", "--alpha", "1.3", "--a", "0", "--t", "1",
             "--f", "s*s - 0.3*s + 0.5"]
        )
        assert code == 0 and err == ""
        exact = 1.3609321587261653
        assert abs(float(parse_csv(out)[0]["value"]) - exact) <= 1e-12 * exact

    def test_caputo_from_zero_failure_names_the_derivative(self):
        # s^0.5 has no q-Taylor coefficients at 0; the message named the
        # inner integral of the composition, at order 0.5.
        code, out, err = run_cli(
            ["eval", "caputo", "--q", "0.5", "--alpha", "1.5", "--a", "0", "--t", "1",
             "--f", "s^0.5"]
        )
        assert code == 2 and out == ""
        assert err.startswith(
            "qfrac: numeric failure: left Caputo derivative at t=1.0, a=0.0, alpha=1.5, q=0.5: ")
        assert "Traceback" not in err

    def test_multiple_points_one_row_each(self):
        code, out, _ = run_cli(["eval", "eq", "--q", "0.5", "--t", "0.25,0.5"])
        assert code == 0
        rows = parse_csv(out)
        assert [row["t"] for row in rows] == ["0.25", "0.5"]

    def test_verbose_adds_terms_column(self):
        code, out, _ = run_cli(
            ["eval", "eq", "--q", "0.5", "--t", "0.5", "--verbose"]
        )
        assert code == 0
        rows = parse_csv(out)
        assert int(rows[0]["terms"]) > 3

    def test_qfact(self):
        code, out, _ = run_cli(
            ["eval", "qfact", "--q", "0.5", "--t", "1", "--s", "0.5",
             "--alpha", "2"]
        )
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(0.375)

    def test_output_file(self, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(
            ["eval", "gamma", "--q", "0.5", "--alpha", "3", "--out", str(target)]
        )
        assert code == 0 and out == ""
        rows = parse_csv(target.read_text())
        assert float(rows[0]["value"]) == pytest.approx(1.5)

    def test_rel_tol_flag(self):
        # The left integral's lattice series runs the stopping rule; q_gamma's
        # products stop where their closed tails are exact and read no rel_tol.
        argv = ["eval", "fracint", "--q", "0.5", "--alpha", "0.5", "--t", "1",
                "--f", "inv(1+s)", "--verbose"]
        code, out, _ = run_cli(argv + ["--rel-tol", "1e-6"])
        assert code == 0
        loose_terms = int(parse_csv(out)[0]["terms"])
        code, out, _ = run_cli(argv)
        tight_terms = int(parse_csv(out)[0]["terms"])
        assert loose_terms < tight_terms

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["ml", "--q", "0.5", "--alpha", "0.5", "--z", "1"], "--lambda", "-1e-3"),
            (["qfact", "--q", "0.5", "--alpha", "0.5", "--t", "1"], "--s", "-1e-2"),
            (["eq", "--q", "0.5"], "--t", "-0.5,1"),
            (["ml", "--q", "0.5", "--alpha", "0.5", "--z", "1,2"], "--lambda", "-.5E-1"),
            (["eq", "--q", "0.5"], "--t", "-inf"),
            (["fracint", "--q", "0.5", "--alpha", "0.5", "--f", "s"], "--t", "-Infinity"),
            (["qfact", "--q", "0.5", "--alpha", "0.5", "--t", "1"], "--s", "-nan"),
        ],
        ids=["exponent", "exponent-s", "list", "leading-dot", "inf", "infinity", "nan"],
    )
    def test_negative_value_after_flag(self, argv, flag, value):
        # The value reaches the command as it does after "=", not a usage error.
        assert run_cli(["eval", *argv, flag, value]) == run_cli(["eval", *argv, f"{flag}={value}"])

    @pytest.mark.parametrize("given", [True, False], ids=["endpoint", "default"])
    @pytest.mark.parametrize("target, side", list(OPERATORS))
    def test_operator_rows_match_the_library(self, target, side, given):
        # Left operators start at --a (default 0), right ones end at --b (default inf).
        key, end, other = ("a", 0.125, "b") if side == "left" else ("b", 4.0, "a")
        f = "s*s - 0.3*s + 0.5" if side == "left" else "s^-3"
        argv = ["eval", target, "--side", side, "--q", "0.5", "--alpha", "0.7", "--t", "1,0.5",
                "--f", f]
        if given:
            argv += [f"--{key}", repr(end)]
        else:
            end = 0.0 if side == "left" else math.inf
        code, out, _ = run_cli(argv)
        assert code == 0
        rows = parse_csv(out)
        expr = compile_expr(f)
        assert [row["t"] for row in rows] == ["1.0", "0.5"]
        for row in rows:
            t = float(row["t"])
            expected = OPERATORS[target, side](lambda s: expr(s, t), end, 0.7, t, QParams(0.5))
            assert row["value"] == repr(expected)
            assert row[key] == repr(end) and row[other] == ""
            assert row["target"] == target and row["alpha"] == "0.7" and row["f"] == f


class TestEvalErrors:
    @pytest.mark.parametrize("rel_tol", ["inf", "1.0", "1e300"])
    def test_rel_tol_outside_unit_interval_is_usage(self, rel_tol):
        code, out, err = run_cli(
            ["eval", "eq", "--q", "0.5", "--t", "0.5", "--rel-tol", rel_tol]
        )
        assert code == 3 and out == ""
        assert f"Truncation: rel_tol must be in (0, 1), got {float(rel_tol)!r}" in err

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["eval", "gamma", "--q", "0.5", "--alpha", "1.5"], None),
            (["check", "core"], "run_suite"),
            (["explore", "--grid", "0.5,0.5"], "explore_finite_right_semigroup"),
        ],
        ids=["eval", "check", "explore"],
    )
    def test_unwritable_out_is_usage(self, tmp_path, monkeypatch, argv, work):
        # check and explore must fail on the path before doing their work.
        if work is not None:
            def must_not_run(*args, **kwargs):
                raise AssertionError(f"{work} ran before --out was opened")

            monkeypatch.setattr(qfrac.checks, work, must_not_run)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(argv + ["--out", str(target)])
        assert code == 3 and out == ""
        assert err.startswith("qfrac: error:") and str(target) in err

    WRITERS = [["eval", "gamma", "--q", "0.5", "--alpha", "1.5"], ["check", "core", "--seed", "7"],
               ["explore", "--grid", "0.5,0.5"]]

    @pytest.mark.parametrize("argv", WRITERS, ids=["eval", "check", "explore"])
    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                       BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
                             ids=["no-space", "broken-pipe"])
    def test_failed_write_is_usage(self, argv, error):
        # Every write after the first raises.
        stdout, err = WriteLog(good=1, error=error), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(err):
            code = main(argv + ["--out", "-"])
        assert (code, err.getvalue()) == (
            3, f"qfrac: error: cannot write --out '-': {error.strerror}\n")
        assert len(stdout.sizes) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", WRITERS, ids=["eval", "check", "explore"])
    def test_full_device_is_usage(self, argv):
        code, out, err = run_cli(argv + ["--out", "/dev/full"])
        assert (code, out, err) == (
            3, "", f"qfrac: error: cannot write --out '/dev/full': {os.strerror(errno.ENOSPC)}\n")

    def test_domain_error_is_usage(self):
        code, out, err = run_cli(["eval", "Eq", "--q", "0.5", "--t", "1.5"])
        assert code == 3
        assert "error" in err

    def test_negative_endpoint_names_the_operator(self):
        code, out, err = run_cli(["eval", "fracint", "--q", "0.5", "--alpha", "0.5", "--t", "-1",
                                  "--f", "s"])
        assert (code, out) == (3, "")
        assert "left_frac_integral: t must be finite and >= 0, got -1.0" in err

    def test_point_zero_below_the_start_is_usage(self):
        code, out, err = run_cli(["eval", "fracint", "--q", "0.5", "--t", "0", "--a", "1",
                                  "--alpha", "1", "--f", "1+s"])
        assert (code, out) == (3, "")
        assert "left fractional integral at t=0.0, a=1.0, alpha=1.0, q=0.5" in err

    def test_start_on_the_grid_above_skips_the_kernel_zeros(self):
        # a = 4 = t q**-2 at alpha = 2: the kernel vanishes at the anchored
        # point s = 2, where the operand is singular, so only s = 4 is sampled.
        code, out, err = run_cli(["eval", "fracint", "--q", "0.5", "--t", "1", "--a", "4",
                                  "--alpha", "2", "--f", "1/(s-2)"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "fracint,0.5,2.0,,,4.0,,,1.0,,,1/(s-2),1.0"

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    def test_non_finite_beta_is_usage(self, beta):
        code, out, err = run_cli(["eval", "ml", "--q", "0.5", "--alpha", "0.5", "--lambda", "0.3",
                                  f"--beta={beta}", "--z", "1"])
        assert (code, out) == (3, "")
        assert f"beta must be finite, got {beta}" in err

    def test_product_past_the_budget_names_its_argument(self):
        # (q**0.5; q)_inf at q = 0.999 is 1 - q**0.5 times (q**1.5; q)_inf,
        # which takes 25,262 factors before its closed tail is exact to
        # rounding (27,620 when products ran to rel_tol).
        code, out, err = run_cli(["eval", "gamma", "--q", "0.999", "--alpha", "0.5"])
        assert (code, out) == (2, "")
        assert err == ("qfrac: numeric failure: (q**x; q)_inf at x=0.5, q=0.999: "
                       "25262 terms exceed the budget of 10000\n")

    def test_missing_flag(self):
        code, _, err = run_cli(["eval", "fracint", "--q", "0.5", "--alpha", "1",
                                "--t", "1"])
        assert code == 3
        assert "--f" in err

    def test_missing_q(self):
        code, _, _ = run_cli(["eval", "gamma", "--alpha", "1"])
        assert code == 3

    def test_bad_expression(self):
        code, _, _ = run_cli(
            ["eval", "fracint", "--q", "0.5", "--alpha", "1", "--t", "1",
             "--f", "os.system"]
        )
        assert code == 3

    def test_bad_point_list(self):
        code, _, _ = run_cli(["eval", "eq", "--q", "0.5", "--t", "0.5,zebra"])
        assert code == 3

    def test_unknown_target(self):
        code, _, _ = run_cli(["eval", "zeta", "--q", "0.5"])
        assert code == 3

    def test_numeric_failure_is_exit_two(self):
        # e_q diverges outside |t| < 1/(1-q) = 2.
        code, _, err = run_cli(["eval", "eq", "--q", "0.5", "--t", "3"])
        assert code == 2
        assert "numeric" in err

    def test_gamma_pole_is_exit_two(self):
        code, _, _ = run_cli(["eval", "gamma", "--q", "0.5", "--alpha", "0"])
        assert code == 2

    def test_gamma_pole_within_float_resolution_names_parameters(self):
        code, out, err = run_cli(["eval", "gamma", "--q", "0.5", "--alpha", "1e-320"])
        assert code == 2 and out == ""
        assert err.startswith("qfrac: numeric failure:")
        assert "alpha=1e-320" in err and "q=0.5" in err

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["eval", "qfact", "--q", "0.5", "--t", "1e-300", "--s", "0", "--alpha", "-5"],
             ["t=1e-300", "s=0.0", "alpha=-5.0", "q=0.5"]),
            (["eval", "gamma", "--q", "0.5", "--alpha", "1e308"],
             ["alpha=1e+308", "q=0.5"]),
        ],
    )
    def test_overflow_is_exit_two(self, argv, names):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("qfrac: numeric failure:")
        for name in names:
            assert name in err


    def test_huge_integer_order_is_numeric_failure(self):
        # An integer order above the term budget; it used to recurse until
        # RecursionError.
        code, out, err = run_cli(
            ["eval", "caputo", "--q", "0.5", "--alpha", "1e308", "--t", "1", "--f", "s"]
        )
        assert code == 2 and out == ""
        assert err.startswith("qfrac: numeric failure:")
        assert "t=1.0" in err and "q=0.5" in err

    def test_high_integer_order_returns_promptly(self):
        # nabla_q^30 takes 31 samples of f, not 2**30; a subprocess with a
        # timeout keeps a regression from hanging the suite.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "qfrac", "eval", "--q", "0.9", "caputo",
             "--alpha", "30", "--t", "0.3", "--f", "s"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode in (0, 2), done.stderr

    @pytest.mark.parametrize("s", ["0.5", "0.37"])
    def test_huge_integer_factorial_power_is_numeric_failure(self, s):
        # An integer order of 3e9 used to multiply that many factors, on and
        # off the grid of t; a subprocess with a timeout keeps a regression
        # from hanging the suite.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "qfrac", "eval", "--q", "0.5", "qfact",
             "--alpha", "3e9", "--t", "1", "--s", s],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("qfrac: numeric failure:")
        assert "alpha=3000000000.0" in done.stderr

    def test_off_grid_failure_names_parameters(self):
        code, _, err = run_cli(
            ["eval", "--q", "0.5", "fracint", "--alpha", "0.7", "--t", "1",
             "--a", "0.3", "--f", "inv(s)"]
        )
        assert code == 2
        assert err.startswith("qfrac: numeric failure: left fractional integral")
        for name in ("t=1.0", "a=0.3", "alpha=0.7", "q=0.5"):
            assert name in err

    @pytest.mark.parametrize("argv, names", [
        (["--side", "right", "--b", "inf", "--f", "s"],
         ["right fractional integral at t=1.0, b=inf, alpha=0.5, q=0.5", "terms grew"]),
        (["--a", "0", "--f", "inv(s)"],
         ["left fractional integral at t=1.0, a=0.0, alpha=0.5, q=0.5", "term 1024 overflowed"]),
    ])
    def test_lattice_series_failure_names_parameters(self, argv, names):
        code, _, err = run_cli(
            ["eval", "--q", "0.5", "fracint", "--alpha", "0.5", "--t", "1", *argv])
        assert code == 2
        assert err.startswith("qfrac: numeric failure: ")
        for name in names:
            assert name in err

    @pytest.mark.parametrize("argv, names", [
        (["eval", "fracint", "--side", "right", "--alpha", "60", "--t", "1", "--f", "inv(s)"],
         ["r(alpha) at alpha=60.0, q=0.5", "overflowed"]),
        (["explore", "--b", "1", "--t", "0.25", "--grid", "1e308,1"],
         ["NumericOverflow: right fractional integral at t=0.5, b=1.0, alpha=1e+308, q=0.5: "
          "0.5**-1e+308 overflowed"]),
        (["eval", "qfact", "--t", "1", "--s", "0.3", "--alpha", "-2000.5"],
         ["(t - s)_q^alpha at t=1.0, s=0.3, alpha=-2000.5, q=0.5", "overflowed"]),
        (["eval", "fracder", "--alpha", "2000.5", "--t", "2", "--f", "1"],
         ["left fractional integral at t=2.0, a=0.0, alpha=-2000.5, q=0.5", "overflowed"]),
        (["eval", "fracder", "--side", "right", "--alpha", "1100.5", "--t", "1", "--f", "s"],
         ["right Riemann derivative at t=1.0, b=inf, alpha=1100.5, q=0.5", "overflowed"]),
    ], ids=["eval", "explore", "qfact", "left-riemann", "right-riemann"])
    def test_right_power_overflow_names_parameters(self, argv, names):
        code, out, err = run_cli([argv[0], "--q", "0.5", *argv[1:]])
        assert code == 2
        for name in names:
            assert name in out + err
        assert "Numerical result out of range" not in out + err
        assert "float division by zero" not in out + err

    @pytest.mark.parametrize("argv, message", [
        (["fracint", "--side", "right", "--t", "0"],
         "right_frac_integral: t must be finite and > 0, got 0.0"),
        (["fracder", "--t", "0"], "left_riemann_deriv: t must be finite and > 0, got 0.0"),
        (["fracder", "--side", "right", "--b", "0.5", "--t", "1"],
         "right Riemann derivative at t=1.0, b=0.5, alpha=0.5, q=0.5: needs b >= t"),
        (["fracint", "--side", "right", "--b", "3", "--t", "1"],
         "finite upper limit must satisfy b = t * q**-m, m >= 0; got q=0.5, t=1.0, b=3.0"),
        (["gamma", "--alpha", "inf"], "q_gamma: alpha must be finite, got inf"),
        (["Eq", "--t", "1.5"], "q_exp_E: t must be in (-1, 1), got 1.5"),
        (["qfact", "--t", "1", "--s", "0.5", "--alpha", "inf"],
         "q_factorial_power: alpha must be finite, got inf"),
        (["qfact", "--t", "0", "--s", "0.5"],
         "(t - s)_q^alpha at t=0.0, s=0.5, alpha=0.5, q=0.5: "
         "a non-integer alpha requires t != 0 (or s = 0)"),
        (["qfact", "--t", "-1", "--s", "0.5"],
         "(t - s)_q^alpha at t=-1.0, s=0.5, alpha=0.5, q=0.5: "
         "a fractional q-factorial power needs t > 0"),
        # Non-finite inputs: each with its own message, the field or point named.
        (["ml", "--lambda", "nan", "--z", "1"], "MLParams: lam must be finite, got nan"),
        (["ml", "--z0", "nan", "--z", "1"], "MLParams: z0 must be finite and >= 0, got nan"),
        (["ml", "--z0", "inf", "--z", "1"], "MLParams: z0 must be finite and >= 0, got inf"),
        (["ml", "--z", "nan"], "q_mittag_leffler: z must be finite and >= 0, got nan"),
        (["ml", "--z", "-1", "--lambda", "0.3"],
         "q_mittag_leffler: z must be finite and >= 0, got -1.0"),
        (["fracder", "--side", "right", "--t", "inf", "--f", "s^-2"],
         "right_riemann_deriv: t must be finite and > 0, got inf"),
        (["fracder", "--alpha", "1", "--t", "inf", "--f", "s"],
         "left_riemann_deriv: t must be finite and > 0, got inf"),
        (["caputo", "--alpha", "2", "--t", "inf", "--f", "s"],
         "left_caputo: t must be finite and >= 0, got inf"),
        (["fracint", "--t", "inf"], "left_frac_integral: t must be finite and >= 0, got inf"),
        (["qfact", "--alpha", "2", "--t", "1", "--s", "inf"],
         "q_factorial_power: s must be finite, got inf"),
        (["qfact", "--alpha", "2", "--t", "0", "--s", "nan"],
         "q_factorial_power: s must be finite, got nan"),
        (["qfact", "--alpha", "2", "--t", "nan", "--s", "0.5"],
         "q_factorial_power: t must be finite, got nan"),
        (["qfact", "--alpha", "2", "--t", "inf", "--s", "0.5"],
         "q_factorial_power: t must be finite, got inf"),
        (["qfact", "--t", "nan", "--s", "0.5"], "q_factorial_power: t must be finite, got nan"),
        (["qfact", "--t", "inf", "--s", "0.5"], "q_factorial_power: t must be finite, got inf"),
    ], ids=["right-integral", "left-riemann", "right-riemann", "right-integral-off-grid-b",
            "gamma-not-finite", "big-exp", "qfact-not-finite", "qfact-t-zero", "qfact-t-negative",
            "ml-lambda-nan", "ml-z0-nan", "ml-z0-inf", "ml-z-nan", "ml-z-negative",
            "right-fracder-t-inf",
            "integer-fracder-t-inf", "integer-caputo-t-inf", "left-integral-t-inf",
            "integer-qfact-s-inf", "integer-qfact-s-nan", "integer-qfact-t-nan",
            "integer-qfact-t-inf", "qfact-t-nan", "qfact-t-inf"])
    def test_domain_error_names_its_parameters(self, argv, message):
        code, out, err = run_cli(
            ["eval", argv[0], "--q", "0.5", "--alpha", "0.5", "--f", "1", *argv[1:]])
        assert (code, out, err) == (3, "", f"qfrac: error: {message}\n")

    # --b inf is the documented end of the right operators, not an error.
    @pytest.mark.parametrize("words, flag, value", [
        (words, flag, value)
        for words, flags in NUMERIC_FLAGS.items()
        for flag in [*COMMON_FLAGS, *flags]
        for value in ("nan", "inf", "-inf")
        if (flag, value) != ("--b", "inf")
    ])
    def test_non_finite_number_is_a_usage_error(self, words, flag, value):
        # Every numeric flag of every target: exit 3, naming the value,
        # before any output.
        flags = {**COMMON_FLAGS, **NUMERIC_FLAGS[words], flag: value}
        code, out, err = run_cli(["eval", *words, *itertools.chain(*flags.items())])
        assert (code, out) == (3, "")
        assert err.startswith("qfrac: error: ")
        assert re.search(rf"(=|got |'){re.escape(value)}\b", err), err

    @pytest.mark.parametrize("side, end", [("right", "b=inf"), ("left", "a=0.0")])
    def test_operand_overflow_names_its_sum(self, side, end):
        # s**-2 leaves the range of a double at s = 1e-300, as a bare
        # OverflowError that named nothing.
        code, out, err = run_cli(["eval", "fracint", "--side", side, "--q", "0.5", "--alpha",
                                  "0.5", "--t", "1e-300", "--f", "s^-2"])
        assert (code, out) == (2, "")
        assert err.startswith(f"qfrac: numeric failure: {side} fractional integral at t=1e-300, "
                              f"{end}, alpha=0.5, q=0.5: the operand overflowed (")

    def test_underflow_near_q_one_is_a_numeric_failure(self):
        # (q; q)_inf underflows to 0 at q = 0.999; the series divided by it,
        # and printed "float division by zero".
        code, out, err = run_cli(["eval", "ml", "--q", "0.999", "--alpha", "0.9", "--lambda", "-1",
                                  "--z", "2", "--max-terms", "1000000"])
        assert (code, out) == (2, "")
        assert err.startswith("qfrac: numeric failure: (q**x; q)_inf at x=1.0, q=0.999: "
                              "the product underflowed")
        assert "division by zero" not in err

    @pytest.mark.parametrize("endpoints, name", [
        (["--t", "1", "--a", "nan"], "a must be finite and >= 0, got nan"),
        (["--t", "nan"], "t must be finite and >= 0, got nan"),
    ], ids=["a", "t"])
    def test_nan_endpoint_of_left_integral(self, endpoints, name):
        argv = ["eval", "fracint", "--q", "0.5", "--alpha", "0.5", "--f", "s", *endpoints]
        code, out, err = run_cli(argv)
        assert code == 3 and out == ""
        assert err.startswith("qfrac: error: left_frac_integral: " + name)

    def test_caputo_operand_singular_at_the_start(self, p_half):
        # The series from a reads f(a), which inv(s) from a = 0 has not.
        with pytest.raises(NonConvergence) as info:
            left_caputo(compile_expr("inv(s)"), 0.0, 0.5, 1.0, p_half)
        for name in ("left Caputo derivative", "t=1.0", "a=0.0", "alpha=0.5", "q=0.5"):
            assert name in str(info.value)
        code, out, err = run_cli(
            ["eval", "caputo", "--side", "left", "--q", "0.5", "--alpha", "0.5",
             "--a", "0", "--t", "1", "--f", "inv(s)"]
        )
        assert code == 2 and out == ""
        assert err.startswith("qfrac: numeric failure: left Caputo derivative")
        assert "Traceback" not in err
        for name in ("t=1.0", "a=0.0", "alpha=0.5"):
            assert name in err
        # From a = t the sum is empty and reads no sample, as the composition.
        assert left_caputo(compile_expr("inv(s - 1)"), 1.0, 0.5, 1.0, p_half) == 0.0

    def test_off_grid_kernel_overflow_names_parameters(self):
        code, out, err = run_cli(
            ["eval", "--q", "0.5", "fracint", "--alpha", "300", "--t", "1e10",
             "--a", "3e9", "--f", "1"]
        )
        assert code == 2 and out == ""
        assert err.startswith("qfrac: numeric failure:")
        for name in ("t=10000000000.0", "a=3000000000.0", "alpha=300.0"):
            assert name in err


class TestEnvironment:
    def test_env_budget_applies(self, monkeypatch):
        monkeypatch.setenv("QFRAC_MAX_TERMS", "5")
        code, _, _ = run_cli(["eval", "eq", "--q", "0.5", "--t", "0.9"])
        assert code == 2

    def test_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv("QFRAC_MAX_TERMS", "5")
        code, _, _ = run_cli(
            ["eval", "eq", "--q", "0.5", "--t", "0.9", "--max-terms", "200"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("QFRAC_REL_TOL", "tiny"),
            ("QFRAC_REL_TOL", "inf"),
            ("QFRAC_MAX_TERMS", "nan"),
            ("QFRAC_MAX_TERMS", "inf"),
            ("QFRAC_MAX_TERMS", "1e400"),
            ("QFRAC_MAX_TERMS", "2.7"),
            ("QFRAC_MAX_TERMS", "0"),
        ],
    )
    def test_malformed_environment(self, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        code, out, err = run_cli(["eval", "gamma", "--q", "0.5", "--alpha", "1"])
        assert code == 3 and out == ""
        assert err.startswith("qfrac: error:")
        if name == "QFRAC_MAX_TERMS" and raw != "0":
            assert f"{name}={raw!r} is not an integer" in err


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "qfrac", "eval", "gamma", "--q", "0.5", "--alpha", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert float(parse_csv(done.stdout)[0]["value"]) == pytest.approx(1.0)

    def test_reader_that_leaves_early_gets_no_traceback(self):
        # As `qfrac check core | head -c 1`: the report is far longer than
        # the pipe holds, so a write after the reader left fails.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-X", "dev", "-m", "qfrac", "check", "core", "--seed", "7"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert (code, err) == (3, f"qfrac: error: cannot write --out '-': "
                                  f"{os.strerror(errno.EPIPE)}\n")


class TestCheck:
    def test_suite_report_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, _, err = run_cli(
            ["check", "special", "--seed", "7", "--out", str(target)]
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["passed"] is True
        assert report["suite"] == "special"
        assert report["n_records"] == len(report["records"]) > 100
        assert "duration" not in report
        assert "suite=special" in err

    @staticmethod
    def check_stdout(monkeypatch, argv, report=None, stdout=None):
        """Stdout of `qfrac check ... --out -` and the report it wrote, which is
        the suite's unless a report is given to write instead; stdout is the
        stream written to, a fresh WriteLog unless given."""
        reports = []
        run_suite = qfrac.checks.run_suite

        def capture(*args, **kwargs):
            reports.append(report or run_suite(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(qfrac.checks, "run_suite", capture)
        stdout = stdout or WriteLog()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            main(["check", *argv, "--out", "-"])
        (written,) = reports
        return stdout.getvalue(), written

    @pytest.mark.parametrize(
        "argv",
        [["core"], ["special"], ["frac"], ["ivp"], ["all"], ["core", "--max-terms", "1"]],
        ids=["core", "special", "frac", "ivp", "all", "core-max-terms-1"],
    )
    def test_report_bytes_are_the_stdlib_indented_dump(self, monkeypatch, argv):
        out, report = self.check_stdout(monkeypatch, [*argv, "--seed", "7"])
        assert out == json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n"
        if "--max-terms" in argv:
            assert sum(rec.error is not None for rec in report.records) > 100

    def test_report_is_written_a_chunk_at_a_time(self, monkeypatch):
        stdout = WriteLog()
        out, report = self.check_stdout(monkeypatch, ["frac", "--seed", "7"], stdout=stdout)
        assert out == json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n"
        assert max(stdout.sizes) <= len(out) / 8

    CHUNK = qfrac.checks.REPORT_CHUNK

    @pytest.mark.parametrize("n_records", [0, 5, 1, CHUNK, CHUNK + 1],
                             ids=["no-records", "edge-cases", "one", "chunk", "chunk-plus-one"])
    def test_report_bytes_on_edge_cases(self, monkeypatch, n_records):
        error = 'quote " backslash \\ { [ },\n      { \n      "params": 0 new\nline λ \u2192'
        records = [
            qfrac.checks.IdentityRecord("non_finite", {"a": math.inf, "b": -math.inf, "q": 0.5},
                                        math.nan, math.inf, -math.inf, 1e-12),
            qfrac.checks.IdentityRecord("awkward \u00e9rror", {"f": error, "params": 0}, error=error),
            qfrac.checks.IdentityRecord("empty_params", {}, 1.0, 1.0, 0.0, 1e-12, True, 3),
            qfrac.checks.IdentityRecord("list_param", {"m_values": [5, 10], "none": [],
                                                       "deep": [{"x": [1.5]}, {}], "q": 0.5}),
            qfrac.checks.IdentityRecord("after_list", {"q": 0.3, "t": -0.0}, passed=True),
        ]
        if n_records > len(records):
            # Filler, then the awkward-error and nested-params records: at
            # CHUNK records the nested params end the one chunk, at CHUNK + 1
            # the awkward error ends the first and the nested params are the second.
            records = (records * n_records)[:n_records - 2] + records[1::2]
        given = qfrac.checks.CheckReport("core", 7, Truncation(), records[:n_records])
        out, report = self.check_stdout(monkeypatch, ["core"], given)
        assert out == json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
    def test_report_never_enters_the_pure_python_encoder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        code, out, _ = run_cli(["check", "frac", "--seed", "7", "--out", "-"])
        assert code == 0
        assert json.loads(out)["n_records"] > 2000

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
    def test_report_enters_the_pure_python_encoder_once_for_ivp(self, monkeypatch):
        # Only picard_error_monotone's params hold a container (m_values).
        calls = []
        inner = json.encoder._make_iterencode
        monkeypatch.setattr(json.encoder, "_make_iterencode",
                            lambda *args: calls.append(args) or inner(*args))
        code, out, _ = run_cli(["check", "ivp", "--seed", "7", "--out", "-"])
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["n_records"] > 300

    def test_unknown_suite(self):
        code, _, _ = run_cli(["check", "bogus"])
        assert code == 3

    def test_deterministic_output(self):
        first = run_cli(["check", "core", "--seed", "7", "--out", "-"])
        second = run_cli(["check", "core", "--seed", "7", "--out", "-"])
        assert first[0] == second[0] == 0
        assert first[1].encode() == second[1].encode()

    def test_seed_changes_sweeps(self):
        a = run_cli(["check", "core", "--seed", "1", "--out", "-"])[1]
        b = run_cli(["check", "core", "--seed", "2", "--out", "-"])[1]
        assert a != b

    def test_verbose_lists_records(self):
        code, _, err = run_cli(
            ["check", "special", "--seed", "7", "--out", "-", "--verbose"]
        )
        assert code == 0
        assert "[pass] gamma_recurrence" in err

    def test_corrupted_gamma_fails_suite(self, monkeypatch):
        true_gamma = qfrac.special.q_gamma

        def corrupted(alpha, p):
            value = true_gamma(alpha, p)
            if alpha != round(alpha):
                value *= 1.0 + 5e-10 * alpha
            return value

        monkeypatch.setattr(qfrac.special, "q_gamma", corrupted)
        code, out, _ = run_cli(["check", "special", "--seed", "7", "--out", "-"])
        assert code == 1
        report = json.loads(out)
        failing = {r["identity"] for r in report["records"] if not r["passed"]}
        assert failing == {"gamma_recurrence"}


class TestExplore:
    def test_default_grid_row_count(self):
        code, out, _ = run_cli(["explore", "--q", "0.5", "--b", "1"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 36
        assert set(r["identity_id"] for r in rows) == {"right_semigroup_finite"}
        assert set(r["status"] for r in rows) == {"pass"}

    def test_integer_sum_pairs_present(self):
        code, out, _ = run_cli(["explore", "--q", "0.5", "--b", "1"])
        rows = parse_csv(out)
        sums = {round(float(r["alpha"]) + float(r["beta"]), 6) for r in rows}
        assert 1.0 in sums and 2.0 in sums

    def test_verbose_lists_rows(self):
        argv = ["explore", "--q", "0.5", "--b", "1", "--grid", "0.5,0.5;0.25,0.5;1,1"]
        code, out, err = run_cli([*argv, "--verbose"])
        assert code == 0
        assert out == run_cli(argv)[1]
        lines = err.splitlines()
        assert len(lines) == len(parse_csv(out)) == 3
        assert all(line.startswith("[pass] right_semigroup_finite {'q': 0.5, 'alpha': ")
                   for line in lines)

    def test_empty_grid_emits_header_only(self):
        code, out, _ = run_cli(["explore", "--q", "0.5", "--b", "1", "--grid", ""])
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("identity_id,")

    def test_single_pair_has_finite_residual(self):
        code, out, _ = run_cli(
            ["explore", "--q", "0.5", "--b", "1", "--grid", "0.25,0.5", "--f", "1"]
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["status"] == "pass"
        assert 0.0 <= float(row["rel_err"]) <= 1e-12

    def test_matching_orders_pass(self):
        # Equal orders, once poles of an off-grid inner integral, sit on the
        # lattice with the inner endpoint at b q**(1 - beta).
        code, out, _ = run_cli(
            ["explore", "--q", "0.5", "--b", "1", "--grid", "0.5,0.5;0.25,0.5"]
        )
        assert code == 0
        assert [row["status"] for row in parse_csv(out)] == ["pass", "pass"]

    def test_arithmetic_error_becomes_error_row(self):
        # The error row keeps no value of the route that ran before the
        # failure; one error row makes the run a numeric failure, as in check.
        code, out, _ = run_cli(
            ["explore", "--q", "0.5", "--b", "1", "--t", "0.25", "--f", "inv(s - 0.5)",
             "--grid", "0.75,0.25;1,1"]
        )
        assert code == 2
        rows = parse_csv(out)
        assert [row["status"] for row in rows] == ["error", "pass"]
        assert rows[0]["error"].startswith("ZeroDivisionError: ")
        assert rows[0]["value_lhs"] == rows[0]["value_rhs"] == rows[0]["rel_err"] == ""

    def test_all_rows_erroring_is_numeric_failure(self):
        code, out, _ = run_cli(
            ["explore", "--q", "0.5", "--b", "1", "--grid", "1e308,1"]
        )
        assert code == 2
        (row,) = parse_csv(out)
        assert row["status"] == "error" and row["error"].startswith("NumericOverflow: ")

    def test_row_outside_its_tolerance_is_identity_failure(self, monkeypatch):
        # A negative tolerance fails every row, as a wrong route would.
        frac = tuple(entry._replace(tolerance=-1.0) if entry.name == "right_semigroup_finite"
                     else entry for entry in qfrac.checks._TABLE["frac"])
        monkeypatch.setitem(qfrac.checks._TABLE, "frac", frac)
        code, out, _ = run_cli(
            ["explore", "--q", "0.5", "--b", "1", "--grid", "0.5,0.5;0.25,0.5"]
        )
        assert code == 1
        assert [row["status"] for row in parse_csv(out)] == ["fail", "fail"]

    def test_values_pinned(self):
        # Exact finite sums on both routes: the nested one equals the direct
        # one to b q up to rounding, for every pair.
        code, out, _ = run_cli(
            ["explore", "--q", "0.5", "--b", "1", "--grid", "0.25,0.5;0.5,0.5;1,1"]
        )
        assert code == 0
        fields = ("value_lhs", "value_rhs", "rel_err", "terms", "status")
        assert [tuple(row[k] for k in fields) for row in parse_csv(out)] == [
            ("0.33130916078993533", "0.33130916078993533", "0.0", "4", "pass"),
            ("0.25000000000000006", "0.25", "5.551115123125783e-17", "4", "pass"),
            ("0.125", "0.125", "0.0", "4", "pass"),
        ]

    def test_misaligned_endpoint_rejected(self):
        code, _, _ = run_cli(["explore", "--q", "0.5", "--b", "3"])
        assert code == 3

    def test_point_above_endpoint_rejected(self):
        code, _, _ = run_cli(["explore", "--q", "0.5", "--b", "0.25", "--t", "1"])
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "0.5"], "--grid pairs must look like 'alpha,beta', got '0.5'"),
        (["--grid", "0.5,x"], "--grid pair '0.5,x' is not numeric"),
        (["--grid", "0.5,nan"], "--grid pair '0.5,nan' needs finite orders > 0"),
        (["--grid", "0,1"], "--grid pair '0,1' needs finite orders > 0"),
        (["--q", "1.5"], "--q must lie in (0, 1), got 1.5"),
        (["--b", "inf"], "explore requires a finite positive --b, got inf"),
        (["--b", "-1"], "explore requires a finite positive --b, got -1.0"),
        (["--b", "1", "--t", "0.3"], "--t relative to --b=0.3 must be an integer power of q=0.5"),
    ], ids=["grid-shape", "grid-number", "grid-order-nan", "grid-order-zero", "q", "b-infinite",
            "b-negative", "t-off-grid"])
    def test_bad_arguments_are_usage_errors(self, argv, message):
        code, out, err = run_cli(["explore", *argv])
        assert code == 3 and out == ""
        assert err == f"qfrac: error: {message}\n"

    @pytest.mark.parametrize("grid", ["0.5,nan", "0,1"])
    def test_bad_order_fails_before_the_output_opens(self, tmp_path, grid):
        target = tmp_path / "explore.csv"
        code, _, _ = run_cli(["explore", "--grid", grid, "--out", str(target)])
        assert code == 3 and not target.exists()

    def test_rows_roundtrip_through_csv(self, tmp_path):
        target = tmp_path / "explore.csv"
        code, _, _ = run_cli(
            ["explore", "--q", "0.5", "--b", "1", "--grid", "0.25,0.5;0.5,0.5",
             "--out", str(target)]
        )
        assert code == 0
        rows = parse_csv(target.read_text())
        assert len(rows) == 2
        assert rows[0].keys() == rows[1].keys()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(text: str, out_dir: Path) -> list[list[str]]:
    """The arguments of each `qfrac` line in text's sh blocks, split as a
    shell would with comments dropped, an --out file moved into out_dir."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["qfrac"]:
                continue
            argv = argv[1:]
            if "--out" in argv and argv[argv.index("--out") + 1] != "-":
                at = argv.index("--out") + 1
                argv[at] = str(out_dir / Path(argv[at]).name)
            commands.append(argv)
    return commands


def failing_commands(commands: list[list[str]]) -> list[list[str]]:
    return [argv for argv in commands if run_cli(argv)[0] != 0]


class TestReadmeExamples:
    def test_examples_exit_zero(self, tmp_path):
        commands = readme_commands(README.read_text(encoding="utf-8"), tmp_path)
        assert {argv[0] for argv in commands} == {"eval", "check", "explore"}
        assert len(commands) >= 13
        assert failing_commands(commands) == []
        assert {path.name for path in tmp_path.iterdir()} == {"report.json", "residuals.csv"}

    def test_detects_a_stale_flag(self, tmp_path):
        text = ("```sh\nqfrac eval gamma --q 0.5 --alpha 1   # kept\n"
                "qfrac eval gamma --q 0.5 --order 1\n```\n"
                "```\nqfrac eval gamma --order 1\n```\n")
        commands = readme_commands(text, tmp_path)
        assert commands == [["eval", "gamma", "--q", "0.5", "--alpha", "1"],
                            ["eval", "gamma", "--q", "0.5", "--order", "1"]]
        assert failing_commands(commands) == [commands[1]]


# Values that break naive numerics, next to ordinary ones.
EXTREME_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308, 5e-324, 0.0, -1.0,
     1100.5, -1100.5, 2000.5, -2000.5]
)
FUZZ_FLOATS = st.one_of(
    EXTREME_FLOATS, st.floats(0.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1e12, 1e12),
    st.floats(),
)
EVAL_TARGETS = ["gamma", "qfact", "ml", "eq", "Eq", "fracint", "fracder", "caputo"]
FUZZ_NAMES = ("alpha", "beta", "lambda", "a", "b", "s", "t", "z", "z0")
FINITE_OPERANDS = {"s", "s*s - 0.3*s", "s^0.5", "t - s"}
# A float error's own text, where a named failure opens with the operator.
BARE_FLOAT_ERROR = re.compile(
    r"qfrac: numeric failure: (\(34, |float division by zero|math domain error)")


def fuzz_values(**given: float) -> dict[str, float]:
    """Every fuzzed flag, 0.0 where not given."""
    return {name: given.get(name, 0.0) for name in FUZZ_NAMES}


@settings(max_examples=200, deadline=None)
@given(
    target=st.sampled_from(EVAL_TARGETS),
    q=st.one_of(st.floats(0.05, 0.95), st.floats(0.95, 1.0), FUZZ_FLOATS),
    values=st.fixed_dictionaries({name: FUZZ_FLOATS for name in FUZZ_NAMES}),
    f=st.sampled_from(["s", "s*s - 0.3*s", "inv(s)", "s^0.5", "s^-3", "t - s"]),
    side=st.sampled_from(["left", "right"]),
)
@example("qfact", 0.5, fuzz_values(t=1.0, s=0.3, alpha=-2000.5), "s", "left")
@example("fracder", 0.5, fuzz_values(alpha=2000.5, t=2.0), "s", "left")
@example("fracder", 0.5, fuzz_values(alpha=1100.5, t=1.0, b=math.inf), "s", "right")
# An integer order read no endpoint: exit 0 with a NaN a or a -inf b.
@example("fracder", 0.5, fuzz_values(alpha=2.0, t=1.0, a=math.nan), "s", "left")
@example("caputo", 0.5, fuzz_values(alpha=1.0, t=1.0, b=-math.inf), "s^-3", "right")
def test_eval_fuzz_exits_through_documented_codes(target, q, values, f, side):
    # A small term budget keeps nested operators quick on every example.
    argv = ["eval", target, f"--q={q!r}", "--max-terms=300", f"--f={f}", f"--side={side}"]
    argv += [f"--{name}={value!r}" for name, value in values.items()]
    code, _, err = run_cli(argv)
    assert code in (0, 2, 3)
    # A flag the target reads that is not finite is a usage error, but for
    # --b inf, the right operators' documented end.
    words = (target, "--side", side, "--f", "s") if (target, side) in OPERATORS else (target,)
    read = {"q": q, **{flag[2:]: values[flag[2:]] for flag in NUMERIC_FLAGS[words]}}
    if any(not math.isfinite(value) for name, value in read.items()
           if (name, value) != ("b", math.inf)):
        assert code == 3, err
    # An operand finite on [0, inf) fails only through a message that names
    # the operator; a singular one such as inv(s) may raise on its own.
    if f in FINITE_OPERANDS:
        assert not BARE_FLOAT_ERROR.match(err), err
