"""Acceptance gate: every shipped guarantee, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria reuse the deterministic identity suites (seed 7) plus direct
spot computations for the analytically derived values.
"""

import json
import math

import pytest

import qfrac.special
from qfrac import (
    QParams,
    right_frac_integral,
)
from qfrac.checks import run_suite

from conftest import rel_err, run_cli

INF = math.inf
SEED = 7


@pytest.fixture(scope="module")
def special_report():
    return run_suite("special", seed=SEED)


@pytest.fixture(scope="module")
def frac_report():
    return run_suite("frac", seed=SEED)


@pytest.fixture(scope="module")
def ivp_report():
    return run_suite("ivp", seed=SEED)


def _pick(report, identity):
    records = [r for r in report.records if r.identity == identity]
    assert records, f"no records produced for {identity}"
    return records


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _all_pass(report, identity, tolerance=None):
    records = _pick(report, identity)
    ok = all(r.passed for r in records)
    if tolerance is not None:
        ok = ok and all(r.tolerance == tolerance for r in records)
    return ok


def test_criterion_1_power_rule(frac_report):
    records = _pick(frac_report, "power_rule")
    qs = {r.params["q"] for r in records}
    mus = {r.params["mu"] for r in records}
    alphas = {r.params["alpha"] for r in records}
    ok = (
        all(r.passed and r.tolerance == 1e-8 for r in records)
        and qs == {0.3, 0.5, 0.8}
        and mus == {0.0, 0.5, 1.0, 2.0}
        and alphas == {0.5, 1.0, 1.7}
    )
    _criterion(1, "power rule at relative error <= 1e-8 over the full sweep", ok)


def test_criterion_2_left_semigroup(frac_report):
    ok = _all_pass(frac_report, "left_semigroup", 1e-6)
    _criterion(2, "left fractional integrals compose additively (<= 1e-6)", ok)


def test_criterion_3_transfer_identities(frac_report):
    ok = (
        _all_pass(frac_report, "left_transfer_first_order", 1e-6)
        and _all_pass(frac_report, "left_transfer_iterated", 1e-6)
        and _all_pass(frac_report, "right_transfer", 1e-6)
        and _all_pass(frac_report, "caputo_riemann_left", 1e-6)
        and _all_pass(frac_report, "caputo_riemann_right", 1e-6)
        and _all_pass(frac_report, "vanishing_above_endpoint", 0.0)
    )
    _criterion(
        3,
        "transfer identities (<= 1e-6) and the exactly-zero vanishing integral",
        ok,
    )


def test_criterion_4_caputo_inversion(frac_report):
    records = _pick(frac_report, "caputo_inversion")
    alphas = {r.params["alpha"] for r in records}
    ok = all(r.passed and r.tolerance == 1e-6 for r in records) and alphas == {
        0.7,
        1.6,
    }
    _criterion(4, "fractional integral inverts the Caputo derivative (<= 1e-6)", ok)


def test_criterion_5_ivp_correctness(ivp_report):
    ok = (
        _all_pass(ivp_report, "picard_vs_closed", 1e-6)
        and _all_pass(ivp_report, "ivp_residual_closed", 1e-5)
        and _all_pass(ivp_report, "closed_exp_reduction", 1e-8)
        # Picard against iterated integrals, and the forced closed form in
        # the equation: routes that do not share the closed form's series.
        and _all_pass(ivp_report, "picard_vs_increments", 1e-12)
        and _all_pass(ivp_report, "ivp_residual_forced", 1e-5)
        # The forcing's kernel series against its integrals order by order.
        and _all_pass(ivp_report, "forcing_kernel_vs_orders", 1e-12)
    )
    _criterion(
        5,
        "closed form vs 25-step Picard (1e-6), residual (1e-5), "
        "order-one reduction to e_q (1e-8), Picard vs iterated integrals "
        "(1e-12), forced residual (1e-5), forcing kernel vs orders (1e-12)",
        ok,
    )


def test_criterion_6_exponential_identity(special_report):
    ok = _all_pass(special_report, "exp_identity", 1e-10)
    _criterion(6, "e_q(t) equals E_q((1-q)t) within 1e-10", ok)


def test_criterion_7_gamma_and_factorial_lemma(special_report):
    recurrence = _pick(special_report, "gamma_recurrence")
    ok = all(r.passed and r.tolerance <= 1e-9 for r in recurrence)
    for identity in (
        "factorial_split",
        "factorial_scaling",
        "factorial_derivative_in_t",
        "factorial_derivative_in_s",
    ):
        ok = ok and _all_pass(special_report, identity, 1e-9)
    _criterion(7, "gamma recurrence and factorial-power properties (<= 1e-9)", ok)


def test_criterion_8_right_operator_reductions(frac_report):
    ok = _all_pass(frac_report, "right_inverse_reduction", 1e-8)
    ok = ok and _all_pass(frac_report, "right_semigroup_infinite", 1e-6)
    # The right Riemann series to every b against its definition, the finite
    # right semigroup I_b^beta I_{b q^(1-beta)}^alpha = I_{b q}^(alpha+beta)
    # at beta = 1 and beyond it, and right Caputo against the Riemann series
    # to infinity.
    ok = ok and _all_pass(frac_report, "riemann_series_right", 1e-10)
    ok = ok and _all_pass(frac_report, "right_semigroup_finite", 1e-12)
    betas = {r.params["beta"] for r in _pick(frac_report, "right_semigroup_finite")}
    ok = ok and 1.0 in betas and len(betas) > 1
    ok = ok and _all_pass(frac_report, "caputo_riemann_right_infinite", 1e-10)
    # The analytically derived tail value: the order-one right integral of
    # s^-2 is q / t, whose q-derivative returns -1/t^2.
    for q in (0.3, 0.5, 0.8):
        p = QParams(q)
        for t in (q, 1.0):
            value = right_frac_integral(lambda s: s**-2.0, INF, 1.0, t, p)
            ok = ok and rel_err(value, q / t) < 1e-8
    _criterion(
        8,
        "right-operator reductions at 1e-8 (incl. the q/t tail), the "
        "infinite right semigroup at 1e-6, the right Riemann series to every b "
        "and right Caputo to infinity at 1e-10, and the finite right "
        "semigroup at beta = 1 and beyond at 1e-12",
        ok,
    )


def test_criterion_9_negative_control(monkeypatch, tmp_path):
    true_gamma = qfrac.special.q_gamma

    def corrupted(alpha, p):
        value = true_gamma(alpha, p)
        if alpha != round(alpha):
            value *= 1.0 + 5e-10 * alpha
        return value

    monkeypatch.setattr(qfrac.special, "q_gamma", corrupted)
    target = tmp_path / "corrupted.json"
    code, _, _ = run_cli(["check", "all", "--seed", str(SEED), "--out", str(target)])
    report = json.loads(target.read_text())
    failing = [r for r in report["records"] if not r["passed"]]
    gamma_records = [r for r in report["records"] if r["identity"] == "gamma_recurrence"]
    ok = (
        code == 1
        and len(failing) == len(gamma_records) > 0
        and all(r["identity"] == "gamma_recurrence" for r in failing)
    )
    _criterion(
        9,
        "corrupted gamma fixture exits 1 with exactly the recurrence records failing",
        ok,
    )


def test_criterion_10_determinism():
    first = run_cli(["check", "all", "--seed", str(SEED), "--out", "-"])
    second = run_cli(["check", "all", "--seed", str(SEED), "--out", "-"])
    ok = (
        first[0] == 0
        and second[0] == 0
        and first[1].encode("utf-8") == second[1].encode("utf-8")
        and len(first[1]) > 0
    )
    _criterion(10, "identical seeds produce byte-identical reports", ok)
