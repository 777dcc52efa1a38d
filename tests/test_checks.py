import inspect

import pytest

from qfrac import checks

# Records per identity at seed 7: the table must keep producing exactly these.
RECORD_COUNTS = {
    "core": {
        "diff_under_integral_variable_lower": 27,
        "diff_under_integral_variable_upper": 54,
        "fundamental_theorem": 225,
        "integral_additivity": 9,
        "integral_linearity": 3,
        "integral_of_derivative": 192,
        "product_rule": 9,
    },
    "special": {
        "exp_identity": 9,
        "factorial_derivative_in_s": 45,
        "factorial_derivative_in_t": 45,
        "factorial_scaling": 135,
        "factorial_split": 45,
        "factorial_vanishing": 18,
        "gamma_recurrence": 12,
    },
    "frac": {
        "caputo_inversion": 120,
        "caputo_riemann_left": 252,
        "caputo_riemann_right": 252,
        "cauchy_reduction": 168,
        "left_semigroup": 756,
        "left_transfer_first_order": 252,
        "left_transfer_iterated": 72,
        "power_rule": 216,
        "riemann_caputo_left": 252,
        "riemann_series_right": 72,
        "right_inverse_reduction": 24,
        "right_semigroup_infinite": 108,
        "right_transfer": 252,
        "vanishing_above_endpoint": 6,
    },
    "ivp": {
        "closed_exp_reduction": 4,
        "ivp_fixed_point": 32,
        "ivp_nonhomogeneous": 4,
        "ivp_residual_closed": 4,
        "ml_exp_reduction": 12,
        "ml_term_picard_increment": 12,
        "picard_error_monotone": 1,
        "picard_vs_closed": 4,
    },
}


@pytest.fixture(scope="module")
def report_all():
    return checks.run_suite("all", seed=7)


def overflowing() -> float:
    raise OverflowError("math range error")


def test_record_keeps_arithmetic_error_as_error_record():
    rec = checks._record("boom", {"q": 0.5}, overflowing, lambda: 0.0, 1e-9)
    assert rec.error == "OverflowError: math range error"
    assert not rec.passed


def test_picard_error_monotone_counts_its_terms():
    report = checks.run_suite("ivp", seed=0)
    (rec,) = [r for r in report.records if r.identity == "picard_error_monotone"]
    assert rec.passed and rec.error is None
    assert rec.terms > 0


def test_record_counts_per_identity(report_all):
    counts = {}
    for rec in report_all.records:
        counts[rec.identity] = counts.get(rec.identity, 0) + 1
    expected = {name: n for suite in RECORD_COUNTS.values() for name, n in suite.items()}
    assert counts == expected
    assert len(counts) == 36
    suites = {suite: {entry.name for entry in checks._TABLE[suite]} for suite in checks.SUITE_NAMES}
    assert suites == {suite: set(by_name) for suite, by_name in RECORD_COUNTS.items()}
    totals = {suite: sum(by_name.values()) for suite, by_name in RECORD_COUNTS.items()}
    assert totals == {"core": 519, "special": 309, "frac": 2802, "ivp": 73}
    assert len(report_all.records) == 3703


def test_suite_builders_are_generator_functions():
    # Each record is computed when it is asked for, so it can be timed alone.
    assert set(checks._SUITE_BUILDERS) == set(checks.SUITE_NAMES)
    assert all(inspect.isgeneratorfunction(b) for b in checks._SUITE_BUILDERS.values())
