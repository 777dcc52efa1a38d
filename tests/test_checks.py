import hashlib
import inspect
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

from qfrac import checks, fractional
from qfrac.fractional import left_frac_integral

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
        "caputo_riemann_right_infinite": 72,
        "cauchy_reduction": 168,
        "left_semigroup": 756,
        "left_transfer_first_order": 252,
        "left_transfer_iterated": 72,
        "power_rule": 216,
        "riemann_caputo_left": 252,
        "riemann_series_right": 324,
        "right_inverse_reduction": 24,
        "right_semigroup_infinite": 108,
        "right_semigroup_finite": 252,
        "right_transfer": 252,
        "vanishing_above_endpoint": 6,
    },
    "ivp": {
        "closed_exp_reduction": 4,
        "closed_time_scale_partial_fractions": 69,
        "forcing_kernel_vs_orders": 96,
        "ivp_fixed_point": 32,
        "ivp_nonhomogeneous": 4,
        "ivp_residual_closed": 4,
        "ivp_residual_forced": 8,
        "ml_euler_vs_series": 180,
        "ml_exp_reduction": 12,
        "ml_term_picard_increment": 12,
        "picard_error_monotone": 1,
        "picard_vs_closed": 4,
        "picard_vs_increments": 12,
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


def zero_division(parts, rhs, tolerance):
    return 1.0 / 0.0


@pytest.mark.parametrize("rhs_fn, judge", [
    (overflowing, checks._within),
    (lambda: 0.0, zero_division),
], ids=["rhs", "judge"])
def test_errored_record_keeps_no_raw_value(rhs_fn, judge):
    # The lhs route's raw value (here a list a reducing judge would sum)
    # is never recorded next to the error.
    rec = checks._record("boom", {"q": 0.5}, lambda: [(0.25, -2.5)], rhs_fn, 1e-9, judge)
    assert rec.error is not None and not rec.passed
    assert all(math.isnan(value) for value in (rec.lhs, rec.rhs, rec.rel_err))


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
    assert len(counts) == 43
    suites = {suite: {entry.name for entry in checks._TABLE[suite]} for suite in checks.SUITE_NAMES}
    assert suites == {suite: set(by_name) for suite, by_name in RECORD_COUNTS.items()}
    totals = {suite: sum(by_name.values()) for suite, by_name in RECORD_COUNTS.items()}
    assert totals == {"core": 519, "special": 309, "frac": 3378, "ivp": 438}
    assert len(report_all.records) == 4644


def test_explore_row_is_the_check_frac_record(report_all):
    # Both come from the one right_semigroup_finite entry of the table.
    params = {"q": 0.5, "alpha": 0.4, "beta": 1.0, "b": 1.0, "t": 0.25}
    (row,) = checks.explore_finite_right_semigroup(
        [(0.4, 1.0)], 0.5, 1.0, checks._POLYS["t"], 0.25)
    (rec,) = [r for r in report_all.records
              if r.identity == row.identity and r.params == {**params, "f": "t"}]
    assert row.params == params
    assert (row.lhs, row.rhs, row.rel_err) == (rec.lhs, rec.rhs, rec.rel_err)
    assert row.passed and row.tolerance == rec.tolerance == 1e-12


def test_records_come_in_the_table_order(report_all):
    # No sort: suite by suite in SUITE_NAMES order, entry by entry as the
    # table lists them, each entry's records in the order of its sweep.
    want = [(entry.name, params) for suite in checks.SUITE_NAMES
            for entry in checks._TABLE[suite]
            for params in checks._expand(entry.sweep, checks._draws(suite, 7))]
    assert [(r.identity, r.params) for r in report_all.records] == want
    start = 0
    for suite in checks.SUITE_NAMES:
        records = checks.run_suite(suite, seed=7).records
        within_all = report_all.records[start:start + len(records)]
        assert list(map(repr, records)) == list(map(repr, within_all))
        start += len(records)
    assert start == len(report_all.records)


def test_suite_builders_are_generator_functions():
    # Each record is computed when it is asked for, so it can be timed alone.
    assert set(checks._SUITE_BUILDERS) == set(checks.SUITE_NAMES)
    assert all(inspect.isgeneratorfunction(b) for b in checks._SUITE_BUILDERS.values())
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        checks.run_suite("nope")


# The operators whose nested evaluation the suite memo must serve.
OPERATORS = frozenset(fractional.__all__) - {"r_coef"}
PACKAGE = Path(checks.__file__).parent


def called_by_library(frame) -> bool:
    """Whether a call made from frame evaluates an operand of a library
    operator: a module of the package other than checks lies between it and
    the record it belongs to."""
    while frame is not None and frame.f_code is not checks._record.__code__:
        path = Path(frame.f_code.co_filename)
        if path.parent == PACKAGE and path.name != "checks.py":
            return True
        frame = frame.f_back
    return False


def test_nested_routes_evaluate_each_inner_point_once(monkeypatch):
    # Inner integrals of nested routes go through the suite memo: within one
    # run no (operator, operand, endpoint, order, point) is computed twice.
    # A second run computes the same ones again, so the memo does not
    # outlive its run, and reports the same.
    runs = []

    def counted(op):
        def wrapper(f, end, order, x, p):
            if called_by_library(sys._getframe(1)):
                runs[-1].append((op.__name__, f, end, order, x, p))
            return op(f, end, order, x, p)

        return wrapper

    for name in ("left_frac_integral", "right_frac_integral"):
        monkeypatch.setattr(checks, name, counted(getattr(checks, name)))
    reports = []
    for _ in range(2):
        runs.append([])
        reports.append(checks.run_suite("frac", 7).to_json_obj())
    first, second = runs
    assert {call[0] for call in first} == {"left_frac_integral", "right_frac_integral"}
    repeated = [call for call, n in Counter(first).items() if n > 1]
    assert not repeated, repeated[:3]
    assert second == first
    assert reports[0] == reports[1]


def nested_operator_calls(routes, namespace) -> list[str]:
    """Functions nested in routes, or in the helpers of namespace that they
    call by name, that call a fractional operator by name: an inner operator
    evaluated outside the suite memo."""
    found, seen = [], set()
    todo = [route.__code__ for route in routes]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        for name in code.co_names:
            helper = namespace.get(name)
            if inspect.isfunction(helper) and helper.__globals__ is namespace:
                todo.append(helper.__code__)
        for nested in filter(inspect.iscode, code.co_consts):
            if OPERATORS.intersection(nested.co_names):
                found.append(f"{nested.co_name} in {code.co_name} line {nested.co_firstlineno}")
            todo.append(nested)
    return sorted(found)


def _composed_helper(f, t, p):
    return checks.nabla_q(lambda x: left_frac_integral(f, 0.0, 0.5, x, p), t, p)


def test_detects_a_nested_operator():
    direct = lambda f, t, p: checks.nabla_q(lambda x: left_frac_integral(f, 0.0, 0.5, x, p), t, p)
    via_helper = lambda f, t, p: _composed_helper(f, t, p)
    memoised = lambda f, t, p, memo: checks.nabla_q(
        memo(checks._pointwise, left_frac_integral, f, 0.0, 0.5, p), t, p)
    found = nested_operator_calls([direct, via_helper, memoised], globals())
    assert [entry.split(" line ")[0] for entry in found] == [
        "<lambda> in <lambda>", "<lambda> in _composed_helper"]


def test_nested_routes_use_the_memo():
    routes = [route for entries in checks._TABLE.values() for entry in entries
              for route in (entry.lhs, entry.rhs)]
    assert nested_operator_calls(routes, vars(checks)) == []


# SHA-256 prefixes of `qfrac check S --seed 7 --out F`: a change that moves
# any record, or a byte of the report, moves its suite's hash.  A change
# meant to move one records the new prefix here, with the reason.
# Every infinite product stops where its closed tail is exact to rounding,
# and e_q is a cut sum of a length set by (1 - q) t and q, neither reading
# rel_tol; q_gamma takes 1 - q**x by expm1 next to its poles: that moved
# every suite, most records' terms falling and values moving in their last
# digits.  Picard's forcing is one series over its orders' summed weights:
# that moved the term counts of the four ivp_nonhomogeneous records, and no
# value.  The closed form on the time scale is the lattice cells' forward
# substitution, and closed_time_scale_partial_fractions judges it: that
# moved the ivp records with a > 0 in their last digits or their terms, and
# added 69 records.  Picard on the time scale of a > 0 is one cut lattice
# series over lam a0 + f: that moved the 15 Picard records from a = q**4,
# their terms falling 504 to 122 and two values by one rounding unit, and no
# closed-form record.  The lattice weights take each factor 1 - q**x with
# q**x > 1/2 by expm1 at offset 1: that moved 1,231 frac and 26 ivp records
# in their last digits, and no term count.
REPORT_HASHES = {
    "core": "ba290f3d0dd0683c",
    "special": "c905da499726ff03",
    "frac": "cb4cd2bf82eead89",
    "ivp": "805fd6c111bffebb",
    "all": "68d4bcdf0c07650c",
}


@pytest.mark.parametrize("suite", list(REPORT_HASHES))
def test_report_bytes_are_pinned(tmp_path, monkeypatch, suite):
    from qfrac.cli import main

    for name in ("QFRAC_REL_TOL", "QFRAC_MAX_TERMS"):  # the default truncation
        monkeypatch.delenv(name, raising=False)
    out = tmp_path / f"{suite}.json"
    assert main(["check", suite, "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == REPORT_HASHES[suite]


# The worst rel_err / tolerance of each suite at seed 7, rounded up in the
# fourth digit: core's diff_under_integral_variable_lower, special's
# factorial_derivative_in_s, frac's riemann_series_right and ivp's
# ml_euler_vs_series.  A re-pinned hash may hide a lost margin; this may
# not.  A change meant to raise a ceiling records it here, with the reason.
MARGIN_CEILINGS = {"core": 0.01456, "special": 2.271e-4, "frac": 8.216e-4, "ivp": 0.1130}


def test_worst_margins_do_not_rise(report_all):
    suite_of = {name: suite for suite, by_name in RECORD_COUNTS.items() for name in by_name}
    worst = dict.fromkeys(MARGIN_CEILINGS, 0.0)
    for rec in report_all.records:
        # An exact identity has tolerance 0 and must read 0; an error has no margin.
        margin = math.inf if rec.error else rec.rel_err and rec.rel_err / rec.tolerance
        suite = suite_of[rec.identity]
        worst[suite] = max(worst[suite], margin)
    assert all(worst[suite] <= ceiling for suite, ceiling in MARGIN_CEILINGS.items()), worst
