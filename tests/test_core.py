import asyncio
import functools
import itertools
import math
import operator
import re
import threading

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfrac import (
    DomainError,
    IVProblem,
    MLParams,
    NonConvergence,
    NumericOverflow,
    QCalculusError,
    QParams,
    Truncation,
    count_terms,
    left_frac_integral,
    nabla_q,
    nabla_q_n,
    q_bracket,
    q_exp_e,
    q_integral,
    q_integral_tail,
    q_mittag_leffler,
    right_frac_integral,
    solve_ivp_closed,
    solve_ivp_picard,
)
from qfrac.core import _accumulate, _start_steps, _upper_steps

from conftest import chain_wobble, rel_err

INF = math.inf
NAN = math.nan


class TestParams:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(DomainError):
            QParams(q)

    def test_defaults(self):
        p = QParams(0.5)
        assert p.trunc.rel_tol == 1e-12
        assert p.trunc.max_terms == 10_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-9},
            {"rel_tol": float("nan")},
            {"max_terms": 0},
            {"max_terms": -5},
            {"rel_tol": INF},
            {"rel_tol": 1.0},
        ],
    )
    def test_truncation_invariants(self, kwargs):
        with pytest.raises(DomainError):
            Truncation(**kwargs)


class TestBracketAndDerivative:
    def test_bracket_values(self, p_half):
        assert q_bracket(0.0, p_half) == 0.0
        assert q_bracket(1.0, p_half) == 1.0
        assert q_bracket(2.0, p_half) == 1.5
        with pytest.raises(NumericOverflow, match=r"r=-2000, q=0\.5"):
            q_bracket(-2000, p_half)

    def test_derivative_of_constant(self, p_half):
        assert nabla_q(lambda s: 3.0, 1.0, p_half) == 0.0

    def test_derivative_of_identity(self, p_half):
        for t in (0.25, 1.0, 4.0):
            assert nabla_q(lambda s: s, t, p_half) == pytest.approx(1.0)

    def test_derivative_of_square(self, p_half):
        # (1 - q^2) / (1 - q) = 1 + q
        assert nabla_q(lambda s: s * s, 1.0, p_half) == pytest.approx(1.5)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_rejects_nonpositive_point(self, t, p_half):
        with pytest.raises(DomainError, match=re.escape(
                f"nabla_q at t={t!r}, q=0.5: undefined, requires t > 0")):
            nabla_q(lambda s: s, t, p_half)

    def test_rejects_infinite_point(self, p_half):
        with pytest.raises(DomainError, match=re.escape(
                "nabla_q at t=inf, q=0.5: undefined, requires a finite t")):
            nabla_q(lambda s: s, math.inf, p_half)
        with pytest.raises(DomainError, match=re.escape(
                "nabla_q^n with n=3 at t=inf, q=0.5: nabla_q is undefined there; "
                "requires a finite t")):
            nabla_q_n(lambda s: s, math.inf, 3, p_half)

    def test_iterated_derivative(self, p_half):
        # Second derivative of t^2 is the constant (1 + q) * 1.
        f = lambda s: s * s
        second = nabla_q_n(f, 1.0, 2, p_half)
        assert second == pytest.approx(q_bracket(2.0, p_half) * 1.0)
        assert nabla_q_n(f, 1.0, 0, p_half) == f(1.0)
        with pytest.raises(DomainError, match=re.escape(
                "nabla_q^n with n=-1 at t=1.0, q=0.5: derivative order must be >= 0")):
            nabla_q_n(f, 1.0, -1, p_half)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_difference_table_matches_literal_recursion(self, q):
        p = QParams(q)

        def literal(f, t, n):
            if n == 0:
                return f(t)
            return nabla_q(lambda x: literal(f, x, n - 1), t, p)

        operands = (lambda s: s * s - 0.3 * s + 0.5, lambda s: 1.0 / (1.0 + s),
                    lambda s: s**3.3)
        for n in range(2, 8):
            for t in (1.0, 0.37, 2.5, 1e-3):
                for f in operands:
                    assert nabla_q_n(f, t, n, p) == literal(f, t, n)

    def test_samples_each_point_once(self, p_half):
        points = []

        def f(s):
            points.append(s)
            return s**3

        nabla_q_n(f, 1.0, 12, p_half)
        assert points == [0.5**k for k in range(13)]

    def test_order_beyond_budget_is_nonconvergence(self):
        p = QParams(0.5, Truncation(max_terms=10))
        assert math.isfinite(nabla_q_n(lambda s: s, 1.0, 10, p))
        with pytest.raises(NonConvergence, match="n=11 at t=1.0, q=0.5"):
            nabla_q_n(lambda s: s, 1.0, 11, p)

    # From t = 5e-324 the chain t, qt, ... underflows to 0 at its second point.
    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, 5e-324])
    def test_iterated_rejects_nonpositive_point(self, t, p_half):
        bad = 0.0 if t == 5e-324 else t
        with pytest.raises(DomainError, match=re.escape(
                f"nabla_q^n with n=3 at t={t!r}, q=0.5: "
                f"nabla_q is undefined at t = {bad!r}; requires t > 0")):
            nabla_q_n(lambda s: s, t, 3, p_half)


def brute_jackson(f, x, q, terms=400):
    """Independent straight-loop Jackson sum for the range [0, x]."""
    total = 0.0
    for i in range(terms):
        total += q**i * f(x * q**i)
    return (1.0 - q) * x * total


class TestOperandOverflow:
    """An operand that leaves the range of a double (s**-2 at s = 1e-300)
    raises NumericOverflow naming the innermost sum that sampled it."""

    @staticmethod
    def f(s):
        return s**-2.0

    @pytest.mark.parametrize("call, name", [
        (lambda f, p: q_integral(f, 0.0, 1e-300, p), "q-integral at x=1e-300, q=0.5"),
        (lambda f, p: q_integral_tail(f, 1e-300, math.inf, p),
         "tail integral from t=1e-300 to b=inf, q=0.5"),
        (lambda f, p: left_frac_integral(f, 0.0, 0.5, 1e-300, p),
         "left fractional integral at t=1e-300, a=0.0, alpha=0.5, q=0.5"),
        (lambda f, p: right_frac_integral(f, math.inf, 0.5, 1e-300, p),
         "right fractional integral at t=1e-300, b=inf, alpha=0.5, q=0.5"),
        (lambda f, p: solve_ivp_closed(IVProblem(0.5, 0.3, 0.0, 1.0, f), p)(1e-300),
         "forcing at t=1e-300, alpha=0.5, lam=0.3, q=0.5"),
        # The inner integral names the overflow, not the outer one.
        (lambda f, p: left_frac_integral(
            lambda x: right_frac_integral(f, math.inf, 0.5, 1e-300 * x, p), 0.0, 0.5, 1.0, p),
         "right fractional integral at t=1e-300, b=inf, alpha=0.5, q=0.5"),
    ], ids=["q_integral", "q_integral_tail", "left", "right", "closed-form-forcing", "nested"])
    def test_names_the_sum(self, call, name, p_half):
        with pytest.raises(NumericOverflow,
                           match=f"^{re.escape(name)}: the operand overflowed \\("):
            call(self.f, p_half)


class TestIntegral:
    def test_constant_integrand(self):
        for q in (0.3, 0.5, 0.8):
            p = QParams(q)
            for t in (0.25, 1.0, 3.0):
                assert q_integral(lambda s: 1.0, 0.0, t, p) == pytest.approx(t)

    def test_linear_integrand_closed_form(self, p_half):
        # (1-q) sum q^{2i} = t^2 / (1+q); at t=1, q=1/2 this is 2/3.
        got = q_integral(lambda s: s, 0.0, 1.0, p_half)
        assert rel_err(got, 2.0 / 3.0) < 1e-12
        assert rel_err(got, brute_jackson(lambda s: s, 1.0, 0.5)) < 1e-12

    def test_equal_endpoints_exact_zero(self, p_half):
        assert q_integral(lambda s: s * s, 0.7, 0.7, p_half) == 0.0

    def test_signed_reversal(self, p_half):
        f = lambda s: s + s * s
        assert q_integral(f, 0.25, 1.0, p_half) == pytest.approx(
            -q_integral(f, 1.0, 0.25, p_half)
        )

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_aligned_endpoints_give_finite_sum(self, q):
        # a = t q**d: the d lattice points t, tq, ..., t q**(d-1), nothing else.
        p = QParams(q)
        f = lambda s: 1.0 + s + s * s
        t = 0.8
        for d in range(1, 7):
            a = t * q**d
            want = (1.0 - q) * t * sum(q**i * f(t * q**i) for i in range(d))
            with count_terms() as counter:
                got = q_integral(f, a, t, p)
            assert abs(got - want) <= 1e-13 * abs(want)
            assert counter.total <= d
            assert q_integral(f, t, a, p) == -got

    def test_finite_sum_ignores_the_stopping_rule(self, p_half):
        # The operand is 0 at the first four of the ten lattice points.
        f = lambda s: 1.0 if s < 0.1 else 0.0
        with count_terms() as counter:
            got = q_integral(f, 0.5**10, 1.0, p_half)
        assert got == 0.0615234375
        assert counter.total == 10

    def test_negative_endpoint_rejected(self, p_half):
        with pytest.raises(DomainError, match=re.escape(
                "q-integral from a=-1.0 to t=1.0, q=0.5: integration endpoints must be >= 0")):
            q_integral(lambda s: s, -1.0, 1.0, p_half)

    def test_budget_exhaustion(self):
        p = QParams(0.9, Truncation(max_terms=5))
        with pytest.raises(NonConvergence):
            q_integral(chain_wobble(0.9), 0.0, 1.0, p)

    def test_finite_sum_past_the_budget_samples_nothing(self):
        # 20,000 lattice points against a budget of 10,000: the length is
        # known before the sum starts, so the operand is never called.
        calls = []
        with pytest.raises(NonConvergence, match=r"^q-integral at x=1\.0, q=0\.999: "
                           r"20000 terms exceed the budget of 10000$"):
            q_integral(lambda s: calls.append(s) or s, 0.999**20000, 1.0, QParams(0.999))
        assert calls == []

    def test_term_counting(self, p_half):
        f = chain_wobble(0.5)
        with count_terms() as counter:
            q_integral(lambda s: s * f(s), 0.0, 1.0, p_half)
        assert counter.total > 10

    def test_nested_counters_each_see_their_block(self, p_half):
        f = lambda s: s
        with count_terms() as outer:
            q_integral(f, 0.0, 1.0, p_half)
            once = outer.total
            with count_terms() as inner:
                q_integral(f, 0.0, 1.0, p_half)
            q_integral(f, 0.0, 1.0, p_half)
        assert once > 0
        assert inner.total == once
        assert outer.total == 3 * once

    def test_counter_ignores_other_threads(self, p_half):
        f = lambda s: s
        with count_terms() as counter:
            worker = threading.Thread(target=q_integral, args=(f, 0.0, 1.0, p_half))
            worker.start()
            worker.join()
        assert counter.total == 0

    def test_interleaved_tasks_keep_their_own_counts(self, p_half):
        # Two asyncio tasks whose counter blocks overlap in time each count
        # only their own integral.
        f = lambda s: s
        with count_terms() as alone:
            q_integral(f, 0.0, 1.0, p_half)

        async def counted(delay):
            with count_terms() as counter:
                await asyncio.sleep(delay)
                q_integral(f, 0.0, 1.0, p_half)
                await asyncio.sleep(0.02)
            return counter.total

        async def both():
            return await asyncio.gather(counted(0.0), counted(0.01))

        assert asyncio.run(both()) == [alone.total, alone.total]


class TestTailIntegral:
    def test_inverse_square_to_infinity(self, p_half):
        # (1-q) t sum q^{-i} (t q^{-i})^{-2} telescopes to q / t.
        got = q_integral_tail(lambda s: s**-2.0, 1.0, INF, p_half)
        assert rel_err(got, 0.5) < 1e-12
        for t in (0.25, 2.0):
            got = q_integral_tail(lambda s: s**-2.0, t, INF, p_half)
            assert rel_err(got, 0.5 / t) < 1e-12

    def test_finite_upper_limit(self, p_half):
        got = q_integral_tail(lambda s: s**-2.0, 1.0, 4.0, p_half)
        assert got == pytest.approx(0.375)

    def test_empty_range(self, p_half):
        assert q_integral_tail(lambda s: s, 1.0, 1.0, p_half) == 0.0

    def test_finite_upper_limit_sums_every_point(self, p_half):
        # 0 at the first three points above t; the terms at 16 and 32 are (1-q) / s.
        f = lambda s: s**-2.0 if s > 10.0 else 0.0
        assert q_integral_tail(f, 1.0, 2.0**5, p_half) == 0.5 * (2.0**-4 + 2.0**-5)

    def test_divergent_tail_detected(self, p_half):
        with pytest.raises(NonConvergence):
            q_integral_tail(lambda s: 1.0, 1.0, INF, p_half)
        with pytest.raises(NonConvergence):
            q_integral_tail(lambda s: s, 1.0, INF, p_half)

    def test_misaligned_upper_limit_rejected(self, p_half):
        with pytest.raises(DomainError):
            q_integral_tail(lambda s: s, 1.0, 3.0, p_half)

    def test_upper_limit_below_lower_rejected(self, p_half):
        with pytest.raises(DomainError):
            q_integral_tail(lambda s: s, 1.0, 0.5, p_half)

    def test_nonpositive_point_rejected(self, p_half):
        with pytest.raises(DomainError):
            q_integral_tail(lambda s: s, 0.0, INF, p_half)

    def test_nonpositive_point_names_its_parameters(self, p_half):
        with pytest.raises(DomainError, match=r"^tail integral from t=-1\.0 to b=4\.0, "
                                              r"q=0\.5: needs t > 0$"):
            q_integral_tail(lambda s: s, -1.0, 4.0, p_half)


class TestCutSum:
    """_accumulate(count=n) adds the first n terms in full, whatever they are."""

    WHERE = ("cut sum at x={!r}", 1.5)

    @pytest.mark.parametrize("bad", [INF, NAN])
    def test_non_finite_term_raises_after_noting_the_terms_taken(self, bad):
        # From 0.25 to 1 at q = 0.5 the q-integral is the cut sum over the
        # points 1 and 0.5, whose second term is not finite.
        f = lambda s: bad if s == 0.5 else 1.0
        with count_terms() as counter:
            with pytest.raises(NonConvergence, match=r"^q-integral at x=1\.0, q=0\.5: "
                                                     r"non-finite term at index 1$"):
                q_integral(f, 0.25, 1.0, QParams(0.5))
        assert counter.total == 2

    def test_zero_terms_do_not_end_it(self):
        terms = [0.0] * 5 + [1.0, 2.0]
        got = _accumulate(terms, Truncation(), detect_growth=False, count=6, where=self.WHERE)
        assert got == 1.0
        assert _accumulate(terms, Truncation(), detect_growth=False, where=self.WHERE) == 0.0

    def test_growing_terms_do_not_raise(self):
        growing = lambda: (2.0**k for k in itertools.count())
        got = _accumulate(growing(), Truncation(), detect_growth=True, count=40, where=self.WHERE)
        assert got == 2.0**40 - 1.0
        with pytest.raises(NonConvergence, match="terms grew"):
            _accumulate(growing(), Truncation(), detect_growth=True, where=self.WHERE)

    def test_terms_past_the_budget_raise(self):
        # The count is checked before a term is drawn.
        def untouchable():
            raise AssertionError("a term was drawn")
            yield

        with pytest.raises(NonConvergence,
                           match=r"^cut sum at x=1\.5: 10 terms exceed the budget of 5$"):
            _accumulate(untouchable(), Truncation(max_terms=5), detect_growth=False,
                        count=10, where=self.WHERE)
        got = _accumulate(itertools.repeat(1.0), Truncation(max_terms=5), detect_growth=False,
                          count=5, where=self.WHERE)
        assert got == 5.0

    def test_no_tail_is_closed(self):
        # An infinite sum of 2**-k closes its geometric tail; cut after 5
        # terms, it is their plain sum.
        halves = lambda: (0.5**k for k in itertools.count())
        got = _accumulate(halves(), Truncation(), detect_growth=True, count=5, where=self.WHERE)
        assert got == 1.9375
        assert _accumulate(halves(), Truncation(), detect_growth=True, where=self.WHERE) == 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6),
                              st.integers(0, 60).map(lambda k: 2.0**k)), max_size=40),
        count=st.integers(0, 40),
        detect_growth=st.booleans(),
    )
    def test_equals_the_plain_sum(self, xs, count, detect_growth):
        # Zero, growing and arbitrary terms alike: the first count terms
        # added in order, bit for bit, and that many terms noted.
        with count_terms() as counter:
            got = _accumulate(iter(xs), Truncation(), detect_growth=detect_growth, count=count,
                              where=self.WHERE)
        assert got == functools.reduce(operator.add, xs[:count], 0.0)
        assert counter.total == min(count, len(xs))


class TestAlternatingTail:
    """An infinite sum closes a geometric tail of negative ratio as it does one
    of positive ratio, under the same drift test."""

    WHERE = ("alternating sum at x={!r}", 1.5)

    def _sum(self, terms, trunc=Truncation()):
        with count_terms() as counter:
            value = _accumulate(terms, trunc, detect_growth=True, where=self.WHERE)
        return value, counter.total

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    def test_negative_geometric_ratio_closes_early(self, r):
        # Three settled ratios after the first: 5 terms, where the small-term
        # stop takes hundreds (thousands at r = 0.99).
        value, terms = self._sum((-r) ** k for k in itertools.count())
        assert terms == 5
        assert abs(value - 1.0 / (1.0 + r)) <= 1e-15

    def test_slowly_settling_alternating_ratio_is_not_closed_early(self):
        # (-1)**k / (k + 1) has ratio -(k + 1) / (k + 2), which drifts like
        # 1 / k**2: by default its drift stays above the bound for the whole
        # budget, and at rel_tol 1e-8 the tail closes only after hundreds of
        # terms, within a tenth of rel_tol of log 2.
        leibniz = lambda: ((-1.0) ** k / (k + 1) for k in itertools.count())
        with pytest.raises(NonConvergence, match="did not fire within 10000 terms"):
            self._sum(leibniz())
        value, terms = self._sum(leibniz(), Truncation(1e-8))
        assert terms > 500
        assert abs(value - math.log(2.0)) <= 0.1 * 1e-8 * math.log(2.0)

    def test_ratio_changing_sign_restarts_the_run(self):
        # Ratios 1/2 for three steps, then -1/2: the run of settled ratios
        # starts over at the change, so the tail closes three steps later, at
        # term 8, to 1 + 1/2 + 1/4 + 1/8 - (1/16) / (1 + 1/2) = 11/6.
        def terms():
            term = 1.0
            for k in itertools.count():
                yield term
                term *= 0.5 if k < 3 else -0.5

        value, count = self._sum(terms())
        assert count == 8
        assert abs(value - 11.0 / 6.0) <= 1e-15


_Q = 0.3
_T = 1.7


@pytest.mark.parametrize("rule, args, expected", [
    (_start_steps, (0.5, 0.0, _Q), -1),
    (_start_steps, (0.5, -1.0, _Q), -1),
    (_start_steps, (0.0, _T, _Q), None),
    (_start_steps, (_T, _T, _Q), 0),
    (_start_steps, (_T * _Q**3, _T, _Q), 3),
    (_start_steps, (_T / _Q, _T, _Q), -1),
    (_start_steps, (0.5, _T, _Q), -1),
    (_start_steps, (NAN, _T, _Q), -1),
    (_start_steps, (0.5, NAN, _Q), -1),
    (_upper_steps, (_T, INF, _Q), None),
    (_upper_steps, (_T, _T, _Q), 0),
    (_upper_steps, (_T, _T * _Q**-2, _Q), 2),
    (_upper_steps, (_T, _T * _Q, _Q), DomainError),
    (_upper_steps, (_T, 0.0, _Q), DomainError),
    (_upper_steps, (_T, -1.0, _Q), DomainError),
    (_upper_steps, (_T, NAN, _Q), DomainError),
    (_upper_steps, (_T, 2.0, _Q), DomainError),
], ids=[
    "start-t-zero", "start-t-negative", "start-a-zero", "start-a-is-t", "start-three-steps",
    "start-above-t", "start-off-grid", "start-a-nan", "start-t-nan",
    "upper-infinite", "upper-b-is-t", "upper-two-steps", "upper-below-t", "upper-b-zero",
    "upper-b-negative", "upper-b-nan", "upper-off-grid",
])
def test_lattice_step_rules(rule, args, expected):
    # _start_steps(a, t, q) counts the steps down from t to a; _upper_steps(t,
    # b, q) the steps up from t to b, which is _start_steps(t, b, q).
    if expected is DomainError:
        with pytest.raises(DomainError, match="finite upper limit"):
            rule(*args)
        with pytest.raises(DomainError, match=re.escape(
                "got q={2!r}, t={0!r}, b={1!r}".format(*args))):
            rule(*args)
    else:
        assert rule(*args) == expected


class TestCalculusTheorems:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_derivative_inverts_integral(self, q):
        p = QParams(q)
        f = lambda s: 1.0 + s + s * s
        for n in range(-5, 11):
            t = q**n
            got = nabla_q(lambda x: q_integral(f, 0.0, x, p), t, p)
            assert rel_err(got, f(t)) < 1e-11

    def test_derivative_inverts_integral_for_exp(self, p_half):
        f = lambda s: q_exp_e(s, p_half)
        for n in range(0, 11):
            t = 0.5**n
            got = nabla_q(lambda x: q_integral(f, 0.0, x, p_half), t, p_half)
            assert rel_err(got, f(t)) < 1e-11

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_integral_inverts_derivative(self, q):
        p = QParams(q)
        f = lambda s: 2.0 + s + 3.0 * s * s
        for n in range(-3, 8):
            t = q**n
            got = q_integral(lambda s: nabla_q(f, s, p), 0.0, t, p)
            assert rel_err(got, f(t) - f(0.0)) < 1e-11


@settings(max_examples=50, deadline=None)
@given(
    q=st.floats(min_value=0.05, max_value=0.95),
    t=st.floats(min_value=1e-3, max_value=1e3),
    vals=st.tuples(*[st.floats(min_value=-10, max_value=10) for _ in range(4)]),
)
@example(q=0.625, t=0.001, vals=(0.0, 1.0, 5.0, 0.0))
def test_product_rule_is_exact(q, t, vals):
    p = QParams(q)
    f_t, f_qt, g_t, g_qt = vals
    f = lambda x: f_t if x == t else f_qt
    g = lambda x: g_t if x == t else g_qt
    lhs = nabla_q(lambda x: f(x) * g(x), t, p)
    first = f(q * t) * nabla_q(g, t, p)
    second = nabla_q(f, t, p) * g(t)
    # The two products on the right may be large and cancel; their rounding
    # error scales with their size, not with the (possibly zero) result.
    scale = max(1.0, abs(lhs), abs(first) + abs(second))
    assert abs(lhs - (first + second)) < 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(min_value=0.2, max_value=0.9),
    exps=st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ),
)
def test_integral_additive_over_adjacent_ranges(q, exps):
    p = QParams(q)
    f = lambda s: 1.0 + s + s * s
    a, b, c = sorted(q**e for e in exps)
    whole = q_integral(f, a, c, p)
    split = q_integral(f, a, b, p) + q_integral(f, b, c, p)
    assert rel_err(whole, split) < 1e-13


# Infinite sums of (q, alpha, t, lam, p) for the guard against false early
# stops: polynomials and exp(-s) toward 0, s**-k and exp(-s) toward infinity,
# and sign-alternating series (lam < 0) that keep the small-term stop.  Every
# term is positive for lam >= 0, so the sum at |lam| bounds the terms' sizes.
_POLY = lambda s: s * s - 0.3 * s + 0.5
_DECAY = lambda s: math.exp(-s)
_INFINITE_SUMS = {
    "jackson poly": lambda q, al, t, lam, p: q_integral(_POLY, 0.0, t, p),
    "jackson exp": lambda q, al, t, lam, p: q_integral(_DECAY, 0.0, t, p),
    "tail s^-2": lambda q, al, t, lam, p: q_integral_tail(lambda s: s**-2.0, t, INF, p),
    "tail s^-5": lambda q, al, t, lam, p: q_integral_tail(lambda s: s**-5.0, t, INF, p),
    "tail exp": lambda q, al, t, lam, p: q_integral_tail(_DECAY, t, INF, p),
    "left poly": lambda q, al, t, lam, p: left_frac_integral(_POLY, 0.0, al, t, p),
    "left exp": lambda q, al, t, lam, p: left_frac_integral(_DECAY, 0.0, al, t, p),
    "right s^-4": lambda q, al, t, lam, p: right_frac_integral(
        lambda s: s**-4.0, INF, al, t, p),
    "right exp": lambda q, al, t, lam, p: right_frac_integral(_DECAY, INF, al, t, p),
    "mittag-leffler": lambda q, al, t, lam, p: q_mittag_leffler(MLParams(al, 1.0, lam), t, p),
    "mittag-leffler z0": lambda q, al, t, lam, p: q_mittag_leffler(
        MLParams(al, 1.0, lam, z0=t * q**3), t, p),
    "e_q": lambda q, al, t, lam, p: q_exp_e(0.6 * lam / (1.0 - q), p),
    "closed forcing": lambda q, al, t, lam, p: solve_ivp_closed(
        IVProblem(min(al, 1.0), lam, 0.0, 1.0, _POLY), p)(t),
    "picard": lambda q, al, t, lam, p: solve_ivp_picard(
        IVProblem(min(al, 1.0), lam, 0.0, 1.0, _DECAY), 6, p)(t),
}


@pytest.mark.parametrize("name", _INFINITE_SUMS)
@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(min_value=0.2, max_value=0.9),
    alpha=st.floats(min_value=0.2, max_value=2.5),
    t=st.floats(min_value=0.3, max_value=3.0),
    lam=st.floats(min_value=-1.5, max_value=1.5),
)
def test_no_false_early_stop(name, q, alpha, t, lam):
    # A sum that stops, or closes its tail, too soon shows as a gap to the
    # same sum taken far past the default tolerance, where a tail closes only
    # once its ratio has settled to about 1e-16.
    total = _INFINITE_SUMS[name]
    try:
        got = total(q, alpha, t, lam, QParams(q))
        tight = total(q, alpha, t, lam, QParams(q, Truncation(1e-15, 1_000_000)))
        size = total(q, alpha, t, abs(lam), QParams(q))
    except QCalculusError:
        assume(False)
    # Alternating sums cancel to below their terms, whose q-gamma and
    # factorial-power products carry the truncation of rel_tol themselves.
    assert abs(got - tight) <= 1e-11 * size


# Lattice series that may close on their operand's ratio (see
# core._accumulate), with operands whose ratio settles slowly or never:
# non-integer powers, sums of two powers, exp(-s), 1/(1+s) and operands whose
# sign alternates along the chain (cos(pi log_q s) flips it at every step).
def _alternating(q):
    c = math.pi / math.log(q)
    return lambda s: math.cos(c * math.log(s))


def _nudge(alpha, t):
    """A relative perturbation eps, |eps| from 1e-16 to 1e-13 as alpha runs
    over the draws' [0.2, 2.5], negative below t = 1.65."""
    eps = 10.0 ** (-16.0 + 3.0 * (alpha - 0.2) / 2.3)
    return eps if t > 1.65 else -eps


_LATTICE_SUMS = {
    "left s^g": lambda q, al, t, g, p: left_frac_integral(lambda s: s**g, 0.0, al, t, p),
    "left s^2+s^2.5": lambda q, al, t, g, p: left_frac_integral(
        lambda s: s**2 + s**2.5, 0.0, al, t, p),
    "left exp": lambda q, al, t, g, p: left_frac_integral(_DECAY, 0.0, al, t, p),
    "left 1/(1+s)": lambda q, al, t, g, p: left_frac_integral(
        lambda s: 1.0 / (1.0 + s), 0.0, al, t, p),
    "left alternating": lambda q, al, t, g, p: left_frac_integral(
        lambda s, sign=_alternating(q): sign(s) * (1.0 + s), 0.0, al, t, p),
    "right s^-g": lambda q, al, t, g, p: right_frac_integral(
        lambda s: s ** -(al + g), INF, al, t, p),
    # Powers of s up to a relative eps s or eps / s, whose ratio drifts
    # within rel_tol, and for the larger eps by more than 4 eps: the spot
    # checks alone decide whether their rest is drawn.  Over 1,800 random
    # cases each, worst 1.9e-13 on the left and 3.9e-13 on the right.
    "left s^g (1+eps s)": lambda q, al, t, g, p: left_frac_integral(
        lambda s, e=_nudge(al, t): s**g * (1.0 + e * s), 0.0, al, t, p),
    "right s^-g (1+eps/s)": lambda q, al, t, g, p: right_frac_integral(
        lambda s, e=_nudge(al, t): s ** -(al + g) * (1.0 + e / s), INF, al, t, p),
    "right s^-2+s^-2.5": lambda q, al, t, g, p: right_frac_integral(
        lambda s: s**-2.0 + s**-2.5, INF, min(al, 1.5), t, p),
    "right exp": lambda q, al, t, g, p: right_frac_integral(_DECAY, INF, al, t, p),
    "right alternating": lambda q, al, t, g, p: right_frac_integral(
        lambda s, sign=_alternating(q): sign(s) * (s**-3.0 + s**-3.5), INF, al, t, p),
}


# Piecewise operands, a power of s over the first points of the chain from t
# and another function past a break c that g places: c = t g / 4 toward 0,
# for left lattice series and Jackson sums, and c = t (1 + g) toward
# infinity, for right ones and tails.  Their reference is the same operator
# from t q**m or to t q**-m with q**m = 1e-100, summed in full: no closure
# of the stopping rule can take the operand for a power there, and the part
# it leaves out is far below rounding.
_TOWARD_0 = {
    "step": lambda c: lambda s: 1.0 if s > c else 2.0,
    "clamp": lambda c: lambda s: min(s, c) ** 1.5,
    "support": lambda c: lambda s: s * s if s > c else 0.0,
}
_TOWARD_INF = {
    "support": lambda c: lambda s: s**-3.0 if s < c else 0.0,
    "step": lambda c: lambda s: s**-3.0 if s < c else 0.5 * s**-3.0,
}
_OPERATORS = {
    "left": lambda f, end, al, t, p: left_frac_integral(f, end, al, t, p),
    "jackson": lambda f, end, al, t, p: q_integral(f, end, t, p),
    "right": lambda f, end, al, t, p: right_frac_integral(f, end, al, t, p),
    "tail": lambda f, end, al, t, p: q_integral_tail(f, t, end, p),
}


def _piecewise(name, q, al, t, g, p, far=False):
    side, kind = name.split()
    m = math.ceil(100.0 * math.log(10.0) / -math.log(q)) if far else None
    if side in ("right", "tail"):
        f, end = _TOWARD_INF[kind](t * (1.0 + g)), INF if m is None else t * q**-m
    else:
        f, end = _TOWARD_0[kind](t * g / 4.0), 0.0 if m is None else t * q**m
    return _OPERATORS[side](f, end, al, t, p)


_PIECEWISE = [f"{side} {kind}" for side in ("left", "jackson") for kind in _TOWARD_0] + [
    f"{side} {kind}" for side in ("right", "tail") for kind in _TOWARD_INF]
_LATTICE_SUMS.update((name, functools.partial(_piecewise, name)) for name in _PIECEWISE)


@pytest.mark.parametrize("name", _LATTICE_SUMS)
@settings(max_examples=40, deadline=None)
@example(q=0.9, alpha=1.0, t=1.0, gamma=1.0)
@example(q=0.5, alpha=1.0, t=1.0, gamma=0.12)
@example(q=0.7, alpha=1.0, t=2.5, gamma=0.3)
@given(
    q=st.floats(min_value=0.2, max_value=0.9),
    alpha=st.floats(min_value=0.2, max_value=2.5),
    t=st.floats(min_value=0.3, max_value=3.0),
    gamma=st.floats(min_value=0.1, max_value=3.0),
)
def test_no_false_early_stop_on_the_operand(name, q, alpha, t, gamma):
    # The guard above, for sums that may close on their operand: against the
    # same sum at rel_tol 1e-16.  Over 800 random cases the worst gap before
    # the operand test was 7.3e-13 (s**-2 + s**-2.5 to infinity at q = 0.89),
    # and with it the same, as those operands do not settle.  The piecewise
    # operands' worst over 1,000 cases is 2.9e-13 with the spot checks and
    # without the operand test alike; taken for the power they are near t,
    # the support and right step operands were up to 176% off.  At alpha = 1
    # (the examples) and in Jackson sums and tails, the term test's closed
    # tail took them for that power, unchecked: at the first example from
    # 1.2% (left support) to 39% (support to infinity) off.  Checked, their
    # worst over 3,000 cases (3 in 10 at alpha = 1) is 3.3e-13.  They take
    # the cut reference, as at rel_tol 1e-16 the rounding of s**2 or s**-3
    # moves sigma past rel_tol, the sum stops watching the operand, and a
    # geometric tail closes unchecked: the Jackson sum of the support
    # operand at the third example reads 7.134703 there, for 7.133336.
    total = _LATTICE_SUMS[name]
    try:
        got = total(q, alpha, t, gamma, QParams(q))
        if name in _PIECEWISE:
            tight = total(q, alpha, t, gamma, QParams(q, Truncation(max_terms=1_000_000)),
                          far=True)
        else:
            tight = total(q, alpha, t, gamma, QParams(q, Truncation(1e-16, 1_000_000)))
    except QCalculusError:
        assume(False)
    assert abs(got - tight) <= 1e-12 * abs(tight)


def test_order_one_sums_spot_check_their_closed_tail():
    # At alpha = 1 the lattice weights are geometric, as a Jackson sum's, and
    # a term ratio exact over 3 terms would close the tail: min(s, 0.25)**1.5
    # from 0 at q = 0.9 is constant over its first 14 points, and its closed
    # tail was the constant's, 1/8.  The tail is spot-checked further down
    # the chain first, and each failed check defers it past the break.  The
    # reference is math.fsum of the Jackson sum; the value is continuous
    # across the order 1.
    f, p, want = lambda s: min(s, 0.25) ** 1.5, QParams(0.9), 0.10721366970626535
    jackson = q_integral(f, 0.0, 1.0, p)
    at_one = left_frac_integral(f, 0.0, 1.0, 1.0, p)
    assert abs(jackson - want) <= 1e-14 * want
    assert abs(at_one - want) <= 1e-14 * want
    below = left_frac_integral(f, 0.0, 0.9999, 1.0, p)
    above = left_frac_integral(f, 0.0, 1.0001, 1.0, p)
    assert above < at_one < below


def test_order_one_sums_to_infinity_spot_check_their_closed_tail():
    # Upward: s**-2 up to s = 2 and 0.25 (2 / s)**1.5 past it, at q = 0.9,
    # whose closed tail was s**-2's, 0.9.  Reference: math.fsum of the sum.
    f = lambda s: s**-2.0 if s <= 2.0 else 0.25 * (2.0 / s) ** 1.5
    p, want = QParams(0.9), 1.3746639258156979
    assert rel_err(q_integral_tail(f, 1.0, INF, p), want) <= 1e-14
    assert rel_err(right_frac_integral(f, INF, 1.0, 1.0, p), want) <= 1e-14


@pytest.mark.parametrize(("floor", "want"), [(0.03, 0.66697265625), (0.01, 0.6667041015625)])
def test_jackson_sum_of_a_clamp_with_a_short_rest(floor, want):
    # s clamped below at a floor, from 0 at q = 0.5: the closed tail of s
    # has a rest of 18 terms, short of 8 times the 5 terms taken, and is
    # still checked; unchecked, it closed as s alone integrates, to 2/3.
    # The reference is the finite sum over the points above the floor plus
    # the floor's geometric tail.
    got = q_integral(lambda s: max(s, floor), 0.0, 1.0, QParams(0.5))
    assert abs(got - want) <= 1e-14 * want


def test_zero_run_at_chain_start_stops_the_sum():
    # The documented limit of the small-term stop: an operand that is 0 at the
    # first 3 points of an infinite chain integrates to 0, against the true
    # (1 - q) sum_{i>=3} q**i = 0.125 at q = 0.5.
    f = lambda s: 0.0 if s > 0.2 else 1.0
    assert q_integral(f, 0.0, 1.0, QParams(0.5)) == 0.0
