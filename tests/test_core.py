import asyncio
import math
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfrac import (
    DomainError,
    NonConvergence,
    QParams,
    Truncation,
    count_terms,
    nabla_q,
    nabla_q_n,
    q_bracket,
    q_exp_e,
    q_integral,
    q_integral_tail,
)

from conftest import rel_err

INF = math.inf


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
            {"abs_tol": -1.0},
            {"max_terms": 0},
            {"consecutive_small": 0},
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
        with pytest.raises(DomainError):
            nabla_q(lambda s: s, t, p_half)

    def test_iterated_derivative(self, p_half):
        # Second derivative of t^2 is the constant (1 + q) * 1.
        f = lambda s: s * s
        second = nabla_q_n(f, 1.0, 2, p_half)
        assert second == pytest.approx(q_bracket(2.0, p_half) * 1.0)
        assert nabla_q_n(f, 1.0, 0, p_half) == f(1.0)
        with pytest.raises(DomainError):
            nabla_q_n(f, 1.0, -1, p_half)


def brute_jackson(f, x, q, terms=400):
    """Independent straight-loop Jackson sum for the range [0, x]."""
    total = 0.0
    for i in range(terms):
        total += q**i * f(x * q**i)
    return (1.0 - q) * x * total


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
        with pytest.raises(DomainError):
            q_integral(lambda s: s, -1.0, 1.0, p_half)

    def test_budget_exhaustion(self):
        p = QParams(0.9, Truncation(max_terms=5))
        with pytest.raises(NonConvergence):
            q_integral(lambda s: 1.0, 0.0, 1.0, p)

    def test_term_counting(self, p_half):
        with count_terms() as counter:
            q_integral(lambda s: s, 0.0, 1.0, p_half)
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
