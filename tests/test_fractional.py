import itertools
import math
import operator
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qfrac.special

from qfrac import (
    DomainError,
    IVProblem,
    NonConvergence,
    NumericOverflow,
    QCalculusError,
    QParams,
    Truncation,
    count_terms,
    left_caputo,
    left_frac_integral,
    left_riemann_deriv,
    nabla_q,
    nabla_q_n,
    q_factorial_power,
    q_gamma,
    q_integral,
    r_coef,
    right_caputo,
    right_frac_integral,
    right_riemann_deriv,
    solve_ivp_closed,
)

from qfrac.checks import _right_caputo_composed
from qfrac.core import _grid_exponent

from conftest import rel_err

INF = math.inf

# 1 / q_gamma(1.5) at q = 1/2, frozen from a 50-digit evaluation.
INV_GAMMA_THREE_HALVES = 1.0859231828858144
EPS = 2.0**-52


# Each derivative with its default endpoint and its sign per q-derivative.
DERIVATIVES = [
    pytest.param(left_riemann_deriv, 0.0, 1.0, id="left_riemann"),
    pytest.param(left_caputo, 0.0, 1.0, id="left_caputo"),
    pytest.param(right_riemann_deriv, INF, -1.0, id="right_riemann"),
    pytest.param(right_caputo, INF, -1.0, id="right_caputo"),
]


class TestDerivativeOrder:
    @pytest.mark.parametrize("op,endpoint,sign", DERIVATIVES)
    @pytest.mark.parametrize("order", [0.0, -0.5, -2.0, math.nan, INF, -INF])
    def test_rejects_order(self, op, endpoint, sign, order, p_half):
        with pytest.raises(DomainError):
            op(lambda s: s, endpoint, order, 1.0, p_half)

    @pytest.mark.parametrize("op,endpoint,sign", DERIVATIVES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_integer_order_is_nabla_q_n(self, op, endpoint, sign, n, p_half):
        f = lambda s: s**-3.0 + 0.4 * s
        want = sign**n * nabla_q_n(f, 0.8, n, p_half)
        assert op(f, endpoint, n, 0.8, p_half) == want
        assert op(f, endpoint, float(n), 0.8, p_half) == want

    # 50-digit values of the exact power rules at q = 1/2, t = 0.8, per alpha:
    # from 0, R^alpha (s^2 + 0.4 s) = [2]_q / G(3 - alpha) t^(2 - alpha)
    # + 0.4 / G(2 - alpha) t^(1 - alpha), with G = q_gamma.
    POWER_RULE = {0.5: 1.2900053695070397, 1.5: 1.7413999308958668, 2.25: 1.1884116001938652}
    # To infinity, the right Riemann derivative of s^-3 is the right series
    # at order -alpha: its value and the sum of its terms' sizes, summed at
    # 40 digits as test_ml_reference.right_to_infinity sums it.  (The power
    # rule's frozen values pinned here before were up to 3.0e-16 off them.)
    RIGHT_SERIES = {
        0.5: (7.401525426284449, 8.617875950651477),
        1.5: (190.8429392363043, 264.0687092357696),
        2.25: (3555.87724226748, 5285.555744972814),
    }
    # Left Caputo from 0 of s^2 + 0.4 s keeps the terms of degree >= n:
    # [2]_q / G(3 - alpha) t^(2 - alpha) at n = 2, and 0 at n = 3 (40 digits).
    CAPUTO = {1.5: 1.4569188331653704, 2.25: 0.0}

    @pytest.mark.parametrize("alpha,n", [(0.5, 1), (1.5, 2), (2.25, 3)])
    def test_fractional_order_uses_ceiling(self, alpha, n, p_half):
        # From 0 and to infinity the Riemann derivatives, left Caputo with
        # n = 1 and right Caputo are the series at order -alpha: within 1e-15
        # of the exact values on the left, where composing n q-derivatives
        # with the (n - alpha)-integral is up to 6.3e-15 off.  On the right
        # each term carries about eight roundings of eps / 2 (three powers
        # and two products in the first weight, a power and a product in its
        # sample and term, three per weight factor further down), so the
        # series is within 4 eps of the sum of its terms' sizes: measured
        # 1.5 eps.  Right Caputo to infinity is the Riemann series bit for
        # bit.  Left Caputo from 0 with n >= 2 is the series of f less its
        # q-Taylor part, whose coefficients past f(0) are extrapolated toward
        # 0: 1.5e-15 off at n = 2 (the composition it replaced: 2.0e-15), and
        # 2.0e-15 where the value is 0.
        left_f = lambda s: s * s + 0.4 * s
        right_f = lambda s: s**-3.0
        left_exact, (right_sum, right_size) = self.POWER_RULE[alpha], self.RIGHT_SERIES[alpha]
        got = left_riemann_deriv(left_f, 0.0, alpha, 0.8, p_half)
        assert abs(got - left_exact) <= 1e-15 * left_exact
        got_right = right_riemann_deriv(right_f, INF, alpha, 0.8, p_half)
        assert abs(got_right - right_sum) <= 4 * EPS * right_size
        got = left_caputo(left_f, 0.0, alpha, 0.8, p_half)
        caputo_exact = self.CAPUTO.get(alpha, left_exact)
        assert abs(got - caputo_exact) <= (1e-15 if n == 1 else 3e-15) * max(caputo_exact, 1.0)
        assert right_caputo(right_f, INF, alpha, 0.8, p_half) == got_right


class TestRightEndpoint:
    def test_r_coefficient_normalisation(self):
        assert r_coef(1.0, 0.5) == 1.0
        assert r_coef(0.0, 0.5) == 1.0
        assert r_coef(2.0, 0.5) == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [1e200, -1e200])
    def test_r_coefficient_exponent_overflow_raises(self, alpha):
        # -alpha (alpha - 1) / 2 overflows to -inf, and q**-inf is inf
        # without an OverflowError.
        with pytest.raises(NumericOverflow, match=re.escape(f"alpha={alpha!r}, q=0.5")):
            r_coef(alpha, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, INF, -INF])
    def test_r_coefficient_of_a_non_finite_order_is_a_domain_error(self, alpha):
        # A NaN gave nan, and an infinity read as an overflow.
        with pytest.raises(DomainError, match=re.escape(
                f"r_coef: alpha must be finite, got {alpha!r}")):
            r_coef(alpha, 0.5)

    def test_nonpositive_endpoint_rejected(self, p_half):
        for b in (0.0, -1.0, -INF, math.nan):
            with pytest.raises(DomainError):
                right_frac_integral(lambda s: s, b, 0.5, 1.0, p_half)


class TestLeftIntegral:
    @pytest.mark.parametrize(("a", "t"), [(0.0, -1.0), (0.0, -INF), (-0.5, 1.0), (-1.0, -0.5)])
    def test_negative_endpoint_names_the_operator(self, p_half, a, t):
        end, value = ("a", a) if a < 0.0 else ("t", t)
        with pytest.raises(DomainError, match=(
                rf"^left_frac_integral: {end} must be finite and >= 0, got {value!r}$")):
            left_frac_integral(lambda s: s, a, 0.5, t, p_half)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 1.7, -0.5])
    def test_point_zero_below_the_start_is_rejected(self, p_half, alpha):
        # Integer orders used to return a value (-1.6667 for f = 1 + s,
        # a = 1, alpha = 1), the others failed inside q_factorial_power.
        with pytest.raises(DomainError, match=(
                rf"^left fractional integral at t=0\.0, a=1\.0, alpha={alpha!r}, q=0\.5: ")):
            left_frac_integral(lambda s: 1.0 + s, 1.0, alpha, 0.0, p_half)
        assert left_frac_integral(lambda s: 1.0 + s, 0.0, alpha, 0.0, p_half) == 0.0

    def test_order_one_is_plain_integral(self, p_half):
        f = lambda s: s + s * s
        for t in (0.25, 1.0):
            assert rel_err(
                left_frac_integral(f, 0.0, 1.0, t, p_half),
                q_integral(f, 0.0, t, p_half),
            ) < 1e-12

    def test_linear_integrand_value(self, p_half):
        got = left_frac_integral(lambda s: s, 0.0, 1.0, 1.0, p_half)
        assert rel_err(got, 2.0 / 3.0) < 1e-10

    def test_half_order_of_constant(self, p_half):
        got = left_frac_integral(lambda s: 1.0, 0.0, 0.5, 1.0, p_half)
        assert rel_err(got, INV_GAMMA_THREE_HALVES) < 1e-10
        assert rel_err(got, 1.0 / q_gamma(1.5, p_half)) < 1e-10

    @pytest.mark.parametrize("order", [0.0, -1.0, -2.0])
    def test_excluded_orders(self, order, p_half):
        with pytest.raises(DomainError):
            left_frac_integral(lambda s: s, 0.0, order, 1.0, p_half)

    def test_negative_noninteger_order_is_allowed(self, p_half):
        value = left_frac_integral(lambda s: s, 0.0, -0.5, 1.0, p_half)
        assert math.isfinite(value)

    def test_lattice_series_past_the_budget_samples_nothing(self):
        # a = t q**20000: the series' 20,000 terms exceed the budget of
        # 10,000, which is known before the first sample of f.
        calls = []
        with pytest.raises(NonConvergence, match=(
                r"^left fractional integral at t=1\.0, a=.*, alpha=0\.5, q=0\.999: "
                r"20000 terms exceed the budget of 10000$")):
            left_frac_integral(lambda s: calls.append(s) or s, 0.999**20000, 0.5, 1.0,
                               QParams(0.999))
        assert calls == []

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_power_rule(self, q):
        p = QParams(q)
        for a in (0.0, q**3):
            for mu in (0.0, 0.5, 1.0, 2.0):
                f = lambda s, a=a, mu=mu: q_factorial_power(s, a, mu, p)
                for alpha in (0.5, 1.0, 1.7):
                    for t in (q**2, q, 1.0):
                        if t <= a:
                            continue
                        lhs = left_frac_integral(f, a, alpha, t, p)
                        rhs = (
                            q_gamma(mu + 1.0, p)
                            / q_gamma(alpha + mu + 1.0, p)
                            * q_factorial_power(t, a, mu + alpha, p)
                        )
                        assert rel_err(lhs, rhs) < 1e-8


class TestRightIntegral:
    def test_order_one_of_inverse_square(self, p_half):
        got = right_frac_integral(lambda s: s**-2.0, INF, 1.0, 1.0, p_half)
        assert rel_err(got, 0.5) < 1e-10

    def test_empty_range(self, p_half):
        assert right_frac_integral(lambda s: s, 1.0, 1.0, 1.0, p_half) == 0.0

    def test_derivative_inverts_with_sign(self, p_half):
        # First derivative of the order-1 right integral of s^-2 is -s^-2.
        got = nabla_q(
            lambda x: right_frac_integral(lambda s: s**-2.0, INF, 1.0, x, p_half),
            1.0,
            p_half,
        )
        assert rel_err(got, -1.0) < 1e-10

    def test_endpoint_below_point_rejected(self, p_half):
        with pytest.raises(DomainError):
            right_frac_integral(lambda s: s, 0.25, 1.0, 1.0, p_half)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_semigroup_with_infinite_endpoint(self, q):
        p = QParams(q)
        f = lambda s: s**-2.0
        for alpha, beta in ((0.4, 0.9), (0.9, 0.4), (0.4, 0.4)):
            for t in (q, 1.0):
                nested = right_frac_integral(
                    lambda x: right_frac_integral(f, INF, alpha, x, p),
                    INF, beta, t, p,
                )
                direct = right_frac_integral(f, INF, alpha + beta, t, p)
                assert rel_err(nested, direct) < 1e-6


    # The finite right semigroup I_b^beta [I_{b q^(1-beta)}^alpha f](t) =
    # I_{b q}^(alpha+beta) f(t), for any b > 0 and t = b q**k: both sides are
    # finite lattice sums, equal by q-Chu-Vandermonde on their weights.  The
    # largest gap seen over these ranges is 4.9e-15.
    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(0.2, 0.95), alpha=st.floats(0.05, 3.0), beta=st.floats(0.05, 3.0),
           u=st.floats(-2.0, 2.0), k=st.integers(1, 10),
           f=st.sampled_from([lambda s: 1.0 + s, lambda s: s * s - 0.3 * s,
                              lambda s: 1.0 / (1.0 + s), lambda s: math.exp(-s),
                              lambda s: s**-1.5]))
    def test_semigroup_to_finite_endpoint(self, q, alpha, beta, u, k, f):
        p, b = QParams(q), math.exp(u)
        t = b * q**k
        nested = right_frac_integral(
            lambda x: right_frac_integral(f, b * q ** (1.0 - beta), alpha, x, p),
            b, beta, t, p,
        )
        assert rel_err(nested, right_frac_integral(f, b * q, alpha + beta, t, p)) <= 1e-13


class TestRiemannDerivative:
    def test_integer_order_left(self, p_half):
        f = lambda s: s + s * s
        for t in (0.5, 1.0):
            assert left_riemann_deriv(f, 0.0, 1.0, t, p_half) == pytest.approx(
                nabla_q(f, t, p_half)
            )

    def test_constant_half_order(self, p_half):
        # The half-order derivative of a constant c is c t^-1/2 / q_gamma(1/2).
        c = 2.5
        for t in (0.25, 1.0):
            got = left_riemann_deriv(lambda s: c, 0.0, 0.5, t, p_half)
            assert rel_err(got, c * t**-0.5 / q_gamma(0.5, p_half)) < 1e-9
        for t in (0.0, -1.0):
            with pytest.raises(DomainError, match="t must be finite and > 0"):
                left_riemann_deriv(lambda s: c, 0.0, 0.5, t, p_half)

    def test_domain_errors_name_their_parameters(self, p_half):
        f = lambda s: 1.0
        with pytest.raises(DomainError,
                           match=r"^right_frac_integral: t must be finite and > 0, got 0\.0$"):
            right_frac_integral(f, INF, 0.5, 0.0, p_half)
        with pytest.raises(DomainError,
                           match=r"^left_riemann_deriv: t must be finite and > 0, got -1\.0$"):
            left_riemann_deriv(f, 0.0, 1.5, -1.0, p_half)
        with pytest.raises(DomainError, match=r"^right Riemann derivative at t=1\.0, b=0\.5, "
                                              r"alpha=0\.5, q=0\.5: needs b >= t$"):
            right_riemann_deriv(f, 0.5, 0.5, 1.0, p_half)

    @pytest.mark.parametrize("derivative, end, sign", DERIVATIVES)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_infinite_point_is_a_domain_error(self, derivative, end, sign, alpha, p_half):
        # It printed 0.0 (right, alpha = 0.5) or nan (integer orders).
        with pytest.raises(DomainError, match=r": t must be finite and >=? 0, got inf$"):
            derivative(lambda s: s, end, alpha, INF, p_half)

    def test_integral_at_an_infinite_point_is_a_domain_error(self, p_half):
        with pytest.raises(DomainError,
                           match=r"^left_frac_integral: t must be finite and >= 0, got inf$"):
            left_frac_integral(lambda s: s, 0.0, 0.5, INF, p_half)
        with pytest.raises(DomainError,
                           match=r"^right_frac_integral: t must be finite and > 0, got inf$"):
            right_frac_integral(lambda s: s**-2, INF, 0.5, INF, p_half)

    def test_extreme_orders_overflow_names_parameters(self, p_half):
        # At t = 2 the weight ((1-q) t)**alpha is 1, and the lattice series'
        # q**alpha overflows; to infinity, b q**-n does.
        with pytest.raises(NumericOverflow, match=r"t=2\.0, a=0\.0, alpha=-1100\.5, q=0\.5"):
            left_riemann_deriv(lambda s: 1.0, 0.0, 1100.5, 2.0, p_half)
        with pytest.raises(NumericOverflow, match=r"right Riemann derivative at t=1\.0, b=inf, "
                                                  r"alpha=1100\.5, q=0\.5"):
            right_riemann_deriv(lambda s: s**-2, INF, 1100.5, 1.0, p_half)

    def test_integer_order_right(self, p_half):
        f = lambda s: s**-2.0
        got = right_riemann_deriv(f, INF, 1.0, 1.0, p_half)
        assert rel_err(got, -nabla_q(f, 1.0, p_half)) < 1e-12

    def test_right_integer_order_via_fractional_route(self, p_half):
        # Composing by hand with n = 2 and inner order 1 recovers -nabla f.
        f = lambda s: s**-2.0
        got = nabla_q_n(
            lambda x: right_frac_integral(f, INF, 1.0, x, p_half), 1.0, 2, p_half
        )
        assert rel_err(got, -nabla_q(f, 1.0, p_half)) < 1e-9

    def test_cauchy_reduction(self, p_half):
        f = lambda s: 1.0 + s + s * s
        for n in (1, 2):
            for t in (0.25, 1.0):
                got = nabla_q_n(
                    lambda x: left_frac_integral(f, 0.0, float(n), x, p_half),
                    t, n, p_half,
                )
                assert rel_err(got, f(t)) < 1e-9


class TestCaputo:
    def test_kills_constants(self, p_half):
        assert abs(left_caputo(lambda s: 7.0, 0.0, 0.6, 1.0, p_half)) < 1e-12
        assert abs(right_caputo(lambda s: 7.0, 4.0, 0.6, 1.0, p_half)) < 1e-12

    def test_budget_failure_of_the_taylor_coefficients_passes_through(self):
        # nabla_q^6 f(a) is past a budget of 5: that failure reaches the
        # caller as it is, not as non-finite q-Taylor coefficients.
        with pytest.raises(NonConvergence, match=(
                r"^nabla_q\^n with n=6 at t=0\.5, q=0\.5: 6 terms exceed the budget of 5$")):
            left_caputo(lambda s: s * s, 0.5, 6.5, 1.0, QParams(0.5, Truncation(max_terms=5)))

    def test_integer_order_left(self, p_half):
        f = lambda s: s * s * s
        got = left_caputo(f, 0.0, 2.0, 1.0, p_half)
        assert got == pytest.approx(nabla_q_n(f, 1.0, 2, p_half))

    def test_integer_order_right(self, p_half):
        f = lambda s: s * s
        got = right_caputo(f, 4.0, 1.0, 1.0, p_half)
        assert got == pytest.approx(-nabla_q(f, 1.0, p_half))

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_right_to_infinity_on_operands_that_do_not_decay(self, q):
        # To infinity right Caputo is the Riemann series of f.  Of a constant
        # or a linear part, which the composition's q-derivatives remove,
        # the series' weights sum to 0 or diverge as its integral does.
        p = QParams(q)
        for f in (lambda s: 1.0 + s**-2.0, lambda s: 2.0 + 0.5 * s + s**-3.0):
            for alpha in (0.4, 1.3, 2.6):
                for t in (0.7, 1.0):
                    assert_near(value_or_error_type(right_caputo, f, INF, alpha, t, p),
                                value_or_error_type(_right_caputo_composed, f, INF, alpha, t, p))

    def test_right_empty_sum_samples_nothing(self, p_half):
        assert right_caputo(raising_operand, 1.0, 1.5, 1.0, p_half) == 0.0

    @pytest.mark.parametrize("b", [1.3, 0.5, -1.0, math.nan])
    def test_right_endpoint_off_the_grid_or_below_is_rejected(self, p_half, b):
        # Checked before the q-Taylor part is built: its nodes b q**(alpha-k)
        # would underflow at this order, and the series' endpoint is b q.
        message = (f"t=1.0, b={b}$" if b > 0.0
                   else rf"^right_caputo: b must be in \(0, inf\], got {b}$")
        with pytest.raises(DomainError, match=message):
            right_caputo(raising_operand, b, 900.5, 1.0, p_half)

    @pytest.mark.parametrize("op, endpoint", [(left_caputo, 0.5), (right_caputo, 4.0)])
    def test_order_past_the_budget_samples_nothing(self, op, endpoint):
        # nabla_q^6 f is the first q-Taylor coefficient taken.
        with pytest.raises(NonConvergence, match=r"^nabla_q\^n with n=6 at t="):
            op(raising_operand, endpoint, 6.5, 1.0, QParams(0.5, Truncation(max_terms=5)))

    def test_right_taylor_failure_names_the_endpoint(self, p_half):
        # f singular at the q-Taylor point b q**(alpha + 1 - n), here 0.5**0.5.
        with pytest.raises(NonConvergence, match=(
                r"^right Caputo derivative at t=0\.25, b=1\.0, alpha=0\.5, q=0\.5: "
                r"the q-Taylor coefficients of f at 0\.707")):
            right_caputo(lambda s: 1.0 / (s - 0.5**0.5), 1.0, 0.5, 0.25, p_half)

    def test_from_zero_names_the_derivative_where_f_does_not_settle(self, p_half):
        # s**0.5 has no integer-power expansion at 0, so nabla_q f(x), a
        # multiple of x**-0.5, has no limit there.  The composition this
        # replaced failed in its inner integral and named that, at order 0.5.
        with pytest.raises(NonConvergence, match=(
                r"^left Caputo derivative at t=1\.0, a=0\.0, alpha=1\.5, q=0\.5: "
                r"nabla_q\^1 f does not settle toward 0")):
            left_caputo(lambda s: s**0.5, 0.0, 1.5, 1.0, p_half)

    @pytest.mark.parametrize("q", [0.3, 0.9])
    def test_from_zero_without_a_power_expansion_raises(self, q):
        # The deliberate trade of the extrapolation: nabla_q^2 s**2.5 is a
        # multiple of x**0.5, whose table settles no closer than 8e-3 of its
        # scale.  The composition happened to be right here at q = 0.3
        # (1.568925803918644 against 1.56892580391864).
        with pytest.raises(NonConvergence, match=r"nabla_q\^2 f does not settle toward 0"):
            left_caputo(lambda s: s**2.5, 0.0, 2.4, 1.0, QParams(q))

    def test_from_zero_table_past_the_budget_samples_nothing(self):
        # 13 nodes, each sampled 1 + 2 + 3 times for nabla_q^k f, k < n = 3.
        with pytest.raises(NonConvergence, match=(
                r"^left Caputo derivative at t=1\.0, a=0\.0, alpha=2\.5, q=0\.5: "
                r"78 terms exceed the budget of 77$")):
            left_caputo(raising_operand, 0.0, 2.5, 1.0, QParams(0.5, Truncation(max_terms=77)))

    @pytest.mark.parametrize("name, operator", [
        ("left_frac_integral", left_frac_integral),
        ("left_riemann_deriv", left_riemann_deriv),
        ("left_caputo", left_caputo),
    ], ids=["integral", "riemann", "caputo"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_infinite_start_is_a_domain_error(self, p_half, name, operator, alpha):
        # Named through the operator and its a, before any sample, at every
        # order: the integral named an internal factorial power, and Caputo
        # read f at inf for its q-Taylor part.
        with pytest.raises(DomainError, match=re.escape(
                f"{name}: a must be finite and >= 0, got inf")):
            operator(raising_operand, INF, alpha, 1.0, p_half)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    def test_left_endpoints_outside_the_domain(self, p_half, alpha):
        # a = t = 0 is an empty sum; every other t <= 0, a < 0 or NaN
        # endpoint raises before f is sampled, naming t and a.
        assert left_caputo(raising_operand, 0.0, alpha, 0.0, p_half) == 0.0
        for a, t, message in [(0.0, -1.0, "left_caputo: t must be finite and >= 0, got -1.0"),
                              (1.0, 0.0, "left Caputo derivative at t=0.0, a=1.0, "),
                              (math.nan, 1.0, "left_caputo: a must be finite and >= 0, got nan"),
                              (0.0, math.nan, "left_caputo: t must be finite and >= 0, got nan"),
                              (-0.5, 1.0, "left_caputo: a must be finite and >= 0, got -0.5")]:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
                left_caputo(raising_operand, a, alpha, t, p_half)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_inversion_by_fractional_integral(self, q):
        # Applying the order-alpha integral to the Caputo derivative restores
        # f up to its value at the base point (0 < alpha <= 1).
        p = QParams(q)
        f = lambda s: s + s * s
        alpha, a = 0.7, 0.0
        for t in (q**2, q, 1.0):
            lhs = left_frac_integral(
                lambda s: left_caputo(f, a, alpha, s, p), a, alpha, t, p
            )
            assert rel_err(lhs, f(t) - f(a)) < 1e-6

    def test_riemann_relation_left(self, p_half):
        f = lambda s: s + s * s
        alpha, a = 0.6, 0.0
        for t in (0.25, 1.0):
            lhs = left_caputo(f, a, alpha, t, p_half)
            rhs = left_riemann_deriv(f, a, alpha, t, p_half) - q_factorial_power(
                t, a, -alpha, p_half
            ) * f(a) / q_gamma(1.0 - alpha, p_half)
            assert rel_err(lhs, rhs) < 1e-6

    def test_riemann_relation_right(self, p_half):
        q = 0.5
        f = lambda s: s + s * s
        alpha, b = 0.6, 1.0
        for t in (q**3, q**2):
            lhs = right_caputo(f, b / q, alpha, t, p_half)
            rhs = right_riemann_deriv(f, b, alpha, t, p_half) - r_coef(
                1.0 - alpha, q
            ) / q_gamma(1.0 - alpha, p_half) * q_factorial_power(
                b, q * t, -alpha, p_half
            ) * f(q**alpha * b / q)
            assert rel_err(lhs, rhs) < 1e-6

    def test_transfer_identity_first_order(self, p_half):
        # Moving one q-derivative through the fractional integral costs a
        # boundary term with the kernel at the base point.
        f = lambda s: s + s * s
        alpha, a = 0.9, 0.5**3
        for t in (0.25, 1.0):
            lhs = left_frac_integral(
                lambda s: nabla_q(f, s, p_half), a, alpha, t, p_half
            )
            rhs = nabla_q(
                lambda x: left_frac_integral(f, a, alpha, x, p_half), t, p_half
            ) - q_factorial_power(t, a, alpha - 1.0, p_half) * f(a) / q_gamma(
                alpha, p_half
            )
            assert rel_err(lhs, rhs) < 1e-6

    def test_left_semigroup(self, p_half):
        f = lambda s: s + s * s
        for alpha, beta in ((0.4, 0.9), (1.3, 0.4)):
            for t in (0.25, 1.0):
                nested = left_frac_integral(
                    lambda s: left_frac_integral(f, 0.0, alpha, s, p_half),
                    0.0, beta, t, p_half,
                )
                direct = left_frac_integral(f, 0.0, alpha + beta, t, p_half)
                assert rel_err(nested, direct) < 1e-6


# Lattice series: on points aligned with t the integrals are sums whose weights
# follow by recurrence.  The reference below rebuilds every weight from direct
# q-Pochhammer products instead.
LATTICE_QS = (0.3, 0.5, 0.9)
LATTICE_ORDERS = (0.3, 1.0, 1.7, 2.5)
LATTICE_T = 0.8


def pochhammer_ratio(alpha, q, n):
    """(q**alpha; q)_n / (q; q)_n as two plain products."""
    num = den = 1.0
    for k in range(n):
        num *= 1.0 - q ** (alpha + k)
        den *= 1.0 - q ** (k + 1)
    return num / den


def lattice_terms(q, ratio_bound=1e-20):
    """Enough terms for an infinite lattice series to fall below ratio_bound."""
    return int(math.log(ratio_bound) / math.log(q)) + 1


def left_reference(f, alpha, t, m, q):
    """sum_{i<m} ((1-q) t)**alpha q**i (q**alpha; q)_i / (q; q)_i f(t q**i)."""
    scale = ((1.0 - q) * t) ** alpha
    return sum(
        scale * q**i * pochhammer_ratio(alpha, q, i) * f(t * q**i) for i in range(m)
    )


def right_reference(f, alpha, t, m, q):
    """sum_{i=1..m} r(alpha) ((1-q) t)**alpha q**(-i alpha)
    (q**alpha; q)_{i-1} / (q; q)_{i-1} f(t q**(1-alpha-i))."""
    scale = r_coef(alpha, q) * ((1.0 - q) * t) ** alpha
    return sum(
        scale * q ** (-i * alpha) * pochhammer_ratio(alpha, q, i - 1)
        * f(t * q ** (1.0 - alpha - i))
        for i in range(1, m + 1)
    )


def tight(q):
    # Truncation of infinite series far below the 1e-12 comparison.
    return QParams(q, Truncation(rel_tol=1e-16))


class TestLatticeSeries:
    @pytest.mark.parametrize("q", LATTICE_QS)
    @pytest.mark.parametrize("alpha", LATTICE_ORDERS)
    def test_left_matches_direct_products(self, q, alpha):
        p = tight(q)
        f = lambda s: 1.0 + s * s
        t = LATTICE_T
        got = left_frac_integral(f, 0.0, alpha, t, p)
        want = left_reference(f, alpha, t, lattice_terms(q), q)
        assert abs(got - want) <= 1e-12 * abs(want)
        for m in range(1, 7):
            got = left_frac_integral(f, t * q**m, alpha, t, p)
            want = left_reference(f, alpha, t, m, q)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("q", LATTICE_QS)
    @pytest.mark.parametrize("alpha", LATTICE_ORDERS)
    def test_right_matches_direct_products(self, q, alpha):
        p = tight(q)
        f = lambda s: s**-4.0
        t = LATTICE_T
        got = right_frac_integral(f, INF, alpha, t, p)
        want = right_reference(f, alpha, t, lattice_terms(q ** (4.0 - alpha)), q)
        assert abs(got - want) <= 1e-12 * abs(want)
        for m in range(1, 7):
            got = right_frac_integral(f, t * q**-m, alpha, t, p)
            want = right_reference(f, alpha, t, m, q)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("q", LATTICE_QS)
    def test_finite_sums_are_summed_in_full(self, q):
        # Operands that are 0 at the first four points of a ten-point sum:
        # the small-term stopping rule must not end a finite sum.
        p, t, alpha = QParams(q), LATTICE_T, 0.7
        low = lambda s: 1.0 + s if s < t * q**3.5 else 0.0
        got = left_frac_integral(low, t * q**10, alpha, t, p)
        want = left_reference(low, alpha, t, 10, q)
        assert abs(got - want) <= 1e-12 * abs(want)
        high = lambda s: s**-4.0 if s > t * q ** (-3.5 - alpha) else 0.0
        got = right_frac_integral(high, t * q**-10, alpha, t, p)
        want = right_reference(high, alpha, t, 10, q)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_aligned_points_make_no_factorial_powers(self, monkeypatch, p_half):
        def forbidden(*args):
            raise AssertionError("lattice path rebuilt a kernel")

        monkeypatch.setattr(qfrac.special, "q_factorial_power", forbidden)
        monkeypatch.setattr(qfrac.special, "q_gamma", forbidden)
        left_frac_integral(lambda s: 1.0 + s, 0.5**3, 0.7, 1.0, p_half)
        left_frac_integral(lambda s: 1.0 + s, 0.0, 0.7, 1.0, p_half)
        right_frac_integral(lambda s: s**-2.0, INF, 0.7, 1.0, p_half)
        right_frac_integral(lambda s: s**-2.0, 4.0, 0.7, 1.0, p_half)

    # Values at parameters whose a is off the grid of t, frozen first from the
    # Jackson-sum route, which the offset lattice series that now serves
    # 0 < a < t agreed with, and again once sums and then the q-Pochhammer
    # products closed their geometric tails; each new value is closer to a
    # 40-digit evaluation of the definition (relative error then -> now:
    # 3.5e-14 -> -4.3e-15, -1.2e-15 -> -2.7e-16, 4.7e-13 -> -3.0e-13,
    # -4.3e-14 -> 2.6e-15).
    @pytest.mark.parametrize(
        "q, alpha, a, t, frozen",
        [
            (0.5, 0.7, 0.3, 1.0, 1.4759167793449937),
            (0.3, 1.7, 0.1, 0.8, 0.7348738573656232),
            (0.9, 0.3, 0.45, 1.0, 1.6663539181517721),
            (0.5, 2.5, 0.15, 0.8, 0.28844528317787077),
        ],
    )
    def test_off_grid_start_keeps_jackson_route(self, q, alpha, a, t, frozen):
        got = left_frac_integral(lambda s: 1.0 + s * s, a, alpha, t, QParams(q))
        assert abs(got - frozen) <= 1e-14 * abs(frozen)


# Off-grid starts a > 0: the lattice series from 0 at t minus the series
# anchored at a, whose weights run the lattice recurrence at offset c = a / t.
# The reference is the Jackson-sum route it replaced: the kernel
# (t - qs)_q^(alpha-1) built by q_factorial_power at every Jackson point.
OFF_GRID_QS = (0.3, 0.5, 0.7, 0.9)
OFF_GRID_ORDERS = (0.3, 0.77, 1.4, 1.8, 2.6)
OFF_GRID_RATIOS = (0.13, 0.37, 0.71)
# Starts above t, off the grid of t for every q above.  Left Caputo from
# them has its own sweep (test_caputo_from_above_t).
OFF_GRID_ABOVE = (1.19, 1.63, 2.4)
OFF_GRID_TS = (1.0, 0.6)
# Polynomials as coefficients of s**0, s**1, ...
OFF_GRID_POLYS = ((1.0,), (0.0, 1.0), (0.5, -0.3, 1.0))


def polynomial(coeffs):
    return lambda s: sum(c * s**j for j, c in enumerate(coeffs))


OFF_GRID_OPERANDS = tuple(map(polynomial, OFF_GRID_POLYS))


def power_rule(coeffs, a, alpha, t, p, first=0):
    """sum_{k >= first} nabla_q^k f(a) (t - a)_q^(k-alpha) / q_gamma(k - alpha + 1)
    for the polynomial f: by the q-power rule the left Riemann derivative of
    order alpha from a (first = 0), or the Caputo one from a < t (first = n).
    The q-derivatives at a come from the coefficients, nabla_q s**j = [j]_q s**(j-1).
    """
    q, total, k = p.q, 0.0, 0
    while coeffs:
        if k >= first:
            total += polynomial(coeffs)(a) * q_factorial_power(
                t, a, k - alpha, p) / q_gamma(k - alpha + 1.0, p)
        coeffs = [c * (1.0 - q**j) / (1.0 - q) for j, c in enumerate(coeffs)][1:]
        k += 1
    return total


def jackson_left_integral(f, a, alpha, t, p):
    def integrand(s):
        kernel = q_factorial_power(t, p.q * s, alpha - 1.0, p)
        return kernel * f(s) if kernel != 0.0 else 0.0

    return q_integral(integrand, a, t, p) / q_gamma(alpha, p)


def off_grid_sweep(ratios=OFF_GRID_RATIOS):
    for alpha in OFF_GRID_ORDERS:
        for c in ratios:
            for t in OFF_GRID_TS:
                yield alpha, c * t, t


def counted(f):
    """f, and the list of the points where it has been sampled."""
    calls = []
    return (lambda s: calls.append(s) or f(s)), calls


class TestOperandClose:
    """An infinite lattice series closes on its operand's ratio once it has
    settled, and draws the rest of its terms from the weights alone."""

    def test_nested_right_integral_samples_its_operand_a_few_times(self):
        # The record right_semigroup_infinite at q = 0.8, alpha = 1.3,
        # beta = 0.4, f = s**-2, t = q**3: the inner integral, itself a
        # power of s to rounding, is sampled 11 times (5 to settle, 6 spot
        # checks), and each inner series samples s**-2 11 times, 121 in all.
        # The term test alone sampled them 103 and 7,931 times, and left the
        # nested route 2.2e-13 off the direct one.
        q, p = 0.8, QParams(0.8)
        f, calls = counted(lambda s: s**-2.0)
        inner, points = counted(lambda s: right_frac_integral(f, INF, 1.3, s, p))
        with count_terms() as counter:
            nested = right_frac_integral(inner, INF, 0.4, q**3, p)
        assert (len(points), len(calls), counter.total) == (11, 121, 1022)
        assert rel_err(nested, right_frac_integral(lambda s: s**-2.0, INF, 1.7, q**3, p)) < 3e-14

    def test_nested_left_integral_samples_its_operand_a_few_times(self):
        # The record left_semigroup at q = 0.8, alpha = 1.3, beta = 0.4,
        # f = 1, t = q**3: the inner integral, a power of s to rounding whose
        # ratio drifts by more than 4 eps, is sampled 9 times (5 to settle, 4
        # spot checks), and the inner series sample 1 99 times in all.
        q, p = 0.8, QParams(0.8)
        f, calls = counted(lambda s: 1.0)
        inner, points = counted(lambda s: left_frac_integral(f, 0.0, 1.3, s, p))
        with count_terms() as counter:
            nested = left_frac_integral(inner, 0.0, 0.4, q**3, p)
        assert (len(points), len(calls), counter.total) == (9, 99, 661)
        assert rel_err(nested, left_frac_integral(lambda s: 1.0, 0.0, 1.7, q**3, p)) < 1e-14

    @pytest.mark.parametrize("side", ["left", "right"])
    @settings(max_examples=40, deadline=None)
    @given(
        q=st.floats(min_value=0.2, max_value=0.8),
        alpha=st.floats(min_value=0.2, max_value=1.5),
        beta=st.floats(min_value=0.2, max_value=1.5),
        t=st.floats(min_value=0.3, max_value=3.0),
    )
    def test_nested_integrals_match_the_direct_one(self, side, q, alpha, beta, t):
        # The semigroup I^beta I^alpha f = I^(alpha+beta) f, left from 0 of
        # 1 + s and right to infinity of s**-3, whose inner integrals are
        # operands that may close on their ratio, against the direct integral
        # at the same tolerance.  Over 1,200 random cases and a grid of
        # corners, worst 1.9e-13 on the left and 1.2e-13 on the right; at
        # q = 0.9 up to 7.8e-13 on the left, too near the bound to draw.
        p = QParams(q)
        if side == "left":
            f = lambda s: 1.0 + s
            nested = left_frac_integral(
                lambda s: left_frac_integral(f, 0.0, alpha, s, p), 0.0, beta, t, p)
            direct = left_frac_integral(f, 0.0, alpha + beta, t, p)
        else:
            assume(alpha + beta < 2.9)
            f = lambda s: s**-3.0
            nested = right_frac_integral(
                lambda s: right_frac_integral(f, INF, alpha, s, p), INF, beta, t, p)
            direct = right_frac_integral(f, INF, alpha + beta, t, p)
        assert rel_err(nested, direct) <= 1e-12

    def test_spot_check_that_raises_fails(self):
        # An operand that raises below s = 1e-6, which the last spot check
        # reaches (s = 6.6e-7) and the sum does not: the check fails, and
        # the series is sampled at every term, as the term test alone
        # samples it: 101 terms, each a sample, and 5 spot checks, the last
        # one raising.  The term test ends within rel_tol of the series' sum
        # at 40 digits (1.5e-13 off).
        def f(s):
            if s < 1e-6:
                raise ValueError(f"s = {s} is below 1e-6")
            return s**0.5

        f, calls = counted(f)
        with count_terms() as counter:
            got = left_frac_integral(f, 0.0, 0.7, 1.0, QParams(0.9))
        assert (len(calls), counter.total) == (106, 101)
        assert rel_err(got, 0.8145857889278267) <= 1e-12
        assert min(calls) < 1e-6

    def test_polynomial_samples_as_many_times_as_before(self):
        # 1 + s moves its ratio by more than rel_tol between its first
        # samples, so the test stops watching it: 25 samples from 0 at
        # q = 0.5, as the term test alone took.
        f, calls = counted(lambda s: 1.0 + s)
        left_frac_integral(f, 0.0, 0.7, 1.0, QParams(0.5))
        assert len(calls) == 25

    @pytest.mark.parametrize(("q", "left", "right"), [
        (0.5, (19, 19), (15, 15)), (0.8, (9, 53), (9, 40)), (0.9, (10, 107), (10, 79))])
    def test_power_closes_after_five_samples(self, q, left, right):
        # (samples, terms): 5 samples settle the ratio, and 4 or 5 spot
        # checks confirm it.  The rest's terms count as terms: from 51 and
        # 101 terms on the left and 39 and 76 on the right, every one a
        # sample, to the counts here.  At q = 0.5 the rests would be shorter
        # than 8 times the 5 terms taken, and every term is a sample, as
        # with the term test alone.
        p = QParams(q)
        f, calls = counted(lambda s: s**0.5)
        with count_terms() as counter:
            left_frac_integral(f, 0.0, 0.7, 1.0, p)
        assert (len(calls), counter.total) == left
        f, calls = counted(lambda s: s**-3.0)
        with count_terms() as counter:
            right_frac_integral(f, INF, 0.7, 1.0, p)
        assert (len(calls), counter.total) == right

    def test_cut_sums_sample_each_point_once_in_order(self, p_half):
        # x q**k down and x q**-k up for k < steps, exact at q = 1/2: a
        # Jackson sum over [q**6, 1] and a right series to b = t q**-6.
        f, calls = counted(lambda s: s)
        q_integral(f, 0.5**6, 1.0, p_half)
        assert calls == [0.5**k for k in range(6)]
        f, calls = counted(lambda s: s**-3.0)
        right_frac_integral(f, 2.0**6, 0.7, 1.0, p_half)
        x = 1.0 / 0.5 * 0.5**(1.0 - 0.7)
        assert calls == [x * 0.5**-k for k in range(6)]

    def test_power_samples_its_walk_then_its_spot_checks(self):
        # The 5 points walked (x_k by repeated steps of q), then the spot
        # checks at x_4 q**k, k = 5, 15, 35, 75 and the rest's end; past
        # them the rest calls the operand no more.
        q = 0.9
        p = QParams(q)
        f, calls = counted(lambda s: s**0.5)
        left_frac_integral(f, 0.0, 0.7, 1.0, p)
        walked = list(itertools.accumulate(itertools.repeat(q, 4), operator.mul, initial=1.0))
        assert calls == walked + [walked[-1] * q**k for k in (5, 15, 35, 75, 131)]
        f, calls = counted(lambda s: s**-3.0)
        right_frac_integral(f, INF, 0.7, 1.0, p)
        walked = list(itertools.accumulate(
            itertools.repeat(q, 4), operator.truediv, initial=1.0 / q * q**(1.0 - 0.7)))
        assert calls == walked + [walked[-1] * (1.0 / q)**k for k in (5, 15, 35, 75, 94)]

    def test_rest_runs_under_the_budget(self):
        # The rest's terms count against max_terms as the samples do; its
        # spot checks end at the budget (5 samples and 4 checks).  A budget
        # below 8 times the 5 terms taken leaves no room for a rest.
        for budget, samples in ((60, 9), (20, 21)):
            f, calls = counted(lambda s: s)
            with pytest.raises(NonConvergence,
                               match=rf"stopping rule did not fire within {budget} terms$"):
                left_frac_integral(f, 0.0, 0.7, 1.0, QParams(0.9, Truncation(max_terms=budget)))
            assert len(calls) == samples

    # Operands that are a power of s over the first samples of their chain
    # and change further down, with the sums of their lattice series at 50
    # digits.  Taken for that power, the first two were 1.4e-3 and 59% off;
    # the spot checks see them change and sample every point, and the term
    # test then ends within rel_tol of the sum (up to 2.3e-13 off).
    @pytest.mark.parametrize(("f", "side", "t", "want"), [
        (lambda s: s if s > 0.05 else 2.0 * s, "left", 1.0, 0.6683974267810779),
        (lambda s: 1.0 if s > 0.5 else 0.0, "left", 1.0, 0.6872374109127322),
        (lambda s: min(s, 0.3), "left", 1.0, 0.294042096051684),
        (lambda s: s**-2.0 if s < 3.0 else 0.0, "right", 1.0, 0.6767714092624839),
        (lambda s: min(s**-2.0, 0.5), "right", 0.5, 0.8877960860554139),
    ])
    def test_operand_that_changes_past_its_first_samples(self, f, side, t, want):
        p = QParams(0.9)
        got = (left_frac_integral(f, 0.0, 0.7, t, p) if side == "left"
               else right_frac_integral(f, INF, 0.7, t, p))
        assert rel_err(got, want) <= p.trunc.rel_tol

    def test_forcing_that_changes_past_its_first_samples(self):
        # The forcing kernel's series closes on its operand as the fractional
        # integrals do: a step forcing is sampled at every point, for the
        # term test's values, where taken for the constant 1 it was 48% high.
        # The references are sum_k lam**k I^(alpha(k+1)) f at 40 digits, each
        # integral the lattice series over the 7 and 14 points above 0.5; the
        # orders end within rel_tol of them (measured 3e-17 and 1e-16).
        p = QParams(0.9)
        sol = solve_ivp_closed(
            IVProblem(0.6, -0.8, 0.0, 0.0, lambda s: 1.0 if s > 0.5 else 0.0), p)
        assert rel_err(sol(1.0), 0.5024589139997353) <= p.trunc.rel_tol
        assert rel_err(sol(2.0), 0.7367483414018877) <= p.trunc.rel_tol

    def test_jackson_sum_keeps_its_closed_tail(self):
        # Geometric weights: the term ratio is the operand's times q, and the
        # term test closes a power's tail exactly after 5 terms, (1 - q)
        # sum_i q**(3i) = 4/7 at q = 0.5.  As that tail extrapolates the
        # operand, it is spot-checked first, at 2 points further down (k = 5
        # and the rest's end, 11): 7 samples, where the unchecked tail took
        # 5.  The spot checks are samples, not terms.
        f, calls = counted(lambda s: s * s)
        with count_terms() as counter:
            assert q_integral(f, 0.0, 1.0, QParams(0.5)) == 4.0 / 7.0
        assert (len(calls), counter.total) == (7, 5)


class TestOffGridStart:
    @pytest.mark.parametrize("q", OFF_GRID_QS)
    def test_integral_matches_jackson_route(self, q):
        p = QParams(q)
        for alpha, a, t in off_grid_sweep(OFF_GRID_RATIOS + OFF_GRID_ABOVE):
            for f in OFF_GRID_OPERANDS:
                got = left_frac_integral(f, a, alpha, t, p)
                want = jackson_left_integral(f, a, alpha, t, p)
                assert rel_err(got, want) <= 1e-12, (alpha, a, t)

    @pytest.mark.parametrize("q", OFF_GRID_QS)
    def test_caputo_matches_jackson_route(self, q):
        # The Caputo derivative is the integral at order -alpha of f less its
        # q-Taylor part, checked against the exact q-power rule values.  The
        # composition summed nabla_q^n f, whose samples carry rounding noise
        # of about eps / s**n near 0: at alpha = 1.4, q = 0.5, a = 0.13, t = 1
        # it gave 1.2507 for 1.4709, and for alpha = 2.6 (n = 3) up to 16
        # where the value is 0.
        p = QParams(q)
        for alpha, a, t in off_grid_sweep():
            for coeffs in OFF_GRID_POLYS:
                got = left_caputo(polynomial(coeffs), a, alpha, t, p)
                want = power_rule(coeffs, a, alpha, t, p, math.ceil(alpha))
                assert rel_err(got, want) <= 1e-12, (alpha, a, t, coeffs)

    @pytest.mark.parametrize("q", OFF_GRID_QS)
    def test_riemann_matches_power_rule(self, q):
        # The derivative is the series from 0 less the one anchored at a,
        # which may cancel, so the error is bounded in units of the two
        # series' sizes as well as the value's.  At q = 0.9, alpha = 2.6,
        # a = 1.44, t = 0.6 and f = s, the series are 0.68 and 3.17 for a
        # value of 2.49: 6.6e-13 of their sizes off (1.0e-12 of the value).
        p = QParams(q)
        for alpha, a, t in off_grid_sweep(OFF_GRID_RATIOS + OFF_GRID_ABOVE):
            for coeffs in OFF_GRID_POLYS:
                got = left_riemann_deriv(polynomial(coeffs), a, alpha, t, p)
                want = power_rule(coeffs, a, alpha, t, p)
                whole = left_riemann_deriv(polynomial(coeffs), 0.0, alpha, t, p)
                size = max(abs(whole) + abs(whole - got), abs(got), abs(want), 1.0)
                assert abs(got - want) <= 1e-12 * size, (alpha, a, t, coeffs)

    @pytest.mark.parametrize("q", OFF_GRID_QS)
    def test_caputo_of_order_three_on_a_cubic(self, q):
        # The q-Taylor remainder vanishes at a, qa and q**2 a.  Summed from a,
        # those three zeros end the anchored sum (the stopping rule's small
        # run), which left cubics off by up to 6e-2; the sum starts at
        # a q**3 instead.
        p, coeffs = QParams(q), (0.5, -0.3, 1.0, 1.0)
        for alpha, a, t in off_grid_sweep():
            if alpha > 2.0:
                got = left_caputo(polynomial(coeffs), a, alpha, t, p)
                want = power_rule(coeffs, a, alpha, t, p, 3)
                assert rel_err(got, want) <= 1e-12, (alpha, a, t)

    # Left Caputo from starts a / t in {1.07, 1.19, 1.63, 2.4} above t, off
    # the grid, per n = ceil(alpha), with the worst error over the sweep
    # rounded up (3.5e-13, 6.5e-13, 2.5e-12 and 6.3e-11; against a 40-digit
    # power rule 3.3e-13, 6.5e-13, 2.5e-12 and 6.3e-11).  It is the integral
    # at order -alpha of f less its q-Taylor part at a, summed from a q**n.
    # The composition I^(n-alpha) nabla_q^n f that it replaced samples
    # nabla_q^n f toward 0: at n >= 2 it was off by more than 1e-8 in 161 of
    # the 320 cases, by up to 2.0.
    @pytest.mark.parametrize("n, alphas, bound", [
        (1, (0.4, 0.8), 5e-13), (2, (1.3, 1.7), 1e-12), (3, (2.3, 2.6), 4e-12), (4, (3.4,), 1e-10)])
    def test_caputo_from_above_t(self, n, alphas, bound):
        polys = ((1.0, 2.0), (0.5, -0.3, 1.0), (2.0, 1.0, 0.0, 1.0), (0.3, 0.0, -1.0, 0.0, 1.0))
        worst = 0.0
        for q in OFF_GRID_QS:
            p = QParams(q)
            for alpha in alphas:
                for a in (1.07, 1.19, 1.63, 2.4):
                    for coeffs in polys:
                        got = left_caputo(polynomial(coeffs), a, alpha, 1.0, p)
                        want = power_rule(coeffs, a, alpha, 1.0, p, n)
                        worst = max(worst, rel_err(got, want))
        assert worst <= bound

    # From above t, where the composition gave -16.0, 0.27161273826981713
    # and -1.20188.  The references: 0 (the q-Taylor part of a quadratic is
    # itself), the definition I_a^(n-alpha) nabla_q^n f by Jackson sums at
    # 50 digits, and the q-power rule.  The third case is the cubic from
    # a / t = 1.19 whose remainder, summed from a, opened with the three
    # zeros that end an infinite sum (the small-run stop).
    def test_caputo_from_above_t_examples(self):
        got = left_caputo(lambda s: s * s - 0.3 * s + 0.5, 2.2, 2.3, 1.0, QParams(0.9))
        assert abs(got) <= 1e-12
        p = QParams(0.5)
        got = left_caputo(lambda s: 1.0 / (1.0 + s), 1.37, 1.4, 1.0, p)
        assert abs(got - -0.4625617090251777378) <= 1e-14
        coeffs = (2.0, 1.0, 0.0, 1.0)
        got = left_caputo(polynomial(coeffs), 1.19, 2.3, 1.0, p)
        assert rel_err(got, power_rule(coeffs, 1.19, 2.3, 1.0, p, 3)) <= 1e-13

    def test_one_factorial_power_and_no_gamma_per_call(self, monkeypatch, p_half):
        # The anchored sum opens at weight c (1 - qc)_q^(alpha-1) times two
        # memoised q-Pochhammer tails, c = a / t: no q_gamma.
        calls = {"q_factorial_power": 0, "q_gamma": 0}
        for name in calls:
            original = getattr(qfrac.special, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(qfrac.special, name, counted)
        f = lambda s: 1.0 + s * s
        left_frac_integral(f, 0.37, 0.77, 1.0, p_half)
        assert calls == {"q_factorial_power": 1, "q_gamma": 0}
        left_caputo(f, 0.37, 0.77, 1.0, p_half)
        assert calls == {"q_factorial_power": 2, "q_gamma": 0}
        # Starts above t, off the grid and on it (a = t q**-2), where the
        # kernel vanishes at every anchored point and no power is built.
        left_frac_integral(f, 1.3, 0.77, 1.0, p_half)
        assert calls == {"q_factorial_power": 3, "q_gamma": 0}
        left_frac_integral(f, 1.0 / 0.5**2, 0.77, 1.0, p_half)
        assert calls == {"q_factorial_power": 3, "q_gamma": 0}

    def test_start_above_point_takes_few_terms(self):
        # The Jackson sum of the kernel took 104,847 terms here.
        with count_terms() as counter:
            left_frac_integral(lambda s: 1.0 + s * s, 1.45, 0.3, 1.0, QParams(0.9))
        assert counter.total <= 2000

    def test_constant_against_exact_value(self):
        # I_a^alpha 1 (t) = (t - a)_q^(alpha) / q_gamma(alpha + 1).  The error
        # is the stopping rule's truncation, shared by both routes; the worst
        # over the sweep must not exceed the Jackson route's, frozen here.
        jackson_worst = 1.2910153641524876e-10
        worst = 0.0
        for q in OFF_GRID_QS:
            p = QParams(q)
            for alpha, a, t in off_grid_sweep():
                got = left_frac_integral(lambda s: 1.0, a, alpha, t, p)
                exact = q_factorial_power(t, a, alpha, p) / q_gamma(alpha + 1.0, p)
                worst = max(worst, abs(got - exact) / abs(exact))
        assert worst <= jackson_worst

    # a > t, values frozen from the Jackson sum of the kernel that it took
    # until the offset lattice series replaced it; the series keeps them
    # within 1.5e-15.  Against 40-digit values of the q-power rule the pins
    # are 8.5e-16, 5.5e-16 and 6.5e-14 off, the series 1.5e-15, 5.5e-16 and
    # 6.7e-14.
    @pytest.mark.parametrize(
        "q, alpha, a, t, frozen",
        [
            (0.5, 0.7, 1.3, 1.0, -2.0941302706460965),
            (0.3, 1.7, 2.0, 0.8, -1.6253787825382915),
            (0.9, 0.3, 1.45, 1.0, 3.1757632906441766),
        ],
    )
    def test_start_above_point_keeps_values(self, q, alpha, a, t, frozen):
        got = left_frac_integral(lambda s: 1.0 + s * s, a, alpha, t, QParams(q))
        assert abs(got - frozen) <= 1e-14 * abs(frozen)

    @pytest.mark.parametrize("alpha", [0.77, 2.3, -0.4])
    def test_non_integer_order_on_the_grid_above_is_zero(self, p_half, alpha):
        # From a = t q**-2 the kernel is an exact zero at every anchored
        # point: 0.0, with no operand sampled.
        def operand(s):
            raise AssertionError(f"sampled at {s}")

        got = left_frac_integral(operand, 0.5**-2, alpha, 1.0, p_half)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("q", [0.5, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_integer_order_on_the_grid_above_is_the_jackson_sum(self, q, n, m):
        # I_a^n f(t) = -(1-q) / [n-1]_q! sum_{i<m} a q**i (t - a q**(i+1))_q^(n-1)
        # f(a q**i) from a = t q**-m, the kernel an exact finite product, which
        # vanishes at the last n - 1 points: only the first m + 1 - n are
        # sampled, and the operand is singular at the others.
        t, a = 1.3, 1.3 * q**-m
        points = [a * q**i for i in range(max(m + 1 - n, 0))]
        zeros = [a * q**i for i in range(len(points), m)]
        samples = []

        def f(s):
            samples.append(s)
            assert not any(math.isclose(s, z) for z in zeros)
            return 1.0 + s * s

        kernel = lambda s: math.prod(t - q**j * q * s for j in range(n - 1))
        factorial = math.prod((1.0 - q**k) / (1.0 - q) for k in range(1, n))
        want = -(1.0 - q) / factorial * sum(s * kernel(s) * f(s) for s in points)
        samples.clear()
        got = left_frac_integral(f, a, float(n), t, QParams(q))
        assert len(samples) == len(points)
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)

    def test_failure_names_the_parameters(self, p_half):
        with pytest.raises(NumericOverflow, match="term 1024 overflowed") as info:
            left_frac_integral(lambda s: 1.0 / s, 0.3, 0.7, 1.0, p_half)
        for name in ("left fractional integral", "t=1.0", "a=0.3", "alpha=0.7", "q=0.5"):
            assert name in str(info.value)
        with pytest.raises(NumericOverflow) as info:
            left_frac_integral(lambda s: 1.0, 3e9, 300.0, 1e10, p_half)
        for name in ("t=10000000000.0", "a=3000000000.0", "alpha=300.0"):
            assert name in str(info.value)


# Derivatives on grid-aligned endpoints are the lattice series at order
# -alpha.  The references are the definitions: n = ceil(alpha) q-derivatives
# composed with the (n - alpha)-integral.  composed_caputo serves as one from
# a = t q**m, and from 0 only at n = 1: from 0 with n >= 2 it samples
# nabla_q^n f toward 0, whose rounding of about eps / s**n left it 11-19% low
# for s**2 - 0.3 s + 0.5 at n = 2 and O(1) wrong at n = 3, so left Caputo
# from 0 is checked against the q-power rule instead
# (test_left_power_rule_and_right_composition).
def composed_riemann(f, a, alpha, t, p):
    n = math.ceil(alpha)
    return nabla_q_n(lambda x: left_frac_integral(f, a, n - alpha, x, p), t, n, p)


def composed_caputo(f, a, alpha, t, p):
    n = math.ceil(alpha)
    return left_frac_integral(lambda s: nabla_q_n(f, s, n, p), a, n - alpha, t, p)


def composed_right_riemann(f, b, alpha, t, p):
    n = math.ceil(alpha)
    return (-1.0) ** n * nabla_q_n(
        lambda x: right_frac_integral(f, b, n - alpha, x, p), t, n, p
    )


SERIES_Q = st.floats(0.2, 0.8)
SERIES_ORDERS = st.floats(0.3, 2.5).filter(lambda x: abs(x - round(x)) >= 0.05)
SERIES_TS = st.floats(0.5, 2.0)
COEFFS = st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3)))
LEFT_OPERANDS = st.one_of(
    COEFFS.map(lambda c: lambda s: c[0] + c[1] * s + c[2] * s * s),
    st.just(lambda s: 1.0 / (s + 0.2)),
)
RIGHT_OPERANDS = st.sampled_from(
    [lambda s: s**-3.0, lambda s: s**-4.0, lambda s: math.exp(-s)]
)
# Largest gap seen between a series and its composition over these ranges is
# 9e-12, at q near 0.8, from 0 and n = 3; the composition's nested sums carry it.
# Against the q-power rule the largest over 10,000 random draws is 1.1e-11
# (Riemann from a > t off the grid, a value of 3.1e4, where the float power
# rule is 7.9e-12 off 40 digits and the series 3.3e-12); the Jackson sum of
# the kernel that it replaced was 2.1e-11 off there.
SERIES_TOL = 1e-10


class TestDerivativeSeries:
    @settings(max_examples=60, deadline=None)
    @given(q=SERIES_Q, alpha=SERIES_ORDERS, t=SERIES_TS, f=LEFT_OPERANDS,
           m=st.one_of(st.none(), st.integers(0, 5)))
    def test_left_series_match_the_definitions(self, q, alpha, t, f, m):
        # a = 0 (m None) or a = t q**m, including a = t and m < n = ceil(alpha).
        p = QParams(q)
        a = 0.0 if m is None else t * q**m
        got = left_riemann_deriv(f, a, alpha, t, p)
        assert rel_err(got, composed_riemann(f, a, alpha, t, p)) <= SERIES_TOL
        if m is not None or alpha < 1.0:
            got = left_caputo(f, a, alpha, t, p)
            assert rel_err(got, composed_caputo(f, a, alpha, t, p)) <= SERIES_TOL

    @settings(max_examples=60, deadline=None)
    @given(q=SERIES_Q, alpha=SERIES_ORDERS, t=SERIES_TS, f=RIGHT_OPERANDS,
           m=st.one_of(st.none(), st.integers(0, 5)))
    def test_right_series_matches_the_definition(self, q, alpha, t, f, m):
        # b = infinity (m None) or b = t q**-m, including b = t.
        p = QParams(q)
        b = INF if m is None else t / q**m
        got = right_riemann_deriv(f, b, alpha, t, p)
        assert rel_err(got, composed_right_riemann(f, b, alpha, t, p)) <= SERIES_TOL

    # Right Riemann derivatives to b = t q**-m, from a 50-digit evaluation of
    # the definition (-1)**n nabla_q^n I_b^(n-alpha) f(t), with the Jackson
    # sums finite and the kernels exact q-Pochhammer ratios.  The series to
    # b q**-n was within 9.2e-13 of the first and 1.9e-15 of the others; the
    # composition in floats was off by 6.0e-8 and 1.4e-10 on the first two.
    @pytest.mark.parametrize(
        "q, m, f, alpha, t, exact",
        [
            (0.3, 5, lambda s: s * s + 1.0, 2.6, 0.37, 0.04111574072565215237208671732194021723),
            (0.3, 5, lambda s: s * s + 1.0, 1.3, 1.0, 30.34010885726248652353459962381768986),
            (0.5, 2, lambda s: s**-3.0, 0.4, 1.0, 2.613367407299861318505041655659097327),
            (0.8, 1, lambda s: math.exp(-s), 0.9, 0.37, 1.192780833147312497850261205607180461),
        ],
    )
    def test_right_series_to_finite_b_against_exact_values(self, q, m, f, alpha, t, exact):
        got = right_riemann_deriv(f, t / q**m, alpha, t, QParams(q))
        assert abs(got - exact) <= 2e-12 * abs(exact)

    @pytest.mark.parametrize("m", [1, 2])
    def test_right_endpoint_below_point_rejected(self, p_half, m):
        # b = t q**m with m <= n: the series to b q**-n would have n - m terms.
        with pytest.raises(DomainError):
            right_riemann_deriv(lambda s: s**-4.0, 0.5**m, 2.5, 1.0, p_half)

    @settings(max_examples=40, deadline=None)
    @given(q=SERIES_Q, alpha=SERIES_ORDERS, t=SERIES_TS, coeffs=COEFFS,
           ratio=st.floats(0.1, 1.9), m=st.integers(1, 4))
    # Riemann from a > t off the grid: 1.53e-10 off a 60-digit value by the
    # Jackson sum of the kernel, 4.5e-12 by the anchored series.
    @example(q=0.5837667558639746, alpha=2.341388004503047, t=1.0, coeffs=(0.0, 1.0, 0.0),
             ratio=1.4254387110139353, m=1)
    def test_left_power_rule_and_right_composition(self, q, alpha, t, coeffs, ratio, m):
        # Riemann and Caputo from 0, from a = t q**-m above t and from an a
        # off the grid of t are the integral at order -alpha (Caputo of f
        # less its q-Taylor part, whose coefficients from 0 past f(0) are
        # extrapolated toward 0); for a polynomial the q-power rule gives
        # their exact values.  The composition is no reference there: it
        # samples nabla_q^n f toward 0 or, near t, below a (Caputo of
        # s**2 - 0.3 s + 0.5 from a / t = 0.9993, alpha = 1.5, q = 0.5: off
        # by 0.19, the series by 3e-16, against 40 digits), and from 0 or
        # above t it was O(1) wrong at n >= 2.  The right Riemann series to a
        # finite b is within SERIES_TOL of its composition.  On a pole of the
        # kernel both raise PoleError, so the outcomes compare by error type.
        p, f, n = QParams(q), polynomial(coeffs), math.ceil(alpha)
        off_grid = [t * ratio] if _grid_exponent(ratio, q) is None else []
        for a in [0.0, t / q**m] + off_grid:
            assert_near(value_or_error_type(left_riemann_deriv, f, a, alpha, t, p),
                        value_or_error_type(power_rule, coeffs, a, alpha, t, p))
            assert_near(value_or_error_type(left_caputo, f, a, alpha, t, p),
                        value_or_error_type(power_rule, coeffs, a, alpha, t, p, n))
        decay = lambda s: s**-4.0
        got = right_riemann_deriv(decay, t / q**m, alpha, t, p)
        assert rel_err(got, composed_right_riemann(decay, t / q**m, alpha, t, p)) <= SERIES_TOL


def raising_operand(s):
    raise AssertionError(f"sampled at {s}")


def value_or_error_type(route, *args):
    """The route's value, or the type of the error it raised."""
    try:
        return route(*args)
    except QCalculusError as exc:
        return type(exc)


def assert_near(got, want):
    """Two value_or_error_type outcomes: values within SERIES_TOL, or one error type."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert rel_err(got, want) <= SERIES_TOL
