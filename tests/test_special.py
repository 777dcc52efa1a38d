import decimal
import math
import random
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfrac.special
from qfrac import (
    DomainError,
    MLParams,
    NonConvergence,
    NumericOverflow,
    PoleError,
    QParams,
    Truncation,
    count_terms,
    nabla_q,
    q_bracket,
    q_exp_E,
    q_exp_e,
    q_factorial_power,
    q_gamma,
    q_pochhammer,
)

from conftest import rel_err

# Frozen from an independent 50-digit product evaluation.
GAMMA_HALF_AT_Q_HALF = 1.5720327257863239
EXP_E_HALF_AT_Q_HALF = 1.7313733097275318
EXP_E_QUARTER_AT_Q_HALF = 1.7313733097275318  # e_q(1/2) = E_q(1/4) at q = 1/2


class TestPochhammer:
    def test_values(self, p_half):
        with count_terms() as counter:  # a finite product notes no terms
            assert q_pochhammer(0, p_half) == 1.0
            assert q_pochhammer(1, p_half) == 0.5
            assert q_pochhammer(2, p_half) == 0.375
            assert q_pochhammer(3, p_half) == 0.5 * 0.75 * 0.875
        assert counter.total == 0

    def test_negative_rejected(self, p_half):
        with pytest.raises(DomainError):
            q_pochhammer(-1, p_half)

    @pytest.mark.parametrize("n", [-1, 1.5, math.inf, -math.inf, math.nan])
    def test_domain_error_names_n_and_q(self, n, p_half):
        with pytest.raises(DomainError, match=re.escape(
                f"q_pochhammer: n must be an integer >= 0, got {n!r}")):
            q_pochhammer(n, p_half)

    def test_count_past_the_budget_raises(self):
        # As q_factorial_power(1, q, n) = (q; q)_n does, rather than
        # multiplying 20,000 factors.
        p = QParams(0.5, Truncation(max_terms=10))
        assert q_pochhammer(10, p) == q_factorial_power(1.0, 0.5, 10.0, p)
        with pytest.raises(NonConvergence,
                           match=r"^\(q; q\)_n at n=11, q=0\.5: 11 terms exceed the budget of 10$"):
            q_pochhammer(11, p)
        with pytest.raises(NonConvergence, match="20000 terms exceed the budget of 10000"):
            q_pochhammer(20000, QParams(0.5))


class TestFactorialPower:
    def test_zero_exponent(self, p_half):
        assert q_factorial_power(1.3, 0.4, 0.0, p_half) == 1.0
        assert q_factorial_power(0.0, 0.0, 0.0, p_half) == 1.0

    def test_integer_exponent_matches_direct_product(self, p_half):
        # (1 - 0.5)(1 - 0.25) with t=1, s=1/2, q=1/2.
        got = q_factorial_power(1.0, 0.5, 2.0, p_half)
        assert got == pytest.approx((1.0 - 0.5) * (1.0 - 0.25), rel=1e-15)
        assert got == pytest.approx(0.375)

    def test_integer_exponent_generic_arguments(self):
        p = QParams(0.3)
        t, s = 1.7, 0.9
        direct = (t - s) * (t - 0.3 * s) * (t - 0.09 * s)
        assert q_factorial_power(t, s, 3.0, p) == pytest.approx(direct, rel=1e-14)
        # (1e200 - 1)(1e200 - 0.5) leaves the range of a double.
        with pytest.raises(NumericOverflow, match=r"t=1e\+200, s=1\.0, alpha=2\.0, q=0\.5: "
                                                  r"product overflowed"):
            q_factorial_power(1e200, 1.0, 2.0, QParams(0.5))

    def test_integer_exponent_takes_its_factors_from_q_product(self, monkeypatch):
        calls = []
        inner = qfrac.special._q_product

        def spy(c, p, where, count=None, *rest):
            calls.append(count)
            value = inner(c, p, where, count, *rest)
            assert math.isfinite(value)
            return value

        monkeypatch.setattr(qfrac.special, "_q_product", spy)
        q_factorial_power(1.7, 0.9, 3.0, QParams(0.3))
        assert calls == [3]

    @pytest.mark.parametrize("t, s", [(-1.7, 0.9), (1.7, -0.9), (-1.7, -0.9), (0.9, 1.7),
                                      (-0.9, -1.7), (0.4, -3.1), (-0.4, 3.1), (1e-200, 1e-100)],
                             ids=["t<0", "s<0", "both<0", "u>1", "both<0,u>1", "s<0,u<-1",
                                  "t<0,u<-1", "tiny-t"])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_integer_exponent_off_the_grid(self, t, s, m):
        # prod (t - q**i s); at t = 1e-200, s = 1e-100 the factors
        # t - q**i s stay in range while t**m alone underflows.
        p = QParams(0.3)
        direct = math.prod(t - 0.3**i * s for i in range(m))
        assert q_factorial_power(t, s, float(m), p) == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("q, t, s, m", [
        # (q**-600; q)_2 overflows while t**2 underflows; their product is
        # prod (t - q**i s) = 8.6e-40.
        (0.5, 1e-200, 1e-200 * 2.0**600, 2),
        # t**100 overflows while (q; q)_100 is 1e-142: the value is 8.0e256.
        (0.999, 1e4, 1e4 * 0.999, 100),
        # (q**600; q)_2 is 1 while t**2 overflows: the value does too.
        (0.5, 1e200, 1e200 * 2.0**-600, 2),
    ], ids=["over-under", "power-over", "value-over"])
    def test_integer_exponent_on_the_grid_out_of_range_apart(self, q, t, s, m):
        want = math.prod(t - q**i * s for i in range(m))
        if math.isinf(want):
            with pytest.raises(NumericOverflow, match=r"alpha=2\.0, q=0\.5: product overflowed$"):
                q_factorial_power(t, s, float(m), QParams(q))
        else:
            # At q = 0.999 the factors t - q**i s cancel: the two products
            # differ by 5e-13.
            assert q_factorial_power(t, s, float(m), QParams(q)) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("t, d, m", [(2.0, 3, 3), (0.7, 1, 2), (1.3, -2, 2), (5.0, 4, 6)])
    def test_integer_exponent_on_the_grid_keeps_its_bits(self, t, d, m):
        # In range, the value is t**m (q**d; q)_m as its two factors give it.
        p = QParams(0.5)
        product, c = 1.0, 0.5**d
        for _ in range(m):
            product *= 1.0 - c
            c *= 0.5
        assert q_factorial_power(t, t * 0.5**d, float(m), p) == product * t**m

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("t", [0.0, 1.0, -2.0])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_integer_exponent_rejects_a_non_finite_s(self, t, s, alpha):
        with pytest.raises(DomainError, match=re.escape(
                f"q_factorial_power: s must be finite, got {s!r}")):
            q_factorial_power(t, s, alpha, QParams(0.5))

    def test_zero_subtrahend_gives_plain_power(self, p_half):
        assert q_factorial_power(2.0, 0.0, 0.7, p_half) == pytest.approx(2.0**0.7)
        assert q_factorial_power(0.25, 0.0, -0.3, p_half) == pytest.approx(0.25**-0.3)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_vanishes_identically_above_the_grid(self, q):
        # (t - r)_q^m == 0 exactly for r = t q^-j, j >= 1, integer m > j.
        p = QParams(q)
        for j in (1, 2, 4):
            r = 1.0 / q**j
            for m in (j + 1, j + 3):
                # The j factors before the vanishing one are negative.
                got = q_factorial_power(1.0, r, float(m), p)
                assert got == 0.0 and math.copysign(1.0, got) == (-1.0) ** j
            # The fractional branch vanishes there as well.
            assert q_factorial_power(1.0, r, 0.7, p) == 0.0
        assert q_factorial_power(1.0, 1.0, 0.7, p) == 0.0

    def test_integer_exponent_below_grid_distance_is_nonzero(self, p_half):
        # m <= j keeps all factors away from zero.
        assert q_factorial_power(1.0, 4.0, 1.0, p_half) != 0.0
        assert q_factorial_power(1.0, 4.0, 2.0, p_half) != 0.0

    def test_zero_base_with_nonzero_subtrahend_rejected(self, p_half):
        with pytest.raises(DomainError, match=re.escape(
                "(t - s)_q^alpha at t=0.0, s=0.5, alpha=0.7, q=0.5: "
                "a non-integer alpha requires t != 0 (or s = 0)")):
            q_factorial_power(0.0, 0.5, 0.7, p_half)

    def test_negative_base_fractional_rejected(self, p_half):
        with pytest.raises(DomainError, match=re.escape(
                "(t - s)_q^alpha at t=-1.0, s=0.5, alpha=0.7, q=0.5: "
                "a fractional q-factorial power needs t > 0")):
            q_factorial_power(-1.0, 0.5, 0.7, p_half)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_names_its_arguments(self, alpha, p_half):
        with pytest.raises(DomainError, match=re.escape(
                f"q_factorial_power: alpha must be finite, got {alpha!r}")):
            q_factorial_power(1.0, 0.5, alpha, p_half)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("alpha", [0.0, 2.0, 0.5])
    def test_non_finite_base_is_rejected_before_any_factor(self, t, alpha, p_half,
                                                             monkeypatch):
        # At alpha = 2 the factors of t = nan or inf made a product that
        # "overflowed", and at 0.5 t = inf made a value that did.
        calls = []
        for name in ("_q_product", "_power", "_pochhammer_tail"):
            monkeypatch.setattr(qfrac.special, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(DomainError, match=re.escape(
                f"q_factorial_power: t must be finite, got {t!r}")):
            q_factorial_power(t, 0.5, alpha, p_half)
        assert calls == []

    def test_zero_base_integer_exponent(self, p_half):
        # prod_i (0 - q^i s) = (-s)^m q^(m(m-1)/2)
        got = q_factorial_power(0.0, 2.0, 2.0, p_half)
        assert got == pytest.approx((-2.0) ** 2 * 0.5)

    def test_negative_integer_exponent_reciprocal_identity(self, p_half):
        # (t-s)_q^{-m} (t - q^{-m} s)_q^m = (t-s)_q^0 = 1 at pole-free points.
        t, s, m = 1.0, 0.5**4, 2
        lhs = q_factorial_power(t, s, -float(m), p_half)
        rhs = q_factorial_power(t, 0.5 ** (-m) * s, float(m), p_half)
        assert lhs * rhs == pytest.approx(1.0, rel=1e-10)

    def test_negative_integer_exponent_pole_on_grid(self, p_half):
        # s = t q^-1 with exponent -2: a denominator factor hits zero.
        with pytest.raises(PoleError, match=re.escape(
                "(t - s)_q^alpha at t=1.0, s=2.0, alpha=-2.0, q=0.5: "
                "a vanishing denominator at s = t q**-1")):
            q_factorial_power(1.0, 2.0, -2.0, p_half)
        with pytest.raises(PoleError):
            q_factorial_power(1.0, 1.0, -1.0, p_half)

    @pytest.mark.parametrize("toward", [0.0, -10.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_order_one_ulp_from_grid_pole(self, d, toward):
        # 1 - q**(d + alpha) rounds to 0 at q = 0.9; above or below -d the
        # zero sits in the tail product or in the snapped factor stream.
        alpha = math.nextafter(-float(d), toward)
        with pytest.raises(PoleError, match=rf"alpha={alpha!r}, q=0\.9"):
            q_factorial_power(1.0, 0.9**d, alpha, QParams(0.9))

    @pytest.mark.parametrize("s", [0.5, 0.37])
    def test_integer_order_beyond_budget_is_nonconvergence(self, s):
        # Both product loops (s on and off the grid of t) stop at the budget
        # instead of multiplying alpha factors.
        p = QParams(0.5, Truncation(max_terms=10))
        assert q_factorial_power(1.0, s, 10.0, p) > 0.0
        with pytest.raises(NonConvergence) as info:
            q_factorial_power(1.0, s, 11.0, p)
        for name in ("t=1.0", f"s={s}", "alpha=11.0", "q=0.5"):
            assert name in str(info.value)
        with pytest.raises(NonConvergence):
            q_factorial_power(1.0, s, 3e9, QParams(0.5))

    @pytest.mark.parametrize("j", [0, 2])
    def test_off_grid_denominator_on_a_pole(self, j):
        # u q**alpha = q**-j: factor j of the off-grid denominator vanishes to
        # within the rounding of alpha.
        q, u = 0.5, 0.7
        alpha = math.log(q**-j / u) / math.log(q)
        with pytest.raises(PoleError, match="denominator vanished"):
            q_factorial_power(1.0, u, alpha, QParams(q))
        with pytest.raises(PoleError, match=re.escape(f"alpha={alpha!r}, q=0.5: ")):
            q_factorial_power(1.0, u, alpha, QParams(q))

    def test_far_above_the_grid(self):
        # s/t = 1e6: each product of the ratio overflows on its own, the
        # ratio does not (40-digit value of the definition).
        got = q_factorial_power(1.0, 1e6 + 0.3, 0.5, QParams(0.9))
        assert abs(got + 423.7187376674178176837417742147015516) <= 1e-12 * 423.72
        # At alpha = 200.5 the value itself, about e**900, leaves the range.
        with pytest.raises(NumericOverflow, match="alpha=200.5"):
            q_factorial_power(1.0, 1e6 + 0.3, 200.5, QParams(0.9))
        with pytest.raises(DomainError, match="s must be finite, got inf"):
            q_factorial_power(1.0, math.inf, 0.5, QParams(0.9))

    def test_ratio_prefix_beyond_budget_is_nonconvergence(self):
        # The factors with |s/t q**j| > 1 number log(s/t) / -log q, known
        # before the loop: about 6.9 million here, against a budget of 10,000.
        with pytest.raises(NonConvergence) as info:
            q_factorial_power(1.0, 1e300, 0.5, QParams(0.9999))
        for name in ("t=1.0", "s=1e+300", "alpha=0.5", "q=0.9999"):
            assert name in str(info.value)
        # At q = 0.5 they number 996.6: a budget of 1,000 takes them, 996 does not.
        within = QParams(0.5, Truncation(max_terms=1000))
        assert math.isfinite(q_factorial_power(1.0, 1e300, 0.5, within))
        with pytest.raises(NonConvergence):
            q_factorial_power(1.0, 1e300, 0.5, QParams(0.5, Truncation(max_terms=996)))

    def test_snapped_denominator_overflow_is_numeric_overflow(self, p_half):
        # s = t q: the denominator (q**(1 + alpha); q)_inf starts at 2**1999.5.
        with pytest.raises(NumericOverflow, match="x=-1999.5"):
            q_factorial_power(1.0, 0.5, -2000.5, p_half)
        # Off the grid (s = 0.3 t) its first factor 0.3 q**alpha overflows.
        with pytest.raises(NumericOverflow, match=r"t=1\.0, s=0\.3, alpha=-1100\.5, q=0\.5"):
            q_factorial_power(1.0, 0.3, -1100.5, p_half)

    def test_fractional_matches_integer_route(self):
        # Lemma-style split consistency: alpha = 2 via the ratio product.
        p = QParams(0.3)
        t, s = 1.0, 0.3**2
        finite = q_factorial_power(t, s, 2.0, p)
        split = q_factorial_power(t, s, 0.8, p) * q_factorial_power(
            t, 0.3**0.8 * s, 1.2, p
        )
        assert rel_err(finite, split) < 1e-10


class TestGamma:
    def test_at_one(self, p_half):
        assert q_gamma(1.0, p_half) == pytest.approx(1.0, rel=1e-13)

    def test_at_three(self, p_half):
        # Two recurrence steps: [2]_q [1]_q = 1 + q.
        assert q_gamma(3.0, p_half) == pytest.approx(1.5, rel=1e-12)

    def test_regression_value_against_independent_product(self, p_half):
        got = q_gamma(0.5, p_half)
        assert rel_err(got, GAMMA_HALF_AT_Q_HALF) < 1e-12
        # Independent oracle: direct product loop at ten times more factors
        # than the stopping rule would take.
        q = 0.5
        product = 1.0
        for i in range(500):
            product *= (1.0 - q ** (i + 1)) / (1.0 - q ** (i + 0.5))
        oracle = (1.0 - q) ** 0.5 * product
        assert rel_err(got, oracle) < 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.7, 2.4])
    def test_recurrence(self, q, alpha):
        p = QParams(q)
        lhs = q_gamma(alpha + 1.0, p)
        rhs = q_bracket(alpha, p) * q_gamma(alpha, p)
        assert rel_err(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -2.0])
    def test_poles(self, alpha, p_half):
        with pytest.raises(PoleError, match=re.escape(
                f"q_gamma at alpha={alpha!r}, q=0.5: q_gamma has a pole there")):
            q_gamma(alpha, p_half)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_names_alpha_and_q(self, alpha, p_half):
        with pytest.raises(DomainError, match=re.escape(
                f"q_gamma: alpha must be finite, got {alpha!r}")):
            q_gamma(alpha, p_half)

    @pytest.mark.parametrize("alpha", [1e-17, 1e-320, 5e-324, -1e-17])
    def test_pole_within_float_resolution(self, alpha, p_half):
        # q**alpha rounds to 1, so (q**alpha; q)_inf or the shift divisor is 0.
        with pytest.raises(PoleError, match=rf"alpha={alpha!r}, q=0\.5"):
            q_gamma(alpha, p_half)

    @pytest.mark.parametrize(("q", "low"), [(0.999, "0.0"), (0.9978, "1.69484e-319")])
    def test_underflow_near_q_one_is_numeric_overflow(self, q, low):
        # q_gamma(2.5) divides (q; q)_inf by (q**2.5; q)_inf, which fall like
        # exp(-pi**2 / (6 (1 - q))): at q = 0.999 both underflow to 0, and at
        # q = 0.9978 to subnormals, while no factor is 0.  That is no pole:
        # the first raised PoleError, the second returned 22.04 for 1.3288.
        p = QParams(q, Truncation(max_terms=10**6))
        with pytest.raises(NumericOverflow, match=(
                rf"^\(q\*\*x; q\)_inf at x=2\.5, q={q!r}: the product underflowed to {low}$")):
            q_gamma(2.5, p)

    def test_shift_beyond_budget_is_nonconvergence(self):
        # The shift takes one step per unit; it used to run a billion steps.
        with pytest.raises(NonConvergence, match=r"alpha=-999999999\.5, q=0\.999"):
            q_gamma(-1e9 + 0.5, QParams(0.999))

    def test_shift_overflow_is_numeric_overflow(self, p_half):
        with pytest.raises(NumericOverflow, match=r"alpha=-2000\.5, q=0\.5"):
            q_gamma(-2000.5, p_half)

    def test_negative_noninteger_through_recurrence(self, p_half):
        got = q_gamma(-0.5, p_half)
        expected = q_gamma(0.5, p_half) / q_bracket(-0.5, p_half)
        assert rel_err(got, expected) < 1e-12


class TestExponentials:
    def test_small_exp_at_zero(self, p_half):
        assert q_exp_e(0.0, p_half) == 1.0

    def test_small_exp_regression(self, p_half):
        got = q_exp_e(0.5, p_half)
        assert rel_err(got, EXP_E_HALF_AT_Q_HALF) < 1e-12
        # Independent oracle: explicit partial sums of t^k / [k]_q!.
        total, term, k = 0.0, 1.0, 0
        while abs(term) > 1e-17:
            total += term
            k += 1
            term *= 0.5 * (1.0 - 0.5) / (1.0 - 0.5**k)
        assert rel_err(got, total) < 1e-13

    def test_small_exp_divergence_detected(self, p_half):
        # Radius is 1 / (1 - q) = 2.
        from qfrac import NonConvergence

        with pytest.raises(NonConvergence):
            q_exp_e(3.0, p_half)

    def test_big_exp_at_zero(self, p_half):
        assert q_exp_E(0.0, p_half) == 1.0

    def test_big_exp_regression_and_series_oracle(self, p_half):
        got = q_exp_E(0.25, p_half)
        assert rel_err(got, EXP_E_QUARTER_AT_Q_HALF) < 1e-12
        # Cross-check the product form against the series sum t^n / (q)_n.
        total, term, n = 0.0, 1.0, 0
        while abs(term) > 1e-16:
            total += term
            n += 1
            term *= 0.25 / (1.0 - 0.5**n)
        assert rel_err(got, total) < 1e-10

    @pytest.mark.parametrize("t", [1.0, -1.0, 1.5])
    def test_big_exp_domain(self, t, p_half):
        with pytest.raises(DomainError, match=re.escape(
                f"q_exp_E: t must be in (-1, 1), got {t!r}")):
            q_exp_E(t, p_half)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_exponential_identity(self, q, t):
        p = QParams(q)
        assert rel_err(q_exp_e(t, p), q_exp_E((1.0 - q) * t, p)) < 1e-10


class TestFactorialLemma:
    """The four algebraic properties of the q-factorial power."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_split(self, q):
        p = QParams(q)
        for m in range(1, 6):
            s = q**m
            for beta, gam in ((0.45, 0.85), (-0.65, 1.35), (1.25, -0.55)):
                lhs = q_factorial_power(1.0, s, beta + gam, p)
                rhs = q_factorial_power(1.0, s, beta, p) * q_factorial_power(
                    1.0, q**beta * s, gam, p
                )
                assert rel_err(lhs, rhs) < 1e-9

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_homogeneity(self, q):
        p = QParams(q)
        for scale in (q * q, q, 2.0):
            for beta in (0.45, -0.65, 2.3):
                lhs = q_factorial_power(scale, scale * q**2, beta, p)
                rhs = scale**beta * q_factorial_power(1.0, q**2, beta, p)
                assert rel_err(lhs, rhs) < 1e-9

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_derivative_in_first_argument(self, q):
        p = QParams(q)
        for m in (1, 3):
            s = q**m
            for alpha in (0.45, 1.35, 2.15):
                lhs = nabla_q(lambda x: q_factorial_power(x, s, alpha, p), 1.0, p)
                rhs = q_bracket(alpha, p) * q_factorial_power(1.0, s, alpha - 1.0, p)
                assert rel_err(lhs, rhs) < 1e-9

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_derivative_in_second_argument(self, q):
        p = QParams(q)
        for m in (1, 3):
            s = q**m
            for alpha in (0.45, 1.35, 2.15):
                lhs = nabla_q(lambda x: q_factorial_power(1.0, x, alpha, p), s, p)
                rhs = -q_bracket(alpha, p) * q_factorial_power(
                    1.0, q * s, alpha - 1.0, p
                )
                assert rel_err(lhs, rhs) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(min_value=0.2, max_value=0.9),
    scale=st.floats(min_value=0.1, max_value=3.0),
    beta=st.floats(min_value=-1.4, max_value=2.4).filter(
        lambda x: abs(x - round(x)) > 0.1
    ),
    m=st.integers(min_value=1, max_value=5),
)
def test_scaling_property(q, scale, beta, m):
    p = QParams(q)
    t, s = 1.0, q**m
    lhs = q_factorial_power(scale * t, scale * s, beta, p)
    rhs = scale**beta * q_factorial_power(t, s, beta, p)
    assert rel_err(lhs, rhs) < 1e-9


def test_concurrent_evaluation_is_consistent():
    # The memoised tail products must be transparent under parallel access.
    import threading

    from qfrac.special import _TAIL_CACHE

    p = QParams(0.77)
    _TAIL_CACHE.clear()
    results = [None] * 8

    def worker(slot):
        results[slot] = [q_gamma(0.5 + 0.1 * k, p) for k in range(20)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    serial = [q_gamma(0.5 + 0.1 * k, p) for k in range(20)]
    assert all(r == serial for r in results)


def test_tail_cache_is_bounded():
    # More distinct q_gamma arguments than the cache keeps: it starts over
    # instead of growing, and values match a cold computation.
    from qfrac import special

    p = QParams(0.6)
    alphas = [0.5 + k / 8192.0 for k in range(4200)]
    special._TAIL_CACHE.clear()
    warm = [q_gamma(alpha, p) for alpha in alphas]
    assert len(special._TAIL_CACHE) <= 4096
    for alpha, value in list(zip(alphas, warm))[::300]:
        special._TAIL_CACHE.clear()
        assert q_gamma(alpha, p) == value
        assert q_gamma(alpha, p) == value  # served from the cache


# 40-digit evaluations (mpmath) of the defining products (c; q)_inf at these
# double arguments and q = 0.9.  Dropping the products' tails left errors up
# to 7e-12; closed, every one is within 1e-13.
CLOSED_TAIL_VALUES = [
    (q_gamma, (0.3,), 2.900210909023131012215910735685928283),
    (q_gamma, (1.7,), 0.9135840865056117479846376692334107496),
    (q_gamma, (4.2,), 6.483772811335001178691860470545106255),
    (q_gamma, (-0.6,), -3.315159330518250833858305261534416188),
    # (t - s)_q^alpha off the grid of t ...
    (q_factorial_power, (1.3, 0.47, 0.63), 0.8831266841169200493812724476171958724),
    (q_factorial_power, (0.8, 0.61, 2.2), 0.03710891755936692281114283531597199328),
    (q_factorial_power, (1.0, 0.37, -0.45), 1.257613972057434119792958177826279972),
    # ... and on it, s = t q**d, the last two with d + alpha <= 0.
    (q_factorial_power, (1.0, 0.9**2, 0.63), 0.3339143343447536551046636833237375473),
    (q_factorial_power, (1.0, 0.9, -1.4), -85.64498502484615717192198575659172166),
    (q_factorial_power, (1.0, 0.9**2, -2.7), -1899.066215113781730475784266645128336),
    (q_exp_E, (0.9,), 777564.2033595849334620768527328384666),
    (q_exp_E, (-0.9,), 0.0005733390599864219617738197393204639325),
]


@pytest.mark.parametrize("func, args, want", CLOSED_TAIL_VALUES)
def test_products_close_their_tails(func, args, want):
    got = func(*args, QParams(0.9))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_tail_memo_replays_term_counts():
    from qfrac import special

    p = QParams(0.9)
    special._TAIL_CACHE.clear()
    counts = []
    for _ in range(2):  # cold, then warm
        with count_terms() as counter:
            q_gamma(0.3, p)
        counts.append(counter.total)
    assert (0.9, 0.3, p.trunc.max_terms) in special._TAIL_CACHE
    assert counts[0] == counts[1] > 0


def test_short_tails_skip_the_cache():
    # A q-Mittag-Leffler series cut after 40 terms takes one tail per term,
    # (q**(k+1); q)_inf at alpha = beta = 1.  Those with q**x at most
    # x_q = 2**-27 (1 - q) sqrt((1 + q) / q) (x = 27 to 40) are their closed
    # tail alone, cheaper than an entry, and are not stored (x = 39, 40 when
    # products ran to rel_tol); the tails q_gamma stored stay in place.
    from qfrac import special
    from qfrac.ivp import _ZeroHead

    p = QParams(0.4921875)
    special._TAIL_CACHE.clear()
    q_gamma(0.37, p)
    assert len(special._TAIL_CACHE) == 2
    _ZeroHead(MLParams(1.0, 1.0, -1.40625), p).cut(1.390625, 40)
    assert len(special._TAIL_CACHE) == 27
    assert (p.q, 0.37, p.trunc.max_terms) in special._TAIL_CACHE
    assert (p.q, 26.0, p.trunc.max_terms) in special._TAIL_CACHE
    assert (p.q, 27.0, p.trunc.max_terms) not in special._TAIL_CACHE


# Products and e_q stop where their rest is provably below rounding, so they
# read no rel_tol; a decimal reference at 50 digits, sharing no code with
# them, judges them in units of eps = 2**-52.
_EPS = 2.0**-52
_DIGITS = decimal.Context(prec=50)


def decimal_product(c, q) -> Decimal:
    """(c; q)_inf at 50 digits from the float (or Decimal) arguments: the
    factors 1 - c q**j while |c q**j| >= 1e-45."""
    with decimal.localcontext(_DIGITS):
        c, q, product = Decimal(c), Decimal(q), Decimal(1)
        while abs(c) >= Decimal("1e-45"):
            product *= 1 - c
            c *= q
        return product


def decimal_gamma(x: float, q: float) -> Decimal:
    """(1 - q)**(1 - x) (q; q)_inf / (q**x; q)_inf at 45 digits or better."""
    with decimal.localcontext(_DIGITS):
        qd, xd = Decimal(q), Decimal(x)
        return (1 - qd) ** (1 - xd) * decimal_product(qd, qd) / decimal_product(qd**xd, qd)


def eps_off(got: float, want: Decimal) -> float:
    return float(abs((Decimal(got) - want) / want)) / _EPS


# The worst of 200 seeded c in [-1, 1) at each q, in eps: 3.4, 4.2, 6.8 and
# 16.2 (3.8, 4.4, 10.5 and 15.5 when products ran to rel_tol).  The closed
# tail is exact to about 2**-54; the rest is the rounding of the factors.
@pytest.mark.parametrize(("q", "bound"), [(0.3, 4.0), (0.5, 5.0), (0.7, 8.0), (0.9, 20.0)])
def test_products_meet_a_decimal_product(q, bound):
    rng = random.Random(f"product:{q}")
    p = QParams(q)
    worst = max(eps_off(qfrac.special._q_product(c, p, ("(c; q)_inf",)), decimal_product(c, q))
                for c in (rng.uniform(-1.0, 1.0) for _ in range(200)))
    assert worst <= bound


# e_q(t) = 1 / (z; q)_inf, z = (1 - q) t: the worst of 200 seeded z in
# (-0.7, 0.7) at each q, in eps: 1.4, 1.4 and 16.6 (6.8, 34.3 and 138.2 under
# the stopping rule).  At q = 0.7 the terms at z near -0.7 alternate, and
# their sum is about 100 times smaller than the sum of their sizes.
@pytest.mark.parametrize(("q", "bound"), [(0.3, 2.0), (0.5, 2.0), (0.7, 20.0)])
def test_small_exp_meets_the_product_form(q, bound):
    rng = random.Random(f"e_q:{q}")
    p = QParams(q)
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(-0.7, 0.7) / (1.0 - q)
        with decimal.localcontext(_DIGITS):
            want = 1 / decimal_product((1.0 - q) * t, q)
        worst = max(worst, eps_off(q_exp_e(t, p), want))
    assert worst <= bound


@pytest.mark.parametrize("alpha", [3e-16, -2.0 + 1e-11, -1.0 + 1e-9, 2e-8])
def test_gamma_next_to_a_pole_keeps_its_digits(alpha):
    # 1 - q**x by expm1 in the shift factors and in the tail's first factor:
    # within 1.04 eps of 45 digits, where the subtraction was 6.35e-2,
    # 2.45e-6, 6.58e-8 and 3.99e-9 off (q_gamma(3e-16) read 2**51).
    assert eps_off(q_gamma(alpha, QParams(0.5)), decimal_gamma(alpha, 0.5)) <= 2.0


def test_factorial_power_next_to_a_grid_pole_keeps_its_digits():
    # s = t q: the power divides by (q**(1 + alpha); q)_inf, whose first
    # factor is 1 - q**1e-10 at alpha = -1 + 1e-10 (7.6e-7 off by
    # subtraction; measured 5.4e-16 with expm1).
    alpha = -1.0 + 1e-10
    with decimal.localcontext(_DIGITS):
        q = Decimal(0.5)
        want = decimal_product(q, q) / decimal_product(q ** (1 + Decimal(alpha)), q)
    assert eps_off(q_factorial_power(1.0, 0.5, alpha, QParams(0.5)), want) <= 4.0


def test_tail_at_a_small_argument_keeps_its_digits():
    # (q**1e-5; q)_inf at q = 0.5: 5.6e-12 off by subtraction.
    qfrac.special._TAIL_CACHE.clear()
    got = qfrac.special._pochhammer_tail(1e-5, QParams(0.5))
    with decimal.localcontext(_DIGITS):
        want = decimal_product(Decimal(0.5) ** Decimal(1e-5), 0.5)
    assert eps_off(got, want) <= 2.0


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_exact_work_reads_no_rel_tol(q):
    loose, tight = QParams(q, Truncation(1e-6)), QParams(q, Truncation(1e-14))
    for x in (0.37, 1.0, 2.5, -1.6):
        gammas = []
        for p in (loose, tight):  # each from fresh tails, not from the other's
            qfrac.special._TAIL_CACHE.clear()
            gammas.append(q_gamma(x, p))
        assert gammas[0] == gammas[1]
    for t in (-0.6, -0.2, 0.3, 0.7):
        assert q_exp_e(t / (1.0 - q), loose) == q_exp_e(t / (1.0 - q), tight)
        assert q_exp_E(t, loose) == q_exp_E(t, tight)


class TestSmallExpLength:
    """e_q is one cut sum whose length z = (1 - q) t and q set before any
    term (see special.q_exp_e)."""

    @pytest.mark.parametrize("t", [2.0, -2.0, 1e308, math.inf, math.nan])
    def test_outside_the_disc_raises_before_any_term(self, t, p_half):
        # A finite t outside the disc is a divergent series; one that is not
        # finite is outside the domain.
        if math.isfinite(t):
            error, message = NonConvergence, (f"e_q series at t={t!r}, q=0.5: |(1-q) t| = "
                                              f"{abs(0.5 * t)!r} is not below 1, "
                                              f"so the series diverges")
        else:
            error, message = DomainError, f"q_exp_e: t must be finite, got {t!r}"
        with count_terms() as counter:
            with pytest.raises(error, match=re.escape(message)):
                q_exp_e(t, p_half)
        assert counter.total == 0

    def test_zero_takes_no_term(self, p_half):
        with count_terms() as counter:
            assert q_exp_e(0.0, p_half) == q_exp_e(-0.0, p_half) == 1.0
        assert counter.total == 0

    def test_hump_of_positive_terms_is_summed(self):
        # z = 0.8 at q = 0.9: the terms rise from 1 to about 3.9e3 before they
        # fall, which the stopping rule's growth watch took for divergence.
        # They are positive, so nothing cancels; each carries the rounding
        # of the running product that forms it (measured 14.9 eps in all).
        p = QParams(0.9)
        with decimal.localcontext(_DIGITS):
            want = 1 / decimal_product((1.0 - 0.9) * 8.0, 0.9)
        assert eps_off(q_exp_e(8.0, p), want) <= 20.0

    def test_alternating_hump_raises(self):
        with pytest.raises(NonConvergence, match=re.escape(
                "e_q series at t=-8.0, q=0.9: the series converges (|(1-q) t| = "
                "0.7999999999999998 < 1), but its alternating terms grew past the growth "
                "watch, so a term-wise sum would cancel their digits")):
            q_exp_e(-8.0, QParams(0.9))

    def test_budget_below_the_length_raises_before_any_term(self):
        # At q = 0.5, z = 0.25 the sum takes T_0 to T_20 and the rest.
        with count_terms() as counter:
            assert q_exp_e(0.5, QParams(0.5)) == pytest.approx(EXP_E_HALF_AT_Q_HALF, rel=1e-15)
        assert counter.total == 22
        with count_terms() as counter:
            with pytest.raises(NonConvergence, match=re.escape(
                    "e_q series at t=0.5, q=0.5: 22 terms exceed the budget of 21")):
                q_exp_e(0.5, QParams(0.5, Truncation(max_terms=21)))
        assert counter.total == 0
