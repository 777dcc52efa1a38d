import math

import pytest

import qfrac.special

from qfrac import (
    DomainError,
    FracOrder,
    QParams,
    Truncation,
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
)

from conftest import rel_err

INF = math.inf

# 1 / q_gamma(1.5) at q = 1/2, frozen from a 50-digit evaluation.
INV_GAMMA_THREE_HALVES = 1.0859231828858144


class TestFracOrder:
    def test_fractional(self):
        o = FracOrder.of(0.5)
        assert (o.alpha, o.n, o.is_integer) == (0.5, 1, False)
        o = FracOrder.of(1.5)
        assert (o.alpha, o.n, o.is_integer) == (1.5, 2, False)

    def test_integer_routes_to_own_order(self):
        o = FracOrder.of(1.0)
        assert (o.n, o.is_integer) == (1, True)
        o = FracOrder.of(2)
        assert (o.n, o.is_integer) == (2, True)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, -2.0])
    def test_rejects_nonpositive(self, alpha):
        with pytest.raises(DomainError):
            FracOrder.of(alpha)

    def test_idempotent(self):
        o = FracOrder.of(0.7)
        assert FracOrder.of(o) is o


class TestRightEndpoint:
    def test_r_coefficient_normalisation(self):
        assert r_coef(1.0, 0.5) == 1.0
        assert r_coef(0.0, 0.5) == 1.0
        assert r_coef(2.0, 0.5) == pytest.approx(2.0)

    def test_nonpositive_endpoint_rejected(self, p_half):
        for b in (0.0, -1.0, -INF, math.nan):
            with pytest.raises(DomainError):
                right_frac_integral(lambda s: s, b, 0.5, 1.0, p_half)


class TestLeftIntegral:
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

    def test_integer_order_left(self, p_half):
        f = lambda s: s * s * s
        got = left_caputo(f, 0.0, 2.0, 1.0, p_half)
        assert got == pytest.approx(nabla_q_n(f, 1.0, 2, p_half))

    def test_integer_order_right(self, p_half):
        f = lambda s: s * s
        got = right_caputo(f, 4.0, 1.0, 1.0, p_half)
        assert got == pytest.approx(-nabla_q(f, 1.0, p_half))

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

    # Values of the Jackson-sum route at parameters whose a is off the grid of
    # t, frozen before the lattice series existed; that route is unchanged.
    @pytest.mark.parametrize(
        "q, alpha, a, t, frozen",
        [
            (0.5, 0.7, 0.3, 1.0, 1.4759167793447419),
            (0.3, 1.7, 0.1, 0.8, 0.7348738573656067),
            (0.9, 0.3, 0.45, 1.0, 1.6663539181422815),
            (0.5, 2.5, 0.15, 0.8, 0.28844528317782286),
        ],
    )
    def test_off_grid_start_keeps_jackson_route(self, q, alpha, a, t, frozen):
        got = left_frac_integral(lambda s: 1.0 + s * s, a, alpha, t, QParams(q))
        assert abs(got - frozen) <= 1e-14 * abs(frozen)
