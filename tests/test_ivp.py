import math
import sys
import threading
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfrac.ivp
import qfrac.special
from qfrac import (
    DomainError,
    IVProblem,
    MLParams,
    NonConvergence,
    QCalculusError,
    QParams,
    Truncation,
    count_terms,
    ivp_residual,
    left_frac_integral,
    q_exp_e,
    q_factorial_power,
    q_gamma,
    q_integral,
    q_mittag_leffler,
    right_frac_integral,
    solve_ivp_closed,
    solve_ivp_picard,
)

from conftest import rel_err

# alpha=0.9, beta=1, lam=0.3, z=1, z0=q^4, q=1/2; frozen from a 50-digit run.
ML_REGRESSION = 1.3634725967451728


class TestMLParams:
    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_alpha_positive(self, alpha):
        with pytest.raises(DomainError):
            MLParams(alpha)

    def test_negative_origin_rejected(self):
        with pytest.raises(DomainError):
            MLParams(0.9, z0=-1.0)


class TestMittagLeffler:
    def test_zero_rate_collapses_to_leading_term(self, p_half):
        for beta in (1.0, 1.3, 2.0):
            got = q_mittag_leffler(MLParams(0.9, beta, 0.0, 0.0), 1.0, p_half)
            assert rel_err(got, 1.0 / q_gamma(beta, p_half)) < 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_reduces_to_small_exponential(self, q):
        p = QParams(q)
        for lam in (0.5, -0.5):
            for z in (q, 1.0):
                got = q_mittag_leffler(MLParams(1.0, 1.0, lam, 0.0), z, p)
                assert rel_err(got, q_exp_e(lam * z, p)) < 1e-10

    def test_regression_value(self, p_half):
        mp = MLParams(0.9, 1.0, 0.3, 0.5**4)
        got = q_mittag_leffler(mp, 1.0, p_half)
        assert rel_err(got, ML_REGRESSION) < 1e-12
        # Independent partial-sum oracle over the same primitives.
        total = 0.0
        for k in range(80):
            total += (
                0.3**k
                * q_factorial_power(1.0, 0.5**4, 0.9 * k, p_half)
                / q_gamma(0.9 * k + 1.0, p_half)
            )
        assert rel_err(got, total) < 1e-13

    def test_vanishing_powers_below_origin(self, p_half):
        # Aligned z below z0 kills every k >= 1 term exactly.
        mp = MLParams(0.9, 1.0, 0.3, 0.5**2)
        assert q_mittag_leffler(mp, 0.5**4, p_half) == 1.0


class TestProblemTypes:
    @pytest.mark.parametrize("alpha", [0.0, 1.2, -0.3])
    def test_order_range(self, alpha):
        with pytest.raises(DomainError):
            IVProblem(alpha, 0.3, 0.0, 1.0)

    def test_negative_base_rejected(self):
        with pytest.raises(DomainError):
            IVProblem(0.9, 0.3, -1.0, 1.0)


class TestClosedForm:
    def test_unforced_zero_rate_is_constant(self, p_half):
        y = solve_ivp_closed(IVProblem(0.7, 0.0, 0.5**4, 2.5), p_half)
        for t in (0.5**4, 0.25, 1.0):
            assert y(t) == pytest.approx(2.5, rel=1e-12)

    def test_initial_value_is_exact(self, p_half):
        a = 0.5**4
        y = solve_ivp_closed(IVProblem(0.9, 0.3, a, 1.0), p_half)
        assert y(a) == 1.0

    def test_unforced_solution_is_scaled_kernel(self, p_half):
        a = 0.5**4
        prob = IVProblem(0.9, 0.3, a, 2.0)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.25, 1.0):
            expected = 2.0 * q_mittag_leffler(MLParams(0.9, 1.0, 0.3, a), t, p_half)
            assert rel_err(y(t), expected) < 1e-12

    def test_order_one_unit_rate_from_origin_is_small_exp(self, p_half):
        y = solve_ivp_closed(IVProblem(1.0, 1.0, 0.0, 1.0), p_half)
        for t in (0.5**3, 0.25, 0.5, 1.0):
            assert rel_err(y(t), q_exp_e(t, p_half)) < 1e-8

    def test_method_tag_and_diagnostics(self, p_half):
        y = solve_ivp_closed(IVProblem(0.9, 0.3, 0.0, 1.0), p_half)
        y(1.0)
        assert y.method == "closed-form"
        assert y.diagnostics["evaluations"] >= 1


class TestPicard:
    def test_zero_iterations_is_initial_constant(self, p_half):
        y = solve_ivp_picard(IVProblem(0.9, 0.3, 0.0, 4.0), 0, p_half)
        for t in (0.25, 1.0):
            assert y(t) == 4.0
        assert y.diagnostics["iterations"] == 0

    def test_single_step_formula(self, p_half):
        # a0 (1 + lam (t - a)_q^alpha / q_gamma(alpha + 1))
        a, alpha, lam, a0 = 0.5**4, 0.9, 0.3, 2.0
        y = solve_ivp_picard(IVProblem(alpha, lam, a, a0), 1, p_half)
        for t in (0.25, 1.0):
            expected = a0 * (
                1.0
                + lam
                * q_factorial_power(t, a, alpha, p_half)
                / q_gamma(alpha + 1.0, p_half)
            )
            assert rel_err(y(t), expected) < 1e-9

    def test_converges_to_closed_form(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        closed = solve_ivp_closed(prob, p_half)
        picard = solve_ivp_picard(prob, 25, p_half)
        for t in (0.5**3, 0.25, 0.5, 1.0):
            assert rel_err(picard(t), closed(t)) < 1e-6

    def test_error_shrinks_with_iterations(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        closed = solve_ivp_closed(prob, p_half)
        ts = (0.5**3, 0.25, 0.5, 1.0)
        errors = []
        for m in (5, 15, 25):
            ym = solve_ivp_picard(prob, m, p_half)
            errors.append(max(abs(ym(t) - closed(t)) for t in ts))
        assert errors[1] <= errors[0] + 1e-9
        assert errors[2] <= errors[1] + 1e-9

    def test_negative_iteration_count_rejected(self, p_half):
        with pytest.raises(DomainError):
            solve_ivp_picard(IVProblem(0.9, 0.3, 0.0, 1.0), -1, p_half)

    def test_forced_problem_matches_closed_form(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s)
        closed = solve_ivp_closed(prob, p_half)
        picard = solve_ivp_picard(prob, 25, p_half)
        for t in (0.25, 0.5, 1.0):
            assert rel_err(closed(t), picard(t)) < 1e-6


class TestResidual:
    def test_zero_rate_constant_solution(self, p_half):
        prob = IVProblem(0.7, 0.0, 0.5**4, 2.0)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.25, 1.0):
            assert abs(ivp_residual(prob, y, t, p_half)) < 1e-11

    def test_closed_form_satisfies_equation(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.5**3, 0.25, 0.5, 1.0):
            assert abs(ivp_residual(prob, y, t, p_half)) <= 1e-5

    def test_constant_is_not_a_solution(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        got = ivp_residual(prob, lambda t: 1.0, 0.25, p_half)
        assert got == pytest.approx(-0.3, rel=1e-12)

    def test_point_must_exceed_base(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.25, 1.0)
        with pytest.raises(DomainError):
            ivp_residual(prob, lambda t: 1.0, 0.25, p_half)

    def test_forced_closed_form_satisfies_equation(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.25, 1.0):
            assert abs(ivp_residual(prob, y, t, p_half)) <= 1e-5


class TestFixedPoint:
    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_solution_solves_the_integral_equation(self, alpha, lam):
        q = 0.3
        p = QParams(q)
        a = q**4
        prob = IVProblem(alpha, lam, a, 1.0)
        y = solve_ivp_closed(prob, p)
        for t in (q**2, 1.0):
            rhs = 1.0 + lam * left_frac_integral(y, a, alpha, t, p)
            assert rel_err(y(t), rhs) < 1e-6

    def test_series_term_matches_iterated_power_rule(self, p_half):
        # Term k of the solution kernel equals k nested fractional integrals
        # of the constant 1, evaluated numerically.
        alpha, lam, a = 0.9, 0.3, 0.5**4
        rule = lambda x: 1.0
        for k in range(1, 5):
            prev = rule
            rule = (
                lambda x, prev=prev: lam
                * left_frac_integral(prev, a, alpha, x, p_half)
            )
            for t in (0.25, 1.0):
                term = (
                    lam**k
                    * q_factorial_power(t, a, alpha * k, p_half)
                    / q_gamma(alpha * k + 1.0, p_half)
                )
                assert rel_err(term, rule(t)) < 1e-9


def quadratic(c0, c1, c2):
    return lambda s: c0 + c1 * s + c2 * s * s


def convolution_forcing_term(alpha, lam, a, t, f, p):
    """The forcing term as the paper writes it: the Jackson sum of the kernel
    (t - qs)_q^(alpha-1) times E_{alpha,alpha}(lam, t - q**alpha s) f(s)."""
    shift = p.q**alpha

    def integrand(s):
        kernel = q_factorial_power(t, p.q * s, alpha - 1.0, p)
        if kernel == 0.0:
            return 0.0
        wave = q_mittag_leffler(MLParams(alpha, alpha, lam, z0=shift * s), t, p)
        return kernel * wave * f(s)

    return q_integral(integrand, a, t, p)


class TestForcingSeries:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_matches_the_convolution_with_mittag_leffler(self, q, alpha, lam):
        # sum_k lam**k I_a^(alpha(k+1)) f(t), from the q-power rule, against
        # the convolution it replaces; a on and off the grid of t.
        p = QParams(q)
        f = quadratic(1.0, -0.5, 0.7)
        for a in (0.0, q**4, 0.37 * q**4):
            base = a if a > 0.0 else q**4
            points = [base * q**-j for j in range(1, 5)] + [0.77]
            y = solve_ivp_closed(IVProblem(alpha, lam, a, 0.0, f), p)
            for t in points:
                want = convolution_forcing_term(alpha, lam, a, t, f, p)
                assert y(t) == pytest.approx(want, rel=1e-9, abs=0.0), (a, t)

    @pytest.mark.parametrize("a_steps", [None, 3])
    def test_lattice_start_needs_no_factorial_power(self, monkeypatch, a_steps):
        # a = 0 or a = t q**m: every fractional integral is a lattice series,
        # so neither the generic q-factorial power nor the q-Mittag-Leffler
        # series is evaluated, for the solution or for its residual.
        calls = {"q_factorial_power": 0, "q_mittag_leffler": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(qfrac.special, "q_factorial_power")
        counted(qfrac.ivp, "q_mittag_leffler")
        p = QParams(0.5)
        t = 1.0
        a = 0.0 if a_steps is None else t * p.q**a_steps
        prob = IVProblem(0.8, 0.3, a, 0.0, quadratic(1.0, -0.5, 0.7))
        y = solve_ivp_closed(prob, p)
        assert y(t) != 0.0
        assert abs(ivp_residual(prob, y, t, p)) <= 1e-5
        assert calls == {"q_factorial_power": 0, "q_mittag_leffler": 0}


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.5, 1.0),
    lam=st.floats(-0.4, 0.4),
    from_origin=st.booleans(),
    j=st.integers(1, 4),
    coeffs=st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))),
)
def test_forced_closed_form_solves_the_equation(q, alpha, lam, from_origin, j, coeffs):
    # At t = a q**-j (t = q**(4-j) from the origin) the forced closed form
    # either meets the equation to 1e-5 or fails through the error channel.
    p = QParams(q)
    a = 0.0 if from_origin else q**4
    t = q ** (4 - j)
    prob = IVProblem(alpha, lam, a, 1.0, quadratic(*coeffs))
    try:
        residual = ivp_residual(prob, solve_ivp_closed(prob, p), t, p)
    except QCalculusError:
        return
    assert math.isfinite(residual)
    assert abs(residual) <= 1e-5


def chained_picard(alpha, lam, a, a0, f, m, p):
    """Successive approximation as a chain of memoised left_frac_integral
    closures, one per iterate: the pointwise route the lattice columns
    replace."""
    forcing = None if f is None else cache(lambda t: left_frac_integral(f, a, alpha, t, p))
    y = lambda t: a0
    for _ in range(m):

        @cache
        def y(t, prev=y):
            value = a0 + lam * left_frac_integral(prev, a, alpha, t, p)
            return value if forcing is None else value + forcing(t)

    return y


def scale_points(q, a):
    """t = a q**-j for j = 1..4 (t = q**(4 - j) when a = 0)."""
    base = a if a > 0.0 else q**4
    return [base * q**-j for j in range(1, 5)]


# q = 0.5, alpha = 0.9, lam = 0.3, a0 = 1, forcing s, m = 5 at t = q**3 .. 1:
# iterate and forcing cells the chained closures evaluate, per start a.
CHAINED_EVALUATIONS = {0.0: 598, 0.5**4: 24}


class TestPicardLattice:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_matches_chained_integrals(self, q, alpha, lam):
        p = QParams(q)
        for a in (0.0, q**4):
            for f in (None, lambda s: s):
                for m in (0, 1, 5):
                    y = solve_ivp_picard(IVProblem(alpha, lam, a, 1.0, f), m, p)
                    want = chained_picard(alpha, lam, a, 1.0, f, m, p)
                    for t in scale_points(q, a):
                        assert y(t) == pytest.approx(want(t), rel=1e-12, abs=0.0), (a, f, m, t)

    @pytest.mark.parametrize("a", sorted(CHAINED_EVALUATIONS))
    def test_cells_are_shared_between_points(self, a):
        q = 0.5
        p = QParams(q)
        prob = IVProblem(0.9, 0.3, a, 1.0, lambda s: s)
        points = (q**3, q**2, q, 1.0)
        counts, values = [], []
        for order in (points, points[::-1]):
            y = solve_ivp_picard(prob, 5, p)
            values.append({t: y(t) for t in order})
            counts.append(y.diagnostics["evaluations"])
        assert values[0] == values[1]
        assert counts[0] == counts[1] <= CHAINED_EVALUATIONS[a]

    def test_frozen_problem_term_count(self, p_half):
        y = solve_ivp_picard(IVProblem(0.84, 0.3, 0.0, 1.0), 10, p_half)
        with count_terms() as counter:
            y(1.0)
        assert counter.total == 77_910
        assert y.diagnostics["evaluations"] == 1_855

    @pytest.mark.parametrize("t", [0.37, 0.5**5, -1.0, math.nan])
    def test_points_off_the_time_scale_rejected(self, p_half, t):
        y = solve_ivp_picard(IVProblem(0.9, 0.3, 0.5**4, 1.0, lambda s: s), 3, p_half)
        with pytest.raises(DomainError, match="t="):
            y(t)

    @pytest.mark.parametrize("a", [0.0, 0.5**4])
    def test_initial_point_gives_initial_value(self, p_half, a):
        y = solve_ivp_picard(IVProblem(0.9, 0.3, a, 2.5, lambda s: s), 3, p_half)
        assert y(a) == 2.5

    def test_budget_exhaustion_from_origin(self):
        p = QParams(0.5, Truncation(max_terms=5))
        y = solve_ivp_picard(IVProblem(0.9, 0.3, 0.0, 1.0), 2, p)
        with pytest.raises(NonConvergence):
            y(1.0)

    def test_threads_sharing_a_solution(self, p_half):
        # Cells are shared state: threads evaluating one solution at once
        # must see the values, and compute the cells, of one thread alone.
        prob = IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s)
        points = [0.5**j for j in range(8)]
        alone = solve_ivp_picard(prob, 6, p_half)
        want = [alone(t) for t in points]
        shared = solve_ivp_picard(prob, 6, p_half)
        got = {}

        def worker(i):
            got[i] = [shared(t) for t in points[i % 2::2] + points]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for i, values in got.items():
            assert values[-len(points):] == want
        assert len(got) == 6
        assert shared.diagnostics["evaluations"] == alone.diagnostics["evaluations"]


def test_zero_rate_takes_one_forcing_integral(monkeypatch):
    # With lam = 0 every later term of the forcing series is 0.0 * integral.
    orders = []

    def recorded(f, a, order, t, p):
        orders.append(order)
        return left_frac_integral(f, a, order, t, p)

    monkeypatch.setattr(qfrac.ivp, "left_frac_integral", recorded)
    p, alpha = QParams(0.5), 0.8
    f = quadratic(1.0, -0.5, 0.7)
    for a in (0.0, 0.5**4):
        orders.clear()
        y = solve_ivp_closed(IVProblem(alpha, 0.0, a, 0.0, f), p)
        assert y(1.0) == left_frac_integral(f, a, alpha, 1.0, p)
        assert orders == [alpha]


POINT_EXPONENTS = st.integers(-2, 4)
SMALL_M = st.integers(0, 5)


def _finite_or_error(fn, *args):
    try:
        value = fn(*args)
    except QCalculusError:
        return
    assert math.isfinite(value)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 2.5),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    start=st.sampled_from(["origin", "grid", "off-grid"]),
)
def test_left_integral_is_finite_or_an_error(q, alpha, i, m, start):
    t = q**i
    a = {"origin": 0.0, "grid": t * q**m, "off-grid": 0.37 * t * q**m}[start]
    _finite_or_error(left_frac_integral, quadratic(1.0, -0.5, 0.7), a, alpha, t, QParams(q))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 2.5),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    infinite=st.booleans(),
)
def test_right_integral_is_finite_or_an_error(q, alpha, i, m, infinite):
    t = q**i
    b = math.inf if infinite else t * q**-m
    _finite_or_error(right_frac_integral, lambda s: s**-3.0, b, alpha, t, QParams(q))


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 1.0),
    lam=st.floats(-0.4, 0.4),
    from_origin=st.booleans(),
    j=st.integers(1, 4),
    m=SMALL_M,
    forced=st.booleans(),
)
def test_picard_is_finite_or_an_error(q, alpha, lam, from_origin, j, m, forced):
    a = 0.0 if from_origin else q**4
    f = quadratic(1.0, -0.5, 0.7) if forced else None
    y = solve_ivp_picard(IVProblem(alpha, lam, a, 1.0, f), m, QParams(q))
    _finite_or_error(y, q ** (4 - j))
